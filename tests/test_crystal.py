"""Double complex, totalization, and the de Rham comparison."""

import pytest

from crystalcalc.crystal import (
    CohomologyReport,
    DoubleComplex,
    compare_dr_cris,
    cris,
    dr_report,
    known_values_check,
    oracle_divisors,
)
from crystalcalc.cli import main, parse_presentation
from crystalcalc.derham import DeRhamComplex, FormBasis, graded_cells
from crystalcalc.errors import ContainmentViolation, SignConventionViolation
from crystalcalc.linalg import (ElementaryDivisors, HowellBasis, Matrix,
                                _kernel_pivots, kernel, subquotient)
from crystalcalc.ring import ZpN
from crystalcalc.series import PDSeries, pd_substitute
from crystalcalc.simplicial import LevelTower, SimplexMap
from crystalcalc.smoothlift import catalog, unit_pair_presentation

from dense_matrices import assert_rows_validated, to_dense
from test_cli import PRES_TEXT

R33 = ZpN(3, 3)


def test_face_values_level1_forms():
    # level-1 forms: face 0 sends T to 0, face 1 sends T to p and dT to 0
    A = catalog("point", R33)
    dc = DoubleComplex(A, 1, D=4)
    f0 = dc.face_matrix(1, 0, 0)
    f1 = dc.face_matrix(1, 1, 0)
    basis0 = dc.columns[1].basis(0)
    # basis0 = T^[0..4]; face 0 keeps only T^[0]; face 1 maps T^[k] to
    # gamma_k(p) = p^k / k!
    col0_dim = len(dc.columns[0].basis(0))
    assert col0_dim == 1
    d0 = to_dense(f0)
    d1 = to_dense(f1)
    for k, b in enumerate(basis0):
        weight = sum(b.te)
        assert d0[k][0] == (1 if weight == 0 else 0)
        assert d1[k][0] == R33.gamma_p(weight)
    # faces kill dT-forms
    assert dc.face_matrix(1, 0, 1).is_zero()
    assert dc.face_matrix(1, 1, 1).is_zero()


def test_moore_property_m2():
    A = catalog("gm", R33, E=4)
    dc = DoubleComplex(A, 2, D=4)
    rep = dc.verify_moore(0)
    assert rep.passed, rep.witness


def test_commuting_squares():
    A = catalog("gm", R33, E=4)
    dc = DoubleComplex(A, 2, D=4)
    rep = dc.verify_squares(1)
    assert rep.passed, rep.witness


def test_total_complex_squares_to_zero():
    A = catalog("gm", R33, E=4)
    dc = DoubleComplex(A, 2, D=4)
    for g in (-1, 0, 2):
        dc.assert_total_complex(g)


def test_single_column_tot_is_column():
    A = catalog("a1", R33, E=4)
    dc = DoubleComplex(A, 0, D=2)
    for g in (0, 1, 3):
        for i in (0, 1):
            assert dc.total_cohomology(i, g) == dc.columns[0].cohomology(i, g)


def test_point_tot_m1():
    A = catalog("point", R33)
    dc = DoubleComplex(A, 1, D=4)
    dc.assert_total_complex(0)
    assert dc.total_cohomology(0, 0).exponents == (3,)
    assert dc.total_cohomology(1, 0).is_trivial()


def test_cris_point():
    A = catalog("point", R33)
    rep = cris(A, 2, D=4)
    assert rep.cells[(0, 0)].exponents == (3,)
    assert rep.cells[(1, 0)].is_trivial()


def test_oracle_values():
    ring = ZpN(3, 3)
    assert oracle_divisors("gm", 1, 0, ring).exponents == (3,)
    assert oracle_divisors("gm", 0, 9, ring).exponents == (2,)
    assert oracle_divisors("gm", 0, 3, ring).exponents == (1,)
    assert oracle_divisors("gm", 0, 1, ring).is_trivial()
    assert oracle_divisors("a1", 1, 6, ring).exponents == (1,)
    assert oracle_divisors("point", 0, 0, ring).exponents == (3,)


def test_known_values_point_and_small_gm():
    rep = known_values_check(catalog("point", R33), 2, D=3)
    assert rep.passed, rep.witness
    rep = known_values_check(catalog("gm", R33, E=4), 2, D=4)
    assert rep.passed, rep.witness


def test_compare_dr_cris_gm_small():
    A = catalog("gm", R33, E=4)
    rep = compare_dr_cris(A, 2, D=4)
    assert rep.passed, rep.witness


def test_compare_dr_cris_a1_p2():
    A = catalog("a1", ZpN(2, 3), E=5)
    rep = compare_dr_cris(A, 2, D=4)
    assert rep.passed, rep.witness


def test_tracked_free_class_of_gm():
    # the residue class x^{-1} dx stays a full-precision class in degree 1
    A = catalog("gm", R33, E=4)
    rep = cris(A, 2, D=4)
    assert rep.cells[(1, 0)].exponents == (3,)
    assert rep.cells[(1, 0)].free_rank == 1


def test_cap_increase_keeps_certified_cells():
    A = catalog("gm", R33, E=4)
    small = cris(A, 2, D=4)
    big = cris(A, 2, D=5)
    for key in small.cells:
        assert small.cells[key] == big.cells[key]


def test_report_lines_deterministic():
    A = catalog("gm", R33, E=4)
    r1 = cris(A, 1, D=3)
    r2 = cris(A, 1, D=3)
    assert r1.lines() == r2.lines()
    assert "completion: implicit mod p^N" in r1.lines()


def test_totalize_view():
    # one graded piece of the total complex, through the DoubleComplex methods
    A = catalog("a1", R33, E=4)
    dc = DoubleComplex(A, 1, D=3)
    assert dc.assert_total_complex(2, degrees=(0,))
    assert dc.total_cohomology(0, 2) == oracle_divisors("a1", 0, 2, R33)
    assert dc.tot_matrix(0, 2).nrows == sum(len(dc.columns[m].basis(q, 2))
                                            for (m, q) in dc.tot_blocks(0))


def test_known_values_rejects_uncatalogued_algebra():
    import pytest
    from crystalcalc.errors import CatalogMismatch
    with pytest.raises(CatalogMismatch):
        known_values_check(catalog("ell-3-1-2", R33), 1, D=2)


def test_window_increase_keeps_certified_cells():
    # enlarging the geometric window must not change certified divisors
    small = cris(catalog("gm", R33, E=4), 2, D=4)
    big = cris(catalog("gm", R33, E=5), 2, D=4)
    for key, val in small.cells.items():
        assert big.cells[key] == val


def test_pair_torus_full_pipeline():
    # Tier-2 presentation (x*y = 1) with weights (1, -1): the whole
    # comparison runs through the rewrite quotient, and the invariant
    # differential class keeps full precision
    from crystalcalc.smoothlift import unit_pair_presentation
    A = unit_pair_presentation(ZpN(3, 2), E=4)
    rep = compare_dr_cris(A, 2, D=3)
    assert rep.passed, rep.witness
    r = cris(A, 2, D=3, degrees=range(0, 2))
    assert r.cells[(1, 0)].exponents == (2,)


def test_gm_p5_comparison():
    A = catalog("gm", ZpN(5, 2), E=5)
    rep = compare_dr_cris(A, 2, D=4)
    assert rep.passed, rep.witness


def test_divided_tower_face_identities():
    # d_i d_j = d_{j-1} d_i on the divided-power interval tower
    from crystalcalc.series import PDSeries as S
    from crystalcalc.simplicial import LevelTower, SimplexMap
    tw = LevelTower(R33, 4, divided=True)
    f = S.pd_var(tw.spec(3), "T0", 2).mul(S.pd_var(tw.spec(3), "T2"))
    for j in range(4):
        for i in range(j):
            lhs = tw.face(2, i, tw.face(3, j, f))
            rhs = tw.face(2, j - 1, tw.face(3, i, f))
            assert lhs == rhs, (i, j)


def test_cris_ungraded_hypersurface():
    # inhomogeneous presentations run in the single-window mode
    A = catalog("ell-3-1-2", ZpN(3, 2), E=4)
    rep = cris(A, 1, D=2, degrees=range(0, 1))
    assert (0, None) in rep.cells
    assert "H^0 g=all:" in "\n".join(rep.lines())


# -- face matrices against a full substitution ---------------------------------


def _reference_face_matrix(dc, m, i, q, g):
    """The i-th face on q-forms, by full substitution of every basis form.

    Each monomial x^a T^[b] goes through ``pd_substitute`` whole (x-part
    included) and then ``Presentation.reduce``; the dT's are expanded one
    wedge factor at a time, each new dT_w moved into sorted position.
    """
    src_cx, tgt_cx = dc.columns[m], dc.columns[m - 1]
    src, tgt = src_cx.basis(q, g), tgt_cx.basis(q, g)
    index = {b: k for k, b in enumerate(tgt)}
    images = dc.tower.structure_images(SimplexMap.coface(m, i))
    d_images = {k: {te.index(1): c
                    for (_xe, te), c in images[f"T{k}"].terms.items()
                    if sum(te) == 1}
                for k in range(m)}
    mod = dc.A.ring.modulus
    entries = {}
    for r, b in enumerate(src):
        mono = PDSeries(src_cx.spec, {(b.xe, b.te): 1})
        coeff = dc.A.reduce(pd_substitute(mono, images, tgt_cx.spec))
        wedge = {(): 1}
        for k in b.K:
            new = {}
            for K, s in wedge.items():
                for w, c in d_images[k].items():
                    if w in K:
                        continue
                    sign = -1 if sum(1 for v in K if v > w) % 2 else 1
                    key = tuple(sorted(K + (w,)))
                    new[key] = new.get(key, 0) + sign * s * c
            wedge = new
        for K, s in wedge.items():
            for (xe, te), c in coeff.terms.items():
                if sum(te) + len(K) > dc.D:
                    continue
                idx = index.get(FormBasis(xe, te, b.J, K))
                if idx is not None:
                    entries[(r, idx)] = (entries.get((r, idx), 0) + s * c) % mod
    return Matrix(dc.A.ring, len(src), len(tgt), entries)


@pytest.mark.parametrize("name,p,N,D,E,M", [
    ("gm", 3, 2, 3, 4, 3),
    ("a1", 2, 3, 3, 4, 3),
    ("ell-3-1-2", 3, 2, 2, 3, 2),
])
def test_face_matrix_matches_full_substitution(name, p, N, D, E, M):
    A = catalog(name, ZpN(p, N), E=E)
    dc = DoubleComplex(A, M, D)
    checked = 0
    for g in graded_cells(A, D):
        for m in range(1, M + 1):
            for q in range(dc.columns[m].max_form_degree() + 1):
                for i in range(m + 1):
                    got = dc.face_matrix(m, i, q, g)
                    assert got == _reference_face_matrix(dc, m, i, q, g), \
                        (m, i, q, g)
                    checked += not got.is_zero()
    assert checked > 0


@pytest.mark.parametrize("name", ["gm", "ell-3-1-2"])
def test_face_with_geometric_image_is_rejected(monkeypatch, name):
    # a face that moves x is not degree preserving, graded or not
    original = LevelTower.structure_images

    def moving_x(self, sigma):
        images = original(self, sigma)
        img = images["T0"]
        x = PDSeries.geom_var(img.spec, img.spec.geom[0].name)
        images["T0"] = img.add(x.scale(self.ring.p))
        return images

    monkeypatch.setattr(LevelTower, "structure_images", moving_x)
    A = catalog(name, ZpN(3, 2), E=3)
    dc = DoubleComplex(A, 1, D=2)
    g = graded_cells(A, 2)[0]
    with pytest.raises(SignConventionViolation, match="degree preserving"):
        dc.face_matrix(1, 1, 0, g)


def test_dt_image_of_T_degree_2_is_rejected(monkeypatch):
    # the dT's go to the linear parts of the structure images, which must be
    # affine: a T0^2 term in T0's image stops the face on 1-forms
    original = LevelTower.structure_images

    def squared(self, sigma):
        images = original(self, sigma)
        t0 = PDSeries.pd_var(self.spec(sigma.n), "T0")
        images["T0"] = images["T0"].add(t0.mul(t0))
        return images

    monkeypatch.setattr(LevelTower, "structure_images", squared)
    dc = DoubleComplex(catalog("point", R33), 2, D=3)
    with pytest.raises(SignConventionViolation,
                       match="^structure image is not affine linear$"):
        dc.face_matrix(2, 0, 1)


# -- face-side matrices shared by cell layout -----------------------------------


def _presentation(name, ring, E):
    if name == "gm-pair":
        return unit_pair_presentation(ring, E=E)
    return catalog(name, ring, E=E)


@pytest.mark.parametrize("name,p,N,D,E", [
    ("gm", 3, 2, 3, 3),
    ("a1", 2, 3, 3, 4),
    ("ell-3-1-2", 3, 2, 2, 3),
    ("gm-pair", 3, 2, 2, 3),
])
def test_shared_face_side_matrices_equal_a_single_cell_complex(name, p, N,
                                                                D, E):
    # the cells run in order on one complex, so later cells read what earlier
    # cells of their layout built; a fresh complex asked for one cell alone
    # builds everything from that cell's own bases
    A = _presentation(name, ZpN(p, N), E)
    M = 2
    dc = DoubleComplex(A, M, D)
    gs = graded_cells(A, D)
    for g in gs:
        fresh = DoubleComplex(A, M, D)
        for m, col in enumerate(dc.columns):
            for q in range(col.max_form_degree() + 1):
                assert dc.normalized_rows(m, q, g) == \
                    fresh.normalized_rows(m, q, g), (m, q, g)
                if not m:
                    continue
                assert dc.horizontal(m, q, g) == fresh.horizontal(m, q, g), \
                    (m, q, g)
                for i in range(m + 1):
                    got = dc.face_matrix(m, i, q, g)
                    assert got == fresh.face_matrix(m, i, q, g), (m, i, q, g)
                    assert got == _reference_face_matrix(dc, m, i, q, g), \
                        (m, i, q, g)
        assert dc.verify_moore(g).passed
    # every case but the one-cell curve shares a layout between cells
    assert len({dc.layout(g) for g in gs}) < len(gs) or gs == [None]


def test_cells_with_one_layout_share_their_matrices():
    A = catalog("a1", ZpN(3, 2), E=6)
    dc = DoubleComplex(A, 2, 4)
    gs = graded_cells(A, 4)
    assert gs[:2] == [0, 1] and len(gs) > 2
    # g = 0 has no dx-forms; g >= 1 pairs x^(g-1) dx with x^g
    assert dc.layout(0) == ((0, ()),)
    assert dc.layout(1) == ((0, (0,)), (1, ()))
    assert all(dc.layout(g) == dc.layout(1) for g in gs[1:])
    for m, col in enumerate(dc.columns):
        for q in range(col.max_form_degree() + 1):
            assert dc.normalized_rows(m, q, 0) is not \
                dc.normalized_rows(m, q, 1)
            for g in gs[2:]:
                assert dc.normalized_rows(m, q, g) is \
                    dc.normalized_rows(m, q, 1)
            if not m:
                continue
            assert dc.horizontal(m, q, 0) is not dc.horizontal(m, q, 1)
            for i in range(m + 1):
                assert dc.face_matrix(m, i, q, 0) is not \
                    dc.face_matrix(m, i, q, 1)
            for g in gs[2:]:
                assert dc.horizontal(m, q, g) is dc.horizontal(m, q, 1)
                for i in range(m + 1):
                    assert dc.face_matrix(m, i, q, g) is \
                        dc.face_matrix(m, i, q, 1)
    # a truncated view reads the same faces
    view = dc.truncated(1)
    assert view.face_matrix(1, 1, 0, 3) is dc.face_matrix(1, 1, 0, 1)


def test_corrupted_shared_face_fails_moore_at_the_first_cell(monkeypatch):
    # x*y = 1 has two layouts: the cells g <= 0 pair dx with the larger
    # x-monomial, the cells g >= 1 with the smaller one.  A corrupted face of
    # the second layout must fail the Moore check, first at g = 1, and in
    # every cell of that layout but no other
    A = unit_pair_presentation(ZpN(3, 2), E=3)
    D = 2
    gs = graded_cells(A, D)
    probe = DoubleComplex(A, 2, D)
    bad_layout = probe.layout(1)
    sharing = [g for g in gs if probe.layout(g) == bad_layout]
    assert sharing[0] == 1 and len(sharing) > 1 and gs[0] < 1
    original = DoubleComplex._build_face_matrix

    def corrupted(self, m, i, q, g):
        mat = original(self, m, i, q, g)
        if (m, i) == (2, 1) and self.layout(g) == bad_layout:
            return mat.scale(2)
        return mat

    monkeypatch.setattr(DoubleComplex, "_build_face_matrix", corrupted)
    rep = compare_dr_cris(A, 2, D)
    assert not rep.passed
    assert rep.details["000:moore-property"] == "fail"
    assert rep.witness.endswith(", graded 1"), rep.witness
    dc = DoubleComplex(A, 2, D)
    for g in gs:
        moore = dc.verify_moore(g)
        assert moore.passed == (dc.layout(g) != bad_layout), g
        assert moore.details["graded"] == g
        if not moore.passed:
            assert moore.witness.endswith(f", graded {g}")
    # the outcome is kept per M: the view's two columns have no Moore square
    assert dc.truncated(1).verify_moore(1).passed


# -- one double complex per comparison ------------------------------------------


@pytest.mark.parametrize("name,p,N,E", [("gm", 3, 3, 4), ("a1", 2, 3, 5)])
def test_truncated_view_matches_fresh_complex(monkeypatch, name, p, N, E):
    A = catalog(name, ZpN(p, N), E=E)
    D, M = 3, 2
    dc = DoubleComplex(A, M, D)
    gs = graded_cells(A, D)
    degrees = range(-1, dc.columns[0].max_form_degree() + 2)
    for g in gs:  # fill the shared caches from the larger complex first
        for i in degrees:
            dc.total_cohomology(i, g)
    view = dc.truncated(M - 1)
    fresh = DoubleComplex(A, M - 1, D)
    for g in gs:
        for i in degrees:
            assert view.tot_matrix(i, g) == fresh.tot_matrix(i, g), (i, g)
    reps = {dc.representative(g)[0] for g in gs}
    assert len(reps) < len(gs)
    # the view totalizes its own M - 1 columns, once per class
    # representative, instead of reading M's cells
    totalized = []
    tot_matrix = DoubleComplex.tot_matrix

    def recording(self, i, g=None):
        if self is view:
            totalized.append((i, g))
        return tot_matrix(self, i, g)

    monkeypatch.setattr(DoubleComplex, "tot_matrix", recording)
    for g in gs:
        assert view.representative(g) is dc.representative(g)
        for i in degrees:
            assert view.total_cohomology(i, g) == \
                fresh.total_cohomology(i, g), (i, g)
    assert sorted(totalized) == sorted((i - 1, g0) for g0 in reps
                                       for i in degrees)


def test_tot_matrix_built_once_per_complex():
    A = catalog("gm", ZpN(3, 2), E=4)
    dc = DoubleComplex(A, 2, 3)
    view = dc.truncated(1)
    for i in range(-2, 2):
        assert dc.tot_matrix(i, 1) is dc.tot_matrix(i, 1)
        assert view.tot_matrix(i, 1) is view.tot_matrix(i, 1)
        assert view.tot_matrix(i, 1) is not dc.tot_matrix(i, 1)


def test_compare_verb_builds_one_double_complex(monkeypatch, tmp_path):
    builds = []
    original = DoubleComplex.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(DoubleComplex, "__init__", counting)
    out = tmp_path / "compare.txt"
    code = main(["compare", "--algebra", "gm", "--p", "3", "--N", "2",
                 "--D", "3", "--E", "4", "--M", "2", "--out", str(out)])
    assert code == 0
    assert len(builds) == 1


# -- normalized cocycles as one left kernel -------------------------------------


def _reference_normalized_tot_rows(dc, i, g):
    """The normalized rows of Tot^i from the face matrices alone: per block
    (m, q), the left kernel of faces 1..m side by side."""
    ring = dc.A.ring
    rows, offset = [], 0
    for m, q in dc.tot_blocks(i):
        dim = len(dc.columns[m].basis(q, g))
        if m == 0:
            block = [{k: 1} for k in range(dim)]
        else:
            faces = [dc.face_matrix(m, k, q, g) for k in range(1, m + 1)]
            width = faces[0].ncols
            stacked = [{} for _ in range(dim)]
            for k, face in enumerate(faces):
                for r, row in enumerate(face.row_dicts()):
                    stacked[r].update({k * width + j: v for j, v in row.items()})
            block = kernel(Matrix.from_row_dicts(ring, stacked, m * width)) \
                .row_dicts()
        rows += [{offset + j: v for j, v in r.items()} for r in block]
        offset += dim
    return Matrix.from_row_dicts(ring, rows, offset)


def _reference_cocycles(dc, i, g):
    """The normalized cocycles of Tot^i by a change of coordinates: the x
    with x*(N*d) = 0, mapped back to the rows x*N."""
    n_here = _reference_normalized_tot_rows(dc, i, g)
    ker_x = kernel(n_here.mul(dc.tot_matrix(i, g)))
    return ker_x.mul(n_here)


def _reference_total_cohomology(dc, i, g):
    im_rows = _reference_normalized_tot_rows(dc, i - 1, g).mul(
        dc.tot_matrix(i - 1, g))
    return subquotient(_reference_cocycles(dc, i, g), im_rows)


def _assert_cocycles_match_reference(dc):
    cells = 0
    q_max = dc.columns[0].max_form_degree()
    for g in graded_cells(dc.A, dc.D):
        for i in range(-dc.M, q_max + 1):
            got = [row for (_c, row, _t, _v) in
                   _kernel_pivots(dc.normalized_cocycle_matrix(i, g))]
            want = HowellBasis(dc.A.ring, _reference_cocycles(dc, i, g)).rows()
            assert got == want, (dc.M, i, g)
            assert dc.total_cohomology(i, g) == \
                _reference_total_cohomology(dc, i, g), (dc.M, i, g)
            cells += 1
    return cells


@pytest.mark.parametrize("name,p,N,D,E", [
    ("point", 3, 3, 4, 4),
    ("point", 2, 2, 3, 4),
    ("a1", 2, 3, 3, 4),
    ("a1", 3, 2, 3, 5),
    ("gm", 3, 3, 3, 4),
    ("gm", 2, 2, 3, 3),
])
def test_cocycle_kernel_matches_change_of_coordinates(name, p, N, D, E):
    # the left kernel of [d | F] has exactly the Howell rows of the rows
    # x*N with x*(N*d) = 0, and the cohomology divisors agree
    A = catalog(name, ZpN(p, N), E=E)
    cells = 0
    for M in (1, 2, 3):
        dc = DoubleComplex(A, M, D)
        cells += _assert_cocycles_match_reference(dc)
        cells += _assert_cocycles_match_reference(dc.truncated(M - 1))
    assert cells > 0


def test_cocycle_kernel_matches_change_of_coordinates_ungraded():
    A = catalog("ell-3-1-2", ZpN(3, 2), E=3)
    dc = DoubleComplex(A, 2, 2)
    assert graded_cells(A, 2) == [None]
    assert _assert_cocycles_match_reference(dc) > 0


def test_image_outside_the_normalized_cocycles_is_rejected():
    # corrupt one entry of the cached d_(i-1) so that d o d != 0 on a
    # normalized row: the subquotient must refuse the image
    A = catalog("gm", ZpN(3, 2), E=4)
    dc = DoubleComplex(A, 2, 3)
    i, g = 0, 1
    ring = A.ring
    d_prev, d_here = dc.tot_matrix(i - 1, g), dc.tot_matrix(i, g)
    n_prev = dc.normalized_tot_rows(i - 1, g)
    assert n_prev.mul(d_prev).mul(d_here).is_zero()
    # a column r where some normalized row has a unit, and a row j of d_i
    # with a unit entry
    r = min(c for row in n_prev.row_dicts() for c, v in row.items()
            if v % ring.p)
    j = min(k for k, row in enumerate(d_here.row_dicts())
            if any(v % ring.p for v in row.values()))
    rows = d_prev.row_dicts()
    rows[r][j] = rows[r].get(j, 0) + 1
    corrupted = Matrix.from_row_dicts(ring, rows, d_prev.ncols)
    assert not n_prev.mul(corrupted).mul(d_here).is_zero()
    dc._tot_cache[("d", i - 1, g)] = corrupted
    with pytest.raises(ContainmentViolation):
        dc.total_cohomology(i, g)


@pytest.mark.parametrize("name, ring, E, M, D", [
    ("point", ZpN(3, 2), 3, 2, 3),
    ("a1", ZpN(2, 3), 4, 2, 4),
    ("gm", ZpN(3, 2), 4, 2, 3),
    ("ell-3-1-2", ZpN(3, 2), 3, 2, 2),
])
def test_built_matrices_store_validated_rows(name, ring, E, M, D):
    # the builders emit rows through the trusted constructor; every matrix
    # they build must equal its validated rebuild
    A = catalog(name, ring, E=E)
    dc = DoubleComplex(A, M, D)
    built = []
    for g in graded_cells(A, D):
        for m, col in enumerate(dc.columns):
            for q in range(col.max_form_degree() + 1):
                built += [col.dmat(q, g), dc.normalized_rows(m, q, g)]
                if m:
                    built += [dc.face_matrix(m, i, q, g) for i in range(m + 1)]
                    built.append(dc.horizontal(m, q, g))
        for i in range(-M, dc.columns[0].max_form_degree() + 1):
            d = dc.tot_matrix(i, g)
            F = dc.normalized_cocycle_matrix(i, g)
            n = dc.normalized_tot_rows(i, g)
            built += [d, F, kernel(F), n, n.mul(d), d.add(d), d.scale(-1),
                      d.scale(ring.p)]
    assert sum(not mat.is_zero() for mat in built) > 10
    for mat in built:
        assert_rows_validated(mat)


@pytest.mark.parametrize("where", ["column 0", "column 1"])
def test_augmentation_check_catches_a_corrupted_column0_row(where):
    # one changed entry in a column-0 row of Tot^0, inside the block (0, 1)
    # of d or outside it, and column 0 no longer includes as a subcomplex
    A = catalog("gm", ZpN(3, 2), E=4)
    dc = DoubleComplex(A, 2, 3)
    g = 1
    assert dc.augmentation_is_chain_map(g).passed
    d = dc.tot_matrix(0, g)
    d0 = dc.columns[0].dmat(0, g)
    assert d0.nrows >= 1 and dc.tot_blocks(1)[0] == (0, 1)
    j = 0 if where == "column 0" else d.ncols - 1
    assert (j < d0.ncols) == (where == "column 0")
    rows = d.row_dicts()
    rows[0][j] = rows[0].get(j, 0) + 1
    dc._tot_cache[("d", 0, g)] = Matrix.from_row_dicts(A.ring, rows, d.ncols)
    rep = dc.augmentation_is_chain_map(g)
    assert not rep.passed
    assert "q=0" in rep.witness


# -- one elimination per class of isomorphic cells --------------------------------


def _oracle_case(name, p, N, E):
    ring = ZpN(p, N)
    if name == "pairtorus":
        return parse_presentation(PRES_TEXT, ring, E)
    return catalog(name, ring, E=E)


@pytest.mark.parametrize("name,p,N,D,E,M", [
    ("gm", 3, 3, 4, 9, 2),
    ("gm", 2, 4, 4, 9, 3),
    ("a1", 3, 3, 4, 9, 2),
    ("pairtorus", 3, 3, 4, 5, 2),
])
def test_shared_divisors_equal_each_cells_own_elimination(name, p, N, D, E,
                                                           M):
    # a cell asked first on a fresh complex is its own representative, so
    # its divisors come from its own elimination
    A = _oracle_case(name, p, N, E)
    report = cris(A, M, D)
    gs = graded_cells(A, D)
    dc = DoubleComplex(A, M, D)
    assert len({dc.representative(g)[0] for g in gs}) < len(gs)
    for g in gs:
        fresh = DoubleComplex(A, M, D)
        assert fresh.representative(g) == (g, None)
        for (i, cell), divs in report.cells.items():
            if cell != g:
                continue
            assert divs == fresh.total_cohomology(i, g), (i, g)
            if name != "pairtorus":
                assert divs == oracle_divisors(name, i, g, A.ring), (i, g)


def test_cells_share_a_representative_when_their_valuations_agree():
    ring = ZpN(3, 3)
    A = catalog("gm", ring, E=9)
    dc = DoubleComplex(A, 2, 4)
    gs = graded_cells(A, 4)
    assert gs == list(range(-8, 10))
    rep = {g: dc.representative(g)[0] for g in gs}
    for g in gs:
        for h in gs:
            assert (rep[g] == rep[h]) == (ring.val(g) == ring.val(h)), (g, h)
    assert len(set(rep.values())) == 4
    # a member's scaling is a unit on every layout pair
    g0, s = dc.representative(2)
    assert g0 == -8 and s and all(v % 3 for v in s.values())
    assert dc.representative(-8) == (-8, None)


def test_level0_mismatch_is_rejected_before_the_certificate(monkeypatch):
    # another valuation (g = 3 against g = 1) or another support (g = 0)
    # fails the level-0 walk; the certificate runs only on proposals
    certified = []
    original = DoubleComplex._intertwines

    def recording(self, g, g0, s):
        certified.append((g, g0))
        return original(self, g, g0, s)

    monkeypatch.setattr(DoubleComplex, "_intertwines", recording)
    dc = DoubleComplex(catalog("gm", ZpN(3, 3), E=9), 2, 4)
    for g in (1, 3, 0):
        assert dc.representative(g) == (g, None)
    assert certified == []
    assert dc.representative(2)[0] == 1
    assert certified == [(2, 1)]


def test_member_with_a_changed_representative_is_eliminated_alone(
        monkeypatch):
    # one level-1 entry of the representative g = 1 scaled by the unit 4:
    # level 0 still proposes a scaling for g = 2, the level-1 comparison
    # refuses it, and g = 2 is eliminated on its own
    ring = ZpN(3, 3)
    A = catalog("gm", ring, E=9)
    original = DeRhamComplex.dmat

    def changed(self, q, g=None):
        mat = original(self, q, g)
        if (self.level, q, g) != (1, 0, 1):
            return mat
        rows = mat.row_dicts()
        c = min(rows[0])
        rows[0][c] = rows[0][c] * (1 + ring.p)
        return Matrix.from_row_dicts(ring, rows, mat.ncols)

    monkeypatch.setattr(DeRhamComplex, "dmat", changed)
    dc = DoubleComplex(A, 2, 4)
    assert dc.representative(1) == (1, None)
    assert dc._unit_scaling(2, 1) is not None
    assert dc.representative(2) == (2, None)
    for i in range(2):
        assert dc.total_cohomology(i, 2) == oracle_divisors("gm", i, 2, ring)
    # g = 4 is certified against the unchanged g = 2
    assert dc.representative(4)[0] == 2


def test_a_view_asked_first_certifies_on_every_column(monkeypatch):
    certified = []
    original = DoubleComplex._intertwines

    def recording(self, g, g0, s):
        certified.append(len(self.columns))
        return original(self, g, g0, s)

    monkeypatch.setattr(DoubleComplex, "_intertwines", recording)
    A = catalog("gm", ZpN(3, 2), E=4)
    dc = DoubleComplex(A, 2, 3)
    view = dc.truncated(1)
    assert view.representative(1) == (1, None)
    assert view.representative(2)[0] == 1
    assert certified == [3]
    assert dc.representative(2) is view.representative(2)
    assert view.total_cohomology(0, 2) == DoubleComplex(A, 1, 3) \
        .total_cohomology(0, 2)


def test_a_face_that_moves_a_layout_pair_stops_the_sharing(monkeypatch):
    # a face entry from x^g dT to x^(g-1) dx joins two layout pairs, so no
    # scaling of the pairs need commute with it: every cell stands alone
    original = DoubleComplex._build_face_matrix

    def moving(self, m, i, q, g):
        mat = original(self, m, i, q, g)
        if (m, i, q) != (1, 1, 1):
            return mat
        rows = mat.row_dicts()
        r = next(k for k, b in enumerate(self.columns[1].basis(1, g)) if b.K)
        rows[r][0] = 1
        return Matrix.from_row_dicts(self.A.ring, rows, mat.ncols)

    monkeypatch.setattr(DoubleComplex, "_build_face_matrix", moving)
    dc = DoubleComplex(catalog("gm", ZpN(3, 3), E=9), 2, 4)
    assert dc.representative(1) == (1, None)
    assert dc._unit_scaling(2, 1) is not None
    assert dc.representative(2) == (2, None)
    assert not dc._faces_fix_pairs(2)
