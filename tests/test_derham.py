"""De Rham complexes: chain property, contraction, base change, descent."""

import random
from itertools import combinations, product

import pytest

from crystalcalc.derham import (
    DeRhamComplex,
    FormBasis,
    base_change_check,
    graded_cells,
    poincare_check,
)
from crystalcalc.errors import ContainmentViolation, NotACover
from crystalcalc.linalg import ElementaryDivisors, Matrix
from crystalcalc.localized import LocalizedLine, cech_descent_check
from crystalcalc.ring import ZpN
from crystalcalc.series import GeomVar, PDSeries
from crystalcalc.smoothlift import Presentation, catalog, unit_pair_presentation

from dense_matrices import assert_rows_validated

R33 = ZpN(3, 3)


# -- small complexes ---------------------------------------------------------


def test_point_interval_complex():
    # base = coefficients only, one interval variable: T^[k] -> T^[k-1] dT
    A = catalog("point", R33)
    cx = DeRhamComplex(A, 1, D=4)
    b0 = cx.basis(0)
    b1 = cx.basis(1)
    assert len(b0) == 5      # T^[0..4]
    assert len(b1) == 4      # T^[0..3] dT (weight cap counts dT)
    cx.assert_complex()
    h0 = cx.cohomology(0)
    assert h0.exponents == (3,)
    h1 = cx.cohomology(1)
    assert h1.is_trivial()


def test_a1_plain_de_rham():
    A = catalog("a1", R33, E=6)
    cx = DeRhamComplex(A, 0, D=0)
    cx.assert_complex()
    # graded degree 3: H^0 = ker(*3) = Z/3 and H^1 = coker(*3) = Z/3;
    # graded degree 4 involves *4, a unit, so both vanish
    assert cx.cohomology(0, 3).exponents == (1,)
    assert cx.cohomology(1, 3).exponents == (1,)
    assert cx.cohomology(0, 4).is_trivial()
    assert cx.cohomology(1, 4).is_trivial()


def test_gm_de_rham_graded_zero():
    A = catalog("gm", R33, E=6)
    cx = DeRhamComplex(A, 0, D=0)
    # the class of dx/x is not exact: graded degree 0 of H^1 is free
    h1 = cx.cohomology(1, 0)
    assert h1.exponents == (3,)
    h0 = cx.cohomology(0, 0)
    assert h0.exponents == (3,)


def test_d_squared_zero_gm_level2():
    A = catalog("gm", R33, E=5)
    cx = DeRhamComplex(A, 2, D=4)
    for g in (-2, 0, 3):
        cx.assert_complex(g)


def test_leibniz_seeded():
    # d(fg) = f dg + g df, via multiplication in the coefficient ring
    A = catalog("gm", R33, E=8)
    cx = DeRhamComplex(A, 1, D=5)
    rng = random.Random(3)
    spec = cx.spec

    def rand_fn(nterms=3):
        terms = {}
        for _ in range(nterms):
            xe = (rng.randint(-3, 3),)
            te = (rng.randint(0, 2),)
            terms[(xe, te)] = rng.randrange(27)
        return PDSeries(spec, terms)

    def d_of_function(f):
        # differential of a 0-form, as a dict over basis(1)
        index = {b: k for k, b in enumerate(cx.basis(1))}
        out = {}
        for (xe, te), c in f.terms.items():
            row = cx._d_of_basis(FormBasis(xe, te, (), ()), index)
            for j, v in row.items():
                out[j] = (out.get(j, 0) + c * v) % 27
        return {j: v for j, v in out.items() if v}

    for _ in range(6):
        f, g = rand_fn(), rand_fn()
        fg = f.mul(g)
        lhs = d_of_function(fg)
        rhs = {}
        for (j, v) in d_of_function(g).items():
            b = cx.basis(1)[j]
            coeff_mono = PDSeries(spec, {(b.xe, b.te): v})
            prod = f.mul(coeff_mono)
            for (xe, te), c in prod.terms.items():
                if sum(te) + 1 > cx.D:
                    continue
                idx = cx.basis(1).index(FormBasis(xe, te, b.J, b.K))
                rhs[idx] = (rhs.get(idx, 0) + c) % 27
        for (j, v) in d_of_function(f).items():
            b = cx.basis(1)[j]
            coeff_mono = PDSeries(spec, {(b.xe, b.te): v})
            prod = g.mul(coeff_mono)
            for (xe, te), c in prod.terms.items():
                if sum(te) + 1 > cx.D:
                    continue
                idx = cx.basis(1).index(FormBasis(xe, te, b.J, b.K))
                rhs[idx] = (rhs.get(idx, 0) + c) % 27
        rhs = {j: v for j, v in rhs.items() if v}
        assert lhs == rhs


def test_hypersurface_frame_d_squared():
    A = catalog("ell-3-1-2", R33, E=8)
    cx = DeRhamComplex(A, 0, D=0)
    # Omega^1 is free on dy (the x-differential is witness-solved)
    assert all(b.J == (1,) for b in cx.basis(1))
    cx.assert_complex()


# -- contraction & poincare ----------------------------------------------------


def test_contraction_identity_point_m2():
    A = catalog("point", R33)
    cx = DeRhamComplex(A, 2, D=4)
    rep = cx.verify_contraction()
    assert rep.passed, rep.witness


@pytest.mark.parametrize("name,m", [("point", 1), ("a1", 1), ("gm", 2)])
def test_poincare_small(name, m):
    A = catalog(name, R33, E=5)
    rep = poincare_check(A, m, D=4)
    assert rep.passed, rep.witness


def _divisors_agree(A, m, D):
    """The elimination comparison: in every certified cell and form degree,
    the level-m divisors equal the level-0 ones (zero above level 0's top
    degree)."""
    col = DeRhamComplex(A, m, D)
    base = DeRhamComplex(A, 0, D)
    empty = ElementaryDivisors(A.ring.p, A.ring.N, [])
    return all(
        col.cohomology(q, g) == (base.cohomology(q, g)
                                 if q <= base.max_form_degree() else empty)
        for g in graded_cells(A, D) for q in range(col.max_form_degree() + 1))


@pytest.mark.parametrize("name,ring,E,D", [
    ("point", ZpN(2, 3), 0, 4),
    ("a1", ZpN(3, 2), 4, 3),
    ("a1", ZpN(2, 3), 4, 3),
    ("gm", ZpN(3, 2), 3, 3),
    ("ell-3-1-2", ZpN(3, 2), 3, 2),
    ("gm-pair", ZpN(3, 2), 3, 2),
])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_poincare_verdict_matches_elimination_oracle(name, ring, E, D, m):
    A = _algebra(name, ring, E)
    rep = poincare_check(A, m, D)
    assert rep.passed == _divisors_agree(A, m, D), rep.witness


def test_poincare_fails_on_scaled_interval_free_row(monkeypatch):
    # d(x) at level 1 times p: the contraction never reads that row, but the
    # interval-free subcomplex is no longer the level-0 complex
    A = catalog("a1", ZpN(3, 2), E=4)
    original = DeRhamComplex.dmat

    def dmat(self, q, g=None):
        M = original(self, q, g)
        if (self.npd, q, g) != (1, 0, 1):
            return M
        rows = M.row_dicts()
        r = self.basis(0, 1).index(FormBasis((1,), (0,), (), ()))
        rows[r] = {j: 3 * v for j, v in rows[r].items()}
        return Matrix.from_row_dicts(M.ring, rows, M.ncols)

    monkeypatch.setattr(DeRhamComplex, "dmat", dmat)
    assert DeRhamComplex(A, 1, 4).verify_contraction(1).passed
    assert not _divisors_agree(A, 1, 4)
    rep = poincare_check(A, 1, D=4)
    assert not rep.passed
    failed = [k for k, v in rep.details.items() if v == "fail"]
    assert [k.split(":")[1] for k in failed] == ["poincare-identification"]
    assert rep.witness == ("d on the interval-free 0-forms is not level 0's "
                           "(level 1, graded 1)")


def test_poincare_fails_when_level0_basis_misses_a_form(monkeypatch):
    # level 0 without the form x: x at level 1 is interval-free but no
    # level-0 form goes to it
    A = catalog("a1", ZpN(3, 2), E=4)
    original = DeRhamComplex.basis

    def basis(self, q, g=None):
        out = original(self, q, g)
        return out[1:] if (self.npd, q, g) == (0, 0, 1) else out

    monkeypatch.setattr(DeRhamComplex, "basis", basis)
    assert not _divisors_agree(A, 1, 4)
    rep = poincare_check(A, 1, D=4)
    assert rep.witness == ("the interval-free 0-forms are not level 0's "
                           "basis (level 1, graded 1)")


def _tensor_assembly(col, base, point, q, g):
    """d_0 (x) 1 + (-1)^|J| 1 (x) d_T on the level-m q-forms, each form split
    into its level-0 part (xe, J) and its point part (te, K)."""
    mod = col.spec.ring.modulus
    target = {b: k for k, b in enumerate(col.basis(q + 1, g))}
    rows = []
    for b in col.basis(q, g):
        b0 = FormBasis(b.xe, (), b.J, ())
        t = FormBasis((), b.te, (), b.K)
        q0 = len(b.J)
        row0 = base.dmat(q0, g).row_dicts()[base.basis(q0, g).index(b0)]
        row_t = point.dmat(q - q0).row_dicts()[point.basis(q - q0).index(t)]
        row = {}
        for j, v in row0.items():
            c = base.basis(q0 + 1, g)[j]
            k = target[FormBasis(c.xe, b.te, c.J, b.K)]
            row[k] = (row.get(k, 0) + v) % mod
        for j, v in row_t.items():
            u = point.basis(q - q0 + 1)[j]
            k = target[FormBasis(b.xe, u.te, b.J, u.K)]
            row[k] = (row.get(k, 0) + (-1) ** q0 * v) % mod
        rows.append(row)
    return Matrix.from_row_dicts(col.spec.ring, rows, len(target))


@pytest.mark.parametrize("name,ring,E,D", [
    ("point", ZpN(2, 3), 0, 4),
    ("a1", ZpN(2, 3), 4, 3),
    ("a1", ZpN(3, 2), 4, 3),
    ("gm", ZpN(3, 2), 3, 3),
    ("ell-3-1-2", ZpN(3, 2), 3, 2),
    ("gm-pair", ZpN(3, 2), 3, 2),
])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_level_m_differential_is_the_tensor_assembly(name, ring, E, D, m):
    A = _algebra(name, ring, E)
    col = DeRhamComplex(A, m, D)
    base = DeRhamComplex(A, 0, D)
    point = DeRhamComplex(catalog("point", ring), m, D)
    for g in graded_cells(A, D):
        for q in range(col.max_form_degree() + 1):
            assert col.dmat(q, g) == _tensor_assembly(col, base, point, q,
                                                      g), (q, g)
    assert poincare_check(A, m, D).passed


def test_poincare_fails_on_a_flipped_sign_of_the_point_kappa(monkeypatch):
    # kappa(dT0) = -T0^[1]: then d kappa(dT0) = -dT0, not dT0
    A = catalog("a1", ZpN(3, 2), E=4)
    assert poincare_check(A, 2, D=3).passed
    kappa = DeRhamComplex.kappa_of_basis
    flipped = FormBasis((), (0, 0), (), (0,))

    def kappa_of_basis(self, b, target_index):
        row = kappa(self, b, target_index)
        if not self.base.generators and b == flipped:
            row = {k: -v % self.spec.ring.modulus for k, v in row.items()}
        return row

    monkeypatch.setattr(DeRhamComplex, "kappa_of_basis", kappa_of_basis)
    rep = poincare_check(A, 2, D=3)
    assert not rep.passed
    assert list(rep.details) == ["000:poincare-contraction"]
    assert rep.witness.startswith("identity fails on FormBasis(xe=(), ")


def _corrupt_level_m_row(monkeypatch, m, q, g, form, change):
    """Apply change(row, target basis) to one row of the level-m dmat(q, g)
    of a positive-degree algebra."""
    original = DeRhamComplex.dmat

    def dmat(self, q_, g_=None):
        M = original(self, q_, g_)
        if (self.npd, len(self.base.generators), q_, g_) != (m, 1, q, g):
            return M
        rows = M.row_dicts()
        change(rows[self.basis(q, g).index(form)], self.basis(q + 1, g))
        return Matrix.from_row_dicts(M.ring, rows, M.ncols)

    monkeypatch.setattr(DeRhamComplex, "dmat", dmat)


def test_poincare_fails_on_an_entry_between_two_x_monomials(monkeypatch):
    # d(x^2 T0^[1]) = 2x dx T0^[1] + x^2 dT0 gains x dx: the x-monomial
    # changes and T0^[1] drops, which neither d_0 (x) 1 nor 1 (x) d_T does
    A = catalog("a1", ZpN(3, 2), E=4)
    form = FormBasis((2,), (1,), (), ())

    def change(row, tgt):
        row[tgt.index(FormBasis((1,), (0,), (0,), ()))] = 1

    _corrupt_level_m_row(monkeypatch, 1, 0, 2, form, change)
    rep = poincare_check(A, 1, D=4)
    assert not rep.passed
    failed = [k for k, v in rep.details.items() if v == "fail"]
    assert [k.split(":")[1] for k in failed] == ["poincare-identification"]
    assert rep.witness == (f"d on {form} is not d_0 (x) 1 + (-1)^|J| 1 (x) "
                           f"d_T (level 1, graded 2)")


def test_poincare_fails_on_plus_one_in_a_row_with_interval_variables(
        monkeypatch):
    # x^2 dT0 in d(x^2 T0^[1]) gets coefficient 2; the level-m contraction
    # reads that row too, and fails on it as well
    A = catalog("a1", ZpN(3, 2), E=4)
    form = FormBasis((2,), (1,), (), ())

    def change(row, tgt):
        j = tgt.index(FormBasis((2,), (0,), (), (0,)))
        row[j] += 1

    _corrupt_level_m_row(monkeypatch, 1, 0, 2, form, change)
    assert not DeRhamComplex(A, 1, 4).verify_contraction(2).passed
    rep = poincare_check(A, 1, D=4)
    assert not rep.passed
    assert rep.witness == (f"d on {form} is not d_0 (x) 1 + (-1)^|J| 1 (x) "
                           f"d_T (level 1, graded 2)")
    assert rep.details["002:poincare-identification"] == "fail"


def test_poincare_fails_when_a_level_m_form_is_not_a_pair(monkeypatch):
    # level 1 without x T0^[1]: the interval-free forms are still level 0's
    A = catalog("a1", ZpN(3, 2), E=4)
    original = DeRhamComplex.basis
    dropped = FormBasis((1,), (1,), (), ())

    def basis(self, q, g=None):
        out = original(self, q, g)
        return [b for b in out if b != dropped] \
            if (self.npd, len(self.base.generators)) == (1, 1) else out

    monkeypatch.setattr(DeRhamComplex, "basis", basis)
    rep = poincare_check(A, 1, D=4)
    assert not rep.passed
    assert rep.witness == ("the 0-forms are not the pairs of a level-0 form "
                           "and a point form (level 1, graded 1)")


# -- graded windows -------------------------------------------------------------


def test_graded_cells_gm():
    A = catalog("gm", R33, E=6)
    cells = graded_cells(A, D=4)
    assert cells == list(range(-5, 7))  # shifts {0,1} need g-1 >= -6


def test_graded_cells_a1():
    A = catalog("a1", R33, E=6)
    cells = graded_cells(A, D=4)
    assert cells == list(range(0, 7))


def test_graded_cells_point_and_inhomogeneous():
    assert graded_cells(catalog("point", R33), D=2) == [0]
    assert graded_cells(catalog("ell-3-1-2", R33), D=2) == [None]


# -- base change -----------------------------------------------------------------


@pytest.mark.parametrize("name,m", [("point", 1), ("a1", 1), ("gm", 1)])
def test_base_change(name, m):
    A = catalog(name, R33, E=4)
    rep = base_change_check(A, m, D=3)
    assert rep.passed, rep.witness


@pytest.mark.parametrize("m,D,message", [
    (-1, 3, "m must be >= 0"),
    (4, 3, "m above 3 is not certified"),
    (1, 0, "D must be >= 1"),
])
def test_base_change_takes_the_levels_of_the_poincare_check(m, D, message):
    A = catalog("gm", ZpN(3, 2), E=3)
    for check in (poincare_check, base_change_check):
        with pytest.raises(ValueError, match=message):
            check(A, m, D)


def test_base_change_fails_on_unit_change_of_one_entry(monkeypatch):
    # the precision-N complex only: +1 on one entry of d_0
    A = catalog("gm", ZpN(3, 2), E=4)
    original = DeRhamComplex.dmat

    def dmat(self, q, g=None):
        M = original(self, q, g)
        if (self.spec.ring.N, q, g) != (2, 0, None):
            return M
        rows = M.row_dicts()
        r, j = next((r, min(row)) for r, row in enumerate(rows) if row)
        rows[r][j] += 1
        return Matrix.from_row_dicts(M.ring, rows, M.ncols)

    monkeypatch.setattr(DeRhamComplex, "dmat", dmat)
    rep = base_change_check(A, 1, D=3)
    assert not rep.passed
    assert rep.witness == "differential mismatch mod p in degree 0"


def test_base_change_fails_on_dropped_basis_label(monkeypatch):
    A = catalog("gm", ZpN(3, 2), E=4)
    original = DeRhamComplex.basis

    def basis(self, q, g=None):
        out = original(self, q, g)
        return out[1:] if (self.spec.ring.N, q) == (2, 0) else out

    monkeypatch.setattr(DeRhamComplex, "basis", basis)
    rep = base_change_check(A, 1, D=3)
    assert not rep.passed
    assert rep.witness == "basis mismatch in form degree 0"


# -- cech descent ------------------------------------------------------------------


def test_localized_line_d_is_window_exact():
    ring = ZpN(2, 2)
    line = LocalizedLine(ring, 6, (0, 1))
    labels0 = line.basis(0)
    labels1 = set(line.basis(1))
    for lab in labels0:
        for t_lab in line.d_entries(lab):
            assert t_lab in labels1


def test_cech_descent_x_xminus1():
    ring = ZpN(2, 2)
    cover = [{1: 1}, {1: 1, 0: -1}]  # x and x - 1
    rep = cech_descent_check(ring, 6, cover)
    assert rep.passed, rep.witness


def test_cech_trivial_cover():
    ring = ZpN(2, 2)
    rep = cech_descent_check(ring, 5, [{0: 1}])  # the unit element
    assert rep.passed, rep.witness


def test_cech_not_a_cover():
    ring = ZpN(2, 2)
    rep_or_err = None
    try:
        rep_or_err = cech_descent_check(ring, 5, [{1: 1}])  # x alone
    except NotACover:
        rep_or_err = "raised"
    if rep_or_err != "raised":
        assert not rep_or_err.passed


def test_cech_three_charts():
    ring = ZpN(5, 2)
    cover = [{1: 1}, {1: 1, 0: -1}, {1: 1, 0: -2}]  # x, x-1, x-2
    rep = cech_descent_check(ring, 5, cover)
    assert rep.passed, rep.witness


def test_cech_roots_that_agree_mod_p_are_inconclusive():
    ring = ZpN(2, 3)
    for cover, roots in (
            ([{1: 1}, {1: 1, 0: -4}, {1: 1, 0: -1}], [0, 4]),  # x, x-4, x-1
            ([{1: 1}, {1: 1, 0: -2}, {0: 1}], [0, 2])):        # x, x-2, 1
        rep = cech_descent_check(ring, 4, cover)
        assert rep.status() == "inconclusive"
        assert rep.details["roots"] == roots
    # without a unit, x and x-4 are still not a cover
    rep = cech_descent_check(ring, 4, [{1: 1}, {1: 1, 0: -4}])
    assert rep.status() == "fail"
    assert "not a cover" in rep.witness


def test_cech_fails_when_one_restriction_is_negated(monkeypatch):
    # negating the degree-0 restriction from the chart of x alone breaks
    # the commuting square with d, so d o d != 0 on Tot^0; negating every
    # restriction would only change the sign convention
    restriction = LocalizedLine.restriction

    def negated(self, q, finer):
        M = restriction(self, q, finer)
        return M.scale(-1) if q == 0 and self.roots == (0,) else M

    ring = ZpN(2, 2)
    cover = [{1: 1}, {1: 1, 0: -1}]
    assert cech_descent_check(ring, 6, cover).passed
    monkeypatch.setattr(LocalizedLine, "restriction", negated)
    with pytest.raises(ContainmentViolation):
        cech_descent_check(ring, 6, cover)


def test_localized_matrices_store_validated_rows():
    # Z/4 with E = 6: d(x^4) = 4x^3 dx and d((x-c)^-4) vanish mod 4 and
    # must not be stored
    ring = ZpN(2, 2)
    line = LocalizedLine(ring, 6, (0, 1))
    for q in (-1, 0, 1):
        assert_rows_validated(line.dmat(q))
        assert_rows_validated(LocalizedLine(ring, 6, (0,)).restriction(q, line))
    d = line.dmat(0)
    assert d.row_dicts()[line.basis(0).index(("poly", 4))] == {}
    assert (d.nrows, d.ncols) == (len(line.basis(0)), len(line.basis(1)))
    assert line.dmat(1).ncols == 0


def test_poincare_m3_point():
    A = catalog("point", R33)
    rep = poincare_check(A, 3, D=4)
    assert rep.passed, rep.witness


def test_contraction_m3_with_geometry():
    A = catalog("gm", R33, E=3)
    cx = DeRhamComplex(A, 3, D=3)
    rep = cx.verify_contraction(1)
    assert rep.passed, rep.witness


# -- matrices and bases against their first-principles routes ------------------


def _d_row_multiplying_by_one(cx, b, index):
    """d of one basis form with every coefficient multiplied by its frame
    factor, PDSeries.one for a free generator, and reduced again."""
    pres, spec = cx.base, cx.spec
    expected = None
    if pres.is_homogeneous():
        expected = cx.degree(b.xe) + sum(pres.generators[v].weight for v in b.J)
    row = {}
    for v in range(len(cx.base.generators)):
        nxe = list(b.xe)
        nxe[v] -= 1
        if not b.xe[v] or not spec.fits_geom(tuple(nxe)):
            continue
        coeff = pres.reduce(PDSeries(spec, {(tuple(nxe), b.te): b.xe[v]}))
        factors = [(v, PDSeries.one(spec))] if v in cx.free_geom \
            else sorted(cx.frame().get(v, {}).items())
        for w, factor in factors:
            if w in b.J:
                continue
            sign = -1 if sum(1 for j in b.J if j < w) % 2 else 1
            val = pres.reduce(coeff.mul(factor.embed(spec)))
            cx._distribute(val, tuple(sorted(b.J + (w,))), b.K, sign, index,
                           row, cx.D, expected)
    for w in range(cx.npd):
        if not b.te[w] or w in b.K:
            continue
        nte = list(b.te)
        nte[w] -= 1
        sign = -1 if (len(b.J) + sum(1 for k in b.K if k < w)) % 2 else 1
        cx._distribute(PDSeries(spec, {(b.xe, tuple(nte)): 1}), b.J,
                       tuple(sorted(b.K + (w,))), sign, index, row, cx.D,
                       expected)
    return row


# a1 at p = 2, N = 2 has d(x^4) = 4 x^3 dx = 0; gm-pair is the relation
# x*y = 1, whose witness differential dy goes through the frame; a2 has two
# free differentials, so dx_v ^ dx_J takes both signs
CELL_CASES = [("gm", ZpN(3, 2), 5, 2, 3, [-2, 0, 1, 4]),
              ("a1", ZpN(2, 3), 5, 2, 3, [0, 1, 3]),
              ("ell-3-1-2", ZpN(3, 2), 3, 1, 2, [None]),
              ("a1", ZpN(2, 2), 5, 1, 2, [3, 4, 5]),
              ("gm-pair", ZpN(3, 2), 4, 1, 2, [-2, 0, 1, 3]),
              ("gm", ZpN(3, 2), 3, 3, 3, [-1, 0, 2]),
              ("a2", ZpN(3, 2), 3, 1, 2, [1, 2, 4])]


def _algebra(name, ring, E):
    if name == "gm-pair":
        return unit_pair_presentation(ring, E=E)
    if name == "a2":
        return Presentation("a2", ring, (GeomVar("x", "poly", 1),
                                         GeomVar("y", "poly", 1)), E=E)
    return catalog(name, ring, E=E)


@pytest.mark.parametrize("name,ring,E,m,D,degrees", CELL_CASES)
def test_dmat_matches_multiplication_by_one(name, ring, E, m, D, degrees):
    cx = DeRhamComplex(_algebra(name, ring, E), m, D)
    for g in degrees:
        for q in range(cx.max_form_degree() + 1):
            src, tgt = cx.basis(q, g), cx.basis(q + 1, g)
            index = {b: k for k, b in enumerate(tgt)}
            rows = [_d_row_multiplying_by_one(cx, b, index) for b in src]
            assert cx.dmat(q, g) == Matrix.from_row_dicts(ring, rows,
                                                          len(tgt)), (q, g)


@pytest.mark.parametrize("name,ring,E,m,D,degrees", CELL_CASES)
def test_basis_matches_whole_window_filter(name, ring, E, m, D, degrees):
    A = _algebra(name, ring, E)
    cx = DeRhamComplex(A, m, D)
    window = [range(-E if g.kind == "laurent" else 0, E + 1)
              for g in A.generators]
    xes = [xe for xe in product(*window) if A.is_normal_monomial(xe)]
    for q in range(cx.max_form_degree() + 2):
        forms = []
        for nj in range(q + 1):
            for J in combinations(cx.free_geom, nj):
                for K in combinations(range(m), q - nj):
                    for te in product(range(D + 1), repeat=m):
                        if sum(te) + len(K) <= D:
                            forms += [FormBasis(xe, te, J, K) for xe in xes]
        assert cx.basis(q) == sorted(forms)
        for g in degrees + [E + 50]:
            if g is None:
                continue
            want = [b for b in forms if cx.degree(b.xe) + sum(
                A.generators[v].weight for v in b.J) == g]
            assert cx.basis(q, g) == sorted(want), (q, g)


def test_contraction_fails_on_corrupted_cached_differential():
    A = catalog("a1", R33, E=4)
    g = 2
    cx = DeRhamComplex(A, 2, D=3)
    assert cx.verify_contraction(g).passed
    # corrupt one entry whose target the contraction does not kill
    src = cx.basis(1, g)
    tgt = cx.basis(2, g)
    d = cx.dmat(1, g)
    index = {b: k for k, b in enumerate(src)}
    r, j = next((r, j) for r, row in enumerate(d.row_dicts())
                for j in sorted(row) if cx.kappa_of_basis(tgt[j], index))
    d._rows[r][j] = (d._rows[r][j] + 1) % R33.modulus
    rep = cx.verify_contraction(g)
    assert not rep.passed
    assert rep.details["q"] == 1


def test_contraction_fails_on_flipped_kappa_sign(monkeypatch):
    A = catalog("gm", R33, E=3)
    cx = DeRhamComplex(A, 2, D=3)
    kappa = DeRhamComplex.kappa_of_basis

    def flipped(self, b, target_index):
        return {k: -v % R33.modulus
                for k, v in kappa(self, b, target_index).items()}

    monkeypatch.setattr(DeRhamComplex, "kappa_of_basis", flipped)
    assert not cx.verify_contraction(1).passed


def test_cech_needs_pole_terms_in_the_window():
    ring = ZpN(2, 2)
    cover = [{1: 1}, {1: 1, 0: -1}]
    rep = cech_descent_check(ring, 0, cover)
    assert rep.status() == "inconclusive"
    assert "E=0" in rep.witness
    assert cech_descent_check(ring, 1, cover).status() == "pass"
    # a non-cover still fails whatever the window
    assert not cech_descent_check(ring, 0, [{1: 1}, {1: 1, 0: -2}]).passed
