"""Interval-ring structure maps, boundary kernel, regularity, fillers."""

import random
from collections import Counter
from itertools import permutations

import pytest

from crystalcalc import linalg, simplicial
from crystalcalc.errors import (
    IncompatibleFaces,
    SignConventionViolation,
    SubstitutionOutsideIdeal,
    VarSpecMismatch,
)
from crystalcalc.linalg import HowellBasis, Matrix, kernel
from crystalcalc.reports import merge_reports
from crystalcalc.ring import ZpN
from crystalcalc.series import GeomVar, PDSeries, pd_substitute
from crystalcalc.simplicial import (
    LevelTower,
    SimplexMap,
    boundary_restriction,
    check_regular_sequence,
    compose_affine,
    divide_by_variable_product,
    faces_compatible,
    fill_boundary,
    regular_sequence_suite,
    t_monomials,
    verify_boundary_kernel,
    verify_simplicial_identities,
)
from crystalcalc.smoothlift import catalog

from dense_matrices import assert_rows_validated


def tower33(D=5):
    return LevelTower(ZpN(3, 3), D)


# -- structure maps ------------------------------------------------------


def test_face_values_level1():
    # level-1 free variable T0: the two faces evaluate it to 0 and p
    tw = tower33()
    f = tw.var(1, 0)
    assert tw.face(1, 0, f).is_zero()
    assert tw.face(1, 1, f) == PDSeries.constant(tw.spec(0), 3)


def test_degeneracy_sum_in_free_variant():
    tw = LevelTower(ZpN(3, 2), 4, variant="free")
    f = tw.var(0, 0)
    img = tw.degeneracy(0, 0, f)
    assert img == tw.var(1, 0).add(tw.var(1, 1))


def test_identity_map_is_identity():
    tw = tower33()
    f = tw.var(2, 0).mul(tw.var(2, 1)).add(PDSeries.constant(tw.spec(2), 5))
    assert tw.apply_map(SimplexMap.identity(2), f) == f


def test_structure_map_functorial():
    # R(sigma . tau) = R(tau) . R(sigma) for random composable monotone maps
    rng = random.Random(2)
    tw = tower33(D=4)
    for _ in range(10):
        m = rng.randint(0, 3)
        n = rng.randint(0, 3)
        k = rng.randint(0, 3)
        sigma = SimplexMap(sorted(rng.randint(0, m) for _ in range(n + 1)), m)
        tau = SimplexMap(sorted(rng.randint(0, n) for _ in range(k + 1)), n)
        f = tw.var(m, 0) if m >= 1 else PDSeries.constant(tw.spec(0), 4)
        composite = tau.then(sigma)
        assert tw.apply_map(composite, f) == \
            tw.apply_map(tau, tw.apply_map(sigma, f))


def _random_level_element(tower, m, rng, prec):
    spec = tower.spec(m)
    terms = {}
    for _ in range(rng.randint(0, 7)):
        xe = tuple(rng.randint(-tower.E if g.kind == "laurent" else 0, tower.E)
                   for g in tower.geom)
        te = rng.choice(t_monomials(tower.nvars(m), tower.D))
        terms[(xe, te)] = rng.randrange(1, tower.ring.modulus)
    return PDSeries(spec, terms, prec)


def _oracle_towers():
    ring = ZpN(3, 3)
    gm = catalog("gm", ring, E=3)
    line = (GeomVar("x", "poly", 1),)
    yield gm.mapping_tower(3)  # Laurent generator, plain powers
    for variant in ("interval", "free"):
        for divided in (True, False):
            yield LevelTower(ring, 3, variant=variant, divided=divided)
            yield LevelTower(ZpN(2, 3), 3, geom=line, E=2, variant=variant,
                             divided=divided)
    yield LevelTower(ring, 3, geom=gm.generators, E=3, divided=True)


def test_cached_structure_maps_match_full_substitution():
    # the oracle substitutes the whole series through pd_substitute; the
    # tower multiplies x^a into cached images of T-monomials instead
    rng = random.Random(6)
    checked = 0
    for tower in _oracle_towers():
        N = tower.ring.N
        sigmas = [SimplexMap.coface(m, i) for m in range(1, 4)
                  for i in range(m + 1)]
        sigmas += [SimplexMap.codegeneracy(m, i) for m in range(4)
                   for i in range(m + 1)]
        for sigma in sigmas:
            for prec in (N, rng.randint(1, N - 1)):
                f = _random_level_element(tower, sigma.m, rng, prec)
                want = pd_substitute(f, tower.structure_images(sigma),
                                     tower.spec(sigma.n))
                assert tower.apply_map(sigma, f) == want, (tower.variant, sigma)
                checked += 1
    assert checked == 10 * 19 * 2


@pytest.mark.parametrize("variant", ["interval", "free"])
@pytest.mark.parametrize("divided", [False, True])
@pytest.mark.parametrize("p", [2, 3])
def test_face_matrix_rows_are_the_faces_of_basis_monomials(variant, divided,
                                                           p):
    tower = LevelTower(ZpN(p, 3), 4, divided=divided, variant=variant)
    for m in range(1, 4):
        spec = tower.spec(m)
        for i in range(m + 1):
            F = tower.face_matrix(m, i)
            assert (F.nrows, F.ncols) == (len(tower.basis(m)),
                                          len(tower.basis(m - 1)))
            assert_rows_validated(F)
            images = tower.structure_images(SimplexMap.coface(m, i))
            lower = tower.basis(m - 1)
            for te, row in zip(tower.basis(m), F.row_dicts()):
                mono = PDSeries(spec, {(spec.zero_x(), te): 1})
                face = tower.face(m, i, mono)
                assert face == pd_substitute(mono, images, tower.spec(m - 1))
                assert row == {lower.index(t): c
                               for (_xe, t), c in face.terms.items()}


@pytest.mark.parametrize("p", [2, 3])
def test_multiples_are_coordinates_of_products(p):
    tower = LevelTower(ZpN(p, 3), 5)
    for m in range(1, 4):
        spec = tower.spec(m)
        basis = tower.basis(m)
        mixed = tower.var(m, 0).mul(tower.var_or_derived(m, m)) \
            .add(PDSeries.constant(spec, p))
        factors = [tower.var_or_derived(m, m), tower.product(m), mixed]
        for a in factors:
            room = tower.D - max(sum(te) for (_xe, te) in a.terms)
            monos = t_monomials(tower.nvars(m), room)
            rows = tower.multiples(m, a, monos)
            assert len(rows) == len(monos)
            for te, row in zip(monos, rows):
                prod = a.mul(PDSeries(spec, {(spec.zero_x(), te): 1}))
                assert row == {basis.index(t): c
                               for (_xe, t), c in prod.terms.items()}


def test_structure_map_rejects_a_series_of_another_level():
    tower = tower33(D=4)
    with pytest.raises(VarSpecMismatch):
        tower.face(2, 0, tower.var(1, 0))


def test_structure_map_with_geometric_image_is_rejected(monkeypatch):
    tower = LevelTower(ZpN(3, 2), 3, geom=(GeomVar("x", "poly", 1),), E=2)
    original = LevelTower.structure_images

    def moving_x(self, sigma):
        images = original(self, sigma)
        images["T0"] = images["T0"].add(
            PDSeries.geom_var(self.spec(sigma.n), "x").scale(3))
        return images

    monkeypatch.setattr(LevelTower, "structure_images", moving_x)
    with pytest.raises(SignConventionViolation, match="degree preserving"):
        tower.degeneracy(1, 0, tower.var(1, 0))


def test_simplicial_identities_free_and_interval():
    for variant in ("free", "interval"):
        rep = verify_simplicial_identities(ZpN(2, 2), D=4, m_max=2,
                                           variant=variant)
        assert rep.passed, rep.witness


def _structure_keys(m_top):
    """Every (kind, m, i) of a face or degeneracy from a level m <= m_top."""
    keys = [("d", m, i) for m in range(1, m_top + 1) for i in range(m + 1)]
    keys += [("s", m, i) for m in range(m_top + 1) for i in range(m + 1)]
    return keys


def _structure_map(kind, m, i):
    return SimplexMap.coface(m, i) if kind == "d" \
        else SimplexMap.codegeneracy(m, i)


def _tampered_images(target):
    """``LevelTower.structure_images`` with one image of the map ``target``
    moved, inside the ideal (p, T), on every build: by the first variable
    of the target level, or by p at level 0."""
    original = LevelTower.structure_images

    def images(self, sigma):
        out = original(self, sigma)
        if sigma == target and out:
            name = sorted(out)[0]
            if self.nvars(sigma.n):
                bump = self.var(sigma.n, 0)
            else:
                bump = PDSeries.constant(self.spec(sigma.n), self.ring.p)
            out[name] = out[name].add(bump)
        return out

    return images


def test_simplicial_identities_corrupted(monkeypatch):
    monkeypatch.setattr(LevelTower, "structure_images",
                        _tampered_images(SimplexMap.coface(1, 0)))
    rep = verify_simplicial_identities(ZpN(2, 2), D=4, m_max=2,
                                       variant="interval")
    assert not rep.passed


@pytest.mark.parametrize("variant", ["free", "interval"])
def test_every_tampered_structure_map_is_caught(variant, monkeypatch):
    # the check builds each map's images once; the one corruption, applied
    # on every build, must reach an identity that uses the tampered map
    ring = ZpN(2, 2)
    clean = verify_simplicial_identities(ring, D=3, m_max=3, variant=variant)
    assert clean.passed, clean.witness
    original = LevelTower.structure_images
    for kind, m, i in _structure_keys(3):
        if variant == "interval" and m == 0:
            continue  # level 0 of the interval tower has no variable to map
        monkeypatch.setattr(LevelTower, "structure_images",
                            _tampered_images(_structure_map(kind, m, i)))
        rep = verify_simplicial_identities(ring, D=3, m_max=3,
                                           variant=variant)
        monkeypatch.setattr(LevelTower, "structure_images", original)
        assert not rep.passed, (kind, m, i)


def test_identity_check_builds_each_structure_map_once(monkeypatch):
    calls = {}
    original = LevelTower.structure_images

    def counted(self, sigma):
        calls[sigma] = calls.get(sigma, 0) + 1
        return original(self, sigma)

    def forbidden(self, sigma, te):
        raise AssertionError("the identity check must not read t_image")

    monkeypatch.setattr(LevelTower, "structure_images", counted)
    monkeypatch.setattr(LevelTower, "t_image", forbidden)
    for variant in ("free", "interval"):
        calls.clear()
        rep = verify_simplicial_identities(ZpN(3, 2), D=4, m_max=4,
                                           variant=variant)
        assert rep.passed, rep.witness
        # faces from levels 1..4 and degeneracies from levels 0..5 (the
        # identities at level 4 reach degeneracies of level 5)
        keys = _structure_keys(4) + [("s", 5, i) for i in range(6)]
        assert set(calls) == {_structure_map(*key) for key in keys}
        assert set(calls.values()) == {1}


def _perturbed(tower, images, rng):
    """Affine images moved by random multiples of p, of the level's
    variables and of 1, at a random precision."""
    out = {}
    for name, img in images.items():
        spec = img.spec
        bump = PDSeries.constant(spec, tower.ring.p * rng.randrange(9))
        for j in range(len(spec.pd)):
            bump = bump.add(PDSeries.pd_var(spec, f"T{j}")
                            .scale(tower.ring.p * rng.randrange(9)))
        moved = img.add(bump)
        out[name] = moved.reduce_precision(rng.randint(1, moved.prec))
    return out


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("variant", ["free", "interval"])
def test_compose_affine_matches_substitution(p, variant):
    # every composable pair of the maps the identity check builds at
    # m_max = 4, first as built, then with randomly moved affine images at
    # lower precisions; pd_substitute is the oracle
    rng = random.Random(p)
    for divided in (False, True):
        tower = LevelTower(ZpN(p, 3), 3, variant=variant, divided=divided)
        sigmas = [_structure_map(*key) for key in
                  _structure_keys(4) + [("s", 5, i) for i in range(6)]]
        pairs = 0
        for first in sigmas:
            for then_ in sigmas:
                if then_.m != first.n:
                    continue
                target = tower.spec(then_.n)
                images = tower.structure_images(first)
                then_images = tower.structure_images(then_)
                for _ in range(2):
                    want = {n: pd_substitute(img, then_images, target)
                            for n, img in images.items()}
                    assert compose_affine(images, then_images, target) \
                        == want, (first, then_)
                    images = _perturbed(tower, images, rng)
                    then_images = _perturbed(tower, then_images, rng)
                pairs += 1
        assert pairs == 188


def _images_of_pair(tower, m):
    """The images of the faces d_1: level m -> m-1 and d_0: m-1 -> m-2."""
    first = tower.structure_images(SimplexMap.coface(m, 1))
    then_ = tower.structure_images(SimplexMap.coface(m - 1, 0))
    return first, then_, tower.spec(m - 2)


@pytest.mark.parametrize("role", ["first", "then"])
@pytest.mark.parametrize("extra", ["square", "x"])
def test_compose_affine_rejects_non_affine_images(role, extra):
    line = (GeomVar("x", "poly", 1),)
    tower = LevelTower(ZpN(3, 2), 3, geom=line, E=2)
    first, then_, target = _images_of_pair(tower, 4)
    images = first if role == "first" else then_
    spec = images["T0"].spec
    if extra == "square":
        t0 = PDSeries.pd_var(spec, "T0")
        term = t0.mul(t0)
    else:
        term = PDSeries.geom_var(spec, "x").scale(3)
    images["T0"] = images["T0"].add(term)
    with pytest.raises(SignConventionViolation, match="not affine"):
        compose_affine(first, then_, target)


def test_compose_affine_keeps_the_substitution_checks():
    tower = LevelTower(ZpN(3, 2), 3)
    first, then_, target = _images_of_pair(tower, 4)
    unit = dict(then_)
    unit["T1"] = unit["T1"].add(PDSeries.one(target))
    for compose in (compose_affine, lambda f, g, t: {
            n: pd_substitute(img, g, t) for n, img in f.items()}):
        with pytest.raises(SubstitutionOutsideIdeal):
            compose(first, unit, target)
        missing = {n: img for n, img in then_.items() if n != "T2"}
        with pytest.raises(VarSpecMismatch):
            compose(first, missing, target)
    # a p-divisible constant stays inside the ideal (p, T)
    inside = dict(then_)
    inside["T1"] = inside["T1"].add(PDSeries.constant(target, 3))
    assert compose_affine(first, inside, target)


# -- boundary restriction -------------------------------------------------


def test_boundary_restriction_of_variable():
    tw = tower33()
    faces, red = boundary_restriction(tw, 1, tw.var(1, 0))
    assert faces[0].is_zero()
    assert faces[1] == PDSeries.constant(tw.spec(0), 3)
    assert red.is_zero()


def test_boundary_restriction_of_constant():
    tw = tower33()
    c = PDSeries.constant(tw.spec(1), 3)
    faces, red = boundary_restriction(tw, 1, c)
    assert faces[0] == PDSeries.constant(tw.spec(0), 3)
    assert faces[1] == PDSeries.constant(tw.spec(0), 3)
    assert red.is_zero()  # p reduces to 0 mod p


def test_boundary_restriction_kills_product():
    tw = tower33()
    prod = tw.product(1)  # T0 * (p - T0) expanded
    faces, red = boundary_restriction(tw, 1, prod)
    assert faces[0].is_zero() and faces[1].is_zero()
    assert red.is_zero()


def test_face_tuple_compatibility():
    tw = tower33()
    f = tw.var(2, 0).mul(tw.var(2, 1))
    faces, _ = boundary_restriction(tw, 2, f)
    assert faces_compatible(tw, 2, faces)


# -- boundary kernel -------------------------------------------------------


def test_boundary_kernel_m1():
    rep = verify_boundary_kernel(p=3, N=2, D=4, m=1)
    assert rep.passed and not rep.inconclusive, rep.witness


def test_boundary_kernel_m2():
    rep = verify_boundary_kernel(p=2, N=2, D=5, m=2)
    assert rep.passed and not rep.inconclusive, rep.witness


def test_boundary_kernel_window_too_small():
    rep = verify_boundary_kernel(p=3, N=2, D=1, m=1)
    assert rep.inconclusive


def test_boundary_kernel_catches_a_corrupted_face(monkeypatch):
    # face 1 sends T0 to the square of its image; the face matrices, and so
    # both the product-multiple check and the kernel comparison, see it
    original = LevelTower.structure_images

    def squared(self, sigma):
        images = original(self, sigma)
        if sigma.n == sigma.m - 1 and 1 not in sigma.values:
            images["T0"] = images["T0"].mul(images["T0"])
        return images

    monkeypatch.setattr(LevelTower, "structure_images", squared)
    rep = verify_boundary_kernel(p=3, N=2, D=6, m=1)
    assert rep.status() == "fail"
    assert rep.witness == "product multiple 1 has nonzero face 1"
    rep = verify_boundary_kernel(p=3, N=2, D=6, m=2)
    assert rep.status() == "fail"
    assert rep.witness == \
        "kernel element at monomial (1, 5) is not a product multiple"


# -- regular sequences ------------------------------------------------------


def test_regular_sequence_m1_both_orders():
    for perm in ((0, 1), (1, 0)):
        rep = check_regular_sequence(p=3, N=2, D=4, m=1, perm=perm)
        assert rep.passed, rep.witness


def test_regular_sequence_m2_all_permutations():
    rep = regular_sequence_suite(p=3, N=2, D=4, m=2)
    assert rep.passed, rep.witness


def test_regular_sequence_boundary_ring_fails():
    rep = check_regular_sequence(p=3, N=2, D=4, m=1, perm=(0, 1),
                                 boundary_quotient=True)
    assert not rep.passed
    assert "killed but nonzero" in rep.witness


def _buffered_regular_sequence(p, N, D, m, perm, boundary_quotient=False):
    """Reference: the regularity check deciding membership in the buffered
    ring, against the previous rows plus p^N times every coordinate vector,
    and with every product recomputed.  Returns (passed, witness, details).
    """
    buffered = ZpN(p, N + D + 2)
    tower = LevelTower(buffered, D)
    spec = tower.spec(m)
    basis = tower.basis(m)
    index = {te: k for k, te in enumerate(basis)}
    nall = len(basis)
    basis_in = [te for te in basis if sum(te) <= D - 1]
    nin = len(basis_in)

    def mono(te):
        return PDSeries(spec, {(spec.zero_x(), te): 1})

    prev_full, prev_low = [], []
    if boundary_quotient:
        prod = tower.product(m)
        for te in t_monomials(tower.nvars(m), D - (m + 1)):
            row = tower.series_to_vector(m, prod.mul(mono(te)))
            prev_full.append(row)
            if sum(te) + m + 1 <= D - 1:
                prev_low.append(dict(row))
    for stage, j_var in enumerate(perm):
        a = tower.var_or_derived(m, j_var)
        invisible = [{j: p ** N} for j in range(nall)]
        hb_low = HowellBasis(buffered, prev_low + invisible, nall)
        entries = {}
        for r, te in enumerate(basis_in):
            img = a.mul(mono(te))
            for j, v in tower.series_to_vector(m, img).items():
                entries[(r, j)] = v
        for s, row in enumerate(prev_full):
            for j, v in row.items():
                entries[(nin + s, j)] = v
        ker = kernel(Matrix(buffered, nin + len(prev_full), nall, entries))
        for row in ker.row_dicts():
            f_part = {index[basis_in[k]]: v for k, v in row.items()
                      if k < nin}
            if f_part and not hb_low.contains(f_part):
                witness = (f"stage {stage} (element T{j_var}): class at "
                           f"monomial {basis[min(f_part)]} is killed but "
                           f"nonzero")
                return False, witness, {"m": m, "perm": tuple(perm),
                                        "stage": stage,
                                        "boundary_quotient": boundary_quotient}
        for te in basis_in:
            img = a.mul(mono(te))
            prev_full.append(tower.series_to_vector(m, img))
            if sum(te) <= D - 2:
                prev_low.append(tower.series_to_vector(m, img))
    return True, "", {"m": m, "perm": tuple(perm),
                      "boundary_quotient": boundary_quotient}


@pytest.mark.parametrize("p,N", [(p, N) for p in (2, 3, 5) for N in (1, 2, 3)])
def test_regular_sequence_matches_the_buffered_reference(p, N):
    # membership at precision N equals membership in the buffered ring up
    # to p^N; the costliest corner (m = 3 at D = 7) runs at three (p, N),
    # which take each p and each N once
    checked = Counter()
    for D in (2, 4, 5, 7):
        for m in range(4):
            if (m, D) == (3, 7) and (p, N) not in ((2, 1), (3, 2), (5, 3)):
                continue
            for perm in permutations(range(m + 1)):
                for bq in (False, True):
                    rep = check_regular_sequence(p, N, D, m, perm,
                                                 boundary_quotient=bq)
                    want = _buffered_regular_sequence(p, N, D, m, perm, bq)
                    assert (rep.passed, rep.witness, rep.details) == want, \
                        (D, m, perm, bq)
                    checked[rep.passed] += 1
    assert checked[True] and checked[False]


def _suite_parts(monkeypatch, p, N, D, m):
    """The suite's report and the per-permutation and control reports that
    it merged."""
    parts = []

    def recording(name, reports):
        parts.extend(reports)
        return merge_reports(name, reports)

    with monkeypatch.context() as mp:
        mp.setattr(simplicial, "merge_reports", recording)
        suite = regular_sequence_suite(p, N, D, m)
    return suite, parts


def _as_triple(rep):
    return rep.passed, rep.witness, rep.details


@pytest.mark.parametrize("p,N,D,m", [
    (2, 1, 4, 1), (3, 2, 5, 1), (5, 3, 2, 1),
    (2, 2, 5, 2), (3, 3, 4, 2), (5, 1, 3, 2),
    (2, 2, 4, 3), (3, 1, 5, 3)])
def test_suite_parts_equal_each_permutation_check(monkeypatch, p, N, D, m):
    # a stage is shared by every permutation that reaches it, so the suite's
    # part for a permutation must be that permutation's own check, and the
    # reference that eliminates every stage again in the buffered ring
    suite, parts = _suite_parts(monkeypatch, p, N, D, m)
    perms = list(permutations(range(m + 1)))
    assert len(parts) == len(perms) + 1
    for perm, part in zip(perms, parts):
        own = check_regular_sequence(p, N, D, m, perm)
        assert _as_triple(part) == _as_triple(own), perm
        assert _as_triple(part) == _buffered_regular_sequence(p, N, D, m,
                                                              perm), perm
    assert suite.status() == "pass", suite.witness


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.mark.parametrize("m,stages", [(1, 4), (2, 12), (3, 32)])
def test_suite_eliminates_each_distinct_stage_once(monkeypatch, m, stages):
    # (m+1) * 2^m distinct stages (S, j) instead of (m+1)! * (m+1), plus the
    # control, which fails at its first stage; one tower, and each element's
    # multiplication rows once (the control's product multiples are one more)
    kernels = _count_calls(monkeypatch, linalg, "_kernel_pivots")
    multiples = _count_calls(monkeypatch, LevelTower, "multiples")
    towers = _count_calls(monkeypatch, LevelTower, "__init__")
    rep = regular_sequence_suite(3, 2, 5, m)
    assert rep.status() == "pass", rep.witness
    assert (len(kernels), len(multiples), len(towers)) == \
        (stages + 1, m + 2, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_suite_finds_a_zero_divisor_like_each_permutation(monkeypatch, m):
    # T1 replaced by T0: regular on its own, killed modulo (T0), so a
    # permutation fails at the first stage after both T0 and T1 were used,
    # and the suite must name the first failing permutation's witness
    var_or_derived = LevelTower.var_or_derived
    monkeypatch.setattr(
        LevelTower, "var_or_derived",
        lambda self, lvl, j: var_or_derived(self, lvl, 0 if j == 1 else j))
    p, N, D = 3, 2, 4
    suite, parts = _suite_parts(monkeypatch, p, N, D, m)
    assert suite.status() == "fail"
    perms = list(permutations(range(m + 1)))
    own = [check_regular_sequence(p, N, D, m, perm) for perm in perms]
    for perm, part, rep in zip(perms, parts, own):
        assert _as_triple(part) == _as_triple(rep), perm
        assert _as_triple(part) == _buffered_regular_sequence(p, N, D, m,
                                                              perm), perm
        later = max(perm.index(0), perm.index(1))
        assert rep.details.get("stage") == later, perm
    first_failure = next(rep for rep in own if not rep.passed)
    assert suite.witness == first_failure.witness
    assert first_failure.witness.startswith("stage 1 (element T1)")


def test_negative_control_needs_the_product_in_the_window():
    # below D = m+1 the boundary quotient is the plain ring, so the control
    # cannot bite and must not pass or fail; from D = m+1 on it bites
    for m in (1, 2):
        small = regular_sequence_suite(p=3, N=2, D=m, m=m)
        assert small.status() == "inconclusive", small.witness
        assert small.witness == \
            f"window D={m} cannot hold the degree-{m + 1} product"
        fits = regular_sequence_suite(p=3, N=2, D=m + 1, m=m)
        assert fits.status() == "pass", fits.witness


# -- fillers ---------------------------------------------------------------


def zero_faces(tw, m):
    return [PDSeries.zero(tw.spec(m - 1)) for _ in range(m + 1)]


def test_fill_all_zero():
    tw = tower33()
    base = tw.reduction(0, PDSeries.zero(tw.spec(0)))
    f = fill_boundary(tw, 1, zero_faces(tw, 1), base)
    assert all(tw.face(1, i, f).is_zero() for i in range(2))


def test_fill_zero_pi_faces():
    # faces (0, p) with base 0 are filled by the interval variable itself
    tw = tower33()
    faces = [PDSeries.zero(tw.spec(0)), PDSeries.constant(tw.spec(0), 3)]
    base = tw.reduction(0, PDSeries.zero(tw.spec(0)))
    f = fill_boundary(tw, 1, faces, base)
    assert f == tw.var(1, 0)


def rand_element(tw, m, rng):
    terms = {}
    spec = tw.spec(m)
    for te in t_monomials(tw.nvars(m), tw.D):
        if rng.random() < 0.4:
            terms[(spec.zero_x(), te)] = rng.randrange(tw.ring.modulus)
    return PDSeries(spec, terms)


def product_multiple_defect(tw, m, diff):
    """Smallest k with diff in (product multiples) + p^(N-k) * (anything).

    Returns 0 when diff is an exact product multiple.  The m = 1 repair
    divides by p, so its fillers are only pinned at precision N-1 and a
    defect of 1 is expected there.
    """
    from crystalcalc.linalg import HowellBasis
    from crystalcalc.simplicial import t_monomials
    spec = tw.spec(m)
    prod = tw.product(m)
    basis_idx = {te: k for k, te in enumerate(tw.basis(m))}
    rows = []
    for te in t_monomials(tw.nvars(m), tw.D - (m + 1)):
        mu = PDSeries(spec, {(spec.zero_x(), te): 1})
        rows.append(tw.series_to_vector(m, prod.mul(mu)))
    vec = tw.series_to_vector(m, diff)
    for k in range(tw.ring.N + 1):
        scale = tw.ring.p ** (tw.ring.N - k)
        enlarged = rows + [{j: scale} for j in range(len(basis_idx))]
        if HowellBasis(tw.ring, enlarged, len(basis_idx)).contains(vec):
            return k
    return tw.ring.N + 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fill_roundtrip(m):
    tw = tower33(D=5)
    rng = random.Random(40 + m)
    for _ in range(5):
        g = rand_element(tw, m, rng)
        faces, red = boundary_restriction(tw, m, g)
        f = fill_boundary(tw, m, list(faces), red)
        for i in range(m + 1):
            assert tw.face(m, i, f) == faces[i]
        # two fillers of the same boundary differ by a product multiple,
        # exactly for m >= 2 and up to one lost digit for m = 1
        diff = g.sub(f)
        if not diff.is_zero():
            slack = 1 if m == 1 else 0
            assert product_multiple_defect(tw, m, diff) <= slack


@pytest.mark.parametrize("geometric", [False, True], ids=["point", "gm"])
def test_fill_m1_is_the_degeneracy_plus_the_slope(geometric):
    # the level-0 variable product is T0 = p, so the m = 1 filler of (a, b)
    # is s0(a) + ((b - a)/p) * T0, here divided on the integer coefficients
    ring = ZpN(3, 3)
    p = ring.p
    if geometric:
        tw = LevelTower(ring, 4, geom=catalog("gm", ring, E=2).generators,
                        E=2)
        xes = [(-2,), (0,), (1,)]
    else:
        tw = LevelTower(ring, 4)
        xes = [()]
    spec0 = tw.spec(0)
    rng = random.Random(11)
    for prec in range(1, ring.N + 1):
        for _ in range(6):
            a = PDSeries(spec0, {(xe, ()): rng.randrange(ring.modulus)
                                 for xe in xes if rng.random() < 0.7}, prec)
            b = a.add(PDSeries(spec0, {(xe, ()): p * rng.randrange(9)
                                       for xe in xes if rng.random() < 0.7},
                               prec))
            f = fill_boundary(tw, 1, [a, b], tw.reduction(0, a))
            slope = {(xe, (1,)): c // p
                     for (xe, _te), c in b.sub(a).terms.items()}
            assert f == tw.degeneracy(0, 0, a).add(
                PDSeries(tw.spec(1), slope, prec))


def test_fill_incompatible_faces_rejected():
    tw = tower33()
    g = rand_element(tw, 2, random.Random(1))
    faces, red = boundary_restriction(tw, 2, g)
    bad = list(faces)
    bad[1] = bad[1].add(tw.var(1, 0))
    with pytest.raises(IncompatibleFaces):
        fill_boundary(tw, 2, bad, red)


def test_fill_at_D0_is_a_usage_error():
    # at D = 0 the level-1 correction q*T0 has no room: a ValueError, as
    # the interval checks raise, and not PrecisionExhausted
    tw = LevelTower(ZpN(3, 3), 0)
    faces = [PDSeries.zero(tw.spec(0)), PDSeries.constant(tw.spec(0), 3)]
    base = tw.reduction(0, PDSeries.zero(tw.spec(0)))
    with pytest.raises(ValueError, match="D must be >= 1"):
        fill_boundary(tw, 1, faces, base)
    # level 0 needs no interval variable
    assert fill_boundary(tw, 0, [], base).is_zero()


def test_fill_rejects_wrong_base():
    tw = tower33()
    faces = [PDSeries.zero(tw.spec(0)), PDSeries.constant(tw.spec(0), 3)]
    base = tw.reduction(0, PDSeries.constant(tw.spec(0), 1))
    with pytest.raises(IncompatibleFaces):
        fill_boundary(tw, 1, faces, base)


def _fresh_division(tower, m, g):
    """divide_by_variable_product rebuilt from scratch: the product
    multiples, and below precision N the rows p^prec * e_j, as a new matrix;
    one transform solve per x-monomial, keeping the product coordinates."""
    spec = tower.spec(m)
    prod = PDSeries.one(spec)
    for j in range(m + 1):
        prod = prod.mul(tower.var_or_derived(m, j))
    monos = t_monomials(tower.nvars(m), tower.D - (m + 1))
    index = {te: k for k, te in enumerate(tower.basis(m))}
    rows = [{index[t]: c for (_xe, t), c in
             prod.mul(PDSeries(spec, {(spec.zero_x(), te): 1})).terms.items()}
            for te in monos]
    if g.prec < tower.ring.N:
        rows += [{j: tower.ring.p ** g.prec} for j in range(len(index))]
    solver = HowellBasis(tower.ring, rows, len(index), transforms=True)
    by_xe = {}
    for (xe, te), c in g.terms.items():
        by_xe.setdefault(xe, {})[index[te]] = c
    q = {}
    for xe, vec in sorted(by_xe.items()):
        x = solver.solve(vec)
        if x is None:
            return None
        q.update({(xe, monos[k]): v for k, v in x.items() if k < len(monos)})
    return PDSeries(spec, q, g.prec)


def test_product_division_matches_a_fresh_solve():
    # one prepared row space per (tower, level, precision) answers every
    # division as a fresh elimination would, at any precision of the input
    ring = ZpN(3, 3)
    gm = catalog("gm", ring, E=2)
    rng = random.Random(8)
    towers = [LevelTower(ring, 6), LevelTower(ring, 4),
              LevelTower(ring, 6, geom=gm.generators, E=2)]
    outcomes = Counter()
    for _ in range(3):
        for tower in towers:
            for m in (1, 2):
                spec = tower.spec(m)
                prec = rng.randint(1, ring.N)
                q = {}
                for te in t_monomials(tower.nvars(m), tower.D - (m + 1)):
                    for xe in ([spec.zero_x()] if not tower.geom
                               else [(-1,), (0,), (2,)]):
                        if rng.random() < 0.5:
                            q[(xe, te)] = rng.randrange(ring.modulus)
                g = tower.product(m).mul(PDSeries(spec, q, prec))
                got = divide_by_variable_product(tower, m, g)
                assert got == _fresh_division(tower, m, g)
                # a genuine multiple divides at its own precision
                assert got is not None
                assert tower.product(m).mul(got) == g
                outcomes[prec == ring.N] += 1
                # adding p^(prec-1) * T0 leaves the product multiples
                t0 = (1,) + (0,) * (tower.nvars(m) - 1)
                bad = g.add(PDSeries(spec, {(spec.zero_x(), t0):
                                            ring.p ** (prec - 1)}, prec))
                assert divide_by_variable_product(tower, m, bad) is None
                assert _fresh_division(tower, m, bad) is None
    assert outcomes[True] and outcomes[False], outcomes
    # towers of different D keep their own prepared row spaces
    spaces = [t._product_space(2)[1] for t in towers[:2]]
    assert spaces[0] is not spaces[1]
    assert len(spaces[0].pivots) != len(spaces[1].pivots)


def test_product_division_below_full_precision():
    tower = LevelTower(ZpN(3, 3), 5)
    # the product times T0, known only modulo p
    g = tower.product(2).mul(tower.var(2, 0)).reduce_precision(1)
    q = divide_by_variable_product(tower, 2, g)
    assert q is not None and q.prec == 1
    assert tower.product(2).mul(q) == g
    # every precision keeps its own space; precision N is the plain one
    spaces = {prec: tower._product_space(2, prec)[1] for prec in (1, 2, 3)}
    assert spaces[3] is tower._product_space(2)[1]
    assert len({id(s) for s in spaces.values()}) == 3
    # random multiples at every precision below N
    rng = random.Random(5)
    spec = tower.spec(2)
    for _ in range(12):
        prec = rng.randint(1, tower.ring.N - 1)
        coeffs = {(spec.zero_x(), te): rng.randrange(tower.ring.modulus)
                  for te in t_monomials(2, tower.D - 3) if rng.random() < 0.5}
        g = tower.product(2).mul(PDSeries(spec, coeffs, prec))
        q = divide_by_variable_product(tower, 2, g)
        assert q is not None and tower.product(2).mul(q) == g


def test_fill_boundary_below_full_precision():
    # boundaries of real level-2 elements of precision 2 are filled
    tw = tower33(D=5)
    rng = random.Random(2)
    for _ in range(10):
        g = rand_element(tw, 2, rng).reduce_precision(2)
        faces, red = boundary_restriction(tw, 2, g)
        f = fill_boundary(tw, 2, list(faces), red)
        assert f.prec == 2
        for i in range(3):
            assert tw.face(2, i, f) == faces[i]
        # two fillers of one boundary differ by a product multiple
        diff = g.sub(f)
        assert diff.is_zero() or divide_by_variable_product(tw, 2, diff) \
            is not None


def test_boundary_class_below_full_precision():
    # a genuine product multiple of precision prec < N has class zero, and
    # adding one does not change the class of an element of that precision
    tower = LevelTower(ZpN(3, 3), 5)
    rng = random.Random(4)
    for m in (1, 2):
        spec = tower.spec(m)
        monos = t_monomials(tower.nvars(m), tower.D - (m + 1))
        for prec in (1, 2):
            for _ in range(10):
                coeffs = {(spec.zero_x(), te): rng.randrange(tower.ring.modulus)
                          for te in monos if rng.random() < 0.5}
                g = tower.product(m).mul(PDSeries(spec, coeffs, prec))
                assert g.prec == prec
                assert tower.boundary_class(m, g).is_zero()
                f = rand_element(tower, m, rng).reduce_precision(prec)
                cls = tower.boundary_class(m, f)
                assert cls.prec == prec
                assert tower.boundary_class(m, f.add(g)) == cls
                assert tower.boundary_class(m, cls) == cls


def test_boundary_class_kills_product():
    tw = tower33(D=4)
    prod = tw.product(1)
    assert tw.boundary_class(1, prod).is_zero()
    # a nonmultiple is not killed, and reduction is idempotent
    f = tw.var(1, 0)
    cls = tw.boundary_class(1, f)
    assert not cls.is_zero()
    assert tw.boundary_class(1, cls) == cls

