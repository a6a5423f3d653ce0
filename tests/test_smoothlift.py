"""Lifting, homotopies and mapping-space fillers on the catalog algebras."""

import random

import pytest

import crystalcalc.smoothlift as smoothlift
from crystalcalc.cli import demo_morphisms
from crystalcalc.derham import DeRhamComplex
from crystalcalc.errors import (
    IncompatibleFaces,
    NotCongruent,
    NotInvertible,
    PrecisionExhausted,
    WitnessNotInvertible,
)
from crystalcalc.ring import ZpN
from crystalcalc.series import PDSeries
from crystalcalc.simplicial import t_monomials
from crystalcalc.smoothlift import (
    Homotopy,
    Morphism,
    Presentation,
    build_homotopy,
    catalog,
    evaluate_poly,
    fill_mapping_boundary,
    lift_algebra,
    lift_morphism,
    unit_pair_presentation,
)


R33 = ZpN(3, 3)


def two_unit_pairs(ring, E=3):
    """x*y = 1 and z*w = 1 with witness y, w: a 2 x 2 witness minor."""
    gens = (("x", "poly", 1), ("y", "poly", -1),
            ("z", "poly", 1), ("w", "poly", -1))
    pres = Presentation("gm-pairs", ring, gens,
                        relations=[{(1, 1, 0, 0): 1, (0, 0, 0, 0): -1},
                                   {(0, 0, 1, 1): 1, (0, 0, 0, 0): -1}],
                        witness=("y", "w"), leads=[(1, 1, 0, 0), (0, 0, 1, 1)],
                        E=E)
    pres.check_witness()
    return pres


def chained_unit_pairs(ring, E=3):
    """x*y = 1 and z*w = y with witness y, w: the minor [[x, 0], [-1, z]]
    has an off-diagonal entry."""
    gens = (("x", "poly", 1), ("y", "poly", -1),
            ("z", "poly", 0), ("w", "poly", -1))
    pres = Presentation("gm-chain", ring, gens,
                        relations=[{(1, 1, 0, 0): 1, (0, 0, 0, 0): -1},
                                   {(0, 0, 1, 1): 1, (0, 1, 0, 0): -1}],
                        witness=("y", "w"), leads=[(1, 1, 0, 0), (0, 0, 1, 1)],
                        E=E)
    pres.check_witness()
    return pres


WITNESS_CASES = pytest.mark.parametrize(
    "make", [lambda ring: catalog("ell-3-1-2", ring), unit_pair_presentation,
             two_unit_pairs, chained_unit_pairs],
    ids=["ell-3-1-2", "gm-pair", "gm-pairs", "gm-chain"])


def generator_images(A, spec):
    return {g.name: PDSeries.geom_var(spec, g.name) for g in A.generators}


def identity_morphism(A, D=0, level=0):
    spec = A.carrier(D=D, level=level)
    images = {g.name: PDSeries.geom_var(spec, g.name) for g in A.generators}
    return Morphism(A, A, images, level=level, D=D)


# -- lifting algebras -----------------------------------------------------


def test_lift_free_algebra():
    Abar = catalog("a1", ZpN(3, 1))
    A = lift_algebra(Abar, 3)
    assert A.ring.N == 3
    assert not A.relations


def test_lift_unit_pair():
    # coefficients lift verbatim: -1 mod 5 stays the residue 4
    Abar = unit_pair_presentation(ZpN(5, 1))
    A = lift_algebra(Abar, 2)
    assert A.relations[0] == {(1, 1): 1, (0, 0): 4}
    # quotient rewrite derived from the lifted relation: x*y = -4 = 21
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    y = PDSeries.geom_var(spec, "y")
    assert A.reduce(x.mul(y)) == PDSeries.constant(spec, 21)


def test_lift_hypersurface_verbatim():
    Abar = catalog("ell-3-1-2", ZpN(3, 1))
    A = lift_algebra(Abar, 3)
    # same residues, now read mod 27
    assert A.relations[0][(0, 2)] == 1
    assert A.relations[0][(3, 0)] == 2
    # the relation itself reduces to zero in the lifted quotient
    spec = A.carrier()
    assert A.reduce(A.relation_series(0, spec)).is_zero()


def test_witness_failure_detected():
    ring = ZpN(3, 1)
    # relation y^2 - x with witness y: the minor 2y is a zero divisor
    with pytest.raises(WitnessNotInvertible):
        Presentation("bad", ring,
                     (("x", "poly", 1), ("y", "poly", 1)),
                     relations=[{(0, 2): 1, (1, 0): -1}],
                     witness=("y",), leads=[(0, 2)],
                     E=5).check_witness()


def test_at_precision_reads_coefficients_mod_p_power():
    A = Presentation("c", R33, (("x", "poly", 1), ("y", "poly", 1)),
                     relations=[{(0, 2): 1, (1, 0): 3, (0, 0): -2}],
                     witness=("y",), leads=[(0, 2)], E=4)
    small = A.at_precision(1)
    assert small.ring == ZpN(3, 1)
    # 3x is divisible by p and drops out; -2 is the residue 1, so y^2 = -1
    assert small.relations == ({(0, 2): 1, (0, 0): 1},)
    spec = small.carrier()
    y = PDSeries.geom_var(spec, "y")
    assert small.reduce(y.power(2)) == PDSeries.constant(spec, 2)
    assert A.at_precision(2).relations == ({(0, 2): 1, (1, 0): 3,
                                            (0, 0): 7},)


# -- witness-minor solve -----------------------------------------------------


def _witness_minor_oracle(A, images, spec):
    cols = [A.gen_names.index(w) for w in A.witness]
    return [[evaluate_poly(row[j], A, images, spec) for j in cols]
            for row in A.jacobian_polys()]


@WITNESS_CASES
def test_witness_solve_inverts_the_minor(make):
    A = make(R33)
    spec = A.carrier()
    images = generator_images(A, spec)
    gens = list(images.values())
    c = len(A.relations)
    vectors = [[PDSeries.constant(spec, 1 + i) for i in range(c)],
               [gens[i] for i in range(c)],
               [A.reduce(gens[-1 - i].mul(gens[0]).add(
                   PDSeries.constant(spec, 3))) for i in range(c)]]
    W = _witness_minor_oracle(A, images, spec)
    solved = A.witness_solve(A, images, spec, vectors)
    assert len(solved) == len(vectors)
    for vec, sol in zip(vectors, solved):
        for i in range(c):
            acc = vec[i]
            for j in range(c):
                acc = acc.add(W[i][j].mul(sol[j]))
            assert A.reduce(acc).is_zero(), (A.name, i, vec)


@WITNESS_CASES
def test_frame_solves_the_relation_differentials(make):
    # each relation f has df = 0: df/dx_v + sum_s df/dx_s frame[s][v] = 0
    A = make(R33)
    cx = DeRhamComplex(A, 0, D=0)
    frame = cx.frame()
    assert sorted(frame) == sorted(A.gen_names.index(w) for w in A.witness)
    spec = A.carrier()
    images = generator_images(A, spec)
    for row in A.jacobian_polys():
        for v in cx.free_geom:
            acc = evaluate_poly(row[v], A, images, spec)
            for s, coeffs in frame.items():
                if v in coeffs:
                    acc = acc.add(evaluate_poly(row[s], A, images, spec)
                                  .mul(coeffs[v]))
            assert A.reduce(acc).is_zero(), (A.name, v)


# -- quotient arithmetic ---------------------------------------------------


def test_unit_pair_reduce():
    A = unit_pair_presentation(R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    y = PDSeries.geom_var(spec, "y")
    assert A.reduce(x.mul(y)) == PDSeries.one(spec)
    assert A.reduce(x.power(2).mul(y)) == x


def test_quotient_inverse_of_generator():
    A = unit_pair_presentation(R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    inv = A.quotient_inverse(x)
    assert A.reduce(inv.mul(x)) == PDSeries.one(spec)
    assert inv == PDSeries.geom_var(spec, "y")


def _raises_not_invertible(call):
    try:
        call()
    except NotInvertible:
        return True
    return False


def _random_carrier_series(A, spec, rng):
    """A few monomials of the carrier, unit or p-divisible coefficients,
    often with one unit T-free monomial in front."""
    p, mod = spec.ring.p, spec.ring.modulus
    ranges = [range(-2, 3) if g.kind == "laurent" else range(0, 3)
              for g in A.generators]
    xes = [()]
    for r in ranges:
        xes = [xe + (e,) for xe in xes for e in r]
    tes = t_monomials(len(spec.pd), spec.D)
    terms = {}
    for _ in range(rng.randint(0, 4)):
        c = rng.randrange(1, mod)
        terms[(rng.choice(xes), rng.choice(tes))] = \
            c if rng.random() < 0.4 else p * c
    if rng.random() < 0.6:
        terms[(rng.choice(xes), spec.zero_t())] = rng.choice((1, p - 1))
    return PDSeries(spec, terms)


def test_unit_test_agrees_with_quotient_inverse():
    # the existence-only test must answer exactly as quotient_inverse does,
    # also where the unit + nilpotent split fails but a linear solve finds
    # an inverse (x in x*y = 1, or 1 + x^E with x^(E+1) outside the window)
    ring = ZpN(3, 2)
    rng = random.Random(11)
    seen = {"split": 0, "solve": 0, "none": 0}
    for A in (catalog("gm", ring, E=2), catalog("a1", ring, E=2),
              unit_pair_presentation(ring, E=2)):
        for level in range(3):
            spec = A.carrier(D=2, level=level)
            samples = [_random_carrier_series(A, spec, rng)
                       for _ in range(25)]
            x = PDSeries.geom_var(spec, "x")
            samples += [x, PDSeries.one(spec).add(x.power(2))]
            for f in samples:
                fails = _raises_not_invertible(lambda: A.require_unit(f))
                assert fails == _raises_not_invertible(
                    lambda: A.quotient_inverse(f)), (A.name, level, f)
                if fails:
                    seen["none"] += 1
                elif _raises_not_invertible(f._unit_split):
                    seen["solve"] += 1
                else:
                    seen["split"] += 1
    assert min(seen.values()) >= 10, seen


def test_ell_reduce_power():
    A = catalog("ell-3-1-2", R33)
    spec = A.carrier()
    y = PDSeries.geom_var(spec, "y")
    red = A.reduce(y.power(2))
    x = PDSeries.geom_var(spec, "x")
    expected = x.power(3).add(x).add(PDSeries.constant(spec, 2))
    assert red == expected


# -- lifting morphisms -----------------------------------------------------


def test_lift_identity_on_gm():
    A = catalog("gm", R33)
    Abar = A.at_precision(1)
    spec1 = Abar.carrier()
    phibar = {"x": PDSeries.geom_var(spec1, "x")}
    phi = lift_morphism(phibar, A, A)
    assert phi.images["x"] == PDSeries.geom_var(A.carrier(), "x")


def test_lift_free_algebra_any_seed_valid():
    A = catalog("a1", R33)
    Abar = A.at_precision(1)
    spec1 = Abar.carrier()
    spec = A.carrier()
    phibar = {"x": PDSeries.geom_var(spec1, "x")}
    seed = {"x": PDSeries.geom_var(spec, "x").add(
        PDSeries.geom_var(spec, "x", 2).scale(3))}
    phi = lift_morphism(phibar, A, A, seeds=seed)
    assert phi.images["x"] == seed["x"]


def test_lift_morphism_newton_repairs_unit_pair():
    # seed x -> x(1+p), y -> y; the y-image must become y/(1+p)
    A = unit_pair_presentation(R33, E=6)
    Abar = A.at_precision(1)
    sbar = Abar.carrier()
    phibar = {"x": PDSeries.geom_var(sbar, "x"),
              "y": PDSeries.geom_var(sbar, "y")}
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    y = PDSeries.geom_var(spec, "y")
    seeds = {"x": x.scale(1 + 3), "y": y}
    phi = lift_morphism(phibar, A, A, seeds=seeds)
    # oracle: the inverse of 1+p mod 27 computed independently
    inv = pow(4, -1, 27)
    assert phi.images["x"] == x.scale(4)
    assert phi.images["y"] == y.scale(inv)
    val = phi.residuals()[0]
    assert val.is_zero()


def test_lift_morphism_newton_with_two_relations():
    # seed x -> 4x, z -> 4z; the witness images must become y/4 and w/4
    A = two_unit_pairs(R33)
    phibar = generator_images(A, A.at_precision(1).carrier())
    gen = generator_images(A, A.carrier())
    seeds = dict(gen, x=gen["x"].scale(4), z=gen["z"].scale(4))
    phi = lift_morphism(phibar, A, A, seeds=seeds)
    inv = pow(4, -1, 27)
    assert phi.images == dict(seeds, y=gen["y"].scale(inv),
                              w=gen["w"].scale(inv))


def test_lift_morphism_rejects_wrong_seed_reduction():
    A = catalog("a1", R33)
    Abar = A.at_precision(1)
    sbar = Abar.carrier()
    spec = A.carrier()
    phibar = {"x": PDSeries.geom_var(sbar, "x")}
    seeds = {"x": PDSeries.geom_var(spec, "x").add(PDSeries.one(spec))}
    with pytest.raises(NotCongruent):
        lift_morphism(phibar, A, A, seeds=seeds)


def _residual_evaluations(monkeypatch):
    """Wrap relation_residuals; each call is recorded as made inside or
    outside newton_correct."""
    calls = []
    inside = []
    residuals = smoothlift.relation_residuals
    newton = smoothlift.newton_correct

    def relation_residuals(*args):
        calls.append("newton" if inside else "other")
        return residuals(*args)

    def newton_correct(phi):
        inside.append(phi)
        try:
            return newton(phi)
        finally:
            inside.pop()

    monkeypatch.setattr(smoothlift, "relation_residuals", relation_residuals)
    monkeypatch.setattr(smoothlift, "newton_correct", newton_correct)
    return calls


def test_seeded_lift_evaluates_the_residuals_only_in_newton(monkeypatch):
    # one Newton step: the residuals of the seed and of the corrected
    # images, which are zero and are not evaluated a third time
    A = unit_pair_presentation(R33, E=6)
    phibar = generator_images(A, A.at_precision(1).carrier())
    gen = generator_images(A, A.carrier())
    seeds = dict(gen, x=gen["x"].scale(4))
    calls = _residual_evaluations(monkeypatch)
    phi = lift_morphism(phibar, A, A, seeds=seeds)
    assert calls == ["newton", "newton"]
    assert phi.images == dict(seeds, y=gen["y"].scale(pow(4, -1, 27)))


def test_unit_pair_homotopy_evaluates_the_residuals_only_in_newton(
        monkeypatch):
    A = unit_pair_presentation(R33, E=8)
    gen = generator_images(A, A.carrier())
    phi1 = Morphism(A, A, gen)
    phi2 = Morphism(A, A, {"x": gen["x"].scale(4),
                           "y": gen["y"].scale(pow(4, -1, 27))})
    calls = _residual_evaluations(monkeypatch)
    h = build_homotopy(phi1, phi2, D=6)
    assert calls == ["newton", "newton"]
    assert h.residuals()[0].is_zero()


# -- homotopies -------------------------------------------------------------


def test_constant_homotopy_is_degenerate():
    A = catalog("gm", R33)
    phi = identity_morphism(A)
    h = build_homotopy(phi, phi, D=4)
    assert h.at_zero.images == phi.images
    assert h.at_pi.images == phi.images
    # T-independent: equal to the degeneracy of the 0-simplex
    s0 = phi.degeneracy(0, D=4)
    assert h.images == s0.images


def test_translation_homotopy_on_a1():
    A = catalog("a1", R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    phi1 = Morphism(A, A, {"x": x})
    phi2 = Morphism(A, A, {"x": x.add(PDSeries.constant(spec, 3))})
    h = build_homotopy(phi1, phi2, D=4)
    # x -> x + T, checked at both interval ends
    spec1 = A.carrier(D=4, level=1)
    expected = PDSeries.geom_var(spec1, "x").add(PDSeries.pd_var(spec1, "T0"))
    assert h.images["x"] == expected
    assert h.at_zero.images == phi1.images
    assert h.at_pi.images == phi2.images


def test_scaling_homotopy_on_gm():
    A = catalog("gm", R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    phi1 = Morphism(A, A, {"x": x})
    phi2 = Morphism(A, A, {"x": x.scale(4)})
    h = build_homotopy(phi1, phi2, D=5)
    spec1 = A.carrier(D=5, level=1)
    expected = PDSeries.geom_var(spec1, "x").mul(
        PDSeries.one(spec1).add(PDSeries.pd_var(spec1, "T0")))
    assert h.images["x"] == expected
    assert h.at_zero.images == phi1.images
    assert h.at_pi.images == phi2.images


def test_homotopy_with_relations_unit_pair():
    A = unit_pair_presentation(R33, E=8)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    y = PDSeries.geom_var(spec, "y")
    inv4 = pow(4, -1, 27)
    phi1 = Morphism(A, A, {"x": x, "y": y})
    phi2 = Morphism(A, A, {"x": x.scale(4), "y": y.scale(inv4)})
    h = build_homotopy(phi1, phi2, D=6)
    assert h.at_zero.images == phi1.images
    assert h.at_pi.images == phi2.images
    # the relation x*y = 1 holds exactly along the whole interval
    assert h.residuals()[0].is_zero()


def _interpolated_homotopy(phi1, phi2, D):
    """phi1 + T*(phi2 - phi1)/p, the division done on the integer
    coefficients, then Newton corrected when the source has relations."""
    src, tgt = phi1.source, phi1.target
    p = tgt.ring.p
    spec1 = tgt.carrier(D=D, level=1)
    T = PDSeries.pd_var(spec1, "T0")
    images = {}
    for name, a in phi1.images.items():
        diff = phi2.images[name].sub(a)
        assert all(c % p == 0 for c in diff.terms.values())
        slope = PDSeries(spec1, {(xe, (0,)): c // p
                                 for (xe, _te), c in diff.terms.items()},
                         a.prec)
        images[name] = a.embed(spec1).add(slope.mul(T))
    h = Morphism(src, tgt, images, level=1, D=D, prec=phi1.prec,
                 validate=False)
    return smoothlift.newton_correct(h) if src.relations else h


def random_pair(A, rng):
    """Two lifts of one self-map of gm or a1 that agree mod p."""
    p, mod = A.ring.p, A.ring.modulus
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")

    def series(lo, hi, scale, prob):
        return PDSeries(spec, {((k,), ()): scale * rng.randrange(mod // scale)
                               for k in range(lo, hi) if rng.random() < prob})

    if A.name == "gm":
        first = x.mul(PDSeries.one(spec).add(series(-2, 3, p, 0.5)))
        bump = series(-1, 3, p, 0.5)
    else:
        first = x.add(series(0, 4, 1, 0.7))
        bump = series(0, 4, p, 0.7)
    return Morphism(A, A, {"x": first}), Morphism(A, A, {"x": first.add(bump)})


def _assert_interpolates(phi1, phi2, D):
    h = build_homotopy(phi1, phi2, D)
    expected = _interpolated_homotopy(phi1, phi2, D)
    assert h.images == expected.images
    assert h.prec == expected.prec
    assert repr(h) == repr(expected)
    assert h.at_zero.images == phi1.images
    assert h.at_pi.images == phi2.images


@pytest.mark.parametrize("D", [1, 4, 9])
def test_homotopy_is_the_interpolation_on_random_pairs(D):
    rng = random.Random(D)
    for name in ("gm", "a1"):
        A = catalog(name, R33)
        for _ in range(6):
            _assert_interpolates(*random_pair(A, rng), D)


def test_homotopy_is_the_corrected_interpolation_on_the_unit_pair():
    A = unit_pair_presentation(R33, E=8)
    gen = generator_images(A, A.carrier())
    phi1 = Morphism(A, A, gen)
    phi2 = Morphism(A, A, {"x": gen["x"].scale(4),
                           "y": gen["y"].scale(pow(4, -1, 27))})
    for D in (2, 4, 9):
        _assert_interpolates(phi1, phi2, D)
    # at D = 1 the corrected y needs T^2 terms, so its end at T = p is lost
    with pytest.raises(PrecisionExhausted, match="face 1"):
        build_homotopy(phi1, phi2, D=1)


@pytest.mark.parametrize("name,p,N,D", [
    ("gm", 3, 3, 4), ("gm", 5, 2, 7), ("a1", 3, 3, 4), ("a1", 2, 4, 6),
    ("ell-3-1-2", 3, 3, 4), ("ell-3-1-2", 3, 2, 2)])
def test_homotopy_is_the_interpolation_on_the_demo_morphisms(name, p, N, D):
    _assert_interpolates(*demo_morphisms(catalog(name, ZpN(p, N))), D)


def test_homotopy_mod_p_is_the_degenerate_simplex():
    # over Z/p the two ends agree and face 1 is T0 = p = 0: the filler is
    # s0 of the end
    A = catalog("gm", ZpN(3, 1))
    phi = identity_morphism(A)
    h = build_homotopy(phi, phi, D=3)
    assert h.images == phi.degeneracy(0, D=3).images
    assert h.at_zero.images == h.at_pi.images == phi.images


def test_homotopy_rejects_incongruent():
    A = catalog("a1", R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    phi1 = Morphism(A, A, {"x": x})
    phi2 = Morphism(A, A, {"x": x.add(PDSeries.one(spec))})
    with pytest.raises(NotCongruent):
        build_homotopy(phi1, phi2, D=4)


# -- mapping-space fillers ---------------------------------------------------


def random_two_simplex(A, D, rng):
    """A seeded 2-simplex of the self-mapping space of the torus algebra."""
    spec = A.carrier(D=D, level=2)
    x = PDSeries.geom_var(spec, "x")
    small = PDSeries.zero(spec)
    for te in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        if sum(te) <= D and rng.random() < 0.8:
            small = small.add(PDSeries(spec, {((0,), te): rng.randrange(27)}))
    small = small.add(PDSeries.constant(spec, 3 * rng.randrange(9)))
    unit = PDSeries.one(spec).add(small)
    return Morphism(A, A, {"x": x.mul(unit)}, level=2, D=D)


def test_fill_mapping_boundary_m1_matches_homotopy():
    A = catalog("gm", R33)
    spec = A.carrier()
    x = PDSeries.geom_var(spec, "x")
    phi1 = Morphism(A, A, {"x": x})
    phi2 = Morphism(A, A, {"x": x.scale(4)})
    h = build_homotopy(phi1, phi2, D=5)
    # face 0 evaluates at T = 0, face 1 at T = p
    assert h.face(0).images == phi1.images
    assert h.face(1).images == phi2.images
    filled = fill_mapping_boundary(1, [phi1, phi2], phi1.reduction(), D=5)
    assert filled.face(0).images == phi1.images
    assert filled.face(1).images == phi2.images
    assert filled.images == h.images


def test_fill_mapping_boundary_needs_interval_degree():
    # at D = 0 level 1 has no T0, so no repair could match face 1
    A = catalog("gm", R33)
    phi1 = identity_morphism(A)
    phi2 = Morphism(A, A, {"x": phi1.images["x"].scale(4)})
    with pytest.raises(ValueError, match="D must be >= 1: the interval "
                                         "variables need degree 1"):
        fill_mapping_boundary(1, [phi1, phi2], phi1.reduction(), D=0)


def test_fill_mapping_roundtrip_m2_gm():
    A = catalog("gm", R33)
    rng = random.Random(77)
    D = 5
    for _ in range(4):
        H = random_two_simplex(A, D, rng)
        faces = [H.face(i) for i in range(3)]
        base = H.reduction()
        F = fill_mapping_boundary(2, faces, base, D=D)
        for i in range(3):
            assert F.face(i).images == faces[i].images


def test_fill_mapping_incompatible_rejected():
    A = catalog("gm", R33)
    rng = random.Random(5)
    D = 5
    H = random_two_simplex(A, D, rng)
    faces = [H.face(i) for i in range(3)]
    spec1 = A.carrier(D=D, level=1)
    bad = dict(faces[1].images)
    bad["x"] = bad["x"].add(PDSeries.pd_var(spec1, "T0"))
    faces[1] = Morphism(A, A, bad, level=1, D=D, validate=False)
    with pytest.raises(IncompatibleFaces):
        fill_mapping_boundary(2, faces, H.reduction(), D=D)


def test_fill_mapping_rejects_faces_that_do_not_reduce_to_base():
    A = catalog("gm", R33)
    D = 5
    H = random_two_simplex(A, D, random.Random(5))
    faces = [H.face(i) for i in range(3)]
    base = {"x": H.reduction()["x"].scale(2)}
    # the per-generator check of fill_boundary
    with pytest.raises(IncompatibleFaces, match="base datum"):
        fill_mapping_boundary(2, faces, base, D=D)


def test_degenerate_simplex_faces():
    # s_0 of a 0-simplex has both faces equal to that 0-simplex
    A = catalog("gm", R33)
    phi = identity_morphism(A, D=4)
    s = Morphism(A, A, {n: im for n, im in
                        identity_morphism(A, D=4, level=0).degeneracy(0).images.items()},
                 level=1, D=4, validate=False)
    assert s.face(0).images == phi.images
    assert s.face(1).images == phi.images


def test_repeated_face_reuses_the_cached_structure_maps(monkeypatch):
    import crystalcalc.simplicial as simplicial
    calls = []
    original = simplicial.pd_substitute

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(simplicial, "pd_substitute", counting)
    A = catalog("gm", R33)
    D = 5
    assert A.mapping_tower(D) is A.mapping_tower(D)
    H = random_two_simplex(A, D, random.Random(3))
    first = [H.face(i) for i in range(3)]
    assert calls  # the first faces fill the tower's cache
    calls.clear()
    again = [H.face(i) for i in range(3)]
    assert calls == []
    assert [F.images for F in again] == [F.images for F in first]
    # a filler through the same tower substitutes only monomials it has not
    # seen: never a whole series
    fill_mapping_boundary(2, first, H.reduction(), D=D)
    assert all(len(f.terms) == 1 for f in calls)
