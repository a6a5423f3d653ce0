"""Truncated series arithmetic: ring axioms, divided powers, substitution."""

import math
import random

import pytest

from crystalcalc.errors import (
    NotInvertible,
    SubstitutionOutsideIdeal,
    VarSpecMismatch,
)
from crystalcalc.ring import ZpN
from crystalcalc.series import (
    GeomVar,
    PDSeries,
    VarSpec,
    gamma_of_series,
    pd_substitute,
)


def spec_1t(p=3, N=3, D=4, divided=True):
    return VarSpec(ZpN(p, N), geom=(), pd=("T",), D=D, divided=divided)


def spec_xt(p=3, N=3, E=6, D=4, divided=True):
    return VarSpec(ZpN(p, N), geom=(GeomVar("x", "poly", 1),), pd=("T",),
                   E=E, D=D, divided=divided)


def rand_series(spec, rng, nterms=4, prec=None):
    terms = {}
    for _ in range(nterms):
        xe = []
        for g in spec.geom:
            lo = -spec.E if g.kind == "laurent" else 0
            xe.append(rng.randint(lo, spec.E))
        te = [0] * len(spec.pd)
        budget = rng.randint(0, spec.D)
        for i in range(len(spec.pd)):
            take = rng.randint(0, budget)
            te[i] = take
            budget -= take
        terms[(tuple(xe), tuple(te))] = rng.randrange(spec.ring.modulus)
    return PDSeries(spec, terms, prec)


# -- gamma_p oracle values --------------------------------------------


def test_gamma_p_basic_axioms():
    ring = ZpN(3, 3)
    assert ring.gamma_p(0) == 1
    assert ring.gamma_p(1) == 3


def test_gamma_p_p3_N3_k2():
    # gamma_2(3) = 9/2 mod 27: the unique x with 2x = 9 mod 27
    ring = ZpN(3, 3)
    solutions = [x for x in range(27) if (2 * x) % 27 == 9]
    assert solutions == [18]
    assert ring.gamma_p(2) == 18
    assert (2 * ring.gamma_p(2)) % 27 == 9


def test_gamma_p_p2_N4_k2():
    # gamma_2(2) = 4/2 = 2 mod 16 (val_2(2!) = 1)
    ring = ZpN(2, 4)
    assert ring.val_factorial(2) == 1
    assert ring.gamma_p(2) == 2


def test_gamma_p_vanishes_at_high_index():
    ring = ZpN(3, 2)
    # val(3^k / k!) = k - val(k!) >= 2 for k >= 2 here
    for k in range(2, 8):
        assert ring.gamma_p(k) == 0


# -- multiplication ----------------------------------------------------


def test_pd_law_simple():
    spec = spec_1t()
    T = PDSeries.pd_var(spec, "T")
    prod = T.mul(T)
    assert prod.terms == {((), (2,)): 2}


def test_poly_product():
    ring = ZpN(3, 3)
    spec = VarSpec(ring, geom=(GeomVar("x", "poly", 1),), E=5, D=0)
    one = PDSeries.one(spec)
    x = PDSeries.geom_var(spec, "x")
    lhs = one.add(x)
    rhs = one.sub(x)
    prod = lhs.mul(rhs)
    assert prod == one.sub(x.mul(x))


def test_cap_discards_high_weight():
    spec = spec_1t(p=3, N=3, D=2)
    t1 = PDSeries.pd_var(spec, "T", 1)
    t2 = PDSeries.pd_var(spec, "T", 2)
    assert t1.mul(t2).is_zero()


def test_pd_axiom_factorial():
    # k! * T^[k] = (T^[1])^k whenever k <= D
    spec = spec_1t(p=3, N=3, D=4)
    T = PDSeries.pd_var(spec, "T")
    import math
    for k in range(1, 5):
        lhs = PDSeries.pd_var(spec, "T", k).scale(math.factorial(k))
        assert T.power(k) == lhs


def test_ring_axioms_seeded():
    spec = spec_xt()
    rng = random.Random(5)
    for _ in range(15):
        a, b, c = (rand_series(spec, rng) for _ in range(3))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_varspec_mismatch():
    a = PDSeries.one(spec_1t())
    b = PDSeries.one(spec_1t(D=3))
    with pytest.raises(VarSpecMismatch):
        a.mul(b)


# -- divided powers of series ------------------------------------------


def test_gamma_addition_law_two_vars():
    ring = ZpN(3, 3)
    spec = VarSpec(ring, pd=("T1", "T2"), D=4)
    s = PDSeries.pd_var(spec, "T1").add(PDSeries.pd_var(spec, "T2"))
    g2 = gamma_of_series(s, 2)
    expected = (PDSeries.pd_var(spec, "T1", 2)
                .add(PDSeries.pd_var(spec, "T1").mul(PDSeries.pd_var(spec, "T2")))
                .add(PDSeries.pd_var(spec, "T2", 2)))
    assert g2 == expected


def test_gamma_of_scalar_multiple():
    # gamma_n(c*u) = c^n gamma_n(u)
    ring = ZpN(3, 3)
    spec = VarSpec(ring, pd=("T",), D=6)
    T = PDSeries.pd_var(spec, "T")
    for c in (2, 5):
        for n in (2, 3):
            assert gamma_of_series(T.scale(c), n) == gamma_of_series(T, n).scale(pow(c, n, 27))


def test_gamma_matches_gamma_p_under_substitution():
    # substituting T -> p into T^[2] equals gamma_2(p) = 18 mod 27
    ring = ZpN(3, 3)
    spec = VarSpec(ring, pd=("T",), D=4)
    target = VarSpec(ring, pd=(), D=4)
    f = PDSeries.pd_var(spec, "T", 2)
    img = PDSeries.constant(target, 3)
    out = pd_substitute(f, {"T": img}, target)
    assert out == PDSeries.constant(target, 18)


def test_gamma_composite_rule():
    # gamma_a * gamma_b = binom(a+b, a) gamma_{a+b} for a series argument
    import math
    ring = ZpN(3, 3)
    spec = VarSpec(ring, pd=("T1", "T2"), D=6)
    u = PDSeries.pd_var(spec, "T1").add(PDSeries.pd_var(spec, "T2").scale(2))
    for a, b in [(1, 1), (1, 2), (2, 2)]:
        lhs = gamma_of_series(u, a).mul(gamma_of_series(u, b))
        rhs = gamma_of_series(u, a + b).scale(math.comb(a + b, a))
        assert lhs == rhs


def test_substitute_t_to_zero_drops_positive_weight():
    ring = ZpN(3, 3)
    spec = spec_xt()
    target = VarSpec(ring, geom=spec.geom, pd=(), E=spec.E, D=spec.D)
    x = PDSeries.geom_var(spec, "x")
    f = x.add(PDSeries.pd_var(spec, "T", 2).scale(7)).add(PDSeries.one(spec))
    out = pd_substitute(f, {"T": PDSeries.zero(target)}, target)
    xt = PDSeries.geom_var(target, "x")
    assert out == xt.add(PDSeries.one(target))


def test_substitution_outside_ideal_rejected():
    ring = ZpN(3, 3)
    spec = spec_1t()
    target = spec
    bad = PDSeries.one(target)  # unit constant term
    f = PDSeries.pd_var(spec, "T")
    with pytest.raises(SubstitutionOutsideIdeal):
        pd_substitute(f, {"T": bad}, target)


def test_substitution_is_ring_hom_seeded():
    ring = ZpN(3, 2)
    spec = VarSpec(ring, geom=(GeomVar("x", "poly", 1),), pd=("T",), E=8, D=4)
    target = VarSpec(ring, geom=spec.geom, pd=("S1", "S2"), E=8, D=4)
    img = PDSeries.pd_var(target, "S1").add(PDSeries.pd_var(target, "S2").scale(2)) \
        .add(PDSeries.constant(target, 3))
    images = {"T": img}
    rng = random.Random(9)
    for _ in range(8):
        f = rand_series(spec, rng, nterms=3)
        g = rand_series(spec, rng, nterms=3)
        sf = pd_substitute(f, images, target)
        sg = pd_substitute(g, images, target)
        assert pd_substitute(f.add(g), images, target) == sf.add(sg)
        assert pd_substitute(f.mul(g), images, target) == sf.mul(sg)


# -- inversion ----------------------------------------------------------


def test_inverse_laurent_unit():
    ring = ZpN(3, 3)
    spec = VarSpec(ring, geom=(GeomVar("x", "laurent", 1),), pd=("T",), E=4, D=3)
    x = PDSeries.geom_var(spec, "x")
    T = PDSeries.pd_var(spec, "T")
    u = x.mul(PDSeries.one(spec).add(T).add(PDSeries.constant(spec, 3)))
    inv = u.inverse()
    assert u.mul(inv) == PDSeries.one(spec)


def test_inverse_rejects_polynomial_unit_plus_variable():
    ring = ZpN(3, 3)
    spec = VarSpec(ring, geom=(GeomVar("x", "poly", 1),), E=4, D=0)
    f = PDSeries.one(spec).add(PDSeries.geom_var(spec, "x"))
    with pytest.raises(NotInvertible):
        f.inverse()


def test_plain_mode_powers():
    # plain capped variables multiply without binomial factors
    spec = spec_1t(p=3, N=2, D=4, divided=False)
    T = PDSeries.pd_var(spec, "T")
    assert T.mul(T).terms == {((), (2,)): 1}
    # substitution T -> p - T is polynomial evaluation in plain mode
    img = PDSeries.constant(spec, 3).sub(T)
    out = pd_substitute(PDSeries.pd_var(spec, "T", 2), {"T": img}, spec)
    # (3 - T)^2 = 9 - 6T + T^2 = 3T + T^2 mod 9
    assert out == T.scale(-6).add(T.mul(T)).add(PDSeries.constant(spec, 9))


def test_grading_bookkeeping():
    ring = ZpN(3, 2)
    spec = VarSpec(ring, geom=(GeomVar("x", "laurent", 1),), pd=("T",), E=5, D=3)
    f = PDSeries.geom_var(spec, "x", 3).mul(PDSeries.pd_var(spec, "T", 2))
    assert f.homogeneous_degree() == 3
    g = f.add(PDSeries.geom_var(spec, "x", -1))
    assert g.homogeneous_degree() is None


def test_gamma_of_scalar_series_against_rational_oracle():
    # gamma_k(p*c) = (p*c)^k / k! computed independently with Fractions
    from fractions import Fraction
    import math
    ring = ZpN(3, 4)
    spec = VarSpec(ring, pd=("T",), D=6)
    for c in (1, 2, 4, 7, 10):
        for k in (1, 2, 3, 4, 5):
            val = Fraction((3 * c) ** k, math.factorial(k))
            num, den = val.numerator, val.denominator
            e = 0
            while num % 3 == 0:
                num //= 3
                e += 1
            assert den % 3, "denominator must be a unit"
            if e >= ring.N:
                expected = 0
            else:
                expected = (3 ** e) * num * pow(den, -1, ring.modulus) \
                    % ring.modulus
            got = gamma_of_series(PDSeries.constant(spec, 3 * c), k)
            want = PDSeries.constant(spec, expected)
            assert got == want, (c, k)


def test_gamma_mixed_argument_multiplicativity():
    # gamma_k(u) * k! = u^k for a genuinely mixed ideal element
    import math
    ring = ZpN(3, 3)
    spec = VarSpec(ring, pd=("T1", "T2"), D=8)
    u = PDSeries.pd_var(spec, "T1").add(PDSeries.constant(spec, 3)) \
        .add(PDSeries.pd_var(spec, "T2").scale(2))
    for k in (2, 3):
        lhs = gamma_of_series(u, k).scale(math.factorial(k))
        assert lhs == u.power(k)


# -- products against a naive oracle ----------------------------------------------


def _naive_product(f, g):
    """f * g written out term by term, with the window and cap rules."""
    spec = f.spec
    prec = min(f.prec, g.prec)
    mod = spec.ring.p ** prec
    out = {}
    for (xe1, te1), c1 in f.terms.items():
        for (xe2, te2), c2 in g.terms.items():
            xe = tuple(a + b for a, b in zip(xe1, xe2))
            te = tuple(a + b for a, b in zip(te1, te2))
            if sum(te) > spec.D:
                continue
            lo = [0 if v.kind == "poly" else -spec.E for v in spec.geom]
            if any(e < l or e > spec.E for e, l in zip(xe, lo)):
                continue
            c = c1 * c2
            if spec.divided:
                for a, b in zip(te1, te2):
                    c *= math.comb(a + b, a)
            out[(xe, te)] = (out.get((xe, te), 0) + c) % mod
    return {k: v for k, v in out.items() if v}, prec


@pytest.mark.parametrize("divided", [True, False])
@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 2)])
def test_mul_matches_naive_product(divided, p, N):
    rng = random.Random(f"mul/{p}/{N}/{divided}")
    spec = VarSpec(ZpN(p, N),
                   geom=(GeomVar("x", "poly", 1), GeomVar("y", "laurent", 1)),
                   pd=("T0", "T1"), E=3, D=4, divided=divided)
    mod = p ** N

    def random_series():
        terms = {}
        for _ in range(rng.randint(0, 9)):
            xe = (rng.randint(0, 3), rng.randint(-3, 3))
            te = (rng.randint(0, 3), rng.randint(0, 2))
            if sum(te) <= spec.D:
                terms[(xe, te)] = rng.randrange(1, mod)
        return PDSeries(spec, terms, rng.randint(1, N))

    capped = clipped = 0
    for _ in range(150):
        f, g = random_series(), random_series()
        terms, prec = _naive_product(f, g)
        got = f.mul(g)
        assert got.prec == prec
        assert got.terms == terms
        assert got == PDSeries(spec, terms, prec)
        capped += any(sum(a[1]) + sum(b[1]) > spec.D
                      for a in f.terms for b in g.terms)
        clipped += any(abs(a[0][k] + b[0][k]) > spec.E
                       for a in f.terms for b in g.terms for k in (0, 1))
    assert capped and clipped  # the D cap and the E window were exercised
