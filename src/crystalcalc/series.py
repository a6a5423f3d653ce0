"""Truncated multivariate series over Z/p^N.

A series lives over a :class:`VarSpec` describing two kinds of variables:

* geometric variables x_i, each polynomial (exponents 0..E) or Laurent
  (exponents -E..E), each carrying an integer grading weight;
* capped variables T_j with a shared bound D on the total T-degree.

The capped variables come in two flavours selected by ``divided``: plain
monomials T^k, or divided-power monomials T^[k] multiplying by the rule
T^[a] * T^[b] = binom(a+b, a) * T^[a+b].

Monomials escaping a window or the total cap are discarded by arithmetic;
callers choose caps large enough that the identities they assert are exact.
Each series tracks its own effective p-adic precision ``prec`` (at most N);
arithmetic keeps the smaller precision of its operands rather than
inventing digits.
"""

import math
from typing import NamedTuple

from .errors import (
    NotInvertible,
    SubstitutionOutsideIdeal,
    VarSpecMismatch,
)
from .ring import ZpN


class GeomVar(NamedTuple):
    name: str
    kind: str  # "poly" | "laurent"
    weight: int = 1


class VarSpec:
    """Shape of a truncated series ring: variables, windows, caps."""

    __slots__ = ("ring", "geom", "pd", "E", "D", "divided",
                 "_geom_index", "_pd_index")

    def __init__(self, ring: ZpN, geom=(), pd=(), E: int = 1, D: int = 1,
                 divided: bool = True):
        if E < 0 or D < 0:
            raise ValueError("windows must be >= 0")
        geom = tuple(GeomVar(*g) if not isinstance(g, GeomVar) else g for g in geom)
        names = [g.name for g in geom] + list(pd)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        for g in geom:
            if g.kind not in ("poly", "laurent"):
                raise ValueError(f"unknown kind {g.kind!r}")
        self.ring = ring
        self.geom = geom
        self.pd = tuple(pd)
        self.E = E
        self.D = D
        self.divided = divided
        self._geom_index = {g.name: i for i, g in enumerate(geom)}
        self._pd_index = {n: i for i, n in enumerate(pd)}

    def _key(self):
        # caps that bound no variable are irrelevant to the ring structure
        eff_E = self.E if self.geom else 0
        eff_D = self.D if self.pd else 0
        return (self.ring, self.geom, self.pd, eff_E, eff_D, self.divided)

    def __eq__(self, other):
        return isinstance(other, VarSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        gs = ",".join(g.name for g in self.geom)
        ts = ",".join(self.pd)
        return f"VarSpec([{gs}];[{ts}];E={self.E},D={self.D},{'pd' if self.divided else 'plain'})"

    def geom_index(self, name):
        return self._geom_index[name]

    def pd_index(self, name):
        return self._pd_index[name]

    def fits_geom(self, xe) -> bool:
        for g, e in zip(self.geom, xe):
            if g.kind == "poly":
                if e < 0 or e > self.E:
                    return False
            else:
                if abs(e) > self.E:
                    return False
        return True

    def fits_pd(self, te) -> bool:
        return sum(te) <= self.D and all(e >= 0 for e in te)

    def fits(self, xe, te) -> bool:
        return self.fits_geom(xe) and self.fits_pd(te)

    def degree(self, xe) -> int:
        return sum(g.weight * e for g, e in zip(self.geom, xe))

    def zero_x(self):
        return (0,) * len(self.geom)

    def zero_t(self):
        return (0,) * len(self.pd)

    def with_ring(self, ring):
        return VarSpec(ring, self.geom, self.pd, self.E, self.D, self.divided)

    def monomial_name(self, xe, te) -> str:
        parts = []
        for g, e in zip(self.geom, xe):
            if e:
                parts.append(f"{g.name}^{e}" if e != 1 else g.name)
        for n, e in zip(self.pd, te):
            if e:
                if self.divided:
                    parts.append(f"{n}^[{e}]")
                else:
                    parts.append(f"{n}^{e}" if e != 1 else n)
        return "*".join(parts) if parts else "1"


class PDSeries:
    """A truncated series: monomial -> coefficient, at precision ``prec``."""

    __slots__ = ("spec", "terms", "prec")

    def __init__(self, spec: VarSpec, terms=None, prec=None):
        self.spec = spec
        self.prec = spec.ring.N if prec is None else prec
        if self.prec < 0 or self.prec > spec.ring.N:
            raise ValueError("precision out of range")
        mod = spec.ring.p ** self.prec
        clean = {}
        if terms:
            for (xe, te), c in terms.items():
                c %= mod
                if c and spec.fits(xe, te):
                    clean[(tuple(xe), tuple(te))] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, spec, terms, prec):
        """Wrap terms that are already nonzero mod p^prec and in the window.

        Internal: no copy and no check.  Callers guarantee every key is a
        (tuple, tuple) inside ``spec``'s windows and caps and every
        coefficient lies in 1 .. p^prec - 1.
        """
        self = object.__new__(cls)
        self.spec = spec
        self.terms = terms
        self.prec = prec
        return self

    @classmethod
    def zero(cls, spec, prec=None):
        return cls(spec, {}, prec)

    @classmethod
    def constant(cls, spec, c, prec=None):
        return cls(spec, {(spec.zero_x(), spec.zero_t()): c}, prec)

    @classmethod
    def one(cls, spec, prec=None):
        return cls.constant(spec, 1, prec)

    @classmethod
    def geom_var(cls, spec, name, exp=1, prec=None):
        xe = list(spec.zero_x())
        xe[spec.geom_index(name)] = exp
        return cls(spec, {(tuple(xe), spec.zero_t()): 1}, prec)

    @classmethod
    def pd_var(cls, spec, name, k=1, prec=None):
        te = list(spec.zero_t())
        te[spec.pd_index(name)] = k
        return cls(spec, {(spec.zero_x(), tuple(te)): 1}, prec)

    # -- inspection ---------------------------------------------------

    def is_zero(self):
        return not self.terms

    def constant_coefficient(self):
        return self.terms.get((self.spec.zero_x(), self.spec.zero_t()), 0)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def degree_set(self):
        return {self.spec.degree(xe) for (xe, _te) in self.terms}

    def homogeneous_degree(self):
        degs = self.degree_set()
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def __eq__(self, other):
        if not isinstance(other, PDSeries):
            return NotImplemented
        return (self.spec == other.spec and self.prec == other.prec
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.spec, self.prec, tuple(self.sorted_terms())))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (xe, te), c in self.sorted_terms():
            name = self.spec.monomial_name(xe, te)
            bits.append(f"{c}" if name == "1" else f"{c}*{name}")
        return " + ".join(bits)

    def __repr__(self):
        return f"PDSeries({self})"

    # -- arithmetic ---------------------------------------------------

    def _check_compatible(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise VarSpecMismatch(f"{self.spec} vs {other.spec}")

    def add(self, other):
        self._check_compatible(other)
        prec = min(self.prec, other.prec)
        mod = self.spec.ring.p ** prec
        terms = {k: v % mod for k, v in self.terms.items()}
        for k, v in other.terms.items():
            terms[k] = (terms.get(k, 0) + v) % mod
        return PDSeries._trusted(self.spec,
                                 {k: v for k, v in terms.items() if v}, prec)

    def neg(self):
        mod = self.spec.ring.p ** self.prec
        return PDSeries._trusted(
            self.spec, {k: mod - v for k, v in self.terms.items()}, self.prec)

    def sub(self, other):
        return self.add(other.neg())

    def scale(self, c):
        mod = self.spec.ring.p ** self.prec
        terms = {k: (v * c) % mod for k, v in self.terms.items()}
        return PDSeries._trusted(self.spec,
                                 {k: v for k, v in terms.items() if v},
                                 self.prec)

    def mul(self, other):
        self._check_compatible(other)
        spec = self.spec
        prec = min(self.prec, other.prec)
        mod = spec.ring.p ** prec
        D = spec.D
        divided = spec.divided
        fits_geom = spec.fits_geom
        # T-exponents are nonnegative, so the cap needs only the T-degrees
        right = [(xe, te, sum(te), c) for (xe, te), c in other.terms.items()]
        out = {}
        for (xe1, te1), c1 in self.terms.items():
            room = D - sum(te1)
            for xe2, te2, d2, c2 in right:
                if d2 > room:
                    continue
                xe = tuple(a + b for a, b in zip(xe1, xe2))
                if not fits_geom(xe):
                    continue
                te = tuple(a + b for a, b in zip(te1, te2))
                c = c1 * c2
                if divided:
                    for a, b in zip(te1, te2):
                        if a and b:
                            c *= math.comb(a + b, a)
                c %= mod
                if c:
                    key = (xe, te)
                    nv = (out.get(key, 0) + c) % mod
                    if nv:
                        out[key] = nv
                    else:
                        out.pop(key, None)
        return PDSeries._trusted(spec, out, prec)

    def power(self, k: int):
        if k < 0:
            return self.inverse().power(-k)
        result = PDSeries.one(self.spec, self.prec)
        base = self
        while k:
            if k & 1:
                result = result.mul(base)
            base0 = base
            k >>= 1
            if k:
                base = base0.mul(base0)
        return result

    # -- precision ----------------------------------------------------

    def reduce_precision(self, prec):
        if prec > self.prec:
            raise ValueError("cannot gain precision")
        return PDSeries(self.spec, self.terms, prec)

    def change_ring(self, ring: ZpN):
        spec = self.spec.with_ring(ring)
        return PDSeries(spec, self.terms, min(self.prec, ring.N))

    def embed(self, spec: VarSpec):
        """This series in ``spec``, whose interval variables extend these.

        The added interval variables get exponent zero.
        """
        pad = len(spec.pd)
        return PDSeries(spec, {(xe, te + (0,) * (pad - len(te))): c
                               for (xe, te), c in self.terms.items()},
                        self.prec)

    # -- inversion ----------------------------------------------------

    def inverse(self):
        """Inverse of a series of the shape  c * x^g * (1 + small).

        ``small`` must be topologically nilpotent: every term either has a
        p-divisible coefficient or positive T-degree.  Anything else (for
        instance 1 + x with x a unit variable) is rejected.

        The inverse exists exactly when ``_unit_split`` succeeds, so that
        step alone answers whether it exists.  Every term of eps has
        p-valuation plus T-degree at least 1, and both add up under
        multiplication, so every term of eps^k has them summing to at least
        k.  A nonzero term has valuation below prec and T-degree at most D,
        hence eps^(prec + D) = 0 and the geometric series
        1 - eps + eps^2 - ... ends within the loop below.
        """
        inv_lead, eps = self._unit_split()
        acc = PDSeries.one(self.spec, self.prec)
        power = PDSeries.one(self.spec, self.prec)
        sign = 1
        for _ in range(self.prec + self.spec.D):
            power = power.mul(eps)
            if power.is_zero():
                break
            sign = -sign
            acc = acc.add(power.scale(sign))
        return acc.mul(inv_lead)

    def _unit_split(self):
        """(1/lead, eps) with  self = lead * (1 + eps), or NotInvertible.

        The lead is the unique T-free monomial with a unit coefficient; it
        must be invertible in the window, and eps topologically nilpotent.
        """
        spec = self.spec
        ring = spec.ring
        lead = None
        for (xe, te), c in self.terms.items():
            if sum(te) == 0 and ring.val(c) == 0:
                if lead is not None:
                    raise NotInvertible("multiple unit monomials", witness=self)
                lead = ((xe, te), c)
        if lead is None:
            raise NotInvertible("no unit monomial", witness=self)
        (lxe, lte), lc = lead
        neg_lxe = tuple(-e for e in lxe)
        if not spec.fits_geom(neg_lxe):
            raise NotInvertible("leading monomial not invertible in window",
                                witness=lead)
        for g, e in zip(spec.geom, lxe):
            if e and g.kind == "poly":
                raise NotInvertible(f"{g.name} is not invertible", witness=lead)
        mod = ring.p ** self.prec
        inv_lead = PDSeries(spec, {(neg_lxe, spec.zero_t()):
                                   pow(lc, -1, mod)}, self.prec)
        eps = self.mul(inv_lead).sub(PDSeries.one(spec, self.prec))
        for (xe, te), c in eps.terms.items():
            if sum(te) == 0 and ring.val(c) == 0:
                raise NotInvertible("series is not unit + nilpotent",
                                    witness=(xe, te))
        return inv_lead, eps


# -- divided powers of a series ---------------------------------------


def _gamma_single_term(spec, c, xe, te, k, prec):
    """k-th divided power of the single term c * x^xe * T^te.

    Returns a PDSeries (possibly zero after truncation).  If the term has no
    T-part its coefficient must be divisible by p, else the divided power is
    undefined in the ring.
    """
    ring = spec.ring
    if k == 0:
        return PDSeries.one(spec, prec)
    mod = ring.p ** prec
    t_weight = sum(te)
    new_xe = tuple(k * e for e in xe)
    new_te = tuple(k * e for e in te)
    if t_weight:
        if not spec.fits(new_xe, new_te):
            return PDSeries.zero(spec, prec)
        num = 1
        for e in te:
            if e:
                num *= math.factorial(k * e) // (math.factorial(e) ** k)
        assert num % math.factorial(k) == 0
        coeff = (num // math.factorial(k)) * pow(c, k, mod) % mod
        return PDSeries(spec, {(new_xe, new_te): coeff}, prec)
    # T-free term: needs p | c, and the value is c^k / k!
    v_c = ring.val(c)
    if v_c < 1:
        raise SubstitutionOutsideIdeal(
            "divided power of a term with unit coefficient and no capped part",
            witness=(c, xe, te))
    if not spec.fits_geom(new_xe):
        return PDSeries.zero(spec, prec)
    vf = ring.val_factorial(k)
    big = ring.p ** (prec + vf)
    ck = pow(c, k, big)
    assert ck % ring.p ** vf == 0
    unit = math.factorial(k) // ring.p ** vf
    coeff = (ck // ring.p ** vf) * pow(unit, -1, mod) % mod
    if not coeff:
        return PDSeries.zero(spec, prec)
    return PDSeries(spec, {(new_xe, spec.zero_t()): coeff}, prec)


def gamma_of_series(f: PDSeries, k: int) -> PDSeries:
    """k-th divided power of a series lying in the ideal (p, T_1, ..)."""
    spec = f.spec
    prec = f.prec
    if k == 0:
        return PDSeries.one(spec, prec)
    terms = f.sorted_terms()
    memo = {}

    def rec(idx, kk):
        if kk == 0:
            return PDSeries.one(spec, prec)
        if idx == len(terms):
            return PDSeries.zero(spec, prec)
        key = (idx, kk)
        if key in memo:
            return memo[key]
        (xe, te), c = terms[idx]
        acc = PDSeries.zero(spec, prec)
        for i in range(kk + 1):
            tail = rec(idx + 1, kk - i)
            if tail.is_zero():
                continue
            head = _gamma_single_term(spec, c, xe, te, i, prec)
            if head.is_zero():
                continue
            acc = acc.add(head.mul(tail))
        memo[key] = acc
        return acc

    return rec(0, k)


def pd_substitute(f: PDSeries, images: dict, target: VarSpec = None) -> PDSeries:
    """Apply the ring map sending each variable to its image series.

    Geometric variables default to the same-named variable of the target.
    Images of capped variables must lie in the ideal (p, T): every T-free
    term needs a p-divisible coefficient.
    """
    spec = f.spec
    if target is None:
        for img in images.values():
            target = img.spec
            break
        if target is None:
            target = spec
    prec = f.prec
    for img in images.values():
        prec = min(prec, img.prec)

    geom_images = []
    for g in spec.geom:
        if g.name in images:
            geom_images.append(images[g.name])
        else:
            geom_images.append(PDSeries.geom_var(target, g.name, prec=prec))
    pd_images = []
    for n in spec.pd:
        if n not in images:
            raise VarSpecMismatch(f"no image given for capped variable {n}")
        img = images[n]
        for (xe, te), c in img.terms.items():
            if sum(te) == 0 and target.ring.val(c) == 0:
                raise SubstitutionOutsideIdeal(
                    f"image of {n} has unit term outside the ideal",
                    witness=(n, xe, c))
        pd_images.append(img)

    geom_pow_cache = {}
    pd_pow_cache = {}

    def geom_power(i, e):
        key = (i, e)
        if key not in geom_pow_cache:
            base = geom_images[i]
            if e >= 0:
                geom_pow_cache[key] = base.power(e)
            else:
                geom_pow_cache[key] = base.inverse().power(-e)
        return geom_pow_cache[key]

    def pd_power(i, e):
        key = (i, e)
        if key not in pd_pow_cache:
            img = pd_images[i].reduce_precision(prec)
            if spec.divided:
                pd_pow_cache[key] = gamma_of_series(img, e)
            else:
                pd_pow_cache[key] = img.power(e)
        return pd_pow_cache[key]

    out = PDSeries.zero(target, prec)
    for (xe, te), c in f.sorted_terms():
        term = PDSeries.constant(target, c, prec)
        for i, e in enumerate(xe):
            if e and not term.is_zero():
                term = term.mul(geom_power(i, e))
        for i, e in enumerate(te):
            if e and not term.is_zero():
                term = term.mul(pd_power(i, e))
        if not term.is_zero():
            out = out.add(term)
    return out
