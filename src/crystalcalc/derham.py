"""Divided-power de Rham complexes of smooth presentations with interval
variables adjoined.

The object at level m is the base algebra extended by divided-power
variables T_0..T_{m-1}; its ideal of definition is (p, T).  Forms are spanned
by  x^a * T^[b] * dx_J ^ dT_K  where the total interval weight  |b| + |K|
is capped by D (a dT counts with weight one, so the exterior differential
and the integration homotopy both preserve the cap and the per-weight pieces
of the interval direction are exactly contractible).

The T-part (te, K) of a basis form is capped by D whatever its x-part, and
d(T^[k]) = T^[k-1] dT keeps that weight, so the level-m complex is the
Koszul tensor product of the level-0 complex with the point's level-m
complex Omega_T: a form x^a T^[b] dx_J ^ dT_K is the pair (x^a dx_J,
T^[b] dT_K), and d_m = d_0 (x) 1 + (-1)^|J| 1 (x) d_T, the sign from moving
d_T past the |J| geometric differentials.  ``poincare_check`` certifies the
interval contraction on Omega_T alone and carries it to level m through
this factorization.

With a homogeneous grading on the base generators (dx carrying its
generator's weight, T and dT weight zero) every differential is degree
preserving, and cohomology is computed exactly per graded degree on the
window.  Cells whose monomial content would overflow the window are
detected by comparing basis counts at windows E and E+1 and reported as
uncertified rather than silently truncated.
"""

from bisect import bisect_left
from itertools import combinations
from operator import mul
from typing import NamedTuple

from .errors import CapsTooSmall
from .linalg import ElementaryDivisors, Matrix, complex_cohomology
from .reports import CheckReport, merge_reports
from .series import PDSeries, VarSpec
from .simplicial import t_monomials
from .smoothlift import Presentation, catalog, evaluate_poly


class FormBasis(NamedTuple):
    xe: tuple
    te: tuple
    J: tuple  # indices of geometric differentials, strictly increasing
    K: tuple  # indices of interval differentials, strictly increasing


class DeRhamComplex:
    """The divided-power de Rham complex of ``base`` with the divided-power
    interval variables T_0..T_{level-1} adjoined, graded or not."""

    def __init__(self, base: Presentation, level: int, D: int):
        self.base = base
        self.level = level
        self.D = D
        self.spec = VarSpec(base.ring, geom=base.generators,
                            pd=tuple(f"T{i}" for i in range(level)),
                            E=base.E, D=D, divided=True)
        self.npd = level  # the interval variables T_0..T_{level-1}
        self.free_geom = [i for i, g in enumerate(self.base.generators)
                          if g.name not in self.base.witness]
        self._weights = tuple(g.weight for g in self.base.generators)
        self._frame = None
        self._basis_cache = {}
        self._dmat_cache = {}
        self._xmono_cache = {}
        self._xdeg = None

    # -- monomial content ------------------------------------------------

    def _x_monomials(self, E=None):
        E = self.base.E if E is None else E
        if E not in self._xmono_cache:
            self._xmono_cache[E] = self.base.normal_monomials(E)
        return self._xmono_cache[E]

    def _x_by_degree(self):
        """The window's x-monomials grouped by graded degree, each sorted."""
        if self._xdeg is None:
            self._xdeg = {}
            for xe in self._x_monomials():
                self._xdeg.setdefault(self.degree(xe), []).append(xe)
        return self._xdeg

    def degree(self, xe):
        return sum(map(mul, self._weights, xe))

    def max_form_degree(self):
        return len(self.free_geom) + self.npd

    def basis(self, q, g=None):
        key = (q, g)
        if key not in self._basis_cache:
            out = []
            for nj in range(min(q, len(self.free_geom)) + 1):
                nk = q - nj
                if nk > self.npd:
                    continue
                for J in combinations(self.free_geom, nj):
                    wJ = sum(self.base.generators[v].weight for v in J)
                    xes = self._x_monomials() if g is None \
                        else self._x_by_degree().get(g - wJ, ())
                    for K in combinations(range(self.npd), nk):
                        for te in t_monomials(self.npd, self.D - nk):
                            for xe in xes:
                                out.append(FormBasis(xe, te, J, K))
            self._basis_cache[key] = sorted(out)
        return self._basis_cache[key]

    # -- differential ------------------------------------------------------

    def frame(self):
        """Witness differentials solved in terms of the free ones.

        Returns {witness_index: {free_index: coefficient series}} so that
        dx_s = sum frame[s][v] dx_v in the quotient.
        """
        if self._frame is None:
            pres = self.base
            spec0 = pres.carrier()
            images = {g.name: PDSeries.geom_var(spec0, g.name)
                      for g in pres.generators}
            jac = pres.jacobian_polys()
            columns = [[evaluate_poly(row[v], pres, images, spec0)
                        for row in jac] for v in self.free_geom]
            solved = pres.witness_solve(pres, images, spec0, columns)
            self._frame = {
                pres.gen_names.index(w): {
                    v: sol[si] for v, sol in zip(self.free_geom, solved)
                    if not sol[si].is_zero()}
                for si, w in enumerate(pres.witness)}
        return self._frame

    def _distribute(self, series, J, K, sign, target_index, row, weight_cap,
                    expected_degree=None):
        """Add sign * series * dx_J dT_K to a row over the target basis."""
        wJ = sum(self._weights[v] for v in J)
        for (xe, te), c in series.terms.items():
            self._add_term(row, xe, te, J, K, wJ, sign * c, target_index,
                           weight_cap, expected_degree)

    def _add_term(self, row, xe, te, J, K, wJ, c, target_index, weight_cap,
                  expected_degree):
        """Add c * x^xe T^[te] dx_J dT_K to a row over the target basis.

        With ``expected_degree`` set (homogeneous presentations), a term of
        a different graded degree is a broken degree-0 map, not truncation,
        and is reported as such.  Terms over the weight cap or outside the
        target basis are dropped.
        """
        if expected_degree is not None and \
                self.degree(xe) + wJ != expected_degree:
            raise CapsTooSmall("differential is not degree preserving",
                               witness=(xe, te, J, K))
        if sum(te) + len(K) > weight_cap:
            return
        idx = target_index.get((xe, te, J, K))  # finds the FormBasis key
        if idx is None:
            return
        nv = (row.get(idx, 0) + c) % self.spec.ring.modulus
        if nv:
            row[idx] = nv
        else:
            row.pop(idx, None)

    def _d_of_basis(self, b: FormBasis, target_index):
        """Row dict of the exterior differential of one basis form."""
        pres = self.base
        xe, te, J, K = b
        mod = self.spec.ring.modulus
        D = self.D
        row = {}
        wJ = sum(self._weights[j] for j in J)
        expected = self.degree(xe) + wJ if pres.is_homogeneous() else None
        # geometric part: d(x^a) = sum a_v x^(a - e_v) dx_v.  A free
        # generator's term is written directly: basis monomials are normal,
        # and a rewrite rule applies to x^a whenever it applies to
        # x^(a - e_v) (it asks every exponent to reach its lead's), so
        # x^(a - e_v) is normal too and needs no reduction.  Witness
        # differentials are rewritten through the frame, on the series path.
        for v, a in enumerate(xe):
            c = a % mod
            if not c:
                continue
            nxe = xe[:v] + (a - 1,) + xe[v + 1:]
            if not self.spec.fits_geom(nxe):
                continue
            if v in self.free_geom:
                if v not in J:
                    pos = bisect_left(J, v)
                    self._add_term(row, nxe, te, J[:pos] + (v,) + J[pos:], K,
                                   wJ + self._weights[v],
                                   -c if pos % 2 else c, target_index, D,
                                   expected)
                continue
            coeff = pres.reduce(PDSeries(self.spec, {(nxe, te): c}))
            for w, factor in sorted(self.frame().get(v, {}).items()):
                if w in J:
                    continue
                pos = bisect_left(J, w)
                val = pres.reduce(coeff.mul(factor.embed(self.spec)))
                self._distribute(val, J[:pos] + (w,) + J[pos:], K,
                                 -1 if pos % 2 else 1, target_index, row, D,
                                 expected)
        # interval part: d(T^[k]) = T^[k-1] dT, coefficient one
        for w, k in enumerate(te):
            if not k or w in K:
                continue
            at = bisect_left(K, w)
            self._add_term(row, xe, te[:w] + (k - 1,) + te[w + 1:], J,
                           K[:at] + (w,) + K[at:], wJ,
                           -1 if (len(J) + at) % 2 else 1, target_index, D,
                           expected)
        return row

    def dmat(self, q, g=None) -> Matrix:
        key = (q, g)
        if key not in self._dmat_cache:
            src = self.basis(q, g)
            tgt = self.basis(q + 1, g)
            index = {b: k for k, b in enumerate(tgt)}
            self._dmat_cache[key] = Matrix._trusted(
                self.spec.ring, [self._d_of_basis(b, index) for b in src],
                len(tgt))
        return self._dmat_cache[key]

    def assert_complex(self, g=None):
        for q in range(self.max_form_degree() + 1):
            d1 = self.dmat(q, g)
            d2 = self.dmat(q + 1, g)
            if not d1.mul(d2).is_zero():
                raise CapsTooSmall(
                    f"d after d is nonzero in form degree {q} (graded {g})",
                    witness=(q, g))
        return True

    def cohomology(self, q, g=None) -> ElementaryDivisors:
        d_out = self.dmat(q, g)
        if q == 0:
            ring = self.spec.ring
            d_in = Matrix.zero(ring, 0, len(self.basis(0, g)))
        else:
            d_in = self.dmat(q - 1, g)
        return complex_cohomology(d_in, d_out)

    # -- integration homotopy ---------------------------------------------

    def kappa_of_basis(self, b: FormBasis, target_index):
        """The contraction integrating the first interval variable present."""
        w_star = None
        for w in range(self.npd):
            if b.te[w] or w in b.K:
                w_star = w
                break
        if w_star is None or w_star not in b.K:
            return {}
        nte = list(b.te)
        nte[w_star] += 1
        if sum(nte) + len(b.K) - 1 > self.D:
            return {}
        pos = len(b.J) + sum(1 for k in b.K if k < w_star)
        sign = -1 if pos % 2 else 1
        newK = tuple(k for k in b.K if k != w_star)
        key = FormBasis(b.xe, tuple(nte), b.J, newK)
        idx = target_index.get(key)
        if idx is None:
            return {}
        return {idx: sign % self.spec.ring.modulus}

    def verify_contraction(self, g=None) -> CheckReport:
        """kappa d + d kappa = id - P, P the projection onto the interval-free
        forms, as a matrix identity in every form degree (no form has degree
        -1).  The differentials are read from ``dmat``, so the identity is
        certified on the matrices that the Poincare check identifies.
        """
        name = "poincare-contraction"
        ring = self.spec.ring

        def kappa(q):
            down = {b: k for k, b in enumerate(self.basis(q - 1, g))}
            return Matrix._trusted(
                ring, [self.kappa_of_basis(b, down) for b in self.basis(q, g)],
                len(down))

        kappa_up = kappa(0)
        for q in range(self.max_form_degree() + 1):
            kappa_here, kappa_up = kappa_up, kappa(q + 1)
            homotopy = kappa_here.mul(self.dmat(q - 1, g)).add(
                self.dmat(q, g).mul(kappa_up))
            for r, (b, row) in enumerate(zip(self.basis(q, g),
                                             homotopy._rows)):
                if row != ({} if _interval_free(b) else {r: 1}):
                    return CheckReport(name, False,
                                       witness=f"identity fails on {b}",
                                       details={"q": q, "graded": g})
        return CheckReport(name, True, details={"graded": g})


def _interval_free(b: FormBasis) -> bool:
    return not any(b.te) and not b.K


def level0_complex(A: Presentation, D: int) -> DeRhamComplex:
    """The level-0 complex of A at D, one per D, kept on the presentation.

    Like ``Presentation.mapping_tower``: its bases and differentials then
    serve the Poincare check, the graded windows and the divisor report of
    the same algebra.
    """
    cx = A.complexes.get(D)
    if cx is None:
        cx = A.complexes[D] = DeRhamComplex(A, 0, D)
    return cx


# -- graded windows ----------------------------------------------------------


def graded_cells(A: Presentation, D: int):
    """Certified graded degrees, or [None] for ungraded comparison.

    A degree is certified when, for every achievable differential weight
    shift, the monomial piece it needs does not grow if the window is
    enlarged by one (so the window already holds all of it).
    """
    if not A.is_homogeneous() or not A.generators:
        if not A.generators:
            return [0]
        return [None]
    probe = level0_complex(A, D)
    counts_E = {}
    for xe in probe._x_monomials(A.E):
        counts_E[probe.degree(xe)] = counts_E.get(probe.degree(xe), 0) + 1
    counts_E1 = {}
    for xe in probe._x_monomials(A.E + 1):
        counts_E1[probe.degree(xe)] = counts_E1.get(probe.degree(xe), 0) + 1

    def clipped(d):
        return counts_E.get(d, 0) != counts_E1.get(d, 0)

    weights = [g.weight for g in A.generators
               if g.name not in A.witness]
    # each generator contributes its differential at most once to a wedge,
    # so the possible degree shifts are the subset sums of the weights
    shifts = {0}
    for w in weights:
        shifts |= {s + w for s in shifts}
    certified = []
    for g in sorted(counts_E):
        if all(not clipped(g - s) for s in shifts):
            certified.append(g)
    return certified


# -- checks -------------------------------------------------------------------


def _no_certified_cells(name, A: Presentation, details) -> CheckReport:
    """The inconclusive report of a check whose cell set is empty."""
    return CheckReport(name, True, inconclusive=True,
                       witness=f"no certified graded cells at window E={A.E}",
                       details=dict(details, cells=0))


def _check_level(m: int, D: int):
    """The levels the checks take: 0 <= m <= 3, and D >= 1 at m >= 1."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > 3:
        raise ValueError("m above 3 is not certified (cost control)")
    if m >= 1 and D < 1:
        raise ValueError("D must be >= 1: the interval variables need degree 1")


def poincare_check(A: Presentation, m: int, D: int) -> CheckReport:
    """Adjoining interval variables does not change cohomology.

    The level-m complex is the Koszul tensor product of the level-0 complex
    with the point's level-m complex: its q-forms are the pairs of a level-0
    q0-form and a point (q - q0)-form, and
    d_m = d_0 (x) 1 + (-1)^|J| 1 (x) d_T, where |J| = q0 is the degree of the
    level-0 form.  With no elimination and no level-m matrix product, the
    check certifies:

    - once, on the point's complex: d_T d_T = 0 and the contraction
      kappa_T d_T + d_T kappa_T = id - P_T, P_T the projection onto the
      form 1 (``verify_contraction``);
    - per certified graded cell: d_0 d_0 = 0, that the level-m forms are
      exactly the pairs, and that every row of the level-m ``dmat`` equals
      that row of the tensor assembly.

    The rest is algebra.  d_m d_m = 0, as the Koszul sign makes the cross
    terms cancel.  kappa = (-1)^|J| 1 (x) kappa_T gives
    kappa d_m + d_m kappa = 1 (x) (id - P_T) = id - P, so the level-m complex
    retracts onto the image of P, the forms b (x) 1.  On them
    d_m(b (x) 1) = d_0 b (x) 1, since d_T(1) = 0 (P_T commutes with d_T, and
    the point has no interval-free 1-forms).  So the image of P is the
    level-0 complex, and the divisors agree in every degree (and vanish
    above level 0's top degree).
    """
    _check_level(m, D)
    name = f"poincare-{A.name}-m{m}"
    cells = graded_cells(A, D)
    if not cells:
        return _no_certified_cells(name, A, {"m": m})
    point = DeRhamComplex(catalog("point", A.ring), m, D)
    point.assert_complex()
    contraction = point.verify_contraction()
    if not contraction.passed:
        return merge_reports(name, [contraction])
    col = DeRhamComplex(A, m, D)
    base = level0_complex(A, D)
    reports = []
    for g in cells:
        base.assert_complex(g)
        mismatch = _tensor_mismatch(col, base, point, g)
        if mismatch is not None:
            witness, q = mismatch
            reports.append(CheckReport(
                "poincare-identification", False,
                witness=f"{witness} (level {m}, graded {g})",
                details={"q": q, "graded": g}))
            return merge_reports(name, reports)
        # the point's contraction, carried to this cell by the factorization
        reports.append(CheckReport("poincare-contraction", True,
                                   details={"graded": g}))
    reports.append(CheckReport("poincare-identification", True,
                               details={"cells": len(cells), "m": m}))
    return merge_reports(name, reports)


def _tensor_mismatch(col: DeRhamComplex, base: DeRhamComplex,
                     point: DeRhamComplex, g):
    """Where cell g of ``col`` is not base (x) point, as (witness, q), or None.

    The bases first, in every form degree: each level-m form (xe, te, J, K)
    is exactly one pair of a level-0 form (xe, J) and a point form (te, K).
    Then the rows: d of a pair is d_0 of its level-0 form with the point
    form kept, plus (-1)^|J| times d_T of its point form with the level-0
    form kept.
    """
    mod = col.spec.ring.modulus
    top = col.max_form_degree()
    index = []
    for q in range(top + 2):
        index.append({b: k for k, b in enumerate(col.basis(q, g))})
        rows = [index[q].get((b.xe, t.te, b.J, t.K))
                for q0 in range(q + 1) for b in base.basis(q0, g)
                for t in point.basis(q - q0)]
        if None in rows or len(rows) != len(index[q]) or \
                len(set(rows)) != len(rows):
            free = [b._replace(te=()) for b in col.basis(q, g)
                    if _interval_free(b)]
            if free != sorted(base.basis(q, g)):
                return (f"the interval-free {q}-forms are not level 0's "
                        f"basis"), q
            return (f"the {q}-forms are not the pairs of a level-0 form and "
                    f"a point form"), q
    for q in range(top + 1):
        got = col.dmat(q, g)._rows
        want = [None] * len(got)
        here, there = index[q], index[q + 1]
        for q0 in range(q + 1):
            sign = -1 if q0 % 2 else 1
            base_tgt = base.basis(q0 + 1, g)
            point_src = point.basis(q - q0)
            point_tgt = point.basis(q - q0 + 1)
            point_rows = point.dmat(q - q0)._rows
            for b, row0 in zip(base.basis(q0, g), base.dmat(q0, g)._rows):
                d0 = [(base_tgt[j], v) for j, v in row0.items()]
                for t, row_t in zip(point_src, point_rows):
                    row = {there[(c.xe, t.te, c.J, t.K)]: v for c, v in d0}
                    for j, v in row_t.items():
                        u = point_tgt[j]
                        row[there[(b.xe, u.te, b.J, u.K)]] = sign * v % mod
                    want[here[(b.xe, t.te, b.J, t.K)]] = row
        if want != got:
            b = next(b for b, w, r in zip(col.basis(q, g), want, got)
                     if w != r)
            if _interval_free(b):
                return f"d on the interval-free {q}-forms is not level 0's", q
            return f"d on {b} is not d_0 (x) 1 + (-1)^|J| 1 (x) d_T", q
    return None


def base_change_check(A: Presentation, m: int, D: int) -> CheckReport:
    """The mod-p identification: the level-m complex over Z/p^N reduces mod
    p to the same complex built over Z/p, basis for basis.  It takes the
    levels that ``poincare_check`` takes."""
    _check_level(m, D)
    name = f"base-change-{A.name}-m{m}"
    cx = DeRhamComplex(A, m, D)
    small = DeRhamComplex(A.at_precision(1), m, D)
    p = A.ring.p
    for q in range(cx.max_form_degree() + 1):
        if cx.basis(q) != small.basis(q):
            return merge_reports(name, [
                CheckReport("mod-p-identification", False,
                            witness=f"basis mismatch in form degree {q}")])
        got = [{j: v % p for j, v in row.items() if v % p}
               for row in cx.dmat(q)._rows]
        want = small.dmat(q)._rows
        if got != want:
            return merge_reports(name, [
                CheckReport("mod-p-identification", False,
                            witness=f"differential mismatch mod p in degree {q}",
                            details={"q": q})])
    return merge_reports(name, [
        CheckReport("mod-p-identification", True, details={"m": m})])

