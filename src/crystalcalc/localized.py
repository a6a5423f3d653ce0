"""Zariski localizations of the affine line and their Cech descent.

Inverting monic linear factors x - c_i gives a partial-fraction basis

    { x^k : 0 <= k <= E }  u  { (x - c_i)^(-j) : 1 <= j <= E }

on which both the de Rham differential and the restriction maps between
localizations act by pure label bookkeeping; no ring multiplication is
needed, so the windowed Cech double complex is exact combinatorics.  The
form-degree-one window is staggered (polynomials to E-1, poles to E) so the
differential never truncates.

The labels are a basis of the localization only when the roots differ by
units: for c_i = c_j mod p the pole labels of c_j expand in those of c_i,
so such a cover is reported inconclusive.  ``LocalizedLine.dmat`` and
``LocalizedLine.restriction`` are the pieces of the cover's total complex,
and ``linalg.block_matrix`` lays them out.
"""

from itertools import combinations

from .errors import NotACover
from .linalg import Matrix, block_matrix, complex_cohomology
from .reports import CheckReport, merge_reports
from .ring import ZpN


class LocalizedLine:
    """R[x] with the linear factors x - c (c in roots) inverted."""

    def __init__(self, ring: ZpN, E: int, roots=()):
        self.ring = ring
        self.E = E
        self.roots = tuple(roots)

    def basis(self, q):
        """Degree-q forms; q = 0 are functions, q = 1 multiples of dx."""
        if q == 0:
            out = [("poly", k) for k in range(self.E + 1)]
            out += [("pole", i, j) for i in range(len(self.roots))
                    for j in range(1, self.E)]
            return out
        if q == 1:
            out = [("poly", k) for k in range(self.E)]
            out += [("pole", i, j) for i in range(len(self.roots))
                    for j in range(1, self.E + 1)]
            return out
        return []

    def d_entries(self, label):
        """d(x^k) = k x^(k-1) dx;  d((x-c)^-j) = -j (x-c)^(-j-1) dx."""
        if label[0] == "poly":
            k = label[1]
            if k == 0:
                return {}
            return {("poly", k - 1): k}
        _, i, j = label
        return {("pole", i, j + 1): -j}

    def dmat(self, q) -> Matrix:
        """d on q-forms; 1-forms are closed on the line.

        Coefficients that vanish mod p^N, such as that of d(x^4) mod 4, are
        not stored.
        """
        mod = self.ring.modulus
        index = {lab: k for k, lab in enumerate(self.basis(q + 1))}
        rows = []
        for lab in self.basis(q):
            row = {}
            if q == 0:
                for t_lab, c in self.d_entries(lab).items():
                    if c % mod:
                        row[index[t_lab]] = c % mod
            rows.append(row)
        return Matrix._trusted(self.ring, rows, len(index))

    def restriction(self, q, finer) -> Matrix:
        """Restriction of q-forms to ``finer``, which inverts more roots.

        Every label goes to the same label there, a pole renumbered by its
        root's position among ``finer.roots``.
        """
        index = {lab: k for k, lab in enumerate(finer.basis(q))}
        position = [finer.roots.index(c) for c in self.roots]
        rows = []
        for lab in self.basis(q):
            if lab[0] == "pole":
                lab = ("pole", position[lab[1]], lab[2])
            rows.append({index[lab]: 1})
        return Matrix._trusted(self.ring, rows, len(index))


def cech_descent_check(ring: ZpN, E: int, cover_elements) -> CheckReport:
    """Descent along a Zariski localization cover of the affine line.

    ``cover_elements`` are linear polynomials in x, given as coefficient
    dicts {exponent: coefficient}.  The cover is faithfully flat when the
    elements generate the unit ideal mod p; the check takes the total
    complex of the Cech double complex of windowed de Rham complexes and
    compares its cohomology in degrees 0 and 1 with the uncovered line.
    """
    name = "cech-descent"
    p = ring.p
    roots = []
    has_unit = False
    for elt in cover_elements:
        poly = {k if isinstance(k, int) else k[0]: c % ring.modulus
                for k, c in elt.items()}
        deg1 = poly.get(1, 0)
        deg0 = poly.get(0, 0)
        if any(k > 1 for k in poly if poly[k]):
            raise NotACover("only linear localizing elements are supported",
                            witness=elt)
        if deg1 % p == 0:
            if deg1 % ring.modulus:
                raise NotACover("leading coefficient must be a unit or zero",
                                witness=elt)
            if deg0 % p:
                has_unit = True
                roots.append(None)  # localizing at a unit is a no-op
                continue
            raise NotACover("element vanishes identically mod p", witness=elt)
        # normalize to monic: root of x - c
        c = (-deg0 * ring.unit_inverse(deg1)) % ring.modulus
        roots.append(c)
    # a repeated chart adds nothing to the cover: one chart per distinct
    # root, and at most one for all unit elements
    roots = list(dict.fromkeys(roots))
    real_roots = [c for c in roots if c is not None]
    if len(real_roots) > 3:
        raise NotACover("covers of size above 3 are not certified",
                        witness=cover_elements)
    if not has_unit:
        distinct = any((a - b) % p for a, b in combinations(real_roots, 2))
        if not distinct:
            return CheckReport(name, False,
                               witness="localizing elements share their zero "
                                       "locus mod p (not a cover)",
                               details={"roots": real_roots})
    for a, b in combinations(sorted(set(real_roots)), 2):
        if (a - b) % p == 0:
            # then x - a and x - b generate a proper ideal, and the
            # partial-fraction labels of a chart with both are dependent
            return CheckReport(name, True, inconclusive=True,
                               witness=f"roots {a} and {b} agree mod {p}: "
                                       "the chart model is not the localization",
                               details={"roots": [a, b]})
    if E < 1:
        # the comparison would run on polynomials alone and certify nothing
        return CheckReport(name, True, inconclusive=True,
                           witness=f"window E={E} holds no pole term of any chart",
                           details={"E": E})

    r = len(roots)
    charts = {}
    for size in range(1, r + 1):
        for S in combinations(range(r), size):
            chart_roots = sorted({roots[i] for i in S if roots[i] is not None})
            charts[S] = LocalizedLine(ring, E, chart_roots)

    # Tot^n holds the q-forms on the intersections of ell + 1 charts,
    # q + ell = n; the Cech part carries the sign (-1)^(pos + q)
    def tot_blocks(n):
        out = []
        for ell in range(r):
            q = n - ell
            if q in (0, 1):
                out += [((q, S), len(charts[S].basis(q)))
                        for S in combinations(range(r), ell + 1)]
        return out

    def tot_matrix(n):
        src, tgt = tot_blocks(n), tot_blocks(n + 1)
        targets = dict(tgt)
        pieces = []
        for (q, S), _dim in src:
            if (q + 1, S) in targets:
                pieces.append(((q, S), (q + 1, S), charts[S].dmat(q), 1))
            for j in range(r):
                T = tuple(sorted(S + (j,)))
                if j not in S and (q, T) in targets:
                    pieces.append(((q, S), (q, T),
                                   charts[S].restriction(q, charts[T]),
                                   (-1) ** (T.index(j) + q)))
        return block_matrix(ring, src, tgt, pieces)

    # reference: the uncovered line with the same windows
    plain = LocalizedLine(ring, E, ())
    tot = {n: tot_matrix(n) for n in (-1, 0, 1)}
    reports = []
    for degree in (0, 1):
        got = complex_cohomology(tot[degree - 1], tot[degree])
        want = complex_cohomology(plain.dmat(degree - 1), plain.dmat(degree))
        if got != want:
            return merge_reports(name, reports + [CheckReport(
                "cech-degree", False,
                witness=f"H^{degree}: {got} != {want}",
                details={"degree": degree,
                         "got": list(got.exponents),
                         "want": list(want.exponents)})])
        reports.append(CheckReport(f"cech-degree-{degree}", True,
                                   details={"divisors": list(got.exponents)}))
    return merge_reports(name, reports)
