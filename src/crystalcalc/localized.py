"""Zariski localizations of the affine line and their Cech descent.

Inverting monic linear factors x - c_i gives a partial-fraction basis

    { x^k : 0 <= k <= E }  u  { (x - c_i)^(-j) : 1 <= j <= E }

on which both the de Rham differential and the restriction maps between
localizations act by pure label bookkeeping; no ring multiplication is
needed, so the windowed Cech double complex is exact combinatorics.  The
form-degree-one window is staggered (polynomials to E-1, poles to E) so the
differential never truncates.
"""

from itertools import combinations

from .errors import NotACover
from .linalg import Matrix, complex_cohomology
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

    # indexing of the total complex: blocks (q, S)
    def tot_blocks(n):
        out = []
        for ell in range(r):
            q = n - ell
            if q in (0, 1):
                for S in combinations(range(r), ell + 1):
                    out.append((q, S))
        return out

    def block_offsets(blocks):
        offsets = {}
        total = 0
        for blk in blocks:
            q, S = blk
            offsets[blk] = total
            total += len(charts[S].basis(q))
        return offsets, total

    def tot_matrix(n):
        src = tot_blocks(n)
        tgt = tot_blocks(n + 1)
        src_off, src_dim = block_offsets(src)
        tgt_off, tgt_dim = block_offsets(tgt)
        entries = {}
        for (q, S) in src:
            chart = charts[S]
            base = src_off[(q, S)]
            labels = chart.basis(q)
            index_here = {lab: k for k, lab in enumerate(labels)}
            # de Rham part
            if (q + 1, S) in tgt_off:
                t_labels = {lab: k for k, lab in
                            enumerate(charts[S].basis(q + 1))}
                off = tgt_off[(q + 1, S)]
                for k, lab in enumerate(labels):
                    for t_lab, c in chart.d_entries(lab).items():
                        entries[(base + k, off + t_labels[t_lab])] = \
                            c % ring.modulus
            # Cech part, with the sign (-1)^q folded in
            for j in range(r):
                if j in S:
                    continue
                T = tuple(sorted(S + (j,)))
                if (q, T) not in tgt_off:
                    continue
                pos = T.index(j)
                sign = (-1) ** (pos + q)
                off = tgt_off[(q, T)]
                t_chart = charts[T]
                t_labels = {lab: k for k, lab in enumerate(t_chart.basis(q))}
                root_map = {c_: t_chart.roots.index(c_)
                            for c_ in charts[S].roots}
                for k, lab in enumerate(labels):
                    if lab[0] == "poly":
                        t_lab = lab
                    else:
                        t_lab = ("pole", root_map[charts[S].roots[lab[1]]],
                                 lab[2])
                    entries[(base + k, off + t_labels[t_lab])] = sign % ring.modulus
        return Matrix(ring, src_dim, tgt_dim, entries), src, src_off

    # reference: the uncovered line with the same windows
    plain = LocalizedLine(ring, E, ())

    def plain_matrix(q):
        src = plain.basis(q)
        tgt = {lab: k for k, lab in enumerate(plain.basis(q + 1))}
        if q >= 1:
            return Matrix.zero(ring, len(src), 0)
        entries = {}
        for k, lab in enumerate(src):
            for t_lab, c in plain.d_entries(lab).items():
                entries[(k, tgt[t_lab])] = c % ring.modulus
        return Matrix(ring, len(src), len(tgt), entries)

    reports = []
    for degree in (0, 1):
        d_out, _, _ = tot_matrix(degree)
        if degree == 0:
            d_in = Matrix.zero(ring, 0, d_out.nrows)
        else:
            d_in, _, _ = tot_matrix(degree - 1)
        got = complex_cohomology(d_in, d_out)
        want_out = plain_matrix(degree)
        want_in = plain_matrix(degree - 1) if degree else \
            Matrix.zero(ring, 0, want_out.nrows)
        want = complex_cohomology(want_in, want_out)
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
