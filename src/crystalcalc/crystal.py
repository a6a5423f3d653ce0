"""The simplicial de Rham double complex and its totalization.

Column m is the divided-power de Rham complex of the base algebra with m
interval variables adjoined; the horizontal differential is the alternating
sum of the face maps, which lower the column index.  The total complex in
degree i collects the form-degree q = i + m pieces of every column; its
differential is  d_total = d_vertical + (-1)^q d_horizontal, and the
cochain inclusion of column 0 realizes the comparison from plain de Rham
cohomology.

Cohomology is taken on the normalized part of each column (the joint kernel
of the faces 1..m, on which the alternating face sum collapses to the
zeroth face).  Brutal truncation of the full alternating-sum complex leaks
the top column's classes into every lower total degree when M is odd - the
column has no incoming differential left to cancel it - whereas the
normalized part of a column whose faces restrict to isomorphisms on
cohomology is acyclic, so the truncated normalized totalization stabilizes
already between M = 1 and M = 2.  Degrees up to M-1 are certified and the
stabilization check guards the boundary.

The normalized rows N of Tot^i span exactly {y : y*F = 0}, where F puts
the faces 1..m of each block (m, q) side by side (column 0 has none).  So
the normalized cocycles need no change of coordinates:

    span(N) meet ker d  =  {y : y*d = 0 and y*F = 0}  =  left kernel of [d | F],

one elimination in Tot^i coordinates whose Howell form is the same as that
of the rows x*N with x*(N*d) = 0.

The faces act on the interval forms T^[e] dT_K alone, through the interval
tower's ``LevelTower.form_image``: a face matrix only places each image
next to the form's x^a dx_J.  So every face-side matrix of a graded cell
(faces, their alternating sums, normalized rows) is built once per cell
layout - the cell's (x-monomial rank, dx_J) pairs - and shared by the cells
that have that layout.

Tot^i, N and [d | F] are named pieces on the blocks (m, q) of Tot^i (and
(m, q, i) for the i-th face of a block); ``linalg.block_matrix`` lays them
out, so no offset is computed here.

Cells with one layout often have isomorphic double complexes, and then
share one Tot elimination.  Let S scale each level-0 form x^a dx_J of cell
g by a unit s(a, J), with d_0(g) S = S d_0(g0) for an earlier cell g0 of
the layout (forms matched through the layout pairs).  Column m is the
level-0 complex tensored with the point's, d_m = d_0 (x) 1 + (-1)^|J|
1 (x) d_T, so S (x) 1 - x^a T^[b] dx_J dT_K scaled by s(a, J) - commutes
with d_m: with d_0 (x) 1 through S, and with 1 (x) d_T because d_T keeps
x^a dx_J.  The faces act on T and dT alone, so they join forms of one
(x^a, J) and commute with S (x) 1 too, and so do their sums and the
normalized rows, which are one matrix per layout.  S (x) 1 is then an
isomorphism of the normalized totalizations of g0 and g at every
truncation, and the two cells have one cohomology in every degree.

None of this is assumed: the scaling is proposed on level 0 and certified
on the matrices that the elimination reads - every ``dmat`` of every
column of g against S times g0's, entry by entry, and every face entry of
the layout joining one (x^a, J).  A failed certificate only means that g
is eliminated on its own.
"""

from dataclasses import dataclass, field

from .derham import (DeRhamComplex, graded_cells,
                     level0_complex, _no_certified_cells)
from .errors import CatalogMismatch, SignConventionViolation
from .linalg import (ElementaryDivisors, Matrix, _kernel_pivots, _subquotient,
                     block_matrix, kernel)
from .reports import CheckReport, merge_reports
# faces go through the tower's ``form_image``; the name stays importable
# here, where the tracer test of ``perfbench`` reads it
from .series import pd_substitute  # noqa: F401
from .simplicial import LevelTower, SimplexMap
from .smoothlift import Presentation


class DoubleComplex:
    """Columns 0..M of interval de Rham complexes with face maps.

    Faces, horizontal maps and normalized parts depend on the graded cell g
    only through its ``layout``: a basis sorts by its x-monomial first, and
    the faces act on the interval variables T and dT alone, fixing x^a and
    dx_J.  So they are cached per (m, q, layout), once for all the cells
    that share a layout, and so is the Moore check (per M as well).  These
    caches are shared with the views that ``truncated`` hands out; the
    totalization depends on M and g and keeps a cache of its own.

    Each graded cell has a ``representative``: an earlier cell of its
    layout whose normalized totalization is isomorphic to the cell's through
    a certified unit scaling S (x) 1 of the forms (see the module notes), or
    the cell itself when no earlier cell is certified.  Only representatives
    are eliminated.  The classes are certified on all columns of the
    complex built here, so the views, which keep fewer columns, read them.
    """

    def __init__(self, A: Presentation, M: int, D: int):
        if M > 3:
            raise ValueError("column truncation above 3 is not certified")
        if M >= 1 and D < 1:
            raise ValueError(
                "D must be >= 1: the interval variables need degree 1")
        self.A = A
        self.M = M
        self.D = D
        self.columns = [DeRhamComplex(A, m, D) for m in range(M + 1)]
        self.tower = LevelTower(A.ring, D, geom=A.generators, E=A.E,
                                divided=True, variant="interval")
        self._ranks = {}
        self._layouts = {}
        self._hmat_cache = {}
        self._tot_cache = {}
        self._full = None  # set on views: the complex that certifies classes
        self._classes = {}  # g -> (representative, unit scaling or None)
        self._representatives = {}  # layout -> its representatives in order

    def truncated(self, M):
        """The same double complex cut at column M <= self.M."""
        view = object.__new__(DoubleComplex)
        view.__dict__.update(self.__dict__)
        view.M = M
        view.columns = self.columns[:M + 1]
        view._tot_cache = {}
        view._full = self._full or self
        return view

    # -- face maps on forms ------------------------------------------------

    def layout(self, g=None):
        """The sorted pairs (rank of x^a among the cell's x-monomials, J).

        Every basis of the cell is {x^a T^[e] dx_J dT_K} over these pairs,
        sorted with x^a first, and the faces fix x^a and dx_J; so the faces,
        horizontal sums and normalized rows of two cells with one layout are
        the same matrices.  g = None covers the whole window.
        """
        if g not in self._layouts:
            col = self.columns[0]
            pairs = [(b.xe, b.J) for q in range(col.max_form_degree() + 1)
                     for b in col.basis(q, g)]
            rank = {xe: r for r, xe in enumerate(sorted({xe for xe, _ in pairs}))}
            self._ranks[g] = rank
            self._layouts[g] = tuple(sorted((rank[xe], J) for xe, J in pairs))
        return self._layouts[g]

    def _pair(self, b, g):
        """The layout pair (rank of x^a, J) of a basis form of cell g."""
        self.layout(g)
        return self._ranks[g][b.xe], b.J

    def face_matrix(self, m, i, q, g=None) -> Matrix:
        """The i-th face on q-forms, column m to column m-1."""
        key = ("f", m, i, q, self.layout(g))
        if key not in self._hmat_cache:
            self._hmat_cache[key] = self._build_face_matrix(m, i, q, g)
        return self._hmat_cache[key]

    def _build_face_matrix(self, m, i, q, g):
        """Row by row, x^a T^[e] dx_J dT_K goes to x^a dx_J times the tower's
        ``form_image`` of T^[e] dT_K.  That image has no x and x^a is normal,
        so each term is a form in normal form, or outside the D cap."""
        index = {b: k for k, b in enumerate(self.columns[m - 1].basis(q, g))}
        sigma = SimplexMap.coface(m, i)
        rows = []
        for xe, te, J, K in self.columns[m].basis(q, g):
            row = {}
            for (te2, K2), c in self.tower.form_image(sigma, te, K).items():
                k = index.get((xe, te2, J, K2))
                if k is not None:
                    row[k] = c
            rows.append(row)
        return Matrix._trusted(self.A.ring, rows, len(index))

    def horizontal(self, m, q, g=None) -> Matrix:
        """Alternating sum of the faces, column m to column m-1."""
        key = ("h", m, q, self.layout(g))
        if key not in self._hmat_cache:
            acc = self.face_matrix(m, 0, q, g)
            for i in range(1, m + 1):
                term = self.face_matrix(m, i, q, g)
                acc = acc.add(term.scale(-1) if i % 2 else term)
            self._hmat_cache[key] = acc
        return self._hmat_cache[key]

    def verify_moore(self, g=None) -> CheckReport:
        """The alternating face sums square to zero in every form degree.

        The outcome is kept per (M, layout), since cells that share a layout
        share the sums; each cell reports it under its own g.
        """
        key = ("moore", self.M, self.layout(g))
        if key not in self._hmat_cache:
            self._hmat_cache[key] = next(
                ((m, q) for m in range(2, self.M + 1)
                 for q in range(self.columns[m].max_form_degree() + 1)
                 if not self.horizontal(m, q, g).mul(
                     self.horizontal(m - 1, q, g)).is_zero()), None)
        bad = self._hmat_cache[key]
        if bad is not None:
            return CheckReport("moore-property", False,
                               witness=f"column {bad[0]}, form degree {bad[1]}, "
                                       f"graded {g}",
                               details={"graded": g})
        return CheckReport("moore-property", True,
                           details={"M": self.M, "graded": g})

    def verify_squares(self, g=None) -> CheckReport:
        """Horizontal and vertical differentials commute."""
        for m in range(1, self.M + 1):
            for q in range(self.columns[m].max_form_degree() + 1):
                lhs = self.horizontal(m, q, g).mul(self.columns[m - 1].dmat(q, g))
                rhs = self.columns[m].dmat(q, g).mul(self.horizontal(m, q + 1, g))
                if lhs != rhs:
                    return CheckReport("commuting-squares", False,
                                       witness=f"column {m}, form degree {q}",
                                       details={"graded": g})
        return CheckReport("commuting-squares", True,
                           details={"M": self.M, "graded": g})

    # -- cells with isomorphic totalizations ---------------------------------

    def representative(self, g=None):
        """(g0, s): the cell whose elimination serves g, and the certified
        unit scaling of the layout pairs that carries g0's complex to g's
        (None when g0 is g itself).

        The candidates are the earlier representatives of g's layout, in
        order; the first whose proposed scaling is certified is taken.  A
        cell with no certified candidate becomes a representative.
        """
        full = self._full or self
        if g not in full._classes:
            reps = full._representatives.setdefault(full.layout(g), [])
            for g0 in reps:
                s = full._unit_scaling(g, g0)
                if s is not None and full._intertwines(g, g0, s):
                    full._classes[g] = (g0, s)
                    break
            else:
                reps.append(g)
                full._classes[g] = (g, None)
        return full._classes[g]

    def _unit_scaling(self, g, g0):
        """A proposed s with d_0(g) S = S d_0(g0) on level 0, or None.

        Walks the level-0 differentials of the two cells row by row: they
        must have one support and, entry by entry, one valuation.  An entry
        p^e u of g against p^e u0 of g0 asks s(column) = s(row) u0 / u; the
        first entry that reaches a pair assigns it, and a pair that no
        assigned pair reaches starts at 1.
        """
        col = self.columns[0]
        ring = self.A.ring
        mod = ring.modulus
        s = {}
        for q in range(col.max_form_degree() + 1):
            src, tgt = col.basis(q, g), col.basis(q + 1, g)
            for b, row, row0 in zip(src, col.dmat(q, g)._rows,
                                    col.dmat(q, g0)._rows):
                if row.keys() != row0.keys():
                    return None
                here = self._pair(b, g)
                for c, v in row.items():
                    e = ring.val(v)
                    if ring.val(row0[c]) != e:
                        return None
                    ratio = row0[c] // ring.p ** e * \
                        ring.unit_inverse(v // ring.p ** e) % mod
                    there = self._pair(tgt[c], g)
                    if here not in s:
                        s[here] = s[there] * ring.unit_inverse(ratio) % mod \
                            if there in s else 1
                    s.setdefault(there, s[here] * ratio % mod)
        return s

    def _intertwines(self, g, g0, s):
        """The certificate: d_m(q, g) S = S d_m(q, g0) for every column m
        and form degree q, S scaling each form by s of its layout pair, and
        the faces join forms of one pair (so they commute with S).  S must
        be a unit on every pair to be an isomorphism."""
        ring = self.A.ring
        if any(v % ring.p == 0 for v in s.values()):
            return False
        mod = ring.modulus
        for col in self.columns:
            scale = [[s.get(self._pair(b, g), 1) for b in col.basis(q, g)]
                     for q in range(col.max_form_degree() + 2)]
            for q in range(col.max_form_degree() + 1):
                here, there = scale[q], scale[q + 1]
                for r, (row, row0) in enumerate(zip(col.dmat(q, g)._rows,
                                                    col.dmat(q, g0)._rows)):
                    if {c: v * there[c] % mod for c, v in row.items()} != \
                            {c: here[r] * v % mod for c, v in row0.items()}:
                        return False
        return self._faces_fix_pairs(g)

    def _faces_fix_pairs(self, g):
        """Every face entry joins two forms of one (x^a, J); kept per
        (M, layout), as the faces are."""
        key = ("pairs", self.M, self.layout(g))
        if key not in self._hmat_cache:
            self._hmat_cache[key] = all(
                (src[r].xe, src[r].J) == (tgt[c].xe, tgt[c].J)
                for m in range(1, self.M + 1)
                for q in range(self.columns[m].max_form_degree() + 1)
                for src, tgt in [(self.columns[m].basis(q, g),
                                  self.columns[m - 1].basis(q, g))]
                for i in range(m + 1)
                for r, row in enumerate(self.face_matrix(m, i, q, g)._rows)
                for c in row)
        return self._hmat_cache[key]

    # -- totalization ------------------------------------------------------

    def tot_blocks(self, i):
        out = []
        for m in range(self.M + 1):
            q = i + m
            if 0 <= q <= self.columns[m].max_form_degree():
                out.append((m, q))
        return out

    def _blocks(self, i, g):
        """The blocks of Tot^i as (key (m, q), dimension) pairs."""
        return [((m, q), len(self.columns[m].basis(q, g)))
                for m, q in self.tot_blocks(i)]

    def _tot_pieces(self, i, g):
        """The pieces d and (-1)^q * horizontal of d_total on Tot^i."""
        tgt = set(self.tot_blocks(i + 1))
        pieces = []
        for m, q in self.tot_blocks(i):
            if (m, q + 1) in tgt:
                pieces.append(((m, q), (m, q + 1), self.columns[m].dmat(q, g), 1))
            if m >= 1 and (m - 1, q) in tgt:
                pieces.append(((m, q), (m - 1, q), self.horizontal(m, q, g),
                               -1 if q % 2 else 1))
        return pieces

    def tot_matrix(self, i, g=None) -> Matrix:
        key = ("d", i, g)
        if key not in self._tot_cache:
            self._tot_cache[key] = block_matrix(
                self.A.ring, self._blocks(i, g), self._blocks(i + 1, g),
                self._tot_pieces(i, g))
        return self._tot_cache[key]

    def assert_total_complex(self, g=None, degrees=None):
        degrees = degrees if degrees is not None else \
            range(-self.M, self.columns[0].max_form_degree() + 1)
        for i in degrees:
            comp = self.tot_matrix(i, g).mul(self.tot_matrix(i + 1, g))
            if not comp.is_zero():
                raise SignConventionViolation(
                    f"total differential does not square to zero at degree {i}",
                    witness=(i, g))
        return True

    # -- normalized part ----------------------------------------------------

    def _face_blocks(self, m, q, g):
        """Faces 1..m of column m on q-forms, each in a block column (m, q, i).

        Returns the column blocks and the pieces on the row block (m, q); the
        left kernel of the faces side by side is the normalized part.
        """
        tdim = len(self.columns[m - 1].basis(q, g))
        cols = [((m, q, i), tdim) for i in range(1, m + 1)]
        pieces = [((m, q), (m, q, i), self.face_matrix(m, i, q, g), 1)
                  for i in range(1, m + 1)]
        return cols, pieces

    def normalized_rows(self, m, q, g=None) -> Matrix:
        """Howell rows spanning the joint kernel of faces 1..m on q-forms."""
        key = ("n", m, q, self.layout(g))
        if key not in self._hmat_cache:
            dim = len(self.columns[m].basis(q, g))
            if m == 0:
                self._hmat_cache[key] = Matrix.identity(self.A.ring, dim)
            else:
                cols, pieces = self._face_blocks(m, q, g)
                self._hmat_cache[key] = kernel(block_matrix(
                    self.A.ring, [((m, q), dim)], cols, pieces))
        return self._hmat_cache[key]

    def normalized_tot_rows(self, i, g=None) -> Matrix:
        """The normalized subspace of Tot^i, as rows over the block sum."""
        blocks = self._blocks(i, g)
        normalized = {key: self.normalized_rows(*key, g) for key, _ in blocks}
        return block_matrix(
            self.A.ring, [(key, N.nrows) for key, N in normalized.items()],
            blocks, [(key, key, N, 1) for key, N in normalized.items()])

    def normalized_cocycle_matrix(self, i, g=None) -> Matrix:
        """[d_i | F_i]: its left kernel is the normalized cocycles of Tot^i.

        F_i puts the faces 1..m of each block (m, q) of Tot^i in block
        columns of their own, right of the differential; column-0 blocks
        have no faces and no columns there.
        """
        blocks = self._blocks(i, g)
        cols = self._blocks(i + 1, g)
        pieces = self._tot_pieces(i, g)
        for (m, q), _dim in blocks:
            if m:
                face_cols, face_pieces = self._face_blocks(m, q, g)
                cols += face_cols
                pieces += face_pieces
        return block_matrix(self.A.ring, blocks, cols, pieces)

    def total_cohomology(self, i, g=None) -> ElementaryDivisors:
        """Cohomology of the normalized truncated totalization at degree i.

        The divisors are those of g's ``representative``, eliminated once
        per truncation.
        """
        return self._eliminate(i, self.representative(g)[0])

    def _eliminate(self, i, g):
        """The divisors of Tot^i of cell g, by elimination, kept per (i, g).

        The cocycles come as the Howell pivots of one left kernel in Tot^i
        coordinates; ``_subquotient`` certifies that every normalized
        boundary lies in their span.
        """
        key = (i, g)
        if key not in self._tot_cache:
            cocycles = _kernel_pivots(self.normalized_cocycle_matrix(i, g))
            im_rows = self.normalized_tot_rows(i - 1, g).mul(
                self.tot_matrix(i - 1, g))
            self._tot_cache[key] = _subquotient(cocycles, im_rows)
        return self._tot_cache[key]

    def augmentation_is_chain_map(self, g=None) -> CheckReport:
        """Column 0 includes as a subcochain complex of the totalization.

        Column 0 is the first block of Tot^q, so its rows of d_total must be
        column 0's d in the block (0, q+1) and zero everywhere else.
        """
        for q in range(self.columns[0].max_form_degree() + 1):
            if (0, q) not in self.tot_blocks(q):
                continue
            dim = len(self.columns[0].basis(q, g))
            tgt = self._blocks(q + 1, g)
            pieces = [((0, q), (0, q + 1), self.columns[0].dmat(q, g), 1)] \
                if (0, q + 1) in dict(tgt) else []
            want = block_matrix(self.A.ring, [((0, q), dim)], tgt, pieces)
            if self.tot_matrix(q, g)._rows[:dim] != want._rows:
                return CheckReport(
                    "augmentation-chain-map", False,
                    witness=f"column 0 rows of the total differential differ "
                            f"from d at q={q}")
        return CheckReport("augmentation-chain-map", True, details={"graded": g})


@dataclass
class CohomologyReport:
    """Per total degree and graded degree, the elementary divisors."""

    algebra: str
    pipeline: str
    p: int
    N: int
    D: int
    E: int
    M: int
    seed: int = 0
    cells: dict = field(default_factory=dict)  # (i, g) -> ElementaryDivisors
    notes: tuple = ()

    def lines(self):
        out = [f"algebra: {self.algebra}",
               f"pipeline: {self.pipeline}",
               f"p: {self.p}", f"N: {self.N}", f"D: {self.D}",
               f"E: {self.E}", f"M: {self.M}", f"seed: {self.seed}",
               "completion: implicit mod p^N"]
        for note in self.notes:
            out.append(f"note: {note}")
        for (i, g) in sorted(self.cells, key=lambda t: (t[0], _gkey(t[1]))):
            divs = self.cells[(i, g)]
            gtxt = "all" if g is None else str(g)
            txt = " ".join(str(self.p ** e) for e in divs.exponents) or "0"
            out.append(f"H^{i} g={gtxt}: {txt}")
        return out


def _gkey(g):
    return (0, 0) if g is None else (1, g)


def cris(A: Presentation, M: int, D: int, degrees=None, seed=0) -> CohomologyReport:
    """Cohomology of the truncated totalization, per certified graded degree."""
    return _cris(DoubleComplex(A, M, D), degrees, seed)


def _cris(dc: DoubleComplex, degrees=None, seed=0) -> CohomologyReport:
    A, M, D = dc.A, dc.M, dc.D
    q_max = dc.columns[0].max_form_degree()
    degrees = degrees if degrees is not None else range(0, max(q_max, 1) + 1)
    cells = {}
    gs = graded_cells(A, D)
    for g in gs:
        dc.assert_total_complex(g, degrees=range(-dc.M, max(degrees) + 1))
        for i in degrees:
            cells[(i, g)] = dc.total_cohomology(i, g)
    return CohomologyReport(A.name, "cris", A.ring.p, A.ring.N, D, A.E, M,
                            seed=seed, cells=cells)


def dr_report(A: Presentation, D: int, seed=0) -> CohomologyReport:
    """Plain de Rham cohomology of the base algebra, same report format."""
    cx = level0_complex(A, D)
    q_max = cx.max_form_degree()
    cells = {}
    for g in graded_cells(A, D):
        cx.assert_complex(g)
        for q in range(q_max + 1):
            cells[(q, g)] = cx.cohomology(q, g)
    return CohomologyReport(A.name, "dr", A.ring.p, A.ring.N, D, A.E, 0,
                            seed=seed, cells=cells)


def compare_dr_cris(A: Presentation, M: int, D: int) -> CheckReport:
    """Plain de Rham equals the totalization of the interval construction.

    Certified in total degrees up to M-1 per graded degree; the chain-map
    inclusion of column 0, the Moore property, the commuting squares and the
    stabilization against column truncation M-1 are all verified on the way.
    """
    return _compare_dr_cris(DoubleComplex(A, M, D))


def _compare_dr_cris(dc: DoubleComplex) -> CheckReport:
    A, M, D = dc.A, dc.M, dc.D
    if M < 1:
        raise ValueError("comparison needs at least two columns (M >= 1)")
    reports = []
    q_max = dc.columns[0].max_form_degree()
    gs = graded_cells(A, D)
    if not gs:
        return _no_certified_cells(f"compare-{A.name}", A, {"M": M})
    degree_bound = min(M - 1, q_max)
    mismatches = []
    structural_ok = True
    for g in gs:
        for rep in (dc.verify_moore(g), dc.verify_squares(g),
                    dc.augmentation_is_chain_map(g)):
            if not rep.passed:
                reports.append(rep)
                structural_ok = False
        if not structural_ok:
            return merge_reports(f"compare-{A.name}", reports)
        dc.assert_total_complex(g)
        for i in range(degree_bound + 1):
            got = dc.total_cohomology(i, g)
            want = dc.columns[0].cohomology(i, g)
            if got != want:
                mismatches.append((i, g, list(want.exponents),
                                   list(got.exponents)))
    reports.append(CheckReport("structural-invariants", True,
                               details={"cells": len(gs)}))
    if mismatches:
        i, g, want, got = mismatches[0]
        reports.append(CheckReport(
            "divisor-comparison", False,
            witness=f"degree {i}, graded {g}: direct {want} vs totalization {got}",
            details={"mismatches": len(mismatches)}))
        return merge_reports(f"compare-{A.name}", reports)
    reports.append(CheckReport("divisor-comparison", True,
                               details={"degrees": degree_bound + 1,
                                        "cells": len(gs)}))
    # stabilization: truncating one column earlier must not change the
    # already-certified degrees
    if M >= 2:
        dc_prev = dc.truncated(M - 1)
        stable = True
        witness = ""
        for g in gs:
            for i in range(min(M - 2, q_max) + 1):
                if dc_prev.total_cohomology(i, g) != dc.total_cohomology(i, g):
                    stable = False
                    witness = f"degree {i}, graded {g}"
                    break
            if not stable:
                break
        reports.append(CheckReport("stabilization", stable, witness=witness,
                                   details={"from": M - 1, "to": M}))
        if not stable:
            return merge_reports(f"compare-{A.name}", reports)
    elif M == 1:
        reports.append(CheckReport("stabilization", True,
                                   details={"note": "single step, degree 0 only"}))
    return merge_reports(f"compare-{A.name}", reports)


# -- known-value catalog -------------------------------------------------------

# the algebras whose cohomology ``oracle_divisors`` knows
KNOWN_ALGEBRAS = ("point", "a1", "gm")


def oracle_divisors(name: str, i: int, g, ring) -> ElementaryDivisors:
    """Externally known cohomology of the catalog algebras.

    Everything reduces to kernels and cokernels of multiplication by the
    graded degree on Z/p^N: both contribute one summand of exponent
    min(val(g), N) (full precision when g = 0).
    """
    p, N = ring.p, ring.N

    def mult_exponent(k):
        if k == 0:
            return N
        return min(ring.val(k % ring.modulus) if k % ring.modulus else N, N)

    exps = []
    if name == "point":
        if i == 0 and g in (0, None):
            exps = [N]
    elif name == "a1":
        if i == 0 and g is not None and g >= 0:
            e = mult_exponent(g) if g else N
            exps = [e] if e else []
        elif i == 1 and g is not None and g >= 1:
            e = mult_exponent(g)
            exps = [e] if e else []
    elif name == "gm":
        if i in (0, 1) and g is not None:
            e = mult_exponent(g) if g else N
            exps = [e] if e else []
    else:
        raise CatalogMismatch(f"no stored values for algebra {name!r}")
    exps = [e for e in exps if e > 0]
    return ElementaryDivisors(p, N, exps)


def known_values_check(A: Presentation, M: int, D: int) -> CheckReport:
    """Compare the totalization's cohomology with the stored catalog values."""
    if A.name not in KNOWN_ALGEBRAS:
        raise CatalogMismatch(f"algebra {A.name!r} is not in the catalog")
    if M < 1:
        raise ValueError(f"M must be >= 1 for the known-values check, got {M}")
    report = cris(A, M, D, degrees=range(0, min(M, 2)))
    failures = []
    for (i, g), divs in sorted(report.cells.items(),
                               key=lambda t: (t[0][0], _gkey(t[0][1]))):
        want = oracle_divisors(A.name, i, g, A.ring)
        if divs != want:
            failures.append(f"H^{i} g={g}: got {divs}, expected {want}")
    if failures:
        return CheckReport("known-values", False, witness=failures[0],
                           details={"failures": len(failures)})
    return CheckReport("known-values", True,
                       details={"cells": len(report.cells), "algebra": A.name})
