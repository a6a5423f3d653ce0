"""Exact linear algebra over Z/p^N.

Row spans over Z/p^N admit a unique canonical generating set, the Howell
form: echelon, pivot entries equal to powers of p, entries above a pivot
reduced modulo that pivot, and the span closed under multiplication by the
annihilators p^(N-v) of the pivots.  Everything else here (kernels, solving,
subquotient invariants, cohomology of complexes) reduces to that form.

Vectors are rows; a matrix acts on the right (x -> x*M), so ``kernel(M)``
is the left kernel {x : x*M = 0}.

A ``Matrix`` stores one dict per row and nothing else, so the builders,
products and eliminations all work on the same row dicts: the engine copies
the rows it eliminates, ``smith_valuations`` copies the rows it mutates, and
everything else reads the stored rows in place.

Block complexes (the simplicial totalization, the Cech complex of a cover)
are assembled by ``block_matrix`` alone: callers name their blocks and
pieces, and only ``block_offsets`` places them.
"""

from heapq import heapify, heappop, heappush

from .errors import ContainmentViolation
from .ring import ZpN


class Matrix:
    """Immutable sparse matrix over Z/p^N, stored by rows.

    ``_rows`` holds one dict per row, column -> value.  Every stored value
    is reduced mod p^N and nonzero, and every column lies in
    range(ncols); zeros are never stored.  The public constructors
    (``Matrix(ring, nrows, ncols, {(i, j): v})``, ``from_row_dicts``,
    ``identity`` and ``zero``) check bounds, raising IndexError, and reduce
    their input.  The package's own builders and products hand rows that
    already meet the invariant to ``_trusted``, which stores them as they
    are and takes them over.  ``row_dicts`` returns copies; code in the
    package reads ``_rows`` in place and never mutates it.
    """

    __slots__ = ("ring", "nrows", "ncols", "_rows")

    def __init__(self, ring: ZpN, nrows: int, ncols: int, entries=None):
        rows = [{} for _ in range(nrows)]
        if entries:
            mod = ring.modulus
            for (i, j), v in entries.items():
                if not (0 <= i < nrows and 0 <= j < ncols):
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                v %= mod
                if v:
                    rows[i][j] = v
        self.ring = ring
        self.nrows = nrows
        self.ncols = ncols
        self._rows = rows

    @classmethod
    def _trusted(cls, ring, rows, ncols):
        """A matrix on ``rows`` as given: reduced, nonzero and in range."""
        M = object.__new__(cls)
        M.ring = ring
        M.nrows = len(rows)
        M.ncols = ncols
        M._rows = rows
        return M

    @classmethod
    def from_row_dicts(cls, ring, dicts, ncols):
        mod = ring.modulus
        rows = []
        for i, d in enumerate(dicts):
            row = {}
            for j, v in d.items():
                if not 0 <= j < ncols:
                    raise IndexError(
                        f"entry ({i},{j}) outside {len(dicts)}x{ncols}")
                v %= mod
                if v:
                    row[j] = v
            rows.append(row)
        return cls._trusted(ring, rows, ncols)

    @classmethod
    def identity(cls, ring, n):
        return cls._trusted(ring, [{i: 1} for i in range(n)], n)

    @classmethod
    def zero(cls, ring, nrows, ncols):
        return cls._trusted(ring, [{} for _ in range(nrows)], ncols)

    def row_dicts(self):
        """Copies of the rows, column -> value."""
        return [dict(row) for row in self._rows]

    def is_zero(self):
        return not any(self._rows)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self.ring, self.nrows, self.ncols, self._rows)
                == (other.ring, other.nrows, other.ncols, other._rows))

    def __hash__(self):
        return hash((self.ring, self.nrows, self.ncols,
                     frozenset(((i, j), v) for i, row in enumerate(self._rows)
                               for j, v in row.items())))

    def __repr__(self):
        return f"Matrix({self.ring}, {self.nrows}x{self.ncols})"

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        mod = self.ring.modulus
        other_rows = other._rows
        rows = []
        for row in self._rows:
            acc = {}
            for k, a in row.items():
                for j, b in other_rows[k].items():
                    acc[j] = acc.get(j, 0) + a * b
            out = {}
            for j, v in acc.items():
                v %= mod
                if v:
                    out[j] = v
            rows.append(out)
        return Matrix._trusted(self.ring, rows, other.ncols)

    def add(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch")
        mod = self.ring.modulus
        rows = []
        for mine, theirs in zip(self._rows, other._rows):
            row = dict(mine)
            for j, v in theirs.items():
                v = (row.get(j, 0) + v) % mod
                if v:
                    row[j] = v
                else:
                    del row[j]
            rows.append(row)
        return Matrix._trusted(self.ring, rows, self.ncols)

    def scale(self, c: int) -> "Matrix":
        mod = self.ring.modulus
        rows = []
        for row in self._rows:
            out = {}
            for j, v in row.items():
                v = v * c % mod
                if v:
                    out[j] = v
            rows.append(out)
        return Matrix._trusted(self.ring, rows, self.ncols)


def block_offsets(blocks):
    """First index of each block in their concatenation, and the total size.

    ``blocks`` are (key, size) pairs in order.
    """
    offsets = {}
    total = 0
    for key, size in blocks:
        offsets[key] = total
        total += size
    return offsets, total


def block_matrix(ring, row_blocks, col_blocks, pieces) -> Matrix:
    """The matrix with each piece at its block position, zero elsewhere.

    Row and column blocks are (key, size) pairs in order.  A piece is
    (row_key, col_key, M, sign): M, of the two blocks' sizes, times sign
    +1 or -1.  Each block position holds at most one piece.
    """
    row_off, nrows = block_offsets(row_blocks)
    col_off, ncols = block_offsets(col_blocks)
    row_size, col_size = dict(row_blocks), dict(col_blocks)
    mod = ring.modulus
    rows = [{} for _ in range(nrows)]
    placed = set()
    for rkey, ckey, M, sign in pieces:
        if (M.nrows, M.ncols) != (row_size[rkey], col_size[ckey]):
            raise ValueError(f"piece {M.nrows}x{M.ncols} does not fit block "
                             f"{rkey!r}, {ckey!r}")
        if sign not in (1, -1) or (rkey, ckey) in placed:
            raise ValueError(f"bad sign or second piece at {rkey!r}, {ckey!r}")
        placed.add((rkey, ckey))
        start, off = row_off[rkey], col_off[ckey]
        for row, mrow in zip(rows[start:start + M.nrows], M._rows):
            for j, v in mrow.items():
                row[off + j] = v if sign == 1 else mod - v
    return Matrix._trusted(ring, rows, ncols)


class ElementaryDivisors:
    """Invariants of a finite module over Z/p^N: summands Z/p^e, e desc.

    Full-precision summands (e = N) are the "free" ones at this precision;
    their count is reported separately as ``free_rank``.
    """

    __slots__ = ("p", "N", "exponents")

    def __init__(self, p, N, exponents):
        exps = sorted((e for e in exponents if e > 0), reverse=True)
        if any(e > N for e in exps):
            raise ValueError("exponent exceeds precision")
        self.p = p
        self.N = N
        self.exponents = tuple(exps)

    @property
    def free_rank(self):
        return sum(1 for e in self.exponents if e == self.N)

    def __eq__(self, other):
        if not isinstance(other, ElementaryDivisors):
            return NotImplemented
        return (self.p, self.N, self.exponents) == (other.p, other.N, other.exponents)

    def __hash__(self):
        return hash((self.p, self.N, self.exponents))

    def __repr__(self):
        return f"ElementaryDivisors(p={self.p}, N={self.N}, exponents={list(self.exponents)})"

    def __str__(self):
        if not self.exponents:
            return "0"
        return " x ".join(f"Z/{self.p ** e}" for e in self.exponents)

    def is_trivial(self):
        return not self.exponents


def _leading(row):
    return min(row) if row else None


def _sub_scaled(row, other, q, mod):
    """row -= q * other, in place on dicts."""
    if q % mod == 0:
        return
    for j, v in other.items():
        nv = (row.get(j, 0) - q * v) % mod
        if nv:
            row[j] = nv
        else:
            row.pop(j, None)


def _scale_row(row, c, mod):
    dead = []
    for j in row:
        v = (row[j] * c) % mod
        if v:
            row[j] = v
        else:
            dead.append(j)
    for j in dead:
        del row[j]


def _howell_engine(ring, rows, transforms=None):
    """Shared engine: echelonize with annihilator closure.

    Returns (pivots, zero_transforms).  ``pivots`` maps each pivot column to
    [row_dict, transform_dict_or_None, valuation]; ``_reduce_above`` turns it
    into the Howell form.  zero_transforms collects the transforms of work
    rows that reduced to zero (these span the left kernel when the
    transforms started as unit vectors).

    ``rows`` hold reduced nonzero entries, as ``Matrix`` rows do; the engine
    eliminates copies of them.  The ``transforms`` dicts are taken over.
    """
    mod = ring.modulus
    p, N = ring.p, ring.N
    track = transforms is not None
    if track:
        work = [(dict(r), t) for r, t in zip(rows, transforms)]
    else:
        work = [(dict(r), None) for r in rows]

    pivots = {}  # col -> [row, transform, valuation]
    zero_transforms = []

    while work:
        row, trans = work.pop()
        while True:
            c = _leading(row)
            if c is None:
                if track and trans:
                    zero_transforms.append(trans)
                break
            v = ring.val(row[c])
            if c in pivots:
                prow, ptrans, pv = pivots[c]
                if v < pv:
                    # new row becomes the pivot; old one re-enters the loop
                    u = ring.unit_inverse(row[c] // p ** v)
                    _scale_row(row, u, mod)
                    if track:
                        _scale_row(trans, u, mod)
                    pivots[c] = [row, trans, v]
                    if v > 0:
                        ann = p ** (N - v)
                        arow, atrans = dict(row), dict(trans) if track else None
                        _scale_row(arow, ann, mod)
                        if track:
                            _scale_row(atrans, ann, mod)
                        work.append((arow, atrans))
                    row, trans, pv = prow, ptrans, v
                    prow, ptrans = pivots[c][0], pivots[c][1]
                q = row[c] // p ** pivots[c][2]
                _sub_scaled(row, pivots[c][0], q, mod)
                if track:
                    _sub_scaled(trans, pivots[c][1], q, mod)
                # leading entry now eliminated; continue with the remainder
                continue
            # install a fresh pivot
            u = ring.unit_inverse(row[c] // p ** v)
            _scale_row(row, u, mod)
            if track:
                _scale_row(trans, u, mod)
            pivots[c] = [row, trans, v]
            if v > 0:
                ann = p ** (N - v)
                arow, atrans = dict(row), dict(trans) if track else None
                _scale_row(arow, ann, mod)
                if track:
                    _scale_row(atrans, ann, mod)
                work.append((arow, atrans))
            break
    return pivots, zero_transforms


def _reduce_above(ring, pivots):
    """Howell reduction above the echelon pivots of ``_howell_engine``.

    Returns the pivots ordered by column as (col, row_dict, transform, v).
    Each pivot row is reduced against the pivots right of it, column by
    column.  Rows go left to right, so every row is used while it still
    holds its echelon entries: exactly the subtractions, in the same order,
    of clearing one pivot column at a time from left to right.
    """
    mod, p = ring.modulus, ring.p
    lead = {c: (c, row, p ** v) for c, (row, _t, v) in pivots.items()}
    cols = sorted(pivots)
    for c2 in cols:
        row2, trans2, _v = pivots[c2]
        for c, q in _walk(row2, lead, mod, c2):
            if trans2 is not None:
                _sub_scaled(trans2, pivots[c][1], q, mod)
    return [(c,) + tuple(pivots[c]) for c in cols]


def _pivot_map(ring, pivots):
    """col -> (index, row, p^v) of ordered Howell pivots, for ``_walk``."""
    p = ring.p
    return {c: (i, row, p ** v) for i, (c, row, _t, v) in enumerate(pivots)}


def _walk(res, lead, mod, start=-1):
    """Reduce ``res`` in place against ``lead``: col -> (key, row, p^v).

    Visits the pivot columns of ``res`` right of ``start`` in ascending
    order and yields (key, q) for each subtraction  res -= q * row.  A
    subtraction fills in columns right of its pivot only, so a heap of the
    pivot columns met so far yields them in order.
    """
    heap = [j for j in res if j > start and j in lead]
    heapify(heap)
    last = start
    while heap:
        c = heappop(heap)
        if c == last:
            continue
        last = c
        x = res.get(c)
        if not x:
            continue
        key, row, pval = lead[c]
        q = x // pval
        if not q:
            continue
        for j, v in row.items():
            old = res.get(j)
            nv = ((old or 0) - q * v) % mod
            if nv:
                res[j] = nv
                if old is None and j in lead:
                    heappush(heap, j)
            elif old is not None:
                del res[j]
        yield key, q


def _kernel_pivots(M: Matrix, k=None):
    """Howell pivots of the left kernel of M, in two engine passes.

    The first pass only collects the zero transforms, so its pivots are
    never reduced above.

    With ``k``, only the rows below k start with unit transforms and the
    rest with empty ones.  The engine's row operations do not read the
    transforms, so every transform is then the projection onto the first k
    coordinates of the one it would be without ``k``, and the pivots are
    those of the kernel's projection {x[:k] : x*M = 0}.  The Howell form is
    unique, so they are, in order, the first k coordinates of the full
    kernel's Howell rows that lead in a column below k (the projections of
    those rows are echelon, reduced, and closed as the Howell property
    asks, since a kernel vector that vanishes below c < k is a combination
    of the rows leading at c or later).
    """
    n = M.nrows if k is None else k
    if not 0 <= n <= M.nrows:
        raise ValueError(f"projection onto {k} of {M.nrows} coordinates")
    transforms = [{i: 1} for i in range(n)] + [{} for _ in range(M.nrows - n)]
    _, zeros = _howell_engine(M.ring, M._rows, transforms)
    if not zeros:
        return []
    return _reduce_above(M.ring, _howell_engine(M.ring, zeros)[0])


def kernel(M: Matrix, k=None) -> Matrix:
    """Howell basis of the left kernel {x : x*M = 0}.

    With ``k``, the Howell basis of its projection onto the first k
    coordinates (see ``_kernel_pivots``), as a matrix with k columns.
    """
    rows = [row for _c, row, _t, _v in _kernel_pivots(M, k)]
    return Matrix._trusted(M.ring, rows, M.nrows if k is None else k)


class HowellBasis:
    """A Howell form kept as row dicts, for repeated membership queries.

    With ``transforms`` the elimination also records, for each Howell row,
    its coordinates over the input rows, and ``solve`` answers x*M = b for
    any number of right-hand sides b from one elimination.
    """

    __slots__ = ("ring", "ncols", "pivots", "_lead")

    def __init__(self, ring, M_or_rows, ncols=None, transforms=False):
        if isinstance(M_or_rows, Matrix):
            rows = M_or_rows._rows
            ncols = M_or_rows.ncols
        else:
            mod = ring.modulus
            rows = [{j: v % mod for j, v in r.items() if v % mod}
                    for r in M_or_rows]
            if ncols is None:
                raise ValueError("ncols required for raw rows")
        self.ring = ring
        self.ncols = ncols
        start = [{i: 1} for i in range(len(rows))] if transforms else None
        self.pivots = _reduce_above(ring, _howell_engine(ring, rows, start)[0])
        self._lead = _pivot_map(ring, self.pivots)

    def __len__(self):
        return len(self.pivots)

    def rows(self):
        return [dict(row) for (_c, row, _t, _v) in self.pivots]

    def reduce(self, vec):
        """Reduce a row dict against the basis.

        Returns (residual, coords) with  vec = coords * basis + residual;
        vec is in the span iff residual is empty.
        """
        return _reduce(self.ring, self._lead, vec)

    def contains(self, vec) -> bool:
        res, _ = self.reduce(vec)
        return not res

    def solve(self, b: dict):
        """Coordinates x over the input rows with x*M = b, or None.

        Needs ``transforms``.  The particular solution returned is the
        canonical one obtained by reducing b against the Howell form.
        """
        res, coords = self.reduce(b)
        if res:
            return None
        x = {}
        for idx, q in coords.items():
            _sub_scaled(x, self.pivots[idx][2], -q, self.ring.modulus)
        return x


def _reduce(ring, lead, vec):
    """Reduce a row dict against Howell pivots given by ``_pivot_map``.

    Returns (residual, coords), coords keyed by pivot index.
    """
    mod = ring.modulus
    res = {j: v % mod for j, v in vec.items() if v % mod}
    return res, dict(_walk(res, lead, mod))


def smith_valuations(M: Matrix):
    """Valuations of the diagonal of the Smith form of M over Z/p^N.

    Row and column operations are both allowed over this local ring, so the
    form is diag(p^a1, ..., p^as) with a1 <= ... <= as, returned as a list.

    Layered local Smith form by elimination (Dumas, Saunders and Villard,
    "On efficient sparse integer matrix Smith normal form computations",
    J. Symbolic Comput. 32, 2001).  At layer v every entry is divisible by
    p^v.  Pivot on an entry of valuation exactly v, clear its column with
    row operations (exact, since p^v divides every entry) and drop the pivot
    row: the column operations that would clear the rest of that row touch
    no other row.  Eliminations keep every entry divisible by p^v, so when
    no entry of valuation v is left, layer v + 1 begins; entries of
    valuation N are zero, so at most N layers run.

    A column -> rows incidence map lets a pivot touch only the rows that
    hold its column.  Each layer visits the rows once, shortest first, and
    reads each row as it stands when visited; within a row the pivot is the
    candidate whose column has the fewest entries (a Markowitz-style choice
    that limits fill-in).  A row visited without a candidate has every entry
    divisible by p^(v+1), and an elimination adds to it only multiples of
    p^(v+1) (its entry in the pivot column is such a multiple, so the
    multiplier of the pivot row is divisible by p): it gains no candidate
    before the layer ends.  The Smith form is unique, so the pivot order
    does not change the result.
    """
    ring = M.ring
    mod, p = ring.modulus, ring.p
    rows = {i: dict(r) for i, r in enumerate(M._rows) if r}
    cols = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    vals = []
    for v in range(ring.N):
        if not rows:
            break
        piv, nxt = p ** v, p ** (v + 1)
        for i in sorted(rows, key=lambda i: (len(rows[i]), i)):
            prow = rows.get(i)
            if prow is None:
                continue
            best, count = None, 0
            for j, a in prow.items():
                if a % nxt and (best is None or len(cols[j]) < count):
                    best, count = j, len(cols[j])
            if best is None:
                continue
            del rows[i]
            for j in prow:
                cols[j].discard(i)
            u = ring.unit_inverse(prow.pop(best) // piv)
            for r in cols.pop(best):
                row = rows[r]
                q = (row.pop(best) // piv) * u % mod
                for j, a in prow.items():
                    old = row.get(j)
                    nv = ((old or 0) - q * a) % mod
                    if nv:
                        row[j] = nv
                        if old is None:
                            cols[j].add(r)
                    elif old is not None:
                        del row[j]
                        cols[j].discard(r)
                if not row:
                    del rows[r]
            vals.append(v)
    return vals


def subquotient(ker_basis: Matrix, im_basis: Matrix) -> ElementaryDivisors:
    """Elementary divisors of span(ker_basis) / span(im_basis).

    Raises ContainmentViolation when an image row falls outside the kernel
    span, which upstream means a differential whose square is not zero.
    """
    if ker_basis.ncols != im_basis.ncols:
        raise ValueError("ambient dimension mismatch")
    return _subquotient(HowellBasis(ker_basis.ring, ker_basis).pivots, im_basis)


def _subquotient(pivots, im_basis: Matrix) -> ElementaryDivisors:
    """``subquotient`` of a kernel given by its Howell pivots."""
    ring = im_basis.ring
    r = len(pivots)
    lead = _pivot_map(ring, pivots)
    relations = []
    for i, row in enumerate(im_basis._rows):
        res, coords = _reduce(ring, lead, row)
        if res:
            j = sorted(res)[0]
            raise ContainmentViolation(
                f"image row {i} is not contained in the kernel span "
                f"(residual at column {j})", witness=(i, sorted(res.items())))
        relations.append(coords)
    if r == 0:
        return ElementaryDivisors(ring.p, ring.N, [])
    # The syzygies of the Howell rows h_1..h_r are generated by one relation
    # p^(N-v)*e_i - coords_i per row h_i of pivot valuation v > 0, where
    # p^(N-v)*h_i = coords_i * (rows below h_i) by the Howell property.
    # Proof: let x be a syzygy and i its first nonzero index.  The rows
    # below h_i vanish in its pivot column (echelon form), so x_i*p^v = 0
    # there: p^(N-v) divides x_i, and v > 0.  Subtracting x_i/p^(N-v) times
    # relation i leaves a syzygy whose first nonzero index is larger.
    mod, p, N = ring.modulus, ring.p, ring.N
    for i, (_c, row, _t, v) in enumerate(pivots):
        if v:
            ann = p ** (N - v)
            _res, coords = _reduce(ring, lead,
                                   {j: a * ann for j, a in row.items()})
            rel = {j: -q % mod for j, q in coords.items()}
            rel[i] = ann
            relations.append(rel)
    diag = smith_valuations(Matrix._trusted(ring, relations, r))
    exps = [min(a, ring.N) for a in diag]
    exps += [ring.N] * (r - len(diag))
    return ElementaryDivisors(ring.p, ring.N, exps)


def complex_cohomology(d_in: Matrix, d_out: Matrix) -> ElementaryDivisors:
    """Cohomology at the middle of  ._ --d_in--> . --d_out--> ._ .

    The kernel's pivots are already in Howell form, so they go to the
    subquotient as they are: two engine passes in all.  Its containment
    check certifies d_in * d_out = 0, since a row of d_in lies in ker d_out
    exactly when its product with d_out vanishes; a complex with d after d
    nonzero raises ContainmentViolation there.
    """
    if d_in.ncols != d_out.nrows:
        raise ValueError("complex dimensions do not chain")
    return _subquotient(_kernel_pivots(d_out), d_in)
