"""Howell form / kernel / subquotient against brute-force enumeration."""

import copy
import random
from itertools import product

import pytest

from crystalcalc import linalg
from crystalcalc.errors import ContainmentViolation
from crystalcalc.linalg import (
    ElementaryDivisors,
    HowellBasis,
    Matrix,
    block_matrix,
    complex_cohomology,
    kernel,
    smith_valuations,
    subquotient,
)
from crystalcalc.ring import ZpN

from dense_matrices import assert_rows_validated, from_rows, to_dense


def enumerate_span(ring, rows, ncols):
    """All Z/p^N combinations of the given rows, as a set of tuples."""
    mod = ring.modulus
    span = {tuple([0] * ncols)}
    for r in rows:
        new = set()
        for c in range(mod):
            scaled = tuple((c * x) % mod for x in r)
            for s in span:
                new.add(tuple((a + b) % mod for a, b in zip(s, scaled)))
        span = new
    return span


def brute_kernel(ring, dense, nrows, ncols):
    mod = ring.modulus
    ker = set()
    for x in product(range(mod), repeat=nrows):
        img = [0] * ncols
        for i, xi in enumerate(x):
            if xi:
                for j in range(ncols):
                    img[j] = (img[j] + xi * dense[i][j]) % mod
        if all(v == 0 for v in img):
            ker.add(x)
    return ker


def random_matrix(ring, rng, nrows, ncols):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            v = rng.randrange(ring.modulus)
            if v:
                entries[(i, j)] = v
    return Matrix(ring, nrows, ncols, entries)


def test_howell_identity():
    ring = ZpN(3, 2)
    I = Matrix.identity(ring, 3)
    hb = HowellBasis(ring, I, transforms=True)
    assert hb.rows() == I.row_dicts()
    assert [t for _c, _r, t, _v in hb.pivots] == I.row_dicts()


def test_howell_single_p_entry():
    # the submodule of Z/9 generated by 3 is {0, 3, 6}; minimal generator 3
    ring = ZpN(3, 2)
    M = from_rows(ring, [[3]])
    brute = enumerate_span(ring, [[3]], 1)
    assert brute == {(0,), (3,), (6,)}
    hb = HowellBasis(ring, M, transforms=True)
    assert hb.rows() == [{0: 3}]
    U = Matrix.from_row_dicts(ring, [t for _c, _r, t, _v in hb.pivots], 1)
    assert U.mul(M).row_dicts() == hb.rows()


def test_howell_preserves_span_random():
    ring = ZpN(2, 2)
    rng = random.Random(7)
    for _ in range(20):
        M = random_matrix(ring, rng, 4, 4)
        hb = HowellBasis(ring, M, transforms=True)
        # the transform rows times M are the Howell rows
        U = Matrix.from_row_dicts(ring, [t for _c, _r, t, _v in hb.pivots],
                                  M.nrows)
        assert U.mul(M).row_dicts() == hb.rows()
        H = Matrix.from_row_dicts(ring, hb.rows(), 4)
        assert enumerate_span(ring, to_dense(M), 4) == \
            enumerate_span(ring, to_dense(H), 4)


def test_howell_unique_for_span():
    ring = ZpN(3, 2)
    rng = random.Random(11)
    for _ in range(10):
        M = random_matrix(ring, rng, 3, 3)
        rows = to_dense(M)
        # same span, different generating set: add row sums and scalings
        extra = [[(a + b) % 9 for a, b in zip(rows[0], rows[1])],
                 [(2 * a) % 9 for a in rows[2]]]
        M2 = from_rows(ring, rows + extra)
        assert HowellBasis(ring, M).rows() == HowellBasis(ring, M2).rows()


def test_howell_idempotent():
    ring = ZpN(2, 3)
    rng = random.Random(3)
    for _ in range(10):
        M = random_matrix(ring, rng, 3, 4)
        H = HowellBasis(ring, M).rows()
        assert HowellBasis(ring, H, 4).rows() == H


def _log_p(size, p):
    e = 0
    while p ** e < size:
        e += 1
    assert p ** e == size
    return e


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 1)])
def test_smith_valuations_brute_force(p, N):
    # span(M) is a sum of p^a_i Z/p^N, so log_p |p^k span(M)| is the sum of
    # max(0, N - a_i - k); its drop from k to k+1 counts the a_i <= N-1-k
    ring = ZpN(p, N)
    mod = ring.modulus
    rng = random.Random(31 * p + N)
    trials = 16
    for trial in range(trials):
        density = trial / (trials - 1)
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 4)
        entries = {(i, j): rng.randrange(mod) * rng.choice([1, p])
                   for i in range(nrows) for j in range(ncols)
                   if rng.random() < density}
        M = Matrix(ring, nrows, ncols, entries)
        span = enumerate_span(ring, to_dense(M), ncols)
        logs = [_log_p(len({tuple(v * p ** k % mod for v in s) for s in span}), p)
                for k in range(N + 1)]
        at_most = [logs[N - 1 - t] - logs[N - t] for t in range(N)]
        want = []
        for t in range(N):
            want += [t] * (at_most[t] - (at_most[t - 1] if t else 0))
        assert smith_valuations(M) == want


def _reference_smith_valuations(M):
    """Smith valuations by a scan of every remaining entry for the least
    valuation before each pivot (the quadratic routine the layered
    elimination replaced)."""
    ring = M.ring
    mod, p = ring.modulus, ring.p
    rows = [r for r in M.row_dicts() if r]
    vals = []
    floor = 0
    while rows:
        best = None
        for i, row in enumerate(rows):
            for j, a in row.items():
                v = ring.val(a)
                if best is None or v < best[0]:
                    best = (v, i, j)
                    if v == floor:
                        break
            if best[0] == floor:
                break
        v, bi, bj = best
        prow = rows.pop(bi)
        piv = p ** v
        u = ring.unit_inverse(prow[bj] // piv)
        for row in rows:
            x = row.get(bj)
            if x:
                linalg._sub_scaled(row, prow, (x // piv) * u, mod)
        rows = [r for r in rows if r]
        vals.append(v)
        floor = v
    return vals


def _layered_smith_cases(ring, rng, count):
    """Sparse matrices up to 60x40 whose rows and columns are scaled by
    powers of p, some with rows that cancel to zero, plus an empty matrix,
    an all-zero one and one with every entry divisible by p."""
    p, N, mod = ring.p, ring.N, ring.modulus
    yield Matrix(ring, 0, 0)
    yield Matrix(ring, 5, 4)
    yield Matrix(ring, 6, 5, {(i, j): p * rng.randrange(1, mod)
                              for i in range(6) for j in range(5)})
    for _ in range(count):
        nrows, ncols = rng.randint(1, 60), rng.randint(1, 40)
        density = rng.choice((0.03, 0.08, 0.2, 0.5))
        rscale = [p ** rng.randrange(N) for _ in range(nrows)]
        cscale = [p ** rng.randrange(N) for _ in range(ncols)]
        rows = [{j: rng.randrange(1, mod) * rscale[i] * cscale[j] % mod
                 for j in range(ncols) if rng.random() < density}
                for i in range(nrows)]
        # copies and multiples of earlier rows cancel to zero on the way
        for i in range(1, nrows):
            if rng.random() < 0.15:
                c = rng.randrange(1, mod)
                earlier = rows[rng.randrange(i)]
                rows[i] = {j: c * v % mod for j, v in earlier.items()}
        yield Matrix.from_row_dicts(ring, rows, ncols)


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 1), (3, 3)])
def test_smith_valuations_matches_pivot_scan_reference(p, N):
    ring = ZpN(p, N)
    rng = random.Random(7 * p + N)
    layers = set()
    cases = 0
    for M in _layered_smith_cases(ring, rng, 80):
        before = M.row_dicts()
        want = _reference_smith_valuations(M)
        assert smith_valuations(M) == want
        assert M.row_dicts() == before
        layers.update(want)
        cases += 1
    assert cases == 83
    assert layers == set(range(N))


def test_kernel_zero_matrix():
    ring = ZpN(3, 2)
    M = Matrix.zero(ring, 3, 2)
    K = kernel(M)
    assert K == Matrix.identity(ring, 3)


def test_kernel_p_over_p2():
    # 3x = 0 in Z/9 exactly for x in {0, 3, 6}
    ring = ZpN(3, 2)
    M = from_rows(ring, [[3]])
    K = kernel(M)
    assert to_dense(K) == [[3]]


def test_kernel_unit_determinant():
    ring = ZpN(3, 3)
    M = from_rows(ring, [[1, 1], [1, 2]])  # det = 1, a unit
    assert kernel(M).nrows == 0


@pytest.mark.parametrize("p,N", [(2, 2), (3, 2)])
def test_kernel_matches_brute_force(p, N):
    ring = ZpN(p, N)
    rng = random.Random(100 * p + N)
    size = 4 if p == 2 else 3
    for _ in range(12):
        M = random_matrix(ring, rng, size, size)
        K = kernel(M)
        assert K.mul(M).is_zero()
        brute = brute_kernel(ring, to_dense(M), size, size)
        span = enumerate_span(ring, to_dense(K), size) if K.nrows else {tuple([0] * size)}
        assert span == brute


def test_subquotient_full_free():
    ring = ZpN(3, 2)
    ker = Matrix.identity(ring, 1)
    im = Matrix.zero(ring, 0, 1)
    d = subquotient(ker, im)
    assert d.exponents == (2,)
    assert d.free_rank == 1


def test_subquotient_mult_by_p_complex():
    # 0 -> Z/9 --*3--> Z/9 -> 0 : kernel and cokernel both Z/3
    ring = ZpN(3, 2)
    d = from_rows(ring, [[3]])
    h0 = subquotient(kernel(d), Matrix.zero(ring, 0, 1))
    assert h0.exponents == (1,)
    h1 = subquotient(Matrix.identity(ring, 1), d)
    assert h1.exponents == (1,)


def test_subquotient_equal_spans_trivial():
    ring = ZpN(2, 2)
    M = from_rows(ring, [[2, 1], [0, 2]])
    assert subquotient(M, M).is_trivial()


def test_subquotient_containment_checked():
    ring = ZpN(3, 2)
    ker = from_rows(ring, [[3, 0]])
    im = from_rows(ring, [[1, 1]])
    with pytest.raises(ContainmentViolation):
        subquotient(ker, im)


@pytest.mark.parametrize("p,N", [(2, 2), (3, 2), (2, 3)])
def test_subquotient_matches_brute_force(p, N):
    ring = ZpN(p, N)
    rng = random.Random(17 * p + N)
    size = 3
    mod = ring.modulus
    for _ in range(10):
        M = random_matrix(ring, rng, size, size)
        K = kernel(M)
        # image rows: random combinations of kernel rows, so contained by design
        im_rows = []
        kd = to_dense(K)
        for _ in range(2):
            coeffs = [rng.randrange(mod) for _ in range(K.nrows)]
            row = [0] * size
            for c, kr in zip(coeffs, kd):
                for j in range(size):
                    row[j] = (row[j] + c * kr[j]) % mod
            im_rows.append(row)
        im = from_rows(ring, im_rows, ncols=size)
        got = subquotient(K, im)
        ker_set = brute_kernel(ring, to_dense(M), size, size)
        im_set = enumerate_span(ring, im_rows, size)

        def coset_of(x):
            return min(tuple((a + b) % mod for a, b in zip(x, y)) for y in im_set)

        reps = sorted({coset_of(x) for x in ker_set})
        zero_coset = coset_of(tuple([0] * size))
        p_, N_ = ring.p, ring.N
        # t_j = log_p of the p^j-torsion subgroup of the quotient group
        t = []
        for j in range(N_ + 1):
            pj = p_ ** j
            c = sum(1 for x in reps
                    if coset_of(tuple((v * pj) % mod for v in x)) == zero_coset)
            e = 0
            while p_ ** e < c:
                e += 1
            assert p_ ** e == c
            t.append(e)
        # mult[j-1] = number of cyclic summands with exponent >= j
        mult = [t[j] - t[j - 1] for j in range(1, N_ + 1)]
        exps = []
        for e in range(N_, 0, -1):
            higher = mult[e] if e < N_ else 0
            exps.extend([e] * (mult[e - 1] - higher))
        assert list(got.exponents) == sorted(exps, reverse=True)


def test_complex_cohomology_chain_checked():
    ring = ZpN(3, 2)
    d_in = from_rows(ring, [[1]])
    d_out = from_rows(ring, [[1]])
    with pytest.raises(ContainmentViolation):
        complex_cohomology(d_in, d_out)


def test_smith_valuations_small():
    ring = ZpN(2, 3)
    M = from_rows(ring, [[2, 0], [0, 4]])
    assert smith_valuations(M) == [1, 2]
    M2 = from_rows(ring, [[1, 1], [1, 1]])
    assert smith_valuations(M2)[0] == 0


def test_howell_basis_membership():
    ring = ZpN(3, 2)
    M = from_rows(ring, [[3, 1, 0], [0, 3, 0]])
    B = HowellBasis(ring, M)
    assert B.contains({0: 3, 1: 1})
    assert B.contains({1: 3})  # 3 * (3,1,0) = (0,3,0) mod 9
    assert not B.contains({2: 1})
    res, coords = B.reduce({0: 3, 1: 1})
    assert not res
    vec = {0: 3, 1: 1}
    rebuilt = {}
    rows = B.rows()
    for idx, q in coords.items():
        for j, v in rows[idx].items():
            rebuilt[j] = (rebuilt.get(j, 0) + q * v) % 9
    rebuilt = {j: v for j, v in rebuilt.items() if v}
    assert rebuilt == vec


def test_elementary_divisors_formatting():
    d = ElementaryDivisors(3, 3, [1, 3, 2])
    assert d.exponents == (3, 2, 1)
    assert d.free_rank == 1
    assert str(d) == "Z/27 x Z/9 x Z/3"
    assert ElementaryDivisors(3, 3, []).is_trivial()


def test_kernel_brute_force_N3():
    ring = ZpN(2, 3)
    rng = random.Random(81)
    for _ in range(8):
        M = random_matrix(ring, rng, 3, 3)
        K = kernel(M)
        brute = brute_kernel(ring, to_dense(M), 3, 3)
        span = enumerate_span(ring, to_dense(K), 3) if K.nrows else {(0, 0, 0)}
        assert span == brute


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2)])
def test_solve_in_rowspace_brute_force(p, N):
    # HowellBasis.solve finds x with x*M = b exactly when b is in the row
    # space of M
    ring = ZpN(p, N)
    mod = ring.modulus
    rng = random.Random(7 * p + N)
    for _ in range(12):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        M = Matrix(ring, nrows, ncols,
                   {(i, j): rng.randrange(mod) * rng.choice([1, p])
                    for i in range(nrows) for j in range(ncols)})
        dense = to_dense(M)
        span = enumerate_span(ring, dense, ncols)
        solver = HowellBasis(ring, M, transforms=True)
        for b in product(range(mod), repeat=ncols):
            x = solver.solve({j: v for j, v in enumerate(b) if v})
            if b not in span:
                assert x is None
                continue
            got = tuple(sum(x.get(i, 0) * dense[i][j] for i in range(nrows)) % mod
                        for j in range(ncols))
            assert got == b


def test_complex_cohomology_two_engine_passes(monkeypatch):
    # the kernel's Howell pivots feed the subquotient directly: two passes
    import crystalcalc.linalg as linalg
    ring = ZpN(3, 2)
    d_in = from_rows(ring, [[3, 0]])
    d_out = from_rows(ring, [[3, 0], [0, 0]])
    passes = []
    engine = linalg._howell_engine

    def counting(*args, **kwargs):
        passes.append(1)
        return engine(*args, **kwargs)

    monkeypatch.setattr(linalg, "_howell_engine", counting)
    got = complex_cohomology(d_in, d_out)
    assert len(passes) == 2
    assert got.exponents == (2,)
    assert got == subquotient(kernel(d_out), d_in)


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2)])
def test_complex_cohomology_matches_subquotient_of_kernel(p, N):
    ring = ZpN(p, N)
    rng = random.Random(100 * p + N)
    for _ in range(40):
        n0, n1, n2 = rng.randint(0, 3), rng.randint(1, 4), rng.randint(0, 4)
        d_out = random_matrix(ring, rng, n1, n2)
        ker = kernel(d_out)
        mix = random_matrix(ring, rng, n0, ker.nrows)
        d_in = mix.mul(ker) if ker.nrows else Matrix.zero(ring, n0, n1)
        assert complex_cohomology(d_in, d_out) == \
            subquotient(kernel(d_out), d_in)


# -- the engine against the quadratic reference ---------------------------------


def _reference_reduce_above(ring, pivots):
    """Howell reduction above the pivots: every pivot column, left to right,
    cleared from every row above it by a scan of all earlier pivots."""
    mod, p = ring.modulus, ring.p
    cols = sorted(pivots)
    for c in cols:
        prow, ptrans, pv = pivots[c]
        for c2 in cols:
            if c2 >= c:
                break
            row2, trans2, _ = pivots[c2]
            x = row2.get(c, 0)
            if x:
                q = x // p ** pv
                linalg._sub_scaled(row2, prow, q, mod)
                if trans2 is not None:
                    linalg._sub_scaled(trans2, ptrans, q, mod)
    return [(c,) + tuple(pivots[c]) for c in cols]


def _reference_reduce(ring, pivots, vec):
    """Reduce a vector by a scan of every pivot in column order."""
    mod, p = ring.modulus, ring.p
    res = {j: v % mod for j, v in vec.items() if v % mod}
    coords = {}
    for idx, (c, row, _t, v) in enumerate(pivots):
        x = res.get(c, 0)
        if x:
            q = x // p ** v
            if q % mod:
                linalg._sub_scaled(res, row, q, mod)
                coords[idx] = q % mod
    return res, coords


def _reference_howell(ring, rows, transforms=None):
    pivots, zeros = linalg._howell_engine(ring, copy.deepcopy(rows),
                                          copy.deepcopy(transforms))
    return _reference_reduce_above(ring, pivots), zeros


def _scaled_random_rows(ring, rng, nrows, ncols):
    """Random sparse rows, some multiplied through by a power of p."""
    rows = []
    for _ in range(nrows):
        density = rng.choice((0.1, 0.3, 0.7))
        row = {j: rng.randrange(1, ring.modulus) for j in range(ncols)
               if rng.random() < density}
        scale = ring.p ** rng.randrange(ring.N) if rng.random() < 0.4 else 1
        rows.append({j: v * scale % ring.modulus for j, v in row.items()
                     if v * scale % ring.modulus})
    return rows


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 1), (3, 3)])
def test_engine_matches_quadratic_reference(p, N):
    ring = ZpN(p, N)
    rng = random.Random(1000 * p + N)
    for _ in range(120):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 9)
        rows = _scaled_random_rows(ring, rng, nrows, ncols)
        for transforms in (None, [{i: 1} for i in range(nrows)]):
            want = _reference_howell(ring, rows, transforms)
            echelon, zeros = linalg._howell_engine(
                ring, copy.deepcopy(rows), copy.deepcopy(transforms))
            zeros_before = copy.deepcopy(zeros)
            got = linalg._reduce_above(ring, echelon)
            # pivots, transforms and zero transforms; the zero transforms are
            # not aliased to pivot transforms that the reduction changes
            assert got == want[0]
            assert zeros == zeros_before == want[1]
        M = Matrix.from_row_dicts(ring, rows, ncols)
        units = [{i: 1} for i in range(nrows)]
        ref_pivots, ref_zeros = _reference_howell(ring, rows, units)
        # kernel: the Howell form of the zero transforms
        ker_pivots = _reference_howell(ring, ref_zeros)[0]
        assert kernel(M) == Matrix.from_row_dicts(
            ring, [row for _c, row, _t, _v in ker_pivots], nrows)
        basis = HowellBasis(ring, rows, ncols)
        solver = HowellBasis(ring, M, transforms=True)
        for _ in range(4):
            vec = _scaled_random_rows(ring, rng, 1, ncols)[0]
            if ref_pivots and rng.random() < 0.5:
                # a vector of the span, so that it reduces to zero
                vec = {}
                for _c, row, _t, _v in ref_pivots:
                    linalg._sub_scaled(vec, row, rng.randrange(ring.modulus),
                                       ring.modulus)
            res, coords = _reference_reduce(ring, ref_pivots, vec)
            got_res, got_coords = basis.reduce(vec)
            assert (got_res, got_coords) == (res, coords)
            assert list(got_coords) == list(coords)
            x = None
            if not res:
                x = {}
                for idx, q in coords.items():
                    linalg._sub_scaled(x, ref_pivots[idx][2], -q, ring.modulus)
            assert solver.solve(vec) == x


# -- the projected kernel ------------------------------------------------------


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 1), (3, 3)])
def test_projected_kernel_is_the_projection_of_the_leading_rows(p, N):
    # kernel(M, k): the first k coordinates, in order, of the Howell rows of
    # kernel(M) that lead below k; rows scaled by p^e give p-torsion
    ring = ZpN(p, N)
    rng = random.Random(300 * p + N)
    for _ in range(80):
        nrows, ncols = rng.randint(0, 9), rng.randint(1, 6)
        M = Matrix.from_row_dicts(
            ring, _scaled_random_rows(ring, rng, nrows, ncols), ncols)
        full = kernel(M)
        assert kernel(M, nrows) == full
        for k in range(nrows + 1):
            want = [{j: v for j, v in row.items() if j < k}
                    for row in full.row_dicts() if min(row) < k]
            got = kernel(M, k)
            assert (got.nrows, got.ncols) == (len(want), k)
            assert got.row_dicts() == want
            assert_rows_validated(got)
        assert kernel(M, 0).nrows == 0


@pytest.mark.parametrize("p,N", [(2, 2), (3, 1), (2, 3)])
def test_projected_kernel_spans_the_projected_brute_force_kernel(p, N):
    ring = ZpN(p, N)
    rng = random.Random(400 * p + N)
    for _ in range(10):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 3)
        M = Matrix.from_row_dicts(
            ring, _scaled_random_rows(ring, rng, nrows, ncols), ncols)
        brute = brute_kernel(ring, to_dense(M), nrows, ncols)
        for k in range(nrows + 1):
            got = kernel(M, k)
            span = enumerate_span(ring, to_dense(got), k) if got.nrows \
                else {tuple([0] * k)}
            assert span == {x[:k] for x in brute}


def test_projected_kernel_rejects_a_projection_out_of_range():
    M = Matrix.identity(ZpN(3, 2), 2)
    for k in (-1, 3):
        with pytest.raises(ValueError):
            kernel(M, k)


# -- row storage -------------------------------------------------------------


def test_public_constructors_validate():
    ring = ZpN(3, 2)
    with pytest.raises(IndexError):
        Matrix(ring, 2, 2, {(0, 2): 1})
    with pytest.raises(IndexError):
        Matrix(ring, 2, 2, {(2, 0): 1})
    with pytest.raises(IndexError):
        Matrix.from_row_dicts(ring, [{}, {-1: 1}], 2)
    # entries are reduced mod p^N and zeros are dropped
    M = Matrix(ring, 2, 3, {(0, 0): 10, (0, 2): 9, (1, 1): -1})
    assert M.row_dicts() == [{0: 1}, {1: 8}]
    assert Matrix.from_row_dicts(ring, [{0: 10, 2: 18}, {1: -1}], 3) == M
    assert_rows_validated(M)


def test_row_dicts_are_copies():
    ring = ZpN(3, 2)
    M = from_rows(ring, [[1, 2], [0, 3]])
    before = M.row_dicts()
    rows = M.row_dicts()
    rows[0][1] = 5
    rows[1].clear()
    rows.append({0: 1})
    assert M.row_dicts() == before
    assert M == from_rows(ring, [[1, 2], [0, 3]])
    K = kernel(M)
    rows = K.row_dicts()
    for row in rows:
        row[0] = 7
    assert K == kernel(M)


def test_products_store_validated_rows():
    # kernel, mul, add, scale, identity and zero build through the trusted
    # constructor: their rows must be those of the validated rebuild, also
    # when the arithmetic cancels entries or scales them to zero
    rng = random.Random(11)
    for ring in (ZpN(2, 3), ZpN(3, 2), ZpN(5, 1)):
        for _ in range(25):
            n, k, m = (rng.randint(0, 6) for _ in range(3))
            A = random_matrix(ring, rng, n, k)
            B = random_matrix(ring, rng, k, m)
            C = random_matrix(ring, rng, n, k)
            built = [A.mul(B), A.add(C), A.add(A.scale(-1)),
                     A.scale(ring.p), A.scale(ring.p ** (ring.N - 1)),
                     A.scale(ring.modulus + 2), kernel(A), kernel(B),
                     Matrix.identity(ring, n),
                     Matrix.zero(ring, n, k)]
            for M in built:
                assert_rows_validated(M)
            assert A.add(A.scale(-1)).is_zero()


@pytest.mark.parametrize("p,N", [(2, 3), (3, 2), (5, 1)])
def test_block_matrix_matches_dense_assembly(p, N):
    ring = ZpN(p, N)
    mod = ring.modulus
    rnd = random.Random(p * 10 + N)
    # an empty row block, an empty column block, and a column block
    # ("unused") that no piece touches
    row_blocks = [("a", 2), ("empty", 0), ("b", 3)]
    col_blocks = [("x", 3), ("unused", 2), ("z", 0), ("y", 1)]
    sizes = dict(row_blocks + col_blocks)

    def rand(r, c):
        return from_rows(ring, [[rnd.randrange(mod) for _ in range(c)]
                                for _ in range(r)], c)

    pieces = [(r, c, rand(sizes[r], sizes[c]), s)
              for r, c, s in [("a", "x", 1), ("a", "y", -1), ("b", "x", -1),
                              ("b", "y", 1), ("empty", "x", -1),
                              ("b", "z", 1)]]
    # dense reference, offsets written out by hand
    row_start = {"a": 0, "empty": 2, "b": 2}
    col_start = {"x": 0, "unused": 3, "z": 5, "y": 5}
    dense = [[0] * 6 for _ in range(5)]
    for r, c, M, s in pieces:
        for i, row in enumerate(to_dense(M)):
            for j, v in enumerate(row):
                dense[row_start[r] + i][col_start[c] + j] = s * v % mod
    got = block_matrix(ring, row_blocks, col_blocks, pieces)
    assert (got.nrows, got.ncols) == (5, 6)
    assert to_dense(got) == dense
    assert any(s == -1 and M.nrows and not M.is_zero()
               for _r, _c, M, s in pieces)
    assert_rows_validated(got)


def test_block_matrix_rejects_misplaced_pieces():
    ring = ZpN(3, 2)
    blocks = [("a", 2), ("b", 1)]
    square = Matrix.identity(ring, 2)
    with pytest.raises(ValueError):
        block_matrix(ring, blocks, blocks, [("a", "b", square, 1)])
    with pytest.raises(ValueError):
        block_matrix(ring, blocks, blocks, [("a", "a", square, 3)])
    with pytest.raises(ValueError):
        block_matrix(ring, blocks, blocks,
                     [("a", "a", square, 1), ("a", "a", square, -1)])
