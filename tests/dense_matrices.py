"""Test helpers for ``Matrix``: dense list-of-lists views, for tests that
enumerate spans, and the check of its stored rows."""

from crystalcalc.linalg import Matrix


def from_rows(ring, rows, ncols=None):
    """The matrix with the given dense rows."""
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("ragged rows")
    entries = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)}
    return Matrix(ring, len(rows), ncols, entries)


def to_dense(M):
    """The rows of M as lists, zeros included."""
    rows = [[0] * M.ncols for _ in range(M.nrows)]
    for i, row in enumerate(M.row_dicts()):
        for j, v in row.items():
            rows[i][j] = v
    return rows


def assert_rows_validated(M):
    """M stores exactly the rows of its validated rebuild.

    The rebuild reduces every entry, drops zeros and raises IndexError on a
    column out of range, so equality means M holds no zero, unreduced or
    out-of-range entry.
    """
    rows = M.row_dicts()
    assert len(rows) == M.nrows
    assert M == Matrix.from_row_dicts(M.ring, rows, M.ncols)
