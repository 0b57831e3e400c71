"""Random LDPC construction by socket permutation.

Builds an m x n matrix with constant row degree; column degrees are balanced
automatically (total sockets spread as evenly as possible over columns).
Duplicate edges left by the random permutation are repaired by re-drawing
swap partners.  Dense shapes the repair cannot untangle fall back to a
cyclic construction with the same degrees.  No girth optimization is
attempted.
"""

from __future__ import annotations

import numpy as np

from .matrix import CodeError, ParityCheckMatrix


def random_code(n: int, m: int, row_degree: int, seed: int, label: str = "") -> ParityCheckMatrix:
    """Sample a random parity-check matrix, deterministic under seed."""
    if n < 1 or m < 1:
        raise CodeError("n and m must be positive")
    if row_degree < 1 or row_degree > n:
        raise CodeError(f"row degree {row_degree} infeasible for {n} columns")
    sockets = m * row_degree
    if sockets < n:
        raise CodeError(f"{sockets} sockets cannot cover {n} columns")

    base, extra = divmod(sockets, n)
    col_degree = np.full(n, base, dtype=np.int64)
    col_degree[:extra] += 1

    row_of_socket = np.repeat(np.arange(m, dtype=np.int64), row_degree)
    col_of_socket = np.repeat(np.arange(n, dtype=np.int64), col_degree)

    rng = np.random.Generator(np.random.PCG64(seed))
    for _ in range(200):
        perm = rng.permutation(sockets)
        cols = col_of_socket[perm]
        if _repair_duplicates(row_of_socket, cols, rng):
            break
    else:
        # row r takes columns (r*d + k) mod n: column c is hit by exactly
        # col_degree[c] rows, and a row of d <= n consecutive columns has no
        # duplicate
        cols = np.arange(sockets, dtype=np.int64) % n
    rows = list(np.sort(cols.reshape(m, row_degree), axis=1).astype(np.int32))
    h = ParityCheckMatrix(n_cols=n, n_rows=m, rows=rows, label=label)
    h.validate()
    return h


def _repair_duplicates(row_of_socket: np.ndarray, cols: np.ndarray, rng) -> bool:
    """Swap socket targets until no row sees the same column twice.

    Each pass finds every socket whose column already appeared earlier in
    its row, in ascending socket order, and swaps each in turn with a
    uniformly drawn partner.
    """
    sockets = len(cols)
    # (row, column) key of each socket, scaled so that adding the socket
    # index keeps keys unique: one plain sort orders them by key, then socket
    row_key = row_of_socket * (int(cols.max()) + 1) * sockets + np.arange(sockets)
    c = cols.tolist()
    for _ in range(100):
        ordered = np.sort(row_key + np.array(c, dtype=np.int64) * sockets)
        key, socket = np.divmod(ordered, sockets)
        # later occurrences of a (row, column) pair, in socket order
        dup = np.sort(socket[1:][key[1:] == key[:-1]]).tolist()
        if not dup:
            cols[:] = c
            return True
        for i, j in zip(dup, rng.integers(sockets, size=len(dup)).tolist()):
            c[i], c[j] = c[j], c[i]
    return False
