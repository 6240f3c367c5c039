"""Pure-numpy GF(p) kernel: same two-function API as the compiled _gfcore.

Everything is int64 and exact.  Row operations keep every intermediate in
[-(p-1)^2 * k, (p-1)^2] for small k, which fits int64 for p < 2^31.
"""

from __future__ import annotations

import numpy as np

# largest accumulator we allow before reducing mod p
_ACC_LIMIT = 2**62


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over GF(p).

    Returns (reduced copy, pivot column indices).  Deterministic: columns are
    scanned left to right and the first row with a nonzero entry is the pivot.
    """
    m = np.array(a, dtype=np.int64, order="C", copy=True)
    rows, cols = m.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        # row r is zero left of column c, so only columns c: change
        piv = int(m[r, c])
        if piv != 1:
            m[r, c:] = (m[r, c:] * pow(piv, p - 2, p)) % p
        col = m[:, c].copy()
        col[r] = 0
        hit = np.nonzero(col)[0]
        if hit.size:
            # entries stay within +-(p-1)^2 before the reduction
            m[hit, c:] = (m[hit, c:] - col[hit, None] * m[r, c:][None, :]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p with chunked accumulation to avoid int64 overflow."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    step = max(1, _ACC_LIMIT // ((p - 1) ** 2 or 1))
    if inner <= step:
        return (a @ b) % p
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for s in range(0, inner, step):
        e = min(inner, s + step)
        out = (out + a[:, s:e] @ b[s:e, :]) % p
    return out
