"""Pure-numpy GF(p) kernel: the compiled _gfcore's rref and matmul, plus
pivots, which the compiled backend reads off its rref.

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
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        k = r + int(nz[0])
        if k != r:
            m[r], m[k] = m[k], m[r].copy()
        # row r is zero left of column c, so only columns c: change
        piv = int(m[r, c])
        if piv != 1:
            m[r, c:] = m[r, c:] * pow(piv, p - 2, p) % p
        hit = m[:, c].nonzero()[0]
        if hit.size > 1:
            hit = hit[hit != r]
            # entries stay within +-(p-1)^2 before the reduction
            m[hit, c:] = (m[hit, c:] - m[hit, c, None] * m[r, c:]) % p
        pivots.append(c)
        r += 1
    return m, pivots


def pivots(a: np.ndarray, p: int) -> list[int]:
    """The pivot columns of `rref(a, p)`, by forward elimination alone.

    Only the rows below each pivot are cleared; the pivot row is neither
    scaled nor used to clear the rows above it.  The pivot columns are the
    columns that are not in the span of the columns left of them, so they
    do not depend on how far the elimination goes.
    """
    m = np.array(a, dtype=np.int64, order="C", copy=True)
    rows, cols = m.shape
    r = 0
    out: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        k = r + int(nz[0])
        if k != r:
            m[r], m[k] = m[k], m[r].copy()
        if nz.size > 1:
            # row k was the first nonzero, so the swap leaves the others in place;
            # column c below the pivot is never read again
            hit = nz[1:] + r
            f = m[hit, c] * pow(int(m[r, c]), p - 2, p) % p
            m[hit, c + 1 :] = (m[hit, c + 1 :] - f[:, None] * m[r, c + 1 :]) % p
        out.append(c)
        r += 1
    return out


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) mod p with chunked accumulation to avoid int64 overflow;
    a and b may be stacks of matrices too (the compiled kernel takes 2-D only)."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    inner = a.shape[-1]
    step = max(1, _ACC_LIMIT // ((p - 1) ** 2 or 1))
    if inner <= step:
        out = a @ b
        out %= p  # in place: one product-sized array at a time
        return out
    out = 0
    for s in range(0, inner, step):
        out = (out + a[..., s : s + step] @ b[..., s : s + step, :]) % p
    return out
