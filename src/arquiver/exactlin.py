"""Exact dense linear algebra over prime fields GF(p).

Matrices are immutable wrappers around int64 numpy arrays with entries in
[0, p).  `Matrix(field, entries)` checks and reduces what it is given; the
results of this module's own operations are already reduced, and
`Matrix._reduced` wraps them as they are.  Zero-row and zero-column shapes
are first-class: a 0 x n matrix is the unique map from an n-dimensional
space to the zero space.

All functions are pure; nothing here ever mutates an argument.
"""

from __future__ import annotations

import math

import numpy as np

from . import _gfkernel


def backend() -> str:
    """Name of the active kernel backend: "c" or "python"."""
    return _gfkernel.BACKEND


def _is_prime(n: int) -> bool:
    """Trial division by 2..isqrt(n): about 5 ms for 2^31 - 1, once per field."""
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


class PrimeField:
    """GF(p) for a prime 2 <= p <= 2^31 - 1."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p <= 2**31 - 1):
            raise ValueError(f"field order out of range: {p!r}")
        if not _is_prime(p):
            raise ValueError(f"field order is not prime: {p}")
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("PrimeField is immutable")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"


class Matrix:
    """Immutable matrix over a PrimeField."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, entries):
        arr = np.asarray(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be 2-dimensional, got shape {arr.shape}")
        arr = np.ascontiguousarray(arr % field.p)
        arr.setflags(write=False)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)

    @classmethod
    def _reduced(cls, field: PrimeField, arr: np.ndarray) -> "Matrix":
        """Wrap a 2-D int64 array whose entries are already in [0, p), without
        a copy or a `% p`.  The array becomes read-only; if it is a view, the
        Matrix keeps its base array alive, so copy a small slice of a large
        buffer before wrapping it."""
        arr.setflags(write=False)
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "a", arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zeros(field: PrimeField, rows: int, cols: int) -> "Matrix":
        return Matrix(field, np.zeros((rows, cols), dtype=np.int64))

    @staticmethod
    def identity(field: PrimeField, n: int) -> "Matrix":
        return Matrix(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.a.shape[0], self.a.shape[1])

    def __getitem__(self, ij):
        return int(self.a[ij])

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.field == self.field
            and other.a.shape == self.a.shape
            and bool(np.array_equal(other.a, self.a))
        )

    def __hash__(self):
        return hash((self.field.p, self.a.shape, self.a.tobytes()))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        return multiply(self, other)

    def is_zero(self) -> bool:
        return not self.a.any()

    def __repr__(self):
        if self.rows * self.cols <= 36:
            return f"Matrix({self.field!r}, {self.tolist()})"
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def _check_same_field(a: Matrix, b: Matrix):
    if a.field != b.field:
        raise ValueError(f"field mismatch: {a.field!r} vs {b.field!r}")


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    red, piv = _gfkernel.rref(m.a, m.field.p)
    return Matrix._reduced(m.field, red), list(piv)


def pivots(m: Matrix) -> list[int]:
    """The pivot columns of `rref(m)`, by forward elimination: no reduced form is built."""
    return _gfkernel.pivots(m.a, m.field.p)


def rank(m: Matrix) -> int:
    return len(pivots(m))


def multiply(a: Matrix, b: Matrix) -> Matrix:
    _check_same_field(a, b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch for multiply: {a.shape} @ {b.shape}")
    return Matrix._reduced(a.field, _gfkernel.matmul(a.a, b.a, a.field.p))


def add(a: Matrix, b: Matrix) -> Matrix:
    _check_same_field(a, b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch for add: {a.shape} vs {b.shape}")
    return Matrix._reduced(a.field, (a.a + b.a) % a.field.p)


def transpose(m: Matrix) -> Matrix:
    return Matrix._reduced(m.field, m.a.T.copy())


def hstack(mats: list[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("hstack of nothing")
    return Matrix._reduced(mats[0].field, np.hstack([m.a for m in mats]))


def kernel_basis(m: Matrix) -> Matrix:
    """Basis of the right kernel, as columns of an (m.cols x nullity) matrix.

    Canonical form: free variables are set to 1 one at a time, in increasing
    column order.  So the basis is the identity at the free rows, and each
    column's last nonzero entry is its free row f: its other entries sit at
    the pivot rows c (row i of rref(m) has its pivot in column c), where
    they are -red[i, f], and red[i, f] = 0 for f < c, as red is in echelon
    form.  `free_rows` reads the free rows off this way.
    """
    red, pivots = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    out = np.zeros((m.cols, len(free)), dtype=np.int64)
    # Most systems are tiny and many have no free column or no pivot; the
    # guards skip numpy's indexing overhead there.
    if free:
        out[free, range(len(free))] = 1
        if pivots:
            out[pivots] = -red.a[: len(pivots)][:, free]
    return Matrix(m.field, out)


def free_rows(basis: Matrix) -> np.ndarray:
    """The free row of each column of a `kernel_basis`: its last nonzero entry."""
    if not basis.cols:
        return np.zeros(0, dtype=np.intp)
    return basis.rows - 1 - (basis.a[::-1] != 0).argmax(axis=0)


def solve(m: Matrix, b: Matrix) -> Matrix | None:
    """Any x with m @ x == b, or None when the system is inconsistent.

    b may have several columns; all are solved simultaneously.
    """
    _check_same_field(m, b)
    if b.rows != m.rows:
        raise ValueError(f"dimension mismatch for solve: {m.shape} vs rhs {b.shape}")
    aug = np.hstack([m.a, b.a])
    red, pivots = _gfkernel.rref(aug, m.field.p)
    if pivots and pivots[-1] >= m.cols:
        return None
    x = np.zeros((m.cols, b.cols), dtype=np.int64)
    x[pivots] = red[: len(pivots), m.cols :]
    return Matrix._reduced(m.field, x)


def inverse(m: Matrix) -> Matrix | None:
    """Two-sided inverse, or None when m is not invertible."""
    if m.rows != m.cols:
        return None
    return solve(m, Matrix.identity(m.field, m.rows))


def column_space_basis(m: Matrix) -> Matrix:
    """Basis of the column space: the pivot columns of m."""
    return Matrix._reduced(m.field, m.a[:, pivots(m)])
