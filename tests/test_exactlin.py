import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver.exactlin import (
    Matrix,
    PrimeField,
    free_rows,
    inverse,
    kernel_basis,
    multiply,
    pivots,
    rank,
    rref,
    solve,
)

F5 = PrimeField(5)
F2 = PrimeField(2)


def test_primefield_rejects_nonprime():
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(2**31)  # out of range
    assert PrimeField(2).p == 2
    assert PrimeField(2147483647).p == 2147483647  # 2^31 - 1 is prime


@pytest.mark.python_O
def test_primefield_accepts_exactly_the_primes():
    # a sieve for n < 10^4, then the largest order, Carmichael numbers, an
    # odd composite just below it and the square of a prime near sqrt(2^31)
    n = 10**4
    sieve = np.ones(n, dtype=bool)
    sieve[:2] = False
    for q in range(2, 100):
        sieve[q * q :: q] &= ~sieve[q]
    for k in range(n):
        if sieve[k]:
            assert PrimeField(k).p == k
        else:
            with pytest.raises(ValueError):
                PrimeField(k)
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    assert 46337**2 == 2147117569
    for composite in (561, 41041, 2147483645, 2147117569):
        with pytest.raises(ValueError):
            PrimeField(composite)
    for out_of_range in (-7, 0, 2**31, 2**61 - 1):
        with pytest.raises(ValueError):
            PrimeField(out_of_range)


def test_entries_reduced_mod_p():
    m = Matrix(F5, [[7, -1], [10, 4]])
    assert m.tolist() == [[2, 4], [0, 4]]


def test_rref_frozen_example():
    # [[2,4],[1,2]] over GF(5) -> [[1,2],[0,0]], pivots [0]
    m = Matrix(F5, [[2, 4], [1, 2]])
    red, pivots = rref(m)
    assert red.tolist() == [[1, 2], [0, 0]]
    assert pivots == [0]


def test_kernel_frozen_example():
    # kernel of [[1,2]] over GF(5) is spanned by (3,1)^t
    k = kernel_basis(Matrix(F5, [[1, 2]]))
    assert k.tolist() == [[3], [1]]


def test_solve_frozen_examples():
    x = solve(Matrix(F5, [[1], [2]]), Matrix(F5, [[1], [2]]))
    assert x is not None and x.tolist() == [[1]]
    assert solve(Matrix(F5, [[0]]), Matrix(F5, [[1]])) is None
    with pytest.raises(ValueError):
        solve(Matrix(F5, [[1, 2]]), Matrix(F5, [[1], [2]]))


def test_zero_row_and_zero_column_shapes():
    z = Matrix.zeros(F5, 0, 3)
    red, pivots = rref(z)
    assert red.shape == (0, 3) and pivots == []
    assert kernel_basis(z).tolist() == np.eye(3, dtype=int).tolist()
    tall = Matrix.zeros(F5, 3, 0)
    assert kernel_basis(tall).shape == (0, 0)
    prod = multiply(z, Matrix.zeros(F5, 3, 4))
    assert prod.shape == (0, 4)
    assert solve(Matrix.zeros(F5, 0, 2), Matrix.zeros(F5, 0, 1)).shape == (2, 1)


def test_matrices_immutable():
    m = Matrix(F5, [[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.a[0, 0] = 3
    with pytest.raises(AttributeError):
        m.field = F2


def _in_column_space(span, v):
    """Whether every column of v lies in the column space of span: no pivot
    of [span | v] lands in v's block."""
    piv = pivots(Matrix(span.field, np.hstack([span.a, v.a])))
    return not piv or piv[-1] < span.cols


def _random_matrix(rng, field, rows, cols):
    return Matrix(field, rng.integers(0, field.p, size=(rows, cols)))


def test_kernel_and_rank_nullity_randomized():
    rng = np.random.default_rng(0)
    for p in (2, 3, 5, 13):
        field = PrimeField(p)
        for _ in range(40):
            m = _random_matrix(rng, field, int(rng.integers(0, 7)), int(rng.integers(0, 7)))
            red, pivots = rref(m)
            k = kernel_basis(m)
            assert len(pivots) + k.cols == m.cols  # rank-nullity
            if k.cols:
                assert multiply(m, k).is_zero()
            # rref is idempotent
            red2, pivots2 = rref(red)
            assert red2 == red and pivots2 == pivots


def test_solve_exactness_randomized():
    rng = np.random.default_rng(1)
    field = PrimeField(5)
    for _ in range(40):
        m = _random_matrix(rng, field, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        x0 = _random_matrix(rng, field, m.cols, 2)
        b = multiply(m, x0)
        x = solve(m, b)
        assert x is not None
        assert multiply(m, x) == b
        assert _in_column_space(m, b)


def test_inverse_randomized():
    rng = np.random.default_rng(2)
    field = PrimeField(7)
    for _ in range(25):
        n = int(rng.integers(1, 6))
        m = _random_matrix(rng, field, n, n)
        inv = inverse(m)
        if inv is not None:
            assert multiply(m, inv) == Matrix.identity(field, n)
            assert multiply(inv, m) == Matrix.identity(field, n)
        else:
            assert rank(m) < n


def test_backends_agree():
    from arquiver import _gfcore_py, _gfkernel

    try:
        from arquiver import _gfcore
    except ImportError:
        pytest.skip("compiled kernel not built")
    rng = np.random.default_rng(3)
    for p in (2, 5, 2147483647):
        for _ in range(20):
            a = rng.integers(0, p, size=(int(rng.integers(0, 6)), int(rng.integers(0, 6))))
            r1, p1 = _gfcore_py.rref(a, p)
            r2, p2 = _gfcore.rref(a, p)
            assert np.array_equal(r1, r2) and list(p1) == list(p2)
            assert _gfcore_py.pivots(a, p) == list(p2) and list(_gfkernel.pivots(a, p)) == p1
            b = rng.integers(0, p, size=(a.shape[1], int(rng.integers(0, 6))))
            assert np.array_equal(_gfcore_py.matmul(a, b, p), _gfcore.matmul(a, b, p))


def test_large_prime_no_overflow():
    p = 2147483647
    field = PrimeField(p)
    a = Matrix(field, np.full((1, 200), p - 1, dtype=np.int64))
    b = Matrix(field, np.full((200, 1), p - 1, dtype=np.int64))
    got = multiply(a, b)[0, 0]
    assert got == (200 * (p - 1) * (p - 1)) % p


@pytest.mark.parametrize("p", [2, 3, 2147483647])
def test_stacked_matmul_equals_the_per_matrix_product(p):
    from arquiver import _gfcore_py

    # at p = 2^31 - 1 a chunk sums a single product, so the inner dimension 7
    # runs the chunked accumulation
    assert (_gfcore_py._ACC_LIMIT // (p - 1) ** 2 < 7) == (p == 2147483647)
    rng = np.random.default_rng(p)
    a = rng.integers(max(0, p - 3), p, size=(4, 5, 7))  # entries near p - 1
    b = rng.integers(0, p, size=(4, 7, 3))
    stacked = _gfcore_py.matmul(a, b, p)
    assert stacked.shape == (4, 5, 3)
    for x, y, xy in zip(a, b, stacked):
        assert np.array_equal(xy, _gfcore_py.matmul(x, y, p))
        assert xy.tolist() == _reference_product(x.tolist(), y.tolist(), p, 3)
    # one matrix against a stack broadcasts
    one = a[0, :3, :5]
    assert np.array_equal(_gfcore_py.matmul(one, a[:, :5, :], p)[2], _gfcore_py.matmul(one, a[2, :5, :], p))


# ---------------------------------------------------------------------------
# reference Gauss-Jordan on Python integers


def _reference_rref(rows, cols, p):
    """Left-to-right Gauss-Jordan on lists of Python ints: (rows, pivots)."""
    m = [[x % p for x in row] for row in rows]
    pivots = []
    r = 0
    for c in range(cols):
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _reference_kernel(rows, cols, p):
    """Canonical null-space basis: one column per free variable, set to 1."""
    red, pivots = _reference_rref(rows, cols, p)
    free = [c for c in range(cols) if c not in pivots]
    out = [[0] * len(free) for _ in range(cols)]
    for j, fc in enumerate(free):
        out[fc][j] = 1
        for i, pc in enumerate(pivots):
            out[pc][j] = -red[i][fc] % p
    return out


def _reference_product(a, b, p, width):
    """a @ b mod p on lists of rows; b has `width` columns, and maybe no rows."""
    return [[sum(x * b[k][j] for k, x in enumerate(row)) % p for j in range(width)] for row in a]


_PRIMES = st.sampled_from([2, 3, 2147483647])


@st.composite
def _matrices(draw):
    """(p, rows, cols, entries) with up to 6 rows and columns, 0 included."""
    p = draw(_PRIMES)
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    # mostly small entries, so that rank drops and kernels are common at p = 2^31 - 1
    entry = st.one_of(st.integers(0, 2), st.integers(0, p - 1))
    return p, rows, cols, [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_rref_and_kernel_match_reference_gauss_jordan(mat):
    p, rows, cols, entries = mat
    m = Matrix(PrimeField(p), np.array(entries, dtype=np.int64).reshape(rows, cols))
    red, pivots = rref(m)
    ref_red, ref_pivots = _reference_rref(entries, cols, p)
    assert pivots == ref_pivots
    assert red.tolist() == ref_red
    k = kernel_basis(m)
    assert k.shape == (cols, cols - len(ref_pivots))
    assert k.tolist() == _reference_kernel(entries, cols, p)


@pytest.mark.python_O
@settings(max_examples=200, deadline=None)
@given(_matrices())
def test_kernel_basis_is_the_identity_at_free_rows_that_end_its_columns(mat):
    # a kernel basis column is 1 at its free column, 0 at the other free
    # columns, and nonzero nowhere below its free column; `free_rows` and
    # the submodule maps of `repmod.kernel` read the basis that way
    p, rows, cols, entries = mat
    m = Matrix(PrimeField(p), np.array(entries, dtype=np.int64).reshape(rows, cols))
    pivot_set = set(rref(m)[1])
    free = [c for c in range(cols) if c not in pivot_set]
    k = kernel_basis(m).a
    assert (k[free] == np.eye(len(free), dtype=np.int64)).all()
    for j, f in enumerate(free):
        assert k[f, j] == 1 and not k[f + 1 :, j].any()
    assert free_rows(kernel_basis(m)).tolist() == free


@settings(max_examples=200, deadline=None)
@given(_matrices(), st.data())
def test_solve_answers_exactly_when_a_solution_exists(mat, data):
    p, rows, cols, entries = mat
    field = PrimeField(p)
    rhs_cols = data.draw(st.integers(0, 3))
    if data.draw(st.booleans()):
        # a consistent right-hand side m @ x0
        x0 = [[data.draw(st.integers(0, p - 1)) for _ in range(rhs_cols)] for _ in range(cols)]
        rhs = _reference_product(entries, x0, p, rhs_cols)
    else:
        rhs = [[data.draw(st.integers(0, p - 1)) for _ in range(rhs_cols)] for _ in range(rows)]
    m = Matrix(field, np.array(entries, dtype=np.int64).reshape(rows, cols))
    b = Matrix(field, np.array(rhs, dtype=np.int64).reshape(rows, rhs_cols))
    solvable = len(_reference_rref(entries, cols, p)[1]) == len(
        _reference_rref([r + s for r, s in zip(entries, rhs)], cols + rhs_cols, p)[1]
    )
    x = solve(m, b)
    assert (x is not None) == solvable
    assert _in_column_space(m, b) == solvable
    if x is not None:
        assert x.shape == (cols, rhs_cols)
        assert _reference_product(entries, x.tolist(), p, rhs_cols) == b.tolist()


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3, 5, 2147483647])
def test_pivots_are_the_pivot_columns_of_rref(p):
    from arquiver import _gfcore_py

    field = PrimeField(p)
    rng = np.random.default_rng(p % 1009)
    cases = [np.zeros(shape, dtype=np.int64) for shape in [(0, 4), (4, 0), (0, 0), (3, 5)]]
    cases += [np.eye(4, dtype=np.int64)[::-1], np.triu(np.ones((5, 3), dtype=np.int64))]
    for _ in range(150):
        rows, cols, k = (int(x) for x in rng.integers(1, 9, size=3))
        # a product through k dimensions has rank at most k; sparse ones drop further
        a = _gfcore_py.matmul(rng.integers(0, p, size=(rows, k)), rng.integers(0, p, size=(k, cols)), p)
        a[rng.random(a.shape) < rng.random()] = 0
        cases.append(a)
    ranks = set()
    for a in cases:
        want = _gfcore_py.rref(a, p)[1]
        assert _gfcore_py.pivots(a, p) == want
        m = Matrix(field, a)
        assert pivots(m) == rref(m)[1] == want and rank(m) == len(want)
        ranks.add(("zero" if not want else "full" if len(want) == min(a.shape) else "between"))
    assert ranks == {"zero", "full", "between"}


@pytest.mark.python_O
def test_pivots_at_the_largest_prime_do_not_overflow():
    from arquiver import _gfcore_py

    p = 2147483647
    rng = np.random.default_rng(31)
    for rows, cols in [(6, 8), (8, 6), (7, 7)]:
        for _ in range(10):
            a = rng.integers(p - 3, p, size=(rows, cols))  # entries near p - 1
            a[:, -1] = a[:, 0]  # a repeated column is never a pivot
            want = _reference_rref(a.tolist(), cols, p)[1]
            assert _gfcore_py.pivots(a, p) == want == _gfcore_py.rref(a, p)[1]
            assert cols - 1 not in want
