import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import exactlin, repmod
from arquiver.errors import BudgetExhausted
from arquiver.exactlin import (
    Matrix,
    PrimeField,
    add,
    column_space_basis,
    hstack,
    inverse,
    kernel_basis,
    multiply,
    rref,
    solve,
)
from arquiver.quivalg import Quiver, build_algebra, opposite, t2_of
from arquiver.repmod import (
    ModuleMap,
    Representation,
    check_intertwines,
    check_relations,
    cokernel,
    compose,
    decompose,
    direct_sum,
    hom_basis,
    identity_map,
    image,
    indecomposable_injective,
    indecomposable_projective,
    injective_envelope,
    is_isomorphic,
    is_mono,
    isomorphism,
    k_dual,
    kernel,
    module_from_json_dict,
    module_to_json_dict,
    projective_cover,
    random_module,
    zero_module,
)


def loop_algebra(power, p=5):
    return build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x",) * power)]], PrimeField(p))


def a2_algebra(p=5):
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], PrimeField(p))


def simple(alg, v):
    dims = [1 if i == v else 0 for i in range(alg.quiver.vertices)]
    maps = {
        a.id: Matrix.zeros(alg.field, dims[a.target], dims[a.source])
        for a in alg.quiver.arrows
    }
    return Representation(alg, dims, maps)


def brute_hom_count(m, n):
    """Count intertwiners by enumerating every vertex-map tuple.  Slow oracle."""
    alg = m.algebra
    p = alg.field.p
    shapes = [(n.dims[i], m.dims[i]) for i in range(alg.quiver.vertices)]
    total = sum(r * c for r, c in shapes)
    assert p**total <= 10**6, "oracle only for tiny spaces"
    count = 0
    for flat in itertools.product(range(p), repeat=total):
        vms = []
        pos = 0
        for r, c in shapes:
            vms.append(Matrix(alg.field, np.array(flat[pos : pos + r * c], dtype=np.int64).reshape(r, c)))
            pos += r * c
        ok = True
        for a in alg.quiver.arrows:
            lhs = (n.arrow_maps[a.id].a @ vms[a.source].a) % p
            rhs = (vms[a.target].a @ m.arrow_maps[a.id].a) % p
            if not np.array_equal(lhs, rhs):
                ok = False
                break
        if ok:
            count += 1
    return count


def test_hom_dims_frozen_over_loop_square():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = indecomposable_projective(alg, 0)
    assert lam.dims == (2,)
    assert len(hom_basis(s, s)) == 1
    assert len(hom_basis(lam, s)) == 1
    # independent brute-force oracle agrees
    assert brute_hom_count(s, s) == 5 ** len(hom_basis(s, s))
    assert brute_hom_count(lam, s) == 5 ** len(hom_basis(lam, s))
    assert brute_hom_count(lam, lam) == 5 ** len(hom_basis(lam, lam))
    assert brute_hom_count(s, lam) == 5 ** len(hom_basis(s, lam))


def _kron_hom_system(m, n):
    """The intertwining system of hom_basis, built block by block with np.kron.

    Unknowns are the stacked column-major vec(f_i); arrow a: i -> j gives the
    rows (I (x) N(a)) vec(f_i) - (M(a)^T (x) I) vec(f_j).
    """
    alg = m.algebra
    sizes = [n.dims[i] * m.dims[i] for i in range(alg.quiver.vertices)]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    blocks = []
    for a in alg.quiver.arrows:
        i, j = a.source, a.target
        block = np.zeros((n.dims[j] * m.dims[i], offsets[-1]), dtype=np.int64)
        block[:, offsets[i] : offsets[i + 1]] += np.kron(
            np.eye(m.dims[i], dtype=np.int64), n.arrow_maps[a.id].a
        )
        block[:, offsets[j] : offsets[j + 1]] -= np.kron(
            m.arrow_maps[a.id].a.T, np.eye(n.dims[j], dtype=np.int64)
        )
        blocks.append(block)
    return Matrix(alg.field, np.vstack(blocks)), offsets


def _comm_square_algebra(p):
    return build_algebra(
        Quiver(4, [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)]),
        [[(1, ("a", "c")), (-1, ("b", "d"))]],
        PrimeField(p),
    )


def _a3_radical_square_zero(p):
    return build_algebra(Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [[(1, ("a", "b"))]], PrimeField(p))


def _reference_direct_sum_maps(summands):
    """The inclusions' and projections' matrices of a direct sum, entry by
    entry: summand k sits after the summands before it at each vertex."""
    nv = len(summands[0].dims)
    dims = [sum(s.dims[i] for s in summands) for i in range(nv)]
    incls, projs = [], []
    for k, s in enumerate(summands):
        ivms, pvms = [], []
        for i in range(nv):
            before = sum(t.dims[i] for t in summands[:k])
            ia = np.zeros((dims[i], s.dims[i]), dtype=np.int64)
            for r in range(s.dims[i]):
                ia[before + r, r] = 1
            ivms.append(ia)
            pvms.append(ia.T)
        incls.append(ivms)
        projs.append(pvms)
    return incls, projs


def test_direct_sum_maps_match_the_entrywise_reference():
    alg = _a3_radical_square_zero(3)
    rng = np.random.default_rng(3)
    mods = [zero_module(alg), repmod.simple_module(alg, 1)] + [random_module(alg, rng) for _ in range(3)]
    for summands in (mods[1:2], mods, mods[::-1], [mods[2], mods[0], mods[2]]):
        total, incls, projs = direct_sum(summands)
        want_incls, want_projs = _reference_direct_sum_maps(summands)
        for f, g, want_f, want_g, s in zip(incls, projs, want_incls, want_projs, summands):
            assert (f.source, f.target, g.source, g.target) == (s, total, total, s)
            assert [vm.tolist() for vm in f.vertex_maps] == [w.tolist() for w in want_f]
            assert [vm.tolist() for vm in g.vertex_maps] == [w.tolist() for w in want_g]
            # the sum acts on summand k by its arrow maps: the inclusion intertwines them
            check_intertwines(f)
    with pytest.raises(ValueError, match="different algebras"):
        direct_sum([mods[1], repmod.simple_module(_a3_radical_square_zero(5), 1)])


@pytest.mark.parametrize("p", [2, 3, 5])
def test_hom_basis_matches_kron_system(p):
    rng = np.random.default_rng(p)
    for alg in (loop_algebra(3, p), _a3_radical_square_zero(p), _comm_square_algebra(p)):
        # the zero module and the simples have zero-dimensional vertices
        mods = [zero_module(alg)] + [repmod.simple_module(alg, v) for v in range(alg.quiver.vertices)]
        mods += [random_module(alg, rng) for _ in range(6)]
        for m, n in itertools.product(mods, repeat=2):
            system, offsets = _kron_hom_system(m, n)
            null = kernel_basis(system)
            basis = hom_basis(m, n)
            assert len(basis) == null.cols
            for c, f in enumerate(basis):
                check_intertwines(f)
                for i, vm in enumerate(f.vertex_maps):
                    chunk = null.a[offsets[i] : offsets[i + 1], c]
                    want = chunk.reshape((n.dims[i], m.dims[i]), order="F")
                    assert vm.a.shape == want.shape and np.array_equal(vm.a, want)


def test_projectives_frozen_over_a2():
    alg = a2_algebra()
    p0 = indecomposable_projective(alg, 0)
    p1 = indecomposable_projective(alg, 1)
    assert p0.dims == (1, 1)
    assert p1.dims == (0, 1)
    assert p0.arrow_maps["a"].tolist() == [[1]]


def test_injective_isomorphic_to_projective_when_selfinjective():
    alg = loop_algebra(2)
    assert is_isomorphic(indecomposable_injective(alg, 0), indecomposable_projective(alg, 0))


def test_yoneda_on_random_modules():
    rng = np.random.default_rng(7)
    for alg in (loop_algebra(2), loop_algebra(3), a2_algebra()):
        projs = [indecomposable_projective(alg, i) for i in range(alg.quiver.vertices)]
        for _ in range(50 // 3 + 1):
            m = random_module(alg, rng)
            for i, p in enumerate(projs):
                assert len(hom_basis(p, m)) == m.dims[i]


def test_kernel_cokernel_image_exactness():
    rng = np.random.default_rng(8)
    for alg in (loop_algebra(3), a2_algebra()):
        for _ in range(10):
            m = random_module(alg, rng)
            n = random_module(alg, rng)
            basis = hom_basis(m, n)
            if not basis:
                continue
            coeffs = rng.integers(0, 5, size=len(basis))
            f = repmod.map_from_coefficients(basis, [int(c) for c in coeffs])
            ker, incl = kernel(f)
            cok, proj = cokernel(f)
            im, iincl = image(f)
            for v in range(alg.quiver.vertices):
                assert ker.dims[v] + im.dims[v] == m.dims[v]  # rank-nullity
                assert cok.dims[v] == n.dims[v] - im.dims[v]
                # im f lies in im, whose dimension is the rank of f
                assert solve(iincl.vertex_maps[v], f.vertex_maps[v]) is not None
            assert compose(f, incl).is_zero()
            assert compose(proj, f).is_zero()
            assert is_mono(iincl)


def test_decompose_regular_module_frozen():
    # over k[x]/x^2: Lambda + S splits into summands of dims 2 and 1
    alg = loop_algebra(2)
    lam = indecomposable_projective(alg, 0)
    s = simple(alg, 0)
    total, _, _ = direct_sum([lam, s])
    cert = decompose(total)
    assert cert.certified
    assert sorted(x.dims for x in cert.summands) == [(1,), (2,)]
    assert_inclusions_make_a_direct_sum(total, cert)


def assert_inclusions_make_a_direct_sum(m, cert):
    """The inclusions of a certificate are maps into m whose columns, side
    by side, form an invertible matrix at each vertex: m is their direct sum."""
    for incl, x in zip(cert.inclusions, cert.summands):
        assert (incl.source, incl.target) == (x, m)
        check_intertwines(incl)
    for v in range(len(m.dims)):
        assert inverse(hstack([incl.vertex_maps[v] for incl in cert.inclusions])) is not None


def test_decompose_multiset_over_loop_cube():
    alg = loop_algebra(3)
    s = simple(alg, 0)
    j2_map = Matrix(alg.field, [[0, 0], [1, 0]])
    j2 = check_relations(Representation(alg, (2,), {"x": j2_map}))
    lam = indecomposable_projective(alg, 0)
    total, _, _ = direct_sum([j2, s, lam, j2])
    cert = decompose(total)
    assert cert.certified
    assert sorted(x.dims for x in cert.summands) == [(1,), (2,), (2,), (3,)]
    assert sum(x.total_dim for x in cert.summands) == total.total_dim
    for x, ev in zip(cert.summands, cert.indecomposability_evidence):
        assert ev


def _first_by_scan(totals, p):
    """Reference for first_combination: one combination at a time."""
    for coeffs in itertools.product(range(p), repeat=len(totals)):
        phi = sum(c * t for c, t in zip(coeffs, totals)) % p
        if (phi @ phi % p == phi).all() and phi.any() and (phi != np.eye(len(phi), dtype=np.int64)).any():
            return list(coeffs)
    return None


@pytest.mark.parametrize("p", [2, 3])
def test_first_combination_finds_the_first_nontrivial_idempotent(p, monkeypatch):
    alg = loop_algebra(2, p)
    s = simple(alg, 0)
    ss, _, _ = direct_sum([s, s])
    lam = indecomposable_projective(alg, 0)
    # End(S+S) = M_2(k); E12 and E21 span no idempotent but 0
    e12 = check_intertwines(ModuleMap(ss, ss, [Matrix(alg.field, [[0, 1], [0, 0]])]))
    e21 = check_intertwines(ModuleMap(ss, ss, [Matrix(alg.field, [[0, 0], [1, 0]])]))
    nil_basis = repmod._total_stack([e12, e21])
    assert repmod.first_combination(nil_basis, p) is None
    # End(Lambda) is local: no nontrivial idempotent
    assert repmod.first_combination(repmod._total_stack(hom_basis(lam, lam)), p) is None
    cases = [nil_basis, repmod._total_stack(hom_basis(ss, ss)), repmod._total_stack(hom_basis(lam, lam))]
    for batch in (repmod._ENUM_BATCH, 4):  # also across many small batches
        monkeypatch.setattr(repmod, "_ENUM_BATCH", batch)
        for totals in cases:
            assert repmod.first_combination(totals, p) == _first_by_scan(totals, p)
    coeffs = repmod.first_combination(repmod._total_stack(hom_basis(ss, ss)), p)
    e = repmod.map_from_coefficients(hom_basis(ss, ss), coeffs)
    assert compose(e, e) == e and not e.is_zero() and e != identity_map(ss)


def test_nilpotency_tests_do_not_overflow_for_large_primes():
    # dense 5 x 5 matrices over p = 2^31 - 1: one entry of a square sums five
    # products of size up to (p-1)^2, far past int64 unless accumulated in chunks
    p = 2147483647
    field = PrimeField(p)
    rng = np.random.default_rng(1)
    g = Matrix(field, rng.integers(0, p, size=(5, 5)))
    g_inv = inverse(g)
    nil = np.tril(rng.integers(0, p, size=(5, 5)), -1)
    idem = np.diag([1, 1, 0, 0, 0])

    def conj(a):
        return multiply(multiply(g, Matrix(field, a)), g_inv).a

    phi = np.stack([conj(nil), conj(idem), conj(idem + nil)])
    assert (phi > p // 2).sum() >= 30
    assert repmod._fitting_powers(phi, p).any(axis=(1, 2)).tolist() == [False, True, True]
    assert repmod.nontrivial_idempotent(phi, p).tolist() == [False, True, False]
    squares = repmod._power_stack(phi, 2, p)
    for a, sq in zip(phi, squares):
        assert (sq == multiply(Matrix(field, a), Matrix(field, a)).a).all()


LOCAL = "endomorphism algebra is local: scalars plus a nilpotent ideal"
EXHAUSTIVE = "no nontrivial idempotent endomorphism (exhaustive search)"


def test_decompose_splits_by_fitting_and_certifies_locality(monkeypatch):
    # the Fitting split and the locality certificate settle these pieces
    # without the exhaustive idempotent search
    def no_search(*args):
        raise AssertionError("exhaustive idempotent search reached")

    monkeypatch.setattr(repmod, "first_combination", no_search)
    alg = loop_algebra(2)
    s = simple(alg, 0)
    ss, _, _ = direct_sum([s, s])
    assert len(hom_basis(ss, ss)) == 4
    cert = decompose(ss)
    assert cert.certified
    assert len(cert.summands) == 2
    assert all(is_isomorphic(x, s) for x in cert.summands)
    for power in (2, 6):
        lam = indecomposable_projective(loop_algebra(power), 0)
        assert len(hom_basis(lam, lam)) == power
        cert = decompose(lam)
        assert cert.certified
        assert cert.summands == (lam,)
        assert cert.indecomposability_evidence == (LOCAL,)
    # Lambda again, with x acting by X = [[1, 1], [4, 4]]: the End basis is
    # 1 + X and 1, and (1 + X)^q is scalar for q = 5 but not for q = 2
    alg = loop_algebra(2)
    lam = check_relations(Representation(alg, (2,), {"x": Matrix(alg.field, [[1, 1], [4, 4]])}))
    assert [f.vertex_maps[0].tolist() for f in hom_basis(lam, lam)] == [[[2, 1], [4, 0]], [[1, 0], [0, 1]]]
    assert decompose(lam).indecomposability_evidence == (LOCAL,)
    # k[x]/(x^16) over GF(2)[x]/(x^20): t = 16, 2^16 combinations to search
    alg = loop_algebra(20, 2)
    cyclic = check_relations(Representation(alg, (16,), {"x": Matrix(alg.field, np.eye(16, k=-1, dtype=np.int64))}))
    assert len(hom_basis(cyclic, cyclic)) == 16
    cert = decompose(cyclic)
    assert cert.certified
    assert cert.indecomposability_evidence == (LOCAL,)


def _reference_nilpotent_span(nil, field):
    """Whether the span N of a stack of D x D matrices has N^D = 0, that is,
    whether N generates a nilpotent algebra (a nilpotent algebra of D x D
    matrices is strictly triangular in some basis): N, N^2, ..., one product
    span per power."""
    basis = prods = repmod._span_basis(nil, field)
    for _ in range(nil.shape[1] - 1):
        if not len(prods):
            return True
        prods = repmod._span_basis(np.stack([x @ y % field.p for x in basis for y in prods]), field)
    return not len(prods)


def _locality(totals, field):
    powers = repmod._fitting_powers(totals, field.p)
    scalars = repmod._scalar_parts(powers)
    return (powers == scalars).all(), repmod._local_radical(totals, powers, scalars, field)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_locality_is_closure_on_an_end_basis_only(p):
    field = PrimeField(p)

    def e(i, j, d):  # the matrix unit E_{i+1, j+1} of size d
        out = np.zeros((d, d), dtype=np.int64)
        out[i, j] = 1
        return out

    # nilpotent E12 and E21 span an N whose powers never vanish (E12 E21 = E11)
    assert not _reference_nilpotent_span(np.stack([e(0, 1, 2), e(1, 0, 2)]), field)
    assert _reference_nilpotent_span(np.stack([e(0, 1, 2), 2 * e(0, 1, 2)]), field)
    # an End basis of M_2(GF(p)) that is scalar plus nilpotent throughout:
    # N = sl_2 is not closed (E12 E21 = E11) and M_2 is not local
    one, e12, e21 = np.eye(2, dtype=np.int64), e(0, 1, 2), e(1, 0, 2)
    m2 = np.stack([one, e12, e21, (e(0, 0, 2) - e(1, 1, 2) + e12 - e21) % p])
    scalar, rad = _locality(m2, field)
    assert scalar and rad is None
    assert not _reference_nilpotent_span(m2[1:], field)
    # E12 and E23 span an N with N^3 = 0 that is not closed (E12 E23 = E13):
    # not an End basis, so the closure test and N^D = 0 differ there
    n = np.stack([e(0, 1, 3), e(1, 2, 3)])
    scalar, rad = _locality(n, field)
    assert scalar and rad is None and _reference_nilpotent_span(n, field)
    # with E13 added the span is an algebra, the radical of the triangular one
    scalar, rad = _locality(np.concatenate([n, e(0, 2, 3)[None]]), field)
    assert scalar and rad is not None


def _kronecker_algebra(p):
    return build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], PrimeField(p))


@pytest.mark.parametrize("p, r", [(3, 2), (5, 2), (2147483647, 2147483646)])
def test_decompose_falls_back_to_search_when_end_is_a_larger_field(p, r):
    # (k^2, k^2) with a = I and b the companion matrix C of x^2 - r, r a
    # non-square: End = k[C] = GF(p^2) is a field, so no basis element splits
    # M, and C is not a scalar plus a nilpotent; only the search can certify
    # M, and only while p^2 <= _EXACT_ENUM_LIMIT
    assert pow(r, (p - 1) // 2, p) == p - 1
    alg = _kronecker_algebra(p)
    m = Representation(alg, (2, 2), {"a": Matrix(alg.field, np.eye(2, dtype=np.int64)),
                                     "b": Matrix(alg.field, [[0, r], [1, 0]])})
    assert len(hom_basis(m, m)) == 2
    searched = p**2 <= repmod._EXACT_ENUM_LIMIT
    cert = decompose(m)
    assert cert.summands == (m,) and cert.certified == searched
    mm, _, _ = direct_sum([m, m])
    cert2 = decompose(mm)
    assert len(cert2.summands) == 2 and cert2.certified == searched
    if searched:
        assert cert.indecomposability_evidence == (EXHAUSTIVE,)
        assert all(is_isomorphic(x, m) for x in cert2.summands)
    else:
        with pytest.raises(BudgetExhausted):
            repmod.require_certified(cert)


_PROPERTY_ALGEBRAS = {
    "kx2": lambda p: loop_algebra(2, p),
    "kx3": lambda p: loop_algebra(3, p),
    "kx4": lambda p: loop_algebra(4, p),
    "a3_zero_relation": _a3_radical_square_zero,
    "kronecker": _kronecker_algebra,
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_PROPERTY_ALGEBRAS)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_decompose_is_a_direct_sum_and_locality_agrees_with_search(name, p, seed):
    m = random_module(_PROPERTY_ALGEBRAS[name](p), np.random.default_rng(seed))
    cert = decompose(m)
    assert cert.certified
    assert [sum(x.dims[v] for x in cert.summands) for v in range(len(m.dims))] == list(m.dims)
    assert_inclusions_make_a_direct_sum(m, cert)
    for x, evidence in zip(cert.summands, cert.indecomposability_evidence):
        if evidence == LOCAL:
            endos = hom_basis(x, x)
            assert p ** len(endos) <= repmod._EXACT_ENUM_LIMIT
            assert repmod.first_combination(repmod._total_stack(endos), p) is None


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PROPERTY_ALGEBRAS)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_locality_closure_agrees_with_the_nilpotent_power_test(name, p, seed):
    # on an End basis whose Fitting powers are all scalar, N.N <= N holds
    # exactly when N^D = 0, and both return the stack of the f - c_f 1
    m = random_module(_PROPERTY_ALGEBRAS[name](p), np.random.default_rng(seed))
    for x in (m,) + decompose(m).summands:
        totals = repmod._total_stack(hom_basis(x, x))
        scalar, rad = _locality(totals, x.algebra.field)
        if not scalar:
            assert rad is None
            continue
        nil = (totals - repmod._scalar_parts(repmod._fitting_powers(totals, p))) % p
        assert (rad is not None) == _reference_nilpotent_span(nil, x.algebra.field)
        assert rad is None or (rad == nil).all()


_VERDICT_ALGEBRAS = {
    "kx2": lambda p: loop_algebra(2, p),
    "kx3": lambda p: loop_algebra(3, p),
    "a3_zero_relation": _a3_radical_square_zero,
    "kronecker": _kronecker_algebra,
    "t2_kx2": lambda p: t2_of(loop_algebra(2, p))[0],
}
_VERDICT_BUILT = {}


def indecomposable_evidence(m):
    """The evidence string of m when it is certified indecomposable; None
    when m splits or is zero.  Raises BudgetExhausted when m is neither split
    nor certified.  One `hom_basis(m, m)` and the first step of `decompose`,
    with no split built: decompose(m) has one summand exactly when that step
    does not split m, and the summand is then m itself, with this evidence."""
    if m.is_zero():
        return None
    verdict, _ = repmod._decompose_indec_evidence(m, hom_basis(m, m))
    if verdict is None:
        return None
    evidence, certified = verdict
    if not certified:
        raise BudgetExhausted("decomposition could not be certified")
    return evidence


@pytest.mark.python_O
@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_VERDICT_ALGEBRAS)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_indecomposable_evidence_is_the_verdict_of_decompose(name, p, seed):
    if (name, p) not in _VERDICT_BUILT:
        _VERDICT_BUILT[name, p] = _VERDICT_ALGEBRAS[name](p)
    alg = _VERDICT_BUILT[name, p]
    m = random_module(alg, np.random.default_rng(seed))
    cert = decompose(m)
    assert cert.certified
    # m itself, then each of its summands: every summand is one of the
    # one-summand cases, with the evidence decompose gave it
    for x in (m, *cert.summands):
        got = indecomposable_evidence(x)
        of_x = decompose(x)
        if len(of_x.summands) == 1:
            assert of_x.summands[0] is x
            assert got == of_x.indecomposability_evidence[0]
        else:
            assert got is None
    assert indecomposable_evidence(zero_module(alg)) is None


def test_indecomposable_evidence_raises_only_when_the_module_itself_is_uncertified():
    # the Kronecker module with End = GF(p^2) at p = 2^31 - 1 is neither split
    # nor shown local, and End is too large to search
    p = 2147483647
    alg = _kronecker_algebra(p)
    m = Representation(alg, (2, 2), {"a": Matrix(alg.field, np.eye(2, dtype=np.int64)),
                                     "b": Matrix(alg.field, [[0, p - 1], [1, 0]])})
    with pytest.raises(BudgetExhausted, match="could not be certified"):
        indecomposable_evidence(m)
    # m + m splits at its first step, so its verdict is None, though its
    # pieces, and so decompose, stay uncertified
    mm, _, _ = direct_sum([m, m])
    assert not decompose(mm).certified
    assert indecomposable_evidence(mm) is None


def test_indecomposable_evidence_builds_no_split(monkeypatch):
    def no_split(*args):
        raise AssertionError("split built")

    monkeypatch.setattr(repmod, "_fitting_split", no_split)
    alg = loop_algebra(2, 3)
    s = simple(alg, 0)
    assert indecomposable_evidence(direct_sum([s, s])[0]) is None
    assert indecomposable_evidence(s) == "endomorphism algebra has dimension 1"


def _reference_complement_data(span):
    """The three-step version: B from `column_space_basis`, E from the pivots
    of [B | I], and the projection from the inverse of [B | E]."""
    field = span.field
    b = column_space_basis(span)
    _, pivots = rref(hstack([b, Matrix.identity(field, span.rows)]))
    e = Matrix(field, np.eye(span.rows, dtype=np.int64)[:, [c - b.cols for c in pivots if c >= b.cols]])
    sinv = inverse(hstack([b, e]))
    return e, Matrix(field, sinv.a[b.cols :, :])


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3, 5, 7, 2147483647])
def test_complement_data_matches_the_three_step_reference(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for _ in range(150):
        n, c = (int(x) for x in rng.integers(0, 6, size=2))
        r = int(rng.integers(0, min(n, c) + 1))
        span = multiply(Matrix(field, rng.integers(0, p, size=(n, r))), Matrix(field, rng.integers(0, p, size=(r, c))))
        e, proj = repmod._complement_data(span)
        assert (e, proj) == _reference_complement_data(span)
        assert multiply(proj, span).is_zero()
        assert multiply(proj, e) == Matrix.identity(field, e.cols)


def apply_path(m, source, arrows):
    """The action of a path on m, one product per arrow."""
    acc = Matrix.identity(m.algebra.field, m.dims[source])
    for aid in arrows:
        acc = multiply(m.arrow_maps[aid], acc)
    return acc


def _reference_relation_values(m, rel):
    """The value of one relation on m, term by term through `apply_path`."""
    src = m.algebra.quiver.arrow(rel[0].path[0]).source
    tgt = m.algebra.quiver.arrow(rel[0].path[-1]).target
    field = m.algebra.field
    acc = Matrix.zeros(field, m.dims[tgt], m.dims[src])
    for term in rel:
        acc = add(acc, Matrix(field, term.coefficient % field.p * apply_path(m, src, term.path).a))
    return acc


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3, 2147483647])
def test_broken_relations_matches_an_apply_path_reference(p):
    rng = np.random.default_rng(p % 1000)
    algebras = [loop_algebra(3, p), _comm_square_algebra(p), _a3_radical_square_zero(p), t2_of(loop_algebra(2, p))[0]]
    seen = set()
    for alg in algebras:
        for _ in range(8):
            # candidate 0 is a module; the rest are random matrices of its dims
            m = random_module(alg, rng)
            stacks = {
                a.id: np.concatenate([m.arrow_maps[a.id].a[None],
                                      rng.integers(0, p, size=(5, m.dims[a.target], m.dims[a.source]))])
                for a in alg.quiver.arrows
            }
            got = repmod.broken_relations(alg, stacks)
            assert len(got) == len(alg.relations)
            for rel, broken in zip(alg.relations, got):
                assert broken.shape == (6,) and not broken[0]
                for k in range(6):
                    cand = Representation(alg, m.dims, {aid: st[k] for aid, st in stacks.items()})
                    assert bool(broken[k]) == (not _reference_relation_values(cand, rel).is_zero())
                    seen.add(bool(broken[k]))
    assert seen == {True, False}


@pytest.mark.python_O
def test_a_broken_relation_is_named_in_the_error():
    # k<x, y>/(x^2, y^2, xy): x = 0 and y = 1 break y^2 only
    alg = build_algebra(Quiver(1, [("x", 0, 0), ("y", 0, 0)]),
                        [[(1, ("x", "x"))], [(1, ("y", "y"))], [(1, ("x", "y"))]], PrimeField(3))
    with pytest.raises(ValueError) as info:
        check_relations(Representation(alg, (1,), {"x": Matrix(alg.field, [[0]]), "y": Matrix(alg.field, [[1]])}))
    assert str(info.value) == f"relation {alg.relations[1]!r} does not vanish on this representation"


def test_indecomposable_isomorphism():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = indecomposable_projective(alg, 0)
    iso = isomorphism(lam, lam)
    assert iso is not None
    assert all(inverse(vm) is not None for vm in iso.vertex_maps)
    assert isomorphism(s, s) is not None
    assert isomorphism(s, lam) is None
    assert isomorphism(lam, k_dual(k_dual(lam))) is not None


def _reference_isomorphism(m, n):
    """The isomorphism test of two Hom bases: the first f in hom_basis(m, n)
    for which some g.f, g in hom_basis(n, m), is invertible."""
    if m.dims != n.dims:
        return None
    for f in hom_basis(m, n):
        for g in hom_basis(n, m):
            if all(inverse(vm) is not None for vm in compose(g, f).vertex_maps):
                return f
    return None


def _conjugate(m, rng):
    """m with its vector spaces moved by random invertible matrices: a module
    isomorphic to m with another presentation."""
    field = m.algebra.field
    gs = []
    for d in m.dims:
        g = Matrix(field, rng.integers(0, field.p, size=(d, d)))
        while inverse(g) is None:
            g = Matrix(field, rng.integers(0, field.p, size=(d, d)))
        gs.append(g)
    maps = {
        a.id: multiply(multiply(gs[a.target], m.arrow_maps[a.id]), inverse(gs[a.source]))
        for a in m.algebra.quiver.arrows
    }
    return check_relations(Representation(m.algebra, m.dims, maps))


_ISO_ALGEBRAS = {
    "kronecker": _kronecker_algebra,
    "a3_radical_square_zero": _a3_radical_square_zero,
    "commutative_square": _comm_square_algebra,
    "kx3": lambda p: loop_algebra(3, p),
    "t2_kx2": lambda p: t2_of(loop_algebra(2, p))[0],
}


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(_ISO_ALGEBRAS))
def test_indecomposable_isomorphism_matches_the_two_basis_test(name, p):
    # x runs over certified summands of random modules; y over random modules,
    # summands, a conjugate of x and the semisimple module, all of the dims of x
    alg = _ISO_ALGEBRAS[name](p)
    rng = np.random.default_rng(p)
    randoms = [random_module(alg, rng) for _ in range(6)]
    summands = []
    for m in randoms:
        cert = decompose(m)
        assert cert.certified
        summands.extend(cert.summands)
    answers = set()
    for x in summands:
        top = [simple(alg, v) for v, d in enumerate(x.dims) for _ in range(d)]
        ys = [y for y in randoms + summands if y.dims == x.dims] + [_conjugate(x, rng), direct_sum(top)[0]]
        for y in ys:
            for a, b in ((x, y), (y, x)):
                iso = isomorphism(a, b)
                assert iso == _reference_isomorphism(a, b)
                assert iso is None or is_mono(iso)
                answers.add(iso is None)
    assert answers == {True, False}


def test_indecomposable_isomorphism_solves_one_hom_system_and_composes_nothing(monkeypatch):
    alg = _comm_square_algebra(3)
    p0 = indecomposable_projective(alg, 0)
    other = _conjugate(p0, np.random.default_rng(1))
    calls = []
    real = repmod.hom_basis
    monkeypatch.setattr(repmod, "hom_basis", lambda m, n: calls.append((m, n)) or real(m, n))
    monkeypatch.setattr(repmod, "compose", lambda g, f: pytest.fail("compose called"))
    assert isomorphism(p0, other) is not None
    assert calls == [(p0, other)]


def test_isomorphism_solves_one_hom_system_and_decomposes_nothing(monkeypatch):
    alg = _comm_square_algebra(3)
    p0 = indecomposable_projective(alg, 0)
    s, _, _ = direct_sum([simple(alg, 0), simple(alg, 3)])
    calls = []
    real = repmod.hom_basis
    monkeypatch.setattr(repmod, "hom_basis", lambda m, n: calls.append((m, n)) or real(m, n))
    monkeypatch.setattr(repmod, "decompose", lambda m: pytest.fail("decompose called"))
    other = _conjugate(p0, np.random.default_rng(0))
    iso = isomorphism(p0, other)
    assert iso is not None and is_mono(iso) and calls == [(p0, other)]
    # two decomposable sides get the same single system (its None may be
    # wrong there), and unequal dims none
    for m, n in ((s, s), (s, p0)):
        calls.clear()
        iso = isomorphism(m, n)
        assert iso is None or is_mono(iso)
        assert calls == ([(m, n)] if m.dims == n.dims else [])
    # 0 is isomorphic to 0 without a Hom system
    z = zero_module(alg)
    calls.clear()
    assert isomorphism(z, z) is not None and calls == []


def test_is_isomorphic_scaled_presentation():
    alg = a2_algebra()
    m1 = Representation(alg, (1, 1), {"a": Matrix(alg.field, [[1]])})
    m2 = Representation(alg, (1, 1), {"a": Matrix(alg.field, [[2]])})
    assert is_isomorphic(m1, m2)
    s0 = simple(alg, 0)
    assert not is_isomorphic(m1, s0)
    sum1, _, _ = direct_sum([s0, simple(alg, 1)])
    assert not is_isomorphic(m1, sum1)  # same dims, different module


_PROJECTIVE_ALGEBRAS = {
    "kx4": lambda p: loop_algebra(4, p),
    "a3rsz": _a3_radical_square_zero,
    "t2kx2": lambda p: t2_of(loop_algebra(2, p))[0],
    "square": _comm_square_algebra,
    "t2kx3": lambda p: t2_of(loop_algebra(3, p))[0],
}


def _reference_projective_module(alg, verts):
    """(+)_k P(v_k) from its paths: basis (k, path) at each vertex, in
    summand order, and each arrow acting by `reduce_path` on path.arrow."""
    nv = alg.quiver.vertices
    coords = {j: [(k, bp) for k, v in enumerate(verts) for bp in alg.path_basis(v, j)] for j in range(nv)}
    maps = {}
    for a in alg.quiver.arrows:
        mat = np.zeros((len(coords[a.target]), len(coords[a.source])), dtype=np.int64)
        for pos, (k, bp) in enumerate(coords[a.source]):
            for nf, c in alg.reduce_path(bp[0], bp[1] + (a.id,)).items():
                mat[coords[a.target].index((k, nf)), pos] = c
        maps[a.id] = mat
    return [len(coords[j]) for j in range(nv)], (tuple(verts), coords), maps


def _vertex_lists(nv, rng):
    """The empty list, a repeat, the regular list and random lists up to
    five long, most with repeats."""
    lists = [(), (0, 0), tuple(range(nv)), tuple(reversed(range(nv)))]
    return lists + [tuple(int(v) for v in rng.integers(0, nv, size=rng.integers(1, 6))) for _ in range(12)]


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("name", sorted(_PROJECTIVE_ALGEBRAS))
def test_projective_module_matches_the_path_reduction_reference(name, p):
    base = _PROJECTIVE_ALGEBRAS[name](p)
    rng = np.random.default_rng(p)
    for alg in (base, opposite(base)):
        for verts in _vertex_lists(alg.quiver.vertices, rng):
            got = repmod.projective_module(alg, verts)
            dims, layout, maps = _reference_projective_module(alg, verts)
            assert got.dims == tuple(dims) and got._layout == layout
            assert {aid: m.tolist() for aid, m in got.arrow_maps.items()} == {aid: m.tolist() for aid, m in maps.items()}
            check_relations(got)


@pytest.mark.python_O
def test_a_sum_of_projectives_reduces_no_path(monkeypatch):
    # once each P(v) is built, a list of several vertices is assembled from
    # their blocks: reduce_path runs for one-vertex lists only
    alg = _PROJECTIVE_ALGEBRAS["square"](3)
    for v in range(alg.quiver.vertices):
        repmod.projective_module(alg, (v,))
    monkeypatch.setattr(type(alg), "reduce_path", lambda *args: pytest.fail("reduce_path ran"))
    for verts in _vertex_lists(alg.quiver.vertices, np.random.default_rng(0)):
        assert repmod.projective_module(alg, verts).dims == tuple(
            sum(repmod.projective_module(alg, (v,)).dims[j] for v in verts) for j in range(alg.quiver.vertices)
        )


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3])
def test_a_cover_build_reduces_each_vertex_map_once(p, monkeypatch):
    # one kernel basis per vertex map serves the onto check, the
    # superfluous-kernel check and Omega M; kernel() is not called.  A
    # module with a projective layout is its own cover and reduces nothing.
    alg = _PROJECTIVE_ALGEBRAS["square"](p)
    mods = [random_module(alg, np.random.default_rng([p, k]), max_mult=2, max_gens=2) for k in range(4)]
    mods += [repmod.simple_module(alg, 0)]
    layouts = [zero_module(alg), repmod.projective_module(alg, (3, 0, 0))]
    calls = []
    # the names imported here, kernel_basis and kernel, stay the originals
    monkeypatch.setattr(exactlin, "kernel_basis", lambda m: calls.append(m) or kernel_basis(m))
    monkeypatch.setattr(repmod, "kernel", lambda f: pytest.fail("kernel ran"))
    for m in mods + layouts:
        calls.clear()
        cover, omega, incl = repmod.syzygy_step(m)
        assert len(calls) == (0 if m._layout else alg.quiver.vertices)
        assert (omega, incl) == kernel(cover)


@pytest.mark.python_O
@pytest.mark.parametrize("name", sorted(_PROJECTIVE_ALGEBRAS))
def test_a_layout_projective_is_its_own_cover(name, monkeypatch):
    # unsorted and repeated vertex lists included: the cover is the identity
    # of the first equal module that asked (two lists can give one value),
    # Omega is the zero module, and no kernel basis is computed
    alg = _PROJECTIVE_ALGEBRAS[name](3)
    monkeypatch.setattr(exactlin, "kernel_basis", lambda m: pytest.fail("kernel_basis ran"))
    firsts = {}
    for verts in _vertex_lists(alg.quiver.vertices, np.random.default_rng(1)):
        proj = repmod.projective_module(alg, verts)
        first = firsts.setdefault(proj, proj)
        cover, omega, incl = repmod.syzygy_step(proj)
        assert cover == identity_map(first) and cover.source is first and first._layout is not None
        assert omega is zero_module(alg) and incl == repmod.zero_map(omega, first)
        assert repmod.is_projective(proj)


def test_projective_cover_and_envelope_frozen():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    cover = projective_cover(s)
    assert cover.source.dims == (2,)  # P(0)
    env = injective_envelope(s)
    assert env.target.dims == (2,)  # I(0) = P(0) here
    # envelope is injective vertexwise
    for vm in env.vertex_maps:
        assert exactlin.kernel_basis(vm).cols == 0


def test_top_of_projective():
    alg = loop_algebra(3)
    lam = indecomposable_projective(alg, 0)
    cover = projective_cover(lam)
    assert cover.source._layout[0] == (0,)  # one generator, at vertex 0
    assert cover.source.dims == lam.dims
    ker, _ = kernel(cover)
    assert ker.is_zero()


@pytest.mark.python_O
def test_dual_is_involutive_on_the_nose():
    # D is memoized per module value, both ways: D D M is the first equal M
    # that asked, and an equal copy of M gets the same D M
    rng = np.random.default_rng(9)
    for alg in (loop_algebra(2), a2_algebra(), t2_of(loop_algebra(2))[0]):
        firsts = {}
        for _ in range(5):
            m = random_module(alg, rng)
            first = firsts.setdefault(m, m)
            dm = k_dual(m)
            assert k_dual(dm) is first and k_dual(Representation(alg, m.dims, dict(m.arrow_maps))) is dm
            assert dm.algebra is opposite(alg) and dm.dims == m.dims
            assert all(dm.arrow_maps[aid] == exactlin.transpose(f) for aid, f in m.arrow_maps.items())


def test_zero_module_flows():
    alg = a2_algebra()
    z = zero_module(alg)
    assert len(hom_basis(z, z)) == 0
    cert = decompose(z)
    assert cert.summands == ()
    assert is_isomorphic(z, z)
    assert not is_isomorphic(z, simple(alg, 0))


def test_module_json_round_trip():
    rng = np.random.default_rng(10)
    alg = loop_algebra(3)
    m = random_module(alg, rng)
    data = module_to_json_dict(m, "kx3")
    back = module_from_json_dict(alg, data)
    assert back == m


def test_module_json_entries_are_read_mod_p():
    # an entry past int64 or below 0 is an element of GF(p) like any other
    alg = loop_algebra(2)
    want = Representation(alg, (2,), {"x": Matrix(alg.field, [[0, 0], [1, 0]])})
    for entry in (5**40 + 1, -4):
        assert module_from_json_dict(alg, {"dims": [2], "arrow_maps": {"x": [[0, 0], [entry, 0]]}}) == want


def test_representation_validates_relations():
    # the constructor checks shapes; the relations are the reader's check
    alg = loop_algebra(2)
    broken = Representation(alg, (1,), {"x": Matrix(alg.field, [[1]])})
    with pytest.raises(ValueError, match=r"relation \(.*\) does not vanish on this representation"):
        check_relations(broken)  # x^2 != 0
    with pytest.raises(ValueError, match="arrow 'x' map has shape"):
        Representation(alg, (1,), {"x": Matrix.zeros(alg.field, 1, 0)})  # bad shape


def test_module_map_validates_intertwining():
    alg = loop_algebra(2)
    lam = indecomposable_projective(alg, 0)
    with pytest.raises(ValueError, match="map does not intertwine arrow 'x'"):
        # not an endomorphism of Lambda: does not commute with the loop action
        check_intertwines(ModuleMap(lam, lam, [Matrix(alg.field, [[0, 0], [0, 1]])]))


# ---------------------------------------------------------------------------
# the hom-equation solver


def test_solve_hom_equation_extension_and_lift():
    from arquiver.repmod import regular_module, solve_hom_equation

    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = regular_module(alg)
    incl = check_intertwines(ModuleMap(s, lam, [Matrix(alg.field, [[0], [1]])]))  # S = soc(L) into L
    cover = projective_cover(s)
    # S is not a direct summand of L: the identity extends/lifts to nothing
    assert solve_hom_equation(lam, s, identity_map(s), pre=incl) is None
    assert solve_hom_equation(s, lam, identity_map(s), post=cover) is None
    # but incl extends along itself (identity of L works)
    got = solve_hom_equation(lam, lam, incl, pre=incl)
    assert got is not None
    # and the cover lifts through itself
    got = solve_hom_equation(lam, lam, cover, post=cover)
    assert got is not None


def test_solve_hom_equation_empty_hom_space():
    from arquiver.repmod import solve_hom_equation, zero_map

    a2 = a2_algebra()
    s0, s1 = simple(a2, 0), simple(a2, 1)
    assert hom_basis(s0, s1) == []
    got = solve_hom_equation(s0, s1, zero_map(s0, s1))
    assert got is not None and got.is_zero()
    # inconsistent system with a nonzero target and a zero pre-composition
    got = solve_hom_equation(s0, s0, identity_map(s0), pre=zero_map(s0, s0))
    assert got is None


def test_is_mono_is_epi():
    from arquiver.repmod import is_epi, is_mono, regular_module

    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = regular_module(alg)
    incl = check_intertwines(ModuleMap(s, lam, [Matrix(alg.field, [[0], [1]])]))
    cover = projective_cover(s)
    assert is_mono(incl) and not is_epi(incl)
    assert is_epi(cover) and not is_mono(cover)
    assert is_mono(identity_map(lam)) and is_epi(identity_map(lam))
