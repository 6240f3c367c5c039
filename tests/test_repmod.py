import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import repmod
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
    scale,
)
from arquiver.quivalg import Quiver, build_algebra, t2_of
from arquiver.repmod import (
    ModuleMap,
    Representation,
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
    top_dims,
    zero_module,
)

F5 = PrimeField(5)


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
                ModuleMap(m, n, f.vertex_maps)  # checks the intertwining relations
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
            im, iincl, iepi = image(f)
            for v in range(alg.quiver.vertices):
                assert ker.dims[v] + im.dims[v] == m.dims[v]  # rank-nullity
                assert cok.dims[v] == n.dims[v] - im.dims[v]
            assert compose(f, incl).is_zero()
            assert compose(proj, f).is_zero()
            assert compose(iincl, iepi) == f


def test_decompose_regular_module_frozen():
    # over k[x]/x^2: Lambda + S splits into summands of dims 2 and 1
    alg = loop_algebra(2)
    lam = indecomposable_projective(alg, 0)
    s = simple(alg, 0)
    total, _, _ = direct_sum([lam, s])
    cert = decompose(total)
    assert cert.certified
    assert sorted(x.dims for x in cert.summands) == [(1,), (2,)]
    # certificate identities
    ident = identity_map(total)
    acc = repmod.zero_map(total, total)
    for k in range(len(cert.summands)):
        assert compose(cert.projections[k], cert.inclusions[k]) == identity_map(cert.summands[k])
        acc = repmod.add_maps(acc, compose(cert.inclusions[k], cert.projections[k]))
    assert acc == ident


def test_decompose_multiset_over_loop_cube():
    alg = loop_algebra(3)
    s = simple(alg, 0)
    j2_map = Matrix(alg.field, [[0, 0], [1, 0]])
    j2 = Representation(alg, (2,), {"x": j2_map})
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
    e12 = ModuleMap(ss, ss, [Matrix(alg.field, [[0, 1], [0, 0]])])
    e21 = ModuleMap(ss, ss, [Matrix(alg.field, [[0, 0], [1, 0]])])
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
    assert repmod.non_nilpotent(phi, p).tolist() == [False, True, True]
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
    lam = Representation(alg, (2,), {"x": Matrix(alg.field, [[1, 1], [4, 4]])})
    assert [f.vertex_maps[0].tolist() for f in hom_basis(lam, lam)] == [[[2, 1], [4, 0]], [[1, 0], [0, 1]]]
    assert decompose(lam).indecomposability_evidence == (LOCAL,)
    # k[x]/(x^16) over GF(2)[x]/(x^20): t = 16, 2^16 combinations to search
    alg = loop_algebra(20, 2)
    cyclic = Representation(alg, (16,), {"x": Matrix(alg.field, np.eye(16, k=-1, dtype=np.int64))})
    assert len(hom_basis(cyclic, cyclic)) == 16
    cert = decompose(cyclic)
    assert cert.certified
    assert cert.indecomposability_evidence == (LOCAL,)
    # nilpotent E12 and E21 span an N whose powers never vanish (E12 E21 = E11)
    e12, e21 = np.eye(2, k=1, dtype=np.int64), np.eye(2, k=-1, dtype=np.int64)
    assert not repmod._nilpotent_span(np.stack([e12, e21]), F5)
    assert repmod._nilpotent_span(np.stack([e12, 2 * e12]), F5)


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
    acc = repmod.zero_map(m, m)
    for x, incl, proj, evidence in zip(
        cert.summands, cert.inclusions, cert.projections, cert.indecomposability_evidence
    ):
        assert compose(proj, incl) == identity_map(x)
        acc = repmod.add_maps(acc, compose(incl, proj))
        if evidence == LOCAL:
            endos = hom_basis(x, x)
            assert p ** len(endos) <= repmod._EXACT_ENUM_LIMIT
            assert repmod.first_combination(repmod._total_stack(endos), p) is None
    assert acc == identity_map(m)


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
    monkeypatch.setattr(repmod, "_split_by_idempotent", no_split)
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
    return b, e, Matrix(field, sinv.a[b.cols :, :])


@pytest.mark.parametrize("p", [2, 3, 5, 7, 2147483647])
def test_complement_data_matches_the_three_step_reference(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000)
    for _ in range(150):
        n, c = (int(x) for x in rng.integers(0, 6, size=2))
        r = int(rng.integers(0, min(n, c) + 1))
        span = multiply(Matrix(field, rng.integers(0, p, size=(n, r))), Matrix(field, rng.integers(0, p, size=(r, c))))
        b, e, proj = repmod._complement_data(span)
        assert (b, e, proj) == _reference_complement_data(span)
        assert multiply(proj, b).is_zero()
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
    acc = Matrix.zeros(m.algebra.field, m.dims[tgt], m.dims[src])
    for term in rel:
        acc = add(acc, scale(term.coefficient, apply_path(m, src, term.path)))
    return acc


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
                    cand = Representation(alg, m.dims, {aid: st[k] for aid, st in stacks.items()}, validate=False)
                    assert bool(broken[k]) == (not _reference_relation_values(cand, rel).is_zero())
                    seen.add(bool(broken[k]))
    assert seen == {True, False}


def test_a_broken_relation_is_named_in_the_error():
    # k<x, y>/(x^2, y^2, xy): x = 0 and y = 1 break y^2 only
    alg = build_algebra(Quiver(1, [("x", 0, 0), ("y", 0, 0)]),
                        [[(1, ("x", "x"))], [(1, ("y", "y"))], [(1, ("x", "y"))]], PrimeField(3))
    with pytest.raises(ValueError) as info:
        Representation(alg, (1,), {"x": Matrix(alg.field, [[0]]), "y": Matrix(alg.field, [[1]])})
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
    return Representation(m.algebra, m.dims, maps)


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


def test_projective_cover_and_envelope_frozen():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    cover = projective_cover(s)
    assert cover.source.dims == (2,)  # P(0)
    env = injective_envelope(s)
    assert env.target.dims == (2,)  # I(0) = P(0) here
    # envelope is injective vertexwise
    from arquiver import exactlin

    for vm in env.vertex_maps:
        assert exactlin.kernel_basis(vm).cols == 0


def test_top_of_projective():
    alg = loop_algebra(3)
    lam = indecomposable_projective(alg, 0)
    assert top_dims(lam) == (1,)
    cover = projective_cover(lam)
    assert cover.source.dims == lam.dims
    ker, _ = kernel(cover)
    assert ker.is_zero()


def test_dual_is_involutive_on_the_nose():
    rng = np.random.default_rng(9)
    for alg in (loop_algebra(2), a2_algebra()):
        for _ in range(5):
            m = random_module(alg, rng)
            assert k_dual(k_dual(m)) == m


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


def test_representation_validates_relations():
    alg = loop_algebra(2)
    with pytest.raises(ValueError):
        Representation(alg, (1,), {"x": Matrix(alg.field, [[1]])})  # x^2 != 0
    with pytest.raises(ValueError):
        Representation(alg, (1,), {"x": Matrix.zeros(alg.field, 1, 0)})  # bad shape


def test_module_map_validates_intertwining():
    alg = loop_algebra(2)
    lam = indecomposable_projective(alg, 0)
    with pytest.raises(ValueError):
        # not an endomorphism of Lambda: does not commute with the loop action
        ModuleMap(lam, lam, [Matrix(alg.field, [[0, 0], [0, 1]])])


# ---------------------------------------------------------------------------
# the hom-equation solver


def test_solve_hom_equation_extension_and_lift():
    from arquiver.repmod import regular_module, solve_hom_equation

    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = regular_module(alg)
    incl = ModuleMap(s, lam, [Matrix(alg.field, [[0], [1]])])  # S = soc(L) into L
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
    incl = ModuleMap(s, lam, [Matrix(alg.field, [[0], [1]])])
    cover = projective_cover(s)
    assert is_mono(incl) and not is_epi(incl)
    assert is_epi(cover) and not is_mono(cover)
    assert is_mono(identity_map(lam)) and is_epi(identity_map(lam))
