import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arquiver import _gfkernel, cli, errors, exactlin, homalg, morphcat, quivalg, repmod
from arquiver.errors import BudgetExhausted, InternalInvariantError, NotProjective
from arquiver.exactlin import Matrix, PrimeField
from arquiver.homalg import (
    almost_split_sequence,
    ar_translate,
    ar_translate_inverse,
    cosyzygy,
    ext,
    ext_dim,
    is_stably_isomorphic,
    minimal_presentation,
    nonprojective_summands,
    right_minimalize,
    stable_hom_proj,
    syzygy,
    transpose,
)
from arquiver.quivalg import Quiver, algebra_from_json_dict, algebra_to_json_dict, build_algebra
from arquiver.repmod import (
    ModuleMap,
    Representation,
    check_intertwines,
    check_relations,
    cokernel,
    compose,
    decompose,
    direct_sum,
    flatten_map,
    hom_basis,
    indecomposable_projective,
    injective_envelope,
    is_isomorphic,
    map_from_coefficients,
    projective_cover,
    random_module,
    regular_module,
    require_certified,
    same_classes,
    syzygy_step,
)


def loop_algebra(power, p=5):
    return build_algebra(Quiver(1, [("x", 0, 0)]), [[(1, ("x",) * power)]], PrimeField(p))


def a2_algebra(p=5):
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], PrimeField(p))


def isomorphic_by_summands(m, n):
    """Isomorphism of two modules that may both be decomposable: by
    Krull-Schmidt, their certified summands are the same iso classes."""
    summands = lambda x: require_certified(decompose(x)).summands
    return same_classes(summands(m), summands(n))


def simple(alg, v):
    dims = [1 if i == v else 0 for i in range(alg.quiver.vertices)]
    maps = {
        a.id: Matrix.zeros(alg.field, dims[a.target], dims[a.source])
        for a in alg.quiver.arrows
    }
    return Representation(alg, dims, maps)


def jordan2(alg):
    """The 2-dimensional indecomposable over k[x]/(x^n), n >= 2."""
    return check_relations(Representation(
        alg, [2], {"x": Matrix(alg.field, np.array([[0, 0], [1, 0]], dtype=np.int64))}
    ))


def flat(f):
    parts = [vm.a.ravel() for vm in f.vertex_maps]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


def projective_resolution(m, length):
    """(projectives [P_0..P_length], differentials [d_1..d_length], eps) of
    the minimal resolution, from the memoized steps along M, Omega M, ...;
    the vec-route reference that `ext` no longer needs."""
    eps = projective_cover(m)
    ps = [eps.source]
    ds = []
    omega = m
    for _ in range(length):
        pres = minimal_presentation(omega)
        ds.append(pres.d)
        ps.append(pres.d.source)
        omega = syzygy(omega)
    return ps, ds, eps


def ext_cocycles(m, n, i):
    """The columns y of `homalg._ext_coordinates` for Omega^{i-1} m, each
    built as the map P_i -> n with those generator images, which `ext`
    itself never builds."""
    for _ in range(i - 1):
        m = syzygy(m)
    acts, _, y = homalg._ext_coordinates(m, n)
    p_i = minimal_presentation(m).d.source
    phis = repmod._maps_on_paths(p_i, n, acts, y)
    return [
        ModuleMap(p_i, n, [Matrix(n.algebra.field, phi[:, :, j].T) for phi in phis])
        for j in range(y.shape[1])
    ]


def _annihilated(basis, images):
    """Basis of the combinations of `basis` whose matching combination of
    `images` (one image per basis element, under a linear map) is zero."""
    field = basis[0].source.algebra.field
    flats = np.stack([flatten_map(g) for g in images])
    coeffs = exactlin.kernel_basis(exactlin.transpose(Matrix(field, flats)))
    return [map_from_coefficients(basis, [int(x) for x in coeffs.a[:, c]]) for c in range(coeffs.cols)]


def _quotient_data(field, sub, total):
    """Members of `total` whose classes form a basis of span(total)/span(sub),
    for sub inside span(total): the pivots of total after those of sub."""
    if not total:
        return ()
    flats = np.stack([flatten_map(f) for f in sub + total])
    _, pivots = exactlin.rref(exactlin.transpose(Matrix(field, flats)))
    return tuple(total[i - len(sub)] for i in pivots if i >= len(sub))


def ext1_via_injective_coresolution(m, n):
    """dim Ext^1(m, n) as H^1 of Hom(m, I0) -> Hom(m, I1) -> Hom(m, I2) for a
    minimal injective coresolution of n.  Independent of the projective-side
    computation in homalg.ext."""
    field = m.algebra.field
    env0 = injective_envelope(n)
    c1, q1 = cokernel(env0)
    env1 = injective_envelope(c1)
    d1 = compose(env1, q1)
    c2, q2 = cokernel(env1)
    env2 = injective_envelope(c2)
    d2 = compose(env2, q2)
    h1 = hom_basis(m, env1.target)
    if not h1:
        return 0
    post = np.stack([flat(compose(d2, f)) for f in h1])
    cocycle_dim = exactlin.kernel_basis(exactlin.transpose(Matrix(field, post))).cols
    h0 = hom_basis(m, env0.target)
    bound_rank = (
        exactlin.rank(Matrix(field, np.stack([flat(compose(d1, g)) for g in h0])))
        if h0
        else 0
    )
    return cocycle_dim - bound_rank


# ---------------------------------------------------------------------------
# syzygies and presentations


def test_syzygy_frozen_over_loops():
    alg2 = loop_algebra(2)
    s2 = simple(alg2, 0)
    assert syzygy(s2).dims == (1,)
    assert is_isomorphic(syzygy(s2), s2)
    assert syzygy(regular_module(alg2)).is_zero()

    alg3 = loop_algebra(3)
    s3 = simple(alg3, 0)
    first = syzygy(s3)
    assert first.dims == (2,)
    assert is_isomorphic(first, jordan2(alg3))
    assert syzygy(first).dims == (1,)
    assert is_isomorphic(syzygy(first), s3)


def test_cosyzygy_frozen():
    alg2 = loop_algebra(2)
    s = simple(alg2, 0)
    assert cosyzygy(s).dims == (1,)
    assert is_isomorphic(cosyzygy(s), s)

    a2 = a2_algebra()
    assert cosyzygy(simple(a2, 1)).dims == (1, 0)


def _reference_cosyzygy(m):
    """Omega^-1 M as the cokernel of the injective envelope, the route that
    `cosyzygy` took before it read D Omega D M."""
    return cokernel(injective_envelope(m))[0]


def _check_cosyzygy(m):
    got, want = cosyzygy(m), _reference_cosyzygy(m)
    assert got.dims == want.dims
    assert isomorphic_by_summands(got, want)
    return got


# the homalg-small workload's algebras at its primes
_HOMALG_SMALL_PRIMES = {"kx4": 2, "a3rsz": 3, "t2kx2": 5, "square": 3, "t2kx3": 2}


@pytest.mark.python_O
@pytest.mark.parametrize("name", sorted(_HOMALG_SMALL_PRIMES))
def test_cosyzygy_matches_the_envelope_reference_on_the_homalg_small_inputs(name):
    # the workload's inputs: simples, indecomposable projectives and
    # injectives, Omega S and Omega^-1 S
    alg = _HOMALG_SMALL[name](_HOMALG_SMALL_PRIMES[name])
    inputs = []
    for v in range(alg.quiver.vertices):
        s = simple(alg, v)
        inputs += [s, indecomposable_projective(alg, v), repmod.indecomposable_injective(alg, v), syzygy(s)]
        inputs.append(_check_cosyzygy(s))
    for m in inputs:
        _check_cosyzygy(m)
    assert any(not cosyzygy(m).is_zero() for m in inputs)


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3])
def test_cosyzygy_matches_the_envelope_reference_on_random_modules(p):
    for _, mods in _reference_cases(p):
        for m in mods:
            _check_cosyzygy(m)


def test_minimal_presentation_shapes():
    a2 = a2_algebra()
    pres = minimal_presentation(simple(a2, 0))
    assert pres.d.target.dims == (1, 1)
    assert pres.d.source.dims == (0, 1)

    alg3 = loop_algebra(3)
    pres = minimal_presentation(simple(alg3, 0))
    assert pres.d.target.dims == (3,)
    assert pres.d.source.dims == (3,)
    # presentations ignore projective summands up to adding them to p0
    both = direct_sum([simple(alg3, 0), regular_module(alg3)])[0]
    pres2 = minimal_presentation(both)
    assert pres2.d.target.dims == (6,)
    assert pres2.d.source.dims == (3,)


# ---------------------------------------------------------------------------
# transpose and tau


def test_transpose_frozen_over_loops():
    alg2 = loop_algebra(2)
    s = simple(alg2, 0)
    tr = transpose(s)
    assert tr.dims == (1,)
    assert tr.arrow_maps["x"].is_zero()
    assert transpose(regular_module(alg2)).is_zero()

    alg3 = loop_algebra(3)
    assert transpose(simple(alg3, 0)).dims == (1,)
    assert transpose(jordan2(alg3)).dims == (2,)


def test_transpose_a2_simple():
    a2 = a2_algebra()
    tr = transpose(simple(a2, 0))
    assert tr.dims == (0, 1)


def test_transpose_ignores_projective_summands():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    padded = direct_sum([s, regular_module(alg)])[0]
    assert is_isomorphic(transpose(padded), transpose(s))


def test_ar_translate_frozen():
    alg2 = loop_algebra(2)
    s = simple(alg2, 0)
    assert is_isomorphic(ar_translate(s), s)
    assert ar_translate(regular_module(alg2)).is_zero()

    alg3 = loop_algebra(3)
    s3 = simple(alg3, 0)
    assert is_isomorphic(ar_translate(s3), s3)
    assert is_isomorphic(ar_translate(jordan2(alg3)), jordan2(alg3))
    # tau(S) is 1-dimensional but the syzygy of S is 2-dimensional: the two
    # operations genuinely differ over k[x]/(x^3)
    assert ar_translate(s3).total_dim != syzygy(s3).total_dim

    a2 = a2_algebra()
    assert is_isomorphic(ar_translate(simple(a2, 0)), simple(a2, 1))
    assert ar_translate(indecomposable_projective(a2, 0)).is_zero()
    assert ar_translate_inverse(simple(a2, 1)).dims == (1, 0)  # tau^{-1}(S_1) = S_0


def test_tau_roundtrip_on_random_modules():
    for alg in [loop_algebra(2), loop_algebra(3), a2_algebra()]:
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(10):
            m = random_module(alg, rng)
            parts = nonprojective_summands(m)
            if not parts:
                continue
            mp = direct_sum(parts)[0] if len(parts) > 1 else parts[0]
            back = ar_translate_inverse(ar_translate(mp))
            assert isomorphic_by_summands(back, mp)
            hits += 1
        assert hits >= 3  # the sample actually exercised the roundtrip


def test_transpose_is_a_stable_involution():
    for alg in [loop_algebra(2), loop_algebra(3), a2_algebra()]:
        rng = np.random.default_rng(11)
        for _ in range(6):
            m = random_module(alg, rng)
            assert is_stably_isomorphic(transpose(transpose(m)), m)


# ---------------------------------------------------------------------------
# stable hom and ext


def stable_hom_inj(m, n):
    """Hom(m, n) modulo maps factoring through an injective (via the envelope
    of m): the injectively stable reference for `stable_hom_proj`."""
    env = injective_envelope(m)
    total = hom_basis(m, n)
    reps = _quotient_data(m.algebra.field, [compose(g, env) for g in hom_basis(env.target, n)], total)
    return homalg.StableHomSpace(m, n, len(total), len(total) - len(reps), len(reps))


def test_stable_hom_frozen_over_loop_square():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = regular_module(alg)
    sh = stable_hom_proj(s, s)
    assert (sh.total_dim, sh.factoring_dim, sh.stable_dim) == (1, 0, 1)
    sh = stable_hom_proj(lam, lam)
    assert (sh.total_dim, sh.factoring_dim, sh.stable_dim) == (2, 2, 0)
    sh = stable_hom_proj(s, lam)
    assert (sh.total_dim, sh.factoring_dim, sh.stable_dim) == (1, 1, 0)
    sh = stable_hom_inj(s, s)
    assert (sh.total_dim, sh.factoring_dim, sh.stable_dim) == (1, 0, 1)


def test_stable_homs_agree_over_selfinjective():
    alg = loop_algebra(3)
    rng = np.random.default_rng(5)
    mods = [random_module(alg, rng) for _ in range(5)]
    for m in mods:
        for n in mods:
            assert stable_hom_proj(m, n).stable_dim == stable_hom_inj(m, n).stable_dim


def test_ext_frozen():
    alg2 = loop_algebra(2)
    s = simple(alg2, 0)
    assert ext(s, s, 1).dim == 1
    assert ext(s, s, 2).dim == 1  # the simple is periodic of period one
    assert ext(regular_module(alg2), s, 1).dim == 0

    alg3 = loop_algebra(3)
    s3 = simple(alg3, 0)
    j2 = jordan2(alg3)
    assert ext(s3, s3, 1).dim == 1
    assert ext(s3, j2, 1).dim == 1
    assert ext(j2, s3, 1).dim == 1
    assert ext(j2, j2, 1).dim == 1

    a2 = a2_algebra()
    s0, s1 = simple(a2, 0), simple(a2, 1)
    assert ext(s0, s1, 1).dim == 1
    assert ext(s0, s0, 1).dim == 0
    assert ext(s1, s0, 1).dim == 0
    assert ext(s0, s1, 2).dim == 0  # no relations: global dimension one


def test_ext1_matches_injective_coresolution_oracle():
    for alg in [loop_algebra(2), loop_algebra(3), a2_algebra()]:
        rng = np.random.default_rng(7)
        mods = [random_module(alg, rng) for _ in range(6)]
        for m in mods[:3]:
            for n in mods[3:]:
                assert ext(m, n, 1).dim == ext1_via_injective_coresolution(m, n)


def test_ext_cocycles_are_cocycles_not_coboundaries():
    alg = loop_algebra(3)
    s = simple(alg, 0)
    cocycles = ext_cocycles(s, jordan2(alg), 1)
    _, ds, _ = projective_resolution(s, 2)
    assert len(cocycles) == ext(s, jordan2(alg), 1).dim > 0
    for z in cocycles:
        assert compose(z, ds[1]).is_zero()
        assert not z.is_zero()


# ---------------------------------------------------------------------------
# the dimension identities behind the almost split theory


def _stable_table(alg, named):
    out = {}
    for xn, x in named:
        for yn, y in named:
            out[(xn, yn)] = stable_hom_proj(x, y).stable_dim
    return out


def _ext_tau_table(alg, named):
    out = {}
    for xn, x in named:
        for yn, y in named:
            out[(xn, yn)] = ext(y, ar_translate(x), 1).dim
    return out


def test_duality_tables_loop_square():
    alg = loop_algebra(2)
    named = [("S", simple(alg, 0)), ("L", regular_module(alg))]
    expected = {("S", "S"): 1, ("S", "L"): 0, ("L", "S"): 0, ("L", "L"): 0}
    assert _stable_table(alg, named) == expected
    assert _ext_tau_table(alg, named) == expected


def test_duality_tables_loop_cube():
    alg = loop_algebra(3)
    named = [("S", simple(alg, 0)), ("J2", jordan2(alg)), ("L", regular_module(alg))]
    expected = {
        ("S", "S"): 1,
        ("S", "J2"): 1,
        ("S", "L"): 0,
        ("J2", "S"): 1,
        ("J2", "J2"): 1,
        ("J2", "L"): 0,
        ("L", "S"): 0,
        ("L", "J2"): 0,
        ("L", "L"): 0,
    }
    assert _stable_table(alg, named) == expected
    assert _ext_tau_table(alg, named) == expected


def test_duality_tables_a2():
    alg = a2_algebra()
    named = [
        ("S0", simple(alg, 0)),
        ("S1", simple(alg, 1)),
        ("P0", indecomposable_projective(alg, 0)),
    ]
    expected = {(x, y): 0 for x, _ in named for y, _ in named}
    expected[("S0", "S0")] = 1
    assert _stable_table(alg, named) == expected
    assert _ext_tau_table(alg, named) == expected


def test_ar_formula_on_random_modules():
    # dim Ext^1(M, N) = dim Hom-bar(N, tau M) = dim Hom-under(tau^{-1} N, M)
    for alg in [loop_algebra(2), loop_algebra(3), a2_algebra()]:
        rng = np.random.default_rng(13)
        mods = [random_module(alg, rng) for _ in range(6)]
        for m in mods[:3]:
            for n in mods[3:]:
                lhs = ext(m, n, 1).dim
                assert lhs == stable_hom_inj(n, ar_translate(m)).stable_dim
                assert lhs == stable_hom_proj(ar_translate_inverse(n), m).stable_dim


# ---------------------------------------------------------------------------
# right minimal versions


def is_right_minimal(h):
    """The stable power W of V = {u : h.u = 0} vanishes: the projection onto
    a summand of M inside ker h lies in every power of V, and a nonzero W is
    not nilpotent, so it holds a nonzero idempotent (Fitting's lemma)."""
    return not _reference_stable_ideal_power(h)


def test_right_minimalize_strips_dead_summand():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    cover = projective_cover(s)
    big, _, _ = direct_sum([cover.source, s])
    h = check_intertwines(ModuleMap(big, s, [exactlin.hstack([cover.vertex_maps[0], Matrix.zeros(alg.field, 1, 1)])]))
    assert not is_right_minimal(h)
    m1, h1, m2 = right_minimalize(h)
    assert m1.dims == (2,) and is_isomorphic(m1, cover.source)
    assert m2.dims == (1,) and is_isomorphic(m2, s)
    assert exactlin.rank(h1.vertex_maps[0]) == 1  # still onto
    assert is_right_minimal(h1)


def test_right_minimalize_collapses_redundant_columns():
    alg = loop_algebra(2, p=2)
    s = simple(alg, 0)
    big, _, _ = direct_sum([s, s])
    h = check_intertwines(ModuleMap(big, s, [Matrix(alg.field, np.array([[1, 1]], dtype=np.int64))]))
    m1, h1, m2 = right_minimalize(h)
    assert m1.dims == (1,)
    assert m2.dims == (1,)
    assert exactlin.rank(h1.vertex_maps[0]) == 1


def test_right_minimalize_over_a_large_prime():
    # M = J2 + J2 + S over k[x]/(x^2), p = 2^31 - 1, in a random basis, so the
    # stable ideal power W of h: M -> J2 has dense entries near p and every
    # nilpotency test must square without int64 overflow
    p = 2147483647
    alg = loop_algebra(2, p)
    rng = np.random.default_rng(0)
    nil = np.zeros((5, 5), dtype=np.int64)
    nil[1, 0] = nil[3, 2] = 1
    g = Matrix(alg.field, rng.integers(0, p, size=(5, 5)))
    g_inv = exactlin.inverse(g)
    x = exactlin.multiply(exactlin.multiply(g, Matrix(alg.field, nil)), g_inv)
    m = check_relations(Representation(alg, [5], {"x": x}))
    j2 = jordan2(alg)
    h = check_intertwines(ModuleMap(m, j2, [exactlin.multiply(Matrix(alg.field, np.eye(2, 5, dtype=np.int64)), g_inv)]))
    w = _reference_stable_ideal_power(h)
    assert len(w) == 8
    assert all((u.vertex_maps[0].a > p // 2).sum() >= 3 for u in w)
    m1, h1, m2 = right_minimalize(h)
    assert is_isomorphic(m1, j2) and is_right_minimal(h1)
    assert isomorphic_by_summands(m2, direct_sum([j2, simple(alg, 0)])[0])


_MINIMALIZE_ALGEBRAS = {
    "kx2": lambda p: loop_algebra(2, p),
    "kx3": lambda p: loop_algebra(3, p),
    "kx4": lambda p: loop_algebra(4, p),
    "a3_zero_relation": lambda p: build_algebra(
        Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [[(1, ("a", "b"))]], PrimeField(p)
    ),
    "kronecker": lambda p: build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], PrimeField(p)),
}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(sorted(_MINIMALIZE_ALGEBRAS)),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_right_minimalize_splits_off_a_summand_and_keeps_the_image(name, p, seed, doubled, zero):
    # M = X + X + Y or X + Y makes a summand inside ker h likely; h = 0 strips all of M
    alg = _MINIMALIZE_ALGEBRAS[name](p)
    rng = np.random.default_rng(seed)
    x, y, n = (random_module(alg, rng, max_mult=1) for _ in range(3))
    m = direct_sum([x, x, y] if doubled else [x, y])[0]
    basis = hom_basis(m, n)
    if zero or not basis:
        h = repmod.zero_map(m, n)
    else:
        h = repmod.map_from_coefficients(basis, rng.integers(0, p, size=len(basis)))
    m1, h1, m2 = right_minimalize(h)
    assert h1.source == m1 and h1.target == n
    assert [a + b for a, b in zip(m1.dims, m2.dims)] == list(m.dims)
    assert is_right_minimal(h1)
    assert [exactlin.rank(vm) for vm in h1.vertex_maps] == [exactlin.rank(vm) for vm in h.vertex_maps]
    parts = [part for part in (m1, m2) if not part.is_zero()]
    assert isomorphic_by_summands(m, direct_sum(parts)[0] if parts else m1)


def _annihilator(h):
    """Basis of V = {u in End(M) : h.u = 0}, as ModuleMaps."""
    m = h.source
    endos = hom_basis(m, m)
    return _annihilated(endos, [compose(h, e) for e in endos]) if endos else []


def _reference_stable_ideal_power(h):
    """The stable term W of the power chain V >= V^2 >= ... on ModuleMaps,
    one compose per product."""
    m = h.source
    vbasis = w = _annihilator(h)
    while w:
        w2 = list(_quotient_data(m.algebra.field, [], [compose(u, x) for u in vbasis for x in w]))
        if len(w2) == len(w):
            break
        w = w2
    return w


def _reference_right_minimalize(h):
    """right_minimalize on ModuleMaps: Fitting split along the first basis
    element of V = {u : h.u = 0} whose 2^k-th power (2^k >= dim M) is
    nonzero, with the power formed by repeated compose, until every basis
    element of V is nilpotent.  Each split is checked here to be direct: at
    each vertex, the two inclusions side by side are invertible."""
    m = h.source
    stripped = []
    while True:
        for u in _annihilator(h):
            power, e = u, 1
            while e < m.total_dim:
                power, e = compose(power, power), 2 * e
            if not power.is_zero():
                break
        else:
            break
        (m, ker_incl), (im_part, im_incl) = repmod.kernel(power), repmod.image(power)
        for i1, i2 in zip(ker_incl.vertex_maps, im_incl.vertex_maps):
            assert exactlin.inverse(exactlin.hstack([i1, i2])) is not None
        stripped.append(im_part)
        h = compose(h, ker_incl)
    if not stripped:
        return m, h, repmod.zero_module(m.algebra)
    return m, h, direct_sum(stripped)[0] if len(stripped) > 1 else stripped[0]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(sorted(_MINIMALIZE_ALGEBRAS)),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_right_minimalize_matches_the_module_map_reference(name, p, seed, doubled):
    alg = _MINIMALIZE_ALGEBRAS[name](p)
    rng = np.random.default_rng(seed)
    x, y, n = (random_module(alg, rng, max_mult=1) for _ in range(3))
    m = direct_sum([x, x, y] if doubled else [x, y])[0]
    basis = hom_basis(m, n)
    h = repmod.map_from_coefficients(basis, rng.integers(0, p, size=len(basis))) if basis else repmod.zero_map(m, n)
    assert right_minimalize(h) == _reference_right_minimalize(h)


def test_projective_covers_are_right_minimal():
    for alg in [loop_algebra(2), loop_algebra(3), a2_algebra()]:
        rng = np.random.default_rng(17)
        for _ in range(6):
            m = random_module(alg, rng)
            assert is_right_minimal(projective_cover(m))


# ---------------------------------------------------------------------------
# stable isomorphism


def test_stable_isomorphism_ignores_projectives():
    alg = loop_algebra(3)
    s = simple(alg, 0)
    padded = direct_sum([s, regular_module(alg)])[0]
    assert is_stably_isomorphic(padded, s)
    assert not is_stably_isomorphic(padded, jordan2(alg))
    assert is_stably_isomorphic(regular_module(alg), regular_module(alg))


# ---------------------------------------------------------------------------
# self-injectivity and the functorial transpose/translate


def test_is_selfinjective():
    from arquiver.homalg import is_selfinjective
    from arquiver.quivalg import t2_of

    assert is_selfinjective(loop_algebra(2))
    assert is_selfinjective(loop_algebra(3))
    assert not is_selfinjective(a2_algebra())
    assert not is_selfinjective(t2_of(loop_algebra(2))[0])


def _multiset_selfinjective(alg):
    """Reference for `is_selfinjective`: the indecomposable projectives and
    injectives agree as multisets."""
    from arquiver.repmod import indecomposable_injective

    verts = range(alg.quiver.vertices)
    return same_classes(
        [indecomposable_projective(alg, v) for v in verts], [indecomposable_injective(alg, v) for v in verts]
    )


def random_monomial_algebra(rng, p):
    """A bound quiver algebra on 1 to 3 vertices and 1 to 3 arrows, with every
    path of length L (2 or 3) killed and, when L = 3, a random share of the
    paths of length 2 as well: finite-dimensional and admissible."""
    nv = int(rng.integers(1, 4))
    arrows = [(f"a{k}", int(rng.integers(nv)), int(rng.integers(nv))) for k in range(int(rng.integers(1, 4)))]
    paths = [(a,) for a in arrows]
    by_length = {}
    for length in (2, 3):
        paths = [pa + (a,) for pa in paths for a in arrows if pa[-1][2] == a[1]]
        by_length[length] = [tuple(a[0] for a in pa) for pa in paths]
    top = int(rng.integers(2, 4))
    killed = by_length[top] + [pa for pa in by_length[2] if top == 3 and rng.random() < 0.5]
    return build_algebra(Quiver(nv, arrows), [[(1, pa)] for pa in killed], PrimeField(p))


def test_is_selfinjective_matches_the_multiset_reference():
    from arquiver.cli import fixtures_dir
    from arquiver.homalg import is_selfinjective
    from arquiver.quivalg import algebra_from_json_dict, opposite, t2_of

    fixtures = [algebra_from_json_dict(json.loads((fixtures_dir() / f"{name}.json").read_text()))
                for name in ("a2", "kx2", "kx3", "t2_kx2")]
    algebras = fixtures + [opposite(a) for a in fixtures] + [t2_of(a)[0] for a in fixtures[:3]]
    for p in (2, 3):
        rng = np.random.default_rng(p)
        algebras += [random_monomial_algebra(rng, p) for _ in range(25)]
    verdicts = [is_selfinjective(alg) for alg in algebras]
    assert verdicts == [_multiset_selfinjective(alg) for alg in algebras]
    assert verdicts[:7] == [False, True, True, False, False, True, True]
    assert True in verdicts[11:] and False in verdicts[11:]


def test_dual_of_projective_map_is_contravariant():
    from arquiver.homalg import dual_of_projective_map
    from arquiver.repmod import identity_map, projective_module
    from arquiver import exactlin

    alg = loop_algebra(2)
    p = projective_module(alg, (0, 0))
    d = dual_of_projective_map(identity_map(p))
    assert d.source.dims == (4,) and d.target.dims == (4,)
    # identity dualizes to an isomorphism
    assert all(exactlin.rank(vm) == vm.rows == vm.cols for vm in d.vertex_maps)


def _factors_through_injective(m):
    from arquiver.repmod import injective_envelope, solve_hom_equation

    env = injective_envelope(m.source)
    return solve_hom_equation(env.target, m.target, m, pre=env) is not None


def test_functorial_translate_frozen_over_loop_square():
    from arquiver.homalg import ar_translate_of_map
    from arquiver.repmod import identity_map, zero_map

    alg = loop_algebra(2)
    s = simple(alg, 0)
    # identity translates to a stable automorphism of tau(S)
    t = ar_translate_of_map(identity_map(s))
    assert t.source.dims == (1,) and t.target.dims == (1,) and not t.is_zero()
    # the cover L ->> S translates to the zero map out of tau(L) = 0
    t = ar_translate_of_map(projective_cover(s))
    assert t.source.is_zero() and t.target.dims == (1,)
    # zero translates to zero
    assert ar_translate_of_map(zero_map(s, s)).is_zero()


def test_functorial_translate_respects_composition_stably():
    from arquiver.homalg import ar_translate_of_map
    from arquiver.repmod import hom_basis, map_from_coefficients

    alg = loop_algebra(3)
    rng = np.random.default_rng(29)
    p = alg.field.p
    done = 0
    while done < 8:
        m, n, k = (random_module(alg, rng) for _ in range(3))
        hmn = hom_basis(m, n)
        hnk = hom_basis(n, k)
        if not hmn or not hnk:
            continue
        f = map_from_coefficients(hmn, [int(c) for c in rng.integers(0, p, len(hmn))])
        g = map_from_coefficients(hnk, [int(c) for c in rng.integers(0, p, len(hnk))])
        lhs = ar_translate_of_map(compose(g, f))
        rhs = compose(ar_translate_of_map(g), ar_translate_of_map(f))
        diff = map_from_coefficients([lhs, rhs], [1, p - 1])
        # equal in the injectively stable category
        assert _factors_through_injective(diff)
        done += 1


# ---------------------------------------------------------------------------
# the resolution step is memoized on the module


def a3_radsq_algebra(p):
    """0 -a-> 1 -b-> 2 with ab = 0."""
    return build_algebra(Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [[(1, ("a", "b"))]], PrimeField(p))


def _memo_cases(p):
    """(module, second module) pairs with nonzero syzygies, over GF(p)."""
    loop = loop_algebra(3, p)
    a3 = a3_radsq_algebra(p)
    return [
        (jordan2(loop), simple(loop, 0)),
        (random_module(a3, np.random.default_rng(p), max_mult=2, max_gens=2), simple(a3, 0)),
    ]


def _copy(m, alg=None):
    """An equal module: a new object, over alg if given."""
    return Representation(m.algebra if alg is None else alg, m.dims, dict(m.arrow_maps))


def _fresh_algebra(alg):
    """An equal algebra read back from JSON, so no memo of alg (module
    values, projectives) reaches modules over it."""
    fresh = algebra_from_json_dict(algebra_to_json_dict(alg))
    assert fresh == alg and fresh is not alg
    return fresh


@pytest.mark.parametrize("p", [2, 3])
def test_each_cover_is_built_once_per_module(p, monkeypatch):
    # _memo_cases builds its algebras here, so no earlier test filled their memos
    built = []
    build = repmod._build_projective_cover
    monkeypatch.setattr(repmod, "_build_projective_cover", lambda m: built.append(m) or build(m))
    for m, n in _memo_cases(p):
        built.clear()
        counts = []
        for _ in range(2):
            syzygy(m)
            minimal_presentation(m)
            projective_resolution(m, 3)
            stable_hom_proj(n, m)
            ext(m, n, 2)
            counts.append(len(built))
        # the second round builds nothing, and no two built modules are equal:
        # each cover is built once per module value
        assert counts[0] == counts[1] >= 2
        assert len(set(built)) == len(built)
        copy = _copy(m)
        assert projective_cover(copy) is projective_cover(m)
        assert projective_cover(m).source is repmod.projective_module(m.algebra, projective_cover(m).source._layout[0])
        syzygy(copy)
        transpose(copy)
        projective_resolution(copy, 3)
        assert len(built) == counts[1]


@pytest.mark.parametrize("p", [2, 3])
def test_memoized_resolution_matches_a_fresh_copy(p):
    for m, _ in _memo_cases(p):
        untouched = _copy(m)
        ps, ds, eps = projective_resolution(m, 3)
        again = projective_resolution(m, 3)
        fresh = projective_resolution(_copy(m, _fresh_algebra(m.algebra)), 3)
        for res in (again, fresh):
            assert res[0] == ps and res[1] == ds and res[2] == eps
            assert [q._layout for q in res[0]] == [q._layout for q in ps]
        assert again[2] is eps and fresh[2] is not eps
        tr = transpose(m)
        assert transpose(m) is tr and ar_translate(m) == repmod.k_dual(tr)
        assert tr == transpose(_copy(m, _fresh_algebra(m.algebra)))
        # the memo is one dict per value, which an equal module finds on its
        # first use; a filled memo takes no part in equality or the hash
        assert {"cover", "syzygy", "transpose", "path_actions"} <= m._memo.keys()
        assert untouched._memo is None
        assert m == untouched and hash(m) == hash(untouched)
        assert repmod._memo_of(untouched) is m._memo


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3])
def test_an_equal_module_reads_the_same_presentation(p):
    for m, _ in _memo_cases(p):
        pres = minimal_presentation(m)
        assert minimal_presentation(_copy(m)) is pres
        assert m._memo["presentation"] is pres
        fresh = minimal_presentation(_copy(m, _fresh_algebra(m.algebra)))
        assert fresh is not pres and fresh.d == pres.d
        assert [u for u, _ in fresh.relations] == [u for u, _ in pres.relations]


def test_shared_path_actions_are_read_only():
    m = jordan2(loop_algebra(3, 2))
    acts = repmod._path_actions(m)
    assert repmod._path_actions(_copy(m)) is acts
    for a in acts.values():
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.python_O
@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_MINIMALIZE_ALGEBRAS)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_shared_memos_match_a_recompute_over_a_fresh_algebra(name, p, seed):
    alg = _MINIMALIZE_ALGEBRAS[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng, max_mult=1) for _ in range(2))

    def profile(x, y):
        return (
            projective_cover(x).source.dims,
            syzygy(x),
            transpose(x),
            ar_translate(x),
            ar_translate_inverse(x),
            cosyzygy(x),
            ext_dim(x, y, 1),
            ext_dim(x, y, 2),
            ext_dim(y, x, 1),
            dims(stable_hom_proj(x, y)),
            dims(stable_hom_proj(y, x)),
        )

    dims = lambda h: (h.total_dim, h.factoring_dim, h.stable_dim)
    first = profile(m, n)
    # equal copies over the same algebra read the memos that m and n filled
    copies = (_copy(m), _copy(n))
    assert profile(*copies) == first
    assert copies[0]._memo is m._memo and copies[1]._memo is n._memo
    # tau, tau^-1 and Omega^-1 of the copies went through the duals built for
    # m and n, and D D of each is the first equal module that asked
    for x, c in zip((m, n), copies):
        dual = repmod.k_dual(x)
        assert repmod.k_dual(c) is dual and repmod.k_dual(dual) == x
        assert repmod.k_dual(repmod.k_dual(c)) is repmod.k_dual(dual)
        assert ar_translate(c) is repmod.k_dual(transpose(x))
    # over an equal algebra built again, everything is computed afresh
    fresh = _fresh_algebra(alg)
    fresh_copies = (_copy(m, fresh), _copy(n, fresh))
    assert profile(*fresh_copies) == first
    assert repmod.k_dual(fresh_copies[0]) == repmod.k_dual(m)
    assert repmod.k_dual(fresh_copies[0]) is not repmod.k_dual(m)


# ---------------------------------------------------------------------------
# stable hom through the minimal presentation of the source


def _reference_stable_hom_proj(m, n):
    """The vec-system route: Hom(m, n) and Hom(m, P(n)) from hom_basis, the
    factoring maps composed with the cover of n, the stable dimension from
    `_quotient_data`."""
    cover = projective_cover(n)
    through = [compose(cover, g) for g in hom_basis(m, cover.source)]
    total = hom_basis(m, n)
    reps = _quotient_data(m.algebra.field, through, total)
    return homalg.StableHomSpace(m, n, len(total), len(total) - len(reps), len(reps))


def comm_square_algebra(p):
    """0 -a-> 1 -c-> 3, 0 -b-> 2 -d-> 3 with ac = bd."""
    quiver = Quiver(4, [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)])
    return build_algebra(quiver, [[(1, ("a", "c")), (p - 1, ("b", "d"))]], PrimeField(p))


def _reference_cases(p):
    """(algebra, modules) over GF(p): four random modules, a projective and
    the zero module over each of four algebras."""
    from arquiver.quivalg import t2_of

    algebras = [loop_algebra(3, p), a3_radsq_algebra(p), comm_square_algebra(p), t2_of(loop_algebra(2, p))[0]]
    for k, alg in enumerate(algebras):
        rng = np.random.default_rng([p, k])
        mods = [random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(4)]
        yield alg, mods + [indecomposable_projective(alg, alg.quiver.vertices - 1), repmod.zero_module(alg)]


_HOMALG_SMALL = {
    "kx4": lambda p: loop_algebra(4, p),
    "a3rsz": a3_radsq_algebra,
    "t2kx2": lambda p: quivalg.t2_of(loop_algebra(2, p))[0],
    "square": comm_square_algebra,
    "t2kx3": lambda p: quivalg.t2_of(loop_algebra(3, p))[0],
}


def _check_stable_hom(m, n):
    """stable_hom_proj(m, n) against the hom_basis route: the same ends and
    all three dimensions."""
    got = stable_hom_proj(m, n)
    assert got == _reference_stable_hom_proj(m, n)
    return got


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3, 5])
def test_stable_hom_proj_matches_the_hom_basis_route(p):
    seen = set()
    for _, mods in _reference_cases(p):
        for m in mods:
            for n in mods:
                got = _check_stable_hom(m, n)
                seen.add((got.total_dim > 0, got.factoring_dim > 0, got.stable_dim > 0))
    # all of Hom factoring, and nonzero factoring and stable parts at once, were met
    assert {(True, True, False), (True, True, True)} <= seen


@pytest.mark.python_O
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HOMALG_SMALL)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_stable_hom_proj_matches_the_hom_basis_route_on_random_modules(name, p, seed):
    alg = _HOMALG_SMALL[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(2))
    for x, y in ((m, n), (n, m), (m, m)):
        _check_stable_hom(x, y)


def _hom_dim_on_one_system(m, x):
    """dim Hom(m, x) from one relation system of m's presentation over all
    of x, unmemoized."""
    system = homalg._relation_system(minimal_presentation(m), x, repmod._path_actions(x))
    return system.shape[1] - exactlin.rank(Matrix(x.algebra.field, system))


@pytest.mark.python_O
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HOMALG_SMALL)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_hom_dim_is_the_size_of_the_hom_basis_on_random_modules_and_simples(name, p, seed):
    # a simple is zero at every vertex but one, so the relation systems into
    # and out of it have blocks with no rows or no columns, which are skipped
    alg = _HOMALG_SMALL[name](p)
    rng = np.random.default_rng(seed)
    mods = [random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(2)]
    mods += [repmod.simple_module(alg, v) for v in range(alg.quiver.vertices)]
    for x in mods:
        for y in mods:
            assert homalg._hom_dim(x, y) == len(hom_basis(x, y))


def _check_factoring_on_one_system(m, n):
    """factoring_dim, a sum over the summands P(v) of P(n), against
    dim Hom(m, P(n)) from one system over P(n), less dim Hom(m, Omega n)."""
    got = stable_hom_proj(m, n)
    cover = projective_cover(n).source
    assert got.factoring_dim == _hom_dim_on_one_system(m, cover) - homalg._hom_dim(m, syzygy(n))
    return got


@pytest.mark.python_O
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HOMALG_SMALL)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_factoring_dim_matches_one_system_over_the_cover_on_random_modules(name, p, seed):
    alg = _HOMALG_SMALL[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(2))
    for x, y in ((m, n), (n, m), (m, m)):
        _check_factoring_on_one_system(x, y)


def _benchmark_workloads():
    """perfbench/workloads.py, which builds the homalg-* inputs."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.python_O
def test_factoring_dim_matches_one_system_over_the_cover_on_the_homalg_large_inputs():
    workloads = _benchmark_workloads()
    groups = workloads.large_inputs(0, dict(workloads.small_algebras()))
    seen = set()
    for _, mods in groups:
        for _, x in mods:
            for _, y in mods:
                got = _check_factoring_on_one_system(x, y)
                seen.add((got.factoring_dim > 0, len(projective_cover(y).source._layout[0]) > 1))
    # nonzero factoring parts through covers of several summands were met
    assert (True, True) in seen


def _reference_ext(m, n, i):
    """The vec route: cocycles in hom_basis(P_i, n) killed by d_{i+1}, the
    coboundaries g.d_i for g in hom_basis(P_{i-1}, n), the representatives
    from `_quotient_data`.  Returns (representatives, coboundaries, d_{i+1})."""
    ps, ds, _ = projective_resolution(m, i + 1)
    h_i = hom_basis(ps[i], n)
    bound = [compose(g, ds[i - 1]) for g in hom_basis(ps[i - 1], n)]
    if not h_i:
        return (), bound, ds[i]
    cocycles = _annihilated(h_i, [compose(h, ds[i]) for h in h_i])
    return _quotient_data(m.algebra.field, bound, cocycles), bound, ds[i]


def _check_ext(m, n, i):
    """dim Ext^i(m, n) against the hom_basis route, and the cocycles of
    `_ext_coordinates` as module maps P_i -> n that kill d_{i+1} and are
    independent modulo the reference coboundaries."""
    got = ext(m, n, i)
    reps, bound, d_next = _reference_ext(m, n, i)
    cocycles = ext_cocycles(m, n, i)
    assert got.dim == len(cocycles) == len(reps)
    for z in cocycles:
        check_intertwines(z)
        assert compose(z, d_next).is_zero()
    if cocycles:
        field = m.algebra.field
        ranks = [
            exactlin.rank(Matrix(field, np.stack([flatten_map(f) for f in maps]))) if maps else 0
            for maps in (bound, bound + cocycles)
        ]
        assert ranks[1] == ranks[0] + got.dim
    return got.dim


@pytest.mark.python_O
@pytest.mark.parametrize("i", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_ext_matches_the_hom_basis_route(p, i):
    nonzero = 0
    for _, mods in _reference_cases(p):
        for m in mods:
            for n in mods:
                nonzero += _check_ext(m, n, i) > 0
    assert nonzero


@pytest.mark.python_O
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HOMALG_SMALL)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_ext_matches_the_hom_basis_route_on_random_modules(name, p, seed):
    alg = _HOMALG_SMALL[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(2))
    for i in (1, 2):
        for x, y in ((m, n), (n, m)):
            _check_ext(x, y, i)


def test_ext_and_stable_hom_reject_bad_arguments():
    s = simple(loop_algebra(2), 0)
    other = simple(a2_algebra(), 0)
    with pytest.raises(ValueError):
        ext(s, simple(loop_algebra(2, 3), 0), 1)
    with pytest.raises(ValueError):
        ext(other, s, 1)
    for i in (0, -1):
        with pytest.raises(ValueError):
            ext(s, s, i)
    with pytest.raises(ValueError):
        stable_hom_proj(s, other)
    with pytest.raises(ValueError):
        stable_hom_proj(s, simple(loop_algebra(2, 3), 0))


def test_ext_builds_no_map(monkeypatch):
    # past the memoized resolution steps, which the first call builds, ext
    # is a rank count: a second call constructs no ModuleMap at all
    built = []
    init = ModuleMap.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    nonzero = 0
    for _, mods in _reference_cases(3):
        for m in mods:
            for n in mods:
                for i in (1, 2):
                    want = ext(m, n, i).dim
                    with monkeypatch.context() as patch:
                        patch.setattr(ModuleMap, "__init__", counting_init)
                        assert ext(m, n, i).dim == want
                    assert not built
                    nonzero += want > 0
    assert nonzero


def _outside_ker_eps(m):
    """A unit vector of P(m) at vertex 0 that the cover P(m) -> m does not kill."""
    eps = projective_cover(m)
    w = np.zeros((eps.source.dims[0], 1), dtype=np.int64)
    w[np.flatnonzero(eps.vertex_maps[0].a.any(axis=0))[0]] = 1
    return w


@pytest.mark.python_O
def test_a_corrupted_relation_column_breaks_the_presentation_check(monkeypatch):
    # S over k[x]/(x^2): P0 = L, Omega S = rad L, P1 = L; the one relation,
    # d's column at the generator of P1, moved off ker eps, must trip the
    # once-per-module check that eps kills every relation
    s = simple(loop_algebra(2, 3), 0)
    w, kappa = _outside_ker_eps(s), syzygy_step(s)[2]
    compose = homalg.compose

    def corrupted(g, f):
        d = compose(g, f)
        if g is not kappa:
            return d
        ((u, pos),) = repmod.projective_generators(f.source)
        bumped = d.vertex_maps[u].a.copy()
        bumped[:, pos : pos + 1] += w
        return ModuleMap(d.source, d.target, [Matrix(s.algebra.field, bumped)])

    monkeypatch.setattr(homalg, "compose", corrupted)
    with pytest.raises(InternalInvariantError, match="not a complex"):
        ext(s, s, 1)


@pytest.mark.python_O
def test_a_corrupted_syzygy_inclusion_breaks_the_presentation_check(monkeypatch):
    # Omega S = rad L is one-dimensional, so adding w to its inclusion moves
    # the image of the generator of P1 off ker eps
    s = simple(loop_algebra(2, 3), 0)
    w = _outside_ker_eps(s)
    step = homalg.syzygy_step

    def corrupted(m):
        eps, omega, incl = step(m)
        if m is not s:
            return eps, omega, incl
        return eps, omega, ModuleMap(omega, eps.source, [Matrix(m.algebra.field, incl.vertex_maps[0].a + w)])

    monkeypatch.setattr(homalg, "syzygy_step", corrupted)
    with pytest.raises(InternalInvariantError, match="not a complex"):
        stable_hom_proj(s, s)


@pytest.mark.python_O
def test_a_wrong_syzygy_of_the_target_breaks_the_stable_hom_check(monkeypatch):
    # Omega N swapped for P(N) + P(N): Hom(S, P(N)) = soc L is nonzero, so
    # dim Hom(M, P(N)) - dim Hom(M, Omega N) falls below 0
    s = simple(loop_algebra(2, 3), 0)
    monkeypatch.setattr(homalg, "syzygy", lambda n: direct_sum([projective_cover(n).source] * 2)[0])
    with pytest.raises(InternalInvariantError, match="not a subspace"):
        stable_hom_proj(s, s)


def _homalg_pass(alg):
    """Stable Hom, Ext^1(Y, tau X) and Ext^2(X, Y) on every pair of simples,
    their syzygies and the indecomposable projectives and injectives, as a
    homalg-small pass reads them."""
    vertices = range(alg.quiver.vertices)
    mods = [simple(alg, v) for v in vertices] + [syzygy(simple(alg, v)) for v in vertices]
    mods += [indecomposable_projective(alg, v) for v in vertices]
    mods += [repmod.indecomposable_injective(alg, v) for v in vertices]
    taus = [ar_translate(x) for x in mods]
    return [
        (stable_hom_proj(x, y).stable_dim, ext_dim(y, tx, 1), ext_dim(x, y, 2))
        for x, tx in zip(mods, taus)
        for y in mods
    ]


@pytest.mark.python_O
@pytest.mark.parametrize("name", sorted(_HOMALG_SMALL))
def test_a_second_homalg_pass_is_all_memo_hits(name, monkeypatch):
    # the second pass row-reduces nothing: both kernel entry points that
    # eliminate, rref and pivots, are counted, whichever exactlin function calls them
    alg = _HOMALG_SMALL[name](3)
    first = _homalg_pass(alg)
    calls = []
    for entry in ("rref", "pivots"):
        kernel = getattr(_gfkernel, entry)
        monkeypatch.setattr(_gfkernel, entry, lambda a, p, kernel=kernel: calls.append(a.shape) or kernel(a, p))
    assert _homalg_pass(alg) == first
    assert not calls
    assert any(stable for stable, _, _ in first)


@pytest.mark.python_O
def test_every_array_wrapped_as_reduced_is_2d_int64_and_in_range(monkeypatch, tmp_path):
    # Matrix._reduced skips the checks and the % p of Matrix(field, entries),
    # so every array it is handed must already be a reduced 2-D int64 array
    wrap = Matrix._reduced.__func__
    primes = []

    def checked(cls, field, arr):
        assert arr.ndim == 2 and arr.dtype == np.int64
        assert not arr.size or (arr.min() >= 0 and arr.max() < field.p)
        primes.append(field.p)
        return wrap(cls, field, arr)

    monkeypatch.setattr(Matrix, "_reduced", classmethod(checked))
    for name, p in _HOMALG_SMALL_PRIMES.items():
        _homalg_pass(_HOMALG_SMALL[name](p))
    for p in (2, 3):
        for _, mods in _reference_cases(p):
            for m in mods:
                decompose(m)
                for n in mods:
                    stable_hom_proj(m, n), ext_dim(n, ar_translate(m), 1)
    golden = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
    for name in ("a2", "kx2", "kx3", "t2_kx2"):
        report = tmp_path / f"{name}.json"
        argv = ["verify", "--manifest", str(cli.fixtures_dir() / f"manifest_{name}.json"), "--suite", "all"]
        assert cli.main(argv + ["--seed", "0", "--json", str(report)]) == 0
        assert report.read_bytes() == (golden / f"manifest_{name}.json").read_bytes()
    assert {2, 3, 5} <= set(primes)


def jordan(alg, d):
    """J_d, the d-dimensional indecomposable over k[x]/(x^n), n >= d."""
    return check_relations(Representation(alg, [d], {"x": Matrix(alg.field, np.eye(d, k=-1, dtype=np.int64))}))


@pytest.mark.python_O
def test_almost_split_sequence_refuses_a_class_that_is_not_a_cocycle(monkeypatch):
    # J_3 over k[x]/(x^5) has the resolution ... -> L -x^2-> L -x^3-> L, and
    # tau J_3 = J_3.  A map P1 = L -> J_3 is a cocycle iff its generator
    # image y has x^2 y = 0, so a unit vector y outside ker x^2 is none.
    # Added to the almost split class, it must trip the dimension check
    alg = loop_algebra(5, 3)
    x = jordan(alg, 3)
    tx = ar_translate(x)
    p = alg.field.p
    closed = homalg._relation_system(minimal_presentation(syzygy(x)), tx, repmod._path_actions(tx))
    w = np.zeros((closed.shape[1], 1), dtype=np.int64)
    w[np.flatnonzero(closed.any(axis=0))[0]] = 1
    maps_on_paths = homalg._maps_on_paths
    monkeypatch.setattr(homalg, "_maps_on_paths", lambda src, n, acts, y: maps_on_paths(src, n, acts, (y + w) % p))
    with pytest.raises(InternalInvariantError, match="wrong dimension"):
        almost_split_sequence(x, tx)


def test_almost_split_sequence_solves_one_hom_system(monkeypatch):
    # End N for the socle, and no Hom(Omega M, N) system to push the class
    # down: the middle term is the cokernel of a map out of P1
    calls = []
    hom, solve = repmod.hom_basis, repmod.solve_hom_equation
    counting_hom = lambda m, n: calls.append((m, n)) or hom(m, n)
    for mod in (repmod, homalg):
        monkeypatch.setattr(mod, "hom_basis", counting_hom)
        monkeypatch.setattr(mod, "solve_hom_equation", lambda *a, **k: calls.append("solve") or solve(*a, **k))
    alg = loop_algebra(5, 3)
    for d in (1, 2, 3, 4):
        x = jordan(alg, d)
        tx = ar_translate(x)
        calls.clear()
        middle, incl = almost_split_sequence(x, tx)
        assert calls == [(tx, tx)]
        assert middle.total_dim == 2 * d and is_isomorphic(cokernel(incl)[0], x)


def _reference_extension_from_cocycle(m, n, f):
    """The pushout from Omega M: f kills the image of d2, so it descends along
    the cover pi: P1 -> Omega M (d1 = kappa.pi); E is the pushout of kappa
    along that map, from one Hom(Omega M, N) system.  Returns (E, inclusion
    of N)."""
    eps, omega, kappa = syzygy_step(m)
    pi = projective_cover(omega)
    fbar = repmod.solve_hom_equation(omega, n, f, pre=pi)
    assert fbar is not None
    p = m.algebra.field.p
    _, incls, _ = direct_sum([n, eps.source])
    g = repmod.map_from_coefficients([compose(incls[0], fbar), compose(incls[1], kappa)], [1, p - 1])
    e, proj_e = cokernel(g)
    return e, compose(proj_e, incls[0])


def _knitted_lists():
    """(name, algebra) of the knitted lists that the almost split sequences
    are compared on."""
    from arquiver.quivalg import t2_of

    yield "kx3-p2", loop_algebra(3, 2)
    yield "kx3-p5", loop_algebra(3, 5)
    yield "a3-rad2-p2", a3_radsq_algebra(2)
    yield "t2kx2-p5", t2_of(loop_algebra(2, 5))[0]
    yield "t2kx3-p3", t2_of(loop_algebra(3, 3))[0]


@pytest.mark.python_O
@pytest.mark.parametrize("name, alg", list(_knitted_lists()), ids=[name for name, _ in _knitted_lists()])
def test_almost_split_sequence_matches_the_pushout_reference(name, alg, monkeypatch):
    # (E, inclusion of N) entry for entry as the pushout from Omega M builds
    # them from the same class, captured where it is built
    from arquiver.arsubcat import _pool_members

    seen = 0
    for x, tx in _pool_members(alg, (20,) * alg.quiver.vertices):
        if tx is None:
            continue
        built = []
        maps_on_paths = homalg._maps_on_paths

        def spy(src, n, acts, y):
            built.append((src, n, maps_on_paths(src, n, acts, y)))
            return built[-1][2]

        with monkeypatch.context() as patch:
            patch.setattr(homalg, "_maps_on_paths", spy)
            got = almost_split_sequence(x, tx)
        (src, n, phis), = built
        xi = check_intertwines(ModuleMap(src, n, [Matrix(alg.field, phi[:, :, 0].T) for phi in phis]))
        want = _reference_extension_from_cocycle(x, tx, xi)
        errors.invariant(got[0] == want[0], f"{name}: the middle term of {x} differs from the pushout's")
        errors.invariant(got[1] == want[1], f"{name}: the inclusion of tau {x} differs from the pushout's")
        seen += 1
    assert seen


@pytest.mark.python_O
@pytest.mark.parametrize("n, i", [(4, 2), (5, 2), (5, 3)])
def test_almost_split_sequence_takes_the_socle_of_ext(n, i):
    # 0 -> J_i -> J_{i-1} (+) J_{i+1} -> J_i -> 0 over k[x]/(x^n), where
    # tau J_i = J_i; Ext^1(J_i, J_i) has dimension 2, and some of its classes
    # have another middle term (J_{i-2} (+) J_{i+2}, with J_0 = 0)
    alg = loop_algebra(n, 3)
    x = jordan(alg, i)
    assert is_isomorphic(ar_translate(x), x) and ext_dim(x, x, 1) == 2
    middle, incl = almost_split_sequence(x)
    assert isomorphic_by_summands(middle, direct_sum([jordan(alg, i - 1), jordan(alg, i + 1)])[0])
    assert middle.total_dim == 2 * x.total_dim and is_isomorphic(cokernel(incl)[0], x)


@pytest.mark.python_O
def test_almost_split_sequence_checks_its_socle_is_one_vector():
    # Ext^1(S (+) S, S) over k[x]/(x^2) is two-dimensional and End(S) = k has
    # zero radical, so the whole of it is the socle: S (+) S is no
    # indecomposable end, and the check refuses to pick a class
    alg = loop_algebra(2, 3)
    s = simple(alg, 0)
    with pytest.raises(InternalInvariantError, match="socle"):
        almost_split_sequence(direct_sum([s, s])[0], s)


def test_almost_split_sequence_needs_residue_field_gf_p():
    # a regular Kronecker module at a point of degree 2: tau M = M and
    # End(M) = GF(4), so rad End(M) is not found by the locality test
    alg = build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], PrimeField(2))
    companion = np.array([[0, 1], [1, 1]], dtype=np.int64)  # x^2 + x + 1
    m = Representation(
        alg, [2, 2], {"a": Matrix(alg.field, np.eye(2, dtype=np.int64)), "b": Matrix(alg.field, companion)}
    )
    with pytest.raises(BudgetExhausted, match="larger than GF"):
        almost_split_sequence(m)


# ---------------------------------------------------------------------------
# maps out of a projective: one builder for D(d) and cocycles, a column
# gather for covers


def small_algebras():
    """The five algebras of the `homalg-small` benchmark workload."""
    from arquiver.quivalg import t2_of

    return [
        loop_algebra(4, 2),
        a3_radsq_algebra(3),
        t2_of(loop_algebra(2, 5))[0],
        comm_square_algebra(3),
        t2_of(loop_algebra(3, 2))[0],
    ]


def test_dual_of_projective_map_is_an_involution():
    from arquiver.homalg import dual_of_projective_map
    from arquiver.repmod import projective_module

    checked = 0
    for k, alg in enumerate(small_algebras()):
        rng = np.random.default_rng(k)
        nv = alg.quiver.vertices
        for _ in range(6):
            p, q = (projective_module(alg, rng.integers(0, nv, size=int(rng.integers(1, 4)))) for _ in range(2))
            basis = hom_basis(p, q)
            if not basis:
                continue
            g = map_from_coefficients(basis, rng.integers(0, alg.field.p, size=len(basis)))
            assert dual_of_projective_map(dual_of_projective_map(g)) == g
            checked += 1
    assert checked >= 20


def test_dual_of_projective_map_rejects_ends_that_are_not_projective():
    from arquiver.homalg import dual_of_projective_map
    from arquiver.repmod import indecomposable_injective

    alg = a3_radsq_algebra(3)
    p1 = indecomposable_projective(alg, 1)
    no_layout = _copy(p1)  # the same module, not built by projective_module
    maps = [
        hom_basis(p1, indecomposable_injective(alg, 1))[0],  # an injective: no layout
        hom_basis(p1, no_layout)[0],
        hom_basis(no_layout, p1)[0],
    ]
    for g in maps:
        with pytest.raises(NotProjective):
            dual_of_projective_map(g)


def apply_path(m, source, arrows):
    """The action of a path on m, one product per arrow."""
    acc = Matrix.identity(m.algebra.field, m.dims[source])
    for aid in arrows:
        acc = exactlin.multiply(m.arrow_maps[aid], acc)
    return acc


def test_cover_columns_are_paths_applied_to_generator_images():
    from arquiver.repmod import projective_generators

    for k, alg in enumerate(small_algebras()):
        rng = np.random.default_rng([k, 1])
        for _ in range(3):
            m = random_module(alg, rng, max_mult=2, max_gens=2)
            cover = projective_cover(m)
            gens = [
                Matrix(alg.field, cover.vertex_maps[v].a[:, pos : pos + 1])
                for v, pos in projective_generators(cover.source)
            ]
            _, coords = cover.source._layout
            for v, vm in enumerate(cover.vertex_maps):
                for c, (g, path) in enumerate(coords[v]):
                    want = exactlin.multiply(apply_path(m, *path), gens[g])
                    assert (vm.a[:, c : c + 1] == want.a).all(), (k, v, c)


def _reference_relation_system(pres, x, acts):
    """The per-entry route of `homalg._relation_system`: one block addition,
    reduced mod p, for each nonzero entry of each relation column."""
    gen_verts, coords = pres.d.target._layout
    p = x.algebra.field.p
    offsets = np.cumsum([0] + [x.dims[v] for v in gen_verts])
    system = np.zeros((sum(x.dims[u] for u, _ in pres.relations), offsets[-1]), dtype=np.int64)
    row = 0
    for u, col in pres.relations:
        for i in np.flatnonzero(col):
            k, bp = coords[u][i]
            part = system[row : row + x.dims[u], offsets[k] : offsets[k + 1]]
            part[...] = (part + int(col[i]) * acts[bp]) % p
        row += x.dims[u]
    return system


def _reference_cover(m):
    """(generator vertices, vertex maps) of the cover of m by the earlier
    route: the top from `repmod._complement_data`'s reduced form, the maps
    from `repmod._maps_on_paths` with those unit vectors as generator images."""
    verts, lifts = [], []
    for j, span in enumerate(repmod.radical_spans(m)):
        e, _ = repmod._complement_data(span)
        verts += [j] * e.cols
        lifts.append(e.a.T.ravel())
    src = repmod.projective_module(m.algebra, verts)
    phis = repmod._maps_on_paths(src, m, repmod._path_actions(m), np.concatenate(lifts)[:, None])
    return tuple(verts), [Matrix(m.algebra.field, phi[:, :, 0].T) for phi in phis]


def _solved_kernel(f):
    """ker f with its arrow maps solved for, `repmod._restrict`'s route for
    bases with no identity rows, instead of read off the free rows."""
    return repmod._restrict(f.source, [exactlin.kernel_basis(vm) for vm in f.vertex_maps])[0]


@pytest.mark.python_O
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_HOMALG_SMALL)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_covers_syzygies_and_relation_systems_match_the_per_entry_routes(name, p, seed):
    alg = _HOMALG_SMALL[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng, max_mult=2, max_gens=2) for _ in range(2))
    for x in (m, n):
        cover, omega, _ = syzygy_step(x)
        verts, vms = _reference_cover(x)
        assert cover.source._layout[0] == verts
        assert list(cover.vertex_maps) == vms
        assert omega.arrow_maps == _solved_kernel(cover).arrow_maps
        for f in hom_basis(x, m)[:2]:
            assert repmod.kernel(f)[0].arrow_maps == _solved_kernel(f).arrow_maps
    for a, x in ((m, n), (n, m), (m, m)):
        # Hom(a, x), and the coboundaries `bound` and cocycles `closed` of Ext^1(a, x)
        acts = repmod._path_actions(x)
        for pres in (minimal_presentation(a), minimal_presentation(syzygy(a))):
            got = homalg._relation_system(pres, x, acts)
            assert got.dtype == np.int64
            assert np.array_equal(got, _reference_relation_system(pres, x, acts))
        bound = homalg._ext_coordinates(a, x)[1]
        assert np.array_equal(bound, _reference_relation_system(minimal_presentation(a), x, acts))


def _reordered(d, order1, order0):
    """d: P1 -> P0 between layout projectives, read between the projectives
    that list the same summands in the orders order1 and order0: the
    coordinate (k, path) of a new end is (order[k], path) of the old one."""
    alg = d.source.algebra

    def places(proj, order):
        verts, coords = proj._layout
        new = repmod.projective_module(alg, [verts[k] for k in order])
        return new, [[coords[j].index((order[k], bp)) for k, bp in new._layout[1][j]] for j in range(len(proj.dims))]

    (p1, cols), (p0, rows) = places(d.source, order1), places(d.target, order0)
    return ModuleMap(p1, p0, [Matrix(alg.field, vm.a[np.ix_(r, c)]) for vm, r, c in zip(d.vertex_maps, rows, cols)])


def _interleaved(n):
    """Odd places first: [0, 0, 1, 1] read in this order is [0, 1, 0, 1]."""
    return list(range(1, n, 2)) + list(range(0, n, 2))


@pytest.mark.python_O
@pytest.mark.parametrize("p", [2, 3])
def test_relation_systems_with_generators_out_of_vertex_order_match_the_per_entry_route(p):
    # a module equal to a projective listed out of vertex order shares its
    # cover, so a presentation can list its generators that way
    regrouped = 0
    for _, mods in _reference_cases(p):
        for m in mods:
            pres = minimal_presentation(m)
            d = _reordered(pres.d, _interleaved(len(pres.relations)), _interleaved(len(pres.d.target._layout[0])))
            relations = tuple((u, d.vertex_maps[u].a[:, pos]) for u, pos in repmod.projective_generators(d.source))
            moved = homalg.MinimalPresentation(d, None, relations, *homalg._grouped_terms(d, relations))
            regrouped += moved.regrouped
            for x in mods:
                acts = repmod._path_actions(x)
                got = homalg._relation_system(moved, x, acts)
                assert np.array_equal(got, _reference_relation_system(moved, x, acts))
    assert regrouped >= 3


@pytest.mark.python_O
def test_the_kernel_of_a_map_that_does_not_intertwine_is_refused():
    # reading the coordinate of x on P(0) over k[x]/(x^4) is no module map to
    # S(0): its kernel holds the generator but not x, so the kernel's arrow
    # map, read off the free rows of the kernel bases, fails the product check
    alg = loop_algebra(4)
    proj = indecomposable_projective(alg, 0)
    row = np.zeros((1, proj.dims[0]), dtype=np.int64)
    row[0, proj._layout[1][0].index((0, (0, ("x",))))] = 1
    f = ModuleMap(proj, simple(alg, 0), [Matrix(alg.field, row)])
    with pytest.raises(InternalInvariantError, match="subspace is not arrow-invariant"):
        repmod.kernel(f)


@pytest.mark.python_O
def test_a_syzygy_equal_to_a_projective_listed_out_of_vertex_order_takes_its_order():
    # over 0 -> 1 -> 2, Omega M of this M equals P(2) (+) P(1) listed as (2, 1);
    # built first, that projective is Omega M's cover, so P1 lists P(2) first
    alg = build_algebra(Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [], PrimeField(2))
    m = random_module(alg, np.random.default_rng(152), max_mult=2, max_gens=2)
    listed = repmod.projective_module(alg, (2, 1))
    projective_cover(listed)
    assert syzygy(m) == listed
    pres = minimal_presentation(m)
    assert pres.d.source is listed and pres.regrouped
    for x in (m, listed, simple(alg, 0), regular_module(alg)):
        acts = repmod._path_actions(x)
        assert np.array_equal(homalg._relation_system(pres, x, acts), _reference_relation_system(pres, x, acts))
        assert homalg._hom_dim(m, x) == len(hom_basis(m, x))


# ---------------------------------------------------------------------------
# maps built unchecked: the constructors check shapes only


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_MINIMALIZE_ALGEBRAS)), st.sampled_from([2, 3]), st.integers(0, 2**32 - 1))
def test_maps_the_package_builds_intertwine_on_random_modules(name, p, seed):
    # each map is a module map by the proof in the docstring of its builder,
    # and nothing re-checks it there: the cover and Omega's inclusion, D(d)
    # of the minimal presentation, the projection onto Tr M, Tr of a map,
    # from_t2_module and the morphisms of morph_hom_basis
    alg = _MINIMALIZE_ALGEBRAS[name](p)
    rng = np.random.default_rng(seed)
    m, n = (random_module(alg, rng) for _ in range(2))
    cover, _, incl = syzygy_step(m)
    dstar = homalg.dual_of_projective_map(minimal_presentation(m).d)
    tr, proj = cokernel(dstar)
    assert tr == transpose(m)
    basis = hom_basis(m, n)
    q = map_from_coefficients(basis, rng.integers(0, p, size=len(basis))) if basis else cover
    x = morphcat.from_t2_module(random_module(quivalg.t2_of(alg)[0], rng, max_mult=1))
    for f in [cover, incl, dstar, proj, homalg.transpose_of_map(q), x] + morphcat.morph_hom_basis(x, x):
        check_intertwines(f)
