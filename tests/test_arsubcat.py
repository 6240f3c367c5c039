"""Subcategory Auslander-Reiten tests: Gorenstein profiles, membership,
relative translations, duality reports, the Gorenstein-projective census,
and the translation-versus-syzygy comparison.

Fixture vocabulary over k[x]/(x^2) (regular module L, simple S), mapped into
modules over the triangular matrix algebra T2 via the morphism category:
  G1 = (S = S), G2 = (0 -> S), G3 = (S into L), S0 = (S -> 0),
  P0 = (L = L), P1 = (0 -> L), I0 = (L -> 0), LxL = (L -x-> L),
  LtoS = (L ->> S).
The nine are all the indecomposables of T2 with dims under (2, 2); they
split into Gorenstein projectives {G1, G2, G3, P0, P1}, finite projective
dimension {P0, P1, LxL, I0}, and neither {S0, LtoS}.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from arquiver.errors import (
    BudgetExhausted,
    InfiniteProjectiveDimension,
    NotGorensteinProjective,
    NotGorensteinWithinCap,
    NotLocallyProjective,
    NotOneGorenstein,
    NotSelfInjective,
    PreconditionError,
)
from arquiver import exactlin
from arquiver.exactlin import Matrix, PrimeField
from arquiver.cli import fixtures_dir, load_manifest
from arquiver.homalg import (
    almost_split_sequence,
    ar_translate,
    ext,
    is_stably_isomorphic,
    right_minimalize,
    syzygy,
    transpose,
)
from arquiver.arsubcat import (
    check_tau_is_syzygy,
    classify_gp_census,
    gorenstein_profile,
    has_finite_projdim,
    indec_pool,
    is_gorenstein_projective,
    tau_gprj,
    tau_pfin,
    tr_p_lambda,
    verify_ar_duality,
    _gprj_members,
)
from arquiver import arsubcat, morphcat, repmod
from arquiver.morphcat import from_t2_module, imin, is_gp_in_h, to_t2_module
from arquiver.quivalg import (
    Quiver,
    algebra_from_json_dict,
    algebra_to_json_dict,
    build_algebra,
    opposite,
    t2_of,
)
from arquiver.repmod import (
    add_maps,
    _ENUM_BATCH,
    ModuleMap,
    Representation,
    broken_relations,
    check_intertwines,
    check_relations,
    cokernel,
    compose,
    decompose,
    direct_sum,
    hom_basis,
    identity_map,
    indecomposable_projective,
    is_epi,
    is_isomorphic,
    is_mono,
    is_projective,
    iso_class_index,
    map_from_coefficients,
    projective_cover,
    projective_module,
    same_classes,
    random_module,
    radical,
    regular_module,
    require_certified,
    simple_module,
    syzygy_step,
    zero_map,
    zero_module,
)

F5 = PrimeField(5)


def loop_algebra(nilpotency: int, p: int = 5):
    rel = [[(1, ("x",) * nilpotency)]]
    return build_algebra(Quiver(1, [("x", 0, 0)]), rel, PrimeField(p))


def a2_algebra(p: int = 5):
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], PrimeField(p))


def two_loop_algebra(p: int = 5):
    """Local algebra on two loops with radical square zero: its regular
    module has an injective coresolution that doubles in size every step,
    so it is not Gorenstein within any small cap."""
    q = Quiver(1, [("x", 0, 0), ("y", 0, 0)])
    rels = [[(1, (u, v))] for u in ("x", "y") for v in ("x", "y")]
    return build_algebra(q, rels, PrimeField(p))


def a3_zero_relation(p: int = 5):
    """Path algebra of 0 -> 1 -> 2 with the length-two path killed: global
    dimension two, hence 2-Gorenstein but not 1-Gorenstein."""
    return build_algebra(
        Quiver(3, [("a", 0, 1), ("b", 1, 2)]), [[(1, ("a", "b"))]], PrimeField(p)
    )


def one_map(a, b, entries):
    mat = np.array(entries, dtype=np.int64).reshape(b.dims[0], a.dims[0])
    return check_intertwines(ModuleMap(a, b, [Matrix(F5, mat)]))


@pytest.fixture(scope="module")
def kx2():
    return loop_algebra(2)


@pytest.fixture(scope="module")
def t2_modules(kx2):
    """The nine indecomposable T2(k[x]/x^2)-modules, by name."""
    t2, _ = t2_of(kx2)
    L = regular_module(kx2)
    S = simple_module(kx2, 0)
    Z = zero_module(kx2)
    objs = {
        "G1": identity_map(S),
        "G2": zero_map(Z, S),
        "G3": one_map(S, L, [0, 1]),
        "S0": zero_map(S, Z),
        "P0": identity_map(L),
        "P1": zero_map(Z, L),
        "I0": zero_map(L, Z),
        "LxL": one_map(L, L, [0, 0, 1, 0]),
        "LtoS": one_map(L, S, [1, 0]),
    }
    return t2, {k: to_t2_module(v) for k, v in objs.items()}, objs


# ---------------------------------------------------------------------------
# profiles


def test_profile_selfinjective_loop_algebras():
    for nil in (2, 3):
        assert gorenstein_profile(loop_algebra(nil)) == 0


def test_profile_triangular_algebra_is_one_gorenstein(t2_modules):
    t2, _, _ = t2_modules
    assert gorenstein_profile(t2) == 1


def test_profile_hereditary_a2():
    assert gorenstein_profile(a2_algebra()) == 1


def test_profile_cap_exceeded_is_reported_not_fatal(monkeypatch):
    # the default caps take seconds on this algebra; its coresolution
    # doubles at every step, so smaller ones give the same verdict
    monkeypatch.setattr(arsubcat, "_PROFILE_CAP", 4)
    monkeypatch.setattr(arsubcat, "_PROFILE_DIM_CAP", 64)
    alg = two_loop_algebra()
    assert gorenstein_profile(alg) is None
    for ask in (is_gorenstein_projective, has_finite_projdim):
        with pytest.raises(NotGorensteinWithinCap):
            ask(simple_module(alg, 0))


def test_profile_is_computed_once_per_algebra(monkeypatch):
    t2, _ = t2_of(loop_algebra(2))
    d = gorenstein_profile(t2)

    def no_cosyzygy(m):
        raise AssertionError("cosyzygy computed again")

    monkeypatch.setattr(arsubcat, "cosyzygy", no_cosyzygy)
    monkeypatch.setattr(arsubcat, "is_selfinjective", no_cosyzygy)
    assert gorenstein_profile(t2) == d == 1
    # an equal algebra read from JSON computes its own
    twin = algebra_from_json_dict(algebra_to_json_dict(t2))
    with pytest.raises(AssertionError, match="computed again"):
        gorenstein_profile(twin)


# ---------------------------------------------------------------------------
# membership


def test_gorenstein_projectives_over_hereditary_are_projective():
    a2 = a2_algebra()
    assert not is_gorenstein_projective(simple_module(a2, 0))
    assert is_gorenstein_projective(simple_module(a2, 1))  # = P(1)
    assert is_gorenstein_projective(indecomposable_projective(a2, 0))
    assert is_gorenstein_projective(zero_module(a2))


def test_gorenstein_projectives_selfinjective_everything(kx2):
    assert is_gorenstein_projective(simple_module(kx2, 0))
    assert is_gorenstein_projective(regular_module(kx2))


def test_gorenstein_projectives_over_triangular(t2_modules):
    _, t2m, _ = t2_modules
    verdicts = {k: is_gorenstein_projective(t2m[k]) for k in t2m}
    assert verdicts == {
        "G1": True, "G2": True, "G3": True, "P0": True, "P1": True,
        "S0": False, "I0": False, "LxL": False, "LtoS": False,
    }


def test_projective_dimensions(kx2, t2_modules):
    a2 = a2_algebra()
    assert has_finite_projdim(indecomposable_projective(a2, 0)) == 0
    assert has_finite_projdim(simple_module(a2, 0)) == 1
    assert has_finite_projdim(zero_module(a2)) == 0
    assert has_finite_projdim(simple_module(kx2, 0)) is None
    _, t2m, _ = t2_modules
    pds = {k: has_finite_projdim(t2m[k]) for k in t2m}
    assert pds == {
        "G1": None, "G2": None, "G3": None, "S0": None, "LtoS": None,
        "P0": 0, "P1": 0, "LxL": 1, "I0": 1,
    }


def _pd_by_walk(m, cap=16):
    """Reference for `has_finite_projdim`: minimal syzygies until zero, None
    when none of the first cap + 1 is zero."""
    steps = 0
    while not m.is_zero():
        if steps > cap:
            return None
        m = syzygy(m)
        steps += 1
    return max(steps - 1, 0)


@pytest.mark.parametrize(
    "make, members, infinite",
    [(a2_algebra, 3, 0), (lambda: t2_of(loop_algebra(2))[0], 9, 5), (lambda: loop_algebra(3), 3, 2)],
    ids=["a2", "t2-kx2", "kx3"],
)
def test_finite_projdim_stops_at_d_and_matches_the_cap_16_walk(make, members, infinite, monkeypatch):
    # over a d-Gorenstein algebra a finite projective dimension is at most d,
    # so d + 1 syzygies give the answer of the 17-syzygy walk
    alg = make()
    d = gorenstein_profile(alg)
    pool = indec_pool(alg, (arsubcat._KNIT_DIM_CAP,) * alg.quiver.vertices)
    want = [_pd_by_walk(m) for m in pool]
    calls = []
    monkeypatch.setattr(arsubcat, "syzygy", lambda m: calls.append(m) or syzygy(m))
    for m, pd in zip(pool, want):
        del calls[:]
        assert has_finite_projdim(m) == pd
        assert len(calls) <= d + 1
    assert (len(pool), want.count(None)) == (members, infinite)


# ---------------------------------------------------------------------------
# translation on Gorenstein projectives


def test_tau_gprj_reduces_to_translation_when_selfinjective(kx2):
    for m in (simple_module(kx2, 0), regular_module(kx2)):
        assert is_isomorphic(tau_gprj(m), ar_translate(m))
    s3 = simple_module(loop_algebra(3), 0)
    assert is_isomorphic(tau_gprj(s3), ar_translate(s3))


def test_tau_gprj_three_cycle_over_triangular(t2_modules):
    _, t2m, _ = t2_modules
    cycle = {"G1": "G3", "G2": "G1", "G3": "G2"}
    for src, dst in cycle.items():
        out = tau_gprj(t2m[src])
        assert is_isomorphic(out, t2m[dst])
        assert is_gorenstein_projective(out)
    assert tau_gprj(t2m["P0"]).is_zero()
    assert tau_gprj(t2m["P1"]).is_zero()


def test_tau_gprj_rejects_non_gorenstein_projective(t2_modules):
    _, t2m, _ = t2_modules
    for bad in ("I0", "LxL", "S0"):
        with pytest.raises(NotGorensteinProjective):
            tau_gprj(t2m[bad])


# ---------------------------------------------------------------------------
# translation on finite projective dimension


def test_tau_pfin_frozen_over_triangular(t2_modules):
    _, t2m, _ = t2_modules
    assert is_isomorphic(tau_pfin(t2m["LxL"]), t2m["LxL"])
    assert is_isomorphic(tau_pfin(t2m["I0"]), t2m["P1"])
    assert tau_pfin(t2m["P0"]).is_zero()
    assert tau_pfin(t2m["P1"]).is_zero()


def test_tau_pfin_hereditary_matches_translation():
    a2 = a2_algebra()
    s_source = simple_module(a2, 0)
    out = tau_pfin(s_source)
    assert is_isomorphic(out, simple_module(a2, 1))
    assert is_isomorphic(out, ar_translate(s_source))


def test_tau_pfin_takes_one_cokernel(monkeypatch, t2_modules):
    # the induced map is solved against tau M itself, so tau_P builds the
    # cokernel of the Mimo monomorphism and no second copy of tau M
    _, t2m, _ = t2_modules
    calls = []
    monkeypatch.setattr(arsubcat, "cokernel", lambda f: calls.append(f) or cokernel(f))
    for name, want in (("LxL", "LxL"), ("I0", "P1")):
        calls.clear()
        assert is_isomorphic(arsubcat._tau_p_core(t2m[name]), t2m[want])
        assert len(calls) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_tau_pfin_strips_a_summand_of_the_mimo_cokernel(p, monkeypatch):
    # 0 -a-> 1 with a loop x at 1, x^2 = 0: 1-Gorenstein (profile 1, so not
    # self-injective), 7 indecomposables, 5 of finite projective dimension.  For the M of dims
    # (1, 2) with pd 1, tau M has dims (0, 1) and Cok Mimo of its
    # presentation dims (2, 2), of which right_minimalize strips a (1, 0)
    alg = build_algebra(Quiver(2, [("a", 0, 1), ("x", 1, 1)]), [[(1, ("x", "x"))]], PrimeField(p))
    assert gorenstein_profile(alg) == 1
    pool = indec_pool(alg, (2, 2))
    assert len(pool) == 7
    pfin = [x for x in pool if has_finite_projdim(x) is not None]
    assert len(pfin) == 5
    (m,) = [x for x in pfin if x.dims == (1, 2) and has_finite_projdim(x) == 1]
    assert ar_translate(m).dims == (0, 1)
    calls = []

    def minimalize(h):
        out = right_minimalize(h)
        calls.append((h.source.dims, out[0].dims, out[2].dims))
        return out

    monkeypatch.setattr(arsubcat, "right_minimalize", minimalize)
    assert tau_pfin(m).dims == (1, 2)
    assert calls == [((2, 2), (1, 2), (1, 0))]
    report = verify_ar_duality(alg, "PFIN", [(str(k), x) for k, x in enumerate(pfin)])
    assert len(report.pairs) == 25 and report.all_equal


def test_tau_pfin_preconditions(t2_modules):
    a3 = a3_zero_relation()
    assert gorenstein_profile(a3) == 2
    with pytest.raises(NotOneGorenstein):
        tau_pfin(simple_module(a3, 0))
    _, t2m, _ = t2_modules
    with pytest.raises(InfiniteProjectiveDimension):
        tau_pfin(t2m["G1"])


@pytest.mark.python_O
@pytest.mark.parametrize("n, p", [(2, 5), (3, 2)], ids=["S2-p5", "S3-p2"])
def test_translates_drop_a_projective_summand(n, p, t2_modules):
    # Tr drops projective summands, so tau_G and tau_P need not strip them:
    # every non-projective GP member of S(n), and the PFIN members of the
    # t2_kx2 manifest, against the same member plus each P(v)
    cases = []
    members = _gprj_members(t2_of(loop_algebra(n, p))[0], (arsubcat._KNIT_DIM_CAP,) * 2)
    cases += [(tau_gprj, x) for x, t in members if t is not None]
    if p == 5:
        _, t2m, _ = t2_modules
        cases += [(tau_pfin, t2m[name]) for name in ("I0", "LxL", "P0", "P1")]
    assert len(cases) >= 3
    for translate, x in cases:
        want = require_certified(decompose(translate(x))).summands
        for v in range(x.algebra.quiver.vertices):
            padded = direct_sum([x, indecomposable_projective(x.algebra, v)])[0]
            got = require_certified(decompose(translate(padded))).summands
            assert same_classes(got, want), (translate.__name__, x.dims, v)


# ---------------------------------------------------------------------------
# transpose of morphisms between projectives


def test_tr_p_lambda_frozen_values(kx2, t2_modules):
    _, _, objs = t2_modules
    op = opposite(kx2)
    # identity and (0 -> L) die; (L -> 0) becomes the opposite-regular envelope form
    for name in ("P0", "P1"):
        r = tr_p_lambda(objs[name])
        assert r.source.is_zero() and r.target.is_zero(), name
    r = tr_p_lambda(objs["I0"])
    assert r.source.dims == (2,) and r.target.dims == (0,)
    assert is_isomorphic(r.source, regular_module(op))
    # (L -x-> L) maps to the same shape over the opposite algebra
    r = tr_p_lambda(objs["LxL"])
    assert r.source.dims == (2,) and r.target.dims == (2,)
    assert is_mono(r) is False and not r.is_zero()


def test_tr_p_lambda_is_a_stable_involution(t2_modules):
    t2, _, objs = t2_modules
    for name in ("P0", "P1", "I0", "LxL"):
        twice = tr_p_lambda(tr_p_lambda(objs[name]))
        assert is_stably_isomorphic(to_t2_module(twice), to_t2_module(objs[name]))


def _reference_tr_p_lambda(f):
    """tr_p_lambda by the right-minimal route it replaced: split f as
    f1 (+) (A2 -> 0) with f1 right minimal, and take IMin(Tr(Coker f) (+) A2*)."""
    _, _, a2 = right_minimalize(f)
    a2_star = projective_module(opposite(f.source.algebra), projective_cover(a2).source._layout[0])
    return imin(direct_sum([transpose(cokernel(f)[0]), a2_star])[0])


def _random_map_between_projectives(alg, rng):
    """f0 (+) (Q = Q) (+) (A2 -> 0) (+) (0 -> B2) for a random f0: P^a -> P^b,
    with a and b 1 or 2, and Q, A2 and B2 one copy of P, then a random
    automorphism of the target."""
    power = lambda k: projective_module(alg, (0,) * k)
    a, b, q = power(int(rng.integers(1, 3))), power(int(rng.integers(1, 3))), power(1)
    _, _, src_projs = direct_sum([a, q, power(1)])
    tgt, tgt_incls, _ = direct_sum([b, q, power(1)])
    draw = lambda basis: map_from_coefficients(basis, [int(c) for c in rng.integers(0, alg.field.p, len(basis))])
    f0 = draw(hom_basis(a, b))
    f = add_maps(compose(tgt_incls[0], compose(f0, src_projs[0])), compose(tgt_incls[1], src_projs[1]))
    endos = hom_basis(tgt, tgt)
    while exactlin.inverse((u := draw(endos)).vertex_maps[0]) is None:
        pass
    return compose(u, f)


@pytest.mark.python_O
@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_tr_p_lambda_matches_the_right_minimal_reference(power, p, seed):
    # Coker f* = Tr(Coker f) (+) A2*: a route that drops the A2* summand, or
    # keeps a (Q = Q) or (0 -> B2) one, changes the T2 summands
    obj = _random_map_between_projectives(loop_algebra(power, p), np.random.default_rng(seed))
    got, want = tr_p_lambda(obj), _reference_tr_p_lambda(obj)
    summands = lambda o: require_certified(decompose(to_t2_module(o))).summands
    assert (got.source.dims, got.target.dims) == (want.source.dims, want.target.dims)
    assert not want.source.is_zero()
    assert same_classes(summands(got), summands(want))


def test_tr_p_lambda_preconditions(t2_modules):
    _, _, objs = t2_modules
    with pytest.raises(NotLocallyProjective):
        tr_p_lambda(objs["G1"])  # S is not projective
    a2 = a2_algebra()
    p0 = indecomposable_projective(a2, 0)
    with pytest.raises(NotSelfInjective):
        tr_p_lambda(identity_map(p0))


# ---------------------------------------------------------------------------
# duality reports


def test_full_duality_loop_square(kx2):
    items = [("L", regular_module(kx2)), ("S", simple_module(kx2, 0))]
    report = verify_ar_duality(kx2, "FULL", items)
    assert report.tag == "FULL" and report.all_equal
    assert report.pairs == (
        ("L", "L", 0, 0, True),
        ("L", "S", 0, 0, True),
        ("S", "L", 0, 0, True),
        ("S", "S", 1, 1, True),
    )


def test_full_duality_loop_cube():
    kx3 = loop_algebra(3)
    pool = indec_pool(kx3, (3,))
    assert [m.dims for m in pool] == [(1,), (2,), (3,)]
    items = [("S", pool[0]), ("J2", pool[1]), ("J3", pool[2])]
    report = verify_ar_duality(kx3, "FULL", items)
    assert report.all_equal and len(report.pairs) == 9
    lhs_sum = sum(p[2] for p in report.pairs)
    assert lhs_sum == 4  # S and J2 each carry two nonzero stable homs


def test_full_duality_a2():
    a2 = a2_algebra()
    items = [
        ("P0", indecomposable_projective(a2, 0)),
        ("S0", simple_module(a2, 0)),
        ("S1", simple_module(a2, 1)),
    ]
    report = verify_ar_duality(a2, "FULL", items)
    assert report.all_equal and len(report.pairs) == 9
    nontrivial = tuple(p for p in report.pairs if p[0] == "S0")
    assert nontrivial == (
        ("S0", "P0", 0, 0, True),
        ("S0", "S0", 1, 1, True),
        ("S0", "S1", 0, 0, True),
    )


def test_gprj_duality_over_triangular(t2_modules):
    t2, t2m, _ = t2_modules
    items = [(k, t2m[k]) for k in ("G1", "G2", "G3", "P0", "P1")]
    report = verify_ar_duality(t2, "GPRJ", items)
    assert report.all_equal and len(report.pairs) == 25
    by_key = {(p[0], p[1]): (p[2], p[3]) for p in report.pairs}
    # the pair that separates the relative translation from the syzygy:
    # Hom-bar(G1, G2) = 0 while Ext^1(G2, syzygy(G1) = G1) = 1
    assert by_key[("G1", "G2")] == (0, 0)
    assert by_key[("G1", "G1")] == (1, 1)
    assert by_key[("G2", "G2")] == (1, 1)
    assert by_key[("G3", "G3")] == (1, 1)


def test_pfin_duality_over_triangular(t2_modules):
    t2, t2m, _ = t2_modules
    items = [(k, t2m[k]) for k in ("P0", "P1", "LxL", "I0")]
    report = verify_ar_duality(t2, "PFIN", items)
    assert report.all_equal and len(report.pairs) == 16
    nontrivial = tuple(p for p in report.pairs if p[0] in ("I0", "LxL"))
    assert nontrivial == (
        ("I0", "I0", 2, 2, True),
        ("I0", "LxL", 1, 1, True),
        ("I0", "P0", 0, 0, True),
        ("I0", "P1", 0, 0, True),
        ("LxL", "I0", 1, 1, True),
        ("LxL", "LxL", 1, 1, True),
        ("LxL", "P0", 0, 0, True),
        ("LxL", "P1", 0, 0, True),
    )


def test_duality_preconditions(t2_modules):
    t2, t2m, _ = t2_modules
    with pytest.raises(PreconditionError):
        verify_ar_duality(t2, "GPRJ", [("G1", t2m["G1"])])
    with pytest.raises(NotGorensteinProjective):
        verify_ar_duality(t2, "GPRJ", [("I0", t2m["I0"])])
    with pytest.raises(InfiniteProjectiveDimension):
        verify_ar_duality(t2, "PFIN", [("G1", t2m["G1"])])
    with pytest.raises(ValueError):
        verify_ar_duality(t2, "WEIRD", [])


@pytest.mark.parametrize(
    "tag, names, member_test",
    [("GPRJ", ("G1", "G2", "G3", "P0", "P1"), "is_gorenstein_projective"),
     ("PFIN", ("P0", "P1", "LxL", "I0"), "has_finite_projdim")],
)
def test_duality_checks_each_member_once(t2_modules, monkeypatch, tag, names, member_test):
    # one decomposition and one membership test per member: the translate
    # of a checked member does not repeat them
    from arquiver import homalg

    t2, t2m, _ = t2_modules
    seen = {"decompose": [], member_test: []}
    for module, name in ((arsubcat, "decompose"), (homalg, "decompose"), (arsubcat, member_test)):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda m, real=real, calls=seen[name]: calls.append(m) or real(m))
    report = verify_ar_duality(t2, tag, [(k, t2m[k]) for k in names])
    assert report.all_equal
    assert len(seen["decompose"]) == len(seen[member_test]) == len(names)


def test_duality_needs_certified_indecomposable_members(kx2, monkeypatch):
    # the closure check compares translates with members by `is_isomorphic`,
    # exact only when the member is indecomposable
    s = simple_module(kx2, 0)
    lam = regular_module(kx2)
    with pytest.raises(PreconditionError, match="LS is not a certified indecomposable"):
        verify_ar_duality(kx2, "FULL", [("L", lam), ("LS", direct_sum([lam, s])[0]), ("S", s)])
    with pytest.raises(PreconditionError, match="Z is not a certified indecomposable"):
        verify_ar_duality(kx2, "FULL", [("S", s), ("Z", zero_module(kx2))])
    # a member whose decomposition is not certified is refused as well
    real = arsubcat.decompose
    monkeypatch.setattr(arsubcat, "decompose", lambda m: dataclasses.replace(real(m), certified=False))
    with pytest.raises(PreconditionError, match="S is not a certified indecomposable"):
        verify_ar_duality(kx2, "FULL", [("S", s)])


# ---------------------------------------------------------------------------
# census


def test_census_loop_square(kx2):
    census = classify_gp_census(kx2, (2, 2))
    assert census.counts == {"a": 2, "b": 2, "c": 1, "other": 0}
    assert census.objects == (
        ("g0:0x1", "B_COSOCLE"),
        ("g1:0x2", "B_COSOCLE"),
        ("g2:1x1", "A_IDENTITY"),
        ("g3:1x2", "C_SYZYGY"),
        ("g4:2x2", "A_IDENTITY"),
    )


def test_census_loop_cube_has_other():
    census = classify_gp_census(loop_algebra(3), (2, 2))
    assert census.counts == {"a": 2, "b": 2, "c": 0, "other": 1}
    tags = dict(census.objects)
    assert tags["g3:1x2"] == "OTHER"


def test_census_empty_bound(kx2):
    census = classify_gp_census(kx2, (0, 0))
    assert census.objects == () and sum(census.counts.values()) == 0


def test_census_cap():
    # S(6) is representation-infinite: its knitting passes the cap, and
    # nothing is kept for the base or its triangular algebra
    base = loop_algebra(6, 2)
    with pytest.raises(BudgetExhausted, match="not certified complete"):
        classify_gp_census(base, (1, 1))
    assert "gp_census" not in base._cache
    assert "gprj" not in t2_of(base)[0]._cache


def test_census_over_a_t2_past_the_profile_caps_is_not_gorenstein(monkeypatch):
    # over a base that is not self-injective the census filters with T2's own
    # GP test, which needs T2 Gorenstein within the caps: with the dimension
    # cap between dim A3 = 5 and dim T2(A3) = 15, the base has a profile and
    # T2 has none
    monkeypatch.setattr(arsubcat, "_PROFILE_DIM_CAP", 10)
    base = a3_zero_relation(2)
    assert gorenstein_profile(base) == 2
    with pytest.raises(NotGorensteinWithinCap):
        classify_gp_census(base, (1,) * 6)
    assert "gprj" not in t2_of(base)[0]._cache


@pytest.mark.parametrize("n, count", [(2, 5), (3, 10)])
def test_census_counts_the_submodule_categories(n, count):
    # Ringel and Schmidmeier's counts of indecomposables in S(n), the
    # submodule category of k[x]/(x^n); S(4) is in the next test
    members = _gprj_members(t2_of(loop_algebra(n, 2))[0], (arsubcat._KNIT_DIM_CAP,) * 2)
    assert len(members) == count
    assert all(is_gp_in_h(from_t2_module(x), lambda m: True) for x, _ in members)


def _census_template(obj):
    """The shape (c) template (Omega g -> P(g)) of g = coker f, built from a
    projective cover of g, for an object f: A -> B with f mono, B projective
    and g nonzero and not projective; None for any other object."""
    if is_projective(obj.target) and is_mono(obj):
        g, _ = cokernel(obj)
        if not g.is_zero() and not is_projective(g):
            return syzygy_step(g)[2]
    return None


def _template_census_tag(obj):
    """The census tag with shape (c) decided by an isomorphism to the
    template: the reference for `_census_tag`, which needs no template."""
    template = _census_template(obj)
    if template is not None and is_isomorphic(to_t2_module(obj), to_t2_module(template)):
        return "C_SYZYGY", "c"
    if is_mono(obj) and is_epi(obj):
        return "A_IDENTITY", "a"
    if obj.source.is_zero():
        return "B_COSOCLE", "b"
    return "OTHER", "other"


_TAG_CASES = {
    **{f"S{n}-p{p}": (lambda n=n, p=p: loop_algebra(n, p)) for n in (2, 3, 4) for p in (2, 3, 5)},
    "S5-p2": lambda: loop_algebra(5, 2),  # 50 objects; S(5) takes about 3 s per prime
    **{f"a2-p{p}": (lambda p=p: a2_algebra(p)) for p in (2, 3, 5)},
    **{f"a3-zero-relation-p{p}": (lambda p=p: a3_zero_relation(p)) for p in (2, 3, 5)},
}


@pytest.mark.parametrize("name", list(_TAG_CASES))
def test_census_tags_match_the_template_reference(name):
    # the whole knitted census of S(n) (submodule category of k[x]/(x^n))
    # or of T2(base), tagged with and without the shape (c) template
    base = _TAG_CASES[name]()
    members = _gprj_members(t2_of(base)[0], (arsubcat._KNIT_DIM_CAP,) * 2 * base.quiver.vertices)
    objects = [from_t2_module(x) for x, _ in members]
    assert [arsubcat._census_tag(o) for o in objects] == [_template_census_tag(o) for o in objects]


def test_census_answers_where_the_enumeration_hit_its_cap():
    # an enumeration of every module of dims (3,) over GF(5) needs 5^9
    # candidates; the knitting is bounded by the members instead, and all
    # 20 objects of S(4) fit under (4, 6)
    assert len(classify_gp_census(loop_algebra(2), (2, 3)).objects) == 5
    census = classify_gp_census(loop_algebra(4), (4, 6))
    assert len(census.objects) == 20 and sum(census.counts.values()) == 20


def test_census_over_a_semisimple_base_is_its_two_projectives(monkeypatch):
    # the triangular algebra of k is the path algebra of A2, whose only
    # Gorenstein projectives are 0 -> k and k = k; a self-injective base
    # needs no membership test
    semisimple = build_algebra(Quiver(1, []), [], PrimeField(5))
    assert not hasattr(arsubcat, "is_gp_in_h")
    monkeypatch.setattr(arsubcat, "is_gorenstein_projective", lambda m: pytest.fail("is_gorenstein_projective called"))
    assert [s.dims for s, _ in _gprj_members(t2_of(semisimple)[0], (3, 2))] == [(0, 1), (1, 1)]


def _all_modules_with_dims(alg, dims, batch=_ENUM_BATCH):
    """One representative per isomorphism class of representations with the
    given dimension vector, by exhaustive matrix enumeration.  A class is
    keyed by the iso classes of its indecomposable summands (Krull-Schmidt).

    The candidates run in `itertools.product` order, in batches of at most
    `batch` matrix entries, and `broken_relations` screens each batch at
    once; only a candidate that satisfies every relation is built as a
    module and decomposed, so a class keeps its first such candidate."""
    arrows = alg.quiver.arrows
    shapes = [(dims[a.target], dims[a.source]) for a in arrows]
    entries = sum(r * c for r, c in shapes)
    classes, indecs = {}, []
    combos = itertools.product(range(alg.field.p), repeat=entries)
    while chunk := list(itertools.islice(combos, max(1, batch // max(1, entries)))):
        flat = np.array(chunk, dtype=np.int64).reshape(len(chunk), entries)
        stacks, pos = {}, 0
        for a, (r, c) in zip(arrows, shapes):
            stacks[a.id] = flat[:, pos : pos + r * c].reshape(len(chunk), r, c)
            pos += r * c
        passed = np.ones(len(chunk), dtype=bool)
        for broken in broken_relations(alg, stacks):
            passed &= ~broken
        for k in np.flatnonzero(passed):
            m = Representation(alg, dims, {aid: st[k] for aid, st in stacks.items()})
            summands = require_certified(decompose(m)).summands
            classes.setdefault(tuple(sorted(iso_class_index(indecs, x) for x in summands)), m)
    return list(classes.values())


def _iso_classes_within(alg, *caps):
    """Representatives of every iso class with dims under one of caps
    coordinatewise, the zero module included, each dims vector enumerated
    once, in lexicographic order."""
    out = []
    for dims in itertools.product(*(range(max(at_v) + 1) for at_v in zip(*caps))):
        if any(all(d <= c for d, c in zip(dims, cap)) for cap in caps):
            out.extend(_all_modules_with_dims(alg, dims))
    return out


def _line_representatives(p: int, d: int):
    """The zero vector, then every vector of GF(p)^d whose first nonzero
    entry is 1, in the order of itertools.product(range(p), repeat=d): one
    leading position at a time, from the last down to the first.  These are
    the first members of the lines {c*v : c != 0} in that order."""
    yield (0,) * d
    for lead in range(d - 1, -1, -1):
        for tail in itertools.product(range(p), repeat=d - 1 - lead):
            yield (0,) * lead + (1,) + tail


@pytest.mark.parametrize("p", [2, 3, 5])
def test_line_representatives_are_the_first_vector_of_each_line(p):
    for d in range(5):
        first = [v for v in itertools.product(range(p), repeat=d) if next((x for x in v if x), 1) == 1]
        assert list(_line_representatives(p, d)) == first


def _reference_gp_morph_modules(base, bound):
    """The exhaustive census: every map of every pair of modules under the
    two halves of bound, adding every summand of every Gorenstein-projective
    triple.  A map is taken up to a nonzero scalar, one coefficient vector
    per line (`_line_representatives`), since (id, c id) is an isomorphism
    (A, B, f) -> (A, B, c f)."""
    n = base.quiver.vertices
    p = base.field.p
    classes = []
    targets = _iso_classes_within(base, bound[n:])
    for a_mod in _iso_classes_within(base, bound[:n]):
        for b_mod in targets:
            basis = hom_basis(a_mod, b_mod)
            for coeffs in _line_representatives(p, len(basis)):
                f = map_from_coefficients(basis, list(coeffs)) if basis else zero_map(a_mod, b_mod)
                if (f.source.is_zero() and f.target.is_zero()) or not is_gp_in_h(f, is_gorenstein_projective):
                    continue
                for s in require_certified(decompose(to_t2_module(f))).summands:
                    iso_class_index(classes, s)
    classes.sort(key=lambda s: (s.total_dim, s.dims))
    return classes


@pytest.mark.python_O
@pytest.mark.parametrize(
    "make, bound",
    [
        (lambda: loop_algebra(2, 3), (2, 2)),
        (lambda: loop_algebra(3, 3), (2, 2)),
        (lambda: loop_algebra(3, 2), (2, 3)),
        (lambda: a2_algebra(2), (1, 1, 1, 1)),
        (lambda: a3_zero_relation(2), (1,) * 6),
        (lambda: loop_algebra(2), (2, 2)),
        (lambda: loop_algebra(3), (2, 2)),
        (lambda: a2_algebra(2), (1, 2, 2, 1)),
    ],
    ids=["kx2-p3", "kx3-p3", "kx3-p2", "a2-p2", "a3-zero-relation-p2", "kx2-p5", "kx3-p5", "a2-p2-uneven-halves"],
)
def test_census_matches_the_full_enumeration_reference(make, bound):
    # knitted representatives differ from the enumerated ones, so the lists
    # agree up to isomorphism, in the same order of dimensions
    base = make()
    found = tuple(s for s, _ in _gprj_members(t2_of(base)[0], bound))
    reference = tuple(_reference_gp_morph_modules(base, bound))
    assert [s.dims for s in found] == [s.dims for s in reference]
    assert same_classes(found, reference)


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: loop_algebra(2), (2, 2)), (lambda: loop_algebra(3, 3), (2, 2)), (lambda: a3_zero_relation(2), (1,) * 6)],
    ids=["kx2-p5", "kx3-p3", "a3-zero-relation-p2"],
)
def test_census_members_are_gp_indecomposable_and_pairwise_non_isomorphic(make, bound):
    base = make()
    members = [s for s, _ in _gprj_members(t2_of(base)[0], bound)]
    assert members
    for k, s in enumerate(members):
        assert is_gp_in_h(from_t2_module(s), is_gorenstein_projective)
        assert len(require_certified(decompose(s)).summands) == 1
        assert not any(is_isomorphic(s, t) for t in members[:k])


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize(
    "make, size, gps",
    [(a2_algebra, 11, 4), (a3_zero_relation, 20, 6), (lambda p: loop_algebra(2, p), 9, 5),
     (lambda p: loop_algebra(3, p), 27, 10)],
    ids=["a2", "a3-zero-relation", "kx2", "kx3"],
)
def test_census_gp_test_is_the_object_criterion(make, size, gps, p):
    # the census cuts T2's list down with T2's own test, Ext^{1..d}(X, T2) = 0;
    # on every indecomposable T2-module, GP or not, it agrees with the object
    # criterion: f mono, and A, B and Coker f GP over the base
    t2, _ = t2_of(make(p))
    pool = indec_pool(t2, (arsubcat._KNIT_DIM_CAP,) * t2.quiver.vertices)
    verdicts = [is_gorenstein_projective(x) for x in pool]
    assert verdicts == [is_gp_in_h(from_t2_module(x), is_gorenstein_projective) for x in pool]
    assert (len(pool), sum(verdicts)) == (size, gps)


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: loop_algebra(2), (2, 2)), (lambda: loop_algebra(3, 3), (2, 2)), (lambda: a3_zero_relation(2), (1,) * 6)],
    ids=["kx2-p5", "kx3-p3", "a3-zero-relation-p2"],
)
def test_census_decomposes_no_triple(monkeypatch, make, bound):
    # the census splits and tags only knitted modules (rad X and middle
    # terms): it builds the T2 module of no (A, B, f) triple, not even a
    # shape (c) template
    base = make()
    monkeypatch.setattr(morphcat, "to_t2_module", lambda obj: pytest.fail("census built a T2 module"))
    assert not hasattr(arsubcat, "to_t2_module")
    census = classify_gp_census(base, bound)
    assert census.objects


def _reference_modules_with_dims(alg, dims):
    """The enumeration loop that builds every candidate as a Representation,
    skips it when `check_relations` raises ValueError and decomposes the rest."""
    arrows = alg.quiver.arrows
    shapes = [(dims[a.target], dims[a.source]) for a in arrows]
    classes, indecs = {}, []
    for flat in itertools.product(range(alg.field.p), repeat=sum(r * c for r, c in shapes)):
        maps, pos = {}, 0
        for a, (r, c) in zip(arrows, shapes):
            maps[a.id] = Matrix(alg.field, np.array(flat[pos : pos + r * c], dtype=np.int64).reshape(r, c))
            pos += r * c
        try:
            m = check_relations(Representation(alg, dims, maps))
        except ValueError:
            continue
        summands = require_certified(decompose(m)).summands
        classes.setdefault(tuple(sorted(iso_class_index(indecs, s) for s in summands)), m)
    return list(classes.values())


def comm_square(p: int = 2):
    return build_algebra(
        Quiver(4, [("a", 0, 1), ("b", 0, 2), ("c", 1, 3), ("d", 2, 3)]),
        [[(1, ("a", "c")), (-1, ("b", "d"))]],
        PrimeField(p),
    )


@pytest.mark.python_O
@pytest.mark.parametrize("batch", [None, 5], ids=["batch-default", "batch-5"])
@pytest.mark.parametrize(
    "make, dims_list",
    [
        (lambda: loop_algebra(2, 3), [(0,), (1,), (2,)]),
        (lambda: loop_algebra(3, 3), [(2,)]),
        (lambda: loop_algebra(3, 2), [(3,)]),
        (lambda: a2_algebra(2), [(1, 1), (2, 1), (0, 2)]),
        (lambda: a3_zero_relation(2), [(1, 1, 1), (1, 0, 1), (2, 1, 1)]),
        (comm_square, [(1, 1, 1, 1), (1, 2, 1, 1), (0, 1, 1, 0), (1, 1, 0, 1)]),
    ],
    ids=["kx2-p3", "kx3-p3", "kx3-p2", "a2-p2", "a3-zero-relation-p2", "commutative-square-p2"],
)
def test_enumeration_matches_the_per_candidate_loop(make, dims_list, batch):
    # batch 5: batches of one or two candidates, cut anywhere in the product order
    alg = make()
    for dims in dims_list:
        got = _all_modules_with_dims(alg, dims, batch or _ENUM_BATCH)
        want = _reference_modules_with_dims(alg, dims)
        assert [(m.dims, m.arrow_maps) for m in got] == [(m.dims, m.arrow_maps) for m in want]


def test_enumeration_validates_no_candidate(monkeypatch):
    # the relations are checked on stacks, so no candidate is built and then
    # rejected by check_relations
    def no_check(m):
        raise AssertionError("candidate validated one by one")

    alg = comm_square(3)
    monkeypatch.setattr(repmod, "check_relations", no_check)
    got = _all_modules_with_dims(alg, (1, 1, 1, 1))
    monkeypatch.undo()
    assert _same_modules(got, _reference_modules_with_dims(alg, (1, 1, 1, 1)))


def test_census_is_knitted_once_per_base_algebra(monkeypatch):
    # the list lives on the triangular algebra, which t2_of keeps one of per
    # base; the base holds none
    base = loop_algebra(2)
    t2, _ = t2_of(base)
    census = classify_gp_census(base, (1, 1))
    knitted = t2._cache["gprj"]
    assert [k for k in t2._cache if "gprj" in str(k) or "census" in str(k)] == ["gprj"]
    assert not [k for k in base._cache if "gprj" in str(k) or "census" in str(k)]

    def no_knitting(*args):
        raise RuntimeError("knitted again")

    monkeypatch.setattr(arsubcat, "_knit", no_knitting)
    monkeypatch.setattr(arsubcat, "_tau_g_core", no_knitting)
    # another bound, and tau-syzygy over the triangular algebra, read the
    # same list and its translates
    assert classify_gp_census(base, (1, 1)) == census
    assert len(classify_gp_census(base, (2, 2)).objects) == 5
    ok, witnesses = check_tau_is_syzygy(t2, (1, 1))
    assert not ok and [g.dims for g, _, _ in witnesses] == [(0, 1), (1, 1)]
    assert t2._cache["gprj"] is knitted
    # an equal algebra read from JSON has a memo of its own
    twin = algebra_from_json_dict(algebra_to_json_dict(base))
    assert twin == base and twin is not base
    with pytest.raises(RuntimeError, match="knitted again"):
        classify_gp_census(twin, (1, 1))


@pytest.mark.parametrize("make", [lambda: loop_algebra(2), lambda: loop_algebra(3)], ids=["kx2-p5", "kx3-p5"])
def test_census_memoizes_each_tau_g_as_tau_gprj(make):
    base = make()
    members = _gprj_members(t2_of(base)[0], (arsubcat._KNIT_DIM_CAP,) * 2 * base.quiver.vertices)
    assert any(t is not None for _, t in members)
    for x, t in members:
        if is_projective(x):
            assert t is None
        else:
            assert is_isomorphic(t, tau_gprj(x))


@pytest.mark.python_O
@pytest.mark.parametrize("make", [lambda: loop_algebra(2), lambda: loop_algebra(3, 2)], ids=["kx2-p5", "kx3-p2"])
def test_relative_almost_split_sequences_do_not_split_and_their_dims_add_up(make):
    base = make()
    members = _gprj_members(t2_of(base)[0], (arsubcat._KNIT_DIM_CAP,) * 2)
    for x, t in members:
        if t is None:
            continue
        middle, incl = almost_split_sequence(x, t)
        assert middle.total_dim == x.total_dim + t.total_dim
        assert is_mono(incl) and is_isomorphic(cokernel(incl)[0], x)
        assert not isomorphic_by_summands(middle, direct_sum([t, x])[0])
        # the middle term stays inside the list
        for s in require_certified(decompose(middle)).summands:
            assert sum(is_isomorphic(s, y) for y, _ in members) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_to_t2_module_satisfies_the_t2_relations(p):
    # the T2 modules of the census objects and of their shape (c) templates
    # (`_template_census_tag`), and those of random objects (A, B, f)
    built = []
    if p == 5:
        for base in (loop_algebra(2), loop_algebra(3)):
            for x, _ in _gprj_members(t2_of(base)[0], (2, 2)):
                obj = from_t2_module(x)
                template = _census_template(obj)
                built.extend(to_t2_module(o) for o in (obj, template) if o is not None)
        assert len(built) > 10
    rng = np.random.default_rng(p)
    for base in (loop_algebra(2, p), loop_algebra(3, p), a3_zero_relation(p)):
        for _ in range(10):
            a, b = random_module(base, rng), random_module(base, rng)
            basis = hom_basis(a, b)
            coeffs = rng.integers(0, p, size=len(basis))
            f = map_from_coefficients(basis, coeffs) if basis else zero_map(a, b)
            built.append(to_t2_module(f))
    for out in built:
        check_relations(out)


def isomorphic_by_summands(m, n):
    """Isomorphism of two modules that may both be decomposable: by
    Krull-Schmidt, their certified summands are the same iso classes."""
    summands = lambda x: require_certified(decompose(x)).summands
    return same_classes(summands(m), summands(n))


def _reference_iso_classes(alg, caps):
    """Every representation with dims under caps, in the enumeration order of
    the arrow matrices' entries, deduplicated pairwise with
    `isomorphic_by_summands`."""
    arrows = alg.quiver.arrows
    out = []
    for dims in itertools.product(*(range(c + 1) for c in caps)):
        shapes = [(dims[a.target], dims[a.source]) for a in arrows]
        classes = []
        for flat in itertools.product(range(alg.field.p), repeat=sum(r * c for r, c in shapes)):
            entries = iter(flat)
            maps = {
                a.id: Matrix(alg.field, np.array([next(entries) for _ in range(r * c)], dtype=np.int64).reshape(r, c))
                for a, (r, c) in zip(arrows, shapes)
            }
            try:
                m = check_relations(Representation(alg, dims, maps))
            except ValueError:
                continue
            if not any(isomorphic_by_summands(m, c) for c in classes):
                classes.append(m)
        out.extend(classes)
    return out


@pytest.mark.parametrize(
    "alg, caps",
    [
        (loop_algebra(2, 5), (2,)),
        (a2_algebra(), (2, 1)),
        (loop_algebra(3, 2), (3,)),
        (a3_zero_relation(3), (1, 2, 1)),
    ],
    ids=["kx2-p5", "a2-p5", "kx3-p2", "a3-zero-relation-p3"],
)
def test_iso_classes_match_a_dedupe_by_is_isomorphic(alg, caps):
    assert _iso_classes_within(alg, caps) == _reference_iso_classes(alg, caps)


def test_iso_classes_of_kronecker_modules_with_two_summands_of_one_dims():
    # Over GF(2) the Kronecker modules of dims (2, 2) fall into 16 classes:
    # 6 sums of two of the three (1, 1) classes, (1,0)+(1,2), (0,1)+(2,1),
    # 3 sums (1,0)+(0,1)+(1,1), (1,0)+(1,0)+(0,1)+(0,1), and 4 indecomposables
    # (regular of length 2 at the three rational points, regular simple at the
    # one point of degree 2).  Two summands of equal dims may come in either
    # order, so a key that is not sorted finds too many; the reference dedupe
    # takes too long here.
    alg = build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], PrimeField(2))
    assert len(_all_modules_with_dims(alg, (2, 2))) == 16


# ---------------------------------------------------------------------------
# indecomposable pools


def test_indec_pool_counts(kx2, t2_modules):
    assert [m.dims for m in indec_pool(kx2, (2,))] == [(1,), (2,)]
    assert len(indec_pool(a2_algebra(), (1, 1))) == 3
    t2, t2m, _ = t2_modules
    pool = indec_pool(t2, (2, 2))
    assert len(pool) == 9
    for name, mod in t2m.items():
        assert any(is_isomorphic(mod, m) for m in pool), name


def _same_modules(xs, ys):
    return [(m.dims, m.arrow_maps) for m in xs] == [(m.dims, m.arrow_maps) for m in ys]


def _kronecker(p: int = 2):
    return build_algebra(Quiver(2, [("a", 0, 1), ("b", 0, 1)]), [], PrimeField(p))


# algebra, and its number of indecomposables
_KNIT_CASES = {
    "kx3-p2": (lambda: loop_algebra(3, 2), 3),
    "kx3-p3": (lambda: loop_algebra(3, 3), 3),
    "a3_zero_relation-p3": (lambda: a3_zero_relation(3), 5),
    "commutative_square-p2": (lambda: comm_square(2), 11),
    "t2_kx2-p2": (lambda: t2_of(loop_algebra(2, 2))[0], 9),
}


@pytest.mark.python_O
@pytest.mark.parametrize("name", list(_KNIT_CASES))
def test_indec_pool_matches_the_exhaustive_reference(name):
    # the knitted list, cut at its own largest dims, against every
    # indecomposable that the exhaustive enumeration finds under those dims
    make, count = _KNIT_CASES[name]
    alg = make()
    everything = indec_pool(alg, (arsubcat._KNIT_DIM_CAP,) * alg.quiver.vertices)
    caps = tuple(max(at_v) for at_v in zip(*(m.dims for m in everything)))
    assert len(everything) == count and indec_pool(alg, caps) == everything
    reference = [m for m in _iso_classes_within(alg, caps) if len(require_certified(decompose(m)).summands) == 1]
    assert same_classes(everything, reference)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_indec_pool_of_t2_kx3_has_27_classes(p):
    t2, _ = t2_of(loop_algebra(3, p))
    pool = indec_pool(t2, (5, 5))
    assert len(pool) == 27 and max(m.dims for m in pool) == (5, 4)
    assert all(len(require_certified(decompose(m)).summands) == 1 for m in pool)


@pytest.mark.python_O
@pytest.mark.parametrize("make", [_kronecker, lambda: t2_of(loop_algebra(4, 2))[0]], ids=["kronecker", "t2_kx4"])
def test_knitting_a_representation_infinite_algebra_is_not_certified(make):
    alg = make()
    with pytest.raises(BudgetExhausted, match="not certified complete"):
        indec_pool(alg, (1,) * alg.quiver.vertices)
    assert "indec_pool" not in alg._cache


def test_indec_pool_is_memoized_once_per_algebra(monkeypatch):
    alg = loop_algebra(3, 2)
    pool = indec_pool(alg, (3,))
    assert [m.dims for m in pool] == [(1,), (2,), (3,)]
    assert [k for k in alg._cache if "indec" in str(k)] == ["indec_pool"]
    knitted = alg._cache["indec_pool"]
    built = []
    sequence = arsubcat.almost_split_sequence
    monkeypatch.setattr(arsubcat, "almost_split_sequence", lambda m, n=None: built.append(m) or sequence(m, n))
    # another bound filters the same list; an equal algebra read from JSON knits its own
    assert indec_pool(alg, [3]) == pool and not built
    assert [m.dims for m in indec_pool(alg, (2,))] == [(1,), (2,)] and not built
    assert alg._cache["indec_pool"] is knitted
    twin = algebra_from_json_dict(algebra_to_json_dict(alg))
    assert twin == alg and twin is not alg
    assert _same_modules(indec_pool(twin, (3,)), pool)
    assert len(built) == 2  # one sequence per non-projective member, (1,) and (2,)


@pytest.mark.python_O
@pytest.mark.parametrize("name", ["a2", "kx2", "kx3", "t2_kx2"])
def test_knitted_list_is_closed_and_its_sequences_do_not_split_on_the_manifests(name):
    alg = load_manifest(fixtures_dir() / f"manifest_{name}.json").algebra
    knitted = indec_pool(alg, (arsubcat._KNIT_DIM_CAP,) * alg.quiver.vertices)
    for x in knitted:
        if is_projective(x):
            before = radical(x)[0]
        else:
            before, incl = almost_split_sequence(x)
            tau_x = ar_translate(x)
            assert before.total_dim == x.total_dim + tau_x.total_dim
            assert is_mono(incl) and is_isomorphic(cokernel(incl)[0], x)
            assert not isomorphic_by_summands(before, direct_sum([tau_x, x])[0])
        for s in require_certified(decompose(before)).summands:
            assert sum(is_isomorphic(s, y) for y in knitted) == 1


# ---------------------------------------------------------------------------
# translation versus syzygy


def test_tau_is_syzygy_over_loop_square(kx2):
    ok, witnesses = check_tau_is_syzygy(kx2, (2,))
    assert ok and witnesses == []


def test_tau_is_not_syzygy_over_loop_cube():
    ok, witnesses = check_tau_is_syzygy(loop_algebra(3), (3,))
    assert not ok
    shapes = {(g.dims, t.dims, om.dims) for g, t, om in witnesses}
    # the simple S: translation fixes it but its syzygy is two-dimensional
    assert ((1,), (1,), (2,)) in shapes
    assert ((2,), (2,), (1,)) in shapes


def test_tau_is_not_syzygy_over_triangular(t2_modules):
    """The relative translation on the Gorenstein projectives of the
    triangular algebra is a 3-cycle, while the syzygy fixes each of the
    three non-projectives, so every one of them is a witness."""
    t2, t2m, _ = t2_modules
    ok, witnesses = check_tau_is_syzygy(t2, (2, 2))
    assert not ok and len(witnesses) == 3
    cycle = {"G1": "G3", "G2": "G1", "G3": "G2"}
    for g, t, om in witnesses:
        name = next(k for k in ("G1", "G2", "G3") if is_isomorphic(g, t2m[k]))
        assert is_isomorphic(t, t2m[cycle[name]])
        assert is_isomorphic(om, t2m[name])


def test_tau_syzygy_over_t2_of_a2_reads_the_census_list(monkeypatch):
    # gl.dim T2(A2) = 2, so its GP modules are its projectives and none is
    # compared; tau-syzygy reads the list that the census kept on T2
    a2 = a2_algebra()
    t2, _ = t2_of(a2)
    census = classify_gp_census(a2, (1,) * 4)
    assert census.objects and "gprj" in t2._cache
    monkeypatch.setattr(arsubcat, "_knit", lambda *args: pytest.fail("knitted again"))
    monkeypatch.setattr(arsubcat, "is_gorenstein_projective", lambda m: pytest.fail("filtered again"))
    assert check_tau_is_syzygy(t2, (1,) * 4) == (True, [])


def test_tau_is_syzygy_requires_selfinjective_base():
    with pytest.raises(NotSelfInjective):
        check_tau_is_syzygy(a2_algebra(), (1, 1))


# ---------------------------------------------------------------------------
# almost split sequences from their class in Ext^1


def test_almost_split_middles_do_not_split(t2_modules):
    _, t2m, _ = t2_modules
    for name in ("G1", "G2", "G3"):
        g = t2m[name]
        tg = tau_gprj(g)
        assert ext(g, tg, 1).dim == 1
        middle, incl = almost_split_sequence(g, tg)
        assert middle.total_dim == g.total_dim + tg.total_dim
        assert is_mono(incl) and is_isomorphic(cokernel(incl)[0], g)
        assert not isomorphic_by_summands(middle, direct_sum([tg, g])[0])


def test_almost_split_middle_hereditary():
    a2 = a2_algebra()
    s_source = simple_module(a2, 0)
    tg = ar_translate(s_source)
    middle, _ = almost_split_sequence(s_source, tg)
    assert is_isomorphic(middle, indecomposable_projective(a2, 0))
