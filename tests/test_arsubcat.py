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

import itertools

import numpy as np
import pytest

from arquiver.errors import (
    EnumerationCapExceeded,
    InfiniteProjectiveDimension,
    NotGorensteinProjective,
    NotGorensteinWithinCap,
    NotLocallyProjective,
    NotOneGorenstein,
    NotSelfInjective,
    PreconditionError,
)
from arquiver.exactlin import Matrix, PrimeField
from arquiver.homalg import (
    ar_translate,
    ext,
    extension_from_cocycle,
    is_stably_isomorphic,
    syzygy,
)
from arquiver.arsubcat import (
    DualityReport,
    GpCensus,
    GorensteinProfile,
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
    _all_modules_with_dims,
    _iso_classes_within,
)
from arquiver.morphcat import MorphObject, to_t2_module
from arquiver.quivalg import Quiver, build_algebra, opposite, t2_of
from arquiver.repmod import (
    ModuleMap,
    Representation,
    direct_sum,
    identity_map,
    indecomposable_projective,
    is_epi,
    is_isomorphic,
    is_mono,
    regular_module,
    simple_module,
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
    return ModuleMap(a, b, [Matrix(F5, mat)])


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
        "G1": MorphObject(S, S, identity_map(S)),
        "G2": MorphObject(Z, S, zero_map(Z, S)),
        "G3": MorphObject(S, L, one_map(S, L, [0, 1])),
        "S0": MorphObject(S, Z, zero_map(S, Z)),
        "P0": MorphObject(L, L, identity_map(L)),
        "P1": MorphObject(Z, L, zero_map(Z, L)),
        "I0": MorphObject(L, Z, zero_map(L, Z)),
        "LxL": MorphObject(L, L, one_map(L, L, [0, 0, 1, 0])),
        "LtoS": MorphObject(L, S, one_map(L, S, [1, 0])),
    }
    return t2, {k: to_t2_module(v) for k, v in objs.items()}, objs


@pytest.fixture(scope="module")
def t2_profile(t2_modules):
    t2, _, _ = t2_modules
    return gorenstein_profile(t2)


# ---------------------------------------------------------------------------
# profiles


def test_profile_selfinjective_loop_algebras():
    for nil in (2, 3):
        prof = gorenstein_profile(loop_algebra(nil))
        assert prof.is_selfinjective and prof.is_d_gorenstein
        assert prof.d == 0 and not prof.cap_exceeded


def test_profile_triangular_algebra_is_one_gorenstein(t2_profile):
    assert not t2_profile.is_selfinjective
    assert t2_profile.is_d_gorenstein and t2_profile.d == 1
    assert not t2_profile.cap_exceeded


def test_profile_hereditary_a2():
    prof = gorenstein_profile(a2_algebra())
    assert not prof.is_selfinjective and prof.is_d_gorenstein and prof.d == 1


def test_profile_cap_exceeded_is_reported_not_fatal():
    prof = gorenstein_profile(two_loop_algebra(), cap=4, dim_cap=64)
    assert prof.cap_exceeded and not prof.is_d_gorenstein and prof.d is None
    with pytest.raises(NotGorensteinWithinCap):
        is_gorenstein_projective(simple_module(two_loop_algebra(), 0), prof)
    with pytest.raises(ValueError):
        gorenstein_profile(two_loop_algebra(), cap=0)


# ---------------------------------------------------------------------------
# membership


def test_gorenstein_projectives_over_hereditary_are_projective():
    a2 = a2_algebra()
    prof = gorenstein_profile(a2)
    assert not is_gorenstein_projective(simple_module(a2, 0), prof)
    assert is_gorenstein_projective(simple_module(a2, 1), prof)  # = P(1)
    assert is_gorenstein_projective(indecomposable_projective(a2, 0), prof)
    assert is_gorenstein_projective(zero_module(a2), prof)


def test_gorenstein_projectives_selfinjective_everything(kx2):
    prof = gorenstein_profile(kx2)
    assert is_gorenstein_projective(simple_module(kx2, 0), prof)
    assert is_gorenstein_projective(regular_module(kx2), prof)


def test_gorenstein_projectives_over_triangular(t2_modules, t2_profile):
    _, t2m, _ = t2_modules
    verdicts = {k: is_gorenstein_projective(t2m[k], t2_profile) for k in t2m}
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
    pds = {k: has_finite_projdim(t2m[k], cap=8) for k in t2m}
    assert pds == {
        "G1": None, "G2": None, "G3": None, "S0": None, "LtoS": None,
        "P0": 0, "P1": 0, "LxL": 1, "I0": 1,
    }


# ---------------------------------------------------------------------------
# translation on Gorenstein projectives


def test_tau_gprj_reduces_to_translation_when_selfinjective(kx2):
    prof = gorenstein_profile(kx2)
    for m in (simple_module(kx2, 0), regular_module(kx2)):
        assert is_isomorphic(tau_gprj(m, prof), ar_translate(m))
    kx3 = loop_algebra(3)
    prof3 = gorenstein_profile(kx3)
    s3 = simple_module(kx3, 0)
    assert is_isomorphic(tau_gprj(s3, prof3), ar_translate(s3))


def test_tau_gprj_three_cycle_over_triangular(t2_modules, t2_profile):
    _, t2m, _ = t2_modules
    cycle = {"G1": "G3", "G2": "G1", "G3": "G2"}
    for src, dst in cycle.items():
        out = tau_gprj(t2m[src], t2_profile)
        assert is_isomorphic(out, t2m[dst])
        assert is_gorenstein_projective(out, t2_profile)
    assert tau_gprj(t2m["P0"], t2_profile).is_zero()
    assert tau_gprj(t2m["P1"], t2_profile).is_zero()


def test_tau_gprj_rejects_non_gorenstein_projective(t2_modules, t2_profile):
    _, t2m, _ = t2_modules
    for bad in ("I0", "LxL", "S0"):
        with pytest.raises(NotGorensteinProjective):
            tau_gprj(t2m[bad], t2_profile)


# ---------------------------------------------------------------------------
# translation on finite projective dimension


def test_tau_pfin_frozen_over_triangular(t2_modules, t2_profile):
    _, t2m, _ = t2_modules
    assert is_isomorphic(tau_pfin(t2m["LxL"], t2_profile), t2m["LxL"])
    assert is_isomorphic(tau_pfin(t2m["I0"], t2_profile), t2m["P1"])
    assert tau_pfin(t2m["P0"], t2_profile).is_zero()
    assert tau_pfin(t2m["P1"], t2_profile).is_zero()


def test_tau_pfin_hereditary_matches_translation():
    a2 = a2_algebra()
    prof = gorenstein_profile(a2)
    s_source = simple_module(a2, 0)
    out = tau_pfin(s_source, prof)
    assert is_isomorphic(out, simple_module(a2, 1))
    assert is_isomorphic(out, ar_translate(s_source))


def test_tau_pfin_preconditions(t2_modules, t2_profile):
    a3 = a3_zero_relation()
    prof3 = gorenstein_profile(a3)
    assert prof3.d == 2
    with pytest.raises(NotOneGorenstein):
        tau_pfin(simple_module(a3, 0), prof3)
    _, t2m, _ = t2_modules
    with pytest.raises(InfiniteProjectiveDimension):
        tau_pfin(t2m["G1"], t2_profile)


# ---------------------------------------------------------------------------
# transpose of morphisms between projectives


def test_tr_p_lambda_frozen_values(kx2, t2_modules):
    _, _, objs = t2_modules
    op = opposite(kx2)
    # identity and (0 -> L) die; (L -> 0) becomes the opposite-regular envelope form
    assert tr_p_lambda(objs["P0"]).is_zero()
    assert tr_p_lambda(objs["P1"]).is_zero()
    r = tr_p_lambda(objs["I0"])
    assert r.a.dims == (2,) and r.b.dims == (0,)
    assert is_isomorphic(r.a, regular_module(op))
    # (L -x-> L) maps to the same shape over the opposite algebra
    r = tr_p_lambda(objs["LxL"])
    assert r.a.dims == (2,) and r.b.dims == (2,)
    assert is_mono(r.f) is False and not r.f.is_zero()


def test_tr_p_lambda_is_a_stable_involution(t2_modules):
    t2, _, objs = t2_modules
    for name in ("P0", "P1", "I0", "LxL"):
        twice = tr_p_lambda(tr_p_lambda(objs[name]))
        assert is_stably_isomorphic(to_t2_module(twice), to_t2_module(objs[name]))


def test_tr_p_lambda_preconditions(t2_modules):
    _, _, objs = t2_modules
    with pytest.raises(NotLocallyProjective):
        tr_p_lambda(objs["G1"])  # S is not projective
    a2 = a2_algebra()
    p0 = indecomposable_projective(a2, 0)
    with pytest.raises(NotSelfInjective):
        tr_p_lambda(MorphObject(p0, p0, identity_map(p0)))


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


def test_gprj_duality_over_triangular(t2_modules, t2_profile):
    t2, t2m, _ = t2_modules
    items = [(k, t2m[k]) for k in ("G1", "G2", "G3", "P0", "P1")]
    report = verify_ar_duality(t2, "GPRJ", items, profile=t2_profile)
    assert report.all_equal and len(report.pairs) == 25
    by_key = {(p[0], p[1]): (p[2], p[3]) for p in report.pairs}
    # the pair that separates the relative translation from the syzygy:
    # Hom-bar(G1, G2) = 0 while Ext^1(G2, syzygy(G1) = G1) = 1
    assert by_key[("G1", "G2")] == (0, 0)
    assert by_key[("G1", "G1")] == (1, 1)
    assert by_key[("G2", "G2")] == (1, 1)
    assert by_key[("G3", "G3")] == (1, 1)


def test_pfin_duality_over_triangular(t2_modules, t2_profile):
    t2, t2m, _ = t2_modules
    items = [(k, t2m[k]) for k in ("P0", "P1", "LxL", "I0")]
    report = verify_ar_duality(t2, "PFIN", items, profile=t2_profile)
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


def test_duality_preconditions(t2_modules, t2_profile):
    t2, t2m, _ = t2_modules
    with pytest.raises(PreconditionError):
        verify_ar_duality(t2, "GPRJ", [("G1", t2m["G1"])], profile=t2_profile)
    with pytest.raises(NotGorensteinProjective):
        verify_ar_duality(t2, "GPRJ", [("I0", t2m["I0"])], profile=t2_profile)
    with pytest.raises(InfiniteProjectiveDimension):
        verify_ar_duality(t2, "PFIN", [("G1", t2m["G1"])], profile=t2_profile)
    with pytest.raises(ValueError):
        verify_ar_duality(t2, "WEIRD", [])


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


def test_census_cap(kx2):
    with pytest.raises(EnumerationCapExceeded):
        classify_gp_census(kx2, (40, 40))


def _reference_iso_classes(alg, caps):
    """Every representation with dims under caps, in the enumeration order of
    the arrow matrices' entries, deduplicated with is_isomorphic."""
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
                m = Representation(alg, dims, maps)
            except ValueError:
                continue
            if not any(is_isomorphic(m, c) for c in classes):
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


def test_tau_is_not_syzygy_over_triangular(t2_modules, t2_profile):
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


def test_tau_is_syzygy_requires_selfinjective_base():
    with pytest.raises(NotSelfInjective):
        check_tau_is_syzygy(a2_algebra(), (1, 1))


# ---------------------------------------------------------------------------
# almost split sequences reconstructed from Ext cocycles


def test_almost_split_middles_do_not_split(t2_modules, t2_profile):
    _, t2m, _ = t2_modules
    for name in ("G1", "G2", "G3"):
        g = t2m[name]
        tg = tau_gprj(g, t2_profile)
        space = ext(g, tg, 1)
        assert space.dim == 1
        middle, incl, onto = extension_from_cocycle(g, tg, space)
        assert middle.total_dim == g.total_dim + tg.total_dim
        assert is_mono(incl) and is_epi(onto)
        assert not is_isomorphic(middle, direct_sum([tg, g])[0])


def test_almost_split_middle_hereditary():
    a2 = a2_algebra()
    s_source = simple_module(a2, 0)
    tg = ar_translate(s_source)
    space = ext(s_source, tg, 1)
    middle, _, _ = extension_from_cocycle(s_source, tg, space)
    assert is_isomorphic(middle, indecomposable_projective(a2, 0))
