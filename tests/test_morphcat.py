"""Morphism-category tests: the triangular-algebra identification, Mimo,
IMin/PMin, object-level Gorenstein projectivity, and the submodule-category
translation over a self-injective algebra.

Expected objects over k[x]/(x^2) (basis 1, x of the regular module L):
the simple S, and the morphism objects
  G1 = (S = S), G2 = (0 -> S), G3 = (S into L), S0 = (S -> 0),
  P0 = (L = L), P1 = (0 -> L), I0 = (L -> 0), LxL = (L -x-> L),
  LtoS = (L ->> S).
A morphism of objects is the module map between their T2 modules.
All frozen expectations below were computed with exact hand linear algebra
(kernels, envelopes, lifts) before this module existed.
"""

import numpy as np
import pytest

from arquiver.errors import NotMono, NotSelfInjective
from arquiver.exactlin import Matrix, PrimeField
from arquiver.homalg import ext_dim, minimal_presentation
from arquiver.morphcat import (
    from_t2_module,
    imin,
    is_gp_in_h,
    mimo,
    morph_from_json_dict,
    morph_hom_basis,
    morph_to_json_dict,
    tau_s_lambda,
    to_t2_module,
)
from arquiver.quivalg import Quiver, build_algebra, t2_of
from arquiver.repmod import (
    ModuleMap,
    Representation,
    check_intertwines,
    check_relations,
    compose,
    cokernel,
    decompose,
    hom_basis,
    identity_map,
    is_epi,
    is_isomorphic,
    is_mono,
    is_projective,
    map_from_coefficients,
    random_module,
    regular_module,
    solve_hom_equation,
    zero_map,
    zero_module,
)

F5 = PrimeField(5)


def loop_algebra(nilpotency: int, p: int = 5):
    rel = [[(1, ("x",) * nilpotency)]]
    return build_algebra(Quiver(1, [("x", 0, 0)]), rel, PrimeField(p))


def a2_algebra(p: int = 5):
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], PrimeField(p))


def simple(alg, i):
    dims = [0] * alg.quiver.vertices
    dims[i] = 1
    maps = {a.id: Matrix.zeros(alg.field, dims[a.target], dims[a.source]) for a in alg.quiver.arrows}
    return Representation(alg, dims, maps)


def kx2_objects():
    alg = loop_algebra(2)
    s = simple(alg, 0)
    lam = regular_module(alg)
    z = zero_module(alg)
    n2 = Matrix(F5, [[0, 0], [1, 0]])
    objs = {
        "G1": identity_map(s),
        "G2": zero_map(z, s),
        "G3": ModuleMap(s, lam, [Matrix(F5, [[0], [1]])]),
        "S0": zero_map(s, z),
        "P0": identity_map(lam),
        "P1": zero_map(z, lam),
        "I0": zero_map(lam, z),
        "LxL": ModuleMap(lam, lam, [n2]),
        "LtoS": ModuleMap(lam, s, [Matrix(F5, [[1, 0]])]),
    }
    for f in objs.values():
        check_intertwines(f)
    return alg, objs


def kx3_objects():
    """Objects over k[x]/(x^3), whose uniserials are S, J2 and L = J3."""
    alg = loop_algebra(3)
    s = simple(alg, 0)
    j2 = check_relations(Representation(alg, (2,), {"x": Matrix(F5, [[0, 0], [1, 0]])}))
    lam = regular_module(alg)
    z = zero_module(alg)
    objs = {
        "idS": identity_map(s),
        "idJ2": identity_map(j2),
        "idL": identity_map(lam),
        "S0": zero_map(s, z),
        "P1": zero_map(z, lam),
        "I0": zero_map(lam, z),
        "SinL": ModuleMap(s, lam, [Matrix(F5, [[0], [0], [1]])]),
        "J2inL": ModuleMap(j2, lam, [Matrix(F5, [[0, 0], [1, 0], [0, 1]])]),
        "LtoS": ModuleMap(lam, s, [Matrix(F5, [[1, 0, 0]])]),
        "LxL": ModuleMap(lam, lam, [Matrix(F5, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])]),
    }
    for f in objs.values():
        check_intertwines(f)
    return alg, objs


def same_object(x: ModuleMap, y: ModuleMap) -> bool:
    return is_isomorphic(to_t2_module(x), to_t2_module(y))


# ---------------------------------------------------------------------------
# object/morphism validation


def test_morph_object_and_map_validate():
    alg, objs = kx2_objects()
    s = objs["G1"].source
    lam = objs["P0"].source
    # a non-commuting square: G3 -> G1 with sigma2 the cover L ->> S and a
    # sigma1 that fails sigma2∘f = f'∘sigma1, so the T2 map does not
    # intertwine the connecting arrow
    cover = ModuleMap(lam, s, [Matrix(F5, [[1, 0]])])
    t3, t1 = to_t2_module(objs["G3"]), to_t2_module(objs["G1"])
    with pytest.raises(ValueError, match="map does not intertwine arrow 'eps0'"):
        check_intertwines(ModuleMap(t3, t1, identity_map(s).vertex_maps + cover.vertex_maps))


# ---------------------------------------------------------------------------
# the triangular identification


def test_to_t2_frozen_shapes():
    alg, objs = kx2_objects()
    m = to_t2_module(objs["G2"])  # (0 -> S)
    assert m.dims == (0, 1)
    m = to_t2_module(objs["G1"])  # (S = S)
    assert m.dims == (1, 1)
    assert m.arrow_maps["eps0"].tolist() == [[1]]
    # triangular algebra itself: twice the vertices, three times the dimension
    t2, corr = t2_of(alg)
    assert t2.quiver.vertices == 2 and t2.dimension == 3 * alg.dimension
    assert corr[0] == (0, 1)


def test_round_trip_on_fixture_and_random_objects():
    for nil in (2, 3):
        alg = loop_algebra(nil)
        rng = np.random.default_rng(23)
        done = 0
        while done < 25:
            a = random_module(alg, rng)
            b = random_module(alg, rng)
            basis = hom_basis(a, b)
            f = (
                map_from_coefficients(basis, [int(c) for c in rng.integers(0, 5, len(basis))])
                if basis
                else zero_map(a, b)
            )
            back = from_t2_module(to_t2_module(f))
            assert back.source == f.source and back.target == f.target
            assert all(back.vertex_maps[i] == f.vertex_maps[i] for i in range(len(f.vertex_maps)))
            done += 1


def test_from_t2_rejects_foreign_algebra():
    alg = loop_algebra(2)
    with pytest.raises(ValueError):
        from_t2_module(regular_module(alg))


def test_morph_hom_dims_match_t2_homs():
    for _, objs in (kx2_objects(), kx3_objects()):
        names = sorted(objs)
        for x in names:
            for y in names:
                tx, ty = to_t2_module(objs[x]), to_t2_module(objs[y])
                basis = morph_hom_basis(objs[x], objs[y])
                assert len(basis) == len(hom_basis(tx, ty)), (x, y)
                assert all(h.source == tx and h.target == ty for h in basis), (x, y)


# ---------------------------------------------------------------------------
# Mimo


def test_mimo_frozen_values():
    _, objs = kx2_objects()
    m, _ = mimo(objs["S0"])  # (S -> 0) => (S into L)
    assert (m.source.dims, m.target.dims) == ((1,), (2,))
    assert same_object(m, objs["G3"])
    m, _ = mimo(objs["I0"])  # (L -> 0) => (L = L) up to iso
    assert same_object(m, objs["P0"])
    # mono input returns the object unchanged with the identity as canonical
    m, sigma2 = mimo(objs["G3"])
    assert m is objs["G3"]
    assert sigma2 == identity_map(objs["G3"].target)
    # the radical multiplication splits into both projectives
    m, _ = mimo(objs["LxL"])
    parts = decompose(to_t2_module(m)).summands
    assert sorted(tuple(p.dims) for p in parts) == [(0, 2), (2, 2)]


def test_mimo_output_is_mono_everywhere():
    _, objs = kx2_objects()
    for name, obj in objs.items():
        m, sigma2 = mimo(obj)
        assert is_mono(m), name
        # the square of the canonical morphism (1_A, sigma2): m -> obj
        assert compose(sigma2, m) == obj, name


def test_mimo_minimal_approximation_property():
    """Every morphism from a mono object factors through the canonical map."""
    _, objs = kx2_objects()
    monos = [o for o in objs.values() if is_mono(o)]
    checked = 0
    for target in objs.values():
        # the canonical morphism (1_A, sigma2): mono_version -> target over T2
        mono_version, sigma2 = mimo(target)
        blocks = identity_map(target.source).vertex_maps + sigma2.vertex_maps
        canon = check_intertwines(ModuleMap(to_t2_module(mono_version), to_t2_module(target), blocks))
        for g in monos:
            for mm in morph_hom_basis(g, target):
                h = solve_hom_equation(mm.source, canon.source, mm, post=canon)
                assert h is not None and h.target == canon.source
                assert compose(canon, h) == mm
                checked += 1
    assert checked == 49  # sum of hom dims from the 5 mono objects into all 9


def a2_identity_objects():
    """x = (S0 = S0) and y = (S1 = S1) over A2 = (0 -> 1)."""
    alg = a2_algebra()
    return (
        identity_map(simple(alg, 0)),
        identity_map(simple(alg, 1)),
    )


def test_factor_zero_map_with_no_maps_to_lift_into():
    # Hom(x, y) = 0 with x nonzero: the zero map m: x -> y still factors
    # through c = id_y, as the zero map
    x, y = a2_identity_objects()
    tx, ty = to_t2_module(x), to_t2_module(y)
    h = solve_hom_equation(tx, ty, zero_map(tx, ty), post=identity_map(ty))
    assert h is not None and h.source == tx and h.target == ty and h.is_zero()


def test_factor_from_the_zero_object_lands_in_the_source_of_c():
    _, y = a2_identity_objects()
    z = zero_module(y.source.algebra)
    tx, ty = to_t2_module(zero_map(z, z)), to_t2_module(y)
    h = solve_hom_equation(tx, ty, zero_map(tx, ty), post=identity_map(ty))
    assert h is not None and h.source == tx and h.target == ty


def test_mimo_cokernel_projects_onto_cokernel():
    _, objs = kx2_objects()
    for name in ("S0", "I0", "LxL", "LtoS"):
        obj = objs[name]
        mono_version, sigma2 = mimo(obj)
        cok_m, pm = cokernel(mono_version)
        cok_f, pf = cokernel(obj)
        induced = solve_hom_equation(cok_m, cok_f, compose(pf, sigma2), pre=pm)
        assert induced is not None and is_epi(induced), name


# ---------------------------------------------------------------------------
# IMin / PMin (the minimal projective presentation as an object)


def test_imin_pmin_frozen():
    alg, objs = kx2_objects()
    s = objs["G1"].source
    got = imin(s)
    assert (got.source.dims, got.target.dims) == ((2,), (2,))
    assert same_object(got, objs["LxL"])  # (L -x-> L)
    got = minimal_presentation(s).d
    assert (got.source.dims, got.target.dims) == ((2,), (2,))
    assert same_object(got, objs["LxL"])
    zero = imin(zero_module(alg))
    assert zero.source.is_zero() and zero.target.is_zero()


# ---------------------------------------------------------------------------
# Gorenstein projectivity of objects


def test_is_gp_in_h_examples():
    _, objs = kx2_objects()
    everything_gp = lambda m: True  # self-injective base: all modules pass
    assert is_gp_in_h(objs["G1"], everything_gp)
    assert not is_gp_in_h(objs["S0"], everything_gp)  # not mono
    assert is_gp_in_h(objs["G3"], everything_gp)
    # a discriminating oracle: reject anything isomorphic to the simple
    s = objs["G1"].source
    no_simple = lambda m: not is_isomorphic(m, s)
    assert not is_gp_in_h(objs["G1"], no_simple)
    assert is_gp_in_h(objs["P0"], no_simple)


# ---------------------------------------------------------------------------
# the submodule-category translation


def test_tau_s_lambda_kills_projectives():
    _, objs = kx2_objects()
    for name in ("P0", "P1"):
        t = tau_s_lambda(objs[name])
        assert t.source.is_zero() and t.target.is_zero(), name


def test_tau_s_lambda_three_cycle():
    """Frozen: the translation cycles (S=S) -> (S into L) -> (0->S) -> (S=S)."""
    _, objs = kx2_objects()
    assert same_object(tau_s_lambda(objs["G1"]), objs["G3"])
    assert same_object(tau_s_lambda(objs["G3"]), objs["G2"])
    assert same_object(tau_s_lambda(objs["G2"]), objs["G1"])


def test_tau_s_lambda_outputs_satisfy_almost_split_data():
    """The translate is indecomposable, non-projective, and extends back."""
    _, objs = kx2_objects()
    for name in ("G1", "G2"):
        x = objs[name]
        t = tau_s_lambda(x)
        t_mod = to_t2_module(t)
        assert not is_projective(t_mod)
        cert = decompose(t_mod)
        assert len(cert.summands) == 1
        # a non-split extension 0 -> tau(x) -> E -> x -> 0 exists
        assert ext_dim(to_t2_module(x), t_mod, 1) >= 1


def test_tau_s_lambda_preconditions():
    _, objs = kx2_objects()
    with pytest.raises(NotMono):
        tau_s_lambda(objs["S0"])
    a2 = a2_algebra()
    po = identity_map(simple(a2, 0))
    with pytest.raises(NotSelfInjective):
        tau_s_lambda(po)


# ---------------------------------------------------------------------------
# JSON


def test_morph_json_round_trip():
    alg, objs = kx2_objects()
    for name in ("G3", "LtoS", "P1"):
        obj = objs[name]
        data = morph_to_json_dict(obj, "kx2")
        assert set(data) == {"A", "B", "f"}
        back = morph_from_json_dict(alg, data)
        assert back.source == obj.source and back.target == obj.target
        assert all(back.vertex_maps[i] == obj.vertex_maps[i] for i in range(len(obj.vertex_maps)))


def test_morph_json_vertex_maps_are_keyed_by_strings():
    # JSON object keys are always strings, so an integer key names no vertex
    alg, objs = kx2_objects()
    data = morph_to_json_dict(objs["G3"], "kx2")
    data["f"]["vertex_maps"] = {0: data["f"]["vertex_maps"]["0"]}
    with pytest.raises(TypeError, match="unknown key 'f.vertex_maps.0'"):
        morph_from_json_dict(alg, data)


def test_morph_json_rejects_non_intertwiner():
    alg, objs = kx2_objects()
    data = morph_to_json_dict(objs["G3"], "kx2")
    data["f"]["vertex_maps"]["0"] = [[1], [0]]  # image not x-stable
    with pytest.raises(ValueError):
        morph_from_json_dict(alg, data)
