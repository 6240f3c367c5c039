"""Acceptance suite: one test per headline requirement, each printing a
single PASS line (or failing loudly) with its runtime budget enforced.

Every expected number here was frozen from an earlier independent oracle
run (brute-force linear algebra at the module level, exhaustive
enumeration, or hand-checkable small cases); see tests/test_arsubcat.py and
tests/test_morphcat.py for the underlying derivations.
"""

import time

import numpy as np
import pytest

from arquiver import cli
from arquiver.arsubcat import (
    check_tau_is_syzygy,
    classify_gp_census,
    verify_ar_duality,
)
from arquiver.exactlin import Matrix, PrimeField
from arquiver.homalg import ext_dim, is_stably_isomorphic, stable_hom_proj, syzygy, transpose
from arquiver.morphcat import mimo, morph_hom_basis, to_t2_module
from arquiver.quivalg import Quiver, RelationTerm, build_algebra, t2_of
from arquiver.repmod import (
    ModuleMap,
    Representation,
    check_intertwines,
    check_relations,
    identity_map,
    indecomposable_projective,
    is_isomorphic,
    is_mono,
    k_dual,
    random_module,
    regular_module,
    simple_module,
    solve_hom_equation,
    zero_map,
    zero_module,
)

F5 = PrimeField(5)


def loop_algebra(nilpotency):
    q = Quiver(1, [("x", 0, 0)])
    return build_algebra(q, [[RelationTerm(1, tuple("x" for _ in range(nilpotency)))]], F5)


def a2_algebra():
    return build_algebra(Quiver(2, [("a", 0, 1)]), [], F5)


def one_map(a, b, entries):
    mat = np.array(entries, dtype=np.int64).reshape(b.dims[0], a.dims[0])
    return check_intertwines(ModuleMap(a, b, [Matrix(F5, mat)]))


def kx2_morph_objects():
    alg = loop_algebra(2)
    s = simple_module(alg, 0)
    lam = regular_module(alg)
    z = zero_module(alg)
    return alg, {
        "G1": identity_map(s),
        "G2": zero_map(z, s),
        "G3": one_map(s, lam, [0, 1]),
        "S0": zero_map(s, z),
        "P0": identity_map(lam),
        "P1": zero_map(z, lam),
        "I0": zero_map(lam, z),
        "LxL": one_map(lam, lam, [0, 0, 1, 0]),
        "LtoS": one_map(lam, s, [1, 0]),
    }


def kx3_morph_objects():
    alg = loop_algebra(3)
    s = simple_module(alg, 0)
    j2 = check_relations(Representation(alg, (2,), {"x": Matrix(F5, np.array([[0, 0], [1, 0]], dtype=np.int64))}))
    j3 = regular_module(alg)
    z = zero_module(alg)
    return alg, {
        "idS": identity_map(s),
        "idJ2": identity_map(j2),
        "idJ3": identity_map(j3),
        "S_to_0": zero_map(s, z),
        "0_to_J3": zero_map(z, j3),
        "J3_to_0": zero_map(j3, z),
        "S_in_J3": one_map(s, j3, [0, 0, 1]),
        "J2_in_J3": one_map(j2, j3, [0, 0, 1, 0, 0, 1]),
        "J3_onto_S": one_map(j3, s, [1, 0, 0]),
        "J3_x_J3": one_map(j3, j3, [0, 0, 0, 1, 0, 0, 0, 1, 0]),
    }


# ---------------------------------------------------------------------------
# 1. classical duality: dim Hom-bar(X, Y) = dim Ext^1(Y, tau X) everywhere


def test_criterion_1_classical_ar_duality_three_fixtures():
    kx2 = loop_algebra(2)
    kx3 = loop_algebra(3)
    a2 = a2_algebra()
    j2 = check_relations(Representation(kx3, (2,), {"x": Matrix(F5, np.array([[0, 0], [1, 0]], dtype=np.int64))}))
    fixtures = [
        ("kx2", kx2, [("L", regular_module(kx2)), ("S", simple_module(kx2, 0))]),
        ("kx3", kx3, [("J2", j2), ("J3", regular_module(kx3)), ("S", simple_module(kx3, 0))]),
        ("a2", a2, [("P0", indecomposable_projective(a2, 0)),
                    ("S0", simple_module(a2, 0)), ("S1", simple_module(a2, 1))]),
    ]
    start = time.perf_counter()
    reports = {name: verify_ar_duality(alg, "FULL", items) for name, alg, items in fixtures}
    elapsed = time.perf_counter() - start
    for name, report in reports.items():
        assert report.all_equal, f"{name}: {report.pairs}"
    assert reports["kx2"].pairs == (
        ("L", "L", 0, 0, True), ("L", "S", 0, 0, True),
        ("S", "L", 0, 0, True), ("S", "S", 1, 1, True))
    assert len(reports["kx3"].pairs) == 9
    assert len(reports["a2"].pairs) == 9
    assert elapsed < 2.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 1: PASS - classical duality exact on 22 pairs in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Gorenstein-projective census over the triangular algebra of k[x]/(x^2)


def test_criterion_2_gp_census_exactly_five():
    start = time.perf_counter()
    census = classify_gp_census(loop_algebra(2), (2, 2))
    elapsed = time.perf_counter() - start
    assert len(census.objects) == 5
    assert census.counts == {"a": 2, "b": 2, "c": 1, "other": 0}
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 2: PASS - census {census.counts} in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. translate-equals-syzygy: positive half is mathematically false, and the
#    engine proves it; the negative control over k[x]/(x^3) behaves as stated.


@pytest.mark.xfail(
    strict=True,
    reason=(
        "engine-verified counterexample: over the triangular algebra of "
        "k[x]/(x^2) the relative translate cycles the three non-projective "
        "Gorenstein-projective modules G1 -> G3 -> G2 -> G1 while the syzygy "
        "fixes each of them; dim Hom-bar(G1, G2) = 0 yet "
        "dim Ext^1(G2, syzygy G1) = 1, so no translate-equals-syzygy "
        "identification can satisfy the duality formula.  The companion "
        "tests below pin the counterexample numbers."
    ),
)
def test_criterion_3_translate_equals_syzygy_positive_half():
    t2, _ = t2_of(loop_algebra(2))
    holds, witnesses = check_tau_is_syzygy(t2, (2, 2))
    assert holds, f"witness dims: {[tuple(g.dims) for g, _, _ in witnesses]}"


def test_criterion_3_counterexample_detail():
    """The concrete numbers behind the expected failure above."""
    start = time.perf_counter()
    t2, _ = t2_of(loop_algebra(2))
    _, objs = kx2_morph_objects()
    g1 = to_t2_module(objs["G1"])
    g2 = to_t2_module(objs["G2"])
    holds, witnesses = check_tau_is_syzygy(t2, (2, 2))
    elapsed = time.perf_counter() - start
    assert holds is False
    assert len(witnesses) == 3
    # each syzygy fixes its module, so every witness has translate != module
    for g, translate, omega in witnesses:
        assert is_isomorphic(omega, g)
        assert not is_isomorphic(translate, g)
    assert stable_hom_proj(g1, g2).stable_dim == 0
    assert ext_dim(g2, syzygy(g1), 1) == 1
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3a: PASS - counterexample pinned in {elapsed:.2f}s")


def test_criterion_3_negative_control_kx3():
    start = time.perf_counter()
    kx3 = loop_algebra(3)
    holds, witnesses = check_tau_is_syzygy(kx3, (3,))
    elapsed = time.perf_counter() - start
    assert holds is False
    s = simple_module(kx3, 0)
    s_witness = [w for w in witnesses if is_isomorphic(w[0], s)]
    assert len(s_witness) == 1
    _, translate, omega = s_witness[0]
    assert translate.total_dim == 1 and omega.total_dim == 2
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 3b: PASS - k[x]/(x^3) fails with witness S in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 4. relative duality for Gorenstein projectives


def test_criterion_4_gprj_duality():
    start = time.perf_counter()
    t2, t2m = _t2_with_modules()
    members = [(n, t2m[n]) for n in ("G1", "G2", "G3", "P0", "P1")]
    report = verify_ar_duality(t2, "GPRJ", members)
    elapsed = time.perf_counter() - start
    assert report.all_equal
    assert len(report.pairs) == 25
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 4: PASS - 25 GP pairs equal in {elapsed:.2f}s")


def _t2_with_modules():
    _, objs = kx2_morph_objects()
    t2, _ = t2_of(loop_algebra(2))
    return t2, {name: to_t2_module(obj) for name, obj in objs.items()}


# ---------------------------------------------------------------------------
# 5. relative duality for finite projective dimension


def test_criterion_5_pfin_duality():
    start = time.perf_counter()
    t2, t2m = _t2_with_modules()
    members = [(n, t2m[n]) for n in ("I0", "LxL", "P0", "P1")]
    report = verify_ar_duality(t2, "PFIN", members)
    elapsed = time.perf_counter() - start
    assert report.all_equal
    assert len(report.pairs) == 16
    nontrivial = {(x, y): (l, r) for x, y, l, r, _ in report.pairs if l or r}
    assert nontrivial == {
        ("I0", "I0"): (2, 2), ("I0", "LxL"): (1, 1),
        ("LxL", "I0"): (1, 1), ("LxL", "LxL"): (1, 1)}
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 5: PASS - 16 finite-pd pairs equal in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 6. the mono approximation is a right approximation, and is mono


def test_criterion_6_mimo_minimal_approximation():
    start = time.perf_counter()
    totals = {}
    for label, (_, objs) in (
        ("kx2", kx2_morph_objects()),
        ("kx3", kx3_morph_objects()),
    ):
        monos = [o for o in objs.values() if is_mono(o)]
        checked = 0
        for target in objs.values():
            mono_version, sigma2 = mimo(target)
            assert is_mono(mono_version)
            # the canonical morphism (1_A, sigma2): mono_version -> target over T2
            canon = check_intertwines(ModuleMap(
                to_t2_module(mono_version),
                to_t2_module(target),
                identity_map(target.source).vertex_maps + sigma2.vertex_maps,
            ))
            for g in monos:
                for mm in morph_hom_basis(g, target):
                    assert solve_hom_equation(mm.source, canon.source, mm, post=canon) is not None
                    checked += 1
        totals[label] = checked
    elapsed = time.perf_counter() - start
    assert totals == {"kx2": 49, "kx3": 104}
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 6: PASS - {sum(totals.values())} factorizations in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 7. structural involutions


def test_criterion_7_involutions():
    start = time.perf_counter()
    for alg in (loop_algebra(2), loop_algebra(3), a2_algebra()):
        rng = np.random.default_rng(11)
        for _ in range(100):
            m = random_module(alg, rng)
            assert k_dual(k_dual(m)) == m
            assert is_stably_isomorphic(transpose(transpose(m)), m)
    from arquiver.arsubcat import tr_p_lambda

    _, objs = kx2_morph_objects()
    for name in ("P0", "P1", "I0", "LxL"):
        twice = tr_p_lambda(tr_p_lambda(objs[name]))
        assert is_stably_isomorphic(to_t2_module(twice), to_t2_module(objs[name])), name
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    print(f"ACCEPTANCE 7: PASS - involutions on 300 modules + 4 objects in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 8. manifest verification exit codes


def test_criterion_8_manifest_exit_codes(capsys):
    fix = cli.fixtures_dir()
    code = cli.main(["verify", "--manifest", str(fix / "manifest_kx2.json"), "--suite", "all"])
    out_kx2 = capsys.readouterr().out
    assert code == 0
    assert "RESULT: PASS" in out_kx2
    assert "FAIL" not in out_kx2

    code = cli.main(["verify", "--manifest", str(fix / "manifest_kx3.json"), "--suite", "all"])
    out_kx3 = capsys.readouterr().out
    assert code == 0
    assert "FAIL (expected)" in out_kx3
    assert "S dims [1] (translate [1], syzygy [2])" in out_kx3
    assert "RESULT: PASS (1 expected failure(s) matched)" in out_kx3
    print("ACCEPTANCE 8: PASS - exit 0 and 0-with-expected-failure-matched")
