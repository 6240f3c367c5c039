"""Command-line surface: exit codes, JSON determinism, packaged fixtures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from arquiver import cli
from arquiver.quivalg import algebra_from_json_dict


FIX = cli.fixtures_dir()
# The reports of `verify --suite all --seed 0 --json` on the four manifests,
# which the benchmark also checks its runs against.
GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def verify_all_matches_golden(name, capsys, tmp_path):
    """Run `verify --suite all --seed 0 --json` on a packaged manifest and
    check the report byte for byte against its golden; return (code, text)."""
    report = tmp_path / "report.json"
    code, text, _ = run(
        ["verify", "--manifest", str(FIX / f"manifest_{name}.json"),
         "--suite", "all", "--seed", "0", "--json", str(report)], capsys)
    assert report.read_bytes() == (GOLDEN / f"manifest_{name}.json").read_bytes()
    return code, text


# ---------------------------------------------------------------------------
# packaged fixtures


def test_fixture_files_ship_with_the_package():
    names = {p.name for p in FIX.glob("*.json")}
    assert {"kx2.json", "kx3.json", "a2.json", "t2_kx2.json"} <= names
    assert {"manifest_kx2.json", "manifest_kx3.json", "manifest_a2.json",
            "manifest_t2_kx2.json"} <= names
    assert len(names) == 26


def test_fixture_algebras_parse():
    for name in ["kx2.json", "kx3.json", "a2.json", "t2_kx2.json"]:
        alg = algebra_from_json_dict(json.loads((FIX / name).read_text()))
        assert alg.dimension > 0


# ---------------------------------------------------------------------------
# compute


def test_compute_syzygy_of_simple(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, text, _ = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy",
         "--out", str(out)], capsys)
    assert code == 0
    assert "syzygy: dims [1]" in text
    assert json.loads(out.read_text())["dims"] == [1]


def test_compute_tau_of_projective_notes_it(capsys):
    code, text, _ = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_L.json"), "--op", "tau"], capsys)
    assert code == 0
    assert "tau: dims [0] (projective input)" in text
    payload = json.loads(text.split("\n", 1)[1])
    assert payload["dims"] == [0]


def test_compute_mimo_on_morph_object(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, text, _ = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S_to_zero.json"), "--op", "mimo",
         "--out", str(out)], capsys)
    assert code == 0
    assert "B dims [2]" in text
    payload = json.loads(out.read_text())
    assert set(payload) == {"A", "B", "f"}
    assert payload["B"]["dims"] == [2]


def test_compute_transpose_lands_over_the_opposite(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, _, _ = run(
        ["compute", "--algebra", str(FIX / "kx3.json"),
         "--module", str(FIX / "kx3_S.json"), "--op", "tr",
         "--out", str(out)], capsys)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["algebra"] == "kx3.op"
    # Tr(S) = coker of mult-by-x on the opposite regular module: again simple
    assert payload["dims"] == [1]


def test_compute_imin_returns_a_morph_object(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, text, _ = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "imin",
         "--out", str(out)], capsys)
    assert code == 0
    assert "imin:" in text
    assert set(json.loads(out.read_text())) == {"A", "B", "f"}


def test_compute_trp_needs_locally_projective_input(capsys):
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S_to_zero.json"), "--op", "tr-p"], capsys)
    assert code == 2
    assert "NotLocallyProjective" in err


def test_compute_trp_on_locally_projective_object(capsys, tmp_path):
    probe = tmp_path / "L_to_zero.json"
    probe.write_text(json.dumps({
        "A": {"algebra": "kx2", "dims": [2], "arrow_maps": {"x": [[0, 0], [1, 0]]}},
        "B": {"algebra": "kx2", "dims": [0], "arrow_maps": {"x": []}},
        "f": {"vertex_maps": {"0": []}},
    }))
    first = tmp_path / "first.json"
    code, _, _ = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(probe), "--op", "tr-p", "--out", str(first)], capsys)
    assert code == 0
    payload = json.loads(first.read_text())
    assert payload["A"]["algebra"] == "kx2.op"
    assert payload["A"]["dims"] == [2]
    assert payload["B"]["dims"] == [0]


# ---------------------------------------------------------------------------
# exit codes


def test_malformed_json_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(
        ["compute", "--algebra", str(bad),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"], capsys)
    assert code == 1
    assert "input error" in err


def test_missing_file_exits_1(capsys, tmp_path):
    code, _, err = run(
        ["compute", "--algebra", str(tmp_path / "absent.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"], capsys)
    assert code == 1
    assert "input error" in err


def test_module_incompatible_with_algebra_exits_1(capsys):
    # J3 carries x with x^2 != 0, illegal over k[x]/(x^2)
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx3_J3.json"), "--op", "syzygy"], capsys)
    assert code == 1
    assert "input error" in err


def test_module_op_on_morph_file_exits_2(capsys):
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S_to_zero.json"), "--op", "syzygy"], capsys)
    assert code == 2
    assert "precondition" in err


def test_morph_op_on_module_file_exits_2(capsys):
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "mimo"], capsys)
    assert code == 2
    assert "precondition" in err


def test_violated_op_precondition_exits_2_and_names_it(capsys):
    # S has infinite projective dimension over the self-injective k[x]/(x^3)
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx3.json"),
         "--module", str(FIX / "kx3_S.json"), "--op", "tau-pfin"], capsys)
    assert code == 2
    assert "InfiniteProjectiveDimension" in err


def test_internal_error_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(cli, "syzygy", lambda m: (_ for _ in ()).throw(RuntimeError("boom")))
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"),
         "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"], capsys)
    assert code == 3
    assert "internal error" in err


# ---------------------------------------------------------------------------
# t2


def test_t2_of_kx2_matches_packaged_file(capsys, tmp_path):
    out = tmp_path / "t2.json"
    code, text, _ = run(
        ["t2", "--algebra", str(FIX / "kx2.json"), "--out", str(out)], capsys)
    assert code == 0
    assert "dimension 6" in text
    assert out.read_bytes() == (FIX / "t2_kx2.json").read_bytes()
    data = json.loads(out.read_text())
    assert data["vertex_correspondence"] == {"0": [0, 1]}
    assert algebra_from_json_dict(data).dimension == 6


def test_t2_of_a2_has_dimension_9(capsys):
    code, text, _ = run(["t2", "--algebra", str(FIX / "a2.json")], capsys)
    assert code == 0
    assert "dimension 9" in text


def test_t2_malformed_file_exits_1(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": "no"}')
    code, _, _ = run(["t2", "--algebra", str(bad)], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# verify


def test_verify_single_suite_ar_full(capsys):
    code, text, _ = run(
        ["verify", "--manifest", str(FIX / "manifest_kx2.json"),
         "--suite", "ar-full"], capsys)
    assert code == 0
    assert "4 pairs checked, all equal" in text
    assert "RESULT: PASS" in text


def test_verify_all_on_kx2_manifest_exits_0(capsys, tmp_path):
    code, text = verify_all_matches_golden("kx2", capsys, tmp_path)
    assert code == 0
    assert "census {a: 2, b: 2, c: 1, other: 0}" in text
    assert "RESULT: PASS" in text
    assert "FAIL" not in text


def test_verify_all_on_kx3_manifest_matches_expected_failure(capsys, tmp_path):
    code, text = verify_all_matches_golden("kx3", capsys, tmp_path)
    assert code == 0
    assert "FAIL (expected)" in text
    assert "S dims [1] (translate [1], syzygy [2])" in text
    assert "RESULT: PASS (1 expected failure(s) matched)" in text


def test_verify_all_on_a2_manifest_exits_0(capsys, tmp_path):
    code, text = verify_all_matches_golden("a2", capsys, tmp_path)
    assert code == 0
    assert "RESULT: PASS" in text


def test_verify_all_on_t2_manifest_exits_0(capsys, tmp_path):
    code, text = verify_all_matches_golden("t2_kx2", capsys, tmp_path)
    assert code == 0
    assert "25 pairs checked, all equal" in text
    assert "16 pairs checked, all equal" in text
    assert "G1 dims [1, 1] (translate [1, 2], syzygy [1, 1])" in text
    assert "RESULT: PASS (1 expected failure(s) matched)" in text


def test_verify_json_report_is_byte_identical_per_seed(capsys, tmp_path):
    outs = []
    for name in ["a.json", "b.json"]:
        path = tmp_path / name
        code, _, _ = run(
            ["verify", "--manifest", str(FIX / "manifest_kx2.json"),
             "--suite", "ar-full", "--seed", "7", "--json", str(path)], capsys)
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    report = json.loads(outs[0])
    assert report["all_expectations_met"] is True
    assert report["seed"] == 7
    assert report["results"][0]["data"]["pairs"] == [
        ["L", "L", 0, 0, True], ["L", "S", 0, 0, True],
        ["S", "L", 0, 0, True], ["S", "S", 1, 1, True]]


def test_verify_unmet_expectation_exits_4(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["suites"]["ar-full"]["pairs"] = 5
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, text, _ = run(
        ["verify", "--manifest", str(fx / "manifest_kx2.json"),
         "--suite", "ar-full"], capsys)
    assert code == 4
    assert "RESULT: FAIL" in text


def test_verify_unknown_suite_in_manifest_exits_1(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["suites"]["bogus"] = {}
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_kx2.json"),
         "--suite", "ar-full"], capsys)
    assert code == 1
    assert "unknown suites" in err


def test_verify_unknown_member_exits_1(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["suites"]["ar-full"]["members"] = ["L", "ghost"]
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_kx2.json"),
         "--suite", "ar-full"], capsys)
    assert code == 1
    assert "ghost" in err


def test_verify_decomposable_duality_member_exits_2_and_names_it(capsys, tmp_path):
    # L (+) S over k[x]/(x^2) is not indecomposable, so the isomorphism test
    # of the closure check would not be exact on it
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    (fx / "kx2_LS.json").write_text(json.dumps(
        {"algebra": "kx2", "arrow_maps": {"x": [[0, 0, 0], [1, 0, 0], [0, 0, 0]]}, "dims": [3]}))
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["modules"]["LS"] = "kx2_LS.json"
    manifest["suites"]["ar-full"]["members"] = ["L", "LS", "S"]
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_kx2.json"),
         "--suite", "ar-full"], capsys)
    assert code == 2
    assert "LS is not a certified indecomposable" in err


def test_verify_mismatched_base_algebra_exits_1(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_t2_kx2.json").read_text())
    manifest["base_algebra"] = "kx3.json"
    (fx / "manifest_t2_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_t2_kx2.json"),
         "--suite", "ar-gprj"], capsys)
    assert code == 1
    assert "triangular" in err


@pytest.mark.parametrize(
    "edit, phrase",
    [
        (lambda m: m["suites"].update({"ar-full": ["L", "S"]}), "suite ar-full must be a JSON object"),
        (lambda m: m.update({"bound": ["x"]}), "'bound' must be a list of integers"),
        (lambda m: m.update({"expected": [2]}), "'expected' must be a JSON object"),
        (lambda m: m.update({"modules": ["kx2_L.json"]}), "'modules' must be a JSON object"),
        (lambda m: m["modules"].update({"L": 3}), "module 'L' must name a module file"),
        (lambda m: m["suites"]["gp-census"].update({"bound": ["x", 2]}), "gp-census.bound must be a list"),
        (lambda m: m["suites"]["gp-census"].update({"counts": [1]}), "gp-census.counts must be a JSON object"),
        (lambda m: m["expected"].update({"indec_count": "x"}), "expected.indec_count must be an integer"),
        (lambda m: m["expected"].update({"gorenstein": [0]}), "expected.gorenstein must be a JSON object"),
        (lambda m: m["suites"]["ar-full"].update({"pairs": "x"}), "ar-full.pairs must be an integer"),
        (lambda m: m["suites"]["ar-full"].update({"pairs": "4"}), "ar-full.pairs must be an integer"),
        (lambda m: m["expected"].update({"indec_count": 2.7}), "expected.indec_count must be an integer"),
        (lambda m: m["suites"]["ar-full"].update({"members": 5}), "ar-full.members must be a list of names"),
        (lambda m: m["suites"]["tau-syzygy"].update({"witnesses": 5}), "tau-syzygy.witnesses must be a list of names"),
        (lambda m: m.pop("bound"), "lacks a 'bound' entry, which suite indec-pool reads"),
        (lambda m: m.update({"bound": [2, 2]}), "'bound' must hold a non-negative integer per vertex of the algebra (1)"),
        (lambda m: m.update({"bound": [-1]}), "'bound' must hold a non-negative integer per vertex"),
        (lambda m: m.update({"bound": [1.5]}), "'bound' must be a list of integers"),
        (lambda m: m["suites"]["tau-syzygy"].update({"bound": [True]}), "tau-syzygy.bound must be a list of integers"),
        (lambda m: m["suites"]["gp-census"].update({"bound": [2]}),
         "gp-census.bound must hold a non-negative integer per vertex of the triangular algebra of the base (2)"),
        (lambda m: m["suites"]["tau-syzygy"].update({"bound": [2, 2, 2]}),
         "tau-syzygy.bound must hold a non-negative integer per vertex of the algebra (1)"),
    ],
    ids=["suite-list", "bound-string", "expected-list", "modules-list", "module-path", "census-bound", "census-counts",
         "indec-count-string", "gorenstein-list", "pairs-string", "pairs-numeral", "indec-count-float",
         "members-number", "witnesses-number",
         "bound-missing", "bound-too-long", "bound-negative", "bound-float", "tau-syzygy-bound-bool",
         "census-bound-too-short", "tau-syzygy-bound-too-long"],
)
def test_verify_malformed_manifest_shapes_exit_1(capsys, tmp_path, edit, phrase):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    edit(manifest)
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", "all"], capsys)
    assert code == 1
    assert phrase in err


def test_verify_without_a_bound_runs_the_suites_that_do_not_read_it(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    for name in ("manifest_kx2.json", "manifest_t2_kx2.json"):
        manifest = json.loads((fx / name).read_text())
        del manifest["bound"]
        (fx / name).write_text(json.dumps(manifest))
    for suite in ("ar-full", "gp-census", "tau-syzygy"):
        code, out, _ = run(["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", suite], capsys)
        assert code == 0 and "RESULT: PASS" in out, suite
    # over a base algebra the doubled top-level bound cannot cap the census
    manifest = json.loads((fx / "manifest_t2_kx2.json").read_text())
    del manifest["suites"]["gp-census"]["bound"]
    (fx / "manifest_t2_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(["verify", "--manifest", str(fx / "manifest_t2_kx2.json"), "--suite", "ar-gprj"], capsys)
    assert code == 1 and "gp-census.bound is required" in err


def test_verify_gp_census_without_its_bound_over_a_base_exits_1(capsys, tmp_path):
    # the doubled top-level bound cannot cap the triangular algebra of a base
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_t2_kx2.json").read_text())
    del manifest["suites"]["gp-census"]
    (fx / "manifest_t2_kx2.json").write_text(json.dumps(manifest))
    code, _, err = run(
        ["verify", "--manifest", str(fx / "manifest_t2_kx2.json"), "--suite", "gp-census"], capsys)
    assert code == 1
    assert "gp-census.bound is required when the manifest has a base_algebra" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "ar-full", "--json"],
        ["compute", "--algebra", str(FIX / "kx2.json"), "--module", str(FIX / "kx2_S.json"), "--op", "syzygy", "--out"],
        ["t2", "--algebra", str(FIX / "kx2.json"), "--out"],
    ],
    ids=["verify", "compute", "t2"],
)
def test_unwritable_output_exits_1(argv, capsys, tmp_path):
    out = tmp_path / "missing" / "out.json"
    code, _, err = run(argv + [str(out)], capsys)
    assert code == 1 and not out.exists()
    assert f"input error: cannot write {out}" in err


def test_verify_negative_seed_exits_1(capsys, monkeypatch):
    # rejected before the manifest is read or any suite runs
    monkeypatch.setattr(cli, "load_manifest", lambda path: pytest.fail("the manifest was read"))
    code, out, err = run(
        ["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "all", "--seed", "-1"], capsys)
    assert code == 1 and out == ""
    assert "--seed must be a non-negative integer, got -1" in err


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "arquiver.cli", "verify",
         "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "ar-full"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "4 pairs checked" in proc.stdout
