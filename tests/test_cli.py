"""Command-line surface: exit codes, JSON determinism, packaged fixtures."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from arquiver import cli
from arquiver.morphcat import morph_from_json_dict, morph_to_json_dict
from arquiver.quivalg import algebra_from_json_dict, algebra_to_json_dict
from arquiver.repmod import module_from_json_dict, module_to_json_dict


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


def test_every_packaged_file_is_read_and_written_back_unchanged():
    # the exact-shape rule rejects no file the package ships: each algebra,
    # module and morphism object reads and writes back to the same JSON
    kinds = []
    for path in sorted(FIX.glob("*.json")):
        data = json.loads(path.read_text())
        if path.name.startswith("manifest_"):
            kinds.append("manifest")
            assert cli.load_manifest(path).modules
        elif "field_p" in data:
            kinds.append("algebra")
            alg = algebra_from_json_dict(data)
            # t2_kx2.json, written by `arquiver t2`, also holds its vertex_correspondence
            data.pop("vertex_correspondence", None)
            assert algebra_to_json_dict(alg) == data
        else:
            name = (data["A"] if "A" in data else data)["algebra"]
            alg = algebra_from_json_dict(json.loads((FIX / f"{name}.json").read_text()))
            if "A" in data:
                kinds.append("morphism object")
                assert morph_to_json_dict(morph_from_json_dict(alg, data), name) == data
            else:
                kinds.append("module")
                assert module_to_json_dict(module_from_json_dict(alg, data), name) == data
    assert sorted(set(kinds)) == ["algebra", "manifest", "module", "morphism object"]
    assert len(kinds) == 26


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


@pytest.mark.parametrize(
    "name, keys, value, phrase",
    [
        ("kx2_L", ("arrow_maps",), [[1]], "arrow_maps must be a JSON object"),
        ("a2_S0", ("dims",), "10", "dims must be a list of integers"),
        ("kx2_L", ("arrow_maps", "x", 1, 0), 0.5, "arrow_maps.x[1] must be a list of integers"),
        ("kx2_L", ("arrow_maps", "x", 1, 0), True, "arrow_maps.x[1] must be a list of integers"),
        ("kx2_L", ("arrow_maps", "x"), "00", "arrow_maps.x must be a list of lists"),
        ("kx2_L", ("arrow_maps", "x"), ["00"], "arrow_maps.x[0] must be a list of integers"),
        ("kx2_S_to_zero", ("A",), [1], "A must be a JSON object"),
        ("kx2_S_to_zero", ("f",), [1], "f must be a JSON object"),
        ("kx2_S_to_zero", ("f", "vertex_maps"), [[]], "f.vertex_maps must be a JSON object"),
        ("kx2_L", ("arrow_maps", "y"), [[0]], "unknown key 'arrow_maps.y'"),
        ("kx2_L", ("arrow_maps", "x"), [[0, 0], [1]], "arrow_maps.x must be a 2 x 2 matrix"),
        ("kx2_L", ("arrow_maps", "x"), [[0, 0]], "arrow_maps.x must be a 2 x 2 matrix"),
        ("kx2_L", ("dims",), [2, 0], "dims must hold a non-negative integer per vertex of the algebra (1)"),
        ("kx2_S_to_zero", ("f", "vertex_maps", "0"), [[0]], "f.vertex_maps.0 must be a 0 x 1 matrix"),
        ("kx2_S_to_zero", ("B", "dims"), [-1], "B.dims must hold a non-negative integer per vertex"),
    ],
    ids=["arrow-maps-list", "dims-string", "entry-float", "entry-bool", "rows-string", "row-string", "morph-a-list",
         "morph-f-list", "morph-vertex-maps-list", "arrow-unknown", "row-short", "matrix-short", "dims-too-long",
         "vertex-map-wrong-shape", "morph-dims-negative"],
)
def test_malformed_module_or_morphism_file_exits_1(capsys, tmp_path, name, keys, value, phrase):
    # int() would take "10", 0.5, True and the characters of "00", .get() on
    # a list raises AttributeError, which would exit 3, and a short row or
    # matrix must not be padded with zeros
    data = json.loads((FIX / f"{name}.json").read_text())
    inner = data
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    algebra, op = name.split("_")[0], "mimo" if "A" in data else "syzygy"
    code, _, err = run(["compute", "--algebra", str(FIX / f"{algebra}.json"), "--module", str(bad), "--op", op], capsys)
    assert code == 1
    assert "input error" in err and phrase in err


@pytest.mark.parametrize(
    "keys, value, phrase",
    [
        (("relations", 0, 0, "coeff"), True, "relations[0][0].coeff must be an integer"),
        (("relations", 0, 0, "coeff"), 0.5, "relations[0][0].coeff must be an integer"),
        (("field_p",), 5.0, "field_p must be an integer"),
        (("vertices",), "1", "vertices must be an integer"),
        (("arrows", 0, "source"), "0", "arrows[0].source must be an integer"),
        (("relations", 0, 0, "path"), "xx", "relations[0][0].path must be a list of strings"),
    ],
    ids=["coeff-bool", "coeff-float", "field-float", "vertices-string", "source-string", "path-string"],
)
def test_malformed_algebra_file_exits_1(capsys, tmp_path, keys, value, phrase):
    # int() would take true, 0.5 (as 0: k[x]/(x^2) read as k[x]), 5.0 and
    # "1", and tuple() the characters of "xx"
    data = json.loads((FIX / "kx2.json").read_text())
    inner = data
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, _, err = run(["compute", "--algebra", str(bad), "--module", str(FIX / "kx2_S.json"), "--op", "syzygy"], capsys)
    assert code == 1
    assert "input error" in err and phrase in err


def _rename(obj: dict, key: str, new: str) -> None:
    obj[new] = obj.pop(key)


@pytest.mark.parametrize(
    "name, edit, phrase",
    [
        ("kx2_L", lambda d: _rename(d, "arrow_maps", "arrow_map"), "unknown key 'arrow_map'"),
        ("kx2", lambda d: _rename(d, "relations", "relation"), "unknown key 'relation'"),
        ("a2", lambda d: _rename(d, "relations", "relation"), "unknown key 'relation'"),
        ("kx2_S_to_zero", lambda d: _rename(d["f"], "vertex_maps", "vertex_map"), "unknown key 'f.vertex_map'"),
        ("kx2", lambda d: _rename(d["arrows"][0], "source", "sourc"), "unknown key 'arrows[0].sourc'"),
        ("kx2_L", lambda d: d["arrow_maps"].pop("x"), "arrow_maps.x is required"),
        ("kx2_S_to_zero", lambda d: d["f"]["vertex_maps"].pop("0"), "f.vertex_maps.0 is required"),
    ],
    ids=["module-arrow-maps-misspelt", "algebra-relations-misspelt", "acyclic-relations-misspelt",
         "morph-vertex-maps-misspelt", "arrow-source-misspelt", "arrow-missing", "vertex-map-missing"],
)
def test_misspelt_or_missing_keys_exit_1(capsys, tmp_path, name, edit, phrase):
    # a misspelt key must not be dropped, nor a missing one read as zero
    data = json.loads((FIX / f"{name}.json").read_text())
    edit(data)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    if "field_p" in data:
        argv = ["--algebra", str(bad), "--module", str(FIX / f"{name}_S0.json" if name == "a2" else FIX / "kx2_S.json")]
    else:
        argv = ["--algebra", str(FIX / "kx2.json"), "--module", str(bad)]
    code, _, err = run(["compute", *argv, "--op", "mimo" if "A" in data else "syzygy"], capsys)
    assert code == 1
    assert "input error" in err and phrase in err


def test_misspelt_manifest_expectation_exits_1(capsys, tmp_path):
    # with `expected` misspelt, a wrong indec_count used to be dropped unread
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["expected"]["indec_count"] = 99
    _rename(manifest, "expected", "expectd")
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, out, err = run(["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", "all"], capsys)
    assert code == 1 and "RESULT" not in out
    assert "unknown key 'expectd'" in err


def test_verify_malformed_module_file_exits_1(capsys, tmp_path):
    # the manifest reads its modules through the same reader as compute
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    module = json.loads((fx / "kx2_L.json").read_text())
    module["arrow_maps"] = [[1]]
    (fx / "kx2_L.json").write_text(json.dumps(module))
    code, _, err = run(["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", "all"], capsys)
    assert code == 1
    assert "kx2_L.json: arrow_maps must be a JSON object" in err


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


def test_module_breaking_a_relation_exits_1(capsys, tmp_path):
    # the reader checks the relations: x = [[1]] has x^2 != 0 over k[x]/(x^2)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": "kx2", "dims": [1], "arrow_maps": {"x": [[1]]}}))
    code, out, err = run(["compute", "--algebra", str(FIX / "kx2.json"), "--module", str(bad), "--op", "syzygy"], capsys)
    assert (code, out) == (1, "")
    assert err == (f"input error: {bad}: relation (RelationTerm(coefficient=1, path=('x', 'x')),) "
                   "does not vanish on this representation\n")


def test_manifest_module_breaking_a_relation_exits_1(capsys, tmp_path):
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    (fx / "kx2_S.json").write_text(json.dumps({"algebra": "kx2", "dims": [1], "arrow_maps": {"x": [[1]]}}))
    code, _, err = run(["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", "all"], capsys)
    assert code == 1
    assert "kx2_S.json: relation (RelationTerm(coefficient=1, path=('x', 'x')),) does not vanish" in err


def test_morphism_that_does_not_intertwine_exits_1(capsys, tmp_path):
    # the reader checks the square: f = [[0, 1]]: k[x]/(x^2) -> S has f.x != 0 = x.f
    lam, s = (json.loads((FIX / f"kx2_{name}.json").read_text()) for name in ("L", "S"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"A": lam, "B": s, "f": {"vertex_maps": {"0": [[0, 1]]}}}))
    code, out, err = run(["compute", "--algebra", str(FIX / "kx2.json"), "--module", str(bad), "--op", "mimo"], capsys)
    assert (code, out) == (1, "")
    assert err == f"input error: {bad}: map does not intertwine arrow 'x'\n"


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


@pytest.mark.parametrize(
    "gorenstein, status",
    [({"d": 0}, "PASS"), ({"selfinjective": True}, "PASS"), ({}, "PASS"),
     ({"d": 1}, "FAIL"), ({"selfinjective": False}, "FAIL"), ({"d": None}, "FAIL")],
)
def test_verify_gorenstein_expectation_checks_only_the_keys_it_states(capsys, tmp_path, gorenstein, status):
    # k[x]/(x^2) is self-injective, d = 0; an absent key expects nothing
    fx = tmp_path / "fx"
    shutil.copytree(FIX, fx)
    manifest = json.loads((fx / "manifest_kx2.json").read_text())
    manifest["expected"]["gorenstein"] = gorenstein
    (fx / "manifest_kx2.json").write_text(json.dumps(manifest))
    code, out, _ = run(["verify", "--manifest", str(fx / "manifest_kx2.json"), "--suite", "all"], capsys)
    assert code == (0 if status == "PASS" else 4)
    assert f"profile     {status}" in out and f"RESULT: {status}" in out


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
    assert "unknown key 'suites.bogus'" in err


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
        (lambda m: m["suites"].update({"ar-full": ["L", "S"]}), "suites.ar-full must be a JSON object"),
        (lambda m: m.update({"bound": ["x"]}), ": bound must be a list of integers"),
        (lambda m: m.update({"expected": [2]}), ": expected must be a JSON object"),
        (lambda m: m.update({"modules": ["kx2_L.json"]}), ": modules must be a JSON object"),
        (lambda m: m["modules"].update({"L": 3}), "modules.L must be a string"),
        (lambda m: m["suites"]["gp-census"].update({"bound": ["x", 2]}), "gp-census.bound must be a list"),
        (lambda m: m["suites"]["gp-census"].update({"counts": [1]}), "gp-census.counts must be a JSON object"),
        (lambda m: m["expected"].update({"indec_count": "x"}), "expected.indec_count must be an integer"),
        (lambda m: m["expected"].update({"gorenstein": [0]}), "expected.gorenstein must be a JSON object"),
        (lambda m: m["suites"]["ar-full"].update({"pairs": "x"}), "ar-full.pairs must be an integer"),
        (lambda m: m["suites"]["ar-full"].update({"pairs": "4"}), "ar-full.pairs must be an integer"),
        (lambda m: m["expected"].update({"indec_count": 2.7}), "expected.indec_count must be an integer"),
        (lambda m: m["suites"]["ar-full"].update({"members": 5}), "ar-full.members must be a list of strings"),
        (lambda m: m["suites"]["tau-syzygy"].update({"witnesses": 5}), "tau-syzygy.witnesses must be a list of strings"),
        (lambda m: m.pop("bound"), "lacks a 'bound' entry, which suite indec-pool reads"),
        (lambda m: m.update({"bound": [2, 2]}), ": bound must hold a non-negative integer per vertex of the algebra (1)"),
        (lambda m: m.update({"bound": [-1]}), ": bound must hold a non-negative integer per vertex"),
        (lambda m: m.update({"bound": [1.5]}), ": bound must be a list of integers"),
        (lambda m: m["suites"]["tau-syzygy"].update({"bound": [True]}), "tau-syzygy.bound must be a list of integers"),
        (lambda m: m["suites"]["gp-census"].update({"bound": [2]}),
         "gp-census.bound must hold a non-negative integer per vertex of the triangular algebra of the base (2)"),
        (lambda m: m["suites"]["tau-syzygy"].update({"bound": [2, 2, 2]}),
         "tau-syzygy.bound must hold a non-negative integer per vertex of the algebra (1)"),
        (lambda m: m.update({"algebra": 5}), ": algebra must be a string"),
        (lambda m: m.update({"algebra": ["kx2.json"]}), ": algebra must be a string"),
        (lambda m: m.update({"base_algebra": 5}), ": base_algebra must be a string"),
        (lambda m: m.update({"base_algebra": ["kx2.json"]}), ": base_algebra must be a string"),
        (lambda m: m["suites"]["ar-full"].update({"all_equal": "no"}), "ar-full.all_equal must be a boolean"),
        (lambda m: m["expected"]["gorenstein"].update({"selfinjective": "false"}),
         "expected.gorenstein.selfinjective must be a boolean"),
        (lambda m: m["suites"]["tau-syzygy"].update({"holds": 0}), "tau-syzygy.holds must be a boolean"),
        (lambda m: m["expected"]["gorenstein"].update({"d": "0"}), "expected.gorenstein.d must be an integer"),
        (lambda m: m["suites"]["ar-full"].update({"all_equals": False}), "unknown key 'suites.ar-full.all_equals'"),
        (lambda m: m["suites"]["gp-census"]["counts"].update({"d": 0}), "unknown key 'suites.gp-census.counts.d'"),
        (lambda m: m["expected"].update({"indec_counts": 2}), "unknown key 'expected.indec_counts'"),
        (lambda m: m["expected"]["gorenstein"].update({"self_injective": True}),
         "unknown key 'expected.gorenstein.self_injective'"),
    ],
    ids=["suite-list", "bound-string", "expected-list", "modules-list", "module-path", "census-bound", "census-counts",
         "indec-count-string", "gorenstein-list", "pairs-string", "pairs-numeral", "indec-count-float",
         "members-number", "witnesses-number",
         "bound-missing", "bound-too-long", "bound-negative", "bound-float", "tau-syzygy-bound-bool",
         "census-bound-too-short", "tau-syzygy-bound-too-long",
         "algebra-number", "algebra-list", "base-algebra-number", "base-algebra-list", "all-equal-string",
         "selfinjective-string", "holds-number", "gorenstein-d-string", "suite-unknown-key", "counts-unknown-key",
         "expected-unknown-key", "gorenstein-unknown-key"],
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


def test_output_path_that_is_a_directory_exits_1(capsys, tmp_path):
    code, _, err = run(
        ["compute", "--algebra", str(FIX / "kx2.json"), "--module", str(FIX / "kx2_S.json"),
         "--op", "syzygy", "--out", str(tmp_path)], capsys)
    assert code == 1 and tmp_path.is_dir()
    assert f"input error: cannot write {tmp_path}" in err


def test_report_over_a_longer_file_through_a_symlink_is_cut_to_its_bytes(capsys, tmp_path):
    # the report is written over the old bytes and then cut to length
    golden = (GOLDEN / "manifest_kx2.json").read_bytes()
    old = tmp_path / "old.json"
    old.write_bytes(b"x" * (2 * len(golden)))
    link = tmp_path / "report.json"
    link.symlink_to(old)
    argv = ["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "all", "--seed", "0",
            "--json", str(link)]
    for _ in range(2):
        code, _, _ = run(argv, capsys)
        assert code == 0 and link.is_symlink() and old.read_bytes() == golden


def test_verify_negative_seed_exits_1(capsys, monkeypatch):
    # rejected before the manifest is read or any suite runs
    monkeypatch.setattr(cli, "load_manifest", lambda path: pytest.fail("the manifest was read"))
    code, out, err = run(
        ["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "all", "--seed", "-1"], capsys)
    assert code == 1 and out == ""
    assert "--seed must be a non-negative integer, got -1" in err


@pytest.mark.parametrize(
    "argv, phrase",
    [
        (["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "bogus"], "'bogus'"),
        (["compute", "--algebra", str(FIX / "kx2.json"), "--module", str(FIX / "kx2_S.json"), "--op", "bogus"],
         "'bogus'"),
        (["verify", "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "all", "--seed", "abc"], "'abc'"),
        (["verify", "--suite", "all"], "--manifest"),
    ],
    ids=["suite", "op", "seed", "missing-manifest"],
)
def test_usage_errors_exit_1_and_name_the_value(argv, phrase, capsys):
    code, _, err = run(argv, capsys)
    assert code == 1 and phrase in err


def test_help_exits_0(capsys):
    code, out, _ = run(["verify", "--help"], capsys)
    assert code == 0 and "--manifest" in out


# ---------------------------------------------------------------------------
# mutated input files


# packaged files of each kind, each with a command that reads it and writes
# its result to out.json; the file names are read from a copy of the fixtures
_READERS = {
    "kx2.json": ["compute", "--algebra", "kx2.json", "--module", "kx2_L.json", "--op", "syzygy"],
    "t2_kx2.json": ["compute", "--algebra", "t2_kx2.json", "--module", "t2_kx2_LtoS.json", "--op", "syzygy"],
    "kx2_L.json": ["compute", "--algebra", "kx2.json", "--module", "kx2_L.json", "--op", "tau"],
    "t2_kx2_P1.json": ["compute", "--algebra", "t2_kx2.json", "--module", "t2_kx2_P1.json", "--op", "syzygy"],
    "kx2_S_to_zero.json": ["compute", "--algebra", "kx2.json", "--module", "kx2_S_to_zero.json", "--op", "mimo"],
    "manifest_kx2.json": ["verify", "--manifest", "manifest_kx2.json", "--suite", "all"],
    "manifest_t2_kx2.json": ["verify", "--manifest", "manifest_t2_kx2.json", "--suite", "ar-gprj"],
}


def _paths(value, path=()):
    """(path, value) for value and everything inside it, containers first."""
    yield path, value
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, x in items:
        yield from _paths(x, path + (key,))


@st.composite
def _mutated_files(draw):
    """(file name, its JSON with one key renamed or one leaf changed, whether
    a key was renamed).  A leaf takes a value of another JSON type, or, for a
    matrix entry or relation coefficient over GF(5), one congruent to it."""
    name = draw(st.sampled_from(sorted(_READERS)))
    data = json.loads((FIX / name).read_text())
    found = list(_paths(data))
    # the keys of a manifest's modules are names its author chooses, and those
    # of an algebra's vertex_correspondence are vertex numbers that no reader reads
    objects = [v for path, v in found if isinstance(v, dict) and v and path not in (("modules",), ("vertex_correspondence",))]
    leaves = [path for path, v in found if not isinstance(v, (dict, list))]
    if draw(st.booleans()):
        obj = draw(st.sampled_from(objects))
        key = draw(st.sampled_from(sorted(obj)))
        _rename(obj, key, key + "_")
        return name, data, True
    path = draw(st.sampled_from(leaves))
    parent = dict(found)[path[:-1]]
    old = parent[path[-1]]
    if type(old) is int:
        values = [str(old), old + 0.5, bool(old), [old]]
        if {"arrow_maps", "vertex_maps", "coeff"} & set(path):
            values += [old + 5 * 10**20, old - 5]
    else:
        values = [1, [old], {"x": old}] if type(old) is str else [int(old), str(old).lower()]
    parent[path[-1]] = draw(st.sampled_from(values))
    return name, data, False


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_mutated_files())
def test_mutated_input_file_exits_1_or_answers_unchanged(capsys, tmp_path_factory, mutation):
    name, data, renamed = mutation
    fx = tmp_path_factory.mktemp("fx")
    shutil.copytree(FIX, fx, dirs_exist_ok=True)
    argv = [str(fx / a) if a.endswith(".json") else a for a in _READERS[name]]
    argv += ["--out" if argv[0] == "compute" else "--json", str(fx / "out.json")]
    want = run(argv, capsys)[:2], (fx / "out.json").read_bytes()
    (fx / "out.json").unlink()
    (fx / name).write_text(json.dumps(data))
    code, out, err = run(argv, capsys)
    assert code != 3, err
    if code != 1:
        assert not renamed, out
        assert ((code, out), (fx / "out.json").read_bytes()) == want


# ---------------------------------------------------------------------------
# console entry point


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "arquiver.cli", "verify",
         "--manifest", str(FIX / "manifest_kx2.json"), "--suite", "ar-full"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "4 pairs checked" in proc.stdout
