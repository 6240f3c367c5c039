"""Command-line surface: run single operations on modules and morphism
objects, verify fixture manifests suite by suite, and export triangular
matrix algebras.  All file formats are the JSON shapes declared by quivalg
(algebras), repmod (modules), morphcat (morphism objects) and this module
(manifests), and checked by quivalg._check_shape before anything is built.

Exit codes: 0 success, including a verification whose only failures were
predicted by the manifest and matched; 1 malformed input or command line;
2 violated precondition, named in the diagnostic; 3 internal error;
4 verification ran but an expectation in the manifest was not met.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .arsubcat import (
    check_tau_is_syzygy,
    classify_gp_census,
    gorenstein_profile,
    indec_pool,
    tau_gprj,
    tau_pfin,
    tr_p_lambda,
    verify_ar_duality,
)
from .errors import PreconditionError
from .homalg import ar_translate, syzygy, transpose
from .morphcat import imin, mimo, morph_from_json_dict, morph_to_json_dict
from .quivalg import (
    BoundQuiverAlgebra,
    _Map,
    _Nullable,
    _Required,
    _check_shape,
    _per_vertex,
    algebra_from_json_dict,
    algebra_to_json_dict,
    t2_of,
)
from .repmod import (
    ModuleMap,
    Representation,
    is_isomorphic,
    is_projective,
    k_dual,
    module_from_json_dict,
    module_to_json_dict,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_PRECONDITION = 2
EXIT_INTERNAL = 3
EXIT_EXPECTATION = 4


class ParseFailure(Exception):
    """Input file missing, unreadable, or structurally malformed."""


def fixtures_dir() -> Path:
    """Directory holding the packaged fixture algebras, modules and
    manifests."""
    return Path(__file__).resolve().parent / "fixtures"


# ---------------------------------------------------------------------------
# File plumbing


def _read(path: str | Path, read):
    """read(data) for the JSON value data in the file at path, where read
    checks the shape of its file before it builds anything; ParseFailure
    naming path when the file is unreadable or malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}") from exc
    try:
        return read(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseFailure(f"{path}: {exc}") from exc


def _dump_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        # written over the old bytes, then cut to length: truncating an
        # existing file to zero and rewriting it took 40-60 ms per report on
        # ext4, this under 0.1 ms
        try:
            with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.truncate()
        except OSError as exc:
            raise ParseFailure(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# compute


# op -> (input kind, operation, whether the result is over the opposite
# algebra); each operation looks up its function when it runs
_OPS = {
    "syzygy": ("module", lambda m: syzygy(m), False),
    "tau": ("module", lambda m: ar_translate(m), False),
    "tr": ("module", lambda m: transpose(m), True),
    "dual": ("module", lambda m: k_dual(m), True),
    "tau-gprj": ("module", lambda m: tau_gprj(m), False),
    "tau-pfin": ("module", lambda m: tau_pfin(m), False),
    "imin": ("module", lambda m: imin(m), False),
    "mimo": ("morph", lambda obj: mimo(obj)[0], False),
    "tr-p": ("morph", lambda obj: tr_p_lambda(obj), True),
}


def _module_or_morph(alg: BoundQuiverAlgebra, data) -> tuple:
    """The module, or the morphism object as its map f: A -> B, of a file's
    data over alg, with the algebra name that its module file (A, for a
    morphism object) gives."""
    if type(data) is dict and "A" in data:
        return morph_from_json_dict(alg, data), data["A"].get("algebra")
    return module_from_json_dict(alg, data), data.get("algebra")


def cmd_compute(args: argparse.Namespace) -> int:
    alg = _read(args.algebra, algebra_from_json_dict)
    arg, base_id = _read(args.module, lambda data: _module_or_morph(alg, data))
    is_morph = isinstance(arg, ModuleMap)
    op = args.op
    kind, run, over_opposite = _OPS[op]
    if (kind == "morph") != is_morph:
        wanted = "a module file" if is_morph else "a morphism-object file (keys A/B/f)"
        got = "a morphism-object" if is_morph else "a module"
        print(f"precondition violated: op '{op}' needs {wanted}, got {got} file", file=sys.stderr)
        return EXIT_PRECONDITION

    base_id = base_id or Path(args.algebra).stem
    res = run(arg)
    out_id = base_id + ".op" if over_opposite else base_id
    if isinstance(res, Representation):
        # the three translates note a projective input, which they send to zero
        note = " (projective input)" if op.startswith("tau") and res.is_zero() and is_projective(arg) else ""
        print(f"{op}: dims {list(res.dims)}{note}")
        _dump_json(module_to_json_dict(res, out_id), args.out)
    else:
        print(f"{op}: A dims {list(res.source.dims)}, B dims {list(res.target.dims)}")
        _dump_json(morph_to_json_dict(res, out_id), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# t2


def cmd_t2(args: argparse.Namespace) -> int:
    alg = _read(args.algebra, algebra_from_json_dict)
    t2, corr = t2_of(alg)
    data = algebra_to_json_dict(t2)
    data["vertex_correspondence"] = {
        str(i): [pair[0], pair[1]] for i, pair in sorted(corr.items())
    }
    _dump_json(data, args.out)
    print(
        f"t2: {t2.quiver.vertices} vertices, {len(t2.quiver.arrows)} arrows, "
        f"dimension {t2.dimension}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


_SUITE_ORDER = ("ar-full", "ar-gprj", "ar-pfin", "gp-census", "tau-syzygy")
_SUITE_CHOICES = _SUITE_ORDER + ("all",)
_DUALITY_TAGS = {"ar-full": "FULL", "ar-gprj": "GPRJ", "ar-pfin": "PFIN"}
# the doubled top-level bound cannot cap the triangular algebra of a base
_CENSUS_BOUND_REQUIRED = "gp-census.bound is required when the manifest has a base_algebra"


@dataclass(frozen=True)
class FixtureManifest:
    """One fixture bundle: an algebra, named modules over it, dimension
    bounds for enumeration, and per-suite expectations frozen from earlier
    oracle runs.  Expectations are optional; when present they are enforced.
    """

    algebra: BoundQuiverAlgebra
    base_algebra: BoundQuiverAlgebra | None
    modules: dict[str, Representation]
    bound: tuple[int, ...] | None
    expected_indec_count: int | None
    expected_gorenstein: dict | None
    suites: dict[str, dict]


_DUALITY_SHAPE = {"members": [str], "all_equal": bool, "pairs": int}
_MANIFEST_SHAPE = {
    "algebra": _Required(str),
    "base_algebra": str,
    "bound": [int],
    "modules": _Map(str),
    "expected": {"indec_count": int, "gorenstein": {"d": _Nullable(int), "selfinjective": bool}},
    "suites": {
        **dict.fromkeys(_DUALITY_TAGS, _DUALITY_SHAPE),
        "gp-census": {"bound": [int], "counts": dict.fromkeys(("a", "b", "c", "other"), int)},
        "tau-syzygy": {"bound": [int], "holds": bool, "witnesses": [str]},
    },
}


def _manifest_of(data, root: Path) -> FixtureManifest:
    """The manifest of data, read from a file in the directory root."""
    _check_shape(data, _MANIFEST_SHAPE)
    alg = _read(root / data["algebra"], algebra_from_json_dict)
    base = None
    if "base_algebra" in data:
        base = _read(root / data["base_algebra"], algebra_from_json_dict)
        canonical, _ = t2_of(base)
        if canonical != alg:
            raise ValueError(f"{data['algebra']} is not the triangular matrix algebra of {data['base_algebra']}")
        alg = canonical
    entries, expected, suites = data.get("modules", {}), data.get("expected", {}), data.get("suites", {})
    nv = alg.quiver.vertices
    bound = _per_vertex(data["bound"], nv, "bound") if "bound" in data else None
    # the census caps the triangular algebra of its base: two caps per vertex
    # of the base, which the doubled top-level bound fits only without a base
    census_nv = 2 * (alg if base is None else base).quiver.vertices
    for suite, cfg in suites.items():
        census = suite == "gp-census"
        if "bound" in cfg:
            over = "the triangular algebra of the base" if census else "the algebra"
            _per_vertex(cfg["bound"], census_nv if census else nv, f"suites.{suite}.bound", over)
        elif census and base is not None:
            raise ValueError(_CENSUS_BOUND_REQUIRED)
        for member in cfg.get("members", ()):
            if member not in entries:
                raise ValueError(f"suites.{suite}.members: unknown module {member!r}")
    modules = {name: _read(root / entries[name], lambda d: module_from_json_dict(alg, d)) for name in sorted(entries)}
    return FixtureManifest(alg, base, modules, bound, expected.get("indec_count"), expected.get("gorenstein"), suites)


def load_manifest(path: str | Path) -> FixtureManifest:
    return _read(path, lambda data: _manifest_of(data, Path(path).resolve().parent))


@dataclass(frozen=True)
class SuiteResult:
    """One verification row: the mathematical verdict of the suite plus
    whether the manifest's expectation (when any) was met."""

    suite: str
    property_ok: bool
    expectation_met: bool
    detail: str
    payload: dict

    @property
    def status(self) -> str:
        if self.property_ok and self.expectation_met:
            return "PASS"
        if not self.property_ok and self.expectation_met:
            return "FAIL (expected)"
        if self.property_ok:
            return "UNEXPECTED PASS"
        return "FAIL"


def _witness_name(man: FixtureManifest, m: Representation) -> str:
    # m is a knitted member, indecomposable, so is_isomorphic is exact
    for name in sorted(man.modules):
        if is_isomorphic(m, man.modules[name]):
            return name
    return "unnamed:" + "x".join(str(d) for d in m.dims)


def _run_profile(man: FixtureManifest) -> SuiteResult:
    d = gorenstein_profile(man.algebra)
    payload = {"selfinjective": d == 0, "d": d, "cap_exceeded": d is None}
    ok = True
    exp = man.expected_gorenstein
    if exp is not None:
        # an absent key states no expectation
        ok = exp.get("selfinjective", d == 0) == (d == 0) and exp.get("d", d) == d
    detail = f"self-injective={d == 0}, d={d}"
    if d is None:
        detail += " (cap exceeded)"
    return SuiteResult("profile", ok, ok, detail, payload)


def _top_bound(man: FixtureManifest, suite: str) -> tuple[int, ...]:
    """The manifest's top-level bound, which suite reads; ParseFailure when
    there is none."""
    if man.bound is None:
        raise ParseFailure(f"manifest lacks a 'bound' entry, which suite {suite} reads")
    return man.bound


def _run_indec_pool(man: FixtureManifest) -> SuiteResult:
    bound = _top_bound(man, "indec-pool")
    pool = indec_pool(man.algebra, bound)
    payload = {"count": len(pool), "dims": [list(m.dims) for m in pool]}
    ok = True
    notes = [f"{len(pool)} indecomposables under bound {list(bound)}"]
    if man.expected_indec_count is not None and len(pool) != man.expected_indec_count:
        ok = False
        notes.append(f"expected {man.expected_indec_count}")
    # each q is a knitted member, indecomposable, so is_isomorphic is exact
    missing = [
        name
        for name, m in sorted(man.modules.items())
        if not any(is_isomorphic(q, m) for q in pool)
    ]
    if missing:
        ok = False
        notes.append("named modules not found in pool: " + ", ".join(missing))
    return SuiteResult("indec-pool", ok, ok, "; ".join(notes), payload)


def _run_duality(suite: str, man: FixtureManifest) -> SuiteResult:
    cfg = man.suites.get(suite, {})
    names = list(cfg.get("members", sorted(man.modules)))
    items = [(name, man.modules[name]) for name in names]
    report = verify_ar_duality(man.algebra, _DUALITY_TAGS[suite], items)
    payload = {
        "all_equal": report.all_equal,
        "pairs": [list(p) for p in report.pairs],
    }
    expectation_met = True
    if "all_equal" in cfg:
        expectation_met = report.all_equal == cfg["all_equal"]
    if expectation_met and "pairs" in cfg:
        expectation_met = len(report.pairs) == cfg["pairs"]
    bad = [p for p in report.pairs if not p[4]]
    if report.all_equal:
        detail = f"{len(report.pairs)} pairs checked, all equal"
    else:
        shown = "; ".join(
            f"({x}, {y}) hom-bar {lhs} vs ext {rhs}" for x, y, lhs, rhs, _ in bad[:4]
        )
        detail = (
            f"{len(report.pairs)} pairs checked, {len(bad)} unequal: {shown}"
        )
    return SuiteResult(suite, report.all_equal, expectation_met, detail, payload)


def _run_gp_census(man: FixtureManifest) -> SuiteResult:
    cfg = man.suites.get("gp-census", {})
    if "bound" in cfg:
        bound = tuple(cfg["bound"])
    elif man.base_algebra is not None:
        raise ParseFailure(_CENSUS_BOUND_REQUIRED)
    else:
        bound = _top_bound(man, "gp-census") * 2
    target = man.base_algebra if man.base_algebra is not None else man.algebra
    census = classify_gp_census(target, bound)
    payload = {"counts": census.counts, "objects": [list(o) for o in census.objects]}
    exp = cfg.get("counts")
    ok = True
    if exp is not None:
        want = {key: exp.get(key, 0) for key in ("a", "b", "c", "other")}
        ok = census.counts == want
    c = census.counts
    detail = (
        f"census {{a: {c['a']}, b: {c['b']}, c: {c['c']}, other: {c['other']}}}"
    )
    if not ok:
        detail += f", expected {exp}"
    return SuiteResult("gp-census", ok, ok, detail, payload)


def _run_tau_syzygy(man: FixtureManifest) -> SuiteResult:
    cfg = man.suites.get("tau-syzygy", {})
    bound = tuple(cfg["bound"]) if "bound" in cfg else _top_bound(man, "tau-syzygy")
    holds, witnesses = check_tau_is_syzygy(man.algebra, bound)
    named = [
        {
            "witness": _witness_name(man, g),
            "dims": list(g.dims),
            "translate_dims": list(t.dims),
            "syzygy_dims": list(om.dims),
        }
        for g, t, om in witnesses
    ]
    named.sort(key=lambda w: (w["witness"], w["dims"]))
    payload = {"holds": holds, "witnesses": named}
    expectation_met = True
    if "holds" in cfg:
        expectation_met = holds == cfg["holds"]
    if expectation_met and "witnesses" in cfg:
        expectation_met = sorted(w["witness"] for w in named) == sorted(
            cfg["witnesses"]
        )
    if holds:
        detail = "translate agrees with the syzygy on every non-projective GP module"
    else:
        shown = ", ".join(
            f"{w['witness']} dims {w['dims']} "
            f"(translate {w['translate_dims']}, syzygy {w['syzygy_dims']})"
            for w in named
        )
        detail = f"translate differs from syzygy; witnesses: {shown}"
    return SuiteResult("tau-syzygy", holds, expectation_met, detail, payload)


def _run_suite(suite: str, man: FixtureManifest) -> SuiteResult:
    if suite in _DUALITY_TAGS:
        return _run_duality(suite, man)
    return _run_gp_census(man) if suite == "gp-census" else _run_tau_syzygy(man)


def cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed
    if seed < 0:
        raise ParseFailure(f"--seed must be a non-negative integer, got {seed}")
    man = load_manifest(args.manifest)
    if args.suite == "all":
        results = [_run_profile(man), _run_indec_pool(man)]
        results += [_run_suite(suite, man) for suite in _SUITE_ORDER if suite in man.suites]
    else:
        results = [_run_suite(args.suite, man)]

    width = max(len(r.suite) for r in results)
    for r in results:
        print(f"{r.suite:<{width}}  {r.status:<16}  {r.detail}")
    ok = all(r.expectation_met for r in results)
    matched = sum(1 for r in results if r.expectation_met and not r.property_ok)
    if ok and matched:
        print(f"RESULT: PASS ({matched} expected failure(s) matched)")
    elif ok:
        print("RESULT: PASS")
    else:
        print("RESULT: FAIL")

    if args.json:
        report = {
            "manifest": Path(args.manifest).name,
            "suite": args.suite,
            "seed": seed,
            "all_expectations_met": ok,
            "results": [
                {
                    "suite": r.suite,
                    "status": r.status,
                    "property_ok": r.property_ok,
                    "expectation_met": r.expectation_met,
                    "detail": r.detail,
                    "data": r.payload,
                }
                for r in results
            ],
        }
        _dump_json(report, args.json)
    return EXIT_OK if ok else EXIT_EXPECTATION


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arquiver",
        description=(
            "Exact computations in the module and morphism categories of "
            "bound quiver algebras over prime fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="run one operation on a module or morphism object"
    )
    compute.add_argument("--algebra", required=True, help="algebra JSON file")
    compute.add_argument(
        "--module", required=True, help="module or morphism-object JSON file"
    )
    compute.add_argument("--op", required=True, choices=tuple(_OPS))
    compute.add_argument("--out", help="write the result JSON here")
    compute.set_defaults(func=cmd_compute)

    verify = sub.add_parser("verify", help="run verification suites on a manifest")
    verify.add_argument("--manifest", required=True, help="fixture manifest JSON")
    verify.add_argument("--suite", required=True, choices=_SUITE_CHOICES)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--json", help="write the machine-readable report here")
    verify.set_defaults(func=cmd_verify)

    t2 = sub.add_parser(
        "t2", help="export the triangular matrix algebra of an algebra"
    )
    t2.add_argument("--algebra", required=True, help="algebra JSON file")
    t2.add_argument("--out", help="write the algebra JSON here")
    t2.set_defaults(func=cmd_t2)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and the offending value; --help exits 0
        return EXIT_OK if exc.code == 0 else EXIT_PARSE
    try:
        return args.func(args)
    except ParseFailure as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(
            f"precondition violated ({type(exc).__name__}): {exc}", file=sys.stderr
        )
        return EXIT_PRECONDITION
    except Exception as exc:  # noqa: BLE001 - fault barrier for exit code 3
        print(f"internal error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
