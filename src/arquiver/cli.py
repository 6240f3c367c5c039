"""Command-line surface: run single operations on modules and morphism
objects, verify fixture manifests suite by suite, and export triangular
matrix algebras.  All file formats are the JSON shapes defined by quivalg
(algebras), repmod (modules) and morphcat (morphism objects).

Exit codes: 0 success, including a verification whose only failures were
predicted by the manifest and matched; 1 malformed input; 2 violated
precondition, named in the diagnostic; 3 internal error; 4 verification ran
but an expectation in the manifest was not met.
"""

from __future__ import annotations

import argparse
import json
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
    algebra_from_json_dict,
    algebra_to_json_dict,
    t2_of,
)
from .repmod import (
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


def _load_json(path: str | Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseFailure(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseFailure(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseFailure(f"{path}: expected a JSON object at top level")
    return data


def _load_algebra(path: str | Path) -> BoundQuiverAlgebra:
    data = _load_json(path)
    try:
        return algebra_from_json_dict(data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseFailure(f"{path} is not a valid algebra file: {exc}") from exc


def _dump_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ParseFailure(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# compute


# op -> (input kind, operation, whether the result is over the opposite
# algebra); each operation looks up its function when it runs
_OPS = {
    "syzygy": ("module", lambda m, alg: syzygy(m), False),
    "tau": ("module", lambda m, alg: ar_translate(m), False),
    "tr": ("module", lambda m, alg: transpose(m), True),
    "dual": ("module", lambda m, alg: k_dual(m), True),
    "tau-gprj": ("module", lambda m, alg: tau_gprj(m, gorenstein_profile(alg)), False),
    "tau-pfin": ("module", lambda m, alg: tau_pfin(m, gorenstein_profile(alg)), False),
    "imin": ("module", lambda m, alg: imin(m), False),
    "mimo": ("morph", lambda obj, alg: mimo(obj)[0], False),
    "tr-p": ("morph", lambda obj, alg: tr_p_lambda(obj), True),
}


def cmd_compute(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.algebra)
    data = _load_json(args.module)
    is_morph = "A" in data
    if is_morph:
        base_id = str(data.get("A", {}).get("algebra") or Path(args.algebra).stem)
    else:
        base_id = str(data.get("algebra") or Path(args.algebra).stem)

    op = args.op
    kind, run, over_opposite = _OPS[op]
    if (kind == "morph") != is_morph:
        wanted = "a module file" if is_morph else "a morphism-object file (keys A/B/f)"
        got = "a morphism-object" if is_morph else "a module"
        print(f"precondition violated: op '{op}' needs {wanted}, got {got} file", file=sys.stderr)
        return EXIT_PRECONDITION

    try:
        arg = (morph_from_json_dict if is_morph else module_from_json_dict)(alg, data)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ParseFailure(f"{args.module} is not a valid input over {args.algebra}: {exc}") from exc

    res = run(arg, alg)
    out_id = base_id + ".op" if over_opposite else base_id
    if isinstance(res, Representation):
        # the three translates note a projective input, which they send to zero
        note = " (projective input)" if op.startswith("tau") and res.is_zero() and is_projective(arg) else ""
        print(f"{op}: dims {list(res.dims)}{note}")
        _dump_json(module_to_json_dict(res, out_id), args.out)
    else:
        print(f"{op}: A dims {list(res.a.dims)}, B dims {list(res.b.dims)}")
        _dump_json(morph_to_json_dict(res, out_id), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# t2


def cmd_t2(args: argparse.Namespace) -> int:
    alg = _load_algebra(args.algebra)
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


def _int_tuple(value, where: str) -> tuple[int, ...]:
    """value, a JSON list of integers, as a tuple; ParseFailure otherwise,
    also for 1.5, "2" or true, which int() would take."""
    if isinstance(value, list) and all(type(b) is int for b in value):
        return tuple(value)
    raise ParseFailure(f"{where} must be a list of integers")


def _bound(value, count: int, where: str, over: str) -> tuple[int, ...]:
    """value, a JSON list of count non-negative integers, one cap per vertex
    of `over`, as a tuple; ParseFailure otherwise."""
    bound = _int_tuple(value, where)
    if len(bound) != count or min(bound, default=0) < 0:
        raise ParseFailure(f"{where} must hold a non-negative integer per vertex of {over} ({count}), got {list(bound)}")
    return bound


def _integer(value, where: str) -> int:
    if type(value) is int:
        return value
    raise ParseFailure(f"{where} must be an integer")


def _require_names(value, where: str) -> None:
    if not (isinstance(value, list) and all(isinstance(x, str) for x in value)):
        raise ParseFailure(f"{where} must be a list of names")


def _require_object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseFailure(f"{where} must be a JSON object")
    return value


def load_manifest(path: str | Path) -> FixtureManifest:
    data = _load_json(path)
    root = Path(path).resolve().parent
    if "algebra" not in data:
        raise ParseFailure(f"{path}: manifest lacks an 'algebra' entry")
    entries = _require_object(data.get("modules", {}), f"{path}: 'modules'")
    expected = _require_object(data.get("expected", {}), f"{path}: 'expected'")
    suites = _require_object(data.get("suites", {}), f"{path}: 'suites'")
    unknown = sorted(set(suites) - set(_SUITE_ORDER))
    if unknown:
        raise ParseFailure(f"{path}: unknown suites {unknown}")
    for suite, cfg in suites.items():
        _require_object(cfg, f"{path}: suite {suite}")
        if "counts" in cfg:
            counts = _require_object(cfg["counts"], f"{path}: {suite}.counts")
            _int_tuple(list(counts.values()), f"{path}: the values of {suite}.counts")
        if "pairs" in cfg:
            _integer(cfg["pairs"], f"{path}: {suite}.pairs")
        for key in ("members", "witnesses"):
            if key in cfg:
                _require_names(cfg[key], f"{path}: {suite}.{key}")
    count = expected.get("indec_count")
    if count is not None:
        count = _integer(count, f"{path}: expected.indec_count")
    if "gorenstein" in expected:
        _require_object(expected["gorenstein"], f"{path}: expected.gorenstein")
    alg = _load_algebra(root / data["algebra"])
    base = None
    if data.get("base_algebra"):
        base = _load_algebra(root / data["base_algebra"])
        canonical, _ = t2_of(base)
        if canonical != alg:
            raise ParseFailure(
                f"{path}: {data['algebra']} is not the triangular matrix "
                f"algebra of {data['base_algebra']}"
            )
        alg = canonical
    nv = alg.quiver.vertices
    bound = _bound(data["bound"], nv, f"{path}: 'bound'", "the algebra") if "bound" in data else None
    # the census caps the triangular algebra of its base: two caps per vertex
    # of the base, which the doubled top-level bound fits only without a base
    census_nv = 2 * (alg if base is None else base).quiver.vertices
    for suite, cfg in suites.items():
        census = suite == "gp-census"
        if "bound" in cfg:
            over = "the triangular algebra of the base" if census else "the algebra"
            _bound(cfg["bound"], census_nv if census else nv, f"{path}: {suite}.bound", over)
        elif census and base is not None:
            raise ParseFailure(f"{path}: {_CENSUS_BOUND_REQUIRED}")

    modules: dict[str, Representation] = {}
    for name in sorted(entries):
        rel = entries[name]
        if not isinstance(rel, str):
            raise ParseFailure(f"{path}: module {name!r} must name a module file")
        mdata = _load_json(root / rel)
        try:
            modules[name] = module_from_json_dict(alg, mdata)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ParseFailure(
                f"{rel}: not a valid module over {data['algebra']}: {exc}"
            ) from exc

    for suite, cfg in suites.items():
        for member in cfg.get("members", ()):
            if member not in modules:
                raise ParseFailure(
                    f"{path}: suite {suite} references unknown module {member!r}"
                )

    return FixtureManifest(
        algebra=alg,
        base_algebra=base,
        modules=modules,
        bound=bound,
        expected_indec_count=count,
        expected_gorenstein=expected.get("gorenstein"),
        suites=suites,
    )


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
    prof = gorenstein_profile(man.algebra)
    payload = {
        "selfinjective": prof.is_selfinjective,
        "d": prof.d,
        "cap_exceeded": prof.cap_exceeded,
    }
    ok = True
    exp = man.expected_gorenstein
    if exp is not None:
        ok = bool(exp.get("selfinjective")) == prof.is_selfinjective and (
            exp.get("d", prof.d) == prof.d
        )
    detail = f"self-injective={prof.is_selfinjective}, d={prof.d}"
    if prof.cap_exceeded:
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
        expectation_met = report.all_equal == bool(cfg["all_equal"])
    if expectation_met and "pairs" in cfg:
        expectation_met = len(report.pairs) == int(cfg["pairs"])
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
        want = {key: int(exp.get(key, 0)) for key in ("a", "b", "c", "other")}
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
        expectation_met = holds == bool(cfg["holds"])
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
    args = build_parser().parse_args(argv)
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
