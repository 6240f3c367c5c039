"""End-to-end and per-layer benchmark of arquiver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload manifests --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Workloads (BENCHMARK.json records why each was chosen):

- manifests: `arquiver verify --suite all --json` on each packaged manifest
  (a2, kx2, kx3, t2_kx2) with seed 0, each in a fresh interpreter.
- homalg-small: Omega, Omega^-1, Tr, tau and tau^-1 of the simples,
  indecomposable projectives and injectives, Omega S and Omega^-1 S over five
  small algebras, and dim stable Hom(X, Y), dim Ext^1(Y, tau X) and
  dim Ext^2(X, Y) on every ordered pair.
- homalg-large: the same operations, without Ext^2, on seeded random modules
  of total dimension 13 to 54.  Only this workload's inputs depend on --seed.

Load is a closed loop with one client: every worker is a fresh interpreter
that sets up its inputs and runs one pass of the timed work, started after the
previous one exited, and each operation starts after the previous one
returned.  A pass is one worker for homalg-* and one worker per manifest for
manifests; a run repeats passes until --seconds have elapsed.  Workers run
with ARSUBCAT_THREADS unset and BLAS and OpenMP threads pinned to 1.

With --trace 0 the run reports the end-to-end metrics:

- job_s: wall seconds of one pass of the timed work (for manifests, the sum
  of the four in-process verify times); median over the run's passes.
- setup_s: interpreter start to ready (import, algebra or manifest loading,
  input generation), summed over the workers of a pass.  Each job worker is
  followed by a few set-up-only workers, so every worker's set-up is sampled
  throughout the run; the median of each worker's samples is summed.
- peak_rss_mb: largest peak resident set of a job worker (getrusage).

With --trace 1 the run does one untraced and one traced pass and reports the
per-layer metrics of the traced pass (see layertrace.py), its time
trace.job_s, the tracing overhead trace.overhead_s (traced minus untraced
job seconds) and failed_share; a table goes to stderr and the spans to
.perfbench_out/.

Every output is checked: a verify run fails unless it exits 0 and its report
is byte-identical to perfbench/golden/; a homological pass fails on any
error, any pair with dim stable Hom(X, Y) != dim Ext^1(Y, tau X), and any
dimension that differs from the golden table of its seed.  homalg-large has
golden tables for seeds 0 to LARGE_GOLDEN_SEEDS - 1 (0-99); other seeds get
only the AR formula check.

The second-to-last stdout line is {"env": ...}; the last is the result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
WORKLOADS = ("manifests", "homalg-small", "homalg-large")
MANIFESTS = ("a2", "kx2", "kx3", "t2_kx2")
OUT_DIR = ".perfbench_out"
# Set-up-only workers started after each job worker of a timed run.
SETUP_EXTRA = {"manifests": 6, "homalg-small": 4, "homalg-large": 4}
# homalg-large has golden dimension tables for seeds 0 to LARGE_GOLDEN_SEEDS - 1.
LARGE_GOLDEN_SEEDS = 100
WORKER_TIMEOUT_S = 170
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class Run:
    """One benchmark run: where it runs, what it runs, and its tallies."""

    def __init__(self, root: Path, workload: str, seed: int, seconds: float, quick: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.quick = quick
        self.out_dir = root / OUT_DIR
        self.out_dir.mkdir(exist_ok=True)
        env = dict(os.environ)
        env.pop("ARSUBCAT_THREADS", None)
        env.update({var: "1" for var in THREAD_VARS})
        env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        self.env = env
        self.attempted = 0
        self.failures: list[str] = []
        self.worker_info: dict = {}
        self.golden = None
        if workload == "homalg-small":
            self.golden = json.loads((GOLDEN / "homalg-small.json").read_text())
        elif workload == "homalg-large":
            self.golden = json.loads((GOLDEN / "homalg-large.json").read_text()).get(str(seed))
        if workload != "manifests":
            self.worker_info["golden"] = "present" if self.golden is not None else "missing"

    def fail(self, label: str, why: str):
        self.failures.append(f"{label}: {why}")

    def spawn(self, label: str, setup_only=False, trace=False, **extra):
        """Start a worker and wait for it.  Returns (setup seconds, result or
        None); set-up is timed from process start to its `ready` line."""
        spec = {
            "workload": self.workload,
            "seed": self.seed,
            "quick": self.quick,
            "trace": trace,
            "setup_only": setup_only,
            "label": label,
            "out_dir": str(self.out_dir),
            **extra,
        }
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            cwd=self.root,
            env=self.env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            self.fail(label, f"worker exceeded {WORKER_TIMEOUT_S} s")
            return None, None
        if ready.strip() != "ready" or proc.returncode != 0:
            self.fail(label, f"worker exited with code {proc.returncode}")
            return None, None
        if setup_only:
            return setup_s, None
        return setup_s, json.loads(out.strip().splitlines()[-1])

    def units(self):
        """The workers of one pass: (label, extra spec fields)."""
        if self.workload != "manifests":
            return [(self.workload, {})]
        names = MANIFESTS[:1] if self.quick else MANIFESTS
        return [(name, {"manifest": name}) for name in names]

    def one_pass(self, trace=False, setups=None):
        """Run every unit once, each in a fresh worker, and check its output.
        Returns (job seconds, workers' results).  With `setups`, also start
        SETUP_EXTRA set-up-only workers after each unit and append every
        set-up time to setups[unit], so the samples spread over the run."""
        job = 0.0
        results = []
        for unit, extra in self.units():
            label = f"{unit}{'-traced' if trace else ''}"
            setup_s, res = self.spawn(label, trace=trace, **extra)
            if res is None:
                self.attempted += 1
                continue
            job += res["pass_s"]
            results.append(res)
            if self.workload == "manifests":
                self.check_report(label, unit, res["output"])
            else:
                self.check_table(label, res["output"])
            if setups is not None:
                samples = setups.setdefault(unit, [])
                samples.append(setup_s)
                for _ in range(SETUP_EXTRA[self.workload]):
                    samples.append(self.spawn(label, setup_only=True, **extra)[0] or 0.0)
        return job, results

    def check_report(self, label, name, out):
        self.attempted += 1
        if out["exit_code"] != 0:
            self.fail(label, f"verify exited with code {out['exit_code']}")
        elif Path(out["report"]).read_bytes() != (GOLDEN / f"manifest_{name}.json").read_bytes():
            self.fail(label, "report differs from the golden report")

    def check_table(self, label, out):
        self.attempted += out["attempted"]
        for failure in out["failures"]:
            self.fail(label, failure)
        golden = self.golden
        if golden is None:
            return
        for alg, got in out["table"].items():
            want = golden.get(alg, {"modules": {}, "pairs": {}})
            for section in ("modules", "pairs"):
                for key, value in got[section].items():
                    if want[section].get(key) != value:
                        self.fail(f"{label} {alg} {key}", "differs from the golden table")
        if not self.quick and set(golden) != set(out["table"]):
            self.fail(label, "algebras differ from the golden table")

    # -- reporting ------------------------------------------------------

    def measure(self, trace):
        if trace:
            plain, _ = self.one_pass()
            traced, results = self.one_pass(trace=True)
        else:
            jobs, setups, results = [], {}, []
            deadline = time.perf_counter() + self.seconds
            while True:
                job, res = self.one_pass(setups=setups)
                jobs.append(job)
                results += res
                if time.perf_counter() >= deadline:
                    break
        for res in results:
            self.worker_info.setdefault("backend", res["backend"])
            self.worker_info.setdefault("numpy", res["numpy"])
        if not trace:
            peak = max((r["peak_rss_mb"] for r in results), default=0.0)
            return {
                "job_s": (statistics.median(jobs), "s"),
                "setup_s": (sum(statistics.median(v) for v in setups.values()), "s"),
                "peak_rss_mb": (peak, "MB"),
            }
        metrics = layertrace.layer_metrics([r["trace"] for r in results])
        metrics["trace.job_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - plain, "s")
        metrics["failed_share"] = (len(self.failures) / max(1, self.attempted), "share")
        return metrics

    def env_record(self):
        return {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "quick": self.quick,
            "backend": self.worker_info.get("backend"),
            "ARQUIVER_BACKEND": os.environ.get("ARQUIVER_BACKEND"),
            "ARSUBCAT_THREADS": "unset",
            "threads": {var: self.env[var] for var in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": self.worker_info.get("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(self.root),
            "golden": self.worker_info.get("golden", "present"),
        }


def git_commit(root: Path):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def print_table(workload, metrics):
    print(f"per-layer metrics, workload {workload} (traced pass)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:<42} {shown} {unit}", file=sys.stderr)


def benchmark(root, workload, seed, seconds, trace, quick=False):
    """Run one workload; returns (env record, result object)."""
    run = Run(root, workload, seed, seconds, quick)
    metrics = run.measure(trace)
    for failure in run.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    if trace and not quick:
        print_table(workload, metrics)
    failed = min(len(run.failures), max(1, run.attempted))
    result = {
        "correct": not run.failures,
        "attempted": max(1, run.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return run.env_record(), result


def self_test(root):
    """Every workload on reduced inputs, traced and untraced: metric names
    match BENCHMARK.json, every output check passes, and decompose and
    isomorphism are called on manifests only."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = benchmark(root, workload, 0, 0, trace, quick=True)
            names = set(result["metrics"])
            where = f"{workload} --trace {trace}"
            if names != declared[trace]:
                problems.append(
                    f"{where}: undeclared {sorted(names - declared[trace])}, "
                    f"missing {sorted(declared[trace] - names)}"
                )
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed output checks")
            if trace:
                for fn in ("decompose", "isomorphism"):
                    calls = result["metrics"][f"repmod.{fn}.calls"]["value"]
                    if (calls > 0) != (workload == "manifests"):
                        problems.append(f"{where}: repmod.{fn}.calls = {calls}")
            print(f"self-test {where}: attempted {result['attempted']}, failed {result['failed']}")
    for problem in problems:
        print(f"SELF-TEST FAILED {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="quick check of every workload")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "arquiver" / "__init__.py").is_file():
        print(f"no arquiver source under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    if args.self_test:
        return self_test(root)
    if args.workload is None:
        parser.error("--workload is required")
    env, result = benchmark(root, args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
