"""One benchmark worker: a fresh interpreter that sets up one workload's
inputs, prints `ready`, runs one pass of the timed work and prints one JSON
result line.

Started by run.py as `python3 perfbench/worker.py '<spec json>'` from the
root of a checkout, with `src` on PYTHONPATH.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def _manifest_job(spec, out_dir):
    from arquiver import cli

    path = cli.fixtures_dir() / f"manifest_{spec['manifest']}.json"
    cli.load_manifest(path)
    yield None  # set-up done
    report = os.path.join(out_dir, f"report_{spec['manifest']}.json")
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        code = cli.main(
            ["verify", "--manifest", str(path), "--suite", "all", "--seed", "0", "--json", report]
        )
        elapsed = time.perf_counter() - t0
    yield elapsed, {"exit_code": code, "report": report}


def _homalg_job(spec):
    import workloads

    algebras = workloads.small_algebras()
    if spec["workload"] == "homalg-small":
        if spec["quick"]:
            algebras = algebras[:2]
        groups = [(name, workloads.small_inputs(alg)) for name, alg in algebras]
    else:
        groups = workloads.large_inputs(spec["seed"], dict(algebras), quick=spec["quick"])
    yield None  # set-up done
    t0 = time.perf_counter()
    table, attempted, failures = workloads.homalg_pass(groups, ext2=spec["workload"] == "homalg-small")
    elapsed = time.perf_counter() - t0
    yield elapsed, {"table": table, "attempted": attempted, "failures": failures}


def main():
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import arquiver.cli  # noqa: F401 - the import is part of set-up
    import numpy
    from arquiver import exactlin

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = spec["out_dir"]
    if spec["workload"] == "manifests":
        job = _manifest_job(spec, out_dir)
    else:
        job = _homalg_job(spec)
    next(job)
    print("ready", flush=True)
    if spec["setup_only"]:
        return
    pass_s, output = next(job)
    result = {
        "pass_s": pass_s,
        "output": output,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "backend": exactlin.backend(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.dump(os.path.join(out_dir, f"spans_{spec['label']}.npz"))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
