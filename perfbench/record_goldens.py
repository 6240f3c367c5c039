"""Record the golden outputs that run.py checks against.

Run from the root of a checkout, on the commit whose outputs are the
reference:

    python3 perfbench/record_goldens.py

Writes perfbench/golden/manifest_<name>.json (the `verify --suite all
--seed 0 --json` report of each packaged manifest), homalg-small.json (the
dimension table of one pass) and homalg-large.json (one table for each
seed below run.LARGE_GOLDEN_SEEDS).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

from run import GOLDEN, LARGE_GOLDEN_SEEDS, MANIFESTS


def main():
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import workloads
    from arquiver.cli import fixtures_dir

    GOLDEN.mkdir(exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    env.pop("ARSUBCAT_THREADS", None)
    for name in MANIFESTS:
        subprocess.run(
            [
                sys.executable, "-m", "arquiver.cli", "verify",
                "--manifest", str(fixtures_dir() / f"manifest_{name}.json"),
                "--suite", "all", "--seed", "0",
                "--json", str(GOLDEN / f"manifest_{name}.json"),
            ],
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        print(f"manifest {name} recorded", flush=True)

    algebras = workloads.small_algebras()
    groups = [(name, workloads.small_inputs(alg)) for name, alg in algebras]
    table, _, failures = workloads.homalg_pass(groups, ext2=True)
    if failures:
        raise SystemExit(f"homalg-small failed: {failures[:5]}")
    (GOLDEN / "homalg-small.json").write_text(json.dumps(table, sort_keys=True) + "\n")
    print("homalg-small recorded", flush=True)

    large = {}
    for seed in range(LARGE_GOLDEN_SEEDS):
        groups = workloads.large_inputs(seed, dict(algebras))
        table, _, failures = workloads.homalg_pass(groups, ext2=False)
        if failures:
            raise SystemExit(f"homalg-large seed {seed} failed: {failures[:5]}")
        large[str(seed)] = table
        print(f"homalg-large seed {seed} recorded", flush=True)
    (GOLDEN / "homalg-large.json").write_text(json.dumps(large, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
