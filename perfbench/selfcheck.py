"""Determinism self-check of the end-to-end benchmark.

Usage, from the repository root::

    python3 perfbench/selfcheck.py

For each workload, runs one plain and one traced batch in a fresh
interpreter three times: twice at ``SEED`` and once at ``OTHER_SEED``.  Separate interpreters matter: each gets its own
string-hash seed, so anything that leans on set or dict order of
strings shows up here and not inside one process.  Passes when

* the two ``SEED`` runs report identical virtual-time end-to-end
  metrics and identical per-layer counts, and
* every batch of all three runs passes the correctness check.

Exits 0 on pass, 1 on any failure.  Not part of the gate.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1
OTHER_SEED = 2


def child(workload_name: str, seed: int) -> None:
    """One plain and one traced batch; prints their comparable results."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    workload = bench.WORKLOADS[workload_name]
    inputs = bench.Inputs.make(workload, seed)
    plain = bench.run_batch(workload, inputs)
    traced = bench.run_batch(workload, inputs, traced=True)
    print(json.dumps({
        "virtual": plain.virtual,
        "traced_virtual": traced.virtual,
        "counts": traced.counts,
        "errors": plain.errors + traced.errors,
    }))


def run_child(workload_name: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--child", workload_name, str(seed)],
        capture_output=True, text=True, check=False, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload_name} seed {seed} crashed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_workload(workload_name: str) -> list[str]:
    first, second = run_child(workload_name, SEED), run_child(workload_name, SEED)
    other = run_child(workload_name, OTHER_SEED)
    failures = []
    for label, result in (("first", first), ("second", second), ("other-seed", other)):
        failures += [f"{label} run: {error}" for error in result["errors"]]
        if result["virtual"] != result["traced_virtual"]:
            failures.append(f"{label} run: tracing changed the virtual-time metrics")
    for key in ("virtual", "counts"):
        if first[key] != second[key]:
            failures.append(f"seed {SEED} {key} differ across runs: {first[key]} vs {second[key]}")
    return failures


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(argv[1], int(argv[2]))
        return 0
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    status = 0
    for name in bench.WORKLOADS:
        failures = check_workload(name)
        print(f"{name}: {'ok' if not failures else 'FAIL'}")
        for failure in failures[:10]:
            print(f"  {failure}")
        status |= bool(failures)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
