"""Size-sweep diagnostic: ``hot_reads`` per-op wall cost against entity
count, to show where per-op cost stops being flat.  Not part of the
gate.

Usage, from the repository root::

    python3 perfbench/sweep.py [--sizes 1000,10000,100000,1000000]

Each size is one batch of the ``hot_reads`` workload (same cluster,
same rates, same 10k-op schedule length) over a population of that
many entities, every one of them preloaded.  Prints one line per size:
set-up seconds, per-op wall microseconds over the timed run, and peak
RSS so far.  The largest sizes need a lot of memory: three replicas of
every entity are held, roughly 2 KiB per entity per replica.
"""

from __future__ import annotations

import argparse
import resource
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Virtual duration of every sweep batch: about 10k ops at 100 ops per
#: time unit, the same for every size.
DURATION = 100.0
SEED = 1


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import bench

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", default="1000,10000,100000,1000000")
    args = parser.parse_args(argv)
    base = bench.WORKLOADS["hot_reads"]
    print("entities  setup_s  us_per_op  ops  peak_rss_mb  correct")
    status = 0
    for size in (int(size) for size in args.sizes.split(",")):
        workload = replace(
            base, scenario=replace(base.scenario, entities=size, duration=DURATION)
        )
        inputs = bench.Inputs.make(workload, SEED)
        batch = bench.run_batch(workload, inputs)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(
            f"{size:8d}  {batch.setup_s:7.2f}  {batch.run_s / batch.attempted * 1e6:9.2f}"
            f"  {batch.attempted}  {rss:11.1f}  {not batch.errors}",
            flush=True,
        )
        status |= bool(batch.errors)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
