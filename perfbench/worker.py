"""One repetition of a workload, in a process of its own.

Run by run.py, never by hand: it imports coxstrata from the checkout's
`src`, sets the workload up, runs its passes and prints one JSON record on
its last stdout line.  With --trace it wraps the package first and adds the
per-module summary of the pass; with --pool it times the sweep with one
and two workers instead of running a workload.  With --calibrate it
samples calibrate.py's kernel around the operations and reports each
operation's reference time, the raw times beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CPUS = sorted(os.sched_getaffinity(0))
# Seconds between calibration samples: before every operation where each
# takes tens of milliseconds or more, every tenth of a second for queries.
CAL_EVERY_S = {"enum": 0.0, "cli": 0.0, "queries": 0.1}
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _flat_tallies(tracer) -> None:
    tracer.watch["flats.build_lattice"] = lambda lat: (len(lat.flats), len(lat.covers))
    tracer.watch["flats.enumerate_rank_counts"] = lambda counts: (sum(counts), 0)


def pool_speedup(type_str: str) -> dict:
    from coxstrata import build_root_system, enumerate_rank_counts

    rs = build_root_system(type_str)
    times = {}
    for workers in (1, 2):
        start = time.perf_counter()
        enumerate_rank_counts(rs, workers=workers)
        times[workers] = time.perf_counter() - start
    return {"pool_1_s": times[1], "pool_2_s": times[2]}


def pin(slot: int) -> None:
    """Run on one CPU, chosen by slot among the CPUs this process may use.

    Load from other tenants can keep one CPU at half speed for seconds while
    another runs at full speed; passes on rotating CPUs sample both.
    """
    os.sched_setaffinity(0, {CPUS[slot % len(CPUS)]})


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--pool", action="store_true")
    ap.add_argument("--passes", type=int, help="passes to run (default: the workload's)")
    ap.add_argument("--calibrate", action="store_true", help="report reference times (calibrate.py)")
    ap.add_argument("--slot", type=int, default=0, help="CPU rotation slot of the first pass")
    args = ap.parse_args()

    import workloads
    from calibrate import Clock, calibrate
    from workloads import SIZES, WORKLOADS

    if args.pool:
        print(json.dumps(pool_speedup(SIZES[args.size]["pool_type"])))
        return
    pin(args.slot)

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        _flat_tallies(tracer)
        tracer.install()
        tracer.start_run("setup")
    workload = WORKLOADS[args.workload](args.size, args.seed)
    workload.setup(Path(args.cache_dir))
    ready = time.monotonic()
    record = {"ready": ready}
    if args.calibrate:
        record["ready_cal"] = calibrate()
        workloads.CLOCK = Clock(CAL_EVERY_S[args.workload])
    if not args.setup_only:
        record["walls"], record["passes"] = [], []
        for i in range(args.passes or SIZES[args.size]["passes"][args.workload]):
            if tracer is not None:
                tracer.start_run(f"pass{i}")
            pin(args.slot + i)
            start = time.perf_counter()
            ops = workload.run()
            record["walls"].append(time.perf_counter() - start)
            if workloads.CLOCK is not None:
                record.setdefault("raw_passes", []).append(ops)
                scales = workloads.CLOCK.scales()
                ops = [(kind, t * scale, ok) for (kind, t, ok), scale in zip(ops, scales)]
            record["passes"].append(ops)
        if workloads.CLOCK is not None:
            record["cals"] = workloads.CLOCK.samples
        record["stdout_bytes"] = workload.cli_stdout_bytes
        record["flats"] = workload.flats
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        record["trace"] = {run: tracer.summary(run) for run in tracer.runs}
        tracer.write(args.trace_out)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
