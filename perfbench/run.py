"""Benchmark of coxstrata: three seeded workloads, end-to-end and per-layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {enum,cli,queries} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Each repetition runs in a fresh process (perfbench/worker.py) with a fresh
temporary cache directory, COXSTRATA_THREADS=1 and COXSTRATA_CACHE pinned, so
no in-process memo or on-disk cache carries work from one repetition to the
next.  Each pass runs pinned to one CPU, rotating over the allowed CPUs.
Repetitions continue while another one fits in S seconds (at least one);
set-up is measured at least five times, with set-up-only processes where
fewer repetitions ran.

Every end-to-end time is a reference time (calibrate.py): the measured time
scaled by a fixed calibration kernel's time taken just before and after it,
so that the host's speed swings cancel.  Each operation's time is the median
of its reference times over the run's passes; set-up is the median over the
set-ups.  The raw figures are printed above the result line.

--trace 0 prints the end-to-end metrics, all measured untraced.  --trace 1
runs one untraced and one traced repetition of three passes each and one
pool-size probe, and prints the per-layer metrics of the fastest traced
pass.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from calibrate import REF_S, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
MIN_SETUPS = 5
TRACE_PASSES = 3

LAYERS = ("rootsys", "linalg", "flats", "betti", "goodsub", "weyl", "cohomology", "strata", "verify", "cli")
# Functions whose self time is reported on its own; the name is matched on
# the last component, so a function that moves into a class is still found.
FUNCTIONS = (
    ("rootsys", "span_mask"),
    ("rootsys", "classify_subsystem"),
    ("linalg", "integer_kernel"),
    ("flats", "mobius_table"),
    ("weyl", "parabolic_summary"),
    ("cohomology", "cup"),
    ("strata", "membership"),
    ("cli", "load_lattice_cache"),
    ("cli", "save_lattice_cache"),
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.calls": "count" for layer in LAYERS},
    **{f"{layer}.{fn}.self_s": "s" for layer, fn in FUNCTIONS},
    "flats.flats_enumerated": "count",
    "flats.children_per_flat": "ratio",
    "flats.join_closure_ratio": "ratio",
    "cli.stdout_bytes": "bytes",
    "flats.pool_speedup": "ratio",
    "trace.overhead_s": "s",
}


class Child:
    """Runs worker.py processes and collects their records."""

    def __init__(self, args, started: float):
        self.args = args
        self.deadline = started + DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.slot = 0  # CPU rotation slot of the next pass

    def run(self, *extra: str) -> dict | None:
        WORK.mkdir(exist_ok=True)
        tmp = tempfile.mkdtemp(prefix="rep-", dir=WORK)
        env = dict(os.environ, COXSTRATA_THREADS="1", COXSTRATA_CACHE=tmp)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", self.args.workload, "--size", self.args.size,
            "--seed", str(self.args.seed), "--cache-dir", tmp, "--slot", str(self.slot), *extra,
        ]
        before = calibrate() if "--calibrate" in extra else None
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except BaseException as exc:  # stop the worker and its pool, then go on or re-raise
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if not isinstance(exc, subprocess.TimeoutExpired):
                raise
            print("perfbench: repetition timed out", file=sys.stderr)
            out = b""
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        lines = out.decode().strip().splitlines()
        try:
            if proc.returncode != 0 or not lines:
                raise ValueError(f"worker exited with {proc.returncode}")
            record = json.loads(lines[-1])
        except ValueError as exc:
            print(f"perfbench: repetition failed: {exc}", file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            return None
        if "ready" in record:
            record["setup_s"] = record["ready"] - spawned
        if before is not None:
            record["setup_ref_s"] = record["setup_s"] * 2 * REF_S / (before + record["ready_cal"])
        self.slot += max(1, len(record.get("passes", ())))
        for ops in record.get("passes", ()):
            self.attempted += len(ops)
            self.failed += sum(not ok for _, _, ok in ops)
        return record

    def time_left(self) -> float:
        return self.deadline - time.monotonic()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated; the sample itself when alone."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(child: Child, seconds: float) -> tuple[dict, dict]:
    start = time.monotonic()
    reps: list[dict] = []
    while True:  # at least one repetition; then while another one fits
        t0 = time.monotonic()
        rec = child.run("--calibrate")
        last = time.monotonic() - t0
        if rec is not None:
            reps.append(rec)
        # Leave room for the set-up-only processes still needed.
        setup_cost = max((r["setup_s"] for r in reps), default=0.0) + 0.3
        owed = max(0, MIN_SETUPS - len(reps)) * setup_cost
        if time.monotonic() - start + last + owed > seconds or child.time_left() < last:
            break
    if not reps:
        return {}, {}
    setup_recs = list(reps)
    while len(setup_recs) < MIN_SETUPS and child.time_left() > 2 * setup_cost:
        rec = child.run("--calibrate", "--setup-only")
        if rec is None:
            break
        setup_recs.append(rec)
    setups = [r["setup_ref_s"] for r in setup_recs]
    passes = [ops for r in reps for ops in r["passes"]]
    kinds = [k for k, _, _ in passes[0]]
    if any([k for k, _, _ in ops] != kinds for ops in passes):
        raise SystemExit("perfbench: passes of one run ran different operations")
    # Each operation's time is the median over the run's passes of its
    # reference time (calibrate.py), which cancels the host's speed swings.
    best = [statistics.median(ops[i][1] for ops in passes) for i in range(len(kinds))]
    wall = sum(best)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
        "ok_rate": 1 - child.failed / child.attempted,
        "op_p50_ms": 1e3 * quantile(best, 50),
        "op_p99_ms": 1e3 * quantile(best, 99),
        "ops_per_s": len(best) / wall,
    }
    # Workload-specific figures, printed for people; the gated set is generic.
    raw = [ops for r in reps for ops in r["raw_passes"]]
    extra = {
        "repetitions": (len(reps), "count"),
        "passes": (len(passes), "count"),
        "operations_per_pass": (len(kinds), "count"),
        "error_rate": (child.failed / child.attempted, "ratio"),
        "median_pass_wall_s": (statistics.median(w for r in reps for w in r["walls"]), "s"),
        "raw_setup_s": (statistics.median(r["setup_s"] for r in setup_recs), "s"),
        "raw_wall_s": (sum(statistics.median(ops[i][1] for ops in raw) for i in range(len(kinds))), "s"),
        "calibration_median_s": (statistics.median(c for r in reps for c in r["cals"]), "s"),
    }
    for kind in sorted(set(kinds)):
        times = [t for k, t in zip(kinds, best) if k == kind]
        if len(times) == 1:
            extra[f"{kind}_s"] = (times[0], "s")
        else:
            extra[f"{kind}_p50_ms"] = (1e3 * quantile(times, 50), "ms")
    if reps[0]["flats"]:
        extra["flats_per_s"] = (reps[0]["flats"] / wall, "1/s")
    return metrics, extra


def per_layer(child: Child) -> tuple[dict, dict]:
    plain = child.run("--passes", str(TRACE_PASSES))
    trace_path = WORK / f"trace-{child.args.workload}-{child.args.size}-seed{child.args.seed}.json"
    traced = child.run("--passes", str(TRACE_PASSES), "--trace-out", str(trace_path))
    pool = child.run("--pool")
    if plain is None or traced is None or pool is None:
        return {}, {}
    # Use the fastest pass of each process: host load only ever adds time.
    fastest = min(range(TRACE_PASSES), key=traced["walls"].__getitem__)
    traced_wall, plain_wall = traced["walls"][fastest], min(plain["walls"])
    summary = traced["trace"][f"pass{fastest}"]
    functions, modules = summary["functions"], summary["modules"]
    tallies, parents = summary["tallies"], summary["parents"]
    metrics: dict[str, float] = {}
    for layer in LAYERS:
        mod = modules.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[f"{layer}.self_s"] = mod["self_s"]
        metrics[f"{layer}.calls"] = mod["calls"]
    for layer, fn in FUNCTIONS:
        metrics[f"{layer}.{fn}.self_s"] = sum(
            v["self_s"] for k, v in functions.items()
            if k.split(".", 1)[0] == layer and k.rsplit(".", 1)[1] == fn
        ) + 0.0
    built = tallies.get("flats.build_lattice", [0, 0])
    counted = tallies.get("flats.enumerate_rank_counts", [0, 0])
    metrics["flats.flats_enumerated"] = built[0] + counted[0]
    metrics["flats.children_per_flat"] = built[1] / built[0] if built[0] else 0.0
    joins = functions.get("flats.join", {"calls": 0})["calls"]
    closures_in_join = parents.get("rootsys.closure", {}).get("flats.join", 0)
    metrics["flats.join_closure_ratio"] = closures_in_join / joins if joins else 0.0
    metrics["cli.stdout_bytes"] = traced["stdout_bytes"]
    metrics["flats.pool_speedup"] = pool["pool_1_s"] / pool["pool_2_s"]
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    extra = {
        "untraced_wall_s": (plain_wall, "s"),
        "traced_wall_s": (traced_wall, "s"),
        "pool_1_worker_s": (pool["pool_1_s"], "s"),
        "pool_2_workers_s": (pool["pool_2_s"], "s"),
        "traced_module_share_of_wall": (
            sum(m["self_s"] for m in modules.values()) / traced_wall, "ratio"
        ),
    }
    for run, summ in (("setup", traced["trace"]["setup"]), ("pass", summary)):
        for name in ("flats.build_lattice", "flats.enumerate_rank_counts"):
            fn = summ["functions"].get(name, {"self_s": 0.0, "calls": 0})
            extra[f"{run}:{name}.self_s"] = (fn["self_s"], "s")
    extra["trace_file"] = (str(trace_path.relative_to(ROOT)), "path")
    return metrics, extra


def main() -> int:
    started = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["enum", "cli", "queries"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    if not (ROOT / "src" / "coxstrata" / "__init__.py").is_file():
        print(f"perfbench: no coxstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    child = Child(args, started)
    if args.trace:
        metrics, extra = per_layer(child)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(child, args.seconds)
        units = END_TO_END
    if not metrics:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    for name, (value, unit) in extra.items():
        print(f"{name:48s} {value} {unit}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]} {unit}")
    print(json.dumps({
        "correct": child.failed == 0,
        "attempted": child.attempted,
        "failed": child.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
