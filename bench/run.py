"""Benchmark of ttolab: one seeded workload, timed end to end or traced by module.

    python3 bench/run.py --workload battery|queries|hard-spaces --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; ttolab is imported from ``src/``.
One client, closed loop, BLAS pinned to one thread.  Set-up (importing
ttolab, building the workload's spaces and generating every input) runs three
times and is timed apart from the measured rounds.  The timed phase then runs
whole rounds of the same requests until ``--seconds`` have passed.  Every
output of the first round is checked against a computation made apart from
ttolab (``oracle.py``) or against a property the method must have; every
later round must reproduce the first round's outputs.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` rounds alternate between untraced and
traced; the traced rounds give the per-layer metrics (per round), the
untraced ones the tracing overhead, and the spans go to
``bench/out/trace-<workload>-<seed>.jsonl.gz``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import ttolab; print(time.perf_counter() - t)")

# Functions whose calls, busy, self and failed figures are reported, by
# metric prefix and span name.
REPORTED = {
    "blaschke.solve_equals": "blaschke.BlaschkeProduct.solve_equals",
    "model_space.ModelSpace": "model_space.ModelSpace",
    "model_space.kernel": "model_space.ModelSpace.kernel",
    "tto.build_tto": "tto.build_tto",
    "tto.build_refined": "tto.build_refined",
    "tto.is_tto": "tto.is_tto",
    "classification.classify_type": "classification.classify_type",
    "classification.product_classification": "classification.product_classification",
    "classification.inverse_type_check": "classification.inverse_type_check",
    "crofoot_clark.crofoot": "crofoot_clark.crofoot",
    "crofoot_clark.clark_data": "crofoot_clark.clark_data",
    "crofoot_clark.build_clark_fraction_tto": "crofoot_clark.build_clark_fraction_tto",
    "verify.verify_space": "verify.verify_space",
    "cli.main": "cli.main",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("battery", "queries", "hard-spaces"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Time to import ttolab in a fresh interpreter, measured inside it."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip())


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class Rounds:
    """Runs whole rounds of the requests and compares each with the first."""

    def __init__(self, requests, errors, workloads):
        self.requests = requests
        self.errors = errors
        self.workloads = workloads
        self.first = None
        self.first_fp = None
        self.latencies = []
        self.mismatches = []
        self.untraced_s = []
        self.traced_s = []
        self.traced_request_s = 0.0
        self.rounds = 0

    def run_one(self, tracer=None):
        results = []
        lat = []
        clock = time.perf_counter
        start = clock()
        for i, req in enumerate(self.requests):
            if tracer is not None:
                tracer.request = i
            t = clock()
            try:
                out, err = req.call(), None
            except self.errors as exc:
                # keep no traceback: it would hold the failed call's frames alive
                out, err = None, f"{type(exc).__name__}: {exc}"
            lat.append(clock() - t)
            results.append((out, err))
        wall = clock() - start
        if tracer is None:
            self.latencies.extend(lat)
            self.untraced_s.append(wall)
        else:
            self.traced_s.append(wall)
            self.traced_request_s += sum(lat)
        self._compare(results)
        self.rounds += 1

    def _compare(self, results):
        fps = [err if err is not None else self.workloads.fingerprint(out)
               for out, err in results]
        if self.first is None:
            self.first, self.first_fp = results, fps
            return
        for req, fp, fp0 in zip(self.requests, fps, self.first_fp):
            if not self.workloads.same(fp, fp0):
                self.mismatches.append(f"{req.kind}: output differs from the first round")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ttolab" / "__init__.py").is_file():
        print(f"error: no ttolab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ttolab
    if Path(ttolab.__file__).resolve().parent != (SRC / "ttolab").resolve():
        print(f"error: ttolab imported from {ttolab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = measure(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, work_dir):
    import numpy as np
    import ttolab
    import workloads
    from tracer import Tracer

    setup = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        t = time.perf_counter()
        requests = workloads.build(args.workload, args.seed, work_dir)
        setup.append(imported + time.perf_counter() - t)

    tracer = Tracer(ttolab) if args.trace else None
    rounds = Rounds(requests, (ttolab.TTOLabError, np.linalg.LinAlgError), workloads)
    gc.collect()
    start = time.perf_counter()
    while True:
        rounds.run_one()
        if tracer is not None:
            tracer.install()
            try:
                rounds.run_one(tracer)
            finally:
                tracer.remove()
        if time.perf_counter() - start >= args.seconds:
            break
    elapsed = time.perf_counter() - start

    outcomes = [req.outcome(out, err) for req, (out, err) in zip(requests, rounds.first)]
    wrong = [w for o in outcomes for w in o.wrong] + rounds.mismatches
    if args.workload == "battery":
        wrong += battery_rerun(requests[0], rounds.first[0][0])
    per_round_ops = sum(req.ops for req in requests)
    per_round_failed = sum(o.failed for o in outcomes)
    for line in wrong:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{args.workload}: {rounds.rounds} rounds of {len(requests)} requests, "
          f"{per_round_ops} operations, {per_round_failed} failed per round",
          file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(args, setup, rounds, outcomes, elapsed, workloads)
    else:
        metrics = per_layer(tracer, rounds, ttolab)
        tracer.write_spans(OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz")
    return {
        "correct": not wrong,
        "attempted": per_round_ops * rounds.rounds,
        "failed": per_round_failed * rounds.rounds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def battery_rerun(req, first_out):
    """Run one problem once more: its JSON report must be byte-identical."""
    if req.call()[1] != first_out[1]:
        return [f"{req.kind}: JSON report differs between two runs of one problem"]
    return []


def end_to_end(args, setup, rounds, outcomes, elapsed, workloads):
    lat_ms = sorted(x * 1e3 for x in rounds.latencies)
    passed_ops = sum(o.passed for o in outcomes) * rounds.rounds
    margins = [m for o in outcomes for m in o.margins]
    pct = workloads.TAIL_PERCENTILE[args.workload]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (passed_ops / elapsed, "1/s"),
        "op_p50_ms": (percentile(lat_ms, 50.0), "ms"),
        "op_tail_ms": (percentile(lat_ms, pct), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "margin_digits": (min(margins), "digits"),
    }
    beyond = len(lat_ms) - max(1, math.ceil(pct / 100.0 * len(lat_ms)))
    print(f"{args.workload}: {len(lat_ms)} latency samples, {beyond} beyond p{pct}",
          file=sys.stderr)
    return metrics


def per_layer(tracer, rounds, ttolab):
    n = len(rounds.traced_s)
    metrics = {}
    for prefix, span in REPORTED.items():
        stat = tracer.stats[span]
        metrics[f"{prefix}.calls"] = (stat.calls / n, "count")
        metrics[f"{prefix}.busy_s"] = (stat.busy / n, "s")
        metrics[f"{prefix}.self_s"] = (stat.self / n, "s")
        metrics[f"{prefix}.failed"] = (stat.failed / n, "count")
    for check, _bound, _meth in ttolab.verify.CHECKS:
        metrics[f"verify.{check}.busy_s"] = (tracer.stats[f"verify.{check}"].busy / n, "s")
    cli_busy = tracer.stats["cli.main"].busy - tracer.stats["verify.verify_space"].busy
    metrics["cli.overhead_s"] = (cli_busy / n, "s")
    counts = tracer.counts
    metrics["model_space.quad_points"] = (counts["model_space.quad_points"] / n, "count")
    points = counts["tto.build_refined.points"]
    metrics["tto.build_refined.points"] = (points / n, "count")
    metrics["tto.build_refined.useful_share"] = (
        counts["tto.build_refined.last_grid_points"] / points if points else 0.0, "share")
    wall = sum(rounds.traced_s)
    harness = wall - rounds.traced_request_s
    layers = tracer.module_self()
    for module, self_s in layers.items():
        metrics[f"{module}.self_s"] = (self_s / n, "s")
    metrics["harness.self_s"] = (harness / n, "s")
    traced = statistics.median(rounds.traced_s)
    untraced = statistics.median(rounds.untraced_s)
    metrics["trace.wall_s"] = (wall / n, "s")
    metrics["trace.self_sum_s"] = ((sum(layers.values()) + harness) / n, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
