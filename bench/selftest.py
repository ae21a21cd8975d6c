"""Quick self-test of the benchmark: every workload, briefly, every check on.

    python3 bench/selftest.py

1. Builds each workload at seed 0, runs every request once and judges it:
   no output may be wrong, and exactly the requests marked as kept faults may
   fail (on ``battery``, exactly the degree-32 ``fraction_reduction`` check).
2. Runs ``run.py`` once per workload with ``--trace 0`` and once with
   ``--trace 1`` for one round: the output must be correct and name exactly
   the metrics of ``BENCHMARK.json``, and the traced self times must add up
   to the traced wall time.
3. Runs ``run.py`` in a directory that holds only ``BENCHMARK.json`` and the
   benchmark's files: it must exit non-zero without printing a result.

Takes about half a minute; exits non-zero on the first failure.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ttolab  # noqa: E402
import workloads  # noqa: E402


def fail(message):
    print(f"FAIL {message}")
    sys.exit(1)


def check_requests(name, work_dir):
    for req in workloads.build(name, 0, work_dir):
        try:
            out, err = req.call(), None
        except (ttolab.TTOLabError, np.linalg.LinAlgError) as exc:
            out, err = None, exc
        outcome = req.outcome(out, err)
        if outcome.wrong:
            fail(f"{name}: wrong output: {outcome.wrong}")
        if name == "battery":
            failed = workloads.battery_failed_checks(out)
            expected = [req.fault] if req.fault else []
            if failed != expected:
                fail(f"{name}: {req.kind} failed checks {failed}, expected {expected}")
        elif bool(outcome.failed) != (req.fault is not None):
            detail = f"raised {err!r}" if err is not None else "returned"
            fail(f"{name}: {req.kind} (kept fault {req.fault}) {detail}")
    print(f"ok   {name}: every request judged, failures only at kept faults")


def run(args, cwd):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_run(name, trace, spec):
    done = run(["--workload", name, "--seed", "0", "--seconds", "0.01",
                "--trace", str(trace)], ROOT)
    if done.returncode != 0:
        fail(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True:
        fail(f"{name} trace={trace}: incorrect\n{done.stderr}")
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail(f"{name} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(wanted))}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        gap = abs(metrics["trace.wall_s"] - metrics["trace.self_sum_s"])
        if gap > 0.01 * metrics["trace.wall_s"]:
            fail(f"{name}: self times leave {gap:.4f} s of the traced wall time")
    elif any(v == 0 for v in metrics.values()):
        fail(f"{name}: an end-to-end metric reads 0: {metrics}")
    print(f"ok   {name} trace={trace}: {result['attempted']} attempted, "
          f"{result['failed']} failed")


def check_bare_directory():
    bare = HERE / "out" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run(["--workload", "queries", "--seed", "0", "--seconds", "1", "--trace", "0"],
                   bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("run.py succeeded without the ttolab sources")
    print("ok   run.py refuses a directory without the ttolab sources")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = HERE / "out" / f"selftest-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            check_requests(name, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
