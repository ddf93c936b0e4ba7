"""rydramsey benchmark driver.

    python3 perfbench/run.py --workload gas_sweeps --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. One run measures one workload (see
BENCHMARK.json and perfbench/README.md):

  * set-up: ``SETUP_PROBES`` fresh processes import rydramsey and load the
    configs; so does the measuring process. setup_s is the median of those
    times, from process start to ready.
  * the measuring process (perfbench/worker.py) runs one cold pass, then
    warm passes for ``--seconds``. With ``--trace 1`` it runs untraced warm
    passes for half the window and traced passes for the other half, and
    reports per-layer metrics and the tracing overhead.

Times in the result are wall times scaled to a reference CPU speed that
each child samples on its own CPU (perfbench/speed.py); the report keeps
the raw wall times too. Every child runs single-threaded (BLAS/OpenMP
thread counts pinned to 1) and writes its pipeline outputs to a scratch
directory inside the checkout that is removed afterwards.

The line before the last is a detailed report (quartiles, sample counts,
failed_frac, failures, machine and versions); the last line is the result
object. ``--smoke`` runs every workload once at tiny sizes, traced and
untraced, and checks that each named metric is present with its unit and
that no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
REQUIRED = (
    os.path.join(ROOT, "src", "rydramsey", "__init__.py"),
    os.path.join(ROOT, "configs", "sr_dressed.json"),
    os.path.join(ROOT, "configs", "rb_ultrafast.json"),
)
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
SPANS_DIR = os.path.join(ROOT, ".perfbench_out")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(args: list, deadline: float):
    """Start a worker and time it from launch to its ``ready`` line.

    Returns ((wall, normalized) set-up seconds, process); stdout is left
    open for the caller. The ready line carries the worker's speed factor.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    words = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    if len(words) != 2 or words[0] != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return (wall, wall * float(words[1])), proc


def finish(proc, deadline: float) -> str:
    """Wait for a worker to exit and return the rest of its stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out


def measure(workload: str, seed: int, seconds: float, trace: int, size: str, probes: int) -> dict:
    """Run set-up probes and the measuring worker; return its raw report."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    base = ["--workload", workload, "--size", size, "--seed", str(seed)]
    setups = []
    for _ in range(probes):
        setup, proc = spawn(base + ["--probe"], deadline)
        finish(proc, deadline)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe exited {proc.returncode}")
        setups.append(setup)

    os.makedirs(SCRATCH, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=SCRATCH)
    args = base + ["--seconds", str(seconds), "--trace", str(trace), "--work", work]
    if trace:
        os.makedirs(SPANS_DIR, exist_ok=True)
        args += ["--spans", os.path.join(SPANS_DIR, f"spans-{workload}-seed{seed}.csv")]
    try:
        setup, proc = spawn(args, deadline)
        out = finish(proc, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not os.listdir(SCRATCH):
            os.rmdir(SCRATCH)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    raw = json.loads(out.strip().splitlines()[-1])
    setups.append(setup)
    raw["setup"] = {"wall": [w for w, _ in setups], "normalized": [n for _, n in setups]}
    return raw


def spread(values: list) -> dict:
    """Median, quartiles and sample count of a list of values."""
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def metric_detail(raw: dict, trace: int, catalog: list) -> dict:
    """Map a worker report onto the metrics BENCHMARK.json names.

    Each metric gets its median, sample count and unit. End-to-end times
    are medians over their samples; per-layer counts come from the first
    traced pass and times are medians over traced passes.
    """
    detail = {}
    if not trace:
        samples = {
            "setup_s": raw["setup"]["normalized"],
            "cold_pass_s": raw["cold_pass"]["normalized"],
            "pass_s": raw["warm_pass"]["normalized"],
            "peak_rss_mb": [raw["peak_rss_mb"]],
        }
        for name, unit in catalog:
            detail[name] = dict(spread(samples[name]), unit=unit)
        return detail
    layers = raw["layers"]
    overhead = statistics.median(raw["traced_pass"]["normalized"]) - statistics.median(
        raw["warm_pass"]["normalized"]
    )
    for name, unit in catalog:
        if name == "trace.overhead_s":
            detail[name] = {"median": overhead, "n": len(layers), "unit": unit}
        elif unit == "count":
            detail[name] = {"median": layers[0][name], "n": 1, "unit": unit}
        else:
            detail[name] = dict(spread([p[name] for p in layers]), unit=unit)
    return detail


def run_once(workload: str, seed: int, seconds: float, trace: int, size: str, probes: int) -> tuple:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    if workload not in names:
        raise BenchError(f"unknown workload {workload!r}; choose from {names}")
    key = "per_layer" if trace else "end_to_end"
    catalog = [(m["name"], m["unit"]) for m in bench[key]]

    raw = measure(workload, seed, seconds, trace, size, probes)
    detail = metric_detail(raw, trace, catalog)
    attempted, failed = raw["attempted"], raw["failed"]
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "failed_frac": {"value": failed / attempted, "unit": "1", "n": attempted},
        "failures": raw["failures"],
        "metrics": detail,
        "samples": {k: raw[k] for k in ("setup", "cold_pass", "warm_pass", "traced_pass") if k in raw},
        "environment": raw["environment"],
    }
    if trace:
        report["counts_repeat"] = all(
            p[n] == raw["layers"][0][n] for p in raw["layers"] for n, u in catalog if u == "count"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": detail[name]["median"], "unit": unit} for name, unit in catalog},
    }
    return report, result


def smoke() -> int:
    """Every workload once at tiny sizes, untraced and traced (one pass each)."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            report, result = run_once(workload, 0, 0.0, trace, "smoke", probes=0)
            label = f"{workload} trace={trace}"
            if result["failed"]:
                problems.append(f"{label}: failures {report['failures']}")
            for name, metric in result["metrics"].items():
                if not isinstance(metric["value"], (int, float)) or not metric["unit"]:
                    problems.append(f"{label}: metric {name} lacks a value or unit")
            print(json.dumps({"smoke": label, "failed_frac": report["failed_frac"]["value"]}))
    for problem in problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"smoke_ok": not problems}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rydramsey benchmark driver")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED + (BENCHMARK,) if not os.path.exists(p)]
    if missing:
        print(f"error: not a rydramsey checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required unless --smoke is given")
        report, result = run_once(
            args.workload, args.seed, args.seconds, args.trace, "full", SETUP_PROBES
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
