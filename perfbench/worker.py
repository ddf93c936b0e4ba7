"""One benchmark process: set up, run one workload's passes, report as JSON.

Started by ``perfbench/run.py`` with the BLAS/OpenMP thread counts already
pinned in its environment. It imports rydramsey from the checkout's
``src/``, loads the configs, prints ``ready`` (run.py times set-up up to
that line), then runs a cold pass and warm passes of the workload and
prints one JSON line with the pass times (wall and normalized to the
reference CPU speed, see ``speed.py``), the correctness tally and, in a
traced run, the per-layer metrics. ``--probe`` stops after ``ready``.

Every operation of a pass is checked after it is timed:
  * a pipeline must exit 0 and its files must match the stored reference
    (``perfbench/reference/<size>/<pipeline>/``) within REL_TOL/ABS_TOL;
  * each Monte Carlo mean must lie within 3 standard errors of
    ``contrast_gas`` at every time;
  * ``validate`` must exit 0 and report ``all_passed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import warnings

from speed import SpeedSampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference")
SR_DRESSED = os.path.join(ROOT, "configs", "sr_dressed.json")
RB_ULTRAFAST = os.path.join(ROOT, "configs", "rb_ultrafast.json")
SMOKE_LATTICE = os.path.join(HERE, "smoke_lattice.json")

# Reference comparison: |got - ref| <= ABS_TOL + REL_TOL * |ref|. Loose
# enough for ulp-level reorderings and quadrature changes inside the
# package's own 1e-8 tolerance, tight enough to catch a changed result.
REL_TOL = 1e-6
ABS_TOL = 1e-12

MC_V0TS = (0.5, 2.0, 8.0)
MC_MAX_PULL = 3.0

# Monte Carlo geometries follow acceptance criterion 03: the box is 20 r_c
# at N_R = 1 and capped at 12 r_c at N_R = 10; the seed is
# int(1000 N_R) + beta. Sample counts are sized so a pass stays near
# 25 s on 2 cores. The smoke size uses criterion 03's dilute points.
MC_POINTS = {
    "full": ((1.0, 1910, 4), (10.0, 4125, 3)),
    "smoke": ((0.01, 128, 8), (0.1, 191, 8)),
}

SMOKE_GRIDS = {
    "fig2": "lin:0:8*pi:9",
    "fig3": "log:0.01:100:5",
    "scan": "log:1e-3:1e3:4",
    "fig5": "lin:0:700:8",
    "fig4": "lin:0:4*pi:9",
}


class CheckFailed(Exception):
    """An operation ran but its output failed the correctness gate."""


def _cli(argv):
    """Run the CLI in-process with its console output captured."""
    from rydramsey import cli

    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, err.getvalue().strip()


def _numbers_match(got: float, ref: float) -> bool:
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)


def _compare_json(got, ref, where: str) -> None:
    if isinstance(ref, bool) or ref is None or isinstance(ref, str):
        if got != ref:
            raise CheckFailed(f"{where}: {got!r} != reference {ref!r}")
    elif isinstance(ref, (int, float)):
        if isinstance(got, bool) or not isinstance(got, (int, float)):
            raise CheckFailed(f"{where}: {got!r} is not a number")
        if not _numbers_match(float(got), float(ref)):
            raise CheckFailed(f"{where}: {got!r} vs reference {ref!r}")
    elif isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            raise CheckFailed(f"{where}: list shape differs from reference")
        for k, (g, r) in enumerate(zip(got, ref)):
            _compare_json(g, r, f"{where}[{k}]")
    else:
        if not isinstance(got, dict) or set(got) != set(ref):
            raise CheckFailed(f"{where}: keys differ from reference")
        for key in ref:
            _compare_json(got[key], ref[key], f"{where}.{key}")


def _compare_csv(got_path: str, ref_path: str, name: str) -> None:
    with open(got_path, encoding="utf-8") as fh:
        got = fh.read().splitlines()
    with open(ref_path, encoding="utf-8") as fh:
        ref = fh.read().splitlines()
    if len(got) != len(ref) or got[:1] != ref[:1]:
        raise CheckFailed(f"{name}: header or row count differs from reference")
    for line_no, (g_line, r_line) in enumerate(zip(got[1:], ref[1:]), start=2):
        g_cells, r_cells = g_line.split(","), r_line.split(",")
        if len(g_cells) != len(r_cells):
            raise CheckFailed(f"{name}:{line_no}: column count differs")
        for g, r in zip(g_cells, r_cells):
            if not _numbers_match(float(g), float(r)):
                raise CheckFailed(f"{name}:{line_no}: {g} vs reference {r}")


def compare_tree(out_dir: str, ref_dir: str) -> None:
    """Check that a pipeline wrote the reference's files with matching numbers."""
    got_files = sorted(os.listdir(out_dir))
    ref_files = sorted(os.listdir(ref_dir))
    if got_files != ref_files:
        raise CheckFailed(f"wrote {got_files}, reference has {ref_files}")
    for name in ref_files:
        got_path, ref_path = os.path.join(out_dir, name), os.path.join(ref_dir, name)
        if name.endswith(".csv"):
            _compare_csv(got_path, ref_path, name)
        else:
            with open(got_path, encoding="utf-8") as fh:
                got = json.load(fh)
            with open(ref_path, encoding="utf-8") as fh:
                ref = json.load(fh)
            _compare_json(got, ref, name)


def pipeline_op(size: str, name: str, config: str):
    """A CLI pipeline on its default grid (a small grid at the smoke size)."""
    ref_dir = os.path.join(REFERENCE, size, name)
    extra = ["--grid", SMOKE_GRIDS[name]] if size == "smoke" else []

    def run(work: str):
        out = os.path.join(work, name)
        shutil.rmtree(out, ignore_errors=True)
        rc, err = _cli([name, "--config", config, "--out", out, *extra])

        def check():
            if rc != 0:
                raise CheckFailed(f"exit code {rc}: {err[-300:]}")
            compare_tree(out, ref_dir)

        return check

    return name, run


def monte_carlo_op(n_r: float, n_atoms: int, n_samples: int, beta: int):
    """monte_carlo_gas at criterion 03's geometry against contrast_gas."""
    from rydramsey import gas_average
    from rydramsey.errors import BiasWarning

    name = f"mc_nr{n_r:g}_beta{beta}"

    def run(work: str):
        point = gas_average.DimensionlessPoint(
            n_r=n_r, v0t=1.0, theta=math.pi / 2.0, beta=beta
        )
        spec, _ = point.to_physical()
        with warnings.catch_warnings():
            # The 12 r_c box at N_R = 10 is below the 20-range warning
            # threshold on purpose, as in criterion 03.
            warnings.simplefilter("ignore", BiasWarning)
            mc = gas_average.monte_carlo_gas(
                spec,
                list(MC_V0TS),
                n_samples=n_samples,
                n_atoms=n_atoms,
                seed=int(1000 * n_r) + beta,
            )
        exact = [gas_average.contrast_gas(spec, t) for t in MC_V0TS]

        def check():
            for k, t in enumerate(MC_V0TS):
                pull = abs(mc.mean[k] - exact[k]) / mc.stderr[k]
                if not pull <= MC_MAX_PULL:
                    raise CheckFailed(f"V0t={t}: |MC - contrast_gas| = {pull:.3f} SE")

        return check

    return name, run


def validate_op(seed: int):
    """The validate pipeline at the workload seed."""

    def run(work: str):
        out = os.path.join(work, "validate")
        shutil.rmtree(out, ignore_errors=True)
        rc, err = _cli(
            ["validate", "--config", SR_DRESSED, "--out", out, "--seed", str(seed)]
        )

        def check():
            path = os.path.join(out, "validation_report.json")
            if not os.path.exists(path):
                raise CheckFailed(f"exit code {rc}: {err[-300:]}")
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            failed = [c["check"] for c in report["checks"] if not c["passed"]]
            if rc != 0 or not report["all_passed"]:
                raise CheckFailed(f"exit code {rc}, failed checks {failed}")

        return check

    return "validate", run


def workload_ops(workload: str, size: str, seed: int) -> list:
    if workload == "gas_sweeps":
        return [
            pipeline_op(size, "fig2", SR_DRESSED),
            pipeline_op(size, "fig3", SR_DRESSED),
            pipeline_op(size, "scan", SR_DRESSED),
            pipeline_op(size, "fig5", RB_ULTRAFAST),
        ]
    if workload == "lattice_fig4":
        return [pipeline_op(size, "fig4", SMOKE_LATTICE if size == "smoke" else SR_DRESSED)]
    if workload == "mc_crosscheck":
        ops = [
            monte_carlo_op(n_r, n_atoms, n_samples, beta)
            for n_r, n_atoms, n_samples in MC_POINTS[size]
            for beta in (0, 1)
        ]
        return ops + [validate_op(seed)]
    raise SystemExit(f"unknown workload {workload!r}")


def config_paths(workload: str, size: str) -> list:
    if workload == "gas_sweeps":
        return [SR_DRESSED, RB_ULTRAFAST]
    if workload == "lattice_fig4" and size == "smoke":
        return [SMOKE_LATTICE]
    return [SR_DRESSED]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failures = []


def run_pass(ops: list, work: str, tally: Tally, sampler) -> tuple:
    """Run every operation once; return (wall, normalized) program seconds.

    Checks run after each operation's timer stops, so they are not timed
    and make no traced calls. The normalized time scales the wall time by
    the sampler's speed factor over the pass.
    """
    spent = 0.0
    start = time.perf_counter()
    for name, run in ops:
        tally.attempted += 1
        t0 = time.perf_counter()
        try:
            check = run(work)
        except Exception as exc:  # an operation that raises is a failed operation
            spent += time.perf_counter() - t0
            tally.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")
            continue
        spent += time.perf_counter() - t0
        try:
            check()
        except CheckFailed as exc:
            tally.failures.append(f"{name}: {exc}")
    return spent, spent * sampler.factor(start, time.perf_counter())


def run_window(ops, work, tally, sampler, seconds: float, after_pass=None) -> dict:
    """Warm passes for about `seconds` of wall time: at least one, and no
    new pass that the last pass time says would end past the window."""
    wall, norm = [], []
    start = time.perf_counter()
    while not wall or time.perf_counter() - start + wall[-1] <= seconds:
        w, n = run_pass(ops, work, tally, sampler)
        wall.append(w)
        norm.append(n)
        if after_pass is not None:
            after_pass(n / w if w else 1.0)
    return {"wall": wall, "normalized": norm}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    threads = {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")}
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", help="directory for pipeline outputs")
    parser.add_argument("--spans", help="file for the first traced pass's spans")
    parser.add_argument("--probe", action="store_true", help="exit once ready")
    args = parser.parse_args(argv)

    sampler = SpeedSampler()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from rydramsey import load_config

    for path in config_paths(args.workload, args.size):
        load_config(path)
    sampler.sample()
    # run.py multiplies its launch-to-ready wall time by this factor.
    print(f"ready {sampler.factor(0.0, time.perf_counter())!r}", flush=True)
    if args.probe:
        return 0

    ops = workload_ops(args.workload, args.size, args.seed)
    tally = Tally()
    wall, norm = run_pass(ops, args.work, tally, sampler)
    result = {"cold_pass": {"wall": [wall], "normalized": [norm]}}
    if args.trace:
        from tracer import Tracer, summarize, write_spans

        result["warm_pass"] = run_window(ops, args.work, tally, sampler, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        layers = []
        first_spans = []

        def collect(speed_factor):
            spans = tracer.take()
            if not layers:
                first_spans.extend(spans)
            layers.append(summarize(spans, speed_factor))

        result["traced_pass"] = run_window(
            ops, args.work, tally, sampler, args.seconds / 2, after_pass=collect
        )
        result["layers"] = layers
        if args.spans:
            write_spans(args.spans, first_spans)
    else:
        result["warm_pass"] = run_window(ops, args.work, tally, sampler, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = tally.attempted
    result["failed"] = len(tally.failures)
    result["failures"] = tally.failures[:20]
    result["environment"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
