"""Measure the ROADMAP's "Baseline" figures again and compare them with the stated ones.

    python3 bench/baseline.py [--out bench/results/baseline.json]

Each figure is the median of REPEATS timings; its spread is the range
of those timings over their median.  A figure is flagged when it differs from
the stated value by more than that spread (or by more than 30%, the
whole-range spread of repeated runs seen on a shared 2-CPU machine, if that
is larger).  The repository's test suite is timed once.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402

REPEATS = 5
MACHINE_SPREAD = 0.30

# (name, unit, value stated in ROADMAP.md's Baseline section)
STATED = {
    "solve_mean_n30_ms": ("ms", 1.3),
    "solve_mean_derivative_n30_ms": ("ms", 0.9),
    "solve_second_moment_n7_ms": ("ms", 33.0),
    "solve_second_moment_n15_ms": ("ms", 179.0),
    "solve_second_moment_n30_ms": ("ms", 753.0),
    "constants_report_n15_halving_s": ("s", 0.57),
    "product_convolution_share": ("1", 0.97),
    "product_panel_calls_n15_halving": ("count", 75_000),
    "mc_us_per_trial_L30": ("us", 23.0),
    "mc_us_per_trial_L500": ("us", 174.0),
    "mc_ns_per_car_L500": ("ns", 470.0),
    "cli_import_parklab_s": ("s", 0.23),
    "cli_constants_lambda1_s": ("s", 0.37),
    "cli_sweep60_s": ("s", 3.3),
    "cli_simulate_L30_100k_s": ("s", 2.1),
    "cli_validate_quick_s": ("s", 2.9),
    "tier1_s": ("s", 20.6),
}


def timed(fn, repeats: int = REPEATS) -> list[float]:
    out = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t)
    return out


def measure() -> dict[str, list[float]]:
    from parklab import constants, montecarlo, solver
    from parklab.core import Params

    samples: dict[str, list[float]] = {}
    p30 = Params(1.0, 30, 256)
    samples["solve_mean_n30_ms"] = [1e3 * t for t in timed(lambda: solver.solve_mean(p30))]
    samples["solve_mean_derivative_n30_ms"] = \
        [1e3 * t for t in timed(lambda: solver.solve_mean_derivative(p30))]
    for n in (7, 15, 30):
        p = Params(1.0, n, 256)
        grid = solver.solve_mean(p)
        samples[f"solve_second_moment_n{n}_ms"] = \
            [1e3 * t for t in timed(lambda: solver.solve_second_moment(p, grid))]

    report = lambda: constants.constants_report(1.0, 15, 256, "envelope", with_halving_delta=True)
    samples["constants_report_n15_halving_s"] = timed(report)
    # share of report time inside the product convolution, and its panel count
    conv_time, panel_calls = 0.0, 0
    conv, panel = solver._product_convolution, solver._product_panel

    def timed_conv(*args):
        nonlocal conv_time
        t = time.perf_counter()
        try:
            return conv(*args)
        finally:
            conv_time += time.perf_counter() - t

    def counted_panel(*args):
        nonlocal panel_calls
        panel_calls += 1
        return panel(*args)

    solver._product_convolution, solver._product_panel = timed_conv, counted_panel
    try:
        total = timed(report, 1)[0]
    finally:
        solver._product_convolution, solver._product_panel = conv, panel
    samples["product_convolution_share"] = [conv_time / total]
    samples["product_panel_calls_n15_halving"] = [float(panel_calls)]

    for length, trials in ((30.0, 20_000), (500.0, 2_000)):
        cfg = montecarlo.SimConfig(1.0, length, trials, 11)
        walls, cars = [], 0
        for _ in range(REPEATS):
            t = time.perf_counter()
            stats = montecarlo.run_mc(cfg, threads=1)
            walls.append(time.perf_counter() - t)
            cars = spans.histogram_cars(stats.histogram)
        samples[f"mc_us_per_trial_L{length:g}"] = [1e6 * w / trials for w in walls]
        if length == 500.0:
            samples["mc_ns_per_car_L500"] = [1e9 * w / cars for w in walls]

    env = run.child_env()
    run.run_process(["-c", run.SETUP_CODE], env)  # bytecode warm-up
    cli = {
        "cli_import_parklab_s": ["-c", "import parklab"],
        "cli_constants_lambda1_s": ["-m", "parklab.cli", "constants", "--lambda", "1"],
        "cli_sweep60_s": ["-m", "parklab.cli", "sweep", "--lambda-min", "0.1",
                          "--lambda-max", "6", "--steps", "60"],
        "cli_simulate_L30_100k_s": ["-m", "parklab.cli", "simulate", "--lambda", "1",
                                    "--length", "30", "--trials", "100000"],
        "cli_validate_quick_s": ["-m", "parklab.cli", "validate", "--quick"],
    }
    for name, args in cli.items():
        samples[name] = [run.run_process(args, env).wall for _ in range(REPEATS)]
    t = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                    "--continue-on-collection-errors"], cwd=ROOT, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    samples["tier1_s"] = [time.perf_counter() - t]
    return samples


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    os.environ["PARKLAB_THREADS"] = str(run.nproc())
    samples = measure()
    figures = {}
    for name, values in samples.items():
        unit, stated = STATED[name]
        median = statistics.median(values)
        spread = (max(values) - min(values)) / median if median else 0.0
        diff = median / stated - 1.0
        flagged = abs(diff) > max(spread, MACHINE_SPREAD)
        figures[name] = {"unit": unit, "median": median, "samples": values, "spread": spread,
                         "stated": stated, "relative_difference": diff,
                         "beyond_spread": flagged}
        print(f"{name:34s} {median:12.5g} {unit:5s} stated {stated:<8g} "
              f"diff {diff:+7.1%} spread {spread:6.1%}{'  DIFFERS' if flagged else ''}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"machine": run.machine_info(seed=None), "repeats": REPEATS,
                  "figures": figures}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
