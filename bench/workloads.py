"""The benchmark's workloads: the parklab commands each one runs and the
checks every command's output must pass.

Each workload is a fixed list of ``parklab`` command lines, defined here
only.  The seed permutes the order of the ``report`` commands and keys the
``simulate`` streams; the other inputs are fixed so that outputs can be
compared with the reference values in ``reference.json``, which
``record_reference.py`` wrote once from the solver as it stood when the
benchmark was defined.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spans import histogram_cars

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Bracket endpoints may drift from the reference by this much, relative to
# max(1, |reference|).  Criterion 11 holds m=256 vs m=512 to 1e-8, so
# last-digit changes from reordered quadrature pass; a wrong answer does not.
ENDPOINT_TOL = 1e-7
# The L=30 simulated mean must lie within this many standard errors of M(30).
MEAN_Z_LIMIT = 4.0
ENDPOINTS = ("c_lo", "c_hi", "b_lo", "b_hi", "d_lo", "d_hi")
SWEEP_HEADER = "lambda,c_lo,c_hi,b_lo,b_hi,d_lo,d_hi,method"
SWEEP_SWITCH_RATE = 3.0  # the CLI's default switch from envelope to crude tails
SIMULATE_RUNS = ((30.0, 100_000), (500.0, 20_000))  # (length, trials) at rate 1
REPORTS = ((0.5, "envelope"), (1.0, "envelope"), (5.0, "crude"))  # (rate, tail method)
REPORT_N, REPORT_M = 30, 256
SWEEP = {"lambda_min": 0.1, "lambda_max": 6.0, "steps": 60, "n": 7, "m": 256}
SWEEP_ARGV = ("sweep", "--lambda-min", f"{SWEEP['lambda_min']:g}",
              "--lambda-max", f"{SWEEP['lambda_max']:g}", "--steps", str(SWEEP["steps"]),
              "--n", str(SWEEP["n"]), "--m", str(SWEEP["m"]))

# The verdict lines `validate --quick` prints, in order: (criterion, name
# prefix, expected verdict).  Criterion 4b fails by design (see the README).
VALIDATE_VERDICTS = [
    (1, "closed-form agreement", "PASS"),
    (2, "hard counting bounds", "PASS"),
    (3, "envelope nesting", "PASS"),
    (4, "crude n=0 density endpoints", "PASS"),
    (4, "crude n=7 density width", "FAIL"),
    (5, "large-rate asymptotes at lam=5", "PASS"),
    (5, "large-rate asymptotes at lam=8", "PASS"),
    (6, "uniform window", "PASS"),
    (6, "rate 0.01 envelope midpoints", "PASS"),
    (7, "uniform-limit convergence trend", "PASS"),
    (8, "simulated mean vs solver", "PASS"),
    (8, "simulated variance/x", "PASS"),
    (8, "simulation runtime", "PASS"),
    (9, "normality of the standardized count", "PASS"),
    (10, "intercept differs from density-1", "PASS"),
    (11, "m=256 vs 512 endpoint stability (envelope)", "PASS"),
    (11, "m=256 vs 512 endpoint stability (crude)", "PASS"),
]
_VERDICT_RE = re.compile(r"^(PASS|FAIL)  criterion +(\d+) (.+?): ")


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One parklab invocation, its expected exit code and its output check.

    ``check(stdout)`` raises CheckError on a wrong output and otherwise
    returns facts read from it: ``work`` (units counted by the workload's
    throughput) and any bracket-quality values.
    """

    argv: tuple[str, ...]
    expect_rc: int
    check: Callable[[str], dict]


@dataclass(frozen=True)
class Workload:
    """``pooled``: the commands spend most of their time in the simulator's
    worker pool, one process per CPU, rather than in one process."""

    name: str
    why: str
    work_unit: str
    commands: Callable[[int], list[Command]]
    pooled: bool


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ENDPOINT_TOL * max(1.0, abs(ref))


def _check_endpoints(row: dict, ref: dict, where: str) -> dict:
    vals = {k: float(row[k]) for k in ENDPOINTS}
    if not all(math.isfinite(v) for v in vals.values()):
        raise CheckError(f"{where}: non-finite endpoint in {vals}")
    for const in "cbd":
        if vals[f"{const}_lo"] > vals[f"{const}_hi"]:
            raise CheckError(f"{where}: {const} bracket out of order")
    for k in ENDPOINTS:
        if not _close(vals[k], ref[k]):
            raise CheckError(f"{where}: {k}={vals[k]!r} differs from reference {ref[k]!r}")
    return {f"{c}_width": vals[f"{c}_hi"] - vals[f"{c}_lo"] for c in "cbd"}


def check_report(stdout: str, ref: dict) -> dict:
    """One `constants` JSON report against its reference brackets."""
    try:
        rep = json.loads(stdout)
    except ValueError as exc:
        raise CheckError(f"report is not JSON: {exc}") from None
    where = f"constants lambda={ref['lambda']} {ref['tail_method']}"
    for key in ("lambda", "n", "m", "tail_method"):
        if rep.get(key) != ref[key]:
            raise CheckError(f"{where}: {key}={rep.get(key)!r}, expected {ref[key]!r}")
    if any(rep.get(k) is None for k in ENDPOINTS):
        raise CheckError(f"{where}: missing endpoints")
    facts = _check_endpoints(rep, ref, where)
    delta = rep.get("quadrature_halving_delta")
    if not (isinstance(delta, (int, float)) and math.isfinite(delta) and delta >= 0):
        raise CheckError(f"{where}: bad quadrature_halving_delta {delta!r}")
    return {"work": 1, "quad_delta": float(delta), **facts}


def check_sweep(stdout: str, ref_rows: list[dict]) -> dict:
    """The sweep CSV: one row per rate, tails switched at rate 3, brackets as recorded."""
    lines = stdout.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise CheckError("sweep: wrong CSV header")
    rows = lines[1:]
    if len(rows) != len(ref_rows):
        raise CheckError(f"sweep: {len(rows)} rows, expected {len(ref_rows)}")
    widths = {"c_width": 0.0, "b_width": 0.0, "d_width": 0.0}
    for line, ref in zip(rows, ref_rows):
        fields = line.split(",")
        if len(fields) != 8:
            raise CheckError(f"sweep: malformed row {line!r}")
        try:
            lam = float(fields[0])
            row = dict(zip(ENDPOINTS, (float(f) for f in fields[1:7])))
        except ValueError:
            raise CheckError(f"sweep: non-numeric field in {line!r}") from None
        if not _close(lam, ref["lambda"]):
            raise CheckError(f"sweep: rate {lam!r}, expected {ref['lambda']!r}")
        expected = "envelope" if lam < SWEEP_SWITCH_RATE else "crude"
        if fields[7] != expected:
            raise CheckError(f"sweep: rate {lam!r} used {fields[7]!r}, expected {expected!r}")
        for k, v in _check_endpoints(row, ref, f"sweep lambda={lam!r}").items():
            widths[k] = max(widths[k], v)
    return {"work": len(rows), **widths}


def check_simulate(stdout: str, length: float, trials: int, mean_ref) -> dict:
    """A `simulate` summary: counts in the hard bounds, histogram consistent.

    With ``mean_ref`` the mean must also lie within MEAN_Z_LIMIT standard
    errors of it.  Bit-identity with a particular random stream is not
    checked, so the simulator may re-key its streams.
    """
    try:
        out = json.loads(stdout)
        hist = {int(k): int(v) for k, v in out["histogram"].items()}
        mean, stderr = float(out["mean"]), float(out["stderr_mean"])
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise CheckError(f"simulate: unreadable output ({exc})") from None
    where = f"simulate L={length:g}"
    lo, hi = max(0, math.ceil((length - 1) / 2)), math.floor(length)
    if out.get("trials") != trials or sum(hist.values()) != trials:
        raise CheckError(f"{where}: histogram holds {sum(hist.values())} trials, expected {trials}")
    if min(hist) < lo or max(hist) > hi:
        raise CheckError(f"{where}: counts [{min(hist)}, {max(hist)}] outside [{lo}, {hi}]")
    cars = histogram_cars(hist)
    if not math.isclose(mean, cars / trials, rel_tol=1e-12):
        raise CheckError(f"{where}: mean {mean!r} disagrees with its histogram")
    if mean_ref is not None:
        if not (stderr > 0 and abs(mean - mean_ref) <= MEAN_Z_LIMIT * stderr):
            raise CheckError(f"{where}: mean {mean!r} is more than {MEAN_Z_LIMIT:g} "
                             f"standard errors ({stderr!r}) from M({length:g}) = {mean_ref!r}")
    return {"work": cars}


def check_validate(stdout: str) -> dict:
    """`validate --quick`: 16 PASS lines and the known-red criterion 4b."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if len(lines) != len(VALIDATE_VERDICTS):
        raise CheckError(f"validate: {len(lines)} verdict lines, expected {len(VALIDATE_VERDICTS)}")
    for line, (crit, name, verdict) in zip(lines, VALIDATE_VERDICTS):
        match = _VERDICT_RE.match(line)
        if not match:
            raise CheckError(f"validate: malformed verdict line {line!r}")
        got_verdict, got_crit, got_name = match.group(1), int(match.group(2)), match.group(3)
        if got_crit != crit or not got_name.startswith(name):
            raise CheckError(f"validate: expected criterion {crit} {name!r}, got {line!r}")
        if got_verdict != verdict:
            raise CheckError(f"validate: criterion {crit} {name!r} is {got_verdict}, "
                             f"expected {verdict}")
    return {"work": len(lines)}


def report_argv(lam: float, tail: str) -> tuple[str, ...]:
    return ("constants", "--lambda", f"{lam:g}", "--n", str(REPORT_N), "--m", str(REPORT_M),
            "--tail", tail)


def _report_commands(seed: int, ref: dict) -> list[Command]:
    cmds = []
    for (lam, tail), r in zip(REPORTS, ref["report"]):
        cmds.append(Command(report_argv(lam, tail), 0, lambda out, r=r: check_report(out, r)))
    random.Random(seed).shuffle(cmds)
    return cmds


def _sweep_commands(seed: int, ref: dict) -> list[Command]:
    rows = ref["sweep"]["rows"]
    return [Command(SWEEP_ARGV, 0, lambda out: check_sweep(out, rows))]


def _simulate_commands(seed: int, ref: dict) -> list[Command]:
    rng = random.Random(seed)
    cmds = []
    for length, trials in SIMULATE_RUNS:
        sim_seed = rng.getrandbits(63)
        mean_ref = ref["mean_lambda1"].get(f"{length:g}")
        argv = ("simulate", "--lambda", "1", "--length", f"{length:g}",
                "--trials", str(trials), "--seed", str(sim_seed))
        cmds.append(Command(argv, 0, lambda out, L=length, t=trials, mr=mean_ref:
                            check_simulate(out, L, t, mr)))
    return cmds


def _validate_commands(seed: int, ref: dict) -> list[Command]:
    return [Command(("validate", "--quick"), 1, check_validate)]


def _with_reference(build):
    return lambda seed: build(seed, load_reference())


WORKLOADS = {
    w.name: w for w in (
        Workload("report", "three n=30 constants reports with halving delta; the M2 product "
                 "convolution takes nearly all the time and the simulator is idle",
                 "reports", _with_reference(_report_commands), pooled=False),
        Workload("sweep", "60 short-horizon (n=7) reports; per-rate fixed costs and rate "
                 "batching show here and not in report",
                 "rates", _with_reference(_sweep_commands), pooled=False),
        Workload("simulate", "simulator only, solver idle: per-trial setup at L=30 and "
                 "per-car cost at L=500",
                 "cars", _with_reference(_simulate_commands), pooled=True),
        Workload("validate", "validate --quick, the CI mix: mostly run_mc plus M2, and the "
                 "only workload with z_diagnostics and the validation layer",
                 "verdicts", _with_reference(_validate_commands), pooled=True),
    )
}
