"""Command-line surface: solution tables, constants reports, rate sweeps,
simulation runs, and the validation suite.

The parser only parses; the library checks every value, and a DomainError
exits 2 with ``error: <message>``, the message naming the library's parameter
(``--lambda`` is ``rate lam``, ``--n`` is ``horizon_n``, ``--m`` is
``resolution_m``).  Each input is checked before anything is solved or
simulated.

Exit codes: 0 success, 1 validation failure, 2 usage error.  CSV uses comma
separators and LF line endings; numeric fields carry 17 significant digits so
re-runs are byte-stable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import constants as _constants
from . import montecarlo as _mc
from . import solver as _solver
from . import validation as _validation
from .core import GRID_KINDS, TAIL_METHODS, DomainError, Params, _check_int, _check_rate

__all__ = ["main", "build_parser"]

_FMT = "%.17g"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parklab",
        description="Saturation statistics of the rate-biased parking process: "
                    "grid solvers, certified constant brackets, and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="print a solved grid as CSV")
    p_table.add_argument("--lambda", dest="lam", type=float,
                         help="placement rate (ignored for uniformMprime)")
    p_table.add_argument("--kind", required=True, choices=GRID_KINDS)
    p_table.add_argument("--n", type=int, default=7)
    p_table.add_argument("--m", type=int, default=256)

    p_const = sub.add_parser("constants", help="bracket the asymptotic constants as JSON")
    p_const.add_argument("--lambda", dest="lam", type=float, required=True)
    p_const.add_argument("--n", type=int, default=7)
    p_const.add_argument("--m", type=int, default=256)
    p_const.add_argument("--tail", choices=TAIL_METHODS, default="envelope")

    p_sweep = sub.add_parser("sweep", help="constants over a rate range as CSV")
    p_sweep.add_argument("--lambda-min", dest="lam_min", type=float, required=True)
    p_sweep.add_argument("--lambda-max", dest="lam_max", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--n", type=int, default=7)
    p_sweep.add_argument("--m", type=int, default=256)
    p_sweep.add_argument("--tail", choices=TAIL_METHODS, default=None,
                         help="override the default switch to crude tails at rate 3")

    p_sim = sub.add_parser("simulate", help="run the parking simulation, JSON summary")
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sim.add_argument("--length", type=float, required=True)
    p_sim.add_argument("--trials", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--zref", action="store_true",
                       help="also standardize against solver mean/variance")

    p_val = sub.add_parser("validate", help="run the acceptance criteria")
    p_val.add_argument("--quick", action="store_true",
                       help="shrink simulation trial counts (roughly tenfold)")
    p_val.add_argument("--criteria", default=None,
                       help="comma-separated criterion numbers, e.g. 2,3,8")
    return parser


def _cmd_table(args) -> int:
    if args.kind == "uniformMprime":
        if args.lam is not None:  # ignored, but still a rate
            _check_rate(args.lam)
        grid = _solver.solve_uniform_mean_derivative(args.n, args.m)
    else:
        if args.lam is None:
            print("error: --lambda is required for rated grids", file=sys.stderr)
            return 2
        params = Params(args.lam, args.n, args.m)
        if args.kind == "M":
            grid = _solver.solve_mean(params)
        elif args.kind == "Mprime":
            grid = _solver.solve_mean_derivative(params)
        else:
            grid = _solver.solve_second_moment(params, _solver.solve_mean(params))
    out = sys.stdout
    out.write("x,value,segment\n")
    for k in range(grid.horizon_n):
        xs = grid.x_nodes(k)
        seg = grid.values[k]
        for x, v in zip(xs, seg):
            out.write(f"{_FMT % x},{_FMT % v},{k}\n")
    return 0


def _cmd_constants(args) -> int:
    report = _constants.constants_report(args.lam, args.n, args.m, args.tail,
                                         with_halving_delta=True)
    sys.stdout.write(json.dumps(report.to_dict()))
    sys.stdout.write("\n")
    return 0


def _cmd_sweep(args) -> int:
    _check_rate(args.lam_min, solvable=True)
    _check_rate(args.lam_max)  # solved only if steps > 1, and then above lam_min
    _check_int("steps", args.steps, lambda s: s >= 1, "an integer >= 1")
    if args.lam_min >= args.lam_max and args.steps > 1:
        print("error: --lambda-min must be below --lambda-max", file=sys.stderr)
        return 2
    lams = np.linspace(args.lam_min, args.lam_max, args.steps)
    # every rate is solved before anything is written, so a failure prints no partial table
    rows = ["lambda,c_lo,c_hi,b_lo,b_hi,d_lo,d_hi,method\n"]
    for lam in lams:
        method = args.tail or ("envelope" if lam < 3.0 else "crude")
        rep = _constants.constants_report(float(lam), args.n, args.m, method)
        rows.append(",".join(_FMT % v for v in [lam, *rep.endpoints]) + f",{method}\n")
    sys.stdout.write("".join(rows))
    return 0


def _cmd_simulate(args) -> int:
    config = _mc.SimConfig(args.lam, args.length, args.trials, args.seed)
    if args.zref:  # solved first, so a rate or length the references reject simulates nothing
        n_ref = max(3, math.ceil(args.length))
        params = Params(args.lam, n_ref, 256)
        m_grid = _solver.solve_mean(params)
        mean_ref = m_grid.value(args.length)
        m2_ref = _solver.solve_second_moment(params, m_grid).value(args.length)
        var_ref = m2_ref - mean_ref**2
        if var_ref <= 0.0:
            print("error: solver variance reference is zero; the count is "
                  "deterministic at this length", file=sys.stderr)
            return 2
    payload = _mc.run_mc(config).to_dict()
    if args.zref:
        z3, z4 = _mc.z_diagnostics(config, mean_ref, var_ref)
        payload["zref_mean"] = mean_ref
        payload["zref_variance"] = var_ref
        payload["z_skewness"] = z3
        payload["z_excess_kurtosis"] = z4
    sys.stdout.write(json.dumps(payload))
    sys.stdout.write("\n")
    return 0


def _cmd_validate(args) -> int:
    criteria = None
    if args.criteria is not None:
        try:
            criteria = [int(tok) for tok in args.criteria.split(",") if tok.strip()]
        except ValueError:
            print(f"error: --criteria takes comma-separated integers, got {args.criteria!r}",
                  file=sys.stderr)
            return 2
    results = _validation.run_checks(quick=args.quick, criteria=criteria)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table": _cmd_table,
        "constants": _cmd_constants,
        "sweep": _cmd_sweep,
        "simulate": _cmd_simulate,
        "validate": _cmd_validate,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
