"""Write reference.json: the bracket endpoints and M(30) the output checks compare against.

Run from the repository root:

    python3 bench/record_reference.py

The commands are the ``report`` and ``sweep`` workloads' own (workloads.py).
Re-record only in a change that alters the brackets on purpose, and say so.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import (ENDPOINTS, REFERENCE_PATH, REPORTS, SIMULATE_RUNS, SWEEP, SWEEP_ARGV,
                       report_argv)


def _cli(pkg, argv: tuple[str, ...]) -> str:
    rc, out, err = run.run_inprocess(pkg, argv)
    if rc != 0:
        raise SystemExit(f"parklab {' '.join(argv)} exited {rc}: {err}")
    return out


def main() -> int:
    pkg = run.import_parklab()
    from parklab.core import Params
    from parklab.solver import solve_mean

    reports = []
    for lam, tail in REPORTS:
        out = json.loads(_cli(pkg, report_argv(lam, tail)))
        reports.append({k: out[k] for k in ("lambda", "n", "m", "tail_method", *ENDPOINTS)})

    rows = []
    for line in _cli(pkg, SWEEP_ARGV).splitlines()[1:]:
        fields = line.split(",")
        rows.append({"lambda": float(fields[0]),
                     **{k: float(v) for k, v in zip(ENDPOINTS, fields[1:7])}})

    length = SIMULATE_RUNS[0][0]
    mean = solve_mean(Params(1.0, int(length), 256)).value(length)
    ref = {"report": reports, "sweep": {**SWEEP, "rows": rows},
           "mean_lambda1": {f"{length:g}": mean}}
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
