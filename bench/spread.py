"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --seeds 1-10 [--out FILE]

Runs ``bench/run.py`` once per seed on every workload in BENCHMARK.json, with
the run length from there, then prints, for each end-to-end metric, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread (quartile
distance over median) next to the metric's bound.  A spread under a third of
the bound is what the benchmark aims for; ``setup_s`` has no spread limit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    summary = {}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{name} seed {seed}: incorrect output\n{proc.stdout}", file=sys.stderr)
            runs.append(result)
        summary[name] = {"seeds": seeds, "failed": sum(r["failed"] for r in runs),
                         "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
        for metric in spec["end_to_end"]:
            key = metric["name"]
            s = summarize([r["metrics"][key]["value"] for r in runs])
            summary[name]["metrics"][key] = s
            limit = metric["bound"]
            flag = "" if key == "setup_s" or s["spread"] < limit / 3 else \
                ("  above bound/3" if s["spread"] <= limit else "  ABOVE BOUND")
            print(f"{name:9s} {key:12s} median {s['median']:10.5g} {metric['unit']:4s} "
                  f"q1 {s['q1']:10.5g} q3 {s['q3']:10.5g} spread {s['spread']:7.2%} "
                  f"(bound {limit:.0%}){flag}", flush=True)
    if args.out is not None:
        record = {"machine": run.machine_info(seed=None), "run_seconds": spec["run_seconds"],
                  "workloads": summary}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
