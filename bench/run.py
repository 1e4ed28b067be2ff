"""End-to-end benchmark of the parklab CLI, with a separate traced run per layer.

    python3 bench/run.py --workload report --seed 1 --seconds 30 --trace 0

With ``--trace 0`` every command of the workload runs as a fresh
``python -m parklab.cli`` process, interpreter start-up included, one after
another (a closed loop from this one process), and whole workload
runs repeat until ``--seconds`` is used up.  It reports the medians over
those runs of ``wall_s`` (one run of all the workload's commands), of
``setup_s`` (a fresh interpreter that imports ``parklab.cli`` and builds the
parser) and of ``peak_rss_mb`` (largest resident set of a command process,
pool workers included, read with ``os.wait4``), and ``throughput`` (the work
units of one run per second of ``wall_s``).  Each run's times are scaled to
a reference host speed by a calibration loop timed right after it (see
``measure``).

With ``--trace 1`` the commands call ``parklab.cli.main(argv)`` inside this
process instead, alternating an untraced and a traced repetition; the traced
one has timing wrappers on each layer's public functions (see spans.py) and
yields the per-layer metrics.  Spans are written to ``bench/out/``.

Every command's output is checked (workloads.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics; ``failed / attempted`` is the workload's fail fraction.  The lines
before it name every metric with its unit and sample count, and the machine.
``--workload all`` runs every workload in turn.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import spans as _spans
import workloads as _workloads
from workloads import CheckError, Command

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_CODE = "import parklab.cli as cli; cli.build_parser()"
MIN_RUNS = 3
SETUPS_PER_RUN = 3
# A fixed pure-Python loop, timed in fresh interpreters after every workload
# run to gauge how fast the host runs at that moment (see measure).
CALIBRATION_CODE = "x = 0\nfor i in range(1_500_000):\n    x += i * i\n"
# Median wall seconds of calibrate() on the 2-vCPU Xeon host the benchmark was
# defined on, keyed by Workload.pooled: one loop, and one loop per CPU at once.
CALIBRATION_REFERENCE_S = {False: 0.26, True: 0.31}

END_TO_END = [("wall_s", "s"), ("throughput", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Environment of every command: this checkout's sources, pinned workers.

    Bytecode caching is left on (as for an installed package), and temporary
    files land inside the checkout.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PARKLAB_THREADS"] = str(nproc())
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def git_sha() -> str:
    """HEAD of the checkout; 'unknown' outside a git clone or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_info(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy_version, "git_sha": git_sha(), "seed": seed}


@dataclass
class Proc:
    rc: int
    out: str
    err: str
    wall: float
    rss_mb: float


def run_process(args: list[str], env: dict) -> Proc:
    """Run one fresh interpreter to completion; wall time and peak RSS of it and its children."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    try:
        out = proc.stdout.read()
    except BaseException:  # interrupted: stop the command before leaving
        proc.kill()
        proc.wait()
        raise
    reader.join()
    # wait4 reaps the child itself so its rusage (which folds in the pool
    # workers it reaped) is not lost to Popen.wait.
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(proc.returncode, out.decode(), err[0].decode() if err else "", wall,
                usage.ru_maxrss / 1024.0)


def check_output(cmd: Command, rc, out: str, err: str) -> dict:
    """Facts read from a command's output; raises CheckError if it is wrong."""
    if rc != cmd.expect_rc:
        raise CheckError(f"parklab {' '.join(cmd.argv)} exited {rc}, expected "
                         f"{cmd.expect_rc}: {err.strip()[-500:]}")
    return cmd.check(out)


def calibrate(env: dict, copies: int) -> float:
    """Wall seconds for ``copies`` fresh interpreters running CALIBRATION_CODE at once.

    The loop uses no parklab code, so a change to parklab cannot move it.
    """
    start = time.perf_counter()
    procs: list[subprocess.Popen] = []
    try:
        for _ in range(copies):
            procs.append(subprocess.Popen([sys.executable, "-S", "-c", CALIBRATION_CODE],
                                          env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                          stderr=subprocess.DEVNULL))
        codes = [proc.wait() for proc in procs]
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if any(codes):
        raise RuntimeError(f"the calibration loop exited with {codes}")
    return time.perf_counter() - start


class Tally:
    """Commands attempted and failed, with the first few failures kept for the log."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, cmd: Command, rc, out: str, err: str) -> dict:
        self.attempted += 1
        try:
            return check_output(cmd, rc, out, err)
        except CheckError as exc:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(str(exc))
            return {}


def measure(workload: _workloads.Workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Untraced runs: end-to-end metrics over whole workload runs."""
    env = child_env()
    cmds = workload.commands(seed)
    warm = run_process(["-c", SETUP_CODE], env)  # compiles bytecode; not timed
    if warm.rc != 0:
        raise RuntimeError(f"parklab does not import from {ROOT / 'src'}: {warm.err.strip()}")
    tally = Tally()
    run_walls, works, rss, setups, calibrations = [], [], [], [], []
    t0 = time.perf_counter()
    while True:
        setups.append([run_process(["-c", SETUP_CODE], env).wall for _ in range(SETUPS_PER_RUN)])
        start = time.perf_counter()
        work, peak = 0, 0.0
        for cmd in cmds:
            p = run_process(["-m", "parklab.cli", *cmd.argv], env)
            work += tally.check(cmd, p.rc, p.out, p.err).get("work", 0)
            peak = max(peak, p.rss_mb)
        run_walls.append(time.perf_counter() - start)
        calibrations.append(calibrate(env, nproc() if workload.pooled else 1))
        works.append(work)
        rss.append(peak)
        elapsed = time.perf_counter() - t0
        if len(run_walls) >= MIN_RUNS and elapsed + statistics.median(run_walls) > seconds:
            break
    # The host's speed drifts by a third over minutes, and a workload run
    # slows with the calibration timed right after it when that keeps as many
    # CPUs busy (README, "Run-to-run spread").  So each run's times are scaled
    # by the reference calibration time over its own: seconds at the
    # reference speed.  A workload run does the same work every time (its
    # inputs are fixed by the seed), so throughput is that work over the
    # median run.
    reference = CALIBRATION_REFERENCE_S[workload.pooled]
    scales = [reference / c for c in calibrations]
    wall = statistics.median(w * k for w, k in zip(run_walls, scales))
    setup = statistics.median(t * k for ts, k in zip(setups, scales) for t in ts)
    metrics = {"wall_s": wall, "throughput": statistics.median(works) / wall,
               "setup_s": setup, "peak_rss_mb": statistics.median(rss)}
    samples = {"unscaled run_wall_s": run_walls, "unscaled setup_s": sum(setups, []),
               "calibration_s": calibrations, "peak_rss_mb": rss}
    return metrics, tally, samples


def import_parklab():
    """Import parklab from this checkout's src/, never from an installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import parklab
    import parklab.cli  # noqa: F401  (not imported by the package itself)
    if Path(parklab.__file__).resolve().parent != (ROOT / "src" / "parklab").resolve():
        raise RuntimeError(f"imported parklab from {parklab.__file__}, not from {ROOT / 'src'}")
    return parklab


def run_inprocess(pkg, argv: tuple[str, ...]) -> tuple[object, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pkg.cli.main(list(argv))  # looked up per call: the traced run patches it
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing command is a failed command, not a crashed benchmark
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def measure_traced(workload: _workloads.Workload, seed: int, seconds: float) -> tuple[dict, Tally, dict]:
    """Alternating untraced and traced in-process repetitions: per-layer metrics."""
    pkg = import_parklab()
    os.environ["PARKLAB_THREADS"] = str(nproc())
    cmds = workload.commands(seed)
    tally = Tally()
    tracer = _spans.Tracer()
    plain_walls, traced_walls, reps = [], [], []
    t0 = time.perf_counter()
    while True:
        start = time.perf_counter()
        for cmd in cmds:
            tally.check(cmd, *run_inprocess(pkg, cmd.argv))
        plain_walls.append(time.perf_counter() - start)

        tracer.run_id = len(reps)
        quality: dict[str, float] = {}
        out_bytes = 0
        with tracer.instrument(pkg):
            start = time.perf_counter()
            results = [run_inprocess(pkg, cmd.argv) for cmd in cmds]
            traced_walls.append(time.perf_counter() - start)
        for cmd, (rc, out, err) in zip(cmds, results):
            out_bytes += len(out.encode())
            facts = tally.check(cmd, rc, out, err)
            for key in ("c_width", "b_width", "d_width", "quad_delta"):
                if key in facts:
                    quality[key] = max(quality.get(key, 0.0), facts[key])
        run_spans = [s for s in tracer.spans if s.run == tracer.run_id]
        reps.append(_spans.layer_metrics(run_spans, out_bytes, quality))
        elapsed = time.perf_counter() - t0
        if elapsed + plain_walls[-1] + traced_walls[-1] > seconds:
            break
    metrics = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(plain_walls)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload.name}-{seed}.jsonl")
    return metrics, tally, {"trace.wall_s": traced_walls, "untraced_wall_s": plain_walls}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = _workloads.WORKLOADS[name]
    measure_fn = measure_traced if trace else measure
    metrics, tally, samples = measure_fn(workload, seed, seconds)
    units = dict(_spans.PER_LAYER if trace else END_TO_END)
    print(f"workload {name} ({workload.why}); seed {seed}; trace {int(trace)}")
    for key, values in samples.items():
        print(f"  samples {key}: n={len(values)} median={statistics.median(values):.6g} "
              f"min={min(values):.6g} max={max(values):.6g}")
    for key, unit in units.items():
        extra = f" ({workload.work_unit}/s)" if key == "throughput" else ""
        print(f"  {key} = {metrics[key]:.6g} {unit}{extra}")
    if trace and metrics["trace.wall_s"] > 0:
        shares = {k[:-len(".self_s")]: v / metrics["trace.wall_s"]
                  for k, v in metrics.items() if k.endswith("self_s") and v > 0}
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:4]
        print("  self-time share of traced wall: "
              + ", ".join(f"{k} {v:.1%}" for k, v in top))
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  fail_frac = {fail_frac:.6g} ({tally.failed} of {tally.attempted} commands)")
    for error in tally.errors:
        print(f"  FAILED: {error}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}


class Terminated(BaseException):
    """SIGTERM arrived.  Not an Exception, so no handler for a command's own
    errors (or argparse's SystemExit) swallows it on the way out."""


def _terminate(signum, frame):
    raise Terminated


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*_workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "parklab" / "cli.py").is_file():
        print(f"error: no parklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not _workloads.REFERENCE_PATH.is_file():
        print(f"error: missing {_workloads.REFERENCE_PATH}", file=sys.stderr)
        return 2
    names = list(_workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    machine = machine_info(args.seed)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Terminated:
        print("error: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    print("machine " + json.dumps(machine))
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
