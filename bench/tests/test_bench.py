"""Tests of the benchmark itself: computed work counts, span self time, the
output checks and the agreement of BENCHMARK.json with the code.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckError, Command  # noqa: E402

import parklab  # noqa: E402
import parklab.cli  # noqa: E402
from parklab import montecarlo, solver  # noqa: E402
from parklab.core import Params  # noqa: E402

REF = workloads.load_reference()


def _traced(argv: list[str]) -> tuple[dict, str, spans.Tracer]:
    tracer = spans.Tracer()
    out = io.StringIO()
    with tracer.instrument(parklab), contextlib.redirect_stdout(out):
        parklab.cli.main(argv)
    return spans.layer_metrics(tracer.spans, len(out.getvalue()), {}), out.getvalue(), tracer


# --- computed work counts --------------------------------------------------

@pytest.mark.parametrize("n,m", [(7, 8), (10, 16), (15, 256)])
def test_product_panels_match_counted_calls(monkeypatch, n, m):
    calls = 0
    original = solver._product_panel

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(solver, "_product_panel", counting)
    params = Params(1.0, n, m)
    solver.solve_second_moment(params, solver.solve_mean(params))
    assert calls == spans.product_panels(n, m)


@pytest.mark.parametrize("n,m", [(3, 2), (7, 8), (10, 16)])
def test_stepper_nodes_match_solved_grids(n, m):
    params = Params(0.7, n, m)
    for grid in (solver.solve_mean(params), solver.solve_mean_derivative(params),
                 solver.solve_uniform_mean_derivative(n, m)):
        assert grid.values.size == spans.stepper_nodes(n, m)
        assert grid.values.nbytes == n * (m + 1) * 8


def test_traced_counts_match_formulae_and_counted_calls(monkeypatch):
    calls = 0
    original = solver._product_panel

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(solver, "_product_panel", counting)
    metrics, out, _ = _traced(["constants", "--lambda", "1", "--n", "7", "--m", "8"])
    # with the halving delta: the outer report plus a coarse (m=4) and a fine one
    assert metrics["constants.constants_report.calls"] == 3
    assert metrics["solver.solve_second_moment.calls"] == 2
    assert metrics["solver.product_panels"] == spans.product_panels(7, 4) + spans.product_panels(7, 8)
    assert metrics["solver.product_panels"] == calls
    nodes = 2 * (spans.stepper_nodes(7, 4) + spans.stepper_nodes(7, 8))  # M and M' per solve
    assert metrics["solver.stepper_nodes"] == nodes
    assert metrics["core.grid_bytes"] == 3 * 7 * (5 + 9) * 8
    assert metrics["constants.halving_s"] > 0
    assert metrics["cli.out_bytes"] == len(out)


def test_instrument_restores_originals():
    before = parklab.solver.solve_mean, parklab.cli.main, dict(parklab.validation.CRITERIA)
    with spans.Tracer().instrument(parklab):
        assert parklab.solver.solve_mean is not before[0]
    assert (parklab.solver.solve_mean, parklab.cli.main, dict(parklab.validation.CRITERIA)) == before


def test_cars_equal_sum_of_count_times_frequency():
    assert spans.histogram_cars({"3": 2, "4": 5}) == 26
    cfg = montecarlo.SimConfig(1.0, 12.0, 300, 5)
    stats = montecarlo.run_mc(cfg, threads=1)
    cars = spans.histogram_cars(stats.histogram)
    assert cars == round(stats.mean * cfg.trials)
    assert spans.histogram_cars(stats.to_dict()["histogram"]) == cars


def test_traced_simulate_counts_trials_cars_and_rerun():
    metrics, out, _ = _traced(["simulate", "--lambda", "1", "--length", "20", "--trials", "300",
                               "--seed", "3", "--zref"])
    payload = json.loads(out)
    assert metrics["montecarlo.run_mc.calls"] == 2  # z_diagnostics simulates a second time
    assert metrics["montecarlo.trials"] == 600
    assert metrics["montecarlo.cars"] == 2 * spans.histogram_cars(payload["histogram"])
    assert metrics["montecarlo.workers"] == 1
    assert 0 < metrics["montecarlo.z_rerun_s"]
    assert metrics["montecarlo.us_per_trial"] > 0 and metrics["montecarlo.ns_per_car"] > 0


def test_traced_validate_times_each_selected_criterion():
    metrics, out, _ = _traced(["validate", "--criteria", "4,10"])
    assert metrics["validation.criterion_4_s"] > 0 and metrics["validation.criterion_10_s"] > 0
    assert metrics["validation.criterion_8_s"] == 0
    assert metrics["validation.run_checks.self_s"] >= 0
    assert set(metrics) | {"trace.wall_s", "trace.overhead_s"} == {n for n, _ in spans.PER_LAYER}


# --- span self time ----------------------------------------------------------

def test_self_time_is_duration_minus_covered_child_intervals():
    parent = spans.Span(0, None, 0, "p", 0.0, 10.0)
    kids = [spans.Span(1, 0, 0, "a", 1.0, 3.0),
            spans.Span(2, 0, 0, "b", 2.0, 4.0),    # overlaps a: [1, 4] is covered once
            spans.Span(3, 0, 0, "c", 9.0, 12.0)]   # runs past the parent: only [9, 10] counts
    grandchild = spans.Span(4, 1, 0, "g", 1.5, 2.5)
    selfs = spans.self_times([parent, *kids, grandchild])
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_traced_self_times_add_up_to_the_root_span():
    _, _, tracer = _traced(["constants", "--lambda", "2", "--n", "5", "--m", "8", "--tail", "crude"])
    selfs = spans.self_times(tracer.spans)
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(selfs.values()) == pytest.approx(root.duration, rel=1e-9, abs=1e-12)


# --- output checks reject perturbed outputs ----------------------------------

def _report_stdout(ref: dict, **changes) -> str:
    rep = {**ref, "envelope_inf": None, "envelope_sup": None,
           "quadrature_halving_delta": 1e-10, "uniform_fallback": False}
    rep.update(changes)
    return json.dumps(rep)


@pytest.mark.parametrize("ref", REF["report"], ids=lambda r: f"lam{r['lambda']:g}")
def test_report_check(ref):
    facts = workloads.check_report(_report_stdout(ref), ref)
    assert facts["work"] == 1 and facts["quad_delta"] == 1e-10
    workloads.check_report(_report_stdout(ref, c_lo=ref["c_lo"] - 1e-9, c_hi=ref["c_hi"] + 1e-9), ref)
    for bad in ({"c_lo": ref["c_lo"] + 1e-3}, {"d_hi": ref["d_hi"] - 1e-3},
                {"b_lo": ref["b_hi"] + 1e-9, "b_hi": ref["b_hi"]},
                {"c_hi": float("nan")}, {"n": 7}, {"quadrature_halving_delta": -1.0}):
        with pytest.raises(CheckError):
            workloads.check_report(_report_stdout(ref, **bad), ref)
    with pytest.raises(CheckError):
        workloads.check_report("not json", ref)


def _sweep_stdout(rows: list[dict], fmt=lambda r: "envelope" if r["lambda"] < 3 else "crude") -> str:
    lines = [workloads.SWEEP_HEADER]
    for r in rows:
        fields = [r["lambda"], *(r[k] for k in workloads.ENDPOINTS)]
        lines.append(",".join("%.17g" % v for v in fields) + "," + fmt(r))
    return "\n".join(lines) + "\n"


def test_sweep_check():
    rows = REF["sweep"]["rows"]
    assert len(rows) == 60
    assert workloads.check_sweep(_sweep_stdout(rows), rows)["work"] == 60
    shifted = [dict(r) for r in rows]
    shifted[17]["b_hi"] += 1e-3
    for bad in (_sweep_stdout(shifted), _sweep_stdout(rows[:-1]),
                _sweep_stdout(rows, fmt=lambda r: "envelope" if r["lambda"] < 3.2 else "crude"),
                _sweep_stdout(rows).replace("lambda,", "rate,", 1)):
        with pytest.raises(CheckError):
            workloads.check_sweep(bad, rows)


def _simulate_stdout(hist: dict[int, int], mean_shift: float = 0.0) -> str:
    n = sum(hist.values())
    mean = sum(k * v for k, v in hist.items()) / n
    var = sum(v * (k - mean) ** 2 for k, v in hist.items()) / (n - 1)
    return json.dumps({"trials": n, "mean": mean + mean_shift, "variance": var,
                       "stderr_mean": math.sqrt(var / n), "skewness": 0.0,
                       "excess_kurtosis": 0.0,
                       "histogram": {str(k): v for k, v in sorted(hist.items())}})


def test_simulate_check():
    mean_ref = REF["mean_lambda1"]["30"]
    hist = {21: 200, 22: 370, 23: 320, 24: 110}  # mean 22.34, 2 standard errors from M(30)
    out = _simulate_stdout(hist)
    assert workloads.check_simulate(out, 30.0, 1000, mean_ref)["work"] == \
        spans.histogram_cars(hist)
    for bad_out, trials, ref in (
            (_simulate_stdout({**hist, 31: 1}), 1001, mean_ref),   # above floor(30)
            (_simulate_stdout({**hist, 14: 1}), 1001, mean_ref),   # below ceil(29/2)
            (out, 999, mean_ref),                                  # trial count
            (_simulate_stdout(hist, mean_shift=1e-3), 1000, None),  # mean vs its histogram
            (_simulate_stdout({22: 300, 23: 700}), 1000, mean_ref)):  # 5+ stderr from M(30)
        with pytest.raises(CheckError):
            workloads.check_simulate(bad_out, 30.0, trials, ref)


def _validate_stdout(verdicts=None) -> str:
    rows = verdicts or workloads.VALIDATE_VERDICTS
    return "".join(f"{v}  criterion {c:>2} {name}: measured\n" for c, name, v in rows)


def test_validate_check():
    assert workloads.check_validate(_validate_stdout())["work"] == 17
    expected = workloads.VALIDATE_VERDICTS
    flipped_8 = [(c, n, "FAIL" if c == 8 and i == 10 else v) for i, (c, n, v) in enumerate(expected)]
    green_4b = [(c, n, "PASS") for c, n, v in expected]
    for bad in (_validate_stdout(flipped_8), _validate_stdout(green_4b),
                _validate_stdout(expected[:-1]), _validate_stdout(expected[1:] + expected[:1])):
        with pytest.raises(CheckError):
            workloads.check_validate(bad)


def test_exit_code_is_checked():
    cmd = Command(("validate", "--quick"), 1, workloads.check_validate)
    run.check_output(cmd, 1, _validate_stdout(), "")
    with pytest.raises(CheckError):
        run.check_output(cmd, 0, _validate_stdout(), "")


# --- the benchmark's contract -----------------------------------------------

def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"] and spec["paths"] == ["bench"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == spans.PER_LAYER
    # BENCHMARK.json gates a subset of the workloads (see the README).
    for w in spec["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_calibration_runs_one_loop_per_busy_cpu(monkeypatch):
    started = []
    popen = subprocess.Popen

    def recording(args, **kwargs):
        started.append(args)
        return popen(args, **kwargs)

    monkeypatch.setattr(run.subprocess, "Popen", recording)
    assert run.calibrate(run.child_env(), 2) > 0
    assert [a[1:3] for a in started] == [["-S", "-c"]] * 2
    for w in workloads.WORKLOADS.values():
        assert run.CALIBRATION_REFERENCE_S[w.pooled] > 0


def test_seed_fixes_the_inputs():
    for w in workloads.WORKLOADS.values():
        assert [c.argv for c in w.commands(7)] == [c.argv for c in w.commands(7)]
    sims = [c.argv for c in workloads.WORKLOADS["simulate"].commands(1)]
    assert sims != [c.argv for c in workloads.WORKLOADS["simulate"].commands(2)]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
