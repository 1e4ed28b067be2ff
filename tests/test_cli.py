"""Command-line surface: formats, exit codes, determinism."""

import csv
import functools
import io
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import parklab
import parklab.constants
import parklab.montecarlo
import parklab.solver
import parklab.validation
from parklab import DomainError, SegmentedGrid, mean_closed
from parklab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# Inputs outside the library's domain, and text that is not a number: each
# exits 2 with one error line and prints nothing, before anything is solved
# or simulated.  The parser reports what it cannot parse after its usage line.
_RATE = "error: rate lam must be finite and > 0, got "
_EVEN_M = "error: resolution_m must be an even integer >= 2, got "
_CEILING = ("error: rate lam=710 is above {}, the largest the solvers can step to n={}: "
            "the kernel factor lam*e^lam would overflow")
_N0_CEILING = ("error: rate lam={} is above 701.84270921429197, the largest the step-bound "
               "identities can evaluate at n=0: 2*(1+lam)*e^lam would overflow")
_REJECTED = {
    "table-rate-zero": ("table --lambda 0 --kind M", _RATE + "0.0"),
    "table-rate-nan": ("table --lambda nan --kind M", _RATE + "nan"),
    "table-rate-text": ("table --lambda abc --kind M",
                        "parklab table: error: argument --lambda: invalid float value: 'abc'"),
    "table-uniform-rate": ("table --kind uniformMprime --lambda -1", _RATE + "-1.0"),
    "table-n-zero": ("table --lambda 1 --kind M --n 0",
                     "error: horizon_n must be an integer >= 3, got 0"),
    "table-uniform-n": ("table --kind uniformMprime --n 2",
                        "error: horizon_n must be an integer >= 3, got 2"),
    "table-m-odd": ("table --lambda 1 --kind M --n 3 --m 3", _EVEN_M + "3"),
    "table-uniform-m": ("table --kind uniformMprime --m 0", _EVEN_M + "0"),
    "table-above-ceiling": ("table --lambda 710 --kind M", _CEILING.format("696.0873209436611", 7)),
    "table-no-rate": ("table --kind M", "error: --lambda is required for rated grids"),
    "table-m-text": ("table --lambda 1 --kind M --m x",
                     "parklab table: error: argument --m: invalid int value: 'x'"),
    "constants-rate-inf": ("constants --lambda inf", _RATE + "inf"),
    "constants-rate-negative": ("constants --lambda -2", _RATE + "-2.0"),
    "constants-n-two": ("constants --lambda 1 --n 2",
                        "error: horizon_n must be 0 or an integer >= 3, got 2"),
    "constants-m-odd": ("constants --lambda 1 --m 5", _EVEN_M + "5"),
    "constants-above-ceiling": ("constants --lambda 710 --n 12 --m 256",
                                _CEILING.format("695.01087556205334", 12)),
    # these once ended in [inf, inf], [nan, 5e-324] or an OverflowError traceback
    **{f"constants-n0-above-ceiling-{lam}": (f"constants --lambda {lam} --n 0 --tail crude",
                                             _N0_CEILING.format(shown))
       for lam, shown in [("709", "709"), ("709.8", "709.79999999999995"), ("800", "800"),
                          ("1e5", "100000"), ("1e308", "1e+308")]},
    # at m=2 the halved grid would be the requested one, and the delta a vacuous 0.0
    "constants-halving-m-two": ("constants --lambda 1 --m 2",
                                "error: the halving delta halves resolution_m, so it needs "
                                "resolution_m >= 4 when horizon_n > 0, got 2"),
    "constants-n-text": ("constants --lambda 1 --n 2.5",
                         "parklab constants: error: argument --n: invalid int value: '2.5'"),
    "sweep-min-zero": ("sweep --lambda-min 0 --lambda-max 1 --steps 2", _RATE + "0.0"),
    "sweep-max-negative": ("sweep --lambda-min 1 --lambda-max -1 --steps 2", _RATE + "-1.0"),
    "sweep-max-inf": ("sweep --lambda-min 1 --lambda-max inf --steps 1", _RATE + "inf"),
    "sweep-steps-zero": ("sweep --lambda-min 1 --lambda-max 2 --steps 0",
                         "error: steps must be an integer >= 1, got 0"),
    "sweep-n-one": ("sweep --lambda-min 1 --lambda-max 2 --steps 2 --n 1",
                    "error: horizon_n must be 0 or an integer >= 3, got 1"),
    "sweep-above-ceiling": ("sweep --lambda-min 1 --lambda-max 710 --steps 3",
                            _CEILING.format("696.0873209436611", 7)),
    "sweep-empty-range": ("sweep --lambda-min 2 --lambda-max 1 --steps 2",
                          "error: --lambda-min must be below --lambda-max"),
    "sweep-m-odd": ("sweep --lambda-min 1 --lambda-max 2 --steps 2 --m 7", _EVEN_M + "7"),
    "simulate-rate-zero": ("simulate --lambda 0 --length 3 --trials 1", _RATE + "0.0"),
    "simulate-trials-zero": ("simulate --lambda 1 --length 3 --trials 0",
                             "error: trials must be an integer >= 1, got 0"),
    "simulate-seed-negative": ("simulate --lambda 1 --length 3 --trials 1 --seed -1",
                               "error: seed must be a 64-bit unsigned integer, got -1"),
    "simulate-seed-65-bits": ("simulate --lambda 1 --length 3 --trials 1 --seed 18446744073709551616",
                              "error: seed must be a 64-bit unsigned integer, "
                              "got 18446744073709551616"),
    "simulate-trials-text": ("simulate --lambda 1 --length 3 --trials 2.5",
                             "parklab simulate: error: argument --trials: invalid int value: '2.5'"),
}


@pytest.mark.parametrize("argv, line", _REJECTED.values(), ids=_REJECTED.keys())
def test_rejected_before_anything_is_solved(monkeypatch, capsys, argv, line):
    def refuse(*args, **kwargs):
        raise AssertionError("solved or simulated before rejecting the input")

    # _march steps every grid, solve_uniform_mean_derivative's after its own input check
    for module, name in [(parklab.solver, "solve_mean"), (parklab.solver, "_march"),
                         (parklab.montecarlo, "run_mc")]:
        monkeypatch.setattr(module, name, refuse)
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == line + "\n" or (err.startswith("usage: ") and err.endswith("\n" + line + "\n"))


@pytest.mark.parametrize("lam", ["1e-300", repr(2.0**-511), "700", "709", "709.8", "1e5", "1e308"])
@pytest.mark.parametrize("command", ["constants --n 0 --tail crude", "constants --n 3 --m 8",
                                     "table --kind Mprime --n 3 --m 8"])
def test_no_command_ends_in_a_traceback(capsys, command, lam):
    # extreme rates either give a result or one error line; RuntimeWarnings are errors here
    code, out, err = run_cli(capsys, *command.split(), "--lambda", lam)
    assert (code, err) == (0, "") or (code == 2 and out == "" and re.fullmatch(r"error: [^\n]*\n", err))


@pytest.mark.parametrize("argv, count", [
    ("table --lambda 690 --kind M --n 7 --m 2", "mean count"),
])
def test_a_count_grid_too_coarse_for_its_rate_is_one_error_line(capsys, argv, count):
    # each grid is checked row by row as it is stepped: no printed M2 above
    # its bounds, no overflow warning (an error here) before the error line
    code, out, err = run_cli(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert re.fullmatch(f"error: {count} at lam=690 with m=\\d+ is [^\n]*, outside the counting "
                        f"bounds [^\n]*, a larger resolution_m is needed\n", err)


def test_n3_second_moment_is_seeds_inside_the_squared_bounds(capsys):
    # on [0, 3] every M2 row is a seed, so no n=3 grid is too coarse for its rate
    code, out, err = run_cli(capsys, "table", "--lambda", "690", "--kind", "M2", "--n", "3",
                             "--m", "256")
    assert (code, err) == (0, "")
    for row in parse_csv(out):
        x, value = float(row["x"]), float(row["value"])
        assert max(0, math.ceil((x - 1.0) / 2.0)) ** 2 <= value <= math.floor(x) ** 2
    code, out, err = run_cli(capsys, "constants", "--lambda", "12", "--n", "3", "--m", "8")
    assert (code, err) == (0, "")
    assert json.loads(out)["quadrature_halving_delta"] is not None


class TestTable:
    def test_closed_form_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--lambda", "1", "--kind", "M",
                               "--n", "3", "--m", "4")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 3 * 5
        for row in rows:
            x, v, seg = float(row["x"]), float(row["value"]), int(row["segment"])
            if x == int(x) and seg == int(x) and x > 0:
                ref = mean_closed(x + 1e-12, 1.0)  # right-limit row at a shared abscissa
            else:
                ref = mean_closed(x, 1.0)
            assert v == pytest.approx(ref, abs=1e-9)

    def test_shared_abscissae_emitted_twice(self, capsys):
        _, out, _ = run_cli(capsys, "table", "--lambda", "1", "--kind", "Mprime",
                            "--n", "3", "--m", "4")
        rows = parse_csv(out)
        at_two = [(r["value"], r["segment"]) for r in rows if float(r["x"]) == 2.0]
        assert len(at_two) == 2
        assert at_two[0][1] != at_two[1][1]
        assert at_two[0][0] != at_two[1][0]  # genuine jump at x=2

    def test_second_moment_solves_dependencies_itself(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--lambda", "1", "--kind", "M2",
                               "--n", "3", "--m", "4")
        assert code == 0
        assert len(parse_csv(out)) == 15

    def test_uniform_kind_needs_no_rate(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--kind", "uniformMprime",
                               "--n", "4", "--m", "4")
        assert code == 0
        rows = parse_csv(out)
        vals = [float(r["value"]) for r in rows if r["segment"] == "2"]
        assert vals[0] == pytest.approx(2.0)

    def test_rated_kind_requires_rate(self, capsys):
        code, _, err = run_cli(capsys, "table", "--kind", "M", "--n", "3", "--m", "4")
        assert code == 2
        assert "--lambda" in err

    def test_too_coarse_for_the_rate_rejected(self, capsys):
        code, out, err = run_cli(capsys, "table", "--kind", "M", "--lambda", "300",
                                 "--n", "4", "--m", "8")
        assert code == 2
        assert out == ""
        assert "lam=300 with m=8" in err and "larger resolution_m" in err

    def test_rerun_is_byte_identical(self, capsys):
        _, out1, _ = run_cli(capsys, "table", "--lambda", "0.5", "--kind", "M2",
                             "--n", "4", "--m", "8")
        _, out2, _ = run_cli(capsys, "table", "--lambda", "0.5", "--kind", "M2",
                             "--n", "4", "--m", "8")
        assert out1 == out2


class TestConstants:
    def test_json_schema_and_pure_tail_values(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--lambda", "1",
                               "--tail", "crude", "--n", "0")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "lambda", "n", "m", "tail_method", "c_lo", "c_hi", "b_lo", "b_hi",
            "d_lo", "d_hi", "envelope_inf", "envelope_sup",
            "quadrature_halving_delta", "uniform_fallback",
        }
        q = math.exp(-1.0)
        assert payload["c_lo"] == pytest.approx(0.5 * (1 + q / (1 - q * q)), abs=1e-13)
        assert payload["c_hi"] == pytest.approx(0.5 * (1 + q / (1 - q)), abs=1e-13)

    def test_step_bounds_at_a_large_rate(self, capsys):
        # the n=0 crude tails once rounded out of order here and exited 2
        code, out, err = run_cli(capsys, "constants", "--lambda", "60", "--n", "0", "--tail", "crude")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["c_lo"] <= payload["c_hi"] and payload["b_lo"] <= payload["b_hi"]

    def test_step_bounds_below_the_n0_ceiling_unchanged(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--lambda", "700", "--n", "0", "--tail", "crude")
        assert (code, err) == (0, "")
        assert out == (
            '{"lambda": 700.0, "n": 0, "m": 256, "tail_method": "crude", "c_lo": 0.9985734664764622, '
            '"c_hi": 0.9985734664764622, "b_lo": -0.4985724489775153, "b_hi": -0.4985724489775153, '
            '"d_lo": 2.032094901238679e-06, "d_hi": 2.032094901238679e-06, "envelope_inf": null, '
            '"envelope_sup": null, "quadrature_halving_delta": 0.0, "uniform_fallback": false}\n')

    def test_envelope_fields_present(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--lambda", "1", "--n", "5", "--m", "64")
        payload = json.loads(out)
        assert code == 0
        assert payload["tail_method"] == "envelope"
        assert payload["envelope_inf"] <= payload["envelope_sup"]
        assert payload["quadrature_halving_delta"] is not None

    def test_unrepresentable_rate_rejected_without_warnings(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "constants", "--lambda", "710")
        assert code == 2
        assert out == ""
        assert "rate lam=710 is above 696.08" in err and "n=7" in err
        assert "lam*e^lam would overflow" in err

    def test_rate_too_small_for_the_tails_rejected(self, capsys):
        code, out, err = run_cli(capsys, "constants", "--lambda", "1e-200")
        assert code == 2
        assert out == ""
        assert err == ("error: rate lam=1e-200 is below 1.4916681462400413e-154, the smallest "
                       "rate at which the step-bound tails can be evaluated in doubles\n")

    def test_unknown_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["constants", "--lambda", "1", "--bogus", "2"])
        assert exc.value.code == 2

    def test_crude_tails_below_the_cutoff_give_the_uniform_fallback(self, capsys):
        # the fallback's brackets come from the uniform derivative whatever --tail asks
        code, out, err = run_cli(capsys, "constants", "--lambda", "1e-7", "--tail", "crude")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["tail_method"] == "envelope" and payload["uniform_fallback"] is True
        assert run_cli(capsys, "constants", "--lambda", "1e-7") == (0, out, "")

    def test_the_density_stays_within_the_counting_bounds(self, capsys):
        # the uniform derivative's window extrema here are [0.5, 2.0]; c in [1/2, 1], b = c - 1
        code, out, err = run_cli(capsys, "constants", "--lambda", "1e-7", "--n", "3", "--m", "4")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["c_lo"], payload["c_hi"], payload["b_lo"], payload["b_hi"]) == (0.5, 1.0, -0.5, 0.0)
        assert payload["envelope_sup"] == 2.0


class TestPooledHalving:
    # m*((n-1)^2-1) = 30720 product panels: with two workers allowed, a
    # worker builds rows 1..k-1 of the fine report's product grid
    ARGV = ("constants", "--lambda", "1", "--n", "12", "--m", "256")

    def _at(self, monkeypatch, capsys, threads, *argv):
        monkeypatch.setenv("PARKLAB_THREADS", threads)
        return run_cli(capsys, *argv)

    def test_same_json_at_one_and_two_workers(self, monkeypatch, made_pools, capsys):
        inline = self._at(monkeypatch, capsys, "1", *self.ARGV)
        assert made_pools == []
        assert self._at(monkeypatch, capsys, "2", *self.ARGV) == inline
        assert len(made_pools) == 1
        assert inline[0] == 0 and json.loads(inline[1])["quadrature_halving_delta"] > 0

    def test_coarse_failure_names_the_requested_resolution(self, capsys):
        # lam=300 at the default n=7, m=256 fails only on the halving's m=128 grid
        code, out, err = run_cli(capsys, "constants", "--lambda", "300")
        assert (code, out) == (2, "")
        assert re.fullmatch("error: the halving delta's coarse grid \\(m=128\\) for the requested "
                            "resolution_m=256 failed: mean count at lam=300 with m=128 is [^\n]*, "
                            "a larger resolution_m is needed\n", err)

    def test_coarse_failure_same_error_at_one_and_two_workers(self, monkeypatch, capsys):
        argv = ("constants", "--lambda", "300", "--n", "12", "--m", "256")
        inline = self._at(monkeypatch, capsys, "1", *argv)
        assert inline[0] == 2 and inline[1] == ""
        assert "lam=300 with m=128" in inline[2]
        assert self._at(monkeypatch, capsys, "2", *argv) == inline

    def test_fine_failure_in_the_worker_exits_2(self, monkeypatch, made_pools, capsys):
        original = parklab.constants._fine_rows

        @functools.wraps(original)  # the pool pickles the task by the original's name
        def failing_in_a_worker(params, k):
            if multiprocessing.current_process().daemon:
                raise DomainError(f"fine report failed in process {os.getpid()}")
            return original(params, k)

        monkeypatch.setattr(parklab.constants, "_fine_rows", failing_in_a_worker)
        code, out, err = self._at(monkeypatch, capsys, "2", *self.ARGV)
        assert (code, out) == (2, "")
        assert err.startswith("error: fine report failed in process ")
        assert err != f"error: fine report failed in process {os.getpid()}\n"
        assert len(made_pools) == 1


# A process that installs a raising SIGTERM handler, as a harness might, then
# runs a long pooled halving.  The worker announces itself when it starts its
# rows of the fine report's product grid.
_SIGTERM_CHILD = """
import multiprocessing
import os
import signal
from parklab import cli, constants

def _raise(signum, frame):
    raise RuntimeError("terminated")

def _announce(params, k):
    if multiprocessing.current_process().daemon:
        os.write(1, b"started\\n")
    return fine_rows(params, k)

fine_rows, constants._fine_rows = constants._fine_rows, _announce
signal.signal(signal.SIGTERM, _raise)
cli.main(["constants", "--lambda", "1", "--n", "40", "--m", "512"])
"""


def test_sigterm_during_a_pooled_halving_exits():
    src = str(Path(parklab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "PARKLAB_THREADS": "2"}
    proc = subprocess.Popen([sys.executable, "-c", _SIGTERM_CHILD], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)
    try:
        assert proc.stdout.readline().strip() == "started"
        proc.send_signal(signal.SIGTERM)
        _, err = proc.communicate(timeout=30)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode != 0
    assert "RuntimeError: terminated" in err
    with pytest.raises(ProcessLookupError):  # the worker went with it
        os.killpg(proc.pid, 0)


class TestSweep:
    def test_method_switches_at_rate_three(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--lambda-min", "2", "--lambda-max", "4",
                               "--steps", "5", "--n", "5", "--m", "32")
        assert code == 0
        rows = parse_csv(out)
        assert [float(r["lambda"]) for r in rows] == [2.0, 2.5, 3.0, 3.5, 4.0]
        methods = {float(r["lambda"]): r["method"] for r in rows}
        assert methods[2.0] == "envelope" and methods[2.5] == "envelope"
        assert methods[3.0] == "crude" and methods[4.0] == "crude"

    def test_single_step_matches_constants_command(self, capsys):
        _, sweep_out, _ = run_cli(capsys, "sweep", "--lambda-min", "1", "--lambda-max", "1",
                                  "--steps", "1", "--n", "5", "--m", "64")
        row = parse_csv(sweep_out)[0]
        _, const_out, _ = run_cli(capsys, "constants", "--lambda", "1", "--n", "5", "--m", "64")
        payload = json.loads(const_out)
        for key in ("c_lo", "c_hi", "b_lo", "b_hi", "d_lo", "d_hi"):
            assert float(row[key]) == payload[key]

    def test_header_layout(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--lambda-min", "1", "--lambda-max", "1",
                            "--steps", "1", "--n", "5", "--m", "32")
        assert out.splitlines()[0] == "lambda,c_lo,c_hi,b_lo,b_hi,d_lo,d_hi,method"

    def test_inverted_range_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--lambda-min", "3", "--lambda-max", "1",
                               "--steps", "4")
        assert code == 2
        assert "lambda-min" in err

    def test_rate_too_small_for_the_tails_prints_no_table(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--lambda-min", "1e-200", "--lambda-max", "1",
                                 "--steps", "3", "--n", "5", "--m", "32")
        assert code == 2
        assert out == ""
        assert err.startswith("error: rate lam=1e-200 is below ")

    def test_a_failing_sweep_fails_on_its_largest_rate(self, monkeypatch, capsys):
        # a too-coarse --m rejects the largest rate first, so it is solved first
        solved, solve_mean = [], parklab.solver.solve_mean

        def spy(params, **kwargs):
            solved.append(params.lam)
            return solve_mean(params, **kwargs)

        monkeypatch.setattr(parklab.solver, "solve_mean", spy)
        code, out, err = run_cli(capsys, "sweep", "--lambda-min", "1", "--lambda-max", "690",
                                 "--steps", "3")
        assert (code, out, solved) == (2, "", [690.0])
        assert err.startswith("error: mean count at lam=690 with m=256 is ")

    def test_failed_rate_prints_no_table(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--lambda-min", "1", "--lambda-max", "1",
                                 "--steps", "1", "--n", "0")
        assert code == 2
        assert out == ""
        assert err == ("error: envelope tails need a solved derivative grid; "
                       "use horizon_n >= 3\n")


class TestSimulate:
    def test_deterministic_and_degenerate(self, capsys):
        args = ["simulate", "--lambda", "1", "--length", "1.7", "--trials", "100",
                "--seed", "1"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["mean"] == 1.0
        assert payload["variance"] == 0.0

    def test_two_car_histogram(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--lambda", "1", "--length", "3",
                               "--trials", "1000", "--seed", "5")
        assert code == 0
        assert json.loads(out)["histogram"] == {"2": 1000}

    def test_zref_adds_standardized_moments(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--lambda", "1", "--length", "12",
                               "--trials", "2000", "--seed", "3", "--zref")
        assert code == 0
        payload = json.loads(out)
        assert {"zref_mean", "zref_variance", "z_skewness", "z_excess_kurtosis"} <= set(payload)
        assert payload["zref_variance"] > 0

    def test_json_keys_in_order(self, capsys):
        keys = ["trials", "mean", "variance", "stderr_mean", "skewness", "excess_kurtosis",
                "histogram"]
        args = ["simulate", "--lambda", "1", "--length", "5", "--trials", "50"]
        _, out, _ = run_cli(capsys, *args)
        assert list(json.loads(out)) == keys
        _, out, _ = run_cli(capsys, *args, "--zref")
        assert list(json.loads(out)) == keys + ["zref_mean", "zref_variance", "z_skewness",
                                                "z_excess_kurtosis"]

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("simulated before rejecting the input")

        monkeypatch.setattr(parklab.montecarlo, "run_mc", refuse)

    def test_huge_length_rejected_before_simulating(self, capsys, no_simulation):
        code, out, err = run_cli(capsys, "simulate", "--lambda", "1", "--length", "1e300",
                                 "--trials", "1")
        assert (code, out) == (2, "")
        assert err == "error: length must be below 2**53, got 1e+300\n"

    @pytest.mark.parametrize("lam, length, message", [
        ("1", "1.5", "error: solver variance reference is zero; the count is "
                     "deterministic at this length\n"),
        # on (2, 3] M2 = 3M - 2 and M(2.5) rounds to 2 at this rate
        ("600", "2.5", "error: solver variance reference is zero; the count is "
                       "deterministic at this length\n"),
    ], ids=["zero-variance", "zero-variance-in-doubles"])
    def test_zref_failure_comes_before_simulating(self, capsys, no_simulation, lam, length,
                                                  message):
        code, out, err = run_cli(capsys, "simulate", "--lambda", lam, "--length", length,
                                 "--trials", "5", "--zref")
        assert (code, out, err) == (2, "", message)

    def test_zref_too_coarse_names_its_fixed_resolution(self, capsys, no_simulation):
        code, out, err = run_cli(capsys, "simulate", "--lambda", "600", "--length", "10",
                                 "--trials", "10", "--zref")
        assert (code, out) == (2, "")
        assert re.fullmatch("error: --zref solves its references at the fixed resolution_m=256, and "
                            "they failed: mean count at lam=600 with m=256 is [^\n]*; --zref cannot "
                            "raise it, so drop --zref, or lower the rate or the length\n", err)

    def test_zref_below_the_report_cutoff(self, capsys):
        # the references are the rated solves, which run at every accepted
        # rate; at length 20 they are 6.5e-14 and 1.7e-13 from those at 1e-6
        refs = []
        for lam in ("1e-7", "1e-6"):
            code, out, _ = run_cli(capsys, "simulate", "--lambda", lam, "--length", "20",
                                   "--trials", "5", "--zref")
            assert code == 0
            payload = json.loads(out)
            refs.append((payload["zref_mean"], payload["zref_variance"]))
        assert refs[0] == pytest.approx(refs[1], rel=1e-12)


class TestValidate:
    def test_filtered_run_passes_and_prints_lines(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "--criteria", "10")
        assert code == 0
        assert "criterion 10" in out and "PASS" in out

    def test_verdicts_do_not_depend_on_the_worker_count(self, capsys, monkeypatch):
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("PARKLAB_THREADS", threads)
            code, out, _ = run_cli(capsys, "validate", "--quick", "--criteria", "8,9")
            outs.append((code, re.sub(r"runtime: [\d.]+s", "runtime: <masked>", out)))
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1].count("PASS") == 4

    @pytest.fixture
    def corrupted(self, monkeypatch):
        real = parklab.solver.solve_mean

        def corrupted(params, **kwargs):
            grid = real(params, **kwargs)
            vals = grid.values.copy()
            vals[3:] += 0.6  # push the solution over the counting bound
            return SegmentedGrid(grid.kind, vals, lam=grid.lam)

        monkeypatch.setattr(parklab.solver, "solve_mean", corrupted)

    def test_corrupted_solver_fails_validation(self, capsys, corrupted):
        code, out, _ = run_cli(capsys, "validate", "--criteria", "2")
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_a_rejected_grid_fails_its_criterion_and_the_run_goes_on(
            self, capsys, monkeypatch, corrupted, threads):
        # the corrupted mean sends the lam=5 second moment over its squared bound
        monkeypatch.setenv("PARKLAB_THREADS", threads)
        code, out, err = run_cli(capsys, "validate", "--quick", "--criteria", "2,5,10")
        assert (code, err) == (1, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "FAIL  criterion  2 did not finish", "FAIL  criterion  5 did not finish",
            "PASS  criterion 10 intercept differs from density-1 at lam=1"]
        assert all("second moment at lam=5" in line for line in lines[:2])

    def test_the_started_simulations_are_collected_after_a_rejected_grid(
            self, capsys, monkeypatch, made_pools, small_sets_pool, corrupted):
        # criterion 8's runs start in the pool before criterion 5 fails
        monkeypatch.setenv("PARKLAB_THREADS", "2")
        code, out, _ = run_cli(capsys, "validate", "--quick", "--criteria", "5,8")
        assert code == 1 and len(made_pools) == 1
        first, *rest = out.splitlines()
        assert first.startswith("FAIL  criterion  5 did not finish: second moment at lam=5")
        assert len(rest) == 3 and all(" criterion  8 " in line for line in rest)
        assert rest[-1].startswith("PASS  criterion  8 simulation runtime: ")

    def test_run_checks_returns_a_rejected_grid_as_one_failed_result(self, corrupted):
        result, = parklab.validation.run_checks(quick=True, criteria=[5])
        assert (result.criterion, result.name, result.passed) == (5, "did not finish", False)
        assert result.measured.startswith("second moment at lam=5 with m=256 ")

    @pytest.mark.parametrize("criteria", [",", ""])
    def test_empty_criteria_selection_rejected(self, capsys, criteria):
        code, out, err = run_cli(capsys, "validate", "--criteria", criteria)
        assert (code, out) == (2, "")
        assert err == "error: no criteria selected\n"

    def test_unknown_criterion_rejected(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--criteria", "99")
        assert (code, out) == (2, "")
        assert err == "error: unknown criteria: [99]\n"

    def test_non_integer_criterion_rejected(self, capsys):
        code, out, err = run_cli(capsys, "validate", "--criteria", "1,x")
        assert (code, out) == (2, "")
        assert err == "error: --criteria takes comma-separated integers, got '1,x'\n"

    def test_a_criterion_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(quick):
            raise ValueError("criterion 10 broke")

        monkeypatch.setitem(parklab.validation.CRITERIA, 10, broken)
        with pytest.raises(ValueError, match="^criterion 10 broke$"):
            main(["validate", "--criteria", "10"])
