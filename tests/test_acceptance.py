"""Acceptance suite: one test per criterion, each printing its verdict lines.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
values, or use ``parklab validate`` for the same checks from the CLI.

Criterion 4's width clause is expected to fail and is kept as stated: the
target of 1e-6 for the n=7 step-bound bracket width at rate 1 is below the
mathematical floor of that construction (about 1.56e-3, since the gap
between the step bounds grows like half the truncation point).  See
README.md for the analysis.
"""

from parklab import validation


def _run(criterion):
    results = validation.CRITERIA[criterion](False)
    for r in results:
        print(r.line())
    return results


def _assert_all(results):
    failed = [r for r in results if not r.passed]
    assert not failed, "; ".join(f"{r.name}: {r.measured}" for r in failed)


def test_criterion_01_closed_form_agreement():
    _assert_all(_run(1))


def test_criterion_02_counting_bounds():
    _assert_all(_run(2))


def test_criterion_03_envelope_nesting():
    _assert_all(_run(3))


def test_criterion_04_crude_bracket_endpoints():
    results = _run(4)
    assert results[0].passed, results[0].measured


def test_criterion_04_crude_width_target():
    # Known-unattainable target, asserted as stated rather than loosened.
    results = _run(4)
    assert results[1].passed, results[1].measured


def test_criterion_05_large_rate_asymptotes():
    _assert_all(_run(5))


def test_criterion_06_uniform_limit():
    _assert_all(_run(6))


def test_criterion_07_convergence_trend():
    _assert_all(_run(7))


def test_criterion_08_monte_carlo_cross_validation():
    _assert_all(_run(8))


def test_criterion_09_normality_diagnostic():
    _assert_all(_run(9))


def test_criterion_10_intercept_vs_density():
    _assert_all(_run(10))


def test_criterion_11_grid_convergence():
    _assert_all(_run(11))
