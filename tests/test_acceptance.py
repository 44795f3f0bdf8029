"""Acceptance gate: every contractual criterion at its stated tolerance.

Each test runs one criterion through the verification suite at the criterion's
sizes, prints a single pass/fail line (visible with ``pytest -s`` or on
failure), and asserts both the measured value and the runtime budget:

    pytest -s tests/test_acceptance.py
"""

from ghmc import verify


def _report(number, title, result, budget_s):
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[criterion {number:2d}] {title}: {status} "
        f"(measured {result.measured:.3g}, requirement {result.requirement}, "
        f"{result.seconds:.1f}s of {budget_s}s) {result.detail}"
    )
    assert result.passed, f"{title}: measured {result.measured:.3g} ({result.detail})"
    assert result.seconds < budget_s, f"{title}: exceeded {budget_s}s budget"


def test_criterion_01_reversibility():
    _report(1, "integrator reversibility", verify.check_reversibility(), 5.0)


def test_criterion_02_volume_preservation():
    _report(2, "volume preservation", verify.check_volume_preservation(), 10.0)


def test_criterion_03_energy_error_order():
    _report(3, "energy error order", verify.check_energy_error_order(), 10.0)


def test_criterion_04_smw_inverse():
    result = verify.check_smw_inverse()
    _report(4, "rank-1 inverse vs dense", result, 5.0)


def test_criterion_05_cost_scaling():
    result = verify.check_cost_scaling()
    _report(5, "O(n^2) metric update", result, 60.0)


def test_criterion_05_step_operations():
    result = verify.check_step_operations()
    _report(5, "O(n^2) step, counted", result, 5.0)


def test_criterion_06_christoffel():
    _report(6, "Christoffel coefficients", verify.check_christoffel(), 5.0)


def test_criterion_07_reflection():
    _report(7, "reflection energy + involution", verify.check_reflection(), 5.0)


def test_criterion_08_constrained_sampling():
    result = verify.check_constrained_sampling()
    _report(8, "constrained half-space sampling", result, 30.0)


def test_criterion_09_unconstrained_sampling():
    result = verify.check_gaussian_sampling()
    _report(9, "unit Gaussian sampling", result, 30.0)
    result = verify.check_mvn_sampling()
    _report(9, "correlated Gaussian sampling", result, 30.0)


def test_criterion_09_jitter_mixing():
    _report(9, "path-length jitter mixing", verify.check_jitter_mixing(), 30.0)


def test_criterion_10_coordinate_invariance():
    result = verify.check_coordinate_invariance()
    _report(10, "coordinate invariance of H", result, 5.0)


def test_criterion_11_stationarity():
    _report(11, "one-transition stationarity", verify.check_stationarity(), 30.0)


def test_criterion_12_momentum_evenness():
    result = verify.check_momentum_symmetry()
    _report(12, "momentum evenness conditions", result, 5.0)
