"""Acceptance gate: every contractual criterion at its stated tolerance.

Each check of the verification suite runs as one case at its contractual
sizes, prints a single pass/fail line (visible with ``pytest -s`` or on
failure), and asserts both the measured value and its criterion's runtime
budget:

    pytest -s tests/test_acceptance.py
"""

import pytest

from ghmc import verify

# check -> (criterion number, title, runtime budget in seconds)
CRITERIA = {
    verify.check_reversibility: (1, "integrator reversibility", 5.0),
    verify.check_volume_preservation: (2, "volume preservation", 10.0),
    verify.check_energy_error_order: (3, "energy error order", 10.0),
    verify.check_smw_inverse: (4, "rank-1 inverse vs dense", 5.0),
    verify.check_cost_scaling: (5, "O(n^2) metric update", 60.0),
    verify.check_step_operations: (5, "O(n^2) step, counted", 5.0),
    verify.check_christoffel: (6, "Christoffel coefficients", 5.0),
    verify.check_reflection: (7, "reflection energy + involution", 5.0),
    verify.check_constrained_sampling: (8, "constrained half-space sampling", 30.0),
    verify.check_gaussian_sampling: (9, "unit Gaussian sampling", 30.0),
    verify.check_mvn_sampling: (9, "correlated Gaussian sampling", 30.0),
    verify.check_jitter_mixing: (9, "path-length jitter mixing", 30.0),
    verify.check_coordinate_invariance: (10, "coordinate invariance of H", 5.0),
    verify.check_stationarity: (11, "one-transition stationarity", 30.0),
    verify.check_momentum_symmetry: (12, "momentum evenness conditions", 5.0),
}


def test_every_check_has_a_criterion():
    assert set(CRITERIA) == set(verify.CHECKS)


@pytest.mark.parametrize("check", verify.CHECKS, ids=lambda check: check.__name__)
def test_criterion(check):
    number, title, budget_s = CRITERIA[check]
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(
        f"[criterion {number:2d}] {title}: {status} "
        f"(measured {result.measured:.3g}, requirement {result.requirement}, "
        f"{result.seconds:.1f}s of {budget_s}s) {result.detail}"
    )
    assert result.passed, f"{title}: measured {result.measured:.3g} ({result.detail})"
    assert result.seconds < budget_s, f"{title}: exceeded {budget_s}s budget"
