import math

import numpy as np
import pytest

from revcheck.errors import (
    MismatchedInputs,
    NonPositiveVariance,
    OutOfRangeCorrelation,
    SingularRegressorCovariance,
)
from revcheck.parameterization import (
    FullRegressionParams,
    JointMoments,
    check_reversal_conditions,
    corr_from_slope,
    derive_full_params,
    derive_simple_params,
    joint_moments_from_correlations,
)


def random_pd_moments(rng):
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 0.05 * np.eye(3)
    return JointMoments(mu=rng.standard_normal(3), sigma=sigma)


def full_params_by_solve(m: JointMoments) -> FullRegressionParams:
    """derive_full_params by a second route, to cross-check its closed form:
    solve Cov(X) b = Cov(X, y) for the slope pair and take the error
    variance as Var(y) - Cov(X, y)' b."""
    s = m.sigma
    b = np.linalg.solve(s[1:, 1:], s[1:, 0])
    return FullRegressionParams(
        beta0=float(m.mu[0] - b @ m.mu[1:]), beta1=float(b[0]), beta2=float(b[1]), sigma_u2=float(s[0, 0] - s[1:, 0] @ b)
    )


def test_unit_variance_anchor_positive_pair():
    # (rho12, rho13, rho23) = (.5, .7, .8) with unit variances gives
    # beta1 = -1/6, beta2 = 5/6, sigma_u2 = 1/2 exactly.
    m = joint_moments_from_correlations(0.5, 0.7, 0.8)
    full = derive_full_params(m)
    assert math.isclose(full.beta1, -1.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(full.beta2, 5.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(full.sigma_u2, 0.5, abs_tol=1e-12)
    assert full.beta0 == pytest.approx(0.0, abs=1e-12)


def test_unit_variance_anchor_negative_pair():
    m = joint_moments_from_correlations(0.5, -0.7, -0.8)
    full = derive_full_params(m)
    assert math.isclose(full.beta1, -1.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(full.beta2, -5.0 / 6.0, abs_tol=1e-12)
    assert math.isclose(full.sigma_u2, 0.5, abs_tol=1e-12)


def test_simple_params_unit_variance():
    m = joint_moments_from_correlations(0.5, 0.7, 0.8)
    simple = derive_simple_params(m)
    assert simple.alpha1 == pytest.approx(0.5, abs=1e-14)
    assert simple.sigma_eps2 == pytest.approx(0.75, abs=1e-14)
    assert simple.alpha0 == pytest.approx(0.0, abs=1e-14)


def test_matrix_route_agrees_with_closed_form():
    rng = np.random.default_rng(99)
    for _ in range(200):
        m = random_pd_moments(rng)
        a = derive_full_params(m)
        b = full_params_by_solve(m)
        for name in ("beta0", "beta1", "beta2", "sigma_u2"):
            va, vb = getattr(a, name), getattr(b, name)
            assert math.isclose(va, vb, rel_tol=1e-12, abs_tol=1e-12)


def test_conditioning_never_inflates_error_variance():
    rng = np.random.default_rng(123)
    for _ in range(200):
        m = random_pd_moments(rng)
        assert derive_full_params(m).sigma_u2 <= derive_simple_params(m).sigma_eps2 + 1e-12


def test_slope_decomposition_identity():
    # alpha1 = beta1 + beta2 * sigma23 / sigma22 ties the two models together.
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_pd_moments(rng)
        full = derive_full_params(m)
        simple = derive_simple_params(m)
        implied = full.beta1 + full.beta2 * m.sigma[1, 2] / m.sigma[1, 1]
        assert math.isclose(simple.alpha1, implied, rel_tol=1e-10, abs_tol=1e-10)


def test_corr_from_slope_anchor():
    # slope .419 with response sd 2.137 and regressor sd 4.854 implies .952.
    rho = corr_from_slope(0.419, 2.137**2, 4.854**2)
    assert round(rho, 3) == 0.952


def test_corr_from_slope_errors():
    with pytest.raises(NonPositiveVariance):
        corr_from_slope(0.5, 0.0, 1.0)
    with pytest.raises(OutOfRangeCorrelation):
        corr_from_slope(5.0, 1.0, 1.0)


def test_reversal_conditions_textbook_triple():
    cond = check_reversal_conditions(0.5, 0.7, 0.8)
    assert cond.same_sign and cond.product_exceeds and cond.det_positive
    assert cond.reversal_predicted
    assert math.isclose(cond.corr_det, 0.18, abs_tol=1e-12)


def test_reversal_conditions_sign_mismatch():
    # Opposite-signed rho13, rho23 make the product negative while rho12 > 0.
    cond = check_reversal_conditions(0.5, 0.7, -0.8)
    assert not cond.same_sign
    assert not cond.reversal_predicted


def test_reversal_conditions_zero_product():
    cond = check_reversal_conditions(0.5, 0.0, 0.3)
    assert not cond.same_sign
    assert not cond.product_exceeds
    assert not cond.reversal_predicted


def test_reversal_conditions_mirrored_for_negative_rho12():
    cond = check_reversal_conditions(-0.5, 0.7, -0.8)
    assert cond.same_sign and cond.product_exceeds and cond.det_positive
    assert cond.reversal_predicted
    m = joint_moments_from_correlations(-0.5, 0.7, -0.8)
    assert derive_full_params(m).beta1 > 0  # flipped against rho12 < 0


def test_reversal_prediction_matches_partial_slope_sign():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 300:
        r12, r13, r23 = rng.uniform(-0.95, 0.95, size=3)
        det = 1 - r12**2 - r13**2 - r23**2 + 2 * r12 * r13 * r23
        if det <= 1e-3 or abs(r12) < 1e-3:
            continue
        cond = check_reversal_conditions(r12, r13, r23)
        beta1 = derive_full_params(joint_moments_from_correlations(r12, r13, r23)).beta1
        flipped = (beta1 > 0) != (r12 > 0)
        assert cond.reversal_predicted == flipped
        checked += 1


def test_joint_moments_validation():
    with pytest.raises(MismatchedInputs):
        JointMoments(np.zeros(2), np.eye(3))
    with pytest.raises(MismatchedInputs):
        JointMoments(np.zeros(3), np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(NonPositiveVariance):
        JointMoments(np.zeros(3), np.ones((3, 3)))  # semidefinite: rank one
    with pytest.raises(NonPositiveVariance):
        JointMoments(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(NonPositiveVariance):
        JointMoments(np.zeros(3), np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(NonPositiveVariance):
        JointMoments(np.array([np.inf, 0, 0]), np.eye(3))


@pytest.mark.parametrize("x1_variance", [0.0, -1e-30])
def test_joint_moments_reads_definiteness_off_the_symmetric_part(x1_variance):
    # The off-diagonal pair differs in sign within the symmetry tolerance;
    # taken unsymmetrized, its product would make minor2 and det positive.
    sigma = [[1.0, 1e-14, 0.0], [-1e-14, x1_variance, 0.0], [0.0, 0.0, 1.0]]
    with pytest.raises(NonPositiveVariance):
        JointMoments([0.0, 0.0, 0.0], sigma)
    # A pair within tolerance of a positive definite matrix still passes.
    near = JointMoments(np.zeros(3), [[1.0, 0.5, 0.0], [0.5 + 1e-12, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert near.sigma[1, 0] == 0.5 + 1e-12


def test_joint_moments_from_correlations_validation():
    with pytest.raises(OutOfRangeCorrelation):
        joint_moments_from_correlations(1.2, 0.0, 0.0)
    with pytest.raises(NonPositiveVariance):
        joint_moments_from_correlations(0.9, 0.9, -0.9)  # determinant < 0


def test_singular_regressor_block():
    sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    m_bad = None
    with pytest.raises(NonPositiveVariance):
        m_bad = JointMoments(np.zeros(3), sigma)
    assert m_bad is None
    # JointMoments rejects a singular block first; a stand-in that skips
    # its check reaches derive_full_params' own singular branch.
    class FakeMoments:
        mu = np.zeros(3)
        sigma = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])

    with pytest.raises(SingularRegressorCovariance):
        derive_full_params(FakeMoments())
