"""Joint-moment parameterizations of one response and two regressors.

The ordering convention everywhere in this module is index 0 for the
response y, index 1 for the regressor of interest x1, and index 2 for the
conditioning variable x2. Given the joint first and second moments of
(y, x1, x2), the module derives:

  * the full linear conditional model y | (x1, x2), whose x1 coefficient is

        beta1 = (s12*s33 - s13*s23) / (s22*s33 - s23**2)

  * the simple conditional model y | x1, whose slope is alpha1 = s12/s22,

together with their error variances, and checks the three-correlation
conditions under which the sign of beta1 opposes the sign of the marginal
correlation between y and x1 (an association reversal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    MismatchedInputs,
    NonPositiveVariance,
    OutOfRangeCorrelation,
    SingularRegressorCovariance,
    ZeroRegressorVariance,
)

_SYM_RTOL = 1e-9


@dataclass(frozen=True, init=False)
class JointMoments:
    """Mean vector and covariance matrix of (y, x1, x2).

    The covariance matrix must be symmetric positive definite; a merely
    semidefinite matrix (an exact linear dependence) is rejected because
    every conditional variance below would then be ill defined. The check
    unrolls Sylvester's criterion (strictly positive leading principal
    minors) rather than factorizing, and the constructor is written by hand
    rather than generated, because it sits on the hot path of grid sweeps
    and Monte Carlo loops.
    """

    mu: np.ndarray
    sigma: np.ndarray

    def __init__(self, mu, sigma):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        if mu.shape != (3,) or sigma.shape != (3, 3):
            raise MismatchedInputs("JointMoments needs mu of shape (3,) and sigma (3, 3)")
        s00, s01, s02, s10, s11, s12, s20, s21, s22 = sigma.ravel().tolist()
        entries = (s00, s01, s02, s10, s11, s12, s20, s21, s22, *mu.tolist())
        # A finite sum settles finiteness in one call; a non-finite one may
        # still be an overflow of finite entries, so check those one by one.
        if not math.isfinite(sum(entries)) and not all(map(math.isfinite, entries)):
            raise NonPositiveVariance("moments contain non-finite entries")
        if s01 != s10 or s02 != s20 or s12 != s21:
            tol = _SYM_RTOL * max(map(abs, entries[:9]))
            if abs(s01 - s10) > tol or abs(s02 - s20) > tol or abs(s12 - s21) > tol:
                raise MismatchedInputs("sigma must be symmetric")
            # The minors below are the symmetric part's: pairs of opposite
            # sign would otherwise add their product to minor2 and det.
            s01 = s10 = (s01 + s10) / 2
            s02 = s20 = (s02 + s20) / 2
            s12 = s21 = (s12 + s21) / 2
        # An all-zero sigma is symmetric and fails s00 > 0 below.
        minor2 = s00 * s11 - s01 * s10
        det = s00 * (s11 * s22 - s12 * s21) - s01 * (s10 * s22 - s12 * s20) + s02 * (
            s10 * s21 - s11 * s20
        )
        if not (s00 > 0 and minor2 > 0 and det > 0):
            raise NonPositiveVariance("sigma must be positive definite")
        # Item stores on the instance dict are the cheapest way past the
        # frozen __setattr__; the results below are built the same way.
        fields = self.__dict__
        fields["mu"] = mu
        fields["sigma"] = sigma


@dataclass(frozen=True)
class FullRegressionParams:
    """Parameters of the linear conditional model y | (x1, x2)."""

    beta0: float
    beta1: float
    beta2: float
    sigma_u2: float


@dataclass(frozen=True)
class SimpleRegressionParams:
    """Parameters of the linear conditional model y | x1 alone."""

    alpha0: float
    alpha1: float
    sigma_eps2: float


@dataclass(frozen=True)
class ReversalConditions:
    """Outcome of the three-correlation reversal check.

    same_sign holds when the product rho13*rho23 carries the same (nonzero)
    sign as rho12; for rho12 > 0 this is exactly the statement that rho13
    and rho23 share a sign. product_exceeds holds when |rho13*rho23|
    strictly exceeds |rho12|. det_positive holds when the correlation
    matrix determinant

        1 - rho12^2 - rho13^2 - rho23^2 + 2*rho12*rho13*rho23

    is strictly positive. All three together predict that the partial
    slope of x1 flips sign against the marginal correlation.
    """

    rho12: float
    rho13: float
    rho23: float
    same_sign: bool
    product_exceeds: bool
    corr_det: float
    det_positive: bool
    reversal_predicted: bool


def derive_full_params(m: JointMoments) -> FullRegressionParams:
    """Closed-form parameters of y | (x1, x2) from joint moments.

    With sij denoting entries of m.sigma (0=y, 1=x1, 2=x2):

        d      = s22*s33 - s23^2
        beta1  = (s12*s33 - s13*s23) / d
        beta2  = (s13*s22 - s12*s23) / d
        beta0  = mu_y - beta1*mu_x1 - beta2*mu_x2
        s_u^2  = s11 - s12*beta1 - s13*beta2

    Raises:
        SingularRegressorCovariance: if the (x1, x2) covariance block is
            singular (d <= 0).
    """
    s11, s12, s13, _, s22, s23, _, _, s33 = m.sigma.ravel().tolist()
    mu1, mu2, mu3 = m.mu.tolist()
    d = s22 * s33 - s23 * s23
    if d <= 0:
        raise SingularRegressorCovariance("regressor covariance block is singular")
    beta1 = (s12 * s33 - s13 * s23) / d
    beta2 = (s13 * s22 - s12 * s23) / d
    beta0 = mu1 - beta1 * mu2 - beta2 * mu3
    sigma_u2 = s11 - s12 * beta1 - s13 * beta2
    params = object.__new__(FullRegressionParams)
    fields = params.__dict__
    fields["beta0"] = beta0
    fields["beta1"] = beta1
    fields["beta2"] = beta2
    fields["sigma_u2"] = sigma_u2
    return params


def derive_simple_params(m: JointMoments) -> SimpleRegressionParams:
    """Parameters of y | x1, using only the (y, x1) block of the moments.

        alpha1   = s12 / s22
        alpha0   = mu_y - alpha1 * mu_x1
        s_eps^2  = s11 - s12^2 / s22
    """
    s = m.sigma
    if s[1, 1] <= 0:
        raise ZeroRegressorVariance("x1 has non-positive variance")
    alpha1 = s[0, 1] / s[1, 1]
    alpha0 = m.mu[0] - alpha1 * m.mu[1]
    sigma_eps2 = s[0, 0] - s[0, 1] ** 2 / s[1, 1]
    return SimpleRegressionParams(
        alpha0=float(alpha0), alpha1=float(alpha1), sigma_eps2=float(sigma_eps2)
    )


def corr_from_slope(alpha1: float, sigma11: float, sigma22: float) -> float:
    """Recover the correlation from a simple-regression slope.

    rho12 = alpha1 * sqrt(sigma22 / sigma11), i.e. the slope rescaled by
    the ratio of the regressor's standard deviation to the response's.

    Raises:
        NonPositiveVariance: if either variance is not strictly positive.
        OutOfRangeCorrelation: if the implied correlation falls outside
            [-1, 1], meaning the three inputs are mutually inconsistent.
    """
    if sigma11 <= 0 or sigma22 <= 0:
        raise NonPositiveVariance("variances must be strictly positive")
    rho = float(alpha1) * float(np.sqrt(sigma22 / sigma11))
    if abs(rho) > 1.0 + 1e-12:
        raise OutOfRangeCorrelation(f"implied correlation {rho:.6f} is outside [-1, 1]")
    return float(np.clip(rho, -1.0, 1.0))


def check_reversal_conditions(rho12: float, rho13: float, rho23: float) -> ReversalConditions:
    """Evaluate the three-correlation conditions for an association reversal.

    For rho12 > 0 the conditions read exactly: (i) rho13 and rho23 share a
    sign, (ii) rho13*rho23 > rho12, (iii) the correlation determinant is
    positive. The checker does not assume rho12 > 0: for negative rho12 the
    mirrored conditions apply (the product must be negative and exceed
    rho12 in magnitude), so that in every case

        reversal_predicted  <=>  sign(beta1) != sign(rho12)

    whenever the triple is a valid correlation matrix.

    Raises:
        OutOfRangeCorrelation: if any input lies outside [-1, 1].
    """
    rho12, rho13, rho23 = float(rho12), float(rho13), float(rho23)
    # NaN fails every comparison, so one chained test covers finiteness too.
    if not (-1.0 <= rho12 <= 1.0 and -1.0 <= rho13 <= 1.0 and -1.0 <= rho23 <= 1.0):
        for name, r in (("rho12", rho12), ("rho13", rho13), ("rho23", rho23)):
            if not abs(r) <= 1.0:
                raise OutOfRangeCorrelation(f"{name}={r!r} is outside [-1, 1]")
    product = rho13 * rho23
    same_sign = (product > 0 and rho12 > 0) or (product < 0 and rho12 < 0)
    product_exceeds = abs(product) > abs(rho12)
    corr_det = 1.0 - rho12**2 - rho13**2 - rho23**2 + 2.0 * rho12 * rho13 * rho23
    det_positive = corr_det > 0
    result = object.__new__(ReversalConditions)
    fields = result.__dict__
    fields["rho12"] = rho12
    fields["rho13"] = rho13
    fields["rho23"] = rho23
    fields["same_sign"] = same_sign
    fields["product_exceeds"] = product_exceeds
    fields["corr_det"] = corr_det
    fields["det_positive"] = det_positive
    fields["reversal_predicted"] = same_sign and product_exceeds and det_positive
    return result


def joint_moments_from_correlations(rho12: float, rho13: float, rho23: float) -> JointMoments:
    """Unit-variance, zero-mean JointMoments with the given correlations."""
    for name, r in (("rho12", rho12), ("rho13", rho13), ("rho23", rho23)):
        if not np.isfinite(r) or abs(r) > 1.0:
            raise OutOfRangeCorrelation(f"{name}={r!r} is outside [-1, 1]")
    corr = np.array(
        [
            [1.0, rho12, rho13],
            [rho12, 1.0, rho23],
            [rho13, rho23, 1.0],
        ]
    )
    return JointMoments(mu=np.zeros(3), sigma=corr)
