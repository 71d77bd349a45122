import math

import numpy as np
import pytest

from revcheck.errors import (
    EmptyData,
    IndexOutOfRange,
    InvalidSpec,
    MismatchedInputs,
    NonFiniteInput,
    UnknownColumn,
    UnknownOrdering,
)
from revcheck.parameterization import joint_moments_from_correlations
from revcheck.regression import (
    Dataset,
    ModelSpec,
    OrderingVariable,
    coefficient_test,
    fit,
)


def small_data():
    return Dataset(
        columns={"y": np.array([0.0, 1.0, 1.0]), "x": np.array([0.0, 1.0, 2.0])},
        orderings={},
    )


def grouped_data():
    # Two groups with different intercepts, identical slope 1.
    x = np.array([0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 2.0, 3.0])
    g = np.repeat([1.0, 0.0], 4)
    y = x + 5.0 * (g == 0.0) + np.array([0.1, -0.1, 0.05, -0.05, 0.02, -0.02, 0.04, -0.04])
    return Dataset(
        columns={"y": y, "x": x},
        orderings={"g": OrderingVariable("g", "binary_group", g)},
    )


def test_dataset_validation():
    with pytest.raises(MismatchedInputs):
        Dataset(columns={"y": np.array([1.0, 2.0]), "x": np.array([1.0])}, orderings={})
    with pytest.raises(EmptyData):
        Dataset(columns={}, orderings={})
    data = small_data()
    assert data.n == 3
    with pytest.raises(UnknownColumn):
        data.column("z")
    with pytest.raises(UnknownOrdering):
        data.ordering("t")


def test_ordering_kinds_validated():
    with pytest.raises(InvalidSpec):
        OrderingVariable("t", "time", np.array([1.0, 1.0, 2.0]))  # not strictly increasing
    with pytest.raises(InvalidSpec):
        OrderingVariable("g", "binary_group", np.array([0.0, 2.0]))
    with pytest.raises(InvalidSpec):
        OrderingVariable("g", "sideways", np.array([0.0, 1.0]))


def test_fit_hand_case():
    res = fit(small_data(), ModelSpec(response="y", regressors=("x",)))
    assert np.allclose(res.coefficients, [1.0 / 6.0, 0.5], atol=1e-14)
    # s^2 = rss/(n-p) = (1/6)/1; se(slope) = sqrt(s^2 * 3/6) = sqrt(1/12).
    assert math.isclose(res.s, math.sqrt(1.0 / 6.0), rel_tol=1e-12)
    assert math.isclose(res.std_errors[1], math.sqrt(1.0 / 12.0), rel_tol=1e-12)
    assert math.isclose(res.r2, 0.75, abs_tol=1e-12)
    assert res.n_used == 3
    assert res.term_names == ("intercept", "x")
    assert not res.degenerate


def test_fit_degenerate_exact_line():
    data = Dataset(
        columns={"y": np.array([1.0, 2.0, 3.0, 4.0]), "x": np.array([0.0, 1.0, 2.0, 3.0])},
        orderings={},
    )
    res = fit(data, ModelSpec(response="y", regressors=("x",)))
    assert res.degenerate
    assert res.r2 == 1.0
    assert res.s == 0.0
    assert np.allclose(res.coefficients, [1.0, 1.0], atol=1e-10)


def test_fit_flags_overflowing_sums_of_squares():
    # rss and tss are both inf: inf <= 1e-12 * inf holds, so without the
    # check the fit would read as exact.
    rng = np.random.default_rng(0)
    x = rng.standard_normal(60)
    data = Dataset(columns={"y": (3 * x + rng.standard_normal(60)) * 1e160, "x": x}, orderings={})
    with pytest.raises(NonFiniteInput, match="overflow"):
        fit(data, ModelSpec(response="y", regressors=("x",)))


def test_fit_recovers_population_slopes():
    rng = np.random.default_rng(2024)
    n = 200_000
    m = joint_moments_from_correlations(0.5, 0.7, 0.8)
    draws = rng.multivariate_normal(m.mu, m.sigma, size=n)
    data = Dataset(
        columns={"y": draws[:, 0], "x1": draws[:, 1], "x2": draws[:, 2]},
        orderings={},
    )
    res = fit(data, ModelSpec(response="y", regressors=("x1", "x2")))
    assert abs(res.coefficients[1] - (-1.0 / 6.0)) < 0.01
    assert abs(res.coefficients[2] - 5.0 / 6.0) < 0.01
    # The marginal slope keeps the sign of rho12 while the partial flips it.
    marginal = fit(data, ModelSpec(response="y", regressors=("x1",)))
    assert marginal.coefficients[1] > 0 > res.coefficients[1]
    assert res.r2 >= marginal.r2


def test_frisch_waugh_partialling_out():
    rng = np.random.default_rng(5)
    n = 400
    x1 = rng.standard_normal(n)
    x2 = 0.6 * x1 + rng.standard_normal(n)
    y = 1.0 - 0.5 * x1 + 0.8 * x2 + rng.standard_normal(n)
    data = Dataset(columns={"y": y, "x1": x1, "x2": x2}, orderings={})
    joint = fit(data, ModelSpec(response="y", regressors=("x1", "x2")))

    def residualize(target):
        d = Dataset(columns={"t": target, "x2": x2}, orderings={})
        return fit(d, ModelSpec(response="t", regressors=("x2",))).residuals

    ry, rx = residualize(y), residualize(x1)
    partial = Dataset(columns={"ry": ry, "rx": rx}, orderings={})
    res = fit(partial, ModelSpec(response="ry", regressors=("rx",)))
    assert math.isclose(res.coefficients[1], joint.coefficients[1], rel_tol=1e-9)


def test_design_matrix_is_an_intercept_then_the_regressors():
    data = grouped_data()
    result = fit(data, ModelSpec(response="y", regressors=("x",)))
    assert result.term_names == ("intercept", "x")
    design = np.column_stack([np.ones(data.n), data.column("x")])
    coefficients = np.linalg.lstsq(design, data.column("y"), rcond=None)[0]
    assert np.allclose(result.coefficients, coefficients, rtol=1e-12)
    assert np.allclose(result.residuals, data.column("y") - design @ coefficients, atol=1e-12)


def test_model_spec_rejects_a_regressor_named_intercept():
    with pytest.raises(InvalidSpec, match="'intercept' clashes"):
        ModelSpec(response="y", regressors=("x", "intercept"))


def test_two_group_reversal_pattern():
    # Within-group slopes positive, pooled slope negative: the grouping
    # variable carries the aggregation artifact.
    rng = np.random.default_rng(77)
    n = 60
    x0 = rng.normal(10.0, 1.0, n)
    x1 = rng.normal(14.0, 1.0, n)
    y0 = 20.0 + 0.5 * x0 + rng.normal(0.0, 0.4, n)
    y1 = 12.0 + 0.5 * x1 + rng.normal(0.0, 0.4, n)
    data = Dataset(
        columns={"y": np.concatenate([y0, y1]), "x": np.concatenate([x0, x1])},
        orderings={
            "g": OrderingVariable("g", "binary_group", np.repeat([1.0, 0.0], n))
        },
    )
    spec = ModelSpec(response="y", regressors=("x",))
    pooled = fit(data, spec)
    g = data.ordering("g").values
    g1 = fit(data.take(np.flatnonzero(g == 1.0)), spec)
    g0 = fit(data.take(np.flatnonzero(g == 0.0)), spec)
    assert pooled.coefficients[1] < 0
    assert g1.coefficients[1] > 0 and g0.coefficients[1] > 0


def test_coefficient_test_matches_p_values():
    res = fit(small_data(), ModelSpec(response="y", regressors=("x",)))
    test = coefficient_test(res, 1)
    assert math.isclose(test.p_value, res.p_values[1], rel_tol=1e-12)
    assert test.df == res.n_used - 2
    assert not test.reject
    with pytest.raises(IndexOutOfRange):
        coefficient_test(res, 5)


def test_coefficient_test_nonzero_null():
    res = fit(small_data(), ModelSpec(response="y", regressors=("x",)))
    at_estimate = coefficient_test(res, 1, null_value=float(res.coefficients[1]))
    assert at_estimate.stat == pytest.approx(0.0, abs=1e-12)
    assert at_estimate.p_value == pytest.approx(1.0)


def test_fit_unknown_column():
    with pytest.raises(UnknownColumn):
        fit(small_data(), ModelSpec(response="z", regressors=("x",)))
