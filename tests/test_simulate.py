import math
import sys

import numpy as np
import pytest
from scipy import stats

from revcheck import core_stats, misspec, regression, simulate
from revcheck.core_stats import Series, StudentT, sample_moments, tail_prob
from revcheck.errors import (
    GenerationFailed,
    InvalidSpec,
    NonFiniteInput,
    RankDeficient,
    Underdetermined,
    UnknownColumn,
)
from revcheck.misspec import BatteryConfig, corrected_correlation
from revcheck.parameterization import derive_full_params, joint_moments_from_correlations
from revcheck.regression import ModelSpec, fit
from revcheck.simulate import (
    BernoulliIid,
    NiidRegression,
    TestDescriptor,
    TrendingPair,
    TwoGroupRegression,
    _generate_with_rng,
    constrained_two_group,
    example3_generator,
    generate,
    mc_error_rate,
    naive_correlation_test,
    rng_for,
)


def test_generate_is_deterministic():
    first = generate(TrendingPair(n=30), 17)
    second = generate(TrendingPair(n=30), 17)
    assert np.array_equal(first.columns["x"], second.columns["x"])
    assert np.array_equal(first.columns["y"], second.columns["y"])
    other = generate(TrendingPair(n=30), 18)
    assert not np.array_equal(first.columns["x"], other.columns["x"])


def test_replication_streams_are_distinct_and_reproducible():
    # Note SeedSequence([s]) and SeedSequence([s, 0]) coincide, so the base
    # stream is only distinct from replications r >= 1; what matters is that
    # different replications never share a stream.
    base = rng_for(5).standard_normal(4)
    rep0 = rng_for(5, 0).standard_normal(4)
    rep1 = rng_for(5, 1).standard_normal(4)
    rep2 = rng_for(5, 2).standard_normal(4)
    assert np.array_equal(base, rep0)
    assert not np.array_equal(rep0, rep1)
    assert not np.array_equal(rep1, rep2)
    again = rng_for(5, 1).standard_normal(4)
    assert np.array_equal(rep1, again)


def test_bernoulli_iid_mean():
    data = generate(BernoulliIid(theta=0.6, n=20_000), 3)
    x = data.columns["x"]
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert abs(x.mean() - 0.6) < 0.02


def test_niid_regression_hits_target_correlations():
    joint = joint_moments_from_correlations(0.3, 0.5, 0.7)
    data = generate(NiidRegression(joint=joint, n=200_000), 11)
    stacked = np.column_stack([data.columns["y"], data.columns["x1"], data.columns["x2"]])
    corr = sample_moments(stacked).corr
    assert abs(corr[0, 1] - 0.3) < 0.01
    assert abs(corr[0, 2] - 0.5) < 0.01
    assert abs(corr[1, 2] - 0.7) < 0.01


def test_trending_pair_naive_correlation_is_spurious():
    data = generate(TrendingPair(), 0)
    assert data.columns["x"].shape == (46,)
    rho, p = naive_correlation_test(data.columns["x"], data.columns["y"])
    assert rho > 0.8
    assert p < 1e-6


def test_two_group_coding_and_sizes():
    kind = TwoGroupRegression(
        intercepts=(1.0, 2.0),
        slopes=(0.5, 0.5),
        x_means=(0.0, 5.0),
        x_sd=1.0,
        noise_sds=(1.0, 1.0),
        group_sizes=(8, 13),
    )
    data = generate(kind, 4)
    group = data.orderings["group"].values
    assert group.shape == (21,)
    assert np.array_equal(group[:8], np.ones(8))
    assert np.array_equal(group[8:], np.zeros(13))
    assert abs(data.columns["x"][:8].mean()) < 2.0
    assert abs(data.columns["x"][8:].mean() - 5.0) < 2.0


def test_example3_pooled_covariance_is_negative():
    data = example3_generator(n_per_group=50, seed=9)
    pooled = sample_moments(np.column_stack([data.columns["x"], data.columns["y"]]))
    assert pooled.cov[0, 1] < 0
    group = data.orderings["group"].values
    for level in (1.0, 0.0):
        rows = np.flatnonzero(group == level)
        sub = fit(
            data.take(rows),
            ModelSpec(response="y", regressors=("x",)),
        )
        assert sub.coefficients[1] > 0


def test_constrained_generator_exhausts_attempts():
    # Both groups share one upward line but sit far apart on x, so the
    # pooled covariance is positive in every draw.
    kind = TwoGroupRegression(
        intercepts=(0.0, 0.0),
        slopes=(1.0, 1.0),
        x_means=(0.0, 20.0),
        x_sd=0.5,
        noise_sds=(0.1, 0.1),
        group_sizes=(10, 10),
    )
    with pytest.raises(GenerationFailed):
        constrained_two_group(kind, seed=0, max_attempts=5)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        generate("trending", 0)
    with pytest.raises(InvalidSpec):
        TrendingPair(n=5)
    with pytest.raises(InvalidSpec):
        TrendingPair(ar_x=1.0)
    with pytest.raises(InvalidSpec):
        BernoulliIid(theta=1.5, n=10)
    with pytest.raises(InvalidSpec):
        TestDescriptor(kind="likelihood-ratio")
    with pytest.raises(InvalidSpec):
        TestDescriptor(kind="coefficient", regressors=("x",), target="")


def test_mc_error_rate_rejects_noisy_settings():
    kind = BernoulliIid(theta=0.5, n=20)
    test = TestDescriptor(kind="naive_correlation")
    with pytest.raises(InvalidSpec):
        mc_error_rate(kind, 0, test, replications=500)
    with pytest.raises(InvalidSpec):
        mc_error_rate(kind, 0, test, BatteryConfig(alpha=1.5))


def test_coefficient_test_is_sized_under_the_null():
    # x1 is independent of y, so rejecting its coefficient at alpha = .05
    # should happen about 5% of the time.
    joint = joint_moments_from_correlations(0.0, 0.0, 0.3)
    kind = NiidRegression(joint=joint, n=60)
    test = TestDescriptor(
        kind="coefficient", response="y", regressors=("x1", "x2"), target="x1"
    )
    result = mc_error_rate(kind, 77, test, replications=2000)
    assert result.replications == 2000
    assert result.mc_se == pytest.approx(math.sqrt(0.05 * 0.95 / 2000))
    assert 0.03 < result.rejection_rate < 0.07


def test_naive_correlation_against_numpy():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(35)
    y = 0.4 * x + rng.standard_normal(35)
    rho, p = naive_correlation_test(x, y)
    expected_rho = float(np.corrcoef(x, y)[0, 1])
    assert math.isclose(rho, expected_rho, rel_tol=1e-12)
    t = expected_rho * math.sqrt(33 / (1.0 - expected_rho**2))
    assert math.isclose(p, tail_prob(StudentT(33), t, "two"), rel_tol=1e-12)


def test_naive_correlation_degenerate_inputs():
    with pytest.raises(InvalidSpec):
        naive_correlation_test(np.ones(10), np.arange(10.0))
    x = np.arange(12.0)
    rho, p = naive_correlation_test(x, 2.0 * x + 1.0)
    assert rho == pytest.approx(1.0)
    assert p == 0.0


def test_generated_streams_are_pinned():
    # Replication r of a study is the dataset rng_for(seed, r) gives; these
    # values pin the draw order (x start, x innovations, y start, y
    # innovations) so stored size tables stay reproducible.
    data = generate(TrendingPair(), 0)
    x, y = data.columns["x"], data.columns["y"]
    assert [x[0], x[-1], y[0], y[-1]] == pytest.approx(
        [75.80386831240531, 61.72064697731098, 24.83662267185802, 14.591340907387691], rel=1e-12
    )


def _blocks(start: int, stop: int) -> list:
    """The study's blocks of replications in range(start, stop)."""
    return [(b, min(b + simulate._BLOCK, stop)) for b in range(start, stop, simulate._BLOCK)]


# Seeds of one, two and three 32-bit words, and either side of a word boundary.
@pytest.mark.parametrize("seed", [0, 1, 2026, 4242424242, 2**32 - 1, 2**32, 2**64 + 3])
def test_block_seeding_gives_each_replication_its_own_stream(seed):
    # Five blocks, the last one partial, then blocks on either side of
    # r = 2^32, where a replication index takes a second word.
    blocks = _blocks(0, 1100) + _blocks(2**32 - 256, 2**32 + 256)
    for start, stop in blocks:
        states = simulate._pcg64_states(seed, start, stop)
        assert len(states) == stop - start
        for r, (state, inc) in zip(range(start, stop), states):
            expected = rng_for(seed, r).bit_generator.state["state"]
            assert (state, inc) == (expected["state"], expected["inc"]), (seed, r)


def _lstsq_residuals(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    return y - design @ np.linalg.lstsq(design, y, rcond=None)[0]


def _reference_rejections(kind, seed: int, test: TestDescriptor, replications: int, cfg=BatteryConfig()) -> list:
    """Each replication's decision, computed apart from revcheck's fitting
    and testing code: one generated dataset at a time, numpy.linalg.lstsq
    for the fits and scipy.stats.t for the p-values."""
    statistics = []
    for r in range(replications):
        columns = _generate_with_rng(kind, rng_for(seed, r)).columns
        if test.kind == "coefficient":
            y = columns[test.response]
            design = np.column_stack([np.ones(len(y))] + [columns[name] for name in test.regressors])
            coef = np.linalg.lstsq(design, y, rcond=None)[0]
            resid = y - design @ coef
            df = len(y) - design.shape[1]
            index = 1 + test.regressors.index(test.target)
            se = math.sqrt(float(resid @ resid) / df * np.linalg.inv(design.T @ design)[index, index])
            statistics.append((coef[index] - test.null_value) / se)
            continue
        x, y = columns[test.x], columns[test.y]
        if test.kind == "corrected_correlation":
            n, lags = len(x), cfg.lag_count
            s = np.arange(1, n + 1) / n
            trend = np.column_stack([s**k for k in range(cfg.trend_degree + 1)])
            cleaned = []
            for v in (x, y):
                v = _lstsq_residuals(trend, v)
                lagged = np.column_stack([np.ones(n - lags)] + [v[lags - k : n - k] for k in range(1, lags + 1)])
                cleaned.append(_lstsq_residuals(lagged, v[lags:]))
            x, y = cleaned
        rho = float(np.corrcoef(x, y)[0, 1])
        df = len(x) - 2
        statistics.append(rho * math.sqrt(df / (1.0 - rho * rho)))
    p = 2.0 * stats.t.sf(np.abs(statistics), df)
    return (p < cfg.alpha).tolist()


def _coefficient_rejects(result, index: int, null_value: float, alpha: float) -> bool:
    """The two-sided t-test at alpha that coefficient `index` of a fit equals null_value."""
    df = result.n_used - len(result.coefficients)
    diff = result.coefficients[index] - null_value
    p = regression._coefficient_p(diff, result.std_errors[index], df, core_stats._RAISE)[1]
    return bool(p < alpha)


def _per_dataset_decisions(kind, seed: int, test: TestDescriptor, replications: int, cfg=BatteryConfig()) -> list:
    """Each replication's decision through the public per-dataset functions."""
    decisions = []
    for r in range(replications):
        data = _generate_with_rng(kind, rng_for(seed, r))
        if test.kind == "coefficient":
            result = fit(data, ModelSpec(response=test.response, regressors=test.regressors))
            decision = _coefficient_rejects(result, result.index_of(test.target), test.null_value, cfg.alpha)
        elif test.kind == "naive_correlation":
            decision = naive_correlation_test(data.column(test.x), data.column(test.y))[1] < cfg.alpha
        else:
            corrected = corrected_correlation(Series(data.column(test.x)), Series(data.column(test.y)), cfg)
            decision = corrected.p_value < cfg.alpha
        decisions.append(bool(decision))
    return decisions


_NIID = NiidRegression(joint=joint_moments_from_correlations(0.5, 0.7, 0.8), n=100)
_TWO_GROUP = TwoGroupRegression(
    intercepts=(1.0, 1.0),
    slopes=(0.2, 0.2),
    x_means=(0.0, 0.0),
    x_sd=1.0,
    noise_sds=(1.0, 1.0),
    group_sizes=(20, 30),
)
_PAIRINGS = {
    "niid-coefficient": (
        _NIID,
        TestDescriptor(
            kind="coefficient",
            regressors=("x1", "x2"),
            target="x1",
            null_value=derive_full_params(_NIID.joint).beta1,
        ),
    ),
    "trending-naive": (TrendingPair(), TestDescriptor(kind="naive_correlation")),
    "trending-corrected": (TrendingPair(), TestDescriptor(kind="corrected_correlation")),
    "two-group-coefficient": (
        _TWO_GROUP,
        TestDescriptor(kind="coefficient", regressors=("x",), target="x", null_value=0.2),
    ),
    "two-group-naive": (_TWO_GROUP, TestDescriptor(kind="naive_correlation")),
}


@pytest.mark.parametrize(
    "kind, test",
    [
        _PAIRINGS["niid-coefficient"],
        _PAIRINGS["trending-naive"],
        _PAIRINGS["two-group-coefficient"],
        (BernoulliIid(theta=0.5, n=40), TestDescriptor(kind="naive_correlation", x="x", y="x")),
    ],
)
def test_study_draws_each_replication_from_its_own_stream(kind, test, monkeypatch):
    drawn = []

    def recording(kind, rngs):
        columns = draw_columns(kind, rngs)
        drawn.append({name: rows.copy() for name, rows in columns.items()})
        return columns

    draw_columns = simulate._draw_columns
    monkeypatch.setattr(simulate, "_draw_columns", recording)
    mc_error_rate(kind, 2026, test, replications=1000)
    assert [len(next(iter(block.values()))) for block in drawn] == [256, 256, 256, 232]
    for (start, stop), block in zip(_blocks(0, 1000), drawn):
        for r in range(start, stop):
            expected = _generate_with_rng(kind, rng_for(2026, r)).columns
            assert sorted(block) == sorted(expected)
            for name, values in expected.items():
                assert np.array_equal(block[name][r - start], values), (r, name)


def test_study_with_a_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        mc_error_rate(TrendingPair(), -1, TestDescriptor(kind="naive_correlation"), replications=1000)


@pytest.mark.parametrize("pairing", sorted(_PAIRINGS))
@pytest.mark.parametrize("seed", [0, 11, 2026])
def test_batched_study_matches_per_dataset_reference(pairing, seed):
    # 1,000 and 1,300 replications both end in a partial block of 256.
    kind, test = _PAIRINGS[pairing]
    decisions = _reference_rejections(kind, seed, test, 1300)
    for replications in (1000, 1300):
        result = mc_error_rate(kind, seed, test, replications=replications)
        assert result.rejections == sum(decisions[:replications])


_ALL_ZERO = BernoulliIid(theta=0.0, n=20)


@pytest.mark.parametrize(
    "kind, test, error, cfg",
    [
        (_ALL_ZERO, TestDescriptor(kind="naive_correlation", x="x", y="x"), InvalidSpec, BatteryConfig()),
        (_NIID, TestDescriptor(kind="coefficient", regressors=("x1", "z"), target="x1"), UnknownColumn, BatteryConfig()),
        (_NIID, TestDescriptor(kind="coefficient", regressors=("x1",), target="x2"), UnknownColumn, BatteryConfig()),
        (_ALL_ZERO, TestDescriptor(kind="corrected_correlation", x="x", y="x"), Underdetermined, BatteryConfig()),
        (
            TrendingPair(n=12),
            TestDescriptor(kind="corrected_correlation"),
            Underdetermined,
            BatteryConfig(trend_degree=1, lag_count=6),
        ),
        (TrendingPair(n=60), TestDescriptor(kind="corrected_correlation"), RankDeficient, BatteryConfig(trend_degree=16)),
    ],
)
def test_batched_study_raises_what_the_per_dataset_path_raises(kind, test, error, cfg):
    with pytest.raises(error):
        _per_dataset_decisions(kind, 3, test, 1000, cfg)
    with pytest.raises(error):
        mc_error_rate(kind, 3, test, cfg, replications=1000)


def test_batched_study_reports_the_first_failing_replication():
    # All-zero draws are rare at this size, so the first one falls inside a
    # later block; the per-dataset path fails there with the same error.
    kind = BernoulliIid(theta=0.05, n=150)
    first = None
    for r in range(5000):
        x = _generate_with_rng(kind, rng_for(1, r)).column("x")
        try:
            naive_correlation_test(x, x)
        except InvalidSpec:
            first = r
            break
    assert first is not None and first >= 256
    test = TestDescriptor(kind="naive_correlation", x="x", y="x")
    with pytest.raises(InvalidSpec, match=f"^replication {first}: a column has zero variance$"):
        mc_error_rate(kind, 1, test, replications=5000)


# x_sd * z overflows to inf wherever |z| exceeds about 1.8.
_OVERFLOWING = TwoGroupRegression(
    intercepts=(0, 0), slopes=(1, 1), x_means=(0, 0), x_sd=1e308, noise_sds=(1, 1), group_sizes=(20, 20)
)


def test_generation_that_overflows_raises_non_finite_input():
    with pytest.raises(NonFiniteInput, match="^column 'x' contains non-finite values$"):
        generate(_OVERFLOWING, 0)


def test_study_that_overflows_raises_non_finite_input_at_replication_0():
    # Replication 0 fails while its block is generated, before any check of
    # the test runs.
    test = TestDescriptor(kind="naive_correlation")
    with pytest.raises(NonFiniteInput, match="^replication 0: column 'x' contains non-finite values$"):
        mc_error_rate(_OVERFLOWING, 0, test, replications=1000)


def test_batched_study_names_the_column_detrended_to_constant():
    # All-zero draws leave column x constant after detrending.
    test = TestDescriptor(kind="corrected_correlation", x="x", y="x")
    with pytest.raises(Underdetermined) as caught:
        mc_error_rate(BernoulliIid(theta=0.0, n=20), 3, test, replications=1000)
    assert str(caught.value) == (
        "replication 0: detrending of degree 3 (--trend-degree) leaves 'x' constant, "
        "so the corrected correlation cannot be computed"
    )


def test_block_errors_follow_the_first_failing_replication():
    errors = simulate._FirstError(start=512)
    rows = np.arange(8)
    errors.flag(np.isin(rows, [5, 6]), Underdetermined, "a later check")
    errors.flag(rows == 3, InvalidSpec, "row 3")
    errors.flag(rows == 3, UnknownColumn, "a check after the one row 3 failed")
    with pytest.raises(InvalidSpec, match="^replication 515: row 3$"):
        errors.raise_first()
    # A check every replication fails is first met by the block's first row...
    with pytest.raises(UnknownColumn, match="^replication 512: "):
        errors.stop(UnknownColumn, "no column named 'z'")
    # ...unless that row already failed an earlier check.
    errors = simulate._FirstError(start=0)
    errors.flag(rows == 0, InvalidSpec, "an earlier check")
    with pytest.raises(InvalidSpec, match="^replication 0: an earlier check$"):
        errors.stop(UnknownColumn, "no column named 'z'")


def test_batched_study_makes_no_per_replication_calls(monkeypatch):
    # Guards against a silent fallback to testing one replication at a time,
    # or to seeding one generator per replication.
    originals = (
        core_stats.sample_moments,
        misspec.detrend,
        misspec.dememorize,
        misspec.corrected_correlation,
        regression.fit,
        simulate.naive_correlation_test,
        simulate.rng_for,
        np.random.SeedSequence,
    )
    watched = dict.fromkeys(originals, 0)

    def counting(func):
        def wrapper(*args, **kwargs):
            watched[func] += 1
            return func(*args, **kwargs)

        return wrapper

    for name, module in list(sys.modules.items()):
        if name == "revcheck" or name.startswith("revcheck."):
            for attr, value in list(vars(module).items()):
                if any(value is func for func in watched):
                    monkeypatch.setattr(module, attr, counting(value))
    monkeypatch.setattr(np.random, "SeedSequence", counting(np.random.SeedSequence))

    # The counters see calls made through any module's binding.
    x, y = Series(np.arange(30.0) ** 1.5), Series(np.cos(np.arange(30.0)))
    regression.fit(_generate_with_rng(_NIID, rng_for(0)), ModelSpec(response="y", regressors=("x1",)))
    misspec.corrected_correlation(x, y)
    misspec.dememorize(misspec.detrend(x))
    simulate.naive_correlation_test(x.values, y.values)
    simulate.example3_generator()
    assert all(count >= 1 for count in watched.values()), watched
    watched.update(dict.fromkeys(originals, 0))
    for pairing in ("trending-corrected", "trending-naive", "niid-coefficient"):
        kind, test = _PAIRINGS[pairing]
        assert mc_error_rate(kind, 4, test, replications=1000).replications == 1000
    assert all(count == 0 for count in watched.values()), watched
