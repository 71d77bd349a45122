import math
import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest
from scipy import special

from revcheck import core_stats
from revcheck.core_stats import (
    _RAISE,
    ChiSquare,
    FisherF,
    Normal,
    Series,
    StudentT,
    _solve,
    _incomplete_beta,
    _tail,
    sample_moments,
    tail_prob,
)
from revcheck.errors import (
    EmptyData,
    InvalidDegreesOfFreedom,
    MismatchedInputs,
    NonFiniteInput,
    RankDeficient,
    Underdetermined,
)


def solve_by_cofactors(design, response):
    """Independent normal-equations route for p <= 3: adjugate over determinant."""
    design = np.asarray(design, dtype=float)
    a = design.T @ design
    b = design.T @ np.asarray(response, dtype=float)
    p = a.shape[0]
    if p == 1:
        inv = np.array([[1.0 / a[0, 0]]])
    elif p == 2:
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]]) / det
    else:
        det = (
            a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
            - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
            + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
        )
        cof = np.empty((3, 3))
        for i in range(3):
            for j in range(3):
                minor = np.delete(np.delete(a, i, axis=0), j, axis=1)
                cof[i, j] = (-1) ** (i + j) * (minor[0, 0] * minor[1, 1] - minor[0, 1] * minor[1, 0])
        inv = cof.T / det
    return inv @ b


def test_series_basic():
    s = Series([1.0, 2.0, 3.0], label="x")
    assert s.values.shape == (3,)
    assert s.label == "x"


def test_series_rejects_empty_and_nonfinite():
    with pytest.raises(EmptyData):
        Series([])
    with pytest.raises(NonFiniteInput):
        Series([1.0, np.nan])
    with pytest.raises(MismatchedInputs):
        Series([[1.0, 2.0]])


def test_sample_moments_hand_case():
    # x = (1,2,3), y = (2,4,9): means (2,5); 1/n covariances 2/3, 26/3, 7/3.
    data = np.column_stack([[1.0, 2.0, 3.0], [2.0, 4.0, 9.0]])
    m = sample_moments(data)
    assert m.n == 3
    assert np.allclose(m.means, [2.0, 5.0])
    assert math.isclose(m.cov[0, 0], 2.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(m.cov[1, 1], 26.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(m.cov[0, 1], 7.0 / 3.0, rel_tol=1e-12)
    assert math.isclose(m.corr[0, 1], 7.0 / math.sqrt(52.0), rel_tol=1e-12)
    assert m.corr[0, 0] == 1.0


def test_sample_moments_zero_variance_column():
    data = np.column_stack([[1.0, 1.0, 1.0], [2.0, 4.0, 9.0]])
    m = sample_moments(data)
    assert m.cov[0, 0] == 0.0
    assert np.isnan(m.corr[0, 1])
    assert m.corr[0, 0] == 1.0 and m.corr[1, 1] == 1.0


def test_sample_moments_rejects_empty():
    with pytest.raises(EmptyData):
        sample_moments(np.empty((0, 2)))


def test_least_squares_hand_case():
    # Design rows (1,0), (1,1), (1,2) with response (0,1,1):
    # normal equations give intercept 1/6 and slope 1/2, rss = 1/6.
    design = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]])
    response = np.array([0.0, 1.0, 1.0])
    sol = _solve(design, response, _RAISE)
    assert np.allclose(sol.coefficients, [1.0 / 6.0, 0.5], atol=1e-14)
    assert math.isclose(sol.residuals @ sol.residuals, 1.0 / 6.0, rel_tol=1e-12)
    assert np.allclose(sol.xtx_inverse, np.array([[5.0, -3.0], [-3.0, 3.0]]) / 6.0, atol=1e-13)
    assert sol.condition >= 1.0


def test_least_squares_matches_cofactor_oracle():
    rng = np.random.default_rng(314)
    for p in (1, 2, 3):
        for n in (p + 2, p + 5, 40):
            design = rng.standard_normal((n, p))
            response = rng.standard_normal(n)
            sol = _solve(design, response, _RAISE)
            oracle = solve_by_cofactors(design, response)
            assert np.allclose(sol.coefficients, oracle, rtol=1e-9, atol=1e-9)


def test_least_squares_residuals_orthogonal_to_design():
    rng = np.random.default_rng(11)
    design = np.column_stack([np.ones(30), rng.standard_normal(30)])
    response = rng.standard_normal(30)
    sol = _solve(design, response, _RAISE)
    assert np.allclose(design.T @ sol.residuals, 0.0, atol=1e-10)


def test_least_squares_error_paths():
    with pytest.raises(Underdetermined):
        _solve(np.ones((2, 2)), np.zeros(2), _RAISE)
    x = np.linspace(0.0, 1.0, 10)
    with pytest.raises(RankDeficient):
        _solve(np.column_stack([x, x]), np.zeros(10), _RAISE)


class RecordingSink:
    """An error sink that keeps every flagged check instead of raising."""

    def __init__(self):
        self.flags = []

    def flag(self, bad, error, message):
        self.flags.append((np.asarray(bad).copy(), error, message))

    def stop(self, error, message):
        raise error(message)


def lstsq_rows(design, response):
    """Per-row numpy.linalg.lstsq coefficients and residuals."""
    design = np.broadcast_to(design, response.shape[:1] + design.shape[-2:])
    coefficients = np.array([np.linalg.lstsq(X, y, rcond=None)[0] for X, y in zip(design, response)])
    residuals = response - np.einsum("rij,rj->ri", design, coefficients)
    return coefficients, residuals


@pytest.mark.parametrize("shared", ["none", "leading-1", "no-leading-axis"])
def test_stacked_least_squares_matches_lstsq(shared):
    rng = np.random.default_rng(71)
    rows, n, p = 7, 25, 4
    design = rng.standard_normal((rows, n, p))
    if shared == "leading-1":
        design = design[:1]
    elif shared == "no-leading-axis":
        design = design[0]
    response = rng.standard_normal((rows, n))
    solves = _solve(design, response, _RAISE)
    coefficients, residuals = lstsq_rows(design, response)
    assert solves.coefficients.shape == (rows, p)
    assert np.allclose(solves.coefficients, coefficients, rtol=1e-10, atol=1e-12)
    assert np.allclose(solves.residuals, residuals, rtol=1e-10, atol=1e-12)
    # R is the design's triangular factor and Q'y its rotated response.
    full = np.broadcast_to(design, (rows, n, p))
    assert np.allclose(np.swapaxes(solves.r, -1, -2) @ solves.r, np.swapaxes(full, -1, -2) @ full)
    assert np.allclose(np.einsum("...ij,...j->...i", solves.r, solves.coefficients), solves.qty)
    assert not solves.singular.any() and not solves.ill_conditioned.any()
    # One row solved alone is the batch-of-one case.
    single = _solve(full[3], response[3], _RAISE)
    assert np.allclose(single.coefficients, solves.coefficients[3], rtol=1e-12, atol=1e-14)
    assert math.isclose(single.residuals @ single.residuals, float(residuals[3] @ residuals[3]), rel_tol=1e-10)


def test_stacked_least_squares_flags_rank_deficient_rows():
    rng = np.random.default_rng(72)
    n = 30
    x = rng.standard_normal(n)
    good = np.column_stack([np.ones(n), x])
    singular = np.column_stack([np.ones(n), np.zeros(n)])
    ill = np.column_stack([x, x + 1e-12 * rng.standard_normal(n)])
    design = np.stack([good, singular, good, ill])
    response = rng.standard_normal((4, n))
    sink = RecordingSink()
    solves = _solve(design, response, sink)
    assert solves.singular.tolist() == [False, True, False, False]
    assert solves.ill_conditioned.tolist() == [False, False, False, True]
    assert solves.condition[3] > 1e10
    assert [(bad.tolist(), error) for bad, error, _ in sink.flags] == [
        ([False, True, False, False], RankDeficient),
        ([False, False, False, True], RankDeficient),
    ]
    assert sink.flags[0][2] == "design matrix is exactly rank deficient"
    assert sink.flags[1][2] == f"design condition estimate {solves.condition[3]:.3e} exceeds 1.0e+10"
    # Flagged rows never stop the others.
    coefficients, _ = lstsq_rows(design[[0, 2]], response[[0, 2]])
    assert np.allclose(solves.coefficients[[0, 2]], coefficients, rtol=1e-10)
    with pytest.raises(RankDeficient, match="exceeds"):
        _solve(ill, response[3], _RAISE)


needs_blas_setter = pytest.mark.skipif(
    core_stats._ONE_BLAS_THREAD is None, reason="numpy's BLAS exports no OpenBLAS thread-count setter"
)


@pytest.fixture
def blas_threads():
    """The OpenBLAS (get, set) pair, set to 2 threads; the count found is restored afterwards."""
    get, set_ = core_stats._ONE_BLAS_THREAD.get, core_stats._ONE_BLAS_THREAD.set
    before = get()
    set_(2)
    assert get() == 2
    yield get, set_
    set_(before)


@needs_blas_setter
def test_solves_restore_the_callers_blas_thread_count(blas_threads):
    get, _ = blas_threads
    rng = np.random.default_rng(81)
    x = rng.standard_normal(30)
    _solve(np.column_stack([np.ones(30), x]), rng.standard_normal(30), _RAISE)
    assert get() == 2
    with pytest.raises(RankDeficient):
        _solve(np.column_stack([np.ones(30), np.zeros(30)]), x, _RAISE)
    assert get() == 2
    with pytest.raises(Underdetermined):
        _solve(np.ones((2, 2)), x[:2], _RAISE)
    assert get() == 2


@needs_blas_setter
def test_solves_run_on_one_blas_thread(blas_threads, monkeypatch):
    get, _ = blas_threads
    seen = []
    qr = np.linalg.qr

    def recording_qr(a):
        seen.append(get())
        return qr(a)

    monkeypatch.setattr(core_stats.np.linalg, "qr", recording_qr)
    rng = np.random.default_rng(82)
    _solve(rng.standard_normal((50, 3)), rng.standard_normal(50), _RAISE)
    assert seen == [1]


@needs_blas_setter
def test_concurrent_solves_restore_the_callers_blas_thread_count(blas_threads):
    # Unlocked, one thread's solve could save another's cap of 1 as "the
    # caller's count" and restore it last.
    get, _ = blas_threads
    rng = np.random.default_rng(85)
    design, response = rng.standard_normal((200, 4)), rng.standard_normal(200)
    workers = [
        threading.Thread(target=lambda: [_solve(design, response, _RAISE) for _ in range(50)])
        for _ in range(2 * (os.cpu_count() or 1) + 2)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert get() == 2


@needs_blas_setter
@pytest.mark.parametrize("shape", [(5000, 8), (256, 46, 4)])
def test_one_thread_solves_are_bit_identical(blas_threads, monkeypatch, shape):
    rng = np.random.default_rng(83)
    design = rng.standard_normal(shape)
    response = rng.standard_normal(shape[:-1])
    capped = _solve(design, response, _RAISE)
    monkeypatch.setattr(core_stats, "_ONE_BLAS_THREAD", None)
    uncapped = _solve(design, response, _RAISE)
    for name in ("coefficients", "residuals", "r", "qty", "condition"):
        assert np.array_equal(getattr(capped, name), getattr(uncapped, name)), name


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/maps")
def test_thread_setter_is_found_when_openblas_is_loaded():
    # Without this, a wheel that renames its OpenBLAS symbols would leave
    # solves uncapped without any test failing.
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if len(line.split()) >= 6}
    if not any("openblas" in os.path.basename(path).lower() for path in paths):
        pytest.skip("no OpenBLAS library is loaded")
    assert core_stats._ONE_BLAS_THREAD is not None


@needs_blas_setter
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one core cannot be oversubscribed")
def test_tall_solves_keep_one_core_busy():
    # An idle OpenBLAS worker spinning beside the solve shows as process
    # CPU time well above wall time (about 2 with two threads). OpenBLAS's
    # workers also spin for 0.1-0.15 s after numpy starts them, whatever
    # runs, so the timing starts once a 50 ms sleep costs little CPU.
    code = textwrap.dedent(
        """
        import time
        import numpy as np
        from revcheck.core_stats import _RAISE, _solve

        rng = np.random.default_rng(84)
        design = np.column_stack([np.ones(5000), rng.standard_normal((5000, 7))])
        response = rng.standard_normal(5000)
        _solve(design, response, _RAISE)
        for _ in range(40):
            cpu = time.process_time()
            time.sleep(0.05)
            if time.process_time() - cpu < 0.01:
                break
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(20):
            _solve(design, response, _RAISE)
        print((time.process_time() - cpu) / (time.perf_counter() - wall))
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(core_stats.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 1.4


# Frozen tail probabilities, computed by numerical quadrature of the
# densities (scipy.integrate.quad on lgamma-normalized pdfs), independent
# of the incomplete-beta/gamma route the implementation uses.
QUAD_ORACLE = [
    (StudentT(5), 2.0, "one", 0.05096973941492914),
    (FisherF(3, 7), 2.5, "one", 0.14350945627885367),
    (ChiSquare(4), 7.3, "one", 0.12085874882121236),
    (Normal(), 1.96, "one", 0.024997895148220435),
]


def test_tail_prob_against_quadrature_oracle():
    for dist, stat, sides, expected in QUAD_ORACLE:
        assert math.isclose(tail_prob(dist, stat, sides), expected, rel_tol=0, abs_tol=1e-10)


def test_tail_prob_two_sided_symmetric():
    # t(7) two-sided at its .975 quantile is .05 by construction.
    assert math.isclose(tail_prob(StudentT(7), 2.364624251592785, "two"), 0.05, abs_tol=1e-9)
    assert math.isclose(tail_prob(Normal(), 1.9599639845400545, "two"), 0.05, abs_tol=1e-9)
    assert math.isclose(
        tail_prob(StudentT(7), -2.364624251592785, "two"), 0.05, abs_tol=1e-9
    )


def test_tail_prob_two_sided_asymmetric_uses_smaller_tail():
    # F(3,7) at 0.2 sits in the lower tail: cdf(0.2) = 0.10683204433751008
    # by quadrature, so the two-sided value doubles that side.
    expected = 2 * 0.10683204433751008
    assert math.isclose(tail_prob(FisherF(3, 7), 0.2, "two"), expected, abs_tol=1e-9)
    upper = tail_prob(FisherF(3, 7), 2.5, "one")
    assert math.isclose(tail_prob(FisherF(3, 7), 2.5, "two"), 2 * upper, abs_tol=1e-12)


def test_tail_prob_monotone_in_statistic():
    stats = np.linspace(0.1, 5.0, 25)
    for dist in (StudentT(9), FisherF(2, 11), ChiSquare(3), Normal()):
        probs = [tail_prob(dist, s, "one") for s in stats]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert all(0.0 <= p <= 1.0 for p in probs)


def test_tail_prob_extremes():
    assert tail_prob(ChiSquare(2), 0.0, "one") == pytest.approx(1.0)
    assert tail_prob(Normal(), 40.0, "one") < 1e-300
    assert tail_prob(StudentT(3), 0.0, "two") == pytest.approx(1.0)


def test_tail_prob_error_paths():
    with pytest.raises(InvalidDegreesOfFreedom):
        tail_prob(StudentT(0), 1.0, "one")
    with pytest.raises(InvalidDegreesOfFreedom):
        tail_prob(FisherF(2, 0), 1.0, "one")
    with pytest.raises(NonFiniteInput):
        tail_prob(Normal(), float("nan"), "one")
    with pytest.raises(MismatchedInputs):
        tail_prob(Normal(), 1.0, "both")


def test_tail_on_arrays_equals_scalar_tail_prob():
    # The stacked tests take p-values from _tail on arrays, and reports
    # from tail_prob on floats: the two paths must agree bit for bit.
    stats = np.concatenate([np.linspace(-9.0, 9.0, 181), [-0.0, 1e-300, -1e-300, 40.0, -40.0]])
    dists = [StudentT(df) for df in (1, 3, 42, 97)]
    dists += [Normal(), FisherF(3, 7), FisherF(40, 2), ChiSquare(1), ChiSquare(5)]
    for dist in dists:
        for sides in ("one", "two"):
            expected = [tail_prob(dist, value, sides) for value in stats]
            assert _tail(dist, stats, sides).tolist() == expected


def test_two_sided_tail_of_a_negative_t_folds_its_upper_tail():
    # Below 0 the upper tail is 1 - half, and the two-sided p is twice
    # 1 - (1 - half), which is not 2 * half in floating point.
    df, t = 97, -9.0
    half = 0.5 * _incomplete_beta(df / 2.0, 0.5, t * t / df)
    assert 2.0 * (1.0 - (1.0 - half)) != 2.0 * half
    assert tail_prob(StudentT(df), t, "two") == 2.0 * (1.0 - (1.0 - half))


# Accuracy of every tail against scipy.special, which revcheck does not load
# at run time. Errors are relative, where scipy's p is at least 1e-300. For F
# the floor is 1e-250: below it scipy's fdtrc is itself wrong for some dfs;
# at F(40, 5000) = 43.52 the exact p is 1.03e-288 (50-digit mpmath), and
# scipy's differs from it by 100%.
ACCURACY_STATS = np.geomspace(1e-3, 1e3, 49)
T_DFS = (1, 1.5, 2, 3, 4.7, 7, 10, 21, 42, 44, 97, 250.5, 1000, 4998, 20000)
F_DF1S = (1, 2, 3.5, 5, 12, 40, 100, 500, 2500)
F_DF2S = (1, 2, 3, 7.5, 20, 97, 1000, 5000, 20000)
CHI_SQUARE_DFS = (1, 2, 3, 4.5, 7, 10, 25, 99, 399, 1000)


def scipy_tails(dist, stat):
    """scipy.special's (upper, lower) tails of dist at stat."""
    if isinstance(dist, StudentT):
        return special.stdtr(dist.df, -stat), special.stdtr(dist.df, stat)
    if isinstance(dist, FisherF):
        return special.fdtrc(dist.df1, dist.df2, stat), special.fdtr(dist.df1, dist.df2, stat)
    if isinstance(dist, ChiSquare):
        return special.chdtrc(dist.df, stat), special.chdtr(dist.df, stat)
    return special.ndtr(-stat), special.ndtr(stat)


def tail_errors(dist, stats, floor=1e-300):
    """Largest relative error of the one- and two-sided tails at stats, on
    an array and on floats, against scipy where its p is at least floor."""
    upper, lower = scipy_tails(dist, stats)
    worst = 0.0
    for sides, expected in (("one", upper), ("two", 2.0 * np.minimum(upper, lower))):
        on_floats = np.array([tail_prob(dist, value, sides) for value in stats.tolist()])
        for got in (_tail(dist, stats, sides), on_floats):
            kept = expected >= floor
            # A two-sided p whose lower tail is the smaller one is 2 (1 - upper),
            # exact only to the rounding of 1 - upper.
            slack = 0.0 if sides == "one" else 4e-16
            excess = np.maximum(np.abs(got[kept] - expected[kept]) - slack, 0.0)
            worst = max(worst, float(np.max(excess / expected[kept], initial=0.0)))
    return worst


@pytest.mark.parametrize("df", T_DFS)
def test_student_t_tail_matches_scipy(df):
    stats = np.concatenate([ACCURACY_STATS, -ACCURACY_STATS[::4]])
    assert tail_errors(StudentT(df), stats) <= 1e-10


@pytest.mark.parametrize("df1", F_DF1S)
def test_f_tail_matches_scipy(df1):
    for df2 in F_DF2S:
        assert tail_errors(FisherF(df1, df2), ACCURACY_STATS, floor=1e-250) <= 1e-10, (df1, df2)


def test_chi_square_and_normal_tails_match_scipy():
    for df in CHI_SQUARE_DFS:
        assert tail_errors(ChiSquare(df), np.geomspace(1e-3, 3000, 61)) <= 1e-10, df
    assert tail_errors(Normal(), np.linspace(-38.0, 38.0, 153)) <= 1e-10


def test_tails_at_very_large_df_match_scipy_to_the_check_tolerance():
    # The benchmark's output checks compare p-values at rtol 1e-6.
    for df in (5e4, 1e6, 1e7):
        assert tail_errors(StudentT(df), ACCURACY_STATS) <= 1e-6, df
    for df1, df2 in ((1, 1e7), (40, 1e6), (1e7, 3), (2500, 1e7), (1e6, 1e6), (1e7, 1e7)):
        assert tail_errors(FisherF(df1, df2), ACCURACY_STATS, floor=1e-250) <= 1e-6, (df1, df2)


@pytest.mark.parametrize(
    "dist, stats",
    [
        (StudentT(1), np.linspace(-60.0, 60.0, 4001)),
        (StudentT(44), np.linspace(-12.0, 12.0, 4001)),
        (StudentT(4998), np.linspace(-8.0, 8.0, 4001)),
        (Normal(), np.linspace(-38.0, 38.0, 4001)),
        (FisherF(3, 40), np.linspace(0.0, 60.0, 4001)),
        (FisherF(2498, 2498), np.linspace(0.5, 2.0, 4001)),
        (ChiSquare(1), np.linspace(0.0, 200.0, 4001)),
        (ChiSquare(399), np.linspace(200.0, 700.0, 4001)),
    ],
    ids=["t1", "t44", "t4998", "normal", "f3-40", "f2498-2498", "chi1", "chi399"],
)
def test_tail_is_monotone_and_a_probability(dist, stats):
    # Dense grids cross each kernel's switch between its two fractions.
    upper = _tail(dist, stats, "one")
    assert np.all(np.diff(upper) <= 0.0)
    assert np.all((upper >= 0.0) & (upper <= 1.0))
    two = _tail(dist, stats, "two")
    assert np.all((two >= 0.0) & (two <= 1.0))
