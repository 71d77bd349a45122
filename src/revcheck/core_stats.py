"""Numerical primitives: sample moments, least squares, tail probabilities.

Everything downstream (regression fits, diagnostic batteries, contingency
tests) is built on the three operations in this module, so their contracts
are kept deliberately narrow and strict: finite inputs only, explicit errors
instead of NaN propagation, and a documented divisor convention.

Least squares, correlations and their t-tests work on stacked rows, one
problem per row: a per-dataset call is the batch-of-one case, and a size
study runs the same code on a block of replications. `_solve` is the one
least-squares solver, and `regression._ols`, which builds every design
(model fits, auxiliary regressions, detrend, dememorize), its one caller.
Tail probabilities have one elementwise implementation, `_tail`:
`tail_prob` checks its arguments and calls it on one float, and stacked
tests call it on arrays, with the same arithmetic bit for bit. Its two kernels, the regularized incomplete beta and upper
incomplete gamma functions, are continued fractions of a fixed depth,
computed with numpy and `math` alone. Against scipy.special their largest
relative error is below 1e-12 for Student t (df up to 20,000), F (df up
to 2,500 and 20,000), chi-square (df up to 1,000) and the Normal, down to
p = 1e-300, and below 1e-9 for t and F with df up to 1e7. Checks report
to an error sink: `flag(mask, error, message)` for the rows that fail,
`stop` for a check every row fails. Per-dataset calls pass `_RAISE`,
which raises at once.

Every least-squares solve runs with numpy's OpenBLAS capped at one thread:
the designs revcheck factors gain no wall time from a second BLAS thread,
whose idle worker would only spin on another core. The thread count is a
process-wide OpenBLAS setting, so each solve restores the caller's count
when it returns or raises. Where numpy's BLAS is not an OpenBLAS whose
thread-count functions can be found, solves run under the BLAS's own
threading.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (
    EmptyData,
    InvalidDegreesOfFreedom,
    MismatchedInputs,
    NonFiniteInput,
    RankDeficient,
    Underdetermined,
)

# Ceiling on the design-matrix condition number before a fit is declared
# rank deficient.
COND_MAX = 1e10


class _Raise:
    """The per-dataset error sink: a failed check raises at once."""

    def flag(self, bad, error: type, message: str) -> None:
        if np.any(bad):
            raise error(message)

    def stop(self, error: type, message: str) -> None:
        raise error(message)


_RAISE = _Raise()


class _OneBlasThread:
    """Context manager capping OpenBLAS at one thread while any solve runs.

    The thread count is process-wide, so solves running at once in several
    threads share one cap: the first to enter saves the caller's count and
    sets 1, and the last to leave restores the saved count.
    """

    def __init__(self, get, set_):
        self.get, self.set = get, set_
        self._lock = threading.Lock()
        self._active = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = self.get()
                self.set(1)
            self._active += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self.set(self._saved)


def _openblas_one_thread():
    """A _OneBlasThread for the OpenBLAS numpy's linalg uses, or None.

    dlsym on the handle of the extension that links OpenBLAS also searches
    that library, so this finds it whatever its file is called. The names
    are those OpenBLAS builds export: the scipy-openblas wheels numpy has
    bundled since 2.0 add a `scipy_` prefix, and 64-bit-integer builds a
    `64_` or `_64` suffix.
    """
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except OSError:
        return None
    for prefix in ("scipy_", ""):
        for suffix in ("64_", "_64", ""):
            try:
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            set_.argtypes, set_.restype = (ctypes.c_int,), None
            return _OneBlasThread(get, set_)
    return None


_ONE_BLAS_THREAD = _openblas_one_thread()


def _as_finite_array(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise EmptyData(f"{name} must have at least 1 row(s)")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True)
class Series:
    """A single labeled column of finite observations."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        arr = _as_finite_array(self.values, f"series {self.label!r}")
        if arr.ndim != 1:
            raise MismatchedInputs("a Series must be one-dimensional")
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SampleMoments:
    """First and second sample moments of an (n, k) data matrix.

    The covariance matrix uses the 1/n divisor, not 1/(n-1): these moments
    feed method-of-moments algebra where the raw average convention keeps
    the identities exact. Correlations for zero-variance columns are
    reported as NaN markers rather than numbers; the diagonal is exactly 1.
    """

    n: int
    means: np.ndarray
    cov: np.ndarray
    corr: np.ndarray


def sample_moments(data) -> SampleMoments:
    """Compute means, covariances (1/n divisor), and correlations.

    Args:
        data: array-like with shape (n, k) or (n,); rows are observations.

    Raises:
        EmptyData: on zero rows.
        NonFiniteInput: if any entry is NaN or infinite.
    """
    arr = _as_finite_array(data, "data")
    if arr.ndim == 1:
        arr = arr[:, None]
    n, k = arr.shape
    means = arr.mean(axis=0)
    centered = arr - means
    cov = (centered.T @ centered) / n
    sd = np.sqrt(np.diag(cov))
    corr = np.full((k, k), np.nan)
    nonzero = sd > 0
    if np.any(nonzero):
        idx = np.ix_(nonzero, nonzero)
        outer = np.outer(sd[nonzero], sd[nonzero])
        corr[idx] = cov[idx] / outer
    np.fill_diagonal(corr, 1.0)
    finite = np.isfinite(corr)
    corr[finite] = np.clip(corr[finite], -1.0, 1.0)
    return SampleMoments(n=n, means=means, cov=cov, corr=corr)


@dataclass(frozen=True)
class _Solves:
    """Stacked least-squares solutions, one per row (see `_solve`)."""

    coefficients: np.ndarray
    residuals: np.ndarray
    r: np.ndarray
    qty: np.ndarray
    condition: np.ndarray
    singular: np.ndarray
    ill_conditioned: np.ndarray

    @property
    def xtx_inverse(self) -> np.ndarray:
        """(X'X)^{-1} = R^{-1} R^{-T} for each row."""
        r_inv = np.linalg.inv(self.r)
        return r_inv @ np.swapaxes(r_inv, -1, -2)


def _solve(design: np.ndarray, response: np.ndarray, errors) -> _Solves:
    """min ||y - X b|| for each row, by reduced QR of X.

    design is (..., n, p) and response (..., n); a design without leading
    axes, or with a leading axis of 1, is shared by every row and factored
    once. Rows whose R is singular or whose condition estimate exceeds
    COND_MAX are flagged as rank deficient and solved against an identity R,
    so their numbers are meaningless but never stop the stacked solve.

    OpenBLAS runs the solve on one thread. Its thread count is process-wide,
    so the caller's count is restored on return and when a check raises.
    """
    if _ONE_BLAS_THREAD is None:
        return _qr_solve(design, response, errors)
    with _ONE_BLAS_THREAD:
        return _qr_solve(design, response, errors)


def _qr_solve(design: np.ndarray, response: np.ndarray, errors) -> _Solves:
    n, p = design.shape[-2:]
    if n <= p:
        errors.stop(Underdetermined, f"{n} observations cannot identify {p} parameters")
    q, r = np.linalg.qr(design)
    sv = np.linalg.svd(r, compute_uv=False)
    singular = sv[..., -1] <= 0
    with np.errstate(divide="ignore"):
        condition = sv[..., 0] / sv[..., -1]
    ill = ~singular & (condition > COND_MAX)
    errors.flag(singular, RankDeficient, "design matrix is exactly rank deficient")
    if np.any(ill):
        estimate = condition[ill].flat[0]  # the first ill-conditioned row's
        errors.flag(ill, RankDeficient, f"design condition estimate {estimate:.3e} exceeds {COND_MAX:.1e}")
    r = np.where((singular | ill)[..., None, None], np.eye(p), r)
    qty = np.swapaxes(q, -1, -2) @ response[..., None]
    coefficients = np.linalg.solve(r, qty)
    residuals = response - (design @ coefficients)[..., 0]
    return _Solves(coefficients[..., 0], residuals, r, qty[..., 0], condition, singular, ill)


def _correlation_test(x: np.ndarray, y: np.ndarray, df: int, errors, zero_variance: tuple) -> tuple:
    """Correlation of each row of x with the same row of y, as sample_moments
    gives it, and its two-sided t-test p-value on df degrees of freedom
    (p = 0 where |rho| = 1). Rows where a series is constant are flagged
    with zero_variance, an (error, message) pair."""
    n = x.shape[-1]
    cx = x - x.mean(axis=-1, keepdims=True)
    cy = y - y.mean(axis=-1, keepdims=True)
    cov, var_x, var_y = (np.einsum("...i,...i->...", a, b) / n for a, b in ((cx, cy), (cx, cx), (cy, cy)))
    sd_x, sd_y = np.sqrt(var_x), np.sqrt(var_y)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where((sd_x > 0) & (sd_y > 0), cov / (sd_x * sd_y), np.nan)
        errors.flag(~np.isfinite(rho), *zero_variance)
        rho = np.clip(rho, -1.0, 1.0)
        perfect = np.abs(rho) >= 1.0
        t = rho * np.sqrt(df / (1.0 - rho * rho))
    p = _t_test_p(t, df, np.isfinite(rho) & ~perfect, errors)
    return rho, np.where(perfect, 0.0, p)


@dataclass(frozen=True)
class StudentT:
    df: float


@dataclass(frozen=True)
class FisherF:
    df1: float
    df2: float


@dataclass(frozen=True)
class ChiSquare:
    df: float


@dataclass(frozen=True)
class Normal:
    pass


def _check_df(*dfs: float) -> None:
    for df in dfs:
        if not np.isfinite(df) or df < 1:
            raise InvalidDegreesOfFreedom(f"degrees of freedom {df!r} must be >= 1")


# Tail probabilities come from two kernels, each a continued fraction
# evaluated on either side of a switch point (Numerical Recipes, 3rd ed.,
# sec. 6.2 and 6.4): the regularized incomplete beta I_x(a, b) for Student t
# and F, and the regularized upper incomplete gamma Q(a, x) for chi-square
# and the Normal. Each fraction has the form 1 + c_1 x / (1 + c_2 x / ...),
# with a fixed number of terms that depends only on its parameters. Every
# x in a fraction's domain converges at least as fast as its edge, so the
# fraction is cut where Lentz's method converges at the edge. It is stored
# as its even contraction, 1 + c_1 x / (d_1 - n_1 / (d_2 - n_2 / ...)) with
# d_j = 1 + e_j x and n_j = f_j x^2, which halves the levels evaluated.
# Beyond df of about 1e7 the leading level cancels to O(1/df), and the
# relative error grows like df * 1e-16; F with both df past about 1e10 also
# meets the cap on terms.
_LENTZ_EPS = 1e-15
_LENTZ_TINY = 1e-300
_MAX_TERMS = 20_000
# Arrays this short are evaluated element by element on floats: the same
# arithmetic, without numpy's per-call cost on every level of a fraction.
_ELEMENTWISE = 6
_TINY = np.finfo(float).tiny
_HUGE = 1e300
# The gamma kernel's switch: x >= a + _GAMMA_SWITCH uses the upper fraction.
# At a + 1, the textbook switch, the upper fraction has 61 levels at a = 1/2
# (the Normal); at a + 3 it has 30. Further out, Q = 1 - P loses accuracy.
_GAMMA_SWITCH = 3.0


@dataclass(frozen=True)
class _Fraction:
    """1 + c1 x / (d_1 - n_1 / (d_2 - ...)), d_j = 1 + e_j x, n_j = f_j x^2; e, f deepest first."""

    c1: float
    e: tuple
    f: tuple


def _fraction(coefficient, edge: float) -> _Fraction:
    """The fraction with c_k = coefficient(k), cut where Lentz's method converges at x = edge."""
    cs = []
    c, d = 1.0, 0.0
    while len(cs) < _MAX_TERMS:
        cs.append(coefficient(len(cs) + 1))
        term = cs[-1] * edge
        d = 1.0 + term * d
        c = 1.0 + term / c
        d = 1.0 / (d if d != 0.0 else _LENTZ_TINY)
        c = c if c != 0.0 else _LENTZ_TINY
        if abs(c * d - 1.0) < _LENTZ_EPS:
            break
    # Levels 1..K//2 + 1 hold c_1..c_K; the terms past c_K are zero.
    levels = range(1, len(cs) // 2 + 2)
    cs += [0.0, 0.0, 0.0]
    e = [cs[1]] + [cs[2 * j - 2] + cs[2 * j - 1] for j in levels[1:]]
    f = [cs[2 * j - 1] * cs[2 * j] for j in levels]
    return _Fraction(cs[0], tuple(e[::-1]), tuple(f[::-1]))


def _evaluate(fraction: _Fraction, x):
    """The fraction at x, a float or an array, from its deepest level up."""
    if np.ndim(x):
        # Every level's d and n in two whole-array steps, then two steps a level.
        xx = x * x
        levels = zip(1.0 + np.multiply.outer(fraction.e, x), np.multiply.outer(fraction.f, xx))
    else:
        x = float(x)
        xx = x * x
        levels = ((1.0 + e * x, f * xx) for e, f in zip(fraction.e, fraction.f))
    t = 1.0
    for d, n in levels:
        t = d - n / t
    return 1.0 + fraction.c1 * x / t


def _branches(mask, value, first, second):
    """first(value) where mask holds and second(value) elsewhere, for a float or an array."""
    if np.ndim(value) == 0:
        return first(value) if mask else second(value)
    out = np.empty(np.shape(value))
    out[mask] = first(value[mask])
    out[~mask] = second(value[~mask])
    return out


@functools.lru_cache(maxsize=256)
def _beta_fraction(a: float, b: float) -> _Fraction:
    """I_x(a, b) = x^a (1 - x)^b / (a B(a, b) g(x)) for x <= (a + 1) / (a + b + 2)."""

    def coefficient(k):
        m = k // 2
        if k % 2:
            return -(a + m) * (a + b + m) / ((a + 2 * m) * (a + 2 * m + 1))
        return m * (b - m) / ((a + 2 * m - 1) * (a + 2 * m))

    return _fraction(coefficient, (a + 1.0) / (a + b + 2.0))


@functools.lru_cache(maxsize=256)
def _lower_gamma_fraction(a: float) -> _Fraction:
    """P(a, x) = x^a e^-x / (a Gamma(a) g(x)) for x < a + _GAMMA_SWITCH."""

    def coefficient(k):
        m = k // 2
        if k % 2:
            return -(a + m) / ((a + 2 * m) * (a + 2 * m + 1))
        return m / ((a + 2 * m - 1) * (a + 2 * m))

    return _fraction(coefficient, a + _GAMMA_SWITCH)


@functools.lru_cache(maxsize=256)
def _upper_gamma_fraction(a: float) -> _Fraction:
    """Q(a, x) = x^a e^-x / (x Gamma(a) g(1/x)) for x >= a + _GAMMA_SWITCH."""

    def coefficient(k):
        m = (k + 1) // 2
        return m - a if k % 2 else m

    return _fraction(coefficient, 1.0 / (a + _GAMMA_SWITCH))


def _stirling_remainder(x: float) -> float:
    """lgamma(x) - ((x - 1/2) log x - x + log(2 pi) / 2), for x >= 10."""
    r = 1.0 / (x * x)
    return (1 / 12 + r * (-1 / 360 + r * (1 / 1260 + r * (-1 / 1680 + r * (1 / 1188 - r * 691 / 360360))))) / x


@functools.lru_cache(maxsize=256)
def _log_beta(a: float, b: float) -> float:
    """log B(a, b). lgamma's of large arguments are large numbers whose
    difference is small, so past 10 the Stirling series is differenced term
    by term instead."""
    p, q = min(a, b), max(a, b)
    if q < 10:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    remainder = _stirling_remainder(q) - _stirling_remainder(p + q)
    if p < 10:
        return math.lgamma(p) + remainder - (q - 0.5) * math.log1p(p / q) - p * math.log(p + q) + p
    return (
        0.5 * math.log(2.0 * math.pi / (p + q))
        - (p - 0.5) * math.log1p(q / p)
        - (q - 0.5) * math.log1p(p / q)
        + remainder
        + _stirling_remainder(p)
    )


def _incomplete_beta(a: float, b: float, u):
    """I_x(a, b) at x = 1 / (1 + u), for u >= 0, a float or an array.

    x^a (1 - x)^b is built from u, never from a rounded x: log x is
    -log1p(u) and log(1 - x) is -log1p(1 / u).
    """
    u = np.maximum(u, _TINY)
    log_beta = _log_beta(a, b)

    def front(v):
        return np.exp(-a * np.log1p(v) - b * np.log1p(1.0 / v) - log_beta)

    return _branches(
        u >= (b + 1.0) / (a + 1.0),
        u,
        lambda v: front(v) / (a * _evaluate(_beta_fraction(a, b), 1.0 / (1.0 + v))),
        lambda v: 1.0 - front(v) / (b * _evaluate(_beta_fraction(b, a), v / (1.0 + v))),
    )


def _upper_gamma(a: float, x):
    """Q(a, x) for x >= 0, a float or an array."""
    x = np.minimum(np.maximum(x, _TINY), _HUGE)
    log_gamma = math.lgamma(a)

    def front(v):
        return np.exp(a * np.log(v) - v - log_gamma)

    return _branches(
        x >= a + _GAMMA_SWITCH,
        x,
        lambda v: front(v) / (v * _evaluate(_upper_gamma_fraction(a), 1.0 / v)),
        lambda v: 1.0 - front(v) / (a * _evaluate(_lower_gamma_fraction(a), v)),
    )


def _tail(dist, stat, sides: str):
    """Tail probability of each statistic in stat; tail_prob without its checks.

    One upper tail per distribution, folded for "two" into twice the smaller
    tail. For Student t and the Normal, whose upper tail is at most 1/2 at a
    non-negative statistic, that is 2 P(T > |stat|). A NaN statistic gives
    NaN; a float gives a numpy float.
    """
    if np.ndim(stat) and np.size(stat) <= _ELEMENTWISE:
        values = [_tail(dist, value, sides) for value in np.ravel(stat).tolist()]
        return np.array(values).reshape(np.shape(stat))
    if isinstance(dist, (StudentT, Normal)):
        # P(T > t) = half for t >= 0 and 1 - half below 0, with half =
        # I_{df/(df+t^2)}(df/2, 1/2) / 2 for Student t and Q(1/2, t^2/2) / 2
        # for the Normal; |(t < 0) - half| picks that without a select.
        if isinstance(dist, StudentT):
            half = 0.5 * _incomplete_beta(dist.df / 2.0, 0.5, stat * stat / dist.df)
        else:
            half = 0.5 * _upper_gamma(0.5, 0.5 * stat * stat)
        upper = abs((stat < 0) - half)
    elif isinstance(dist, FisherF):
        # At a statistic <= 0 the integral runs to x = 1, so the tail is 1.
        upper = _incomplete_beta(dist.df2 / 2.0, dist.df1 / 2.0, dist.df1 * np.maximum(stat, 0.0) / dist.df2)
    else:
        upper = _upper_gamma(dist.df / 2.0, np.maximum(stat, 0.0) / 2.0)
    p = upper if sides == "one" else 2.0 * np.minimum(upper, 1.0 - upper)
    return np.minimum(np.maximum(p, 0.0), 1.0)


def _t_test_p(t, df: float, tested, errors) -> np.ndarray:
    """Two-sided Student-t p of each t, with tail_prob's checks flagged where `tested` holds."""
    errors.flag(tested & ~np.isfinite(t), NonFiniteInput, "test statistic must be finite")
    if df < 1:
        errors.flag(tested, InvalidDegreesOfFreedom, f"degrees of freedom {df!r} must be >= 1")
    return _tail(StudentT(df), t, "two")


def tail_prob(dist, stat: float, sides: str = "two") -> float:
    """Tail probability of a test statistic.

    One-sided means the upper tail P(T > stat). Two-sided doubles the
    smaller tail, which for the symmetric distributions (Student t, Normal)
    equals 2 P(T > |stat|). Student t and F evaluate the regularized
    incomplete beta function, chi-square and the Normal the regularized
    upper incomplete gamma function, each as a continued fraction on either
    side of a switch point (Numerical Recipes, sec. 6.2 and 6.4). The upper
    tail's relative error is below 1e-12 wherever p >= 1e-300 for df up to
    20,000 (measured against scipy.special), and below 1e-9 for df up to
    1e7. A two-sided p taken from the lower tail, 2 (1 - upper), is exact to
    the rounding of 1 - upper.

    Raises:
        InvalidDegreesOfFreedom: if any df argument is below 1.
        NonFiniteInput: if stat is NaN or infinite.
        MismatchedInputs: if sides is not "one" or "two".
    """
    if sides not in ("one", "two"):
        raise MismatchedInputs(f"sides must be 'one' or 'two', got {sides!r}")
    if not np.isfinite(stat):
        raise NonFiniteInput("test statistic must be finite")
    if isinstance(dist, (StudentT, ChiSquare)):
        _check_df(dist.df)
    elif isinstance(dist, FisherF):
        _check_df(dist.df1, dist.df2)
    elif not isinstance(dist, Normal):
        raise MismatchedInputs(f"unknown distribution spec {dist!r}")
    return float(_tail(dist, float(stat), sides))
