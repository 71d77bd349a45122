"""Seeded data-generating processes and Monte Carlo error rates.

Reproducibility contract: every dataset is a pure function of (kind, seed),
and Monte Carlo replication r draws from a stream derived from the pair
(seed, r). Replications therefore never share state, which makes the
aggregate error rate independent of how the work is split up.

A Monte Carlo study generates and tests its replications in blocks of 256,
held as stacked arrays with one row per replication, and runs the blocks
one after another on the calling thread, so a study takes no thread
count. Each row is exactly the dataset the replication's own stream
gives: replication r is still rng_for(seed, r), but a block seeds its
rows' streams in one vectorised pass and loads each into one reused
generator before drawing its row. Each test runs the same stacked code
as its per-dataset functions, which are its batch-of-one case: the
correlation tests that of `naive_correlation_test` and
`misspec.corrected_correlation`, the coefficient test `regression._ols`
and `_inference` (of which `regression.fit` is the one-row call) and the
`_coefficient_p` of `regression.coefficient_test`. So each row gets the
same decision and fails with the same error as its dataset tested on its
own.

Four generators are provided:

  * NiidRegression     - a trivariate Normal (y, x1, x2) with given moments
  * TrendingPair       - two independent trending series with AR(1) noise,
                         sized and sloped like the classic spurious pairs
  * TwoGroupRegression - two groups with their own lines and noise levels
  * BernoulliIid       - an IID 0/1 sequence

plus a convenience wrapper that rebuilds the two-group income example with
opposite-signed pooled and per-group slopes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import misspec, regression
from .core_stats import _RAISE, _as_finite_array, _correlation_test, sample_moments
from .errors import GenerationFailed, InvalidSpec, NonFiniteInput, UnknownColumn
from .parameterization import JointMoments
from .regression import Dataset, ModelSpec, OrderingVariable

# Trend coefficients (constant first) and noise settings that mimic the
# classic marriage-ratio / mortality pair: both series drift downward over
# the window with smooth curvature, and the noise remembers its past.
_TRENDING_X = (76.0, -10.0, 0.0, -6.0)
_TRENDING_Y = (23.4, -5.0, 0.0, -4.0)

# Two-group income example: (first group, second group) intercepts, slopes,
# noise standard deviations, regressor means; the first group earns more on
# average yet has the lower regressor mean, which flips the pooled slope.
_EXAMPLE3_INTERCEPTS = (45.229, 35.106)
_EXAMPLE3_SLOPES = (0.409, 0.675)
_EXAMPLE3_NOISE_SDS = (2.371, 2.124)
_EXAMPLE3_X_MEANS = (13.0, 17.0)
_EXAMPLE3_X_SD = 2.0


def rng_for(seed: int, replication: int = None) -> np.random.Generator:
    """The generator for a seed, or for replication r of that seed."""
    entropy = [int(seed)] if replication is None else [int(seed), int(replication)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# SeedSequence's pool size and hash constants (numpy.random.bit_generator),
# and the default multiplier of PCG64's 128-bit step.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _uint32_words(n: int) -> list:
    """An integer as SeedSequence reads it: 32-bit words, least significant
    first, with 0 as one word."""
    n = int(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix over uint32 arrays: each call XORs in the
    running hash constant, advances it, then multiplies by the new one. The
    constants do not depend on the data, so one call serves every row."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _pcg64_step(state: int, inc: int) -> int:
    return (state * _PCG64_MULT + inc) & _MASK128


def _pcg64_states(seed: int, start: int, stop: int) -> list:
    """The PCG64 (state, inc) that rng_for(seed, r) starts from, for each r
    in range(start, stop).

    SeedSequence([seed, r]) hashes its entropy words into a pool of four,
    for all r at once as uint32 arithmetic, then draws four 64-bit words
    from the pool; PCG64 seeds from them as pcg_setseq_128_srandom_r does.
    Every r in the range must have as many 32-bit words as start, which
    holds for any block of _BLOCK aligned to a multiple of _BLOCK.
    """
    rows = stop - start
    r = np.arange(start, stop, dtype=np.uint64)
    entropy = [np.full(rows, word, dtype=np.uint32) for word in _uint32_words(seed)]
    entropy += [(r >> np.uint64(32 * k)).astype(np.uint32) for k in range(len(_uint32_words(start)))]

    hashmix = _hasher(_INIT_A, _MULT_A)
    zeros = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zeros) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    # generate_state(4, uint64): eight words cycling over the pool, paired
    # little-endian into (initstate high, low, initseq high, low).
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    halves = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in zip(*halves):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = _pcg64_step(0, inc)
        state = _pcg64_step(state + (state_hi << 64 | state_lo), inc)
        states.append((state, inc))
    return states


def _replication_rngs(seed: int, start: int, stop: int, rng: np.random.Generator):
    """rng loaded in turn with the stream of each replication in
    range(start, stop): what it yields for r draws exactly what
    rng_for(seed, r) draws, until the next one is taken."""
    for state, inc in _pcg64_states(seed, start, stop):
        rng.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


@dataclass(frozen=True)
class NiidRegression:
    """NIID draws of (y, x1, x2) from a trivariate Normal."""

    joint: JointMoments
    n: int

    def __post_init__(self):
        if self.n < 4:
            raise InvalidSpec("NiidRegression needs n >= 4")


@dataclass(frozen=True)
class TrendingPair:
    """Two independent series sharing a trend shape, with AR(1) noise.

    Each series is polynomial(trend coefficients, t/n) plus an AR(1)
    process started from its stationary distribution. The two noise
    processes are independent, so the true cross-correlation is zero even
    though both series trend.
    """

    n: int = 46
    trend_x: tuple = _TRENDING_X
    trend_y: tuple = _TRENDING_Y
    ar_x: float = 0.8
    ar_y: float = 0.8
    innovation_sd_x: float = 0.6
    innovation_sd_y: float = 0.35

    def __post_init__(self):
        object.__setattr__(self, "trend_x", tuple(float(c) for c in self.trend_x))
        object.__setattr__(self, "trend_y", tuple(float(c) for c in self.trend_y))
        if self.n < 12:
            raise InvalidSpec("TrendingPair needs n >= 12")
        for name, ar in (("ar_x", self.ar_x), ("ar_y", self.ar_y)):
            if not abs(ar) < 1:
                raise InvalidSpec(f"{name} must satisfy |ar| < 1 for stationarity")
        if self.innovation_sd_x <= 0 or self.innovation_sd_y <= 0:
            raise InvalidSpec("innovation standard deviations must be positive")


@dataclass(frozen=True)
class TwoGroupRegression:
    """Two groups, each with its own line y = a + b*x and noise level."""

    intercepts: tuple
    slopes: tuple
    x_means: tuple
    x_sd: float
    noise_sds: tuple
    group_sizes: tuple

    def __post_init__(self):
        for name in ("intercepts", "slopes", "x_means", "noise_sds", "group_sizes"):
            value = tuple(getattr(self, name))
            if len(value) != 2:
                raise InvalidSpec(f"{name} must have exactly two entries")
            object.__setattr__(self, name, value)
        if self.x_sd <= 0 or any(sd <= 0 for sd in self.noise_sds):
            raise InvalidSpec("scale parameters must be positive")
        if any(int(n) != n or n < 3 for n in self.group_sizes):
            raise InvalidSpec("group sizes must be integers >= 3")
        object.__setattr__(self, "group_sizes", tuple(int(n) for n in self.group_sizes))


@dataclass(frozen=True)
class BernoulliIid:
    """IID Bernoulli(theta) draws as a 0/1 column."""

    theta: float
    n: int

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise InvalidSpec(f"theta must lie in [0, 1], got {self.theta!r}")
        if self.n < 1:
            raise InvalidSpec("BernoulliIid needs n >= 1")


_KINDS = (NiidRegression, TrendingPair, TwoGroupRegression, BernoulliIid)


@dataclass(frozen=True)
class DgpSpec:
    """A generator kind plus the seed that makes it deterministic."""

    kind: object
    seed: int

    def __post_init__(self):
        if not isinstance(self.kind, _KINDS):
            raise InvalidSpec(f"unknown DGP kind {type(self.kind).__name__}")


def _ar1(z: np.ndarray, ar: float, innovation_sd: float) -> np.ndarray:
    """AR(1) paths, one per row of standard normals z.

    z[:, 0] scales to the stationary start and z[:, 1:] to the innovations.
    The recursion steps over t for all rows at once, with the same
    arithmetic as stepping one path alone.
    """
    marginal_sd = innovation_sd / np.sqrt(1.0 - ar * ar)
    state = marginal_sd * z[:, 0]
    innovations = innovation_sd * z[:, 1:]
    values = np.empty_like(innovations)
    for t in range(innovations.shape[1]):
        state = ar * state + innovations[:, t]
        values[:, t] = state
    return values


def _polynomial(coefficients: tuple, s: np.ndarray) -> np.ndarray:
    total = np.zeros_like(s)
    for power, coefficient in enumerate(coefficients):
        total += coefficient * s**power
    return total


def _draw_columns(kind, rngs) -> dict:
    """The columns a DGP kind draws, one row per generator in rngs.

    The generators are taken in sequence, and each row is drawn before the
    next generator is taken, so rngs may yield one generator reloaded
    between rows. Each generator is consumed in the same order whatever the
    number of rows: for TrendingPair the x start, the x innovations, the y
    start, then the y innovations; for TwoGroupRegression each group's x
    draws, then its noise draws.
    """
    if isinstance(kind, NiidRegression):
        chol = np.linalg.cholesky(kind.joint.sigma)
        draws = kind.joint.mu + np.stack([rng.standard_normal((kind.n, 3)) @ chol.T for rng in rngs])
        return {"y": draws[..., 0], "x1": draws[..., 1], "x2": draws[..., 2]}
    if isinstance(kind, TrendingPair):
        n = kind.n
        z = np.stack([rng.standard_normal(2 * n + 2) for rng in rngs])
        s = np.arange(1, n + 1) / n
        x = _polynomial(kind.trend_x, s) + _ar1(z[:, : n + 1], kind.ar_x, kind.innovation_sd_x)
        y = _polynomial(kind.trend_y, s) + _ar1(z[:, n + 1 :], kind.ar_y, kind.innovation_sd_y)
        return {"x": x, "y": y}
    if isinstance(kind, TwoGroupRegression):
        z = np.stack([rng.standard_normal(2 * sum(kind.group_sizes)) for rng in rngs])
        xs, ys = [], []
        offset = 0
        for i, n_i in enumerate(kind.group_sizes):
            x = kind.x_means[i] + kind.x_sd * z[:, offset : offset + n_i]
            noise = z[:, offset + n_i : offset + 2 * n_i]
            ys.append(kind.intercepts[i] + kind.slopes[i] * x + kind.noise_sds[i] * noise)
            xs.append(x)
            offset += 2 * n_i
        return {"x": np.concatenate(xs, axis=1), "y": np.concatenate(ys, axis=1)}
    if isinstance(kind, BernoulliIid):
        u = np.stack([rng.random(kind.n) for rng in rngs])
        return {"x": (u < kind.theta).astype(float)}
    raise InvalidSpec(f"unknown DGP kind {type(kind).__name__}")


def _orderings(kind) -> dict:
    if isinstance(kind, TwoGroupRegression):
        group = np.concatenate([np.ones(kind.group_sizes[0]), np.zeros(kind.group_sizes[1])])
        return {"group": OrderingVariable("group", "binary_group", group)}
    return {"t": OrderingVariable("t", "time", np.arange(1, kind.n + 1, dtype=float))}


def _generate_with_rng(kind, rng: np.random.Generator) -> Dataset:
    columns = _draw_columns(kind, [rng])
    return Dataset(columns={name: rows[0] for name, rows in columns.items()}, orderings=_orderings(kind))


def generate(spec: DgpSpec) -> Dataset:
    """Generate the dataset determined by (kind, seed)."""
    return _generate_with_rng(spec.kind, rng_for(spec.seed))


def example3_generator(n_per_group: int = 50, seed: int = 0, max_attempts: int = 100) -> Dataset:
    """The two-group income example with a negative pooled slope.

    Draws from the fixed two-group constants (first group coded 1 in the
    `group` ordering, second group 0) and checks that the realized pooled
    slope of y on x is negative; if not, the draw is retried on a fresh
    sub-stream.

    Raises:
        GenerationFailed: if no attempt produces a negative pooled slope.
    """
    kind = TwoGroupRegression(
        intercepts=_EXAMPLE3_INTERCEPTS,
        slopes=_EXAMPLE3_SLOPES,
        x_means=_EXAMPLE3_X_MEANS,
        x_sd=_EXAMPLE3_X_SD,
        noise_sds=_EXAMPLE3_NOISE_SDS,
        group_sizes=(n_per_group, n_per_group),
    )
    return constrained_two_group(kind, seed=seed, max_attempts=max_attempts)


def constrained_two_group(kind: TwoGroupRegression, seed: int = 0, max_attempts: int = 100) -> Dataset:
    """Draw a TwoGroupRegression dataset whose pooled slope is negative."""
    for attempt in range(max_attempts):
        data = _generate_with_rng(kind, rng_for(seed, attempt))
        moments = sample_moments(np.column_stack([data.columns["x"], data.columns["y"]]))
        if moments.cov[0, 1] < 0:
            return data
    raise GenerationFailed(f"no negative pooled slope in {max_attempts} attempts (seed {seed})")


@dataclass(frozen=True)
class TestDescriptor:
    """Which test to run on each replication of a Monte Carlo study.

    kind "coefficient": fit response ~ regressors, t-test the named term
    against null_value. kind "naive_correlation": t-test the raw
    correlation of columns x and y against zero. kind
    "corrected_correlation": the same after detrending and dememorizing.
    """

    # Not a test case despite the Test- prefix; keeps pytest from collecting it.
    __test__ = False

    kind: str
    response: str = "y"
    regressors: tuple = ()
    target: str = ""
    null_value: float = 0.0
    x: str = "x"
    y: str = "y"
    trend_degree: int = 3
    lag_count: int = 2

    def __post_init__(self):
        object.__setattr__(self, "regressors", tuple(self.regressors))
        if self.kind not in ("coefficient", "naive_correlation", "corrected_correlation"):
            raise InvalidSpec(f"unknown test kind {self.kind!r}")
        if self.kind == "coefficient" and (not self.regressors or not self.target):
            raise InvalidSpec("coefficient tests need regressors and a target term")


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical rejection rate of a test across seeded replications."""

    replications: int
    rejections: int
    rejection_rate: float
    mc_se: float
    alpha: float


def _naive_rows(x: np.ndarray, y: np.ndarray, errors) -> tuple:
    """naive_correlation_test for each row of x and y: (rho, p)."""
    return _correlation_test(x, y, x.shape[-1] - 2, errors, (InvalidSpec, "a column has zero variance"))


def naive_correlation_test(x: np.ndarray, y: np.ndarray) -> tuple:
    """Correlation of two raw columns and its two-sided t-test p-value."""
    data = _as_finite_array(np.column_stack([x, y]), "data")
    rho, p = _naive_rows(data[:, 0], data[:, 1], _RAISE)
    return float(rho), float(p)


# Replications generated and tested together; bounds the stacked arrays'
# memory whatever the replication count.
_BLOCK = 256


class _FirstError:
    """The error the lowest-numbered failing replication of a block raises.

    Checks are flagged in the order the per-dataset functions run them, so
    the earliest failing row reports the first check it fails, exactly as if
    the replications ran one at a time.
    """

    def __init__(self, start: int):
        self.start = start
        self.row = None
        self.error = None

    def flag(self, bad, error: type, message: str) -> None:
        """Record `error` for the rows where `bad` holds: rows run along its
        first axis, and a row fails if any of its entries does."""
        bad = np.asarray(bad)
        rows = np.flatnonzero(bad.reshape(bad.shape[:1] + (-1,)).any(axis=-1))
        if rows.size and (self.row is None or rows[0] < self.row):
            self.row = int(rows[0])
            self.error = error(f"replication {self.start + self.row}: {message}")

    def stop(self, error: type, message: str) -> None:
        """Raise a check that every replication fails: the block's first
        replication meets it, unless that one failed an earlier check."""
        self.flag(True, error, message)
        self.raise_first()

    def raise_first(self) -> None:
        if self.error is not None:
            raise self.error


def _column(columns: dict, name: str, errors: _FirstError) -> np.ndarray:
    if name not in columns:
        errors.stop(UnknownColumn, f"no column named {name!r}")
    return columns[name]


def _coefficient_rejections(columns: dict, test: TestDescriptor, alpha: float, errors: _FirstError) -> np.ndarray:
    # regression.fit, FitResult.index_of, then regression.coefficient_test.
    spec = ModelSpec(response=test.response, regressors=test.regressors)
    regressors = [_column(columns, name, errors) for name in spec.regressors]
    y = _column(columns, spec.response, errors)
    solves = regression._ols(y, regressors, errors)
    std_errors = regression._inference(y, solves, errors)[2]
    terms = ("intercept",) + spec.regressors
    if test.target not in terms:
        errors.stop(UnknownColumn, f"no fitted term named {test.target!r}")
    index = terms.index(test.target)
    diff = solves.coefficients[:, index] - test.null_value
    _, p = regression._coefficient_p(diff, std_errors[:, index], y.shape[1] - len(terms), errors)
    return p < alpha


def _naive_rejections(columns: dict, test: TestDescriptor, alpha: float, errors: _FirstError) -> np.ndarray:
    x = _column(columns, test.x, errors)
    y = _column(columns, test.y, errors)
    return _naive_rows(x, y, errors)[1] < alpha


def _corrected_rejections(columns: dict, test: TestDescriptor, alpha: float, errors: _FirstError) -> np.ndarray:
    cfg = misspec.BatteryConfig(alpha=alpha, trend_degree=test.trend_degree, lag_count=test.lag_count)
    x = _column(columns, test.x, errors)
    y = _column(columns, test.y, errors)
    return misspec._corrected_rows(x, y, cfg, errors, (test.x, test.y))[3] < alpha


_REJECTIONS = {
    "coefficient": _coefficient_rejections,
    "naive_correlation": _naive_rejections,
    "corrected_correlation": _corrected_rejections,
}


def mc_error_rate(
    dgp: DgpSpec,
    test: TestDescriptor,
    alpha: float = 0.05,
    replications: int = 10_000,
) -> MonteCarloResult:
    """Empirical rejection rate of a test under a data-generating process.

    Replication r consumes the stream derived from (dgp.seed, r), exactly
    the one rng_for(dgp.seed, r) gives, so the result is a pure function of
    the arguments. Replications are generated and tested in blocks of 256 as
    stacked arrays, one block after another on the calling thread; each
    block computes its rows' generator states in one pass and draws every
    row from one reused generator.

    Raises:
        InvalidSpec: if replications < 1000 (the rate would be too noisy
            to interpret against a nominal level).
        RevcheckError: the error the first failing replication raises when
            its dataset is generated and tested on its own.
        ValueError: if dgp.seed is negative, as rng_for raises.
    """
    if replications < 1000:
        raise InvalidSpec("use at least 1000 replications")
    if not 0 < alpha < 1:
        raise InvalidSpec(f"alpha must be in (0, 1), got {alpha!r}")

    rejections = 0
    rng = np.random.Generator(np.random.PCG64())  # each row loads its own state
    for start in range(0, replications, _BLOCK):
        errors = _FirstError(start)
        rngs = _replication_rngs(dgp.seed, start, min(start + _BLOCK, replications), rng)
        columns = _draw_columns(dgp.kind, rngs)
        for name, rows in columns.items():
            bad = ~np.isfinite(rows).all(axis=1)
            errors.flag(bad, NonFiniteInput, f"column {name!r} contains non-finite values")
            rows[bad] = 0.0  # keeps the stacked factorizations below finite
        # Replication 0 is generated before any check of the test runs.
        if errors.row == 0:
            errors.raise_first()
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            reject = _REJECTIONS[test.kind](columns, test, alpha, errors)
        errors.raise_first()
        rejections += int(np.count_nonzero(reject))
    rate = rejections / replications
    mc_se = float(np.sqrt(alpha * (1.0 - alpha) / replications))
    return MonteCarloResult(
        replications=replications,
        rejections=rejections,
        rejection_rate=rate,
        mc_se=mc_se,
        alpha=alpha,
    )
