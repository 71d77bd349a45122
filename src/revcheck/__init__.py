"""Tools for deciding whether an observed association reversal is trustworthy.

A marginal association between two variables can flip sign once a third
variable is brought in, whether that third variable is a second regressor,
a grouping, or time itself. This package derives the moment conditions
under which such a flip is real, checks the statistical assumptions that
make the flipped estimates meaningful, and classifies the outcome:

* Case1Trustworthy: both associations significant, directions disagree,
  and the assumption battery passes on both sides.
* Case2Untrustworthy: directions disagree but at least one assumption
  check fails, so the flip cannot be taken at face value.
* Indeterminate: directions disagree and some assumptions stayed untested.
* NoReversal: the directions agree, or one side carries no significant
  association.

Substantive adequacy (confounding, causal structure) is out of scope and
reports say so explicitly.
"""

from .bernoulli import (
    AggregateVerdict,
    BernoulliEstimate,
    ContingencyTable,
    EventProbabilityTriple,
    EventReversalResult,
    HomogeneityResult,
    ProportionComparison,
    StratifiedTables,
    aggregate_verdict,
    check_event_reversal,
    estimate_theta,
    homogeneity_test,
    stratified_tables_from_json,
    triple_from_tables,
    two_proportion_test,
)
from .core_stats import (
    ChiSquare,
    FisherF,
    LeastSquaresSolution,
    Normal,
    SampleMoments,
    Series,
    StudentT,
    least_squares,
    sample_moments,
    tail_prob,
)
from .errors import RevcheckError
from .misspec import (
    BatteryConfig,
    CorrectedCorrelation,
    MisspecReport,
    corrected_correlation,
    dememorize,
    detrend,
    homoskedasticity_check,
    linearity_check,
    normality_check,
    run_battery,
)
from .parameterization import (
    FullRegressionParams,
    JointMoments,
    ReversalConditions,
    SimpleRegressionParams,
    check_reversal_conditions,
    corr_from_slope,
    derive_full_params,
    derive_simple_params,
    joint_moments_from_correlations,
)
from .regression import (
    CoefficientTest,
    Dataset,
    FitResult,
    Lags,
    ModelSpec,
    OrderingVariable,
    Shift,
    TrendPoly,
    coefficient_test,
    design_matrix,
    fit,
)
from .simulate import (
    BernoulliIid,
    DgpSpec,
    MonteCarloResult,
    NiidRegression,
    TestDescriptor,
    TrendingPair,
    TwoGroupRegression,
    example3_generator,
    generate,
    mc_error_rate,
    rng_for,
)
from .verdict import (
    AssociationPair,
    AssociationSide,
    ReversalVerdict,
    classify,
    render,
    verdict_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateVerdict",
    "AssociationPair",
    "AssociationSide",
    "BatteryConfig",
    "BernoulliEstimate",
    "BernoulliIid",
    "ChiSquare",
    "CoefficientTest",
    "ContingencyTable",
    "CorrectedCorrelation",
    "Dataset",
    "DgpSpec",
    "EventProbabilityTriple",
    "EventReversalResult",
    "FisherF",
    "FitResult",
    "FullRegressionParams",
    "HomogeneityResult",
    "JointMoments",
    "Lags",
    "LeastSquaresSolution",
    "MisspecReport",
    "ModelSpec",
    "MonteCarloResult",
    "NiidRegression",
    "Normal",
    "OrderingVariable",
    "ProportionComparison",
    "ReversalConditions",
    "ReversalVerdict",
    "RevcheckError",
    "SampleMoments",
    "Series",
    "Shift",
    "SimpleRegressionParams",
    "StratifiedTables",
    "StudentT",
    "TestDescriptor",
    "TrendPoly",
    "TrendingPair",
    "TwoGroupRegression",
    "aggregate_verdict",
    "check_event_reversal",
    "check_reversal_conditions",
    "classify",
    "coefficient_test",
    "corr_from_slope",
    "corrected_correlation",
    "dememorize",
    "derive_full_params",
    "derive_simple_params",
    "design_matrix",
    "detrend",
    "estimate_theta",
    "example3_generator",
    "fit",
    "generate",
    "homogeneity_test",
    "homoskedasticity_check",
    "joint_moments_from_correlations",
    "least_squares",
    "linearity_check",
    "mc_error_rate",
    "normality_check",
    "render",
    "rng_for",
    "run_battery",
    "sample_moments",
    "stratified_tables_from_json",
    "tail_prob",
    "triple_from_tables",
    "two_proportion_test",
    "verdict_from_json",
]
