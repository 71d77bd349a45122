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

import sys

__version__ = "0.1.0"

# Each public name and the submodule that defines it. A name, and a
# submodule as an attribute, is imported on first access, so a command
# loads only the modules it runs.
_EXPORTS = {
    "AggregateVerdict": "bernoulli",
    "AssociationPair": "verdict",
    "AssociationSide": "verdict",
    "BatteryConfig": "misspec",
    "BernoulliEstimate": "bernoulli",
    "BernoulliIid": "simulate",
    "ChiSquare": "core_stats",
    "CoefficientTest": "regression",
    "ContingencyTable": "bernoulli",
    "CorrectedCorrelation": "misspec",
    "Dataset": "regression",
    "DgpSpec": "simulate",
    "EventProbabilityTriple": "bernoulli",
    "EventReversalResult": "bernoulli",
    "FisherF": "core_stats",
    "FitResult": "regression",
    "FullRegressionParams": "parameterization",
    "HomogeneityResult": "bernoulli",
    "JointMoments": "parameterization",
    "Lags": "regression",
    "MisspecReport": "verdict",
    "ModelSpec": "regression",
    "MonteCarloResult": "simulate",
    "NiidRegression": "simulate",
    "Normal": "core_stats",
    "OrderingVariable": "regression",
    "ProportionComparison": "bernoulli",
    "ReversalConditions": "parameterization",
    "ReversalVerdict": "verdict",
    "RevcheckError": "errors",
    "SampleMoments": "core_stats",
    "Series": "core_stats",
    "Shift": "regression",
    "SimpleRegressionParams": "parameterization",
    "StratifiedTables": "bernoulli",
    "StudentT": "core_stats",
    "TestDescriptor": "simulate",
    "TrendPoly": "regression",
    "TrendingPair": "simulate",
    "TwoGroupRegression": "simulate",
    "aggregate_verdict": "bernoulli",
    "check_event_reversal": "bernoulli",
    "check_reversal_conditions": "parameterization",
    "classify": "verdict",
    "coefficient_test": "regression",
    "corr_from_slope": "parameterization",
    "corrected_correlation": "misspec",
    "dememorize": "misspec",
    "derive_full_params": "parameterization",
    "derive_simple_params": "parameterization",
    "detrend": "misspec",
    "estimate_theta": "bernoulli",
    "example3_generator": "simulate",
    "fit": "regression",
    "generate": "simulate",
    "homogeneity_test": "bernoulli",
    "homoskedasticity_check": "misspec",
    "joint_moments_from_correlations": "parameterization",
    "linearity_check": "misspec",
    "mc_error_rate": "simulate",
    "normality_check": "misspec",
    "render": "verdict",
    "rng_for": "simulate",
    "run_battery": "misspec",
    "sample_moments": "core_stats",
    "stratified_tables_from_json": "bernoulli",
    "tail_prob": "core_stats",
    "triple_from_tables": "bernoulli",
    "two_proportion_test": "bernoulli",
    "verdict_from_json": "verdict",
}
_SUBMODULES = frozenset(_EXPORTS.values()) | {"cli", "fixtures"}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(__getattr__(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    if name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, unlike importlib.import_module, shows in -X importtime.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
