"""The analysis behind each analyze command: data in, verdict out.

`analyze_regression` compares a marginal fit of the response on its first
regressor with one of three conditional sides: a fit with a second
regressor, per-group fits within the levels of a group ordering, or, for a
lone pair with a time ordering, the trend- and memory-corrected
correlation. `analyze_table` compares the aggregate rate comparison of a
stratified family of 2 x 2 tables with its per-stratum comparisons. Each
checks the adequacy of both sides, classifies the pair with
`verdict.classify` and returns the verdict with its narrative, the lines
`verdict.render` prints before the rationale.

Modules are imported by the functions that use them, so `analyze_table`
loads neither `misspec` nor `regression`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import verdict
from .errors import DegenerateData, InvalidSpec, RankDeficient, Underdetermined

if TYPE_CHECKING:
    from .bernoulli import StratifiedTables
    from .misspec import BatteryConfig
    from .regression import Dataset


def _direction(sign_value: float) -> int:
    return int(np.sign(sign_value))


def _corrected_conditional(data: Dataset, response: str, regressor: str, cfg: BatteryConfig):
    """Conditional side for a lone trending pair: the corrected correlation."""
    from . import misspec
    from .regression import Dataset, ModelSpec, OrderingVariable, fit

    x, y = data.column(regressor), data.column(response)
    corrected, x_clean, y_clean = misspec._corrected(x, y, cfg, (regressor, response))
    source = "corrected correlation"
    n_eff = len(x_clean)
    # The data's time ordering name, which Dataset keeps apart from every column.
    time = next(name for name, ordering in data.orderings.items() if ordering.kind == "time")
    clean = Dataset(
        columns={regressor: x_clean, response: y_clean},
        orderings={time: OrderingVariable(time, "time", np.arange(1, n_eff + 1, dtype=float))},
    )
    clean_fit = fit(clean, ModelSpec(response=response, regressors=(regressor,)))
    report = misspec.run_battery(clean, clean_fit, cfg, source=source)
    return corrected, report, source


def _fitted_side(data: Dataset, response: str, regressors: tuple, cfg, subject: str, source: str):
    """(fit, x1 coefficient, its p, battery report) of one fitted side.

    x1 is the first regressor; subject names the fit in the message for a
    fit that cannot be identified or is numerically exact, and source labels
    the battery's report.
    """
    from . import misspec
    from .regression import ModelSpec, fit

    try:
        side_fit = fit(data, ModelSpec(response=response, regressors=regressors))
    except (Underdetermined, RankDeficient) as exc:
        raise type(exc)(f"{subject}: {exc}") from None
    if side_fit.degenerate:
        raise DegenerateData(f"{subject} has a numerically exact fit")
    idx = side_fit.index_of(regressors[0])
    report = misspec.run_battery(data, side_fit, cfg, source=source)
    return side_fit, float(side_fit.coefficients[idx]), float(side_fit.p_values[idx]), report


def analyze_regression(
    data: Dataset, response: str, regressors: tuple, by_group: str | None, cfg: BatteryConfig
) -> tuple:
    """(verdict, narrative) of a reversal between a marginal fit and a conditional one.

    The marginal side is the fit of response on regressors[0]. The
    conditional side is the fit on both regressors when two are given, the
    per-group fits within the levels of the group ordering by_group, or else
    the corrected correlation of the pair, which needs a time ordering.
    The per-group side has a direction only when every group's slope has
    one sign, and its p is the largest group p.
    """
    from . import misspec
    from .core_stats import sample_moments
    from .parameterization import corr_from_slope

    if len(regressors) not in (1, 2):
        raise InvalidSpec("give one or two regressor columns")
    if len(regressors) == 2 and by_group is not None:
        raise InvalidSpec("condition on a second --regressors column or on --by-group, not both")
    x1 = regressors[0]

    marginal_source = f"fit {response} ~ {x1}"
    marginal_fit, slope, slope_p, marginal_report = _fitted_side(
        data, response, (x1,), cfg, marginal_source, marginal_source
    )
    marginal_side = verdict.AssociationSide(
        source=marginal_source, direction=_direction(slope), p_value=slope_p
    )

    moments = sample_moments(np.column_stack([data.column(response), data.column(x1)]))
    naive_rho = float(moments.corr[0, 1])
    slope_implied_rho = corr_from_slope(slope, moments.cov[0, 0], moments.cov[1, 1])

    narrative = [f"Marginal: {verdict.format_fit(marginal_fit)}"]
    narrative.append(
        f"Naive correlation of ({x1}, {response}): {verdict._fmt(naive_rho)}"
        f" (slope-implied {verdict._fmt(slope_implied_rho)})"
    )

    if len(regressors) == 2:
        x2 = regressors[1]
        cond_source = f"fit {response} ~ {x1} + {x2}"
        cond_fit, cond_sign, cond_p, conditional_report = _fitted_side(
            data, response, (x1, x2), cfg, cond_source, cond_source
        )
        conditional_side = verdict.AssociationSide(
            source=cond_source, direction=_direction(cond_sign), p_value=cond_p
        )
        conditioning = f"conditioning on {x2}"
        narrative.append(f"Conditional: {verdict.format_fit(cond_fit)}")
    elif by_group is not None:
        ordering = data.ordering(by_group)
        if ordering.kind == "time":
            raise InvalidSpec("--by-group needs a group ordering, not a time ordering")
        levels = sorted(set(ordering.values.tolist()))
        if len(levels) < 2:
            raise InvalidSpec(f"ordering {by_group!r} has fewer than two levels")
        cond_source = f"per-group fits of {response} ~ {x1} within {by_group}"
        group_fits, group_reports, signs, ps = [], [], [], []
        for level in levels:
            g_data = data.take(np.flatnonzero(ordering.values == level))
            g_fit, g_coef, g_p, g_report = _fitted_side(
                g_data, response, (x1,), cfg, f"group {level!r}", cond_source
            )
            signs.append(float(np.sign(g_coef)))
            ps.append(g_p)
            group_fits.append((level, g_fit))
            group_reports.append(g_report)
        conditional_report = misspec.merge_reports(group_reports, cfg.alpha, cond_source)
        if all(s == signs[0] for s in signs) and signs[0] != 0:
            raw_sign = signs[0]
        else:
            raw_sign = 0.0
        cond_p = max(ps)
        conditional_side = verdict.AssociationSide(
            source=cond_source, direction=_direction(raw_sign), p_value=cond_p
        )
        conditioning = f"within levels of {by_group}"
        for level, g_fit in group_fits:
            narrative.append(f"Group {level}: {verdict.format_fit(g_fit)}")
    else:
        has_time = any(o.kind == "time" for o in data.orderings.values())
        if not has_time:
            raise InvalidSpec(
                "nothing to condition on: give a second regressor, --by-group, or a time ordering"
            )
        corrected, conditional_report, cond_source = _corrected_conditional(data, response, x1, cfg)
        conditional_side = verdict.AssociationSide(
            source=cond_source,
            direction=_direction(corrected.rho),
            p_value=corrected.p_value,
        )
        conditioning = (
            f"detrended (degree {cfg.trend_degree}) and dememorized ({cfg.lag_count} lags) both series"
        )
        narrative.append(
            f"Corrected correlation: {verdict._fmt(corrected.rho)} "
            f"(p {verdict.format_p(corrected.p_value)}, n_eff = {corrected.n_effective})"
        )

    pair = verdict.AssociationPair(marginal=marginal_side, conditional=conditional_side, conditioning=conditioning)
    result = verdict.classify(pair, marginal_report, conditional_report, alpha=cfg.alpha)
    return result, "\n".join(narrative)


def analyze_table(tables: StratifiedTables, alpha: float) -> tuple:
    """(verdict, narrative) of a reversal between a family's aggregate and its strata.

    The marginal side is the aggregate's two-proportion comparison, whose
    adequacy rests on the constant-rate check across strata; the conditional
    side is the strata's comparisons, whose adequacy is untested.
    """
    from . import bernoulli

    agg_verdict = bernoulli.aggregate_verdict(tables, alpha=alpha)
    comparison = agg_verdict.aggregate_test

    marginal_source = "aggregate rate comparison"
    marginal_side = verdict.AssociationSide(
        source=marginal_source,
        direction=agg_verdict.aggregate_direction,
        p_value=comparison.p_value,
    )
    marginal_report = verdict.adequacy_from_homogeneity(agg_verdict, source=marginal_source)

    cond_source = "per-stratum rate comparisons"
    conditional_side = verdict.AssociationSide(
        source=cond_source, direction=agg_verdict.strata_direction, p_value=agg_verdict.strata_p_value
    )
    conditional_report = verdict.untested_adequacy(source=cond_source)

    narrative = [agg_verdict.narrative]
    if len(tables.strata) == 2:
        pattern = bernoulli.check_event_reversal(bernoulli.triple_from_tables(tables))
        if pattern.pattern_holds:
            orientation = "mirrored" if pattern.mirrored else "canonical"
            narrative.append(
                f"Strict event-probability reversal pattern holds ({orientation} orientation)."
            )
        else:
            narrative.append("Strict event-probability reversal pattern does not hold.")
    narrative.append(
        f"Aggregate two-proportion z = {verdict._fmt(comparison.z)} (p {verdict.format_p(comparison.p_value)})."
    )

    pair = verdict.AssociationPair(
        marginal=marginal_side,
        conditional=conditional_side,
        conditioning="within the declared strata",
    )
    result = verdict.classify(pair, marginal_report, conditional_report, alpha=alpha)
    return result, "\n".join(narrative)
