"""Command-line interface.

Commands:
  analyze-regression  classify a reversal between a marginal fit and a
                      conditional one (second regressor, per-group fits,
                      or a trend/memory-corrected correlation)
  analyze-table       classify a reversal in stratified 2x2 count tables
  simulate            write seeded synthetic datasets, or estimate a
                      Monte Carlo error rate (mc-size)
  reverse-conditions  evaluate the three-correlation reversal conditions

Exit codes: 0 success, 2 invalid input, 3 degenerate data. All output is
deterministic for fixed flags and seed; JSON is rendered with sorted keys.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import sys

import numpy as np

# bernoulli, misspec, regression, simulate and secrets are imported by the
# functions that use them, so each command loads only the modules it runs.
from . import verdict
from .core_stats import Series, sample_moments
from .errors import (
    DegenerateData,
    DegeneratePool,
    InvalidSpec,
    RankDeficient,
    RevcheckError,
    Underdetermined,
    UnknownColumn,
)
from .parameterization import (
    check_reversal_conditions,
    corr_from_slope,
    derive_full_params,
    joint_moments_from_correlations,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revcheck",
        description="Decide whether an observed association reversal is statistically trustworthy.",
    )
    parser.add_argument("--alpha", type=float, default=0.05, help="significance level (default 0.05)")
    parser.add_argument("--trend-degree", type=int, default=3, help="detrending polynomial degree")
    parser.add_argument("--lags", type=int, default=2, help="lag depth for memory diagnostics")
    parser.add_argument("--output", choices=("text", "json"), default="text", help="report format")
    parser.add_argument("--seed", type=int, default=None, help="seed for anything random")
    parser.add_argument("--timestamp", action="store_true", help="stamp text output with the UTC time")
    sub = parser.add_subparsers(dest="command", required=True)

    reg = sub.add_parser("analyze-regression", help="classify a regression-based reversal")
    reg.add_argument("csv_path", help="input CSV with a header row")
    reg.add_argument("--response", required=True, help="response column")
    reg.add_argument("--regressors", nargs="+", required=True, help="one or two regressor columns")
    reg.add_argument(
        "--ordering",
        action="append",
        default=[],
        metavar="NAME[:KIND]",
        help="declare a column as an ordering (kind: time, binary_group, categorical)",
    )
    reg.add_argument("--by-group", default=None, metavar="ORDERING", help="condition on a group ordering")

    tab = sub.add_parser("analyze-table", help="classify a reversal in stratified 2x2 tables")
    tab.add_argument("json_path", help="stratified-tables JSON file")

    sim = sub.add_parser("simulate", help="generate seeded data or Monte Carlo error rates")
    simsub = sim.add_subparsers(dest="dgp_command", required=True)

    sim_bern = simsub.add_parser("bernoulli", help="IID 0/1 draws")
    sim_bern.add_argument("--theta", type=float, required=True)
    sim_bern.add_argument("--n", type=int, required=True)
    sim_bern.add_argument("--out", default="-", help="output CSV path (default stdout)")

    sim_e3 = simsub.add_parser("example3", help="two-group data with a negative pooled slope")
    sim_e3.add_argument("--n-per-group", type=int, default=50)
    sim_e3.add_argument("--out", default="-")

    sim_niid = simsub.add_parser("niid", help="trivariate Normal (y, x1, x2) draws")
    sim_niid.add_argument("--rho12", type=float, required=True)
    sim_niid.add_argument("--rho13", type=float, required=True)
    sim_niid.add_argument("--rho23", type=float, required=True)
    sim_niid.add_argument("--n", type=int, default=1000)
    sim_niid.add_argument("--out", default="-")

    sim_tr = simsub.add_parser("trending", help="independent trending pair with AR(1) noise")
    sim_tr.add_argument("--n", type=int, default=46)
    sim_tr.add_argument("--out", default="-")

    sim_mc = simsub.add_parser("mc-size", help="Monte Carlo rejection rate of a test under a DGP")
    sim_mc.add_argument("--dgp", choices=("trending", "niid"), required=True)
    sim_mc.add_argument(
        "--test",
        choices=("naive-correlation", "corrected-correlation", "coefficient"),
        default=None,
        help="defaults: naive-correlation for trending, coefficient for niid",
    )
    sim_mc.add_argument("--reps", type=int, default=10000)
    sim_mc.add_argument(
        "--threads", type=int, default=1, help="must be >= 1; the study runs on one thread whatever the value"
    )
    sim_mc.add_argument("--n", type=int, default=None, help="sample size per replication")
    sim_mc.add_argument("--rho12", type=float, default=0.5)
    sim_mc.add_argument("--rho13", type=float, default=0.7)
    sim_mc.add_argument("--rho23", type=float, default=0.8)

    rev = sub.add_parser("reverse-conditions", help="evaluate the three-correlation reversal conditions")
    rev.add_argument("rho12", type=float)
    rev.add_argument("rho13", type=float)
    rev.add_argument("rho23", type=float)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parsing leaves the parser unchanged, and
    # argparse copies list defaults such as --ordering's before appending.
    return build_parser()


def _stamp(args, text: str) -> str:
    if args.timestamp and args.output == "text":
        now = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
        return f"# generated {now}\n{text}"
    return text


def _resolve_seed(args) -> int:
    if args.seed is not None:
        if args.seed < 0:
            raise InvalidSpec("--seed must be a non-negative integer")
        return args.seed
    import secrets

    seed = secrets.randbits(32)
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _direction(sign_value: float) -> int:
    return int(np.sign(sign_value))


# ---------------------------------------------------------------- regression


_NUMERIC_KINDS = ("time", "binary_group")
# Characters on which np.loadtxt can read a file differently from the csv
# module and float(): the csv quote and carriage return, NUL (which csv
# rejects before Python 3.11), and the ASCII separators \x1c-\x1f, which
# loadtxt strips from a number as whitespace while float() refuses them.
_NOT_PLAIN = '"\r\x00\x1c\x1d\x1e\x1f'


def _ordering_kind(kind: str, values) -> str:
    """The kind of an --ordering: as declared, else inferred from its floats.

    values is None for a column that does not convert to floats. Values all
    0 or 1 are binary, strictly increasing values are time, and anything else
    is categorical.
    """
    if kind:
        return kind
    if values is not None and np.all((values == 0) | (values == 1)):
        return "binary_group"
    if values is not None and np.all(np.diff(values) > 0):
        return "time"
    return "categorical"


def _read_dataset(path: str, ordering_specs: list) -> Dataset:
    """The CSV at path, read as UTF-8, as a Dataset with its --ordering columns declared.

    A byte-order mark is ignored. Two readers give the same Dataset:
    `_read_numeric`, one `np.loadtxt` pass, takes a plain numeric file, and
    `_read_csv`, the csv module, takes every other. A file is plain numeric
    when it holds no `"`, carriage return, NUL or \\x1c-\\x1f character and no
    blank line, has a header of distinct names and at least one row, no line
    as long as `csv.field_size_limit()`, the same number of fields on every
    line and a number in every cell, and each --ordering names a column and
    resolves to time or binary_group. Every ingest error comes from the csv
    reader.
    """
    data = _read_numeric(path, ordering_specs)
    return _read_csv(path, ordering_specs) if data is None else data


def _read_numeric(path: str, ordering_specs: list) -> Dataset | None:
    """The Dataset `_read_csv` gives for a plain numeric file, else None."""
    from .regression import Dataset, OrderingVariable

    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError):
        return None
    if any(char in text for char in _NOT_PLAIN):
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    # csv reads a blank line as a row of 0 fields, which loadtxt skips.
    if len(lines) < 2 or "" in lines or max(map(len, lines)) >= csv.field_size_limit():
        return None
    header = lines[0].split(",")
    if len(set(header)) != len(header):
        return None
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if table.shape != (len(lines) - 1, len(header)):
        return None
    # One fresh contiguous array per column, as the csv reader makes: strided
    # views of the table change the last bits of the fits.
    floats = {name: column.copy() for name, column in zip(header, table.T)}
    orderings = {}
    for spec_text in ordering_specs:
        name, _, kind = spec_text.partition(":")
        values = floats.get(name)
        if values is None:
            return None
        kind = _ordering_kind(kind, values)
        if kind not in _NUMERIC_KINDS:
            return None
        orderings[name] = OrderingVariable(name, kind, values)
    return Dataset(columns={name: floats[name] for name in header if name not in orderings}, orderings=orderings)


def _read_csv(path: str, ordering_specs: list) -> Dataset:
    """The CSV at path as a Dataset, read with the csv module.

    Each column is converted to floats once; a categorical ordering keeps
    the stripped cell text, and a quoted field may hold the delimiter. Only
    a column that does not convert can hold a blank cell, so only such
    columns are scanned for one.
    """
    from .regression import Dataset, OrderingVariable

    try:
        with open(path, encoding="utf-8-sig", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None:
                raise InvalidSpec(f"{path} is empty")
            rows = list(reader)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise InvalidSpec(f"cannot read {path}: {exc}") from None
    if len(set(header)) != len(header):
        raise InvalidSpec("duplicate column names in CSV header")
    # Rows before the first ragged one; a blank cell among them is reported first.
    n = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    cells = dict(zip(header, zip(*rows[:n])))
    floats, blanks = {}, []
    for position, (name, column) in enumerate(cells.items()):
        try:
            floats[name] = np.fromiter(map(float, column), float, n)
        except ValueError:
            row = next((i for i, cell in enumerate(column) if not cell.strip()), None)
            if row is not None:
                blanks.append((row, position, name))
    if blanks:
        row, _, name = min(blanks)
        raise InvalidSpec(f"blank value in column {name!r}, row {row + 2}")
    if n < len(rows):
        raise InvalidSpec(f"row {n + 2} has {len(rows[n])} fields, expected {len(header)}")
    if not rows:
        raise InvalidSpec(f"{path} has a header but no rows")
    orderings = {}
    for spec_text in ordering_specs:
        name, _, kind = spec_text.partition(":")
        if name not in cells:
            raise UnknownColumn(f"ordering column {name!r} not in the CSV")
        values = floats.get(name)
        kind = _ordering_kind(kind, values)
        if kind not in _NUMERIC_KINDS:
            values = np.array([cell.strip() for cell in cells[name]], dtype=object)
        elif values is None:
            raise InvalidSpec(f"ordering {name!r} declared {kind} but is not numeric")
        orderings[name] = OrderingVariable(name, kind, values)
    for name in header:
        if name not in orderings and name not in floats:
            for cell in cells[name]:
                # The message quotes the cell stripped, unless only the cell as
                # written fails: str.strip removes \x1c-\x1f, which float() refuses.
                try:
                    float(cell.strip())
                    float(cell)
                except ValueError as exc:
                    raise InvalidSpec(f"column {name!r} is not numeric: {exc}") from None
    return Dataset(columns={name: floats[name] for name in header if name not in orderings}, orderings=orderings)


def _corrected_conditional(data: Dataset, response: str, regressor: str, cfg: misspec.BatteryConfig):
    """Conditional side for a lone trending pair: the corrected correlation."""
    from . import misspec
    from .regression import Dataset, ModelSpec, OrderingVariable, fit

    x = Series(data.column(regressor), regressor)
    y = Series(data.column(response), response)
    corrected, x_clean, y_clean = misspec._corrected(x, y, cfg)
    source = "corrected correlation"
    n_eff = len(x_clean)
    # The data's time ordering name, which Dataset keeps apart from every column.
    time = next(name for name, ordering in data.orderings.items() if ordering.kind == "time")
    clean = Dataset(
        columns={regressor: x_clean.values, response: y_clean.values},
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


def cmd_analyze_regression(args) -> str:
    from . import misspec

    data = _read_dataset(args.csv_path, args.ordering)
    if len(args.regressors) not in (1, 2):
        raise InvalidSpec("give one or two regressor columns")
    if len(args.regressors) == 2 and args.by_group is not None:
        raise InvalidSpec("condition on a second --regressors column or on --by-group, not both")
    response = args.response
    x1 = args.regressors[0]
    alpha = args.alpha
    cfg = misspec.BatteryConfig(alpha=alpha, trend_degree=args.trend_degree, lag_count=args.lags)

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

    corrected = None
    if len(args.regressors) == 2:
        x2 = args.regressors[1]
        cond_source = f"fit {response} ~ {x1} + {x2}"
        cond_fit, cond_sign, cond_p, conditional_report = _fitted_side(
            data, response, (x1, x2), cfg, cond_source, cond_source
        )
        conditional_side = verdict.AssociationSide(
            source=cond_source, direction=_direction(cond_sign), p_value=cond_p
        )
        conditioning = f"conditioning on {x2}"
        narrative.append(f"Conditional: {verdict.format_fit(cond_fit)}")
    elif args.by_group is not None:
        ordering = data.ordering(args.by_group)
        if ordering.kind == "time":
            raise InvalidSpec("--by-group needs a group ordering, not a time ordering")
        levels = sorted(set(ordering.values.tolist()))
        if len(levels) < 2:
            raise InvalidSpec(f"ordering {args.by_group!r} has fewer than two levels")
        cond_source = f"per-group fits of {response} ~ {x1} within {args.by_group}"
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
        conditional_report = misspec.merge_reports(group_reports, alpha, cond_source)
        if all(s == signs[0] for s in signs) and signs[0] != 0:
            raw_sign = signs[0]
        else:
            raw_sign = 0.0
        cond_p = max(ps)
        conditional_side = verdict.AssociationSide(
            source=cond_source, direction=_direction(raw_sign), p_value=cond_p
        )
        conditioning = f"within levels of {args.by_group}"
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
    result = verdict.classify(pair, marginal_report, conditional_report, alpha=alpha)
    return verdict.render(result, args.output, narrative="\n".join(narrative))


# --------------------------------------------------------------------- table


def cmd_analyze_table(args) -> str:
    from . import bernoulli

    try:
        with open(args.json_path, encoding="utf-8-sig") as handle:
            obj = json.load(handle)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"cannot read {args.json_path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and an integer past Python's digit limit.
        raise InvalidSpec(f"{args.json_path} is not valid JSON: {exc}") from None
    tables = bernoulli.stratified_tables_from_json(obj)
    alpha = args.alpha
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
    return verdict.render(result, args.output, narrative="\n".join(narrative))


# ------------------------------------------------------------------ simulate


def _write_csv(data: Dataset, out: str, column_order: list) -> str:
    # Every column and ordering that simulate writes holds floats.
    series = [data.orderings[name].values if name in data.orderings else data.column(name) for name in column_order]
    n = data.n
    lines = [",".join(column_order)]
    lines.extend(",".join(repr(float(value)) for value in row) for row in zip(*series))
    text = "\n".join(lines) + "\n"
    if out == "-":
        return text
    try:
        with open(out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise InvalidSpec(f"cannot write {out}: {exc}") from None
    return f"wrote {n} rows to {out}\n"


def _mc_test_descriptor(args, kind) -> simulate.TestDescriptor:
    from . import simulate

    choice = args.test
    if choice is None:
        choice = "naive-correlation" if args.dgp == "trending" else "coefficient"
    if choice != "coefficient" and args.dgp != "trending":
        raise InvalidSpec(f"{choice} tests need the trending DGP")
    if choice == "naive-correlation":
        return simulate.TestDescriptor(kind="naive_correlation", x="x", y="y")
    if choice == "corrected-correlation":
        return simulate.TestDescriptor(
            kind="corrected_correlation", x="x", y="y", trend_degree=args.trend_degree, lag_count=args.lags
        )
    if args.dgp != "niid":
        raise InvalidSpec("coefficient tests need the niid DGP")
    params = derive_full_params(kind.joint)
    return simulate.TestDescriptor(
        kind="coefficient", response="y", regressors=("x1", "x2"), target="x1", null_value=params.beta1
    )


def cmd_simulate(args) -> str:
    from . import simulate

    seed = _resolve_seed(args)
    if args.dgp_command == "bernoulli":
        data = simulate.generate(simulate.DgpSpec(simulate.BernoulliIid(args.theta, args.n), seed))
        return _write_csv(data, args.out, ["t", "x"])
    if args.dgp_command == "example3":
        data = simulate.example3_generator(n_per_group=args.n_per_group, seed=seed)
        return _write_csv(data, args.out, ["group", "x", "y"])
    if args.dgp_command == "niid":
        joint = joint_moments_from_correlations(args.rho12, args.rho13, args.rho23)
        data = simulate.generate(simulate.DgpSpec(simulate.NiidRegression(joint, args.n), seed))
        return _write_csv(data, args.out, ["t", "y", "x1", "x2"])
    if args.dgp_command == "trending":
        data = simulate.generate(simulate.DgpSpec(simulate.TrendingPair(n=args.n), seed))
        return _write_csv(data, args.out, ["t", "x", "y"])
    if args.dgp_command == "mc-size":
        if args.dgp == "trending":
            kind = simulate.TrendingPair(n=46 if args.n is None else args.n)
        else:
            joint = joint_moments_from_correlations(args.rho12, args.rho13, args.rho23)
            kind = simulate.NiidRegression(joint, 100 if args.n is None else args.n)
        descriptor = _mc_test_descriptor(args, kind)
        if args.threads < 1:
            raise InvalidSpec("threads must be >= 1")
        result = simulate.mc_error_rate(
            simulate.DgpSpec(kind, seed), descriptor, alpha=args.alpha, replications=args.reps
        )
        if args.output == "json":
            payload = {
                "dgp": args.dgp,
                "test": descriptor.kind,
                "seed": seed,
                "replications": result.replications,
                "rejections": result.rejections,
                "rejection_rate": result.rejection_rate,
                "mc_se": result.mc_se,
                "alpha": result.alpha,
            }
            return json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return (
            f"dgp: {args.dgp}\ntest: {descriptor.kind}\nseed: {seed}\n"
            f"replications: {result.replications}\nrejections: {result.rejections}\n"
            f"rejection rate: {result.rejection_rate:.4f} (mc se {result.mc_se:.4f}, "
            f"nominal {result.alpha:g})\n"
        )
    raise InvalidSpec(f"unknown simulate subcommand {args.dgp_command!r}")


# --------------------------------------------------------- reverse-conditions


def cmd_reverse_conditions(args) -> str:
    conditions = check_reversal_conditions(args.rho12, args.rho13, args.rho23)
    params = None
    if conditions.det_positive and max(abs(args.rho12), abs(args.rho13), abs(args.rho23)) < 1.0:
        joint = joint_moments_from_correlations(args.rho12, args.rho13, args.rho23)
        params = derive_full_params(joint)
    if args.output == "json":
        payload = {
            "rho12": conditions.rho12,
            "rho13": conditions.rho13,
            "rho23": conditions.rho23,
            "same_sign": conditions.same_sign,
            "product_exceeds": conditions.product_exceeds,
            "corr_det": conditions.corr_det,
            "det_positive": conditions.det_positive,
            "reversal_predicted": conditions.reversal_predicted,
            "unit_variance_params": None
            if params is None
            else {
                "beta0": params.beta0,
                "beta1": params.beta1,
                "beta2": params.beta2,
                "sigma_u2": params.sigma_u2,
                "alpha1": conditions.rho12,
            },
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    mark = {True: "yes", False: "no"}
    lines = [
        f"rho12 = {verdict._fmt(conditions.rho12)}, rho13 = {verdict._fmt(conditions.rho13)}, "
        f"rho23 = {verdict._fmt(conditions.rho23)}",
        f"(i)   product carries the sign of rho12: {mark[conditions.same_sign]}",
        f"(ii)  |rho13 * rho23| > |rho12|:         {mark[conditions.product_exceeds]}"
        f"  ({verdict._fmt(abs(conditions.rho13 * conditions.rho23))} vs {verdict._fmt(abs(conditions.rho12))})",
        f"(iii) correlation determinant > 0:       {mark[conditions.det_positive]}"
        f"  (det = {verdict._fmt(conditions.corr_det)})",
        f"reversal predicted: {mark[conditions.reversal_predicted]}",
    ]
    if params is not None:
        lines.append(
            "unit-variance params: "
            f"beta1 = {verdict._fmt(params.beta1)}, beta2 = {verdict._fmt(params.beta2)}, "
            f"sigma_u2 = {verdict._fmt(params.sigma_u2)}, marginal slope alpha1 = {verdict._fmt(conditions.rho12)}"
        )
    else:
        lines.append("unit-variance params: undefined (not a positive-definite correlation matrix)")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze-regression":
            out = cmd_analyze_regression(args)
        elif args.command == "analyze-table":
            out = cmd_analyze_table(args)
        elif args.command == "simulate":
            out = cmd_simulate(args)
        elif args.command == "reverse-conditions":
            out = cmd_reverse_conditions(args)
        else:
            parser.error(f"unknown command {args.command!r}")
    except (DegenerateData, DegeneratePool) as exc:
        print(f"degenerate data: {exc}", file=sys.stderr)
        return 3
    except RevcheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(_stamp(args, out))
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
