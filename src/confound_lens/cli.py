"""Command-line front end: CSV in, JSON or text reports out.

Each flag's value is checked by its argparse `type=` where it is declared,
and every such type is built from the package's argument rules in `checks`,
so a bad value is a usage error before any input is read; handlers check
only rules that join several flags.  Every JSON report is built by
`_report`, whose `config` echoes the parsed flags, and text is rendered from
one table of report sections (`_TEXT_SECTIONS`).  Handlers look library functions up
as module globals at call time, so they can be patched from outside.

Exit codes: 0 success, 1 usage (bad flags, unknown columns, invalid
parameters), 2 input parsing, 3 numeric problems (rank deficiency, domain
errors, degenerate ratios), 4 convergence failures (separation, iteration
limits), 5 internal error (any other failure, such as running out of memory).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import checks
from .bias import ProxyModel, decompose_bias, exposure_stats_from_ols
from .dataset import Dataset
from .errors import (ConfoundLensError, ConvergenceError, DegenerateExposureError,
                     DomainError, EmptyAfterFilteringError, InsufficientRowsError,
                     NoVariationError, ParseError, RankDeficientError,
                     SeparationError)
from .ingest import dataset_to_csv, ingest_csv, ingest_csv_stratified
from .logit import c_statistic, fit_logit
from .ols import fit_ols, vif
from .ratio_ci import conservative_ratio_ci
from .sensitivity import TreatmentSummary, sensitivity_report
from .simulate import (STUDY_PRESETS, DgpSpec, generate, population_bias_decomposition,
                       population_moments, population_ols_bias, replicate_study)

REPORT_VERSION = 1


class _UsageError(ConfoundLensError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # "-" then a digit or "." is a value (-1e5, -1:1:3); argparse's own takes -12, -1.5
        self._negative_number_matcher = re.compile(r"^-[\d.]")

    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _checked(rule, value, **bounds):
    """`value` passed through a rule of `checks`; its DomainError becomes an
    ArgumentTypeError, so argparse reports "argument --flag: <message>"."""
    try:
        return rule(value, "value", **bounds)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _flag(rule, convert=float, **bounds):
    """An argparse `type=` converting a flag's text and checking it by `rule`."""
    def check(text: str):
        return _checked(rule, convert(text), **bounds)
    check.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return check


def _grid(rule, **bounds):
    """An argparse `type=` for "a,b,c" or "lo:hi:count", each value checked by `rule`."""
    def grid(text: str) -> list[float]:
        try:
            if ":" in text:
                lo, hi, count = text.split(":")
                values = [float(v) for v in np.linspace(float(lo), float(hi), int(count))]
            else:
                values = [float(v) for v in text.split(",") if v.strip()]
            if not values:
                raise ValueError
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse grid {text!r}; use 'a,b,c' or 'lo:hi:count'") from None
        return [_checked(rule, v, **bounds) for v in values]
    return grid


_FINITE = _flag(checks.finite)
_POSITIVE = _flag(checks.at_least, low=0.0, strict=True)
_PROBABILITY = _flag(checks.probability)
_COUNT = _flag(checks.integer, int, low=1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="confound-lens",
                     description="Sensitivity of regression estimates to "
                                 "unmeasured confounding under proxy adjustment")
    sub = parser.add_subparsers(dest="command", required=True)

    # bias-grid writes one CSV table: it takes the output and input flags
    # but none of the report flags (--format, --deterministic, --stratify)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default="-", help="output path, '-' for stdout")
    out = argparse.ArgumentParser(add_help=False, parents=[output])
    out.add_argument("--format", choices=("text", "json"), default="text")
    out.add_argument("--deterministic", action="store_true",
                     help="omit timestamps so identical runs are byte-identical")

    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", help="CSV path, '-' for stdin")
    source.add_argument("--controls", type=_comma_list, default=[],
                        help="comma-separated regressor columns")
    data = argparse.ArgumentParser(add_help=False, parents=[source])
    data.add_argument("--stratify", help="run independently per value of this column")

    p = sub.add_parser("fit", parents=[out, data], help="OLS with inference and VIFs")
    p.add_argument("--outcome", required=True)
    p.add_argument("--exposure", help="regressor listed before the controls")
    p.set_defaults(handler=_handle_fit)

    p = sub.add_parser("logit", parents=[out, data],
                       help="logistic fit with in-sample C-statistic")
    p.add_argument("--outcome", required=True)
    p.add_argument("--exposure")
    p.set_defaults(handler=_handle_logit)

    p = sub.add_parser("sensitivity", parents=[out, data],
                       help="partial R2 and robustness values for a treatment")
    p.add_argument("--outcome")
    p.add_argument("--exposure")
    p.add_argument("--t", type=_FINITE, help="treatment t-value (summary mode)")
    p.add_argument("--df", type=_COUNT, help="residual df (summary mode)")
    p.add_argument("--estimate", type=_FINITE)
    p.add_argument("--se", type=_POSITIVE)
    p.add_argument("--q", type=_POSITIVE, default=1.0)
    p.add_argument("--alpha", type=_PROBABILITY, default=0.05)
    p.set_defaults(handler=_handle_sensitivity)

    p = sub.add_parser("bias-grid", parents=[output, source],
                       help="CSV of implied bias over a (gamma, proxy-noise) grid")
    p.add_argument("--exposure", required=True)
    p.add_argument("--proxy", required=True)
    p.add_argument("--gamma-grid", type=_grid(checks.finite), default=[0.0, 0.5, 1.0, 1.5, 2.0])
    p.add_argument("--eps-grid", type=_grid(checks.at_least, low=0.0),
                   default=[0.0, 0.25, 0.5, 0.75, 1.0], help="grid of Var(eps_X) values")
    p.set_defaults(handler=_handle_bias_grid)

    p = sub.add_parser("ratio-ci", parents=[out, data],
                       help="conservative CI for coefficient / residual variance")
    p.add_argument("--exposure", required=True)
    p.add_argument("--proxy", required=True)
    p.add_argument("--level", type=_PROBABILITY, default=0.95)
    p.set_defaults(handler=_handle_ratio_ci)

    p = sub.add_parser("simulate", parents=[out],
                       help="draw from a structural model; CSV out, or a "
                            "replicate report with --replicates")
    p.add_argument("--preset", required=True,
                   help="study1, study2, or a path to a JSON model spec")
    p.add_argument("--n", type=_COUNT, default=1000)
    p.add_argument("--seed", type=_flag(checks.integer, int, low=0, high=2 ** 64), default=0)
    p.add_argument("--replicates", type=_COUNT)
    p.add_argument("--q", type=_POSITIVE, default=1.0)
    p.add_argument("--alpha", type=_PROBABILITY, default=0.05)
    p.set_defaults(handler=_handle_simulate)

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _source(args):
    if not args.input:
        raise _UsageError("--input is required (use '-' for stdin)")
    return sys.stdin if args.input == "-" else args.input


def _load_strata(args) -> list[tuple[str | None, Dataset]]:
    source = _source(args)
    if args.stratify:
        return ingest_csv_stratified(source, args.stratify)
    return [(None, ingest_csv(source))]


def _regressors(args) -> list[str]:
    names = ([args.exposure] if args.exposure else []) + args.controls
    if not names:
        raise _UsageError("no regressors: pass --exposure and/or --controls")
    return names


def _exposure_fit(args, data: Dataset):
    """The one fit of exposure ~ proxy + controls that a stratum's ratio statistics read."""
    return fit_ols(data, args.exposure, [args.proxy, *args.controls])


def _finite_or_none(value):
    """`value` with every non-finite float in it replaced by None (JSON null)."""
    if isinstance(value, dict):
        return {k: _finite_or_none(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_none(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


# parsed attributes left out of a report's config: the subcommand, its
# handler, and the flags that shape only how the report is written
_NOT_CONFIG = ("command", "handler", "format", "output", "deterministic")


def _report(args, strata, **extra_config) -> str:
    """The report of (stratum label, block) pairs as JSON or text; its
    config echoes every parsed flag that shapes the analysis.  JSON is strict
    (RFC 8259): a non-finite float is written as null."""
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    report = {"report_version": REPORT_VERSION, "command": args.command,
              "config": {**config, **extra_config}}
    if not args.deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    report["strata"] = [{"stratum": label, **block} for label, block in strata]
    if args.format == "json":
        return json.dumps(_finite_or_none(report), indent=2, sort_keys=True,
                          allow_nan=False) + "\n"
    return _render_text(report)


def _coefficient_rows(fit, **columns) -> list[dict]:
    """One {"term": name, column: value, ...} row per coefficient of `fit`."""
    return [{"term": name, **{key: float(values[i]) for key, values in columns.items()}}
            for i, name in enumerate(fit.names)]


def _ols_block(fit, vifs=None) -> dict:
    block = {
        "outcome": fit.outcome,
        "n": int(fit.n),
        "df_residual": int(fit.df_residual),
        "r_squared": float(fit.r_squared),
        "residual_variance": float(fit.residual_variance),
        "coefficients": _coefficient_rows(fit, estimate=fit.coefficients,
                                          std_error=fit.standard_errors,
                                          t_value=fit.t_values, p_value=fit.p_values),
    }
    if vifs is not None:
        block["vif"] = vifs
    return block


# ---------------------------------------------------------------------------
# handlers (each returns the full output text)
# ---------------------------------------------------------------------------

def _handle_fit(args) -> str:
    regressors = _regressors(args)
    strata = []
    for label, data in _load_strata(args):
        fit = fit_ols(data, args.outcome, regressors)
        vifs = None
        if len(regressors) >= 2:
            vifs = {name: float(v) for name, v in zip(regressors, vif(data, regressors))}
        strata.append((label, {"ols": _ols_block(fit, vifs)}))
    return _report(args, strata)


def _handle_logit(args) -> str:
    regressors = _regressors(args)
    strata = []
    for label, data in _load_strata(args):
        fit = fit_logit(data, args.outcome, regressors)
        if not fit.converged:
            raise ConvergenceError(
                f"logistic fit did not converge in {fit.iterations} iterations"
            )
        strata.append((label, {"logit": {
            "outcome": fit.outcome,
            "n": int(fit.n),
            "converged": fit.converged,
            "iterations": int(fit.iterations),
            "log_likelihood": float(fit.log_likelihood),
            "c_statistic_in_sample": float(c_statistic(fit.fitted_probabilities,
                                                       data.column(args.outcome))),
            "coefficients": _coefficient_rows(fit, estimate=fit.coefficients,
                                              std_error=fit.standard_errors),
        }}))
    return _report(args, strata)


def _handle_sensitivity(args) -> str:
    if args.t is not None or args.df is not None:
        if args.t is None or args.df is None:
            raise _UsageError("summary mode needs both --t and --df")
        treatments = [(None, {}, TreatmentSummary(t_value=args.t, df=args.df,
                                                  estimate=args.estimate,
                                                  std_error=args.se))]
    else:
        if not args.outcome or not args.exposure:
            raise _UsageError("data mode needs --outcome and --exposure "
                              "(or use --t/--df)")
        treatments = []
        for label, data in _load_strata(args):
            fit = fit_ols(data, args.outcome, [args.exposure] + args.controls)
            treatments.append((label, {"ols": _ols_block(fit)},
                               TreatmentSummary.from_ols(fit, args.exposure)))
    return _report(args, [
        (label, {**block,
                 "treatment": {k: v for k, v in asdict(ts).items() if v is not None},
                 "sensitivity": asdict(sensitivity_report(ts, args.q, args.alpha))})
        for label, block, ts in treatments
    ])


def _handle_bias_grid(args) -> str:
    fit = _exposure_fit(args, ingest_csv(_source(args)))
    exposure = exposure_stats_from_ols(fit, args.proxy)
    lines = ["gamma,var_eps_x,bias"]
    lines += [f"{g!r},{v!r},{decompose_bias(ProxyModel(g, v), exposure).bias!r}"
              for g in args.gamma_grid for v in args.eps_grid]
    return "\n".join(lines) + "\n"


def _handle_ratio_ci(args) -> str:
    strata = []
    for label, data in _load_strata(args):
        fit = _exposure_fit(args, data)
        interval = conservative_ratio_ci(fit, args.proxy, args.level)
        strata.append((label, {"ratio_ci": {**asdict(interval), "n": fit.n}}))
    return _report(args, strata)


def _resolve_spec(preset: str) -> tuple[str, DgpSpec]:
    if preset in STUDY_PRESETS:
        return preset, STUDY_PRESETS[preset]
    path = Path(preset)
    if path.suffix == ".json" or path.exists():
        with open(path, "r", encoding="utf-8") as fh:
            try:
                payload = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{preset}: invalid JSON model spec: {exc}") from exc
        try:
            return str(path), DgpSpec.from_dict(payload)
        except TypeError as exc:
            raise ParseError(f"{preset}: incomplete model spec: {exc}") from exc
    raise _UsageError(
        f"unknown preset {preset!r}: expected one of "
        f"{', '.join(sorted(STUDY_PRESETS))} or a JSON spec path"
    )


def _handle_simulate(args) -> str:
    name, spec = _resolve_spec(args.preset)
    if args.replicates is None:
        buffer = io.StringIO()
        dataset_to_csv(generate(spec, args.n, args.seed), buffer)
        return buffer.getvalue()

    summary = replicate_study(spec, args.n, args.replicates, args.seed,
                              q=args.q, alpha=args.alpha)
    bias = float(population_ols_bias(spec))
    population = {"beta_true": spec.beta, "bias": bias, "beta_y_on_ax": spec.beta + bias,
                  "moments": asdict(population_moments(spec))}
    if spec.a_on_eps_x == 0.0:
        population["bias_decomposition"] = asdict(population_bias_decomposition(spec))
    return _report(args, [(None, {
        "population": population,
        # the per-replicate arrays stay out; their means and sd go in
        "replicates": {"count": summary.replicates, "n": summary.n,
                       **{k: v for k, v in vars(summary).items()
                          if k.startswith(("mean_", "sd_"))}},
    })], preset=name, spec=spec.to_dict())


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.5f}"


def _render_text(report: dict) -> str:
    lines: list[str] = []
    for block in report["strata"]:
        if block["stratum"] is not None:
            lines.append(f"--- stratum: {block['stratum']} ---")
        for key, render in _TEXT_SECTIONS:
            if key in block:
                lines.extend(render(block[key]))
        lines.append("")
    return "\n".join(lines)


def _text_table(rows: list[dict], columns: list[str]) -> list[str]:
    header = ["term".ljust(24)] + [c.rjust(12) for c in columns]
    out = ["  " + "  ".join(header)]
    for row in rows:
        cells = [str(row["term"]).ljust(24)]
        cells += [_fmt(row[c]).rjust(12) for c in columns]
        out.append("  " + "  ".join(cells))
    return out


def _text_ols(ols: dict) -> list[str]:
    lines = [f"OLS fit of '{ols['outcome']}' "
             f"(n = {ols['n']}, residual df = {ols['df_residual']})"]
    lines += _text_table(ols["coefficients"],
                         ["estimate", "std_error", "t_value", "p_value"])
    lines.append(f"  R-squared: {_fmt(ols['r_squared'])}")
    lines.append(f"  Residual variance: {_fmt(ols['residual_variance'])}")
    if "vif" in ols and ols["vif"]:
        pairs = ", ".join(f"{k} = {_fmt(v)}" for k, v in ols["vif"].items())
        lines.append(f"  VIF: {pairs}")
    return lines


def _text_logit(block: dict) -> list[str]:
    lines = [f"Logistic fit of '{block['outcome']}' "
             f"(n = {block['n']}, {block['iterations']} iterations)"]
    lines += _text_table(block["coefficients"], ["estimate", "std_error"])
    lines.append(f"  Log-likelihood: {_fmt(block['log_likelihood'])}")
    lines.append(f"  C-statistic (in-sample): {_fmt(block['c_statistic_in_sample'])}")
    return lines


def _text_treatment(treatment: dict) -> list[str]:
    lines = ["Sensitivity analysis to unobserved confounding", "Treatment summary:"]
    if "estimate" in treatment:
        lines.append(f"  Coef. estimate: {_fmt(treatment['estimate'])}")
    if "std_error" in treatment:
        lines.append(f"  Standard error: {_fmt(treatment['std_error'])}")
    lines.append(f"  t-value: {_fmt(treatment['t_value'])}")
    lines.append(f"  Residual df: {treatment['df']}")
    return lines


def _text_sensitivity(stats: dict) -> list[str]:
    q, alpha = stats["q"], stats["alpha"]
    return [
        "Sensitivity statistics:",
        f"  Partial R2 of treatment with outcome: {_fmt(stats['partial_r2'])}",
        f"  Robustness value (q = {q:g}): {_fmt(stats['rv_q'])}",
        f"  Robustness value (q = {q:g}, alpha = {alpha:g}): "
        f"{_fmt(stats['rv_q_alpha'])}",
    ]


def _text_ratio(block: dict) -> list[str]:
    pct = 100.0 * block["level"]
    sub = 100.0 * block["component_level"]
    return [
        "Conservative interval for coefficient / residual-variance ratio",
        f"  Point estimate: {_fmt(block['point_estimate'])}",
        f"  {pct:g}% interval: [{_fmt(block['lower'])}, {_fmt(block['upper'])}]",
        f"  Numerator Wald interval ({sub:g}%): "
        f"[{_fmt(block['beta_interval'][0])}, {_fmt(block['beta_interval'][1])}]",
        f"  Denominator chi-square interval ({sub:g}%): "
        f"[{_fmt(block['variance_interval'][0])}, {_fmt(block['variance_interval'][1])}]",
        f"  n: {block['n']}",
    ]


def _text_population(block: dict) -> list[str]:
    lines = [
        "Population values",
        f"  True effect of exposure: {_fmt(block['beta_true'])}",
        f"  Coefficient bias: {_fmt(block['bias'])}",
        f"  Population coefficient of exposure: {_fmt(block['beta_y_on_ax'])}",
    ]
    if "bias_decomposition" in block:
        d = block["bias_decomposition"]
        lines.append(
            f"  Bias factors: confounding {_fmt(d['factor_gamma'])} x proxy noise "
            f"{_fmt(d['factor_proxy_noise'])} x collinearity "
            f"{_fmt(d['factor_collinearity'])}")
    return lines


def _text_replicates(block: dict) -> list[str]:
    return [
        f"Replicates: {block['count']} draws of n = {block['n']}",
        f"  Mean exposure coefficient: {_fmt(block['mean_beta_hat'])} "
        f"(sd {_fmt(block['sd_beta_hat'])})",
        f"  Mean standard error: {_fmt(block['mean_std_error'])}",
        f"  Mean partial R2: {_fmt(block['mean_partial_r2'])}",
        f"  Mean robustness value: {_fmt(block['mean_rv_q'])}",
        f"  Mean robustness value (alpha): {_fmt(block['mean_rv_q_alpha'])}",
    ]


# (block key, renderer) in the order sections are printed
_TEXT_SECTIONS = (
    ("ols", _text_ols),
    ("logit", _text_logit),
    ("treatment", _text_treatment),
    ("sensitivity", _text_sensitivity),
    ("ratio_ci", _text_ratio),
    ("population", _text_population),
    ("replicates", _text_replicates),
)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write_output(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


# First match wins; any other Exception is an internal error.
_EXIT_CODES = (
    ((_UsageError, KeyError, OSError), 1),
    ((ParseError, EmptyAfterFilteringError), 2),
    ((DomainError, RankDeficientError, InsufficientRowsError,
      DegenerateExposureError, NoVariationError), 3),
    ((SeparationError, ConvergenceError), 4),
)
INTERNAL_ERROR = 5


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        text = args.handler(args)
        _write_output(text, args.output)
        return 0
    except Exception as exc:
        for classes, code in _EXIT_CODES:
            if isinstance(exc, classes):
                message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
                break
        else:
            code, message = INTERNAL_ERROR, f"{type(exc).__name__}: {exc}"
        print(f"error: {message}", file=sys.stderr)
        return code


def script() -> None:
    sys.exit(main())


if __name__ == "__main__":
    script()
