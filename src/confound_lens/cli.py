"""Command-line front end: CSV in, JSON or text reports out.

Exit codes: 0 success, 1 usage (bad flags, unknown columns, invalid
parameters), 2 input parsing, 3 numeric problems (rank deficiency, domain
errors, degenerate ratios), 4 convergence failures (separation, iteration
limits), 5 internal error (any other failure, such as running out of memory).
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bias import collinearity_ratio, exposure_stats_from_ols
from .dataset import Dataset
from .errors import (ConfoundLensError, ConvergenceError, DegenerateExposureError,
                     DomainError, EmptyAfterFilteringError, InsufficientRowsError,
                     NoVariationError, ParseError, RankDeficientError,
                     SeparationError)
from .ingest import dataset_to_csv, ingest_csv, ingest_csv_stratified
from .logit import c_statistic, fit_logit
from .ols import fit_ols, vif
from .ratio_ci import component_level, conservative_ratio_ci
from .sensitivity import TreatmentSummary, sensitivity_report
from .simulate import (STUDY_PRESETS, DgpSpec, generate, population_bias_decomposition,
                       population_moments, population_ols_bias, replicate_study)

REPORT_VERSION = 1


class _UsageError(ConfoundLensError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _grid(text: str) -> list[float]:
    """Either "a,b,c" or "lo:hi:count"."""
    try:
        if ":" in text:
            lo, hi, count = text.split(":")
            count = int(count)
            if count < 1:
                raise ValueError
            return [float(v) for v in np.linspace(float(lo), float(hi), count)]
        values = [float(v) for v in text.split(",") if v.strip()]
        if not values:
            raise ValueError
        return values
    except ValueError:
        raise _UsageError(f"cannot parse grid {text!r}; use 'a,b,c' or 'lo:hi:count'")


def _build_parser() -> _Parser:
    parser = _Parser(prog="confound-lens",
                     description="Sensitivity of regression estimates to "
                                 "unmeasured confounding under proxy adjustment")
    sub = parser.add_subparsers(dest="command", required=True)

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--format", choices=("text", "json"), default="text")
    out.add_argument("--output", default="-", help="output path, '-' for stdout")
    out.add_argument("--deterministic", action="store_true",
                     help="omit timestamps so identical runs are byte-identical")

    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--input", help="CSV path, '-' for stdin")
    data.add_argument("--stratify", help="run independently per value of this column")
    data.add_argument("--controls", type=_comma_list, default=[],
                      help="comma-separated regressor columns")

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
    p.add_argument("--t", type=float, help="treatment t-value (summary mode)")
    p.add_argument("--df", type=int, help="residual df (summary mode)")
    p.add_argument("--estimate", type=float)
    p.add_argument("--se", type=float)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_handle_sensitivity)

    p = sub.add_parser("bias-grid", parents=[out, data],
                       help="CSV of implied bias over a (gamma, proxy-noise) grid")
    p.add_argument("--exposure", required=True)
    p.add_argument("--proxy", required=True)
    p.add_argument("--gamma-grid", type=_grid, default=[0.0, 0.5, 1.0, 1.5, 2.0])
    p.add_argument("--eps-grid", type=_grid, default=[0.0, 0.25, 0.5, 0.75, 1.0],
                   help="grid of Var(eps_X) values")
    p.set_defaults(handler=_handle_bias_grid)

    p = sub.add_parser("ratio-ci", parents=[out, data],
                       help="conservative CI for coefficient / residual variance")
    p.add_argument("--exposure", required=True)
    p.add_argument("--proxy", required=True)
    p.add_argument("--level", type=float, default=0.95)
    p.set_defaults(handler=_handle_ratio_ci)

    p = sub.add_parser("simulate", parents=[out],
                       help="draw from a structural model; CSV out, or a "
                            "replicate report with --replicates")
    p.add_argument("--preset", required=True,
                   help="study1, study2, or a path to a JSON model spec")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=int)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.set_defaults(handler=_handle_simulate)

    return parser


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def _load_strata(args) -> list[tuple[str | None, Dataset]]:
    if not args.input:
        raise _UsageError("--input is required (use '-' for stdin)")
    source = sys.stdin if args.input == "-" else args.input
    if args.stratify:
        return ingest_csv_stratified(source, args.stratify)
    return [(None, ingest_csv(source))]


def _regressors(args) -> list[str]:
    names = ([args.exposure] if getattr(args, "exposure", None) else []) + args.controls
    if not names:
        raise _UsageError("no regressors: pass --exposure and/or --controls")
    return names


def _check_unit_interval(value: float, flag: str) -> float:
    if not 0.0 < value < 1.0:
        raise _UsageError(f"{flag} must lie strictly in (0, 1), got {value}")
    return value


def _base_report(command: str, config: dict, deterministic: bool) -> dict:
    report = {"report_version": REPORT_VERSION, "command": command, "config": config}
    if not deterministic:
        report["generated_at"] = datetime.now(timezone.utc).isoformat()
    return report


def _ols_block(fit, vifs=None) -> dict:
    block = {
        "outcome": fit.outcome,
        "n": int(fit.n),
        "df_residual": int(fit.df_residual),
        "r_squared": float(fit.r_squared),
        "residual_variance": float(fit.residual_variance),
        "coefficients": [
            {
                "term": name,
                "estimate": float(fit.coefficients[i]),
                "std_error": float(fit.standard_errors[i]),
                "t_value": float(fit.t_values[i]),
                "p_value": float(fit.p_values[i]),
            }
            for i, name in enumerate(fit.names)
        ],
    }
    if vifs is not None:
        block["vif"] = vifs
    return block


# ---------------------------------------------------------------------------
# handlers (each returns the full output text)
# ---------------------------------------------------------------------------

def _handle_fit(args) -> str:
    regressors = _regressors(args)
    report = _base_report("fit", {
        "input": args.input, "outcome": args.outcome, "exposure": args.exposure,
        "controls": args.controls, "stratify": args.stratify,
    }, args.deterministic)
    report["strata"] = []
    for label, data in _load_strata(args):
        fit = fit_ols(data, args.outcome, regressors, include_intercept=True)
        vifs = None
        if len(regressors) >= 2:
            vifs = {name: float(v) for name, v in zip(regressors, vif(data, regressors))}
        report["strata"].append({"stratum": label, "ols": _ols_block(fit, vifs)})
    return _render(report, args)


def _handle_logit(args) -> str:
    regressors = _regressors(args)
    report = _base_report("logit", {
        "input": args.input, "outcome": args.outcome, "exposure": args.exposure,
        "controls": args.controls, "stratify": args.stratify,
    }, args.deterministic)
    report["strata"] = []
    for label, data in _load_strata(args):
        fit = fit_logit(data, args.outcome, regressors, include_intercept=True)
        if not fit.converged:
            raise ConvergenceError(
                f"logistic fit did not converge in {fit.iterations} iterations"
            )
        block = {
            "outcome": fit.outcome,
            "n": int(fit.n),
            "converged": fit.converged,
            "iterations": int(fit.iterations),
            "log_likelihood": float(fit.log_likelihood),
            "c_statistic_in_sample": float(c_statistic(fit, data.column(args.outcome))),
            "coefficients": [
                {"term": name,
                 "estimate": float(fit.coefficients[i]),
                 "std_error": float(fit.standard_errors[i])}
                for i, name in enumerate(fit.names)
            ],
        }
        report["strata"].append({"stratum": label, "logit": block})
    return _render(report, args)


def _sensitivity_block(ts: TreatmentSummary, q: float, alpha: float) -> dict:
    stats = sensitivity_report(ts, q, alpha)
    treatment = {"t_value": float(ts.t_value), "df": int(ts.df)}
    if ts.estimate is not None:
        treatment["estimate"] = float(ts.estimate)
    if ts.std_error is not None:
        treatment["std_error"] = float(ts.std_error)
    return {
        "treatment": treatment,
        "sensitivity": {
            "q": float(stats.q),
            "alpha": float(stats.alpha),
            "partial_r2": float(stats.partial_r2),
            "rv_q": float(stats.rv_q),
            "rv_q_alpha": float(stats.rv_q_alpha),
        },
    }


def _handle_sensitivity(args) -> str:
    q = args.q
    alpha = _check_unit_interval(args.alpha, "--alpha")
    if q <= 0:
        raise _UsageError(f"--q must be > 0, got {q}")
    summary_mode = args.t is not None or args.df is not None
    config = {"input": args.input, "outcome": args.outcome, "exposure": args.exposure,
              "controls": args.controls, "stratify": args.stratify,
              "t": args.t, "df": args.df, "estimate": args.estimate, "se": args.se,
              "q": q, "alpha": alpha}
    report = _base_report("sensitivity", config, args.deterministic)
    report["strata"] = []

    if summary_mode:
        if args.t is None or args.df is None:
            raise _UsageError("summary mode needs both --t and --df")
        ts = TreatmentSummary(t_value=args.t, df=args.df,
                              estimate=args.estimate, std_error=args.se)
        report["strata"].append({"stratum": None, **_sensitivity_block(ts, q, alpha)})
    else:
        if not args.outcome or not args.exposure:
            raise _UsageError("data mode needs --outcome and --exposure "
                              "(or use --t/--df)")
        for label, data in _load_strata(args):
            fit = fit_ols(data, args.outcome, [args.exposure] + args.controls,
                          include_intercept=True)
            ts = TreatmentSummary.from_ols(fit, args.exposure)
            block = {"stratum": label, "ols": _ols_block(fit),
                     **_sensitivity_block(ts, q, alpha)}
            report["strata"].append(block)
    return _render(report, args)


def _handle_bias_grid(args) -> str:
    strata = _load_strata(args)
    if len(strata) != 1:
        raise _UsageError("bias-grid does not support --stratify")
    data = strata[0][1]
    fit = fit_ols(data, args.exposure, [args.proxy] + args.controls,
                  include_intercept=True)
    ratio = collinearity_ratio(exposure_stats_from_ols(fit, args.proxy))
    lines = ["gamma,var_eps_x,bias"]
    for g in args.gamma_grid:
        for v in args.eps_grid:
            if v < 0:
                raise _UsageError(f"--eps-grid values must be >= 0, got {v}")
            lines.append(f"{g!r},{v!r},{g * v * ratio!r}")
    return "\n".join(lines) + "\n"


def _handle_ratio_ci(args) -> str:
    level = _check_unit_interval(args.level, "--level")
    report = _base_report("ratio-ci", {
        "input": args.input, "exposure": args.exposure, "proxy": args.proxy,
        "controls": args.controls, "stratify": args.stratify, "level": level,
    }, args.deterministic)
    report["strata"] = []
    for label, data in _load_strata(args):
        interval = conservative_ratio_ci(data, args.exposure, args.proxy,
                                         args.controls, level)
        report["strata"].append({
            "stratum": label,
            "ratio_ci": {
                "point_estimate": float(interval.point_estimate),
                "lower": float(interval.lower),
                "upper": float(interval.upper),
                "level": float(interval.level),
                "component_level": float(component_level(level)),
                "beta_interval": [float(v) for v in interval.beta_interval],
                "variance_interval": [float(v) for v in interval.variance_interval],
                "n": int(data.n),
            },
        })
    return _render(report, args)


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
    if args.n < 1:
        raise _UsageError(f"--n must be >= 1, got {args.n}")
    if args.seed < 0:
        raise _UsageError("--seed must be a nonnegative integer")

    if args.replicates is None:
        data = generate(spec, args.n, args.seed)
        buffer = io.StringIO()
        dataset_to_csv(data, buffer)
        return buffer.getvalue()

    if args.replicates < 1:
        raise _UsageError(f"--replicates must be >= 1, got {args.replicates}")
    alpha = _check_unit_interval(args.alpha, "--alpha")
    if args.q <= 0:
        raise _UsageError(f"--q must be > 0, got {args.q}")

    summary = replicate_study(spec, args.n, args.replicates, args.seed,
                              q=args.q, alpha=alpha)
    moments = population_moments(spec)
    population = {
        "beta_true": spec.beta,
        "bias": float(population_ols_bias(spec)),
        "moments": {
            "var_a": moments.var_a, "var_x": moments.var_x, "var_u": moments.var_u,
            "cov_a_x": moments.cov_a_x, "cov_a_u": moments.cov_a_u,
            "cov_a_eps_x": moments.cov_a_eps_x, "var_eps_x": moments.var_eps_x,
        },
    }
    population["beta_y_on_ax"] = spec.beta + population["bias"]
    if spec.a_on_eps_x == 0.0:
        decomp = population_bias_decomposition(spec)
        population["bias_decomposition"] = {
            "bias": decomp.bias,
            "factor_gamma": decomp.factor_gamma,
            "factor_proxy_noise": decomp.factor_proxy_noise,
            "factor_collinearity": decomp.factor_collinearity,
        }

    report = _base_report("simulate", {
        "preset": name, "spec": spec.to_dict(), "n": args.n, "seed": args.seed,
        "replicates": args.replicates, "q": args.q, "alpha": alpha,
    }, args.deterministic)
    report["strata"] = [{
        "stratum": None,
        "population": population,
        "replicates": {
            "count": summary.replicates,
            "n": summary.n,
            "mean_beta_hat": summary.mean_beta_hat,
            "sd_beta_hat": summary.sd_beta_hat,
            "mean_std_error": summary.mean_std_error,
            "mean_partial_r2": summary.mean_partial_r2,
            "mean_rv_q": summary.mean_rv_q,
            "mean_rv_q_alpha": summary.mean_rv_q_alpha,
        },
    }]
    return _render(report, args)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.5f}"


def _render(report: dict, args) -> str:
    if args.format == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    return _render_text(report)


def _render_text(report: dict) -> str:
    lines: list[str] = []
    for block in report.get("strata", []):
        if block.get("stratum") is not None:
            lines.append(f"--- stratum: {block['stratum']} ---")
        if "ols" in block:
            lines.extend(_text_ols(block["ols"]))
        if "logit" in block:
            lines.extend(_text_logit(block["logit"]))
        if "treatment" in block:
            lines.extend(_text_sensitivity(block["treatment"], block["sensitivity"]))
        if "ratio_ci" in block:
            lines.extend(_text_ratio(block["ratio_ci"]))
        if "population" in block:
            lines.extend(_text_population(block["population"]))
        if "replicates" in block:
            lines.extend(_text_replicates(block["replicates"]))
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


def _text_sensitivity(treatment: dict, stats: dict) -> list[str]:
    lines = ["Sensitivity analysis to unobserved confounding", "Treatment summary:"]
    if "estimate" in treatment:
        lines.append(f"  Coef. estimate: {_fmt(treatment['estimate'])}")
    if "std_error" in treatment:
        lines.append(f"  Standard error: {_fmt(treatment['std_error'])}")
    lines.append(f"  t-value: {_fmt(treatment['t_value'])}")
    lines.append(f"  Residual df: {treatment['df']}")
    q, alpha = stats["q"], stats["alpha"]
    lines.append("Sensitivity statistics:")
    lines.append(f"  Partial R2 of treatment with outcome: {_fmt(stats['partial_r2'])}")
    lines.append(f"  Robustness value (q = {q:g}): {_fmt(stats['rv_q'])}")
    lines.append(f"  Robustness value (q = {q:g}, alpha = {alpha:g}): "
                 f"{_fmt(stats['rv_q_alpha'])}")
    return lines


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
