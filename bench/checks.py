"""Output oracles, independent of confound_lens.

Every op's output is compared with values computed here from numpy and scipy
alone: OLS via `numpy.linalg.lstsq` and an SVD, p-values and quantiles via
`scipy.stats`, logit coefficients via the score equations, and simulation
reports via the closed-form moments of the structural model.  A check returns
a list of problems; an empty list means the output is correct.

Text reports print five decimals, so they are compared with an absolute
tolerance of 1e-5; JSON reports carry full precision and are compared with a
relative tolerance of 1e-6 (the package's quantile inversions are accurate to
about 1e-8 relative, its OLS to rounding).
"""

from __future__ import annotations

import json
import math
import re

import numpy as np
from scipy import stats

TOLERANCE = {"json": (1e-6, 1e-9), "text": (1e-6, 1e-5)}  # (rtol, atol)

# The two bundled studies, written out here so the oracle does not read them
# from the package it checks.
PRESETS = {
    "study1": {"beta": 2.4, "gamma": 2.0, "theta_x": 0.0, "a_on_u": 2.0,
               "a_noise_sd": 0.05, "x_noise_sd": 0.5, "y_noise_sd": 1.5,
               "a_on_eps_x": 0.0, "y_intercept": 0.0, "a_intercept": 0.0},
    "study2": {"beta": 3.0, "gamma": 2.0, "theta_x": 0.0, "a_on_u": 0.5,
               "a_noise_sd": 0.8, "x_noise_sd": 0.5, "y_noise_sd": 1.0,
               "a_on_eps_x": 0.0, "y_intercept": 0.0, "a_intercept": 0.0},
}

# |z| beyond which a Monte Carlo deviation counts as a failure; at 6 the
# false-alarm rate is about 2e-9 per comparison.
MC_SIGMAS = 6.0


# ---------------------------------------------------------------------------
# reading outputs into {stratum: {key: [numbers]}}
# ---------------------------------------------------------------------------

_NUMBER = re.compile(r"[-+]?(?:inf|nan|\d+(?:\.\d*)?(?:[eE][-+]?\d+)?)")


def _floats(text: str) -> list[float] | None:
    tokens = text.split()
    try:
        return [float(t) for t in tokens]
    except ValueError:
        return None


def parse_text(text: str) -> dict:
    """Numbers of a text report, keyed by the label printed beside them."""
    out: dict = {}
    flat = out.setdefault(None, {})
    for line in text.splitlines():
        if m := re.fullmatch(r"--- stratum: (.*) ---", line):
            flat = out.setdefault(m.group(1), {})
        elif m := re.fullmatch(r"OLS fit of '.*' \(n = (\d+), residual df = (\d+)\)", line):
            flat["ols_n_df"] = [float(m.group(1)), float(m.group(2))]
        elif m := re.fullmatch(r"Logistic fit of '.*' \(n = (\d+), \d+ iterations\)", line):
            flat["logit_n"] = [float(m.group(1))]
        elif line.startswith("  VIF: "):
            for pair in line[len("  VIF: "):].split(", "):
                name, _, value = pair.rpartition(" = ")
                flat[f"VIF:{name}"] = [float(value)]
        elif ": " in line:
            label, _, rest = line.strip().partition(": ")
            numbers = _NUMBER.findall(rest)
            if numbers:
                flat[label] = [float(v) for v in numbers]
        elif line.startswith("  ") and len(parts := line.split()) > 1 \
                and (row := _floats(" ".join(parts[1:]))) is not None:
            flat[f"row:{parts[0]}"] = row
    if not out[None]:
        del out[None]
    return out


def flatten_report(report: dict) -> dict:
    """The numbers of a JSON report under the keys `parse_text` uses."""
    out: dict = {}
    for block in report["strata"]:
        flat = out.setdefault(block["stratum"], {})
        if "ols" in block:
            ols = block["ols"]
            flat["ols_n_df"] = [ols["n"], ols["df_residual"]]
            for c in ols["coefficients"]:
                flat[f"row:{c['term']}"] = [c["estimate"], c["std_error"],
                                            c["t_value"], c["p_value"]]
            flat["R-squared"] = [ols["r_squared"]]
            flat["Residual variance"] = [ols["residual_variance"]]
            for name, value in (ols.get("vif") or {}).items():
                flat[f"VIF:{name}"] = [value]
        if "logit" in block:
            lg = block["logit"]
            flat["logit_n"] = [lg["n"]]
            for c in lg["coefficients"]:
                flat[f"row:{c['term']}"] = [c["estimate"], c["std_error"]]
            flat["Log-likelihood"] = [lg["log_likelihood"]]
            flat["C-statistic (in-sample)"] = [lg["c_statistic_in_sample"]]
        if "treatment" in block:
            tr, st = block["treatment"], block["sensitivity"]
            if "estimate" in tr:
                flat["Coef. estimate"] = [tr["estimate"]]
            if "std_error" in tr:
                flat["Standard error"] = [tr["std_error"]]
            flat["t-value"] = [tr["t_value"]]
            flat["Residual df"] = [tr["df"]]
            flat.update(_sensitivity_keys(st["q"], st["alpha"], st["partial_r2"],
                                          st["rv_q"], st["rv_q_alpha"]))
        if "ratio_ci" in block:
            rc = block["ratio_ci"]
            flat.update(_ratio_keys(rc["level"], rc["component_level"],
                                    rc["point_estimate"], [rc["lower"], rc["upper"]],
                                    rc["beta_interval"], rc["variance_interval"], rc["n"]))
    return out


def _sensitivity_keys(q, alpha, partial, rv_q, rv_q_alpha) -> dict:
    return {"Partial R2 of treatment with outcome": [partial],
            f"Robustness value (q = {q:g})": [rv_q],
            f"Robustness value (q = {q:g}, alpha = {alpha:g})": [rv_q_alpha]}


def _ratio_keys(level, sub, point, interval, beta_int, var_int, n) -> dict:
    return {"Point estimate": [point],
            f"{100.0 * level:g}% interval": list(interval),
            f"Numerator Wald interval ({100.0 * sub:g}%)": list(beta_int),
            f"Denominator chi-square interval ({100.0 * sub:g}%)": list(var_int),
            "n": [n]}


def read_output(text: str, fmt: str) -> dict:
    return flatten_report(json.loads(text)) if fmt == "json" else parse_text(text)


def compare(expected: dict, got: dict, fmt: str) -> list[str]:
    """Problems where `got` differs from `expected` beyond the format's tolerance."""
    rtol, atol = TOLERANCE[fmt]
    problems = []
    if set(got) != set(expected):
        problems.append(f"strata {sorted(map(str, got))} != {sorted(map(str, expected))}")
    for label, keys in expected.items():
        flat = got.get(label, {})
        for key, want in keys.items():
            have = flat.get(key)
            if have is None or len(have) != len(want):
                problems.append(f"[{label}] {key}: missing or wrong length ({have})")
                continue
            for w, h in zip(want, have):
                if not abs(float(w) - float(h)) <= atol + rtol * abs(float(w)):
                    problems.append(f"[{label}] {key}: {h!r} != oracle {w!r}")
    return problems


# ---------------------------------------------------------------------------
# oracles for the data commands
# ---------------------------------------------------------------------------

def ols(table: dict, outcome: str, regressors: list[str]) -> dict:
    """Least squares with an intercept, from lstsq and an SVD of the design."""
    y = table[outcome]
    X = np.column_stack([np.ones(y.shape[0])] + [table[r] for r in regressors])
    n, p = X.shape
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    rss = float(resid @ resid)
    df = n - p
    s2 = rss / df
    _, sv, vt = np.linalg.svd(X, full_matrices=False)
    se = np.sqrt(s2 * ((vt.T / sv) ** 2).sum(axis=1))
    t = beta / se
    pval = 2.0 * stats.t.sf(np.abs(t), df)
    r2 = 1.0 - rss / float(((y - y.mean()) ** 2).sum())
    names = ["intercept", *regressors]
    return {"n": n, "df": df, "s2": s2, "names": names, "beta": beta, "se": se, "t": t,
            "keys": {"ols_n_df": [n, df], "R-squared": [r2], "Residual variance": [s2],
                     **{f"row:{nm}": [beta[i], se[i], t[i], pval[i]]
                        for i, nm in enumerate(names)}}}


def fit_expected(table: dict, check: dict) -> dict:
    fit = ols(table, check["outcome"], check["regressors"])
    corr = np.corrcoef(np.column_stack([table[r] for r in check["regressors"]]), rowvar=False)
    vifs = np.diag(np.linalg.inv(corr))
    return {**fit["keys"], **{f"VIF:{r}": [v] for r, v in zip(check["regressors"], vifs)}}


def _rv(f: float) -> float:
    return 0.0 if f <= 0.0 else 0.5 * (math.sqrt(f ** 4 + 4.0 * f * f) - f * f)


def sensitivity_expected(table: dict, check: dict) -> dict:
    fit = ols(table, check["outcome"], check["regressors"])
    q, alpha, df = check["q"], check["alpha"], fit["df"]
    t = float(fit["t"][1])  # the exposure follows the intercept
    f = q * abs(t) / math.sqrt(df)
    f_crit = stats.t.ppf(1.0 - alpha / 2.0, df - 1) / math.sqrt(df - 1)
    return {**fit["keys"],
            "Coef. estimate": [fit["beta"][1]], "Standard error": [fit["se"][1]],
            "t-value": [t], "Residual df": [df],
            **_sensitivity_keys(q, alpha, t * t / (t * t + df), _rv(f), _rv(f - f_crit))}


def ratio_expected(table: dict, check: dict) -> dict:
    fit = ols(table, check["exposure"], [check["proxy"], *check["controls"]])
    level = check["level"]
    sub = 1.0 - (1.0 - level) / 2.0
    df, s2 = fit["df"], fit["s2"]
    b, se = float(fit["beta"][1]), float(fit["se"][1])
    half = stats.t.ppf(1.0 - (1.0 - sub) / 2.0, df) * se
    tail = (1.0 - sub) / 2.0
    beta_int = [b - half, b + half]
    var_int = [df * s2 / stats.chi2.ppf(1.0 - tail, df), df * s2 / stats.chi2.ppf(tail, df)]
    ratios = [bi / vi for bi in beta_int for vi in var_int]
    return _ratio_keys(level, sub, b / s2, [min(ratios), max(ratios)], beta_int, var_int,
                       fit["n"])


def logit_problems(table: dict, check: dict, got: dict, fmt: str) -> tuple[dict, list[str]]:
    """Expected keys for a logit block, plus problems with its coefficients.

    The reported coefficients must solve the score equations X'(y - mu) = 0:
    the Newton step they leave, I^-1 X'(y - mu), must be below the format's
    resolution.  Standard errors, log-likelihood and C-statistic are then
    recomputed at the Newton-polished coefficients.
    """
    y = table[check["outcome"]]
    X = np.column_stack([np.ones(y.shape[0])] + [table[r] for r in check["regressors"]])
    names = ["intercept", *check["regressors"]]
    rows = [got.get(f"row:{nm}") for nm in names]
    if any(r is None for r in rows):
        return {}, [f"logit rows missing: have {sorted(got)}"]
    beta = np.array([r[0] for r in rows])
    mu = stats.logistic.cdf(X @ beta)
    info = X.T @ (X * (mu * (1.0 - mu))[:, None])
    step = np.linalg.solve(info, X.T @ (y - mu))
    polished = beta + step
    mu = stats.logistic.cdf(X @ polished)
    info = X.T @ (X * (mu * (1.0 - mu))[:, None])
    se = np.sqrt(np.diag(np.linalg.inv(info)))
    resolution = TOLERANCE[fmt][1] + 1e-4 * se
    problems = [f"logit {nm}: score equations leave a Newton step {s:.3g}"
                for nm, s, r in zip(names, step, resolution) if not abs(s) <= r]
    eta = X @ polished
    ll = float(y @ eta - np.logaddexp(0.0, eta).sum())
    pos, neg = eta[y == 1.0], eta[y == 0.0]
    c_stat = stats.mannwhitneyu(pos, neg).statistic / (pos.size * neg.size)
    expected = {"logit_n": [y.shape[0]], "Log-likelihood": [ll],
                "C-statistic (in-sample)": [c_stat],
                **{f"row:{nm}": [r[0], s] for nm, r, s in zip(names, rows, se)}}
    return expected, problems


_EXPECTED = {"fit": fit_expected, "sensitivity": sensitivity_expected,
             "ratio-ci": ratio_expected}


def check_data_command(text: str, check: dict, strata: dict) -> list[str]:
    """Check a fit / logit / sensitivity / ratio-ci report against its oracle."""
    fmt = check["format"]
    try:
        got = read_output(text, fmt)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable {fmt} output: {exc!r}"]
    expected, problems = {}, []
    for label, table in strata.items():
        if check["kind"] == "logit":
            expected[label], more = logit_problems(table, check, got.get(label, {}), fmt)
            problems += [f"[{label}] {p}" for p in more]
        else:
            expected[label] = _EXPECTED[check["kind"]](table, check)
    return problems + compare(expected, got, fmt)


# ---------------------------------------------------------------------------
# oracles for simulation outputs
# ---------------------------------------------------------------------------

def population(spec: dict) -> dict:
    """Means and covariance of (u, x, a, y) from the model's loadings on its
    four independent standard-normal shocks."""
    u = np.array([1.0, 0.0, 0.0, 0.0])
    eps_x = np.array([0.0, spec["x_noise_sd"], 0.0, 0.0])
    x = u + eps_x
    a = spec["a_on_u"] * u + spec["a_on_eps_x"] * eps_x + np.array([0, 0, spec["a_noise_sd"], 0])
    y = spec["beta"] * a + spec["theta_x"] * x + spec["gamma"] * u \
        + np.array([0, 0, 0, spec["y_noise_sd"]])
    loadings = np.array([u, x, a, y])
    cov = loadings @ loadings.T
    mean = np.array([0.0, 0.0, spec["a_intercept"],
                     spec["y_intercept"] + spec["beta"] * spec["a_intercept"]])
    ax = [2, 1]
    coef = np.linalg.solve(cov[np.ix_(ax, ax)], cov[ax, 3])
    return {"cov": cov, "mean": mean, "beta_y_on_ax": float(coef[0]),
            "residual_variance": float(cov[3, 3] - coef @ cov[ax, 3]),
            "var_a_given_x": float(cov[2, 2] - cov[2, 1] ** 2 / cov[1, 1])}


def _close(a: float, b: float, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(a - b) <= atol + rtol * abs(b)


def check_replicates(text: str, check: dict) -> list[str]:
    """A `simulate --replicates` JSON report against the closed-form model."""
    try:
        report = json.loads(text)
        config, block = report["config"], report["strata"][0]
        pop, reps = block["population"], block["replicates"]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable replicate report: {exc!r}"]
    spec = PRESETS[check["preset"]]
    problems = []
    if config.get("spec") != spec:
        problems.append(f"spec {config.get('spec')} != preset {check['preset']}")
    for key in ("n", "replicates", "seed"):
        if config.get(key) != check[key]:
            problems.append(f"config {key} {config.get(key)} != {check[key]}")
    if reps.get("count") != check["replicates"] or reps.get("n") != check["n"]:
        problems.append(f"replicates block count/n {reps.get('count')}/{reps.get('n')}")

    model = population(spec)
    cov = model["cov"]
    moments = {"var_u": cov[0, 0], "var_x": cov[1, 1], "var_a": cov[2, 2],
               "cov_a_x": cov[2, 1], "cov_a_u": cov[2, 0],
               "cov_a_eps_x": spec["a_on_eps_x"] * spec["x_noise_sd"] ** 2,
               "var_eps_x": spec["x_noise_sd"] ** 2}
    for key, want in moments.items():
        if not _close(pop["moments"].get(key, math.nan), want):
            problems.append(f"population moment {key} {pop['moments'].get(key)} != {want}")
    target = model["beta_y_on_ax"]
    for key, want in (("beta_true", spec["beta"]), ("beta_y_on_ax", target),
                      ("bias", target - spec["beta"])):
        if not _close(pop.get(key, math.nan), want):
            problems.append(f"population {key} {pop.get(key)} != {want}")
    if "bias_decomposition" in pop:
        d = pop["bias_decomposition"]
        product = d["factor_gamma"] * d["factor_proxy_noise"] * d["factor_collinearity"]
        if not _close(product, target - spec["beta"]):
            problems.append(f"bias factors multiply to {product}, not the bias")

    n, r = check["n"], check["replicates"]
    se_theory = math.sqrt(model["residual_variance"] / (n * model["var_a_given_x"]))
    mean_beta, mean_se = reps.get("mean_beta_hat", math.nan), reps.get("mean_std_error", math.nan)
    if not abs(mean_beta - target) <= MC_SIGMAS * se_theory / math.sqrt(r):
        problems.append(f"mean_beta_hat {mean_beta} is more than {MC_SIGMAS:g} Monte Carlo "
                        f"standard errors from {target}")
    if not _close(mean_se, se_theory, rtol=0.03):
        problems.append(f"mean_std_error {mean_se} is not within 3% of {se_theory}")
    ranged = {k: reps.get(k, math.nan) for k in ("sd_beta_hat", "mean_partial_r2",
                                                  "mean_rv_q", "mean_rv_q_alpha")}
    if not (ranged["sd_beta_hat"] >= 0.0 and 0.0 < ranged["mean_partial_r2"] < 1.0
            and 0.0 <= ranged["mean_rv_q_alpha"] <= ranged["mean_rv_q"] < 1.0):
        problems.append(f"replicate summary outside its range: {ranged}")
    return problems


def load_simulated_csv(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != ["u", "x", "a", "y"] or values.shape[1] != 4:
        raise ValueError(f"simulated CSV has header {header} and {values.shape[1]} columns")
    return {name: values[:, j].copy() for j, name in enumerate(header)}


def check_simulated_csv(path, check: dict) -> list[str]:
    """Sample moments of a simulated CSV against the model, within 8 sd."""
    try:
        table = load_simulated_csv(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable simulated CSV: {exc!r}"]
    data = np.column_stack([table[k] for k in ("u", "x", "a", "y")])
    n = data.shape[0]
    if n != check["n"] or not np.all(np.isfinite(data)):
        return [f"simulated CSV has {n} rows (want {check['n']}) or non-finite values"]
    model = population(PRESETS[check["preset"]])
    cov, mean = model["cov"], model["mean"]
    var = np.diag(cov)
    problems = []
    mean_z = np.abs(data.mean(axis=0) - mean) / np.sqrt(var / n)
    if np.any(mean_z > 8.0):
        problems.append(f"simulated column means are {mean_z.max():.1f} sd from the model")
    cov_sd = np.sqrt((np.outer(var, var) + cov ** 2) / n)
    cov_z = np.abs(np.cov(data, rowvar=False) - cov) / cov_sd
    if np.any(cov_z > 8.0):
        problems.append(f"simulated covariances are {cov_z.max():.1f} sd from the model")
    return problems
