"""No result depends on a choice the user should be free to make.

A covariate's origin and units change no fit but through the intercept and
that covariate's own slope.  Shifting one covariate by up to 1e12, or
scaling it by 10^-8 to 10^8, must leave every slope and slope standard error
(the scaled covariate's own multiplied back by the scale), every VIF and the
collinearity ratio within TOL relative of the original fit, and the rank and
convergence verdicts unchanged.  Covariates sit on a grid of 2^-10 below
2^12 in magnitude, so every shift of up to 1e12 is exact: the shifted data
are the same data.

The order of the rows changes no verdict, no logit iteration count and no
slope, SE, VIF or ratio by more than TOL relative.  The order of a CSV's
columns changes no byte of a `--deterministic` JSON report but the echoed
input path.  Interleaving the strata's rows changes no byte of a stratified
report, and relabelling the strata only permutes its blocks.
"""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confound_lens import (Dataset, DegenerateExposureError, InsufficientRowsError,
                           NoVariationError, RankDeficientError, SeparationError,
                           collinearity_ratio, exposure_stats_from_ols, fit_logit, fit_ols, vif)
from confound_lens.cli import main
from confound_lens.logit import _sigmoid

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "nhanes_synthetic.csv"

TOL = 1e-9

VERDICTS = (DegenerateExposureError, InsufficientRowsError, NoVariationError,
            RankDeficientError, SeparationError)


@st.composite
def designs(draw):
    """(covariates (n, k), continuous outcome, 0/1 outcome): independent,
    correlated or exactly collinear covariates on the 2^-10 grid."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 4, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    z = rng.normal(size=(n, k))
    kind = draw(st.sampled_from(["independent", "correlated", "collinear"]))
    if kind == "correlated" and k > 1:
        z[:, -1] = z[:, :-1] @ rng.normal(size=k - 1) + 0.05 * rng.normal(size=n)
    spread = 10.0 ** np.array(draw(st.lists(st.floats(-1.0, 2.5), min_size=k, max_size=k)))
    covariates = np.round(np.clip(z * spread, -3000.0, 3000.0) * 1024.0) / 1024.0
    if kind == "collinear" and k > 1:
        covariates[:, -1] = covariates[:, :-1].sum(axis=1)
    eta = z @ rng.normal(size=k)
    y = eta + rng.normal(size=n)
    y01 = (rng.random(n) < _sigmoid(0.5 * eta)).astype(float)
    return covariates, y, y01


transforms = st.one_of(
    st.tuples(st.just("shift"), st.integers(-10 ** 12, 10 ** 12)),
    st.tuples(st.just("shift"), st.sampled_from([s * 10 ** e for e in range(13) for s in (1, -1)])),
    st.tuples(st.just("scale"), st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)),
)


def _fits(covariates, y, y01):
    """Per fit: its slopes then their SEs (logit: after its convergence
    verdict), its VIFs or its ratio; or the class of the error it raised."""
    names = [f"x{j}" for j in range(covariates.shape[1])]
    data = Dataset((*names, "y", "y01"), np.column_stack([covariates, y, y01]))

    def ols():
        fit = fit_ols(data, "y", names)
        return np.concatenate([fit.coefficients[1:], fit.standard_errors[1:]])

    def logit():
        fit = fit_logit(data, "y01", names)
        verdict = (fit.converged, fit.iterations)
        return verdict, np.concatenate([fit.coefficients[1:], fit.standard_errors[1:]])

    def vifs():
        return np.array(vif(data, names)) if len(names) > 1 else np.array([])

    def ratio():
        return np.array([collinearity_ratio(exposure_stats_from_ols(fit_ols(data, "y", names),
                                                                    names[0]))])

    out = {}
    for name, fn in (("ols", ols), ("logit", logit), ("vif", vifs), ("ratio", ratio)):
        try:
            out[name] = fn()
        except VERDICTS as exc:
            out[name] = type(exc).__name__
    return out


def _verdict(result) -> str:
    """The error class a fit raised, or "fitted"."""
    return result if isinstance(result, str) else "fitted"


def _undo(name, values, j, k, scale):
    """The transformed fit's numbers in the original covariate's units."""
    values = values.copy()
    if name in ("ols", "logit"):
        values[[j, j + k]] *= scale  # the slope and SE of covariate j
    elif name == "ratio" and j == 0:  # the proxy's slope, over an unchanged variance
        values *= scale
    return values


@settings(max_examples=200, deadline=None)
@given(designs(), st.data(), transforms)
def test_origin_and_units_of_a_covariate_change_no_slope_se_or_verdict(design, data, transform):
    covariates, y, y01 = design
    k = covariates.shape[1]
    j = data.draw(st.integers(0, k - 1), label="covariate")
    kind, amount = transform
    moved = covariates.copy()
    if kind == "shift":
        moved[:, j] += amount
        assert np.array_equal(moved[:, j] - amount, covariates[:, j])  # exact
    else:
        moved[:, j] *= amount
    before, after = _fits(covariates, y, y01), _fits(moved, y, y01)
    for name in before:
        b, a = before[name], after[name]
        assert _verdict(a) == _verdict(b), name
        if isinstance(b, str):
            continue
        if name == "logit":
            assert a[0] == b[0], name  # converged, and in as many iterations
            b, a = b[1], a[1]
        scale = amount if kind == "scale" else 1.0
        np.testing.assert_allclose(_undo(name, a, j, k, scale), b, rtol=TOL, atol=0.0,
                                   err_msg=name)


@settings(max_examples=200, deadline=None)
@given(designs(), st.data())
def test_row_order_changes_no_slope_se_or_verdict(design, data):
    covariates, y, y01 = design
    rows = np.array(data.draw(st.permutations(range(len(y))), label="row order"))
    before, after = _fits(covariates, y, y01), _fits(covariates[rows], y[rows], y01[rows])
    for name in before:
        b, a = before[name], after[name]
        assert _verdict(a) == _verdict(b), name
        if isinstance(b, str):
            continue
        if name == "logit":
            assert a[0] == b[0], name  # converged, and in as many iterations
            b, a = b[1], a[1]
        np.testing.assert_allclose(a, b, rtol=TOL, atol=0.0, err_msg=name)


REPORTS = {
    "fit": ("fit", "--outcome", "smoker", "--exposure", "poverty_index",
            "--controls", "age,race:Black,race:Other,education_grade"),
    "logit": ("logit", "--outcome", "smoker",
              "--controls", "age,race:Black,race:Other,education_grade,poverty_index"),
    "ratio-ci": ("ratio-ci", "--exposure", "smoker", "--proxy", "poverty_index",
                 "--controls", "age,education_grade", "--stratify", "sex"),
    "sensitivity": ("sensitivity", "--outcome", "smoker", "--exposure", "poverty_index",
                    "--controls", "age,education_grade"),
}


def _report(capsys, command, path):
    """The command's --deterministic JSON report on the CSV at `path`, with
    the echoed input path replaced by a placeholder."""
    code = main([*REPORTS[command], "--input", str(path), "--format", "json",
                 "--deterministic"])
    out, err = capsys.readouterr()
    assert code == 0, err
    echoed = f'"input": {json.dumps(str(path))},'
    assert out.count(echoed) == 1
    return out.replace(echoed, '"input": "<input>",')


def _fixture_table() -> list[list[str]]:
    with open(FIXTURE, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("command", REPORTS)
def test_column_order_changes_no_report(capsys, tmp_path, command):
    table = _fixture_table()
    order = np.random.default_rng(3).permutation(len(table[0]))
    assert order.tolist() != sorted(order.tolist())
    permuted = tmp_path / "permuted.csv"
    with open(permuted, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([row[j] for j in order] for row in table)
    assert _report(capsys, command, permuted) == _report(capsys, command, FIXTURE)


STRATIFIED = {"ratio-ci": REPORTS["ratio-ci"], "fit": (*REPORTS["fit"], "--stratify", "sex")}


def _stratified_report(capsys, command, path, table) -> str:
    """The command's --deterministic JSON report on `table` written to `path`,
    one path for every table, since the report echoes it."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(table)
    code = main([*STRATIFIED[command], "--input", str(path), "--format", "json",
                 "--deterministic"])
    out, err = capsys.readouterr()
    assert code == 0, err
    return out


@pytest.mark.parametrize("command", STRATIFIED)
def test_interleaving_the_strata_changes_no_report(capsys, tmp_path, command):
    header, *rows = _fixture_table()
    j = header.index("sex")
    # a random interleaving of the strata, each stratum's rows in their own order
    queues = {label: iter([row for row in rows if row[j] == label])
              for label in {row[j] for row in rows}}
    labels = np.random.default_rng(5).permutation([row[j] for row in rows])
    interleaved = [next(queues[label]) for label in labels]
    assert interleaved != rows
    path = tmp_path / "strata.csv"
    assert (_stratified_report(capsys, command, path, [header, *interleaved])
            == _stratified_report(capsys, command, path, [header, *rows]))


@pytest.mark.parametrize("command", STRATIFIED)
def test_relabelling_the_strata_permutes_the_blocks_and_no_number(capsys, tmp_path, command):
    header, *rows = _fixture_table()
    j = header.index("sex")
    relabel = {"Female": "zz", "Male": "aa"}
    relabelled = [[*row[:j], relabel[row[j]], *row[j + 1:]] for row in rows]
    path = tmp_path / "strata.csv"
    before = json.loads(_stratified_report(capsys, command, path, [header, *rows]))
    after = json.loads(_stratified_report(capsys, command, path, [header, *relabelled]))
    assert [block["stratum"] for block in before["strata"]] == ["Female", "Male"]
    # the blocks come in label order, so the relabelling swaps them
    permuted = [{**block, "stratum": relabel[block["stratum"]]}
                for block in reversed(before["strata"])]
    assert after == {**before, "strata": permuted}  # floats compared exactly
