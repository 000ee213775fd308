"""Golden SHA-256 digests of the simulation stream and of report bytes.

The README promises a simulation stream fully pinned by the generator and
byte-identical `--deterministic` reports.  These digests pin both: any change
to the sampler, the CSV writer, CSV ingest or a solver that moves a single
bit of these outputs fails here.  A change that means to move them must say
so and record new digests.
"""

import hashlib
import json
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from confound_lens import (STUDY_PRESETS, Dataset, DgpSpec, conservative_ratio_ci, fit_ols,
                           generate, population_bias_decomposition, population_ols_bias)
from confound_lens.cli import main

ROOT = Path(__file__).resolve().parent.parent
# relative, so the report's echoed config does not depend on the checkout path
FIXTURE = "data/nhanes_synthetic.csv"

GENERATE_DIGESTS = {
    "study1": "b832bd75542eef21d631aab332f108b5fe37a430466938a137477a61302a1a15",
    "study2": "996dac0a8a1ec19c9e999fd764b6d62d52c81e4ff792d1c63d6fe82ce40e03af",
}
# 200,004 sampled values: twelve full 16384-value sampler blocks and a partial one
GENERATE_BLOCKS_DIGEST = "f72297f5d82ab5232a15fa698e6674a8226c96c63961f7287eda32cabf7f23d3"

CLI_DIGESTS = {
    "simulate-csv": "21770acea2f879449c0507830259a834c1d086653af255f4ebac1bf7209c27e4",
    "fit": "3471b817cd5da52a119a668dc782c89a0387a768c46980e8ae326e19e46e6df1",
    "logit-stratified": "3b3accf5434aaebfa5c3cce81dec2212854de09e88c59e008b8ee83d81c231f6",
    "ratio-ci-stratified": "0e9b3198b3843d0e53bb561bf2c2dd1fdfd59d2be5d0f102d2d1fe9a7558dfdd",
    "simulate-replicates": "66ac07236c1ca3dda691242852b00ef29fc262a94e69278a48a58a4645ca30fd",
    "fit-stratified-vif": "06aabcba47c33d50dad87004118bc2fbcfb331d6ce09d22269a9b5ad9b5f8b76",
    "sensitivity": "0f3da9e72ac776a6c0a2e5a1770e7c4abad9a629a43604d7dd6974059893983a",
    "fit-stratified-text": "8161a2e614180bc45252cf8f98417694257e7732bd26cdecedd9487d9148959a",
    "logit-stratified-text": "89ea9c41b2ee5257a1663ec3a46a339fe360ffdb5d0dff6f6e932bdb8e99c773",
    "sensitivity-text": "14a166fe27e4695005cb4031d80c3cb1352931fea44fe08f9f490a38a1a171fd",
    "sensitivity-summary-text": "447515cac030b7a2162ff31662a31d53e03eb9857d536a3c9af84b8ccf9351eb",
    "sensitivity-summary": "6d7f8be66301f8388f64fa3c97f777b14434f3544f125bad00a306b7f261ac8f",
    "ratio-ci-stratified-text": "2882e01f14c4c8d990c9def9065e05a91315fb4f2d12e14d02b61e2f71bde33e",
    "bias-grid": "e6bf60490d27c9662d075b12030cd49ec60864f18523fc87949949efa6fbba27",
    "simulate-replicates-text": "12579705544c1ebc925907ba11821c23ae75b6824218942ddfebd3e6dd6973b7",
    "simulate-replicates-large": "74f5d804367625b8a172df611d4440d26fb310b50a86ec9d91ed2493a56f42a8",
}

CLI_ARGV = {
    "simulate-csv": ("simulate", "--preset", "study2", "--n", "1000", "--seed", "0"),
    "fit": ("fit", "--input", FIXTURE, "--outcome", "smoker",
            "--exposure", "poverty_index",
            "--controls", "age,education_grade,race:Black,race:Other",
            "--format", "json", "--deterministic"),
    "logit-stratified": ("logit", "--input", FIXTURE, "--outcome", "smoker",
                         "--controls", "age,race:Black,race:Other,"
                                       "education_grade,poverty_index",
                         "--stratify", "sex", "--format", "json", "--deterministic"),
    "ratio-ci-stratified": ("ratio-ci", "--input", FIXTURE, "--exposure", "smoker",
                            "--proxy", "poverty_index",
                            "--controls", "age,education_grade",
                            "--stratify", "sex", "--format", "json",
                            "--deterministic"),
    "simulate-replicates": ("simulate", "--preset", "study1", "--n", "1000", "--seed", "7",
                            "--replicates", "20", "--format", "json",
                            "--deterministic"),
    "fit-stratified-vif": ("fit", "--input", FIXTURE, "--outcome", "smoker",
                           "--exposure", "poverty_index",
                           "--controls", "age,education_grade",
                           "--stratify", "sex", "--format", "json", "--deterministic"),
    "sensitivity": ("sensitivity", "--input", FIXTURE, "--outcome", "smoker",
                    "--exposure", "poverty_index", "--controls", "age,education_grade",
                    "--format", "json", "--deterministic"),
    "fit-stratified-text": ("fit", "--input", FIXTURE, "--outcome", "smoker",
                            "--exposure", "poverty_index",
                            "--controls", "age,education_grade", "--stratify", "sex"),
    "logit-stratified-text": ("logit", "--input", FIXTURE, "--outcome", "smoker",
                              "--controls", "age,race:Black,race:Other,"
                                            "education_grade,poverty_index",
                              "--stratify", "sex"),
    "sensitivity-text": ("sensitivity", "--input", FIXTURE, "--outcome", "smoker",
                         "--exposure", "poverty_index",
                         "--controls", "age,education_grade",
                         "--q", "0.5", "--alpha", "0.1"),
    "sensitivity-summary-text": ("sensitivity", "--t", "2.5", "--df", "40",
                                 "--estimate", "1.25", "--se", "0.5"),
    "sensitivity-summary": ("sensitivity", "--t", "2.5", "--df", "40",
                            "--estimate", "1.25", "--se", "0.5",
                            "--format", "json", "--deterministic"),
    "ratio-ci-stratified-text": ("ratio-ci", "--input", FIXTURE, "--exposure", "smoker",
                                 "--proxy", "poverty_index",
                                 "--controls", "age,education_grade",
                                 "--level", "0.9", "--stratify", "sex"),
    "bias-grid": ("bias-grid", "--input", FIXTURE, "--exposure", "smoker",
                  "--proxy", "poverty_index", "--controls", "age,education_grade",
                  "--gamma-grid", "0:2:5", "--eps-grid", "0,0.25,1"),
    "simulate-replicates-text": ("simulate", "--preset", "study1", "--n", "1000",
                                 "--seed", "7", "--replicates", "8"),
    # the mc-large benchmark shape: each replicate samples 1e6 values
    "simulate-replicates-large": ("simulate", "--preset", "study1", "--n", "250000",
                                  "--replicates", "2", "--format", "json",
                                  "--deterministic", "--seed", "5"),
}

# a_on_eps_x != 0, so the report carries no bias_decomposition block
SPEC = {"beta": 1.0, "gamma": 0.5, "theta_x": 0.0, "a_on_u": 1.0, "a_noise_sd": 0.5,
        "x_noise_sd": 0.5, "y_noise_sd": 1.0, "a_on_eps_x": 0.2}
SPEC_REPLICATES_DIGEST = "fa28c33140416bab2cf3fc8d29ff964c03855374d9c2ca006b12b51c34e2ab8b"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset", sorted(GENERATE_DIGESTS))
def test_generate_stream_is_pinned(preset):
    data = generate(STUDY_PRESETS[preset], 1000, 0)
    assert _sha256(data.values.tobytes()) == GENERATE_DIGESTS[preset]


def test_generate_stream_across_sampler_blocks_is_pinned():
    data = generate(STUDY_PRESETS["study1"], 50_001, 3)
    assert _sha256(data.values.tobytes()) == GENERATE_BLOCKS_DIGEST


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert main([*CLI_ARGV[name], "--output", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CLI_DIGESTS[name]


def test_simulate_replicates_from_spec_file_is_pinned(tmp_path, monkeypatch):
    # a relative spec path, so the echoed preset does not depend on tmp_path
    monkeypatch.chdir(tmp_path)
    Path("model.json").write_text(json.dumps(SPEC), encoding="utf-8")
    assert main(["simulate", "--preset", "model.json", "--n", "500", "--seed", "3",
                 "--replicates", "6", "--format", "json", "--deterministic",
                 "--output", "out"]) == 0
    report = json.loads(Path("out").read_text(encoding="utf-8"))
    assert "bias_decomposition" not in report["strata"][0]["population"]
    assert _sha256(Path("out").read_bytes()) == SPEC_REPLICATES_DIGEST


# Population bias and its decomposition over random structural models, and the
# collinearity ratio of random exposure fits: one line per case, either the
# exact bits of every returned float or the class of the error raised.
POPULATION_BIAS_DIGEST = "a0121c5dceb7cfc980202b872d7f9722c7b39ed7811faaa05b0725a084da78f3"
RATIO_POINT_ESTIMATE_DIGEST = "50083ff46546ac8278493d24201872a873bcb37995e6b7ceff7ca94b3dd2ce4c"


def _bits_or_error(fn, *args) -> str:
    try:
        values = fn(*args)
    except Exception as exc:  # the error class is part of what is pinned
        return type(exc).__name__
    if isinstance(values, float):
        values = (values,)
    return " ".join(float(v).hex() for v in values)


def _random_population_spec(rng) -> DgpSpec:
    scale = 10.0 ** rng.uniform(-3, 3, size=4)
    a_on_u = float(rng.uniform(-3, 3) * scale[0])
    kind = rng.integers(4)  # correlated proxy noise, none, exact, near-exact collinearity
    a_on_eps_x = float(rng.uniform(-2, 2) * scale[1]) if kind == 0 else 0.0
    a_noise_sd = float(rng.uniform(0, 2) * scale[2]) if kind < 2 else 0.0
    if kind == 2:
        a_on_eps_x = a_on_u  # A = a_on_u X: exposure explained exactly by the proxy
    elif kind == 3:
        a_noise_sd = float(10.0 ** rng.uniform(-9, -5))
    return DgpSpec(beta=float(rng.uniform(-5, 5)), gamma=float(rng.uniform(-5, 5) * scale[3]),
                   theta_x=float(rng.uniform(-3, 3)), a_on_u=a_on_u,
                   a_noise_sd=a_noise_sd,
                   x_noise_sd=float(rng.uniform(0, 2)) if rng.random() < 0.9 else 0.0,
                   y_noise_sd=float(rng.uniform(0.1, 2)), a_on_eps_x=a_on_eps_x,
                   y_intercept=float(rng.uniform(-3, 3)),
                   a_intercept=float(rng.uniform(-3, 3)))


def _population_bias_lines():
    rng = np.random.default_rng(20261018)
    for i in range(1200):
        spec = _random_population_spec(rng)
        yield (f"{i} {_bits_or_error(population_ols_bias, spec)} | "
               f"{_bits_or_error(lambda s: astuple(population_bias_decomposition(s)), spec)}")


def _ratio_point_estimate_lines():
    rng = np.random.default_rng(8)
    for i in range(600):
        n = int(rng.integers(10, 300))
        x, z = rng.normal(size=(2, n))
        a = rng.normal() * x + 0.5 * rng.normal() * z + rng.normal(size=n)
        scales = 10.0 ** rng.uniform(-3, 3, size=3)
        data = Dataset.from_columns({"a": a * scales[0], "x": x * scales[1],
                                     "z": z * scales[2]})
        controls = ["z"] if i % 3 == 0 else []
        yield f"{i} " + _bits_or_error(lambda: conservative_ratio_ci(
            fit_ols(data, "a", ["x", *controls]), "x").point_estimate)


def test_population_bias_and_decomposition_are_pinned():
    lines = "\n".join(_population_bias_lines())
    assert _sha256(lines.encode()) == POPULATION_BIAS_DIGEST


def test_ratio_point_estimate_is_pinned():
    lines = "\n".join(_ratio_point_estimate_lines())
    assert _sha256(lines.encode()) == RATIO_POINT_ESTIMATE_DIGEST
