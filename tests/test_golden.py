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

from confound_lens import (STUDY_PRESETS, Dataset, DgpSpec, conservative_ratio_ci, generate,
                           population_bias_decomposition, population_ols_bias)
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
    "fit": "7af02655a4fd6a74276bee5b6fa874c65b9af012496a26d630dd00739f11b168",
    "logit-stratified": "d8198702ae7ef71836ab76acc75351429d36c9d24b145adfcdbbabaf46c40fc4",
    "ratio-ci-stratified": "9ed397671e7b70c99952661997d29941d843e6d56f3823168ddc9cdd3bc2e7e4",
    "simulate-replicates": "cbe3f8e352ef4ec627f25908b6f5bcbbc7b7e91d8e706f708dea373ce489d620",
    "fit-stratified-vif": "9458db66a1d37deb9852dd5ed826dd0df31bcd2955e775476c47a39bd6f1c0ea",
    "sensitivity": "fcbc766ef4be850b72d74d6bdbf8d9308d32a74210d1c4eb0fd7bdcf277923ac",
    "fit-stratified-text": "8161a2e614180bc45252cf8f98417694257e7732bd26cdecedd9487d9148959a",
    "logit-stratified-text": "89ea9c41b2ee5257a1663ec3a46a339fe360ffdb5d0dff6f6e932bdb8e99c773",
    "sensitivity-text": "14a166fe27e4695005cb4031d80c3cb1352931fea44fe08f9f490a38a1a171fd",
    "sensitivity-summary-text": "447515cac030b7a2162ff31662a31d53e03eb9857d536a3c9af84b8ccf9351eb",
    "sensitivity-summary": "89dbe94843b84057866eaee9919f9facc16a1d6578cc41ac803f83089f44f594",
    "ratio-ci-stratified-text": "2882e01f14c4c8d990c9def9065e05a91315fb4f2d12e14d02b61e2f71bde33e",
    "bias-grid": "afc975644c89fbee6eb772cadb138b5ca3ef88bd04cce021da47e1e45e0df8c8",
    "simulate-replicates-text": "12579705544c1ebc925907ba11821c23ae75b6824218942ddfebd3e6dd6973b7",
    "simulate-replicates-large": "15541443ee79a858a272b7da07dffbce097df1483c5de848f69262a44c7102c9",
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
SPEC_REPLICATES_DIGEST = "a895f9ce6f85087010de76dc5d8907d6c8b3f2ebbbe2ecad1a4f0daafe6b851d"


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
RATIO_POINT_ESTIMATE_DIGEST = "bbd4ee854c41b4b3bbcc70b65d8eb649fa856dd73c1fae9645d0913b516c4da0"


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
        yield f"{i} " + _bits_or_error(
            lambda: conservative_ratio_ci(data, "a", "x", controls).point_estimate)


def test_population_bias_and_decomposition_are_pinned():
    lines = "\n".join(_population_bias_lines())
    assert _sha256(lines.encode()) == POPULATION_BIAS_DIGEST


def test_ratio_point_estimate_is_pinned():
    lines = "\n".join(_ratio_point_estimate_lines())
    assert _sha256(lines.encode()) == RATIO_POINT_ESTIMATE_DIGEST
