"""Golden SHA-256 digests of the simulation stream and of report bytes.

The README promises a simulation stream fully pinned by the generator and
byte-identical `--deterministic` reports.  These digests pin both: any change
to the sampler, the CSV writer, CSV ingest or a solver that moves a single
bit of these outputs fails here.  A change that means to move them must say
so and record new digests.
"""

import hashlib
from pathlib import Path

import pytest

from confound_lens import STUDY_PRESETS, generate
from confound_lens.cli import main

ROOT = Path(__file__).resolve().parent.parent
# relative, so the report's echoed config does not depend on the checkout path
FIXTURE = "data/nhanes_synthetic.csv"

GENERATE_DIGESTS = {
    "study1": "b832bd75542eef21d631aab332f108b5fe37a430466938a137477a61302a1a15",
    "study2": "996dac0a8a1ec19c9e999fd764b6d62d52c81e4ff792d1c63d6fe82ce40e03af",
}

CLI_DIGESTS = {
    "simulate-csv": "21770acea2f879449c0507830259a834c1d086653af255f4ebac1bf7209c27e4",
    "fit": "7af02655a4fd6a74276bee5b6fa874c65b9af012496a26d630dd00739f11b168",
    "logit-stratified": "d8198702ae7ef71836ab76acc75351429d36c9d24b145adfcdbbabaf46c40fc4",
    "ratio-ci-stratified": "9ed397671e7b70c99952661997d29941d843e6d56f3823168ddc9cdd3bc2e7e4",
    "simulate-replicates": "cbe3f8e352ef4ec627f25908b6f5bcbbc7b7e91d8e706f708dea373ce489d620",
    "fit-stratified-vif": "9458db66a1d37deb9852dd5ed826dd0df31bcd2955e775476c47a39bd6f1c0ea",
    "sensitivity": "fcbc766ef4be850b72d74d6bdbf8d9308d32a74210d1c4eb0fd7bdcf277923ac",
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
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("preset", sorted(GENERATE_DIGESTS))
def test_generate_stream_is_pinned(preset):
    data = generate(STUDY_PRESETS[preset], 1000, 0)
    assert _sha256(data.values.tobytes()) == GENERATE_DIGESTS[preset]


@pytest.mark.parametrize("name", sorted(CLI_DIGESTS))
def test_cli_output_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    assert main([*CLI_ARGV[name], "--output", str(out)]) == 0
    assert _sha256(out.read_bytes()) == CLI_DIGESTS[name]
