"""The four benchmark workloads: inputs derived from the seed, and the op rotation.

A workload is a periodic list of slots.  Op i runs slot i % period, so every
slot repeats within a run (the byte-identity oracle needs repeats) and a run
made of whole periods does exactly the same work whatever its length (the
traced counts must repeat exactly).  Every call is a `confound_lens.cli.main`
argv whose output goes to a file in the run's temp directory.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sizes, recorded in README.md.  mc-large and sim-roundtrip are sized so a
# 20 s run holds at least 40 timed ops, enough for a p75 tail with ten ops
# beyond it; their per-op mix of layers is what the sizes are chosen for.
MC_SMALL = {"n": 1000, "replicates": 200}
MC_LARGE = {"n": 250_000, "replicates": 2}
SURVEY_ROWS = 50_000
ROUNDTRIP_N = 25_000

WHY = {
    "mc-small": "simulate --replicates 200 --n 1000, study1/study2 alternating: per-fit "
                "overhead, scalar t quantiles and the sampler at small n",
    "mc-large": "simulate --replicates 2 --n 250000, study1: the vectorised inverse-CDF "
                "sampler and QR/SVD of a tall design dominate; per-call overhead does not",
    "survey-csv": "fit, logit, sensitivity, ratio-ci --stratify sex on a 50000-row survey CSV, "
                  "text and json: CSV ingest, tall OLS and VIFs, logit IRLS, quantiles",
    "sim-roundtrip": "simulate --n 25000 writes a CSV that sensitivity and ratio-ci read back: "
                     "the only workload that writes CSV, beside a numeric-only read",
}


@dataclass(frozen=True)
class Call:
    """One `cli.main` invocation and how its output is checked."""

    argv: tuple[str, ...]
    output: str
    check: dict


@dataclass(frozen=True)
class Slot:
    calls: tuple[Call, ...]
    rows: int  # data rows generated plus rows read by the op


@dataclass
class Workload:
    name: str
    seed: int
    slots: list[Slot]
    sizes: dict
    strata: dict = field(default_factory=dict)  # survey tables the oracles use

    @property
    def why(self) -> str:
        return WHY[self.name]


def derive_seeds(seed: int, name: str, count: int) -> list[int]:
    """Seeds for one workload, a pure function of (benchmark seed, workload)."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    return [int(s) for s in ss.generate_state(count, np.uint32)]


def _replicate_call(tmp: Path, tag: str, preset: str, n: int, replicates: int,
                    seed: int) -> Call:
    out = str(tmp / f"{tag}.json")
    argv = ("simulate", "--preset", preset, "--n", str(n),
            "--replicates", str(replicates), "--format", "json",
            "--deterministic", "--seed", str(seed), "--output", out)
    return Call(argv, out, {"kind": "replicates", "preset": preset, "n": n,
                            "replicates": replicates, "seed": seed})


def _mc_small(seed: int, tmp: Path) -> Workload:
    n, reps = MC_SMALL["n"], MC_SMALL["replicates"]
    seeds = derive_seeds(seed, "mc-small", 4)
    slots = []
    for k, s in enumerate(seeds):
        for preset in ("study1", "study2"):
            call = _replicate_call(tmp, f"mc-small-{preset}-{k}", preset, n, reps, s)
            slots.append(Slot((call,), n * reps))
    return Workload("mc-small", seed, slots,
                    {**MC_SMALL, "presets": ["study1", "study2"], "seeds": seeds})


def _mc_large(seed: int, tmp: Path) -> Workload:
    n, reps = MC_LARGE["n"], MC_LARGE["replicates"]
    seeds = derive_seeds(seed, "mc-large", 4)
    slots = [Slot((_replicate_call(tmp, f"mc-large-{k}", "study1", n, reps, s),), n * reps)
             for k, s in enumerate(seeds)]
    return Workload("mc-large", seed, slots,
                    {**MC_LARGE, "presets": ["study1"], "seeds": seeds})


# ---------------------------------------------------------------------------
# survey-csv
# ---------------------------------------------------------------------------

SURVEY_COLUMNS = ("sex", "age", "race", "education_grade", "poverty_index", "smoker")

# (command, extra argv, check) of the rotation; each runs in text and in json.
SURVEY_COMMANDS = (
    ("fit", ("--outcome", "smoker", "--exposure", "poverty_index",
             "--controls", "age,education_grade"),
     {"outcome": "smoker", "regressors": ["poverty_index", "age", "education_grade"]}),
    ("logit", ("--outcome", "smoker",
               "--controls", "age,race:Black,race:Other,education_grade,poverty_index"),
     {"outcome": "smoker",
      "regressors": ["age", "race:Black", "race:Other", "education_grade", "poverty_index"]}),
    ("sensitivity", ("--outcome", "smoker", "--exposure", "poverty_index",
                     "--controls", "age,education_grade"),
     {"outcome": "smoker", "regressors": ["poverty_index", "age", "education_grade"],
      "q": 1.0, "alpha": 0.05}),
    ("ratio-ci", ("--exposure", "smoker", "--proxy", "poverty_index",
                  "--controls", "age,education_grade", "--level", "0.95"),
     {"exposure": "smoker", "proxy": "poverty_index", "controls": ["age", "education_grade"],
      "level": 0.95}),
)


def write_survey_csv(path: Path, rows: int, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Write a survey-style table (the schema of scripts/make_fixture.py) and
    return it split by sex, as the numeric columns the oracles fit."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    sex = np.where(rng.random(rows) < 0.5, "Male", "Female")
    age = rng.integers(20, 76, size=rows)
    race = rng.choice(["White", "Black", "Other"], size=rows, p=[0.7, 0.2, 0.1])
    ses = rng.normal(size=rows)
    poverty = 200.0 + 95.0 * ses + 25.0 * rng.normal(size=rows)
    education = np.clip(np.round(10.5 + 2.2 * ses + 1.8 * rng.normal(size=rows)), 0, 17)
    logit = (1.1 - 0.022 * (age - 45) - 0.55 * ses - 0.06 * (education - 10)
             + np.where(sex == "Male", 0.25, -0.25) + np.where(race == "Black", 0.15, 0.0))
    smoker = (rng.random(rows) < 1.0 / (1.0 + np.exp(-logit))).astype(int)

    poverty_text = [f"{v:.1f}" for v in poverty]
    lines = [",".join(SURVEY_COLUMNS)]
    lines += [f"{sex[i]},{age[i]},{race[i]},{int(education[i])},{poverty_text[i]},{smoker[i]}"
              for i in range(rows)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    table = {
        "age": age.astype(np.float64),
        "education_grade": education.astype(np.float64),
        "poverty_index": np.array([float(t) for t in poverty_text]),
        "smoker": smoker.astype(np.float64),
        "race:Black": (race == "Black").astype(np.float64),
        "race:Other": (race == "Other").astype(np.float64),
    }
    if any(np.mean(race == level) >= np.mean(race == "White") for level in ("Black", "Other")):
        raise RuntimeError("survey generator: White must be the most frequent race level")
    return {label: {k: v[sex == label] for k, v in table.items()}
            for label in sorted(set(sex.tolist()))}


def _survey(seed: int, tmp: Path) -> Workload:
    (table_seed,) = derive_seeds(seed, "survey-csv", 1)
    csv_path = tmp / "survey.csv"
    strata = write_survey_csv(csv_path, SURVEY_ROWS, table_seed)
    slots = []
    # fit, logit, sensitivity, ratio-ci twice over, with the format alternating
    for i in range(2 * len(SURVEY_COMMANDS)):
        command, extra, check = SURVEY_COMMANDS[i % len(SURVEY_COMMANDS)]
        fmt = ("text", "json")[(i + i // len(SURVEY_COMMANDS)) % 2]
        out = str(tmp / f"survey-{command}.{fmt}")
        argv = (command, "--input", str(csv_path), *extra, "--stratify", "sex",
                "--format", fmt, "--deterministic", "--output", out)
        slots.append(Slot((Call(argv, out, {"kind": command, "format": fmt,
                                            "data": "survey", **check}),),
                          SURVEY_ROWS))
    return Workload("survey-csv", seed, slots,
                    {"rows": SURVEY_ROWS, "stratify": "sex", "table_seed": table_seed},
                    strata)


# ---------------------------------------------------------------------------
# sim-roundtrip
# ---------------------------------------------------------------------------

def _roundtrip(seed: int, tmp: Path) -> Workload:
    n = ROUNDTRIP_N
    seeds = derive_seeds(seed, "sim-roundtrip", 3)
    slots = []
    for k, s in enumerate(seeds):
        csv_out = str(tmp / f"roundtrip-{k}.csv")
        sens_out = str(tmp / f"roundtrip-{k}-sensitivity.json")
        ratio_out = str(tmp / f"roundtrip-{k}-ratio.json")
        calls = (
            Call(("simulate", "--preset", "study2", "--n", str(n), "--seed", str(s),
                  "--output", csv_out), csv_out,
                 {"kind": "simulate-csv", "preset": "study2", "n": n}),
            Call(("sensitivity", "--input", csv_out, "--outcome", "y", "--exposure", "a",
                  "--controls", "x", "--format", "json", "--deterministic",
                  "--output", sens_out), sens_out,
                 {"kind": "sensitivity", "format": "json", "data": csv_out, "outcome": "y",
                  "regressors": ["a", "x"], "q": 1.0, "alpha": 0.05}),
            Call(("ratio-ci", "--input", csv_out, "--exposure", "a", "--proxy", "x",
                  "--format", "json", "--deterministic", "--output", ratio_out), ratio_out,
                 {"kind": "ratio-ci", "format": "json", "data": csv_out, "exposure": "a",
                  "proxy": "x", "controls": [], "level": 0.95}),
        )
        slots.append(Slot(calls, 3 * n))
    return Workload("sim-roundtrip", seed, slots, {"n": n, "preset": "study2", "seeds": seeds})


BY_NAME = {"mc-small": _mc_small, "mc-large": _mc_large,
            "survey-csv": _survey, "sim-roundtrip": _roundtrip}


def build(name: str, seed: int, tmp: Path) -> Workload:
    """Make the workload's inputs under `tmp` and return its slots."""
    return BY_NAME[name](seed, tmp)
