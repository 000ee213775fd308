#!/usr/bin/env python3
"""Monte Carlo coverage check for the conservative collinearity-ratio CI.

Draws repeated samples from a preset model, builds the ratio interval on
each, and reports how often it covers the true population ratio.  The
construction is conservative by design (Bonferroni split across the Wald
and chi-square components), so coverage should come out at or above the
nominal level.

Usage: python scripts/coverage_study.py [--preset study2] [--n 10000]
       [--replicates 500] [--level 0.95] [--seed 0]
"""

import argparse
import time

import numpy as np

from confound_lens import (STUDY_PRESETS, conservative_ratio_ci, fit_ols, generate,
                           population_moments)
from confound_lens.bias import collinearity_ratio
from confound_lens.simulate import derive_replicate_seed, exposure_stats_from_moments


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="study2", choices=sorted(STUDY_PRESETS))
    parser.add_argument("--n", type=int, default=10_000)
    parser.add_argument("--replicates", type=int, default=500)
    parser.add_argument("--level", type=float, default=0.95)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    spec = STUDY_PRESETS[args.preset]
    true_ratio = collinearity_ratio(
        exposure_stats_from_moments(population_moments(spec)))
    print(f"preset {args.preset}: true collinearity ratio {true_ratio:.6f}")

    t0 = time.perf_counter()
    covered = 0
    widths = []
    for r in range(args.replicates):
        data = generate(spec, args.n, derive_replicate_seed(args.seed, r))
        interval = conservative_ratio_ci(fit_ols(data, "a", ["x"]), "x", args.level)
        widths.append(interval.upper - interval.lower)
        if interval.lower <= true_ratio <= interval.upper:
            covered += 1
    elapsed = time.perf_counter() - t0

    coverage = covered / args.replicates
    mc_se = np.sqrt(coverage * (1 - coverage) / args.replicates)
    print(f"coverage: {coverage:.4f} (MC se {mc_se:.4f}) over "
          f"{args.replicates} replicates of n = {args.n}")
    print(f"nominal level: {args.level:g}; mean interval width "
          f"{np.mean(widths):.5f}")
    print(f"elapsed: {elapsed:.1f} s")
    if coverage >= args.level:
        print("conservative as designed (coverage >= nominal).")
    else:
        print("WARNING: coverage below nominal; investigate.")


if __name__ == "__main__":
    main()
