#!/usr/bin/env python3
"""Side-by-side comparison of the two bundled study presets.

Both studies produce similar outcome-model estimates and sensitivity
statistics, yet their exposure models differ sharply: study1's exposure is
strongly predicted by the proxy covariate, study2's is not.  The population
bias decomposition and the collinearity-ratio interval make that difference
visible, which is the point of the whole package.

Usage: python scripts/compare_studies.py [--n 1000] [--seed 2026]
"""

import argparse

from confound_lens import (STUDY_PRESETS, TreatmentSummary, conservative_ratio_ci,
                           fit_ols, generate, population_bias_decomposition,
                           population_moments, population_ols_bias,
                           sensitivity_report, vif)
from confound_lens.simulate import exposure_stats_from_moments


def describe(name: str, n: int, seed: int) -> None:
    spec = STUDY_PRESETS[name]
    print(f"=== {name} ===")

    m = population_moments(spec)
    stats = exposure_stats_from_moments(m)
    bias = population_ols_bias(spec)
    decomp = population_bias_decomposition(spec)
    print(f"population: beta {spec.beta:g}, Var(A) {m.var_a:.4f}, "
          f"beta_AX {stats.beta_a_on_x:.4f}, R2_AX {stats.r2_a_on_x:.5f}")
    print(f"population bias of Y~A,X coefficient: {bias:.6f} "
          f"= {decomp.factor_gamma:g} * {decomp.factor_proxy_noise:g} "
          f"* {decomp.factor_collinearity:.5f}")

    data = generate(spec, n, seed)
    fit = fit_ols(data, "y", ["a", "x"])
    ts = TreatmentSummary.from_ols(fit, "a")
    sens = sensitivity_report(ts, q=1.0, alpha=0.05)
    print(f"one draw (n={n}, seed={seed}): "
          f"coef(a) {fit.coefficient('a'):.5f} (se {fit.std_error('a'):.5f}, "
          f"t {fit.t_value('a'):.4f})")
    print(f"  partial R2 {sens.partial_r2:.5f}, RV(q=1) {sens.rv_q:.5f}, "
          f"RV(q=1, a=0.05) {sens.rv_q_alpha:.5f}")

    vifs = vif(data, ["a", "x"])
    interval = conservative_ratio_ci(fit_ols(data, "a", ["x"]), "x", 0.95)
    print(f"exposure model: VIF(a) {vifs[0]:.3f}; collinearity ratio "
          f"{interval.point_estimate:.5f}, 95% conservative CI "
          f"[{interval.lower:.5f}, {interval.upper:.5f}]")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args()
    for name in ("study1", "study2"):
        describe(name, args.n, args.seed)
    print("Same outcome-model story, very different exposure-model story: "
          "the collinearity ratio is what tells them apart.")


if __name__ == "__main__":
    main()
