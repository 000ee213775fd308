"""Structural-equation data generator and its population-moment oracle.

The model, with U, eps_X, exposure noise and outcome noise independent
standard normals scaled by the spec:

    U ~ N(0, 1)
    X = U + eps_X,                        eps_X = x_noise_sd * N(0, 1)
    A = a_intercept + a_on_u * U + a_on_eps_x * eps_X + a_noise_sd * N(0, 1)
    Y = y_intercept + beta * A + theta_x * X + gamma * U + y_noise_sd * N(0, 1)

Reproducibility: draws come from numpy's PCG64 keyed by a SeedSequence, and
normals are produced by inverse-CDF transform of 53-bit uniforms, so the
variate stream is pinned down by the generator alone, independent of any
library's normal sampler.  Bin j maps to its centre (j + 1/2) / 2^53 for
j < 2^52; above, j + 1/2 rounds half to even (to j or j + 1), and the top
bin 2^53 - 1 is held at the largest double below 1.  Replicate r of a study
uses the derived integer seed derive_replicate_seed(base, r).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import checks
from .bias import (BiasDecomposition, ExposureModelStats, ProxyModel, decompose_bias,
                   general_bias)
from .dataset import Dataset
from .distributions import _BLOCK, normal_quantile_vec
from .errors import DomainError
from .ols import _least_squares, _standard_errors
from .sensitivity import (TreatmentSummary, partial_r2, robustness_value,
                          robustness_value_alpha)

_TWO53 = 2 ** 53
_TWO64 = 2 ** 64


@dataclass(frozen=True)
class DgpSpec:
    """Parameters of the linear structural model above."""

    beta: float
    gamma: float
    theta_x: float
    a_on_u: float
    a_noise_sd: float
    x_noise_sd: float
    y_noise_sd: float
    a_on_eps_x: float = 0.0
    y_intercept: float = 0.0
    a_intercept: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            low = 0.0 if f.name.endswith("_sd") else -math.inf
            object.__setattr__(self, f.name,
                               checks.at_least(getattr(self, f.name), f"DgpSpec.{f.name}", low))

    def to_dict(self) -> dict[str, float]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "DgpSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise DomainError(f"unknown DgpSpec keys: {sorted(unknown)}")
        return cls(**payload)


# The two bundled example studies.  They share the proxy equation
# (x_noise_sd = 0.5) but differ in how strongly X predicts A.
STUDY_PRESETS: dict[str, DgpSpec] = {
    "study1": DgpSpec(beta=2.4, gamma=2.0, theta_x=0.0, a_on_u=2.0,
                      a_noise_sd=0.05, x_noise_sd=0.5, y_noise_sd=1.5),
    "study2": DgpSpec(beta=3.0, gamma=2.0, theta_x=0.0, a_on_u=0.5,
                      a_noise_sd=0.8, x_noise_sd=0.5, y_noise_sd=1.0),
}


@dataclass(frozen=True)
class PopulationMoments:
    """Closed-form second moments implied by a DgpSpec."""

    var_a: float
    var_x: float
    var_u: float
    cov_a_x: float
    cov_a_u: float
    cov_a_eps_x: float
    var_eps_x: float

    def __post_init__(self):
        # X = U + eps_X forces Cov(U, X) = Var(U); check the implied
        # (A, X, U) covariance matrix is positive semidefinite.
        cov = np.array([
            [self.var_a, self.cov_a_x, self.cov_a_u],
            [self.cov_a_x, self.var_x, self.var_u],
            [self.cov_a_u, self.var_u, self.var_u],
        ])
        scale = max(abs(cov).max(), 1.0)
        if np.linalg.eigvalsh(cov).min() < -1e-9 * scale:
            raise DomainError("implied covariance matrix is not positive semidefinite")


def population_moments(spec: DgpSpec) -> PopulationMoments:
    """Second moments of (A, X, U) implied by the structural equations."""
    var_u = 1.0
    var_eps_x = spec.x_noise_sd ** 2
    return PopulationMoments(
        var_a=spec.a_on_u ** 2 * var_u + spec.a_on_eps_x ** 2 * var_eps_x
              + spec.a_noise_sd ** 2,
        var_x=var_u + var_eps_x,
        var_u=var_u,
        cov_a_x=spec.a_on_u * var_u + spec.a_on_eps_x * var_eps_x,
        cov_a_u=spec.a_on_u * var_u,
        cov_a_eps_x=spec.a_on_eps_x * var_eps_x,
        var_eps_x=var_eps_x,
    )


def exposure_stats_from_moments(m: PopulationMoments) -> ExposureModelStats:
    """Population exposure model: beta_AX = Cov(A,X)/Var(X), the matching R^2
    and the residual variance Var(A)(1 - R^2); R^2 = 1 when Var(A) = 0.

    R^2 is clamped to 1, as in `fit_ols`: for an exposure that the proxy
    explains exactly it can round above 1."""
    r2 = min(m.cov_a_x ** 2 / (m.var_a * m.var_x), 1.0) if m.var_a > 0.0 else 1.0
    return ExposureModelStats(
        beta_a_on_x=m.cov_a_x / m.var_x,
        residual_variance=m.var_a * (1.0 - r2),
        r2_a_on_x=r2,
    )


def _proxy_model(spec: DgpSpec, m: PopulationMoments) -> ProxyModel:
    return ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x, cov_a_eps_x=m.cov_a_eps_x)


def population_ols_bias(spec: DgpSpec) -> float:
    """Population-level coefficient bias of Y ~ A, X relative to beta."""
    m = population_moments(spec)
    return general_bias(_proxy_model(spec, m), exposure_stats_from_moments(m))


def population_bias_decomposition(spec: DgpSpec) -> BiasDecomposition:
    """Three-factor decomposition at the population moments (requires the
    no-shared-noise case a_on_eps_x = 0)."""
    m = population_moments(spec)
    return decompose_bias(_proxy_model(spec, m), exposure_stats_from_moments(m))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def derive_replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for replicate `index` of a run keyed by
    `base_seed` (SeedSequence entropy pooling of the pair)."""
    base_seed = checks.integer(base_seed, "seed", 0, _TWO64)
    index = checks.integer(index, "replicate index", 0)
    ss = np.random.SeedSequence(entropy=[base_seed, index])
    return int(ss.generate_state(1, np.uint64)[0])


def _draws(spec: DgpSpec, n: int, seeds) -> np.ndarray:
    """Rows (u, x, a, y) of study i drawn from a PCG64 keyed by seeds[i]: (b, n, 4)."""
    u = np.empty((len(seeds), n, 4))
    for i, seed in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
        u[i] = rng.integers(0, _TWO53, size=(n, 4), dtype=np.uint64)  # exact
    u += 0.5
    u /= float(_TWO53)
    np.minimum(u, np.nextafter(1.0, 0.0), out=u)  # the top bin would round to 1
    z = normal_quantile_vec(u)  # overwritten column by column with (u, x, a, y)
    u = z[..., 0]
    eps_x = spec.x_noise_sd * z[..., 1]
    z[..., 1] = x = u + eps_x
    z[..., 2] = a = spec.a_intercept + spec.a_on_u * u + spec.a_on_eps_x * eps_x \
        + spec.a_noise_sd * z[..., 2]
    z[..., 3] = spec.y_intercept + spec.beta * a + spec.theta_x * x + spec.gamma * u \
        + spec.y_noise_sd * z[..., 3]
    if not np.isfinite(z).all():
        raise DomainError("the spec's coefficients overflow the simulated values")
    return z


def generate(spec: DgpSpec, n: int, seed: int) -> Dataset:
    """Draw n rows (u, x, a, y); bit-identical for identical (spec, n, seed)."""
    n = checks.integer(n, "n", 1)
    seed = checks.integer(seed, "seed", 0, _TWO64)
    return Dataset(("u", "x", "a", "y"), _draws(spec, n, [seed])[0])


# ---------------------------------------------------------------------------
# Replicated studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReplicateSummary:
    """Per-replicate estimates of Y ~ A, X plus averaged sensitivity stats."""

    n: int
    replicates: int
    q: float
    alpha: float
    beta_hats: np.ndarray
    std_errors: np.ndarray
    mean_beta_hat: float
    sd_beta_hat: float
    mean_std_error: float
    mean_partial_r2: float
    mean_rv_q: float
    mean_rv_q_alpha: float


def replicate_study(spec: DgpSpec, n: int, replicates: int, seed: int,
                    q: float = 1.0, alpha: float = 0.05) -> ReplicateSummary:
    """Repeatedly draw, fit Y ~ A, X, and summarize.

    Replicate r is seeded with derive_replicate_seed(seed, r), so extending
    the number of replicates leaves earlier ones unchanged.  Replicates are
    fitted in stacks of one sampler block, bit for bit as generate + fit_ols.
    """
    replicates = checks.integer(replicates, "replicates", 1)
    n = checks.integer(n, "n", 1)  # before it sizes a stack
    q = checks.at_least(q, "q", 0.0, strict=True)  # before any replicate is drawn
    alpha = checks.probability(alpha, "alpha")
    seeds = [derive_replicate_seed(seed, r) for r in range(replicates)]
    stack = max(1, _BLOCK // (4 * n))
    stats = []
    for start in range(0, replicates, stack):
        draws = _draws(spec, n, seeds[start:start + stack])
        X = np.insert(draws[..., 2:0:-1], 0, 1.0, axis=-1)  # C-contiguous: 1, a, x
        beta, _, rss, R = _least_squares(X, draws[..., 3])
        stats.append(np.stack([beta, *_standard_errors(beta, R, rss / (n - 3))])[..., 1])
        del draws, X  # before the next stack is drawn
    beta_hats, std_errors, t_values = np.concatenate(stats, axis=1)
    summaries = [TreatmentSummary(t_value=float(t), df=n - 3) for t in t_values]
    return ReplicateSummary(
        n=n,
        replicates=replicates,
        q=q,
        alpha=alpha,
        beta_hats=beta_hats,
        std_errors=std_errors,
        mean_beta_hat=float(np.mean(beta_hats)),
        sd_beta_hat=float(np.std(beta_hats, ddof=1)) if replicates > 1 else 0.0,
        mean_std_error=float(np.mean(std_errors)),
        mean_partial_r2=float(np.mean([partial_r2(ts) for ts in summaries])),
        mean_rv_q=float(np.mean([robustness_value(ts, q) for ts in summaries])),
        mean_rv_q_alpha=float(np.mean([robustness_value_alpha(ts, q, alpha) for ts in summaries])),
    )
