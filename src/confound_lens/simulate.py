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
from numbers import Integral

import numpy as np

from .bias import BiasDecomposition, ExposureModelStats, ProxyModel, general_bias
from .dataset import Dataset
from .distributions import _BLOCK, normal_quantile_vec
from .errors import DomainError
from .ols import _least_squares, _standard_errors
from .sensitivity import (TreatmentSummary, partial_r2, robustness_value,
                          robustness_value_alpha)

_TWO53 = 2 ** 53


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
            v = getattr(self, f.name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"DgpSpec.{f.name} must be a finite number, got {v!r}")
            object.__setattr__(self, f.name, float(v))
        for name in ("a_noise_sd", "x_noise_sd", "y_noise_sd"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"DgpSpec.{name} must be >= 0")

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
    """Population exposure-model stats: beta_AX = Cov(A,X)/Var(X) and the
    matching R^2."""
    return ExposureModelStats(
        beta_a_on_x=m.cov_a_x / m.var_x,
        var_a=m.var_a,
        r2_a_on_x=m.cov_a_x ** 2 / (m.var_a * m.var_x),
    )


def population_ols_bias(spec: DgpSpec) -> float:
    """Population-level coefficient bias of Y ~ A, X relative to beta."""
    m = population_moments(spec)
    proxy = ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x,
                       cov_a_eps_x=m.cov_a_eps_x)
    return general_bias(proxy, exposure_stats_from_moments(m), m.cov_a_x, m.var_x)


def population_bias_decomposition(spec: DgpSpec) -> BiasDecomposition:
    """Three-factor decomposition at the population moments (requires the
    no-shared-noise case a_on_eps_x = 0)."""
    from .bias import decompose_bias
    m = population_moments(spec)
    proxy = ProxyModel(gamma=spec.gamma, var_eps_x=m.var_eps_x,
                       cov_a_eps_x=m.cov_a_eps_x)
    return decompose_bias(proxy, exposure_stats_from_moments(m))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def _check_seed(seed) -> int:
    if not isinstance(seed, Integral) or isinstance(seed, bool):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    seed = int(seed)
    if not 0 <= seed < 2 ** 64:
        raise DomainError("seed must fit in an unsigned 64-bit integer")
    return seed


def _check_count(value, what: str) -> int:
    if not isinstance(value, Integral) or value < 1:
        raise DomainError(f"{what} must be a positive integer, got {value!r}")
    return int(value)


def derive_replicate_seed(base_seed: int, index: int) -> int:
    """Deterministic 64-bit seed for replicate `index` of a run keyed by
    `base_seed` (SeedSequence entropy pooling of the pair)."""
    base_seed = _check_seed(base_seed)
    if not isinstance(index, Integral) or index < 0:
        raise DomainError(f"replicate index must be a nonnegative integer, got {index!r}")
    ss = np.random.SeedSequence(entropy=[base_seed, int(index)])
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
    n = _check_count(n, "n")
    return Dataset(("u", "x", "a", "y"), _draws(spec, n, [_check_seed(seed)])[0])


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
    replicates = _check_count(replicates, "replicates")
    seed = _check_seed(seed)
    n = _check_count(n, "n")  # before it sizes a stack
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
        q=float(q),
        alpha=float(alpha),
        beta_hats=beta_hats,
        std_errors=std_errors,
        mean_beta_hat=float(np.mean(beta_hats)),
        sd_beta_hat=float(np.std(beta_hats, ddof=1)) if replicates > 1 else 0.0,
        mean_std_error=float(np.mean(std_errors)),
        mean_partial_r2=float(np.mean([partial_r2(ts) for ts in summaries])),
        mean_rv_q=float(np.mean([robustness_value(ts, q) for ts in summaries])),
        mean_rv_q_alpha=float(np.mean([robustness_value_alpha(ts, q, alpha) for ts in summaries])),
    )
