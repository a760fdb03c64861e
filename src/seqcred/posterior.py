"""Empirical-Bayes mixture posterior over projection level I.

The posterior is a two-stage object: a discrete distribution over the
truncation index I (held in log space), and for each I a product-normal
component N(X_i 1{i<=I}, L sigma_i^2 1{i<=I}).  All weight arithmetic is
done on log scale with a log-sum-exp normalization; the incremental
recursion below is algebraically identical to evaluating the marginal
densities coordinate by coordinate, which is what the tests check it
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
from scipy.special import logsumexp

from .model import ModelConfig, ObservedData, as_generator

__all__ = [
    "DdmParams",
    "ParamDiagnostics",
    "MixtureWeights",
    "DdmPosterior",
    "PosteriorDraws",
    "validate_params",
    "mixture_weights",
    "eb_index",
    "crit",
    "posterior_mean",
    "make_posterior",
    "sample_posterior",
    "shrunk_full_bayes",
]

Variant = Literal["mixture", "eb-index", "full-bayes-shrunk"]


@dataclass(frozen=True)
class DdmParams:
    """Prior hyperparameters: component spread K and index decay alpha.

    Derived quantities: L = K/(K+1) (component shrinkage), the normalized
    geometric prior lambda_I = (e^alpha - 1) e^{-alpha I}, the regime
    boundary a(K) = 1/4 - log((K+1)/2)/2, and the penalty constant
    log(K+1) + 2 alpha of the equivalent projection criterion.
    """

    K: float = 2.0
    alpha: float = 0.04

    def __post_init__(self) -> None:
        if not self.K > 0:
            raise ValueError(f"K must be positive, got {self.K}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")

    @property
    def L(self) -> float:
        return self.K / (self.K + 1.0)

    @property
    def c_alpha(self) -> float:
        return math.expm1(self.alpha)

    @property
    def a_k(self) -> float:
        return 0.25 - 0.5 * math.log((self.K + 1.0) / 2.0)

    @property
    def penalty(self) -> float:
        return math.log(self.K + 1.0) + 2.0 * self.alpha

    def log_lambda(self, i: np.ndarray | int) -> np.ndarray | float:
        """Log prior weight of index I (normalized over I >= 1)."""
        return math.log(self.c_alpha) - self.alpha * np.asarray(i, dtype=float)

    def delta_sb(self, p: float = 0.0) -> float:
        """Largest small-ball radius fraction the lower bound speaks about.

        Requires alpha < a(K); returns nan outside that regime.
        """
        a = self.a_k
        if not a > self.alpha:
            return math.nan
        base = (a - self.alpha) / (4.0 * math.e * a)
        return min(1.0, math.sqrt(self.K * (2.0 * p + 1.0) / (self.K + 1.0)) * base ** (p + 0.5))


@dataclass(frozen=True)
class ParamDiagnostics:
    K: float
    alpha: float
    p: float
    a_k: float
    upper_regime: bool
    lower_regime: bool
    penalty: float
    delta_sb: float


def validate_params(K: float, alpha: float, p: float = 0.0) -> ParamDiagnostics:
    """Advisory check of the hyperparameter regimes.

    upper_regime: K >= 1.87, where the contraction constant is controlled;
    lower_regime: alpha < a(K), where the small-ball lower bound applies.
    """
    params = DdmParams(K=K, alpha=alpha)
    return ParamDiagnostics(
        K=float(K),
        alpha=float(alpha),
        p=float(p),
        a_k=params.a_k,
        upper_regime=bool(K >= 1.87),
        lower_regime=bool(alpha < params.a_k),
        penalty=params.penalty,
        delta_sb=params.delta_sb(p),
    )


@dataclass(frozen=True)
class MixtureWeights:
    """Normalized posterior probabilities over I = 1..i_max, in log space."""

    log_w: np.ndarray
    i_max: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.log_w, dtype=float)
        if arr.shape != (self.i_max,):
            raise ValueError(f"log_w must have shape ({self.i_max},), got {arr.shape}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "log_w", arr)

    @classmethod
    def from_unnormalized(cls, log_u: np.ndarray) -> "MixtureWeights":
        log_u = np.asarray(log_u, dtype=float)
        return cls(log_w=log_u - logsumexp(log_u), i_max=len(log_u))

    @property
    def w(self) -> np.ndarray:
        return np.exp(self.log_w)

    def tail_weights(self) -> np.ndarray:
        """T_i = sum_{I >= i} w_I for i = 1..i_max (so T_1 = 1)."""
        w = self.w
        return w[::-1].cumsum()[::-1]


def _increments(data: ObservedData, params: DdmParams, i_max: int, shrunk: bool) -> np.ndarray:
    """Log-weight increments for coordinates 2..i_max (index j-2 in the output)."""
    model = data.model
    sig2 = model.sigma_sq[1:i_max]
    x2 = data.x[1:i_max] ** 2
    k_eps2 = params.K * model.epsilon**2
    log_var_ratio = np.log1p(k_eps2 / sig2)
    if shrunk:
        return -params.alpha - 0.5 * log_var_ratio + (x2 / (2.0 * sig2)) * (k_eps2 / (sig2 + k_eps2))
    return -params.alpha + x2 / (2.0 * sig2) - 0.5 * log_var_ratio


def mixture_weights(data: ObservedData, params: DdmParams, i_max: int | None = None) -> MixtureWeights:
    """Posterior distribution of the projection level I given the data.

    Computed by the exact log-weight recursion
    log w_{I+1} - log w_I = -alpha + X_{I+1}^2 / (2 sigma_{I+1}^2)
                            - log(1 + K eps^2 / sigma_{I+1}^2) / 2,
    started from I = 1 and normalized by log-sum-exp.
    """
    i_max = _check_i_max(data, i_max)
    inc = _increments(data, params, i_max, shrunk=False)
    log_u = np.concatenate(([0.0], np.cumsum(inc)))
    return MixtureWeights.from_unnormalized(log_u)


def _check_i_max(data: ObservedData, i_max: int | None) -> int:
    n = len(data)
    if i_max is None:
        return n
    if not (1 <= i_max <= n):
        raise ValueError(f"i_max must be in [1, {n}], got {i_max}")
    return int(i_max)


def eb_index(weights: MixtureWeights) -> int:
    """Smallest maximizer of the index posterior (1-based)."""
    return int(np.argmax(weights.log_w)) + 1


def crit(data: ObservedData, params: DdmParams, i: int) -> float:
    """Penalized projection criterion -||X(I)||^2 + (log(K+1) + 2 alpha) eps^2 I.

    In the direct case p = 0 its minimizer over I coincides with the
    smallest posterior mode of the index distribution; it is computable for
    any p but the equivalence is specific to p = 0.
    """
    if not (1 <= i <= len(data)):
        raise ValueError(f"I must be in [1, {len(data)}], got {i}")
    x = data.x
    return float(-np.sum(x[:i] ** 2) + params.penalty * data.model.epsilon**2 * i)


def posterior_mean(data: ObservedData, weights: MixtureWeights) -> np.ndarray:
    """Mixture-posterior mean: coordinatewise X_i times the tail weight sum_{I>=i} w_I."""
    out = np.zeros(len(data))
    out[: weights.i_max] = data.x[: weights.i_max] * weights.tail_weights()
    return out


@dataclass(frozen=True)
class DdmPosterior:
    data: ObservedData
    params: DdmParams
    weights: MixtureWeights
    variant: Variant = "mixture"

    @property
    def mean_factor(self) -> float:
        """Component means are mean_factor * X_i 1{i<=I}."""
        return self.params.L if self.variant == "full-bayes-shrunk" else 1.0

    def component_mean(self, i: int) -> np.ndarray:
        """Mean vector of component I (zero beyond I)."""
        if not (1 <= i <= len(self.data)):
            raise ValueError(f"I must be in [1, {len(self.data)}], got {i}")
        out = np.zeros(len(self.data))
        out[:i] = self.mean_factor * self.data.x[:i]
        return out

    def mean(self) -> np.ndarray:
        """Posterior mean of theta under this variant."""
        return self.mean_factor * posterior_mean(self.data, self.weights)


def make_posterior(
    data: ObservedData,
    params: DdmParams,
    i_max: int | None = None,
    variant: Variant = "mixture",
) -> DdmPosterior:
    """Assemble a posterior object in one of the three variants.

    ``mixture`` carries the full index distribution; ``eb-index`` collapses
    it to a point mass at the smallest posterior mode; ``full-bayes-shrunk``
    uses the zero-mean marginal weights and components shrunk by L.
    """
    if variant == "full-bayes-shrunk":
        return shrunk_full_bayes(data, params, i_max)
    weights = mixture_weights(data, params, i_max)
    if variant == "eb-index":
        i_hat = eb_index(weights)
        log_w = np.full(weights.i_max, -np.inf)
        log_w[i_hat - 1] = 0.0
        weights = MixtureWeights(log_w=log_w, i_max=weights.i_max)
    elif variant != "mixture":
        raise ValueError(f"unknown variant {variant!r}")
    return DdmPosterior(data=data, params=params, weights=weights, variant=variant)


def shrunk_full_bayes(data: ObservedData, params: DdmParams, i_max: int | None = None) -> DdmPosterior:
    """Full-Bayes posterior with zero prior means: same index marginal shape
    but components N(L X_i 1{i<=I}, L sigma_i^2 1{i<=I}).

    Kept as a contrast object: its posterior mean tracks L*theta rather
    than theta (the over-shrinkage effect of centering the prior at zero).
    """
    i_max = _check_i_max(data, i_max)
    inc = _increments(data, params, i_max, shrunk=True)
    log_u = np.concatenate(([0.0], np.cumsum(inc)))
    weights = MixtureWeights.from_unnormalized(log_u)
    return DdmPosterior(data=data, params=params, weights=weights, variant="full-bayes-shrunk")


@dataclass(frozen=True)
class PosteriorDraws:
    """Sampled components and coefficient vectors, one row per draw.

    Stored compactly: row r of ``prefix`` holds the first d_max coordinates
    of draw r, where d_max is the largest sampled index.  Coordinates beyond
    a row's own index are exact zeros, and every draw is exactly zero beyond
    d_max, so distances computed from the prefix are exact.
    """

    indices: np.ndarray  # (n_draws,), 1-based component index I
    prefix: np.ndarray  # (n_draws, d_max)
    n: int  # length of a full coefficient vector

    @property
    def coeffs(self) -> np.ndarray:
        """Full (n_draws, n) coefficient matrix, zero-padded on every read."""
        out = np.zeros((len(self.indices), self.n))
        out[:, : self.prefix.shape[1]] = self.prefix
        return out

    def sq_dists(self, center: np.ndarray) -> np.ndarray:
        """Squared distances from every draw to a full-length center vector."""
        d_max = self.prefix.shape[1]
        tail_sq = float(np.sum(center[d_max:] ** 2))
        diff = self.prefix - center[None, :d_max]
        return np.einsum("ij,ij->i", diff, diff) + tail_sq


def sample_posterior(
    posterior: DdmPosterior,
    n_draws: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> PosteriorDraws:
    """Draw (I, theta) pairs: I from the index posterior, then theta from
    component I.  Coordinates beyond I are exact zeros."""
    if n_draws < 1:
        raise ValueError(f"n_draws must be >= 1, got {n_draws}")
    rng = as_generator(seed)
    w = posterior.weights.w
    indices = rng.choice(posterior.weights.i_max, size=n_draws, p=w / w.sum()) + 1
    d_max = int(indices.max())
    mean = posterior.mean_factor * posterior.data.x[:d_max]
    scale = math.sqrt(posterior.params.L) * posterior.data.model.sigma[:d_max]
    mask = np.arange(1, d_max + 1)[None, :] <= indices[:, None]
    z = rng.standard_normal((n_draws, d_max))
    return PosteriorDraws(indices=indices, prefix=(mean + scale * z) * mask, n=len(posterior.data))
