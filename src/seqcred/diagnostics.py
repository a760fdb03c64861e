"""Monte-Carlo estimators for the size / small-ball / miss conditions,
oversmoothing mass, and the Euclidean ball-volume bound used in the
lower-bound arguments.

All estimators are nested Monte Carlo: ``replicate`` runs the outer loop
over data sets and the inner batch of posterior draws, and ``CONDITIONS``
reads each condition from its arrays.  Grids of arguments share the same
draws per replication, so estimates along a grid are exactly monotone where
the underlying events are nested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .credible import MIN_MC_SAMPLES, default_center
from .model import ModelConfig, Signal, _integer
from .oracle import oracle, surrogate_oracle
from .posterior import DdmParams, make_posterior, mixture_weights, sample_posterior
from .streams import data_set, stream

__all__ = [
    "ConditionEstimate",
    "OversmoothingResult",
    "BallVolume",
    "Replications",
    "CONDITIONS",
    "mean_and_se",
    "check_estimator_args",
    "replicate",
    "estimate_phi1",
    "estimate_psi",
    "estimate_phi2",
    "oversmoothing_probability",
    "ball_volume_bound",
]

CENTER_RULES = ("default-center", "posterior-mean")
PSI_SCALINGS = ("oracle-rate", "sigma-sum-surrogate")


@dataclass(frozen=True, eq=False)
class ConditionEstimate:
    """An estimated condition function over its grid.

    kind is one of phi1 / psi / phi2; values[k] and std_errors[k] estimate
    it at grid[k] (an M or a delta); scale is the yardstick the event
    radius was measured against (oracle rate or surrogate sigma-sum);
    center_flags counts replications whose default-center verification
    failed.  Records of arrays do not compare with ==; compare fields.
    """

    kind: str
    grid: np.ndarray
    values: np.ndarray
    std_errors: np.ndarray
    reps: int
    inner_mc: int
    scale: float = math.nan
    center_flags: int = 0


def mean_and_se(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean over axis 0 and its standard error std(ddof=1) / sqrt(n) over the
    n rows; the error is 0 when there is a single row."""
    x = np.asarray(x, dtype=float)
    mean = x.mean(axis=0)
    if len(x) < 2:
        return mean, np.zeros_like(mean)
    return mean, x.std(axis=0, ddof=1) / math.sqrt(len(x))


def check_estimator_args(center_rule: str, reps: int, inner_mc: int) -> tuple[int, int]:
    """Reject a center rule, replication count or inner draw count that no
    estimator can run (the default center needs MIN_MC_SAMPLES draws), and
    return the two counts as ints."""
    if center_rule not in CENTER_RULES:
        raise ValueError(f"center_rule must be one of {CENTER_RULES}, got {center_rule!r}")
    reps, inner_mc = _integer(reps, "reps", lo=1), _integer(inner_mc, "inner_mc", lo=1)
    if center_rule == "default-center" and inner_mc < MIN_MC_SAMPLES:
        raise ValueError(f"the default center needs inner_mc >= {MIN_MC_SAMPLES}, got {inner_mc}")
    return reps, inner_mc


class Replications(NamedTuple):
    """The replications of one estimator seed.

    gaps[rep] is the distance from the truth to the center of replication
    rep; dists[rep] holds the distances of a fresh batch of posterior draws
    to it (under the default center, the batch that verified it), or dists
    is None when the caller asked for the centers only; flags counts the
    failed default-center verifications.
    """

    gaps: np.ndarray
    dists: np.ndarray | None
    flags: int


def replicate(
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str,
    mc: int,
    seed_seq: np.random.SeedSequence,
    reps: int,
    distances: bool = True,
) -> Replications:
    """For rep = 0..reps-1: simulate data set rep, form its mixture
    posterior, resolve the center by the rule and measure mc fresh
    posterior draws against it.

    Its streams under seed_seq are the two estimator-seed rows of the
    table in :mod:`seqcred.streams`.
    """
    theta0 = signal.padded(model.n_trunc)
    gaps = np.empty(reps)
    dists = np.empty((reps, mc)) if distances else None
    flags = 0
    for rep in range(reps):
        posterior = make_posterior(data_set(model, signal, seed_seq, rep, 0), params)
        rng = np.random.default_rng(stream(seed_seq, rep, 1))
        if center_rule == "posterior-mean":
            center, fresh = posterior.mean(), None
        else:
            result = default_center(posterior, mc_samples=mc, seed=rng)
            center, fresh = result.center, result.fresh_distances
            flags += not result.verified
        gaps[rep] = np.linalg.norm(theta0 - center)
        if distances:
            dists[rep] = np.sqrt(sample_posterior(posterior, mc, rng).sq_dists(center)) if fresh is None else fresh
    return Replications(gaps, dists, flags)


#: each condition's per-replication statistic at radius r, or at each of an
#: array of radii (one more trailing axis): phi1 the posterior mass outside
#: the ball B(center, r), psi the mass inside it, phi2 whether the center
#: misses the truth by r
CONDITIONS = {
    "phi1": lambda runs, r: np.greater_equal.outer(runs.dists, r).mean(axis=1),
    "psi": lambda runs, r: np.less_equal.outer(runs.dists, r).mean(axis=1),
    "phi2": lambda runs, r: np.greater_equal.outer(runs.gaps, r),
}


def estimate_phi1(
    M: float | Sequence[float],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str = "default-center",
    reps: int = 500,
    inner_mc: int = 2000,
    seed: int | np.random.SeedSequence | None = None,
) -> ConditionEstimate:
    """Expected posterior mass outside the ball of radius M * oracle-rate
    around the data-driven center, averaged over simulated data sets."""
    rate = oracle(signal, model).rate
    return _estimate("phi1", M, rate, model, signal, params, center_rule, reps, inner_mc, seed)


def estimate_psi(
    delta: float | Sequence[float],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str = "default-center",
    scaling: str = "sigma-sum-surrogate",
    reps: int = 500,
    inner_mc: int = 2000,
    seed: int | np.random.SeedSequence | None = None,
) -> ConditionEstimate:
    """Expected posterior mass of the small ball of radius delta * scale
    around the data-driven center.

    scale is either the oracle rate or the square-root variance sum at the
    surrogate oracle index; the latter is the natural yardstick when the
    posterior is expected to put little mass very close to its center.
    """
    if scaling not in PSI_SCALINGS:
        raise ValueError(f"scaling must be one of {PSI_SCALINGS}, got {scaling!r}")
    if np.any(np.asarray(delta, dtype=float) <= 0):
        raise ValueError("delta values must be positive")
    if scaling == "oracle-rate":
        scale = oracle(signal, model).rate
    else:
        scale = math.sqrt(surrogate_oracle(signal, model).sigma_sum)
    return _estimate("psi", delta, scale, model, signal, params, center_rule, reps, inner_mc, seed)


def estimate_phi2(
    M: float | Sequence[float],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str = "default-center",
    reps: int = 500,
    inner_mc: int = 2000,
    seed: int | np.random.SeedSequence | None = None,
) -> ConditionEstimate:
    """Frequency of the data-driven center missing the truth by at least
    M * oracle-rate.  Purely an outer Monte Carlo; inner draws are spent
    only on resolving the default center."""
    rate = oracle(signal, model).rate
    return _estimate("phi2", M, rate, model, signal, params, center_rule, reps, inner_mc, seed)


def _estimate(
    kind: str,
    values: float | Sequence[float],
    scale: float,
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str,
    reps: int,
    inner_mc: int,
    seed: int | np.random.SeedSequence | None,
) -> ConditionEstimate:
    """Average the condition's per-replication statistic at the radii
    values * scale; phi2 reads only the centers, so it draws no distance
    batch and reports inner_mc 0.  Every argument is checked before the
    first replication."""
    reps, inner_mc = check_estimator_args(center_rule, reps, inner_mc)
    grid = np.array(values, dtype=float, ndmin=1)
    if grid.ndim != 1 or len(grid) == 0:
        raise ValueError("grid must be a scalar or a nonempty 1-d sequence")
    if not np.all(grid >= 0):  # NaN compares False
        raise ValueError(f"grid values must be nonnegative, got {grid.tolist()}")
    runs = replicate(model, signal, params, center_rule, inner_mc, stream(seed), reps, distances=kind != "phi2")
    means, ses = mean_and_se(CONDITIONS[kind](runs, grid * scale))
    inner_mc = 0 if runs.dists is None else inner_mc
    return ConditionEstimate(kind, grid, means, ses, reps, inner_mc, float(scale), runs.flags)


@dataclass(frozen=True)
class OversmoothingResult:
    estimate: float
    std_error: float
    bound: float
    i_bar: int
    kappa_frac: float
    kappa_zero: float
    reps: int
    per_rep: np.ndarray | None = field(repr=False, compare=False, default=None)


def oversmoothing_probability(
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    kappa_frac: float,
    reps: int = 500,
    seed: int | np.random.SeedSequence | None = None,
) -> OversmoothingResult:
    """Average posterior mass on indices I <= kappa_frac * surrogate index,
    with the exponential upper bound it must stay below.

    Requires alpha < a(K) (otherwise the exponent is empty) and kappa_frac
    below kappa_zero = (a(K) - alpha) / a(K).
    """
    if params.a_k <= params.alpha:
        raise ValueError(
            f"need alpha < a(K): alpha={params.alpha}, a(K)={params.a_k:.6f}"
        )
    kappa_zero = (params.a_k - params.alpha) / params.a_k
    if not 0.0 <= kappa_frac < kappa_zero:
        raise ValueError(
            f"kappa_frac must lie in [0, {kappa_zero:.6f}), got {kappa_frac}"
        )
    reps = _integer(reps, "reps", lo=1)
    ss = stream(seed)
    i_bar = surrogate_oracle(signal, model).i_bar
    cutoff = math.floor(kappa_frac * i_bar)
    masses = np.empty(reps)
    for rep in range(reps):
        weights = mixture_weights(data_set(model, signal, ss, rep, 0), params)
        masses[rep] = weights.w[:cutoff].sum() if cutoff >= 1 else 0.0
    exponent = (params.a_k * (1.0 - kappa_frac) - params.alpha) * i_bar
    bound = math.exp(-exponent) / params.c_alpha
    estimate, se = mean_and_se(masses)
    return OversmoothingResult(
        estimate=float(estimate),
        std_error=float(se),
        bound=bound,
        i_bar=i_bar,
        kappa_frac=kappa_frac,
        kappa_zero=kappa_zero,
        reps=reps,
        per_rep=masses,
    )


@dataclass(frozen=True)
class BallVolume:
    """Log-volume of the k-ball of radius r and of its closed-form upper
    bound; kept in logs, since the volumes overflow or underflow for large k.
    """

    log_bound: float
    log_exact: float


def ball_volume_bound(k: int, r: float) -> BallVolume:
    """Logs of the Stirling-type upper bound e pi^{-1/2} r^k k^{-(k+1)/2}
    (2 pi e)^{k/2} and of the exact volume r^k pi^{k/2} / Gamma(1 + k/2)."""
    k = _integer(k, "dimension k", lo=1)
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    log_r = math.log(r)
    log_exact = k * log_r + 0.5 * k * math.log(math.pi) - math.lgamma(1.0 + 0.5 * k)
    log_bound = (
        1.0
        - 0.5 * math.log(math.pi)
        + k * log_r
        - 0.5 * (k + 1) * math.log(k)
        + 0.5 * k * math.log(2.0 * math.pi * math.e)
    )
    return BallVolume(log_bound=log_bound, log_exact=log_exact)
