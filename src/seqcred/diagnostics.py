"""Monte-Carlo estimators for the size / small-ball / miss conditions, the
bounds they imply for inflated credible balls, oversmoothing mass, and the
Euclidean ball-volume bound used in the lower-bound arguments.

All estimators are nested Monte Carlo: an outer loop over simulated data
sets and (where needed) an inner loop over posterior draws.  Grids of
arguments share the same draws per replication, so estimates along a grid
are exactly monotone where the underlying events are nested.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .credible import default_center
from .model import ModelConfig, Signal, simulate
from .oracle import oracle, sigma_constants, surrogate_oracle
from .posterior import DdmParams, DdmPosterior, make_posterior, mixture_weights, sample_posterior

__all__ = [
    "ConditionEstimate",
    "PropositionBounds",
    "OversmoothingResult",
    "BallVolume",
    "Replication",
    "replicate",
    "estimate_phi1",
    "estimate_psi",
    "estimate_phi2",
    "proposition_bounds",
    "remark1_transfer",
    "oversmoothing_probability",
    "ball_volume_bound",
    "contraction_constant_reference",
]

CENTER_RULES = ("default-center", "posterior-mean")
PSI_SCALINGS = ("oracle-rate", "sigma-sum-surrogate")


@dataclass(frozen=True)
class ConditionEstimate:
    """One point of an estimated condition function.

    kind is one of phi1 / psi / phi2; argument is the grid point (M or
    delta); scale is the yardstick the event radius was measured against
    (oracle rate or surrogate sigma-sum); center_flags counts replications
    whose default-center verification failed.
    """

    kind: str
    argument: float
    value: float
    std_error: float
    reps: int
    inner_mc: int
    scale: float = math.nan
    center_flags: int = 0


def _child(ss: np.random.SeedSequence, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=ss.entropy, spawn_key=tuple(ss.spawn_key) + key)


def _seed_sequence(seed) -> np.random.SeedSequence:
    if isinstance(seed, np.random.SeedSequence):
        return seed
    return np.random.SeedSequence(seed)


def _data_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


def _as_grid(values) -> tuple[np.ndarray, bool]:
    if np.ndim(values) == 0:
        return np.array([float(values)]), True
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or len(arr) == 0:
        raise ValueError("grid must be a scalar or a nonempty 1-d sequence")
    return arr, False


def _check_center_rule(center_rule: str) -> None:
    if center_rule not in CENTER_RULES:
        raise ValueError(f"center_rule must be one of {CENTER_RULES}, got {center_rule!r}")


def _center_for(
    posterior: DdmPosterior,
    center_rule: str,
    mc_samples: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, bool]:
    """Resolve a center per the rule; second slot flags a failed verification."""
    if center_rule == "posterior-mean":
        return posterior.mean(), False
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = default_center(posterior, mc_samples=mc_samples, seed=rng)
    return result.center, not result.verified


class Replication(NamedTuple):
    """One replication of the credible-ball pipeline.

    dists holds the distances of a fresh batch of posterior draws to the
    center, or None when the caller asked for the center only.
    """

    center: np.ndarray
    flagged: bool  # the default-center verification failed
    dists: np.ndarray | None


def replicate(
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str,
    mc: int,
    seed_seq: np.random.SeedSequence,
    rep: int,
    distances: bool = True,
) -> Replication:
    """Simulate data set ``rep``, form its mixture posterior, resolve the
    center and measure mc fresh posterior draws against it.

    The data come from stream (rep, 0) under seed_seq.  Everything else
    comes, in this order, from stream (rep, 1): the center search draws,
    its verification draws, then the distance batch.
    """
    data = simulate(model, signal, _data_seed(_child(seed_seq, rep, 0)))
    rng = np.random.default_rng(_child(seed_seq, rep, 1))
    posterior = make_posterior(data, params)
    center, flagged = _center_for(posterior, center_rule, mc, rng)
    if not distances:
        return Replication(center, flagged, None)
    return Replication(center, flagged, np.sqrt(sample_posterior(posterior, mc, rng).sq_dists(center)))


def estimate_phi1(
    M: float | Sequence[float],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str = "default-center",
    reps: int = 500,
    inner_mc: int = 2000,
    seed: int | np.random.SeedSequence | None = None,
) -> ConditionEstimate | list[ConditionEstimate]:
    """Expected posterior mass outside the ball of radius M * oracle-rate
    around the data-driven center, averaged over simulated data sets."""
    _check_center_rule(center_rule)
    grid, scalar = _as_grid(M)
    if reps < 1 or inner_mc < 1:
        raise ValueError("reps and inner_mc must be positive")
    rate = oracle(signal, model).rate
    return _estimate(
        "phi1", grid, scalar, rate, lambda r: np.mean(r.dists[:, None] >= grid[None, :] * rate, axis=0),
        model, signal, params, center_rule, reps, inner_mc, seed,
    )


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
) -> ConditionEstimate | list[ConditionEstimate]:
    """Expected posterior mass of the small ball of radius delta * scale
    around the data-driven center.

    scale is either the oracle rate or the square-root variance sum at the
    surrogate oracle index; the latter is the natural yardstick when the
    posterior is expected to put little mass very close to its center.
    """
    _check_center_rule(center_rule)
    if scaling not in PSI_SCALINGS:
        raise ValueError(f"scaling must be one of {PSI_SCALINGS}, got {scaling!r}")
    grid, scalar = _as_grid(delta)
    if np.any(grid <= 0):
        raise ValueError("delta values must be positive")
    if reps < 1 or inner_mc < 1:
        raise ValueError("reps and inner_mc must be positive")
    if scaling == "oracle-rate":
        scale = oracle(signal, model).rate
    else:
        scale = math.sqrt(surrogate_oracle(signal, model).sigma_sum)
    return _estimate(
        "psi", grid, scalar, scale, lambda r: np.mean(r.dists[:, None] <= grid[None, :] * scale, axis=0),
        model, signal, params, center_rule, reps, inner_mc, seed,
    )


def estimate_phi2(
    M: float | Sequence[float],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str = "default-center",
    reps: int = 500,
    seed: int | np.random.SeedSequence | None = None,
    inner_mc: int = 2000,
) -> ConditionEstimate | list[ConditionEstimate]:
    """Frequency of the data-driven center missing the truth by at least
    M * oracle-rate.  Purely an outer Monte Carlo; inner draws are spent
    only on resolving the default center."""
    _check_center_rule(center_rule)
    grid, scalar = _as_grid(M)
    if reps < 1:
        raise ValueError("reps must be positive")
    rate = oracle(signal, model).rate
    theta0 = signal.padded(model.n_trunc)
    return _estimate(
        "phi2", grid, scalar, rate, lambda r: float(np.linalg.norm(theta0 - r.center)) >= grid * rate,
        model, signal, params, center_rule, reps, inner_mc, seed,
    )


def _estimate(
    kind: str,
    grid: np.ndarray,
    scalar: bool,
    scale: float,
    statistic: Callable[[Replication], np.ndarray],
    model: ModelConfig,
    signal: Signal,
    params: DdmParams,
    center_rule: str,
    reps: int,
    inner_mc: int,
    seed: int | np.random.SeedSequence | None,
) -> ConditionEstimate | list[ConditionEstimate]:
    """Average a per-replication statistic over the grid; phi2 reads only
    the center, so it draws no distance batch and reports inner_mc 0."""
    ss = _seed_sequence(seed)
    distances = kind != "phi2"
    freqs = np.empty((reps, len(grid)))
    flags = 0
    for rep in range(reps):
        run = replicate(model, signal, params, center_rule, inner_mc, ss, rep, distances=distances)
        flags += run.flagged
        freqs[rep] = statistic(run)
    values = freqs.mean(axis=0)
    if reps > 1:
        ses = freqs.std(axis=0, ddof=1) / math.sqrt(reps)
    else:
        ses = np.zeros(len(grid))
    out = [
        ConditionEstimate(
            kind=kind,
            argument=float(g),
            value=float(v),
            std_error=float(s),
            reps=reps,
            inner_mc=inner_mc if distances else 0,
            scale=float(scale),
            center_flags=flags,
        )
        for g, v, s in zip(grid, values, ses)
    ]
    return out[0] if scalar else out


@dataclass(frozen=True)
class PropositionBounds:
    """Bounds implied by condition values at one (M, delta) pair.

    miss_bound caps the probability that the inflated ball misses the
    truth; size_bound caps the probability that the data-driven radius
    exceeds M/delta times the oracle rate; coverage_upper caps coverage
    itself (the anti-consistency direction) when the condition values come
    from a deceptive signal.
    """

    miss_bound: float
    size_bound: float
    coverage_upper: float
    kappa: float
    M: float
    delta: float


def proposition_bounds(
    phi1: float,
    psi: float,
    phi2: float,
    M: float,
    delta: float,
    kappa: float,
    varsigma: float = 0.5,
) -> PropositionBounds:
    """Combine condition values into the three operational bounds.

    phi2 is understood as evaluated at M*delta (the miss yardstick for a
    ball whose radius is compared against delta times the rate), phi1 at M,
    psi at delta; the caller is responsible for matching the arguments.
    """
    for name, v in (("phi1", phi1), ("psi", psi), ("phi2", phi2)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0,1], got {v}")
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0,1), got {kappa}")
    if M <= 0 or delta <= 0:
        raise ValueError("M and delta must be positive")
    if varsigma < 0:
        raise ValueError("varsigma must be nonnegative")
    miss = phi2 + psi / (1.0 - kappa)
    size = phi1 / kappa
    cover = (1.0 - phi2) + (1.0 - psi) / kappa
    return PropositionBounds(
        miss_bound=miss,
        size_bound=size,
        coverage_upper=cover,
        kappa=kappa,
        M=M,
        delta=delta,
    )


def remark1_transfer(
    phi: Callable[[float], float],
    M: float,
    p_level: float = 2.0 / 3.0,
    varsigma: float = 0.5,
    a: float = 0.5,
) -> tuple[float, float]:
    """Turn a contraction bound phi into (phi1, phi2) values at M.

    phi1(M) <= (1/p) phi(a M / (2 + varsigma)) + phi((1 - a) M) and
    phi2(M) <= (1/p) phi(M / (2 + varsigma)); with a Markov-type
    phi(M) = C / M**2 and the defaults this gives 41.5 C / M**2 and
    9.375 C / M**2.
    """
    if not 0.0 < p_level < 1.0:
        raise ValueError(f"p_level must lie in (0,1), got {p_level}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must lie in (0,1), got {a}")
    if M <= 0:
        raise ValueError("M must be positive")
    stretch = 2.0 + varsigma
    phi1 = phi(a * M / stretch) / p_level + phi((1.0 - a) * M)
    phi2 = phi(M / stretch) / p_level
    return phi1, phi2


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
    if reps < 1:
        raise ValueError("reps must be positive")
    ss = _seed_sequence(seed)
    i_bar = surrogate_oracle(signal, model).i_bar
    cutoff = math.floor(kappa_frac * i_bar)
    masses = np.empty(reps)
    for rep in range(reps):
        data = simulate(model, signal, _data_seed(_child(ss, rep, 0)))
        weights = mixture_weights(data, params)
        masses[rep] = weights.w[:cutoff].sum() if cutoff >= 1 else 0.0
    exponent = (params.a_k * (1.0 - kappa_frac) - params.alpha) * i_bar
    bound = math.exp(-exponent) / params.c_alpha
    se = float(masses.std(ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
    return OversmoothingResult(
        estimate=float(masses.mean()),
        std_error=se,
        bound=bound,
        i_bar=i_bar,
        kappa_frac=kappa_frac,
        kappa_zero=kappa_zero,
        reps=reps,
        per_rep=masses,
    )


@dataclass(frozen=True)
class BallVolume:
    """Volume of the k-ball of radius r and its closed-form upper bound.

    The linear-scale fields overflow/underflow for large k; log_bound and
    log_exact are the authoritative values.
    """

    bound: float
    exact: float
    log_bound: float
    log_exact: float

    @property
    def log_slack(self) -> float:
        return self.log_bound - self.log_exact


def ball_volume_bound(k: int, r: float) -> BallVolume:
    """Stirling-type upper bound e pi^{-1/2} r^k k^{-(k+1)/2} (2 pi e)^{k/2}
    against the exact volume r^k pi^{k/2} / Gamma(1 + k/2)."""
    if k < 1:
        raise ValueError(f"dimension k must be a positive integer, got {k}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    k = int(k)
    log_r = math.log(r)
    log_exact = k * log_r + 0.5 * k * math.log(math.pi) - math.lgamma(1.0 + 0.5 * k)
    log_bound = (
        1.0
        - 0.5 * math.log(math.pi)
        + k * log_r
        - 0.5 * (k + 1) * math.log(k)
        + 0.5 * k * math.log(2.0 * math.pi * math.e)
    )
    def _exp(v: float) -> float:
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf
    return BallVolume(
        bound=_exp(log_bound),
        exact=_exp(log_exact),
        log_bound=log_bound,
        log_exact=log_exact,
    )


def contraction_constant_reference(K: float = 2.0, alpha: float = 0.04, p: float = 0.0) -> dict:
    """Explicit (enormous) constant from the oracle-contraction argument,
    assembled from its pieces.  Report-only: nothing operational consumes
    it, but seeing its size explains why the Monte-Carlo experiments test
    rates and monotonicity rather than absolute constants.
    """
    if K <= 0 or alpha <= 0 or p < 0:
        raise ValueError("need K > 0, alpha > 0, p >= 0")
    b = 0.5 * math.log((K + 1.0) / 2.0)
    k1 = 2.0 * p + 1.0
    c2 = (
        4.0
        + 4.0 * (alpha + b) * k1 / 5.0
        + math.exp(-(1.0 + alpha + b)) / (1.0 - math.exp(-(alpha + b)))
    )
    gamma = alpha / 20.0
    tau = sigma_constants(p).tau
    sc = sigma_constants(p, rho=tau, gamma=gamma, tau0=tau)
    k3_half = sigma_constants(p, gamma=gamma / 2.0).k3
    tau2 = 10.0 * tau / (9.0 * alpha * (tau - 2.0) * sc.k4 * sc.k5)
    total = c2 + 1.0 + 2.0 * sc.k2 + 2.0 * (1.0 + tau2) + 1.0 + sc.k3 + math.sqrt(3.0) * k3_half
    return {
        "K": K,
        "alpha": alpha,
        "p": p,
        "c2": c2,
        "gamma": gamma,
        "tau": tau,
        "k2_tau": sc.k2,
        "tau2": tau2,
        "k3_gamma": sc.k3,
        "k3_half_gamma": k3_half,
        "c_oracle": total,
    }
