"""Credible-ball machinery: data-driven radius, default center, membership.

The radius at credibility level kappa is the empirical (1-kappa)-quantile of
the distances from posterior draws to a center.  The default center is the
candidate that minimizes the level-2/3 radius over a small candidate set
(posterior mean plus the live projection centers), with the slack factor
3/2 absorbing the restriction to candidates; the mass condition behind that
slack is re-verified on fresh draws every time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import as_generator
from .posterior import DdmPosterior, eb_index, sample_posterior

__all__ = [
    "RadiusEstimate",
    "CredibleBall",
    "DefaultCenterResult",
    "radius_from_distances",
    "radius_at_level",
    "default_center",
    "make_confidence_ball",
]

#: posterior mass a default ball must capture
DEFAULT_P_LEVEL = 2.0 / 3.0
#: multiplicative slack applied to the candidate-restricted radius
DEFAULT_VARSIGMA = 0.5
#: index weights below this are ignored when collecting center candidates
CANDIDATE_WEIGHT_FLOOR = 1e-3


@dataclass(frozen=True)
class RadiusEstimate:
    value: float
    level: float
    mc_samples: int
    std_error: float

    def __post_init__(self) -> None:
        if self.value < 0 or self.std_error < 0:
            raise ValueError("radius and its standard error must be nonnegative")


def radius_from_distances(distances: np.ndarray, kappa: float) -> RadiusEstimate:
    """Empirical DD-radius from a sample of distances.

    Returns the order statistic at rank ceil((1-kappa) m); the standard
    error is half the spread between the order statistics at the usual
    binomial-CI ranks around that quantile.
    """
    if not 0.0 < kappa < 1.0:
        raise ValueError(f"kappa must lie in (0,1), got {kappa}")
    d = np.sort(np.asarray(distances, dtype=float))
    m = len(d)
    if m < 1:
        raise ValueError("need at least one distance")
    q = 1.0 - kappa
    rank = min(max(math.ceil(q * m), 1), m)
    half = math.sqrt(m * q * (1.0 - q))
    lo = min(max(math.ceil(q * m - half), 1), m)
    hi = min(max(math.ceil(q * m + half), 1), m)
    return RadiusEstimate(
        value=float(d[rank - 1]),
        level=float(kappa),
        mc_samples=m,
        std_error=float(d[hi - 1] - d[lo - 1]) / 2.0,
    )


def radius_at_level(
    posterior: DdmPosterior,
    center: np.ndarray,
    kappa: float,
    mc_samples: int = 2000,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> RadiusEstimate:
    """Smallest r with posterior mass >= 1-kappa in the ball B(center, r),
    estimated from mc_samples posterior draws."""
    if mc_samples < 1000:
        raise ValueError(f"mc_samples must be >= 1000, got {mc_samples}")
    center = _pad_to(center, len(posterior.data))
    dists = np.sqrt(sample_posterior(posterior, mc_samples, seed).sq_dists(center))
    return radius_from_distances(dists, kappa)


@dataclass(frozen=True)
class DefaultCenterResult:
    """Winning candidate center with its minimal level-p radius.

    ``verified`` records whether a fresh batch of draws put at least p_level
    posterior mass in the ball of radius (1+varsigma)*radius around the
    center; a False here signals too small an MC budget or genuinely
    pathological data, and is also raised as a warning.
    """

    center: np.ndarray
    radius: RadiusEstimate
    candidate: str
    p_level: float
    varsigma: float
    verified: bool
    mass_at_inflated: float
    candidates_evaluated: int
    radius_at_mean: float


def _pad_to(vec: np.ndarray, n: int) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if len(vec) == n:
        return vec
    out = np.zeros(n)
    out[: min(n, len(vec))] = vec[:n]
    return out


def default_center(
    posterior: DdmPosterior,
    p_level: float = DEFAULT_P_LEVEL,
    varsigma: float = DEFAULT_VARSIGMA,
    mc_samples: int = 2000,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> DefaultCenterResult:
    """Pick the center giving (nearly) the smallest level-p_level credible radius.

    Candidates: the posterior mean, the projection center at the posterior
    mode, and every projection center X(I) whose index weight is at least
    1e-3.  All candidates are ranked on one shared set of draws so the
    comparison is exact; the winner's ball, inflated by (1+varsigma), is
    then checked to hold mass >= p_level on an independent fresh batch.
    """
    if not 0.0 < p_level < 1.0:
        raise ValueError(f"p_level must lie in (0,1), got {p_level}")
    if varsigma < 0:
        raise ValueError(f"varsigma must be nonnegative, got {varsigma}")
    if mc_samples < 1000:
        raise ValueError(f"mc_samples must be >= 1000, got {mc_samples}")
    rng = as_generator(seed)
    n = len(posterior.data)

    candidates: list[tuple[str, np.ndarray]] = [("posterior-mean", posterior.mean())]
    i_hat = eb_index(posterior.weights)
    live = set(np.flatnonzero(posterior.weights.w >= CANDIDATE_WEIGHT_FLOOR) + 1)
    live.add(i_hat)
    for i in sorted(live):
        tag = f"projection-{i}" + ("(mode)" if i == i_hat else "")
        candidates.append((tag, posterior.component_mean(i)))

    draws = sample_posterior(posterior, mc_samples, rng)
    kappa = 1.0 - p_level
    best: tuple[float, int] | None = None  # (radius value, candidate position)
    estimates: list[RadiusEstimate] = []
    for pos, (_, cand) in enumerate(candidates):
        est = radius_from_distances(np.sqrt(draws.sq_dists(cand)), kappa)
        estimates.append(est)
        if best is None or est.value < best[0]:
            best = (est.value, pos)

    assert best is not None
    _, win = best
    tag, center = candidates[win]
    r_star = estimates[win]

    # fresh draws for the honesty check of the inflated ball
    fresh_d = np.sqrt(sample_posterior(posterior, mc_samples, rng).sq_dists(center))
    mass = float(np.mean(fresh_d <= (1.0 + varsigma) * r_star.value))
    verified = mass >= p_level
    if not verified:
        warnings.warn(
            f"default-center verification failed: mass {mass:.3f} < {p_level:.3f} "
            f"at radius {(1 + varsigma) * r_star.value:.4g} (candidate {tag})",
            stacklevel=2,
        )

    return DefaultCenterResult(
        center=_pad_to(center, n),
        radius=r_star,
        candidate=tag,
        p_level=p_level,
        varsigma=varsigma,
        verified=verified,
        mass_at_inflated=mass,
        candidates_evaluated=len(candidates),
        radius_at_mean=estimates[0].value,
    )


@dataclass(frozen=True)
class CredibleBall:
    """Closed ball {theta : ||theta - center|| <= inflation * radius}."""

    center: np.ndarray
    radius: float
    level: float
    inflation: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"radius must be nonnegative, got {self.radius}")
        if self.inflation < 0:
            raise ValueError(f"inflation must be nonnegative, got {self.inflation}")
        arr = np.ascontiguousarray(np.asarray(self.center, dtype=float))
        arr.flags.writeable = False
        object.__setattr__(self, "center", arr)

    @property
    def effective_radius(self) -> float:
        return self.inflation * self.radius

    def contains(self, theta: np.ndarray | Sequence[float]) -> bool:
        theta = np.asarray(theta, dtype=float)
        n = max(len(theta), len(self.center))
        diff = _pad_to(theta, n) - _pad_to(self.center, n)
        return bool(math.sqrt(float(diff @ diff)) <= self.effective_radius)

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "radius": self.radius,
            "level": self.level,
            "inflation": self.inflation,
        }


def make_confidence_ball(
    center: np.ndarray, radius_estimate: RadiusEstimate | float, M: float = 1.0
) -> CredibleBall:
    """Wrap a center and an estimated radius into an inflated closed ball."""
    if isinstance(radius_estimate, RadiusEstimate):
        value = radius_estimate.value
        level = radius_estimate.level
    else:
        value = float(radius_estimate)
        level = math.nan
    return CredibleBall(center=np.asarray(center, dtype=float), radius=value, level=level, inflation=float(M))
