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
from functools import cached_property

import numpy as np

from .model import ObservedData, _frozen, _integer, pad, tail_sums

__all__ = [
    "DdmParams",
    "MixtureWeights",
    "DdmPosterior",
    "PosteriorDraws",
    "mixture_weights",
    "eb_index",
    "crit",
    "posterior_mean",
    "make_posterior",
    "sample_posterior",
    "VARIANTS",
]

#: the posteriors make_posterior builds: the DDM mixture, its plug-in at the
#: posterior mode, and the zero-centred full-Bayes contrast
VARIANTS = ("mixture", "eb-index", "full-bayes-shrunk")


@dataclass(frozen=True)
class DdmParams:
    """Prior hyperparameters: component spread K and index decay alpha.

    Derived quantities: L = K/(K+1) (component shrinkage), the normalized
    geometric prior lambda_I = (e^alpha - 1) e^{-alpha I}, the regime
    boundary a(K) = 1/4 - log((K+1)/2)/2, the penalty constant
    log(K+1) + 2 alpha of the equivalent projection criterion, and the two
    advisory regime flags.
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

    @property
    def upper_regime(self) -> bool:
        """K >= 1.87, where the contraction constant is controlled."""
        return bool(self.K >= 1.87)

    @property
    def lower_regime(self) -> bool:
        """alpha < a(K), where the small-ball lower bound applies."""
        return bool(self.alpha < self.a_k)

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


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) for finite a: the max, plus log of its tie count m,
    plus log1p of the other terms' sum over m (scipy.special.logsumexp's rule)."""
    a_max = a.max()
    top = a == a_max
    m = np.count_nonzero(top)
    s = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    return np.log1p(s / m) + np.log(m) + a_max


@dataclass(frozen=True)
class MixtureWeights:
    """Normalized posterior probabilities over I = 1..i_max, in log space."""

    log_w: np.ndarray

    def __post_init__(self) -> None:
        arr = _frozen(self.log_w, "log_w")
        if arr.ndim != 1:
            raise ValueError(f"log_w must be one-dimensional, got shape {arr.shape}")
        object.__setattr__(self, "log_w", arr)

    @property
    def i_max(self) -> int:
        return len(self.log_w)

    @property
    def w(self) -> np.ndarray:
        return np.exp(self.log_w)

    def tail_weights(self) -> np.ndarray:
        """T_i = sum_{I >= i} w_I for i = 1..i_max (so T_1 = 1)."""
        return tail_sums(self.w)[:-1]


def _increments(data: ObservedData, params: DdmParams, i_max: int, shrunk: bool) -> np.ndarray:
    """Log-weight increments for coordinates 2..i_max (index j-2 in the output).

    The prior variance of coordinate j is K sigma_j^2, the scale of the
    component draws L sigma_j^2, so the data enter only through X_j / sigma_j.
    """
    sig2 = data.model.sigma_sq[1:i_max]
    x2 = data.x[1:i_max] ** 2
    prior_var = params.K * sig2
    # log(K+1) per coordinate, in the rounding the pinned p = 0 outputs carry
    log_var_ratio = np.log1p(prior_var / sig2)
    if shrunk:
        return -params.alpha - 0.5 * log_var_ratio + (x2 / (2.0 * sig2)) * (prior_var / (sig2 + prior_var))
    return -params.alpha + x2 / (2.0 * sig2) - 0.5 * log_var_ratio


def _index_weights(data: ObservedData, params: DdmParams, i_max: int | None, shrunk: bool) -> MixtureWeights:
    """Index weights over I = 1..i_max (all of the data when None): the
    increments cumulated from log u_1 = 0, then normalized."""
    i_max = len(data) if i_max is None else _integer(i_max, "i_max", 1, len(data))
    log_u = np.concatenate(([0.0], np.cumsum(_increments(data, params, i_max, shrunk))))
    return MixtureWeights(log_u - _logsumexp(log_u))


def mixture_weights(data: ObservedData, params: DdmParams, i_max: int | None = None) -> MixtureWeights:
    """Posterior distribution of the projection level I given the data.

    Computed by the exact log-weight recursion
    log w_{I+1} - log w_I = -alpha + X_{I+1}^2 / (2 sigma_{I+1}^2) - log(K+1) / 2,
    started from I = 1 and normalized by log-sum-exp.
    """
    return _index_weights(data, params, i_max, shrunk=False)


def eb_index(weights: MixtureWeights) -> int:
    """Smallest maximizer of the index posterior (1-based)."""
    return int(np.argmax(weights.log_w)) + 1


def crit(data: ObservedData, params: DdmParams, i: int) -> float:
    """Penalized projection criterion -||X(I)||^2 + (log(K+1) + 2 alpha) eps^2 I.

    At every p the smallest posterior mode of the index distribution
    minimizes -sum_{i<=I} X_i^2 / sigma_i^2 + (log(K+1) + 2 alpha) I.  This
    criterion is that one times eps^2 at p = 0, so only there is its
    minimizer the mode; it is computable for any p.
    """
    i = _integer(i, "I", 1, len(data))
    x = data.x
    return float(-np.sum(x[:i] ** 2) + params.penalty * data.model.epsilon**2 * i)


def posterior_mean(data: ObservedData, weights: MixtureWeights) -> np.ndarray:
    """Mixture-posterior mean: coordinatewise X_i times the tail weight sum_{I>=i} w_I."""
    return pad(data.x[: weights.i_max] * weights.tail_weights(), len(data))


@dataclass(frozen=True)
class DdmPosterior:
    data: ObservedData
    params: DdmParams
    weights: MixtureWeights
    #: component means are mean_factor * X_i 1{i<=I}
    mean_factor: float = 1.0

    def component_mean(self, i: int) -> np.ndarray:
        """Mean vector of component I (zero beyond I)."""
        i = _integer(i, "I", 1, len(self.data))
        return pad(self.mean_factor * self.data.x[:i], len(self.data))

    def mean(self) -> np.ndarray:
        """Posterior mean of theta under this variant."""
        return self.mean_factor * posterior_mean(self.data, self.weights)

    @cached_property
    def index_cdf(self) -> np.ndarray:
        """CDF of the index weights, built as ``Generator.choice`` builds it from p=w."""
        cdf = np.cumsum(self.weights.w / self.weights.w.sum())
        return cdf / cdf[-1]


def make_posterior(
    data: ObservedData,
    params: DdmParams,
    i_max: int | None = None,
    variant: str = "mixture",
) -> DdmPosterior:
    """The posterior of one of the VARIANTS, the only builder of a DdmPosterior.

    ``mixture`` carries the full index distribution; ``eb-index`` collapses
    it to a point mass at the smallest posterior mode; ``full-bayes-shrunk``
    is the full-Bayes posterior with zero prior means, kept as a contrast:
    zero-mean marginal weights and components N(L X_i 1{i<=I}, L sigma_i^2
    1{i<=I}), so its mean tracks L*theta rather than theta.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    if variant == "full-bayes-shrunk":
        weights, factor = _index_weights(data, params, i_max, shrunk=True), params.L
    else:
        weights, factor = mixture_weights(data, params, i_max), 1.0
    if variant == "eb-index":
        log_w = np.full(weights.i_max, -np.inf)
        log_w[eb_index(weights) - 1] = 0.0
        weights = MixtureWeights(log_w)
    return DdmPosterior(data=data, params=params, weights=weights, mean_factor=factor)


#: stored entries, or dense cells, in the largest block of draws a kernel works on
#: at once: this bounds each float64 scratch array of the draw kernels at 512 KiB
#: (a block holds at least one draw, so a single J above it makes a larger one)
_BLOCK = 1 << 16


@dataclass(frozen=True)
class PosteriorDraws:
    """Posterior draws: each draw's component index J and coefficient vector.

    Stored ragged: ``values`` holds, draw after draw, the first J
    coordinates of each draw, J its sampled index; the zeros beyond J are
    not stored.  ``coeffs`` (all n coordinates) is a dense copy built on
    each read.

    Two distance routes: ``sq_dists`` measures every draw against one
    full-length center, and ``projection_sq_dists`` measures every draw
    against all the nested projection centers X(I) at once from prefix sums,
    which is how the default center ranks its candidates before reporting
    the winner from ``sq_dists``.  Both work through the draws in row
    blocks of at most _BLOCK stored entries or dense cells (and at least one
    draw), so only ``values`` and ``columns`` grow with the number of stored
    entries; each scratch array holds at most 512 KiB, or one draw's worth
    when a single J is larger than _BLOCK.
    """

    indices: np.ndarray  # (n_draws,), 1-based component index J
    values: np.ndarray  # (indices.sum(),), each draw's first J coordinates in turn
    n: int  # length of a full coefficient vector

    @cached_property
    def columns(self) -> np.ndarray:
        """0-based coordinate of every entry of ``values`` (int32, below n), as reset running counts."""
        steps = np.ones(len(self.values), dtype=np.int32)
        steps[np.cumsum(self.indices[:-1])] = 1 - self.indices[:-1]
        steps[0] = 0
        return np.cumsum(steps, dtype=np.int32, out=steps)

    def _blocks(self, width: int | None = None):
        """Row ranges (r0, r1, e0, e1): draws r0..r1-1, whose entries are
        ``values[e0:e1]``.  Each range holds at most _BLOCK stored entries,
        or with a width at most _BLOCK cells of that width, and at least one
        draw, even one whose J alone is larger than _BLOCK."""
        ends = np.cumsum(self.indices)
        m = len(ends)
        r0 = e0 = 0
        while r0 < m:
            r1 = int(ends.searchsorted(e0 + _BLOCK, side="right")) if width is None else r0 + _BLOCK // width
            r1 = min(max(r1, r0 + 1), m)
            e1 = int(ends[r1 - 1])
            yield r0, r1, e0, e1
            r0, e0 = r1, e1

    @property
    def coeffs(self) -> np.ndarray:
        """Full (n_draws, n) coefficient matrix, zero-padded on every read."""
        out = np.zeros((len(self.indices), self.n))
        out[np.arange(self.n) < self.indices[:, None]] = self.values
        return out

    def sq_dists(self, center: np.ndarray) -> np.ndarray:
        """Squared distances from every draw to a full-length center vector: a
        segment sum over its J stored coordinates plus sum_{i>J} center_i^2.

        Works block by block (at most _BLOCK entries each); blocks hold whole
        draws, so every segment sum is the one over all the draws at once."""
        out = tail_sums(center**2)[self.indices]
        cols = self.columns
        for r0, r1, e0, e1 in self._blocks():
            diff = center.take(cols[e0:e1])
            np.subtract(diff, self.values[e0:e1], out=diff)
            np.square(diff, out=diff)
            starts = np.cumsum(self.indices[r0:r1]) - self.indices[r0:r1]
            out[r0:r1] += np.add.reduceat(diff, starts)
        return out

    def projection_sq_dists(self, x: np.ndarray, levels) -> np.ndarray:
        """Squared distances from every draw to X(I) = (x_1..x_I, 0, ...),
        one row per level I, as a (len(levels), n_draws) matrix.

        With d the largest level, the three terms of ||theta - X(I)||^2 =
        sum_{i<=I} (theta_i - x_i)^2 + sum_{I<i<=d} theta_i^2 + sum_{i>d} theta_i^2
        are sums of nonnegative parts, so nothing cancels.  The first two are
        a row-wise and a reversed row-wise cumulative sum over the first d
        coordinates, in turn, in one dense buffer refilled from ``values`` in
        between.  The buffer holds one block of draws, at most _BLOCK cells
        of width max(d, d_max), d_max the largest sampled index.  Agrees with
        ``sq_dists`` to rounding, not bit for bit.
        """
        levels = np.asarray(levels, dtype=np.intp)
        if levels.size and not (levels.min() >= 1 and levels.max() <= len(x)):
            raise ValueError(f"levels must lie in [1, {len(x)}]")
        d = int(levels.max(initial=1))
        width = max(d, int(self.indices.max()))
        inner = levels < d
        out = np.empty((len(levels), len(self.indices)))
        for r0, r1, e0, e1 in self._blocks(width):
            mask = np.arange(width) < self.indices[r0:r1, None]
            block = np.zeros(mask.shape)
            block[mask] = self.values[e0:e1]
            past = np.einsum("ij,ij->i", block[:, d:], block[:, d:])
            head = block[:, :d]
            np.subtract(head, x[None, :d], out=head)
            np.square(head, out=head)
            np.cumsum(head, axis=1, out=head)
            np.add(head[:, levels - 1].T, past, out=out[:, r0:r1])
            head.fill(0.0)
            block[mask] = self.values[e0:e1]
            np.square(head, out=head)
            np.cumsum(head[:, ::-1], axis=1, out=head[:, ::-1])  # head[:, I] = sum_{I<i<=d} theta_i^2
            out[inner, r0:r1] += head[:, levels[inner]].T
        return out


def sample_posterior(
    posterior: DdmPosterior,
    n_draws: int,
    seed: int | np.random.SeedSequence | np.random.Generator | None,
) -> PosteriorDraws:
    """Draw (J, theta) pairs: J from the index posterior, then theta from
    component J.  Coordinates beyond J are exact zeros and are not stored.

    The stream reads ``random(n_draws)`` for the indices (those that
    ``choice(i_max, n_draws, p=w)`` gives), then ``standard_normal(sum J)``.
    The normals are scaled and shifted in place in blocks of at most _BLOCK
    entries, so besides ``values`` and ``columns`` no array grows with sum J.
    """
    n_draws = _integer(n_draws, "n_draws", lo=1)
    rng = np.random.default_rng(seed)
    indices = posterior.index_cdf.searchsorted(rng.random(n_draws), side="right") + 1
    z = rng.standard_normal(int(indices.sum()))
    draws = PosteriorDraws(indices=indices, values=z, n=len(posterior.data))
    # the normals become the draws in place, each scaled and shifted by its coordinate
    scale = math.sqrt(posterior.params.L) * posterior.data.model.sigma
    shift = posterior.mean_factor * posterior.data.x
    cols = draws.columns
    for _, _, e0, e1 in draws._blocks():
        c = cols[e0:e1]
        block = z[e0:e1]
        block *= scale.take(c)
        block += shift.take(c)
    return draws
