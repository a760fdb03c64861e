"""Oracle and surrogate-oracle rates, signal-class diagnostics, minimax rates.

Everything here is exact arithmetic on finite-support signals: tail sums
(:func:`seqcred.model.tail_sums`) run over the stored coefficients, zero
beyond the truncation level by convention, and every argmin scan is
exhaustive with ties broken to the smallest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .model import ModelConfig, Signal, _frozen, _integer, family_radii, make_model, pad, tail_sums

__all__ = [
    "OracleResult",
    "SurrogateOracleResult",
    "EbrResult",
    "SigmaConstants",
    "SigmaConditionReport",
    "Ellipsoid",
    "Hyperrectangle",
    "CoversReport",
    "oracle",
    "surrogate_oracle",
    "ebr_check",
    "pt_check",
    "pt_to_ebr_tau",
    "sigma_constants",
    "verify_sigma_conditions",
    "minimax_rate",
    "covers_check",
    "scale_class",
]

#: local radius vs. global minimax radius: proven comparison constants
ELLIPSOID_COVER_CONST = (2.0 * math.pi) ** 2
HYPERRECT_COVER_CONST = 2.5


def _risk_curve(theta_sq: np.ndarray, model: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """r^2(I) = Sigma(I) + sum_{i>I} theta_i^2 for I = 1..N (index 0 <-> I = 1),
    with the tail sums it adds, for a length-N squared-coefficient vector."""
    tail = tail_sums(theta_sq)[1:]
    return model.variance_sums[1:] + tail, tail


@dataclass(frozen=True)
class OracleResult:
    i_star: int
    rate_sq: float
    variance_term: float
    bias_term: float

    @property
    def rate(self) -> float:
        return math.sqrt(self.rate_sq)


def oracle(signal: Signal, model: ModelConfig) -> OracleResult:
    """Minimize r^2(I) = Sigma(I) + sum_{i>I} theta_i^2 over I = 1..N.

    Returns the smallest minimizing index.  The rate never drops below
    eps^2 because the variance term at I = 1 is already sigma_1^2.
    """
    r2, tail = _risk_curve(signal.padded(model.n_trunc) ** 2, model)
    i0 = int(np.argmin(r2))
    return OracleResult(
        i_star=i0 + 1,
        rate_sq=float(r2[i0]),
        variance_term=float(model.variance_sums[i0 + 1]),
        bias_term=float(tail[i0]),
    )


@dataclass(frozen=True)
class SurrogateOracleResult:
    i_bar: int
    surr_rate_sq: float
    sigma_sum: float


def surrogate_oracle(signal: Signal, model: ModelConfig) -> SurrogateOracleResult:
    """Minimize R^2(I) = I*eps^2 + sum_{i>I} theta_i^2 / kappa_i^2 over I = 1..N.

    This is the oracle of the noise-rescaled direct problem; in the direct
    case p = 0 it coincides with the oracle index.
    """
    n = model.n_trunc
    # kappa_i^2 is built here, not read as sigma_sq / eps^2: rounding decides this
    # argmin's ties (the p = 1 deceptive spike at j = 11), and that would move them
    i = np.arange(1, n + 1, dtype=float)
    kappa_sq = i ** (2.0 * model.p)
    r2 = model.epsilon**2 * i + tail_sums(signal.padded(n) ** 2 / kappa_sq)[1:]
    i0 = int(np.argmin(r2))
    return SurrogateOracleResult(
        i_bar=i0 + 1,
        surr_rate_sq=float(r2[i0]),
        sigma_sum=float(model.variance_sums[i0 + 1]),
    )


@dataclass(frozen=True)
class EbrResult:
    member: bool
    ratio: float
    i_bar: int
    bias_tail: float
    variance_sum: float
    tau: float


def ebr_check(signal: Signal, model: ModelConfig, tau: float) -> EbrResult:
    """Excess-bias restriction: bias beyond the surrogate index vs. its variance.

    ratio = (sum_{i > I_bar} theta_i^2) / Sigma(I_bar); membership means
    ratio <= tau.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    surr = surrogate_oracle(signal, model)
    bias = float(tail_sums(signal.padded(model.n_trunc) ** 2)[surr.i_bar])
    var = surr.sigma_sum
    ratio = bias / var
    return EbrResult(
        member=bool(ratio <= tau),
        ratio=ratio,
        i_bar=surr.i_bar,
        bias_tail=bias,
        variance_sum=var,
        tau=float(tau),
    )


def pt_check(signal: Signal, L0: float, N0: int, rho0: float) -> bool:
    """Polished-tail test: the tail from N is bounded by L0 times the
    energy in the window [N, floor(rho0*N)], for every N0 <= N <= len(signal)."""
    if not L0 >= 1:
        raise ValueError(f"L0 must be >= 1, got {L0}")
    N0 = _integer(N0, "N0", lo=1)
    if not rho0 >= 2:
        raise ValueError(f"rho0 must be >= 2, got {rho0}")
    n = len(signal)
    tail = tail_sums(signal.coeffs**2)  # tail[N - 1] = sum_{i >= N}
    start = np.arange(N0, n + 1)
    hi = np.minimum(np.floor(rho0 * start), n).astype(int)
    return bool(np.all(tail[start - 1] <= L0 * (tail[start - 1] - tail[hi])))


def pt_to_ebr_tau(L0: float, N0: int, rho0: float, p: float) -> float:
    """The excess-bias level that the polished-tail class is contained in:
    tau = L0 * K1 * K2(rho0 * N0) with the mildly-ill-posed constants."""
    consts = sigma_constants(p, rho=float(rho0) * float(N0), gamma=1.0, tau0=1.0)
    return float(L0) * consts.k1 * consts.k2


@dataclass(frozen=True)
class SigmaConstants:
    """Constants witnessing the noise-sequence conditions for sigma_i = eps*i^p."""

    p: float
    rho: float
    gamma: float
    tau0: float
    k1: float
    k2: float
    k3: float
    k4: float
    tau: float
    k5: float


def sigma_constants(p: float, rho: float = 2.0, gamma: float = 0.5, tau0: float = 2.0) -> SigmaConstants:
    if p < 0:
        raise ValueError(f"p must be nonnegative, got {p}")
    if not (rho >= 1 and tau0 >= 1):  # NaN compares False
        raise ValueError(f"rho and tau0 must be >= 1, got rho={rho}, tau0={tau0}")
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    try:
        k3 = (
            4.0
            * (8.0 * p + 4.0) ** (2.0 * p)
            / ((math.e * gamma) ** (2.0 * p + 1.0) * (math.exp(gamma / 2.0) - 1.0))
        )
        k2 = (rho + 1.0) ** (2.0 * p + 1.0)
    except OverflowError:
        raise ValueError(f"K2 or K3 overflows a float at p={p}, rho={rho}, gamma={gamma}") from None
    return SigmaConstants(
        p=float(p),
        rho=float(rho),
        gamma=float(gamma),
        tau0=float(tau0),
        k1=2.0 * p + 1.0,
        k2=k2,
        k3=k3,
        k4=0.5,
        tau=2.0 ** (1.0 + 1.0 / (2.0 * p + 1.0)),
        k5=(2.0 * tau0) ** (-2.0 * p),
    )


@dataclass(frozen=True)
class SigmaConditionReport:
    passed: bool
    constants: SigmaConstants
    n_max: int
    violations: tuple = ()
    margins: Mapping[str, float] = field(default_factory=dict)


# relative slack for comparisons that are exact equalities in the direct
# case (e.g. n*sigma_n^2 == Sigma(n) at p=0), where cumsum rounding can
# flip the comparison by a few ulps
_REL_TOL = 1e-9

# the most noise terms (400 MB of floats) a sigma-condition check builds in one array
_MAX_TERMS = 50_000_000


def _sums_overflow(model: ModelConfig, n: int, factor: float = 1.0) -> bool:
    """Whether eps^2 (factor (n+1))^(2p+1) / (2p+1), a bound on factor^(2p+1) Sigma(n), overflows a float."""
    k = 2.0 * model.p + 1.0
    return k * math.log(factor * (n + 1)) + 2.0 * math.log(model.epsilon) - math.log(k) >= math.log(np.finfo(float).max)


def verify_sigma_conditions(
    model: ModelConfig,
    n_max: int,
    rho: float = 2.0,
    gamma: float = 0.5,
    tau0: float = 2.0,
) -> SigmaConditionReport:
    """Numerically check the five noise-sequence inequalities up to n_max.

    The sigma sequence is taken from the model's (epsilon, p) and extended
    past the truncation level as needed (condition (ii) looks at rho*n and
    condition (iii) sums an infinite series, truncated with an analytic
    remainder bound added before comparison).  Conditions (iv) and (v)
    quantify over real arguments; both sides are piecewise monotone between
    floor changes, so evaluating at every region left endpoint (integers and
    multiples of tau resp. tau0) covers all real arguments.

    A violation indicates an implementation bug, since the constants are
    proven for this noise shape.
    """
    n_max = _integer(n_max, "n_max", lo=1)
    c = sigma_constants(model.p, rho=rho, gamma=gamma, tau0=tau0)
    if not rho * n_max + n_max <= _MAX_TERMS:  # Sigma(rho*n_max), up to 2*n_max region points
        raise ValueError(f"rho={rho}, n_max={n_max} need more than {_MAX_TERMS:.0e} noise terms")
    if _sums_overflow(model, n_max, rho + 1.0):  # bounds K2 Sigma(n_max), Sigma(rho n_max) and n_max sigma^2
        raise ValueError(f"the noise sums at p={model.p}, n_max={n_max} overflow a float")
    top = max(int(math.floor(rho * n_max)), n_max)
    extended = make_model(model.epsilon, model.p, top)
    sig2, s = extended.sigma_sq, extended.variance_sums  # s[j] = Sigma(j)

    violations: list[tuple[str, float]] = []
    margins: dict[str, float] = {}

    def check(name: str, lhs: np.ndarray, rhs: np.ndarray, args: np.ndarray) -> None:
        lhs = np.atleast_1d(np.asarray(lhs, dtype=float))
        rhs = np.atleast_1d(np.asarray(rhs, dtype=float))
        bad = lhs > rhs * (1.0 + _REL_TOL)
        for a in np.atleast_1d(args)[bad]:
            violations.append((name, float(a)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(rhs > 0, lhs / rhs, np.where(lhs > 0, np.inf, 0.0))
        margins[name] = float(np.max(ratio, initial=0.0))  # no point: holds vacuously

    ns = np.arange(1, n_max + 1)

    # (i) n * sigma_n^2 <= K1 * Sigma(n)
    check("i", ns * sig2[ns - 1], c.k1 * s[ns], ns)

    # (ii) Sigma(rho*n) <= K2(rho) * Sigma(n)
    check("ii", s[np.floor(rho * ns).astype(int)], c.k2 * s[ns], ns)

    # (iii) sum_n exp(-gamma*n) * Sigma(n) <= K3(gamma) * sigma_1^2
    check("iii", _geometric_series_bound(model, gamma), c.k3 * model.epsilon**2, np.array([0]))

    # (iv) Sigma(floor(m/tau)) <= (1 - K4) * Sigma(m), all real m >= tau
    m_pts = _region_points(c.tau, n_max)
    lhs_iv = s[np.floor(m_pts / c.tau).astype(int)]
    rhs_iv = (1.0 - c.k4) * s[np.floor(m_pts).astype(int)]
    check("iv", lhs_iv, rhs_iv, m_pts)

    # (v) l * sigma_{floor(l/tau0)}^2 >= K5(tau0) * sum_{floor(l/tau0) < i <= l}
    l_pts = _region_points(tau0, n_max)
    lo = np.floor(l_pts / tau0).astype(int)
    hi = np.floor(l_pts).astype(int)
    check("v", c.k5 * (s[hi] - s[lo]), l_pts * sig2[lo - 1], l_pts)

    return SigmaConditionReport(
        passed=not violations,
        constants=c,
        n_max=int(n_max),
        violations=tuple(violations),
        margins=margins,
    )


def _region_points(step: float, n_max: int) -> np.ndarray:
    """Left endpoints of the regions where both floor(x) and floor(x/step)
    are constant: integers and multiples of step, from step up to n_max;
    none when step exceeds n_max."""
    if step > n_max:
        return np.empty(0)
    ints = np.arange(math.ceil(step), n_max + 1, dtype=float)
    mults = step * np.arange(1, math.floor(n_max / step) + 1, dtype=float)
    pts = np.unique(np.concatenate((ints, mults)))
    return pts[pts >= step]


def _geometric_series_bound(model: ModelConfig, gamma: float) -> float:
    """Upper bound for sum_{n>=1} exp(-gamma*n) * Sigma(n): partial sum plus
    a geometric tail bound valid once the term ratio falls below e^{-gamma/2}."""
    eps2 = model.epsilon**2
    # term ratio <= e^{-gamma} (1+1/n)^{2p+1} <= e^{-gamma/2} for n >= 2(2p+1)/gamma
    n = max(1024, math.ceil(2.0 * (2.0 * model.p + 1.0) / gamma) + 1)
    while n <= _MAX_TERMS and not _sums_overflow(model, n):
        sums = make_model(model.epsilon, model.p, n).variance_sums[1:]
        terms = np.exp(-gamma * np.arange(1, n + 1)) * sums
        total = float(terms.sum())
        term = float(terms[-1])
        if term <= 1e-18 * max(total, eps2):
            q = math.exp(-gamma / 2.0)
            return total + term * q / (1.0 - q)
        n *= 2
    raise ValueError(f"the series at p={model.p}, gamma={gamma} overflows or needs over {_MAX_TERMS:.0e} noise terms")


def _validate_radii(a: np.ndarray) -> np.ndarray:
    a = np.atleast_1d(_frozen(a, "class radii"))
    if a.ndim != 1 or len(a) == 0:
        raise ValueError("class radii must be a nonempty one-dimensional sequence")
    if np.any(a < 0) or not np.all(np.isfinite(a)):
        raise ValueError("class radii must be finite and nonnegative")
    if np.any(np.diff(a) > 0):
        raise ValueError("class radii must be nonincreasing")
    return a


@dataclass(frozen=True)
class Ellipsoid:
    """{theta : sum_i (theta_i / a_i)^2 <= 1} with nonincreasing radii a."""

    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _validate_radii(self.a))

    kind = "ellipsoid"

    def contains(self, theta: np.ndarray) -> bool:
        n = max(len(theta), len(self.a))
        a, th = pad(self.a, n), pad(theta, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(th == 0.0, 0.0, (th / a) ** 2)  # 0/0 counts as 0
        if np.any(np.isinf(q) | np.isnan(q)):
            return False
        return bool(q.sum() <= 1.0 + 1e-12)


@dataclass(frozen=True)
class Hyperrectangle:
    """{theta : |theta_i| <= a_i for all i} with nonincreasing radii a."""

    a: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", _validate_radii(self.a))

    kind = "hyperrect"

    def contains(self, theta: np.ndarray) -> bool:
        n = max(len(theta), len(self.a))
        a, th = pad(self.a, n), pad(theta, n)
        return bool(np.all(np.abs(th) <= a + 1e-15 * a))


def scale_class(name: str, params: Mapping[str, Any], n_trunc: int) -> Ellipsoid | Hyperrectangle:
    """The four standard smoothness scales as explicit classes.

    Radii and parameter checks come from :func:`seqcred.model.family_radii`,
    so each class but the sobolev ellipsoid has the radii of its signal
    family (sobolev-boundary, analytic, parametric) as its boundary:

    * ``sobolev-hyperrect``: a_i^2 = Q * i^{-(2*beta+1)}
    * ``sobolev-ellipsoid``: a_i^2 = Q * i^{-2*beta}
    * ``analytic-ellipsoid``: a_i^2 = Q * exp(-c * i^d)
    * ``parametric-hyperrect``: a_i^2 = Q * 1{i <= N0}
    """
    shapes = {
        "sobolev-hyperrect": Hyperrectangle,
        "sobolev-ellipsoid": Ellipsoid,
        "analytic-ellipsoid": Ellipsoid,
        "parametric-hyperrect": Hyperrectangle,
    }
    if name not in shapes:
        raise ValueError(f"unknown scale {name!r}")
    a, parsed = family_radii(name.split("-")[0], params, n_trunc)
    if name == "sobolev-ellipsoid":
        i = np.arange(1, n_trunc + 1, dtype=float)
        a = np.sqrt(parsed["Q"]) * i ** (-parsed["beta"])
    return shapes[name](a)


def _padded_radii(cls: Ellipsoid | Hyperrectangle, model: ModelConfig) -> np.ndarray:
    if cls.a[0] < model.epsilon:
        raise ValueError(
            f"largest class radius a_1={cls.a[0]:.4g} below the noise level "
            f"eps={model.epsilon:.4g}"
        )
    return pad(cls.a, model.n_trunc)


def minimax_rate(cls: Ellipsoid | Hyperrectangle, model: ModelConfig) -> float:
    """Projection-style global rate of the class.

    Ellipsoid: inf_I { Sigma(I) + a_{I+1}^2 }; hyperrectangle:
    inf_I { Sigma(I) + sum_{i>I} a_i^2 }.  The scan runs over I = 1..N with
    radii beyond the class length treated as exact zeros.
    """
    a = _padded_radii(cls, model)
    if isinstance(cls, Ellipsoid):
        a_next_sq = np.concatenate((a[1:], [0.0])) ** 2
        return float(np.min(model.variance_sums[1:] + a_next_sq))
    return float(np.min(_risk_curve(a**2, model)[0]))


@dataclass(frozen=True)
class CoversReport:
    class_kind: str
    rate_sq: float
    threshold: float
    worst_ratio: float
    worst_sample: str
    n_samples: int
    passed: bool
    lambda_trials: int
    lambda_all_hold: bool
    lambda_worst_margin: float


def covers_check(
    cls: Ellipsoid | Hyperrectangle,
    model: ModelConfig,
    n_samples: int = 200,
    seed: int | np.random.SeedSequence | np.random.Generator | None = 0,
    lambda_trials: int = 1000,
) -> CoversReport:
    """Check that the local radial rate never beats the global rate by more
    than the proven comparison constant, over boundary-biased samples.

    Also runs the monotone-linear-estimator comparison: for random
    nonincreasing weights lambda in [0,1]^N, N = min(50, n_trunc), and random
    theta, the linear risk sum_i [sigma_i^2 lambda_i^2 + (1-lambda_i)^2
    theta_i^2] must be at least a quarter of r^2(N_lambda, theta) where
    N_lambda is the last index with lambda_i >= 1/2.  Both inequalities are
    exact, so no tolerance is applied.
    """
    n_samples = _integer(n_samples, "n_samples", lo=1)
    rng = np.random.default_rng(seed)
    a = _padded_radii(cls, model)
    n = model.n_trunc
    rate_global = minimax_rate(cls, model)
    threshold = ELLIPSOID_COVER_CONST if isinstance(cls, Ellipsoid) else HYPERRECT_COVER_CONST

    samples: list[tuple[str, np.ndarray]] = []  # (tag, theta_sq)
    pos = np.flatnonzero(a > 0)
    if isinstance(cls, Hyperrectangle):
        samples.append(("full-boundary", a**2))
        for _ in range(n_samples - 1):
            u = rng.uniform(0.0, 1.0, size=n)
            boundary = rng.random(n) < 0.5
            u[boundary] = 1.0
            samples.append(("box-interior", (u * a) ** 2))
    else:
        # axis spikes are the extreme points of the ellipsoid for the
        # projection risk; take a log-spaced sweep of at most n_samples
        # (a_1 >= eps > 0, so pos is never empty)
        js = np.unique(np.geomspace(1, len(pos), num=min(40, len(pos), n_samples)).astype(int)) - 1
        for j in pos[js]:
            th2 = np.zeros(n)
            th2[j] = a[j] ** 2
            samples.append((f"axis-{j + 1}", th2))
        for _ in range(n_samples - len(samples)):
            k = int(rng.choice([1, 2, 4, 8, 16]))
            idx = rng.choice(pos, size=min(k, len(pos)), replace=False)
            w = rng.standard_normal(len(idx)) ** 2
            w /= w.sum()
            scale = math.sqrt(float(rng.uniform(0.0, 1.0))) if rng.random() < 0.3 else 1.0
            th2 = np.zeros(n)
            th2[idx] = scale**2 * w * a[idx] ** 2
            samples.append(("boundary-mix", th2))

    ratios = [float(np.min(_risk_curve(th2, model)[0])) / rate_global for _, th2 in samples]
    worst = int(np.argmax(ratios))

    # monotone-weights comparison, independent of the class
    dim = min(50, n)
    sig2 = model.sigma_sq[:dim]
    worst_margin = math.inf
    for _ in range(lambda_trials):
        lam = np.sort(rng.uniform(0.0, 1.0, size=dim))[::-1]
        theta = rng.standard_normal(dim) * rng.choice([0.1, 1.0, 10.0])
        th2 = theta**2
        risk_lin = float(np.sum(sig2 * lam**2 + (1.0 - lam) ** 2 * th2))
        n_lam = int(np.count_nonzero(lam >= 0.5))  # lam is nonincreasing
        r2 = float(model.variance_sums[n_lam] + th2[n_lam:].sum())
        worst_margin = min(worst_margin, risk_lin - 0.25 * r2)

    return CoversReport(
        class_kind=cls.kind,
        rate_sq=rate_global,
        threshold=threshold,
        worst_ratio=ratios[worst],
        worst_sample=samples[worst][0],
        n_samples=len(samples),
        passed=bool(ratios[worst] <= threshold),
        lambda_trials=lambda_trials,
        lambda_all_hold=bool(worst_margin >= 0),
        lambda_worst_margin=float(worst_margin),
    )
