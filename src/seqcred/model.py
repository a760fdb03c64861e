"""Observation model and signal families for the Gaussian sequence problem.

The model observes X_i ~ N(theta_i, sigma_i^2) independently, with noise
levels sigma_i = eps * i^p growing polynomially in the coordinate index
(the mildly ill-posed regime; p = 0 is the direct problem).  Signals are
finite coefficient sequences with an exact zero tail beyond the truncation
level, which keeps every tail sum downstream exact.  That convention is
stated here once: ``family_radii`` gives the radii a_i of the sobolev,
analytic and parametric families (signals and smoothness scales alike),
``tail_sums`` the tail sums sum_{i>I} v_i, and ``pad`` the zero padding.
So are the noise sums, as ``ModelConfig.sigma_sq`` and ``variance_sums``
(Sigma(I)): the oracle module reads them and ``tail_sums`` from here, except
the surrogate oracle's kappa_i^2 = i^{2p}, whose rounding decides its ties.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

import numpy as np

__all__ = [
    "ModelConfig",
    "Signal",
    "ObservedData",
    "make_model",
    "generate_signal",
    "simulate",
    "family_radii",
    "tail_sums",
    "pad",
]

SIGNAL_KINDS = (
    "zero",
    "sobolev-boundary",
    "sobolev-random",
    "analytic",
    "parametric",
    "deceptive",
    "custom",
)


def _frozen(value: Any, name: str) -> np.ndarray:
    """A read-only float copy of value, never the caller's own array, or a
    ValueError naming the field; every record stores its arrays this way."""
    try:
        out = np.array(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must hold numbers only, got {value!r}") from None
    out.flags.writeable = False
    return out


def _json_object(d: Any, what: str, required: Iterable[str] = ()) -> Mapping[str, Any]:
    """d, when it is a mapping that holds every required key; otherwise a
    ValueError that says what d should have been."""
    _require(isinstance(d, Mapping), f"{what} must be a JSON object, got {type(d).__name__}")
    missing = [key for key in required if key not in d]
    _require(not missing, f"{what} lacks field(s) {missing}")
    return d


def pad(vec: np.ndarray, n: int) -> np.ndarray:
    """A fresh length-n copy of vec, padded with exact zeros (or truncated)."""
    vec = np.asarray(vec, dtype=float)
    out = np.zeros(n)
    m = min(n, len(vec))
    out[:m] = vec[:m]
    return out


def tail_sums(v: np.ndarray) -> np.ndarray:
    """tail[I] = sum_{i>I} v_i for I = 0..len(v), so tail[len(v)] = 0.

    One reversed cumulative sum: numpy's cumsum adds sequentially, so every
    entry is the same float whatever the vector is cut or padded to beyond it.
    """
    v = np.asarray(v, dtype=float)
    tail = np.zeros(len(v) + 1)
    tail[:-1] = v[::-1].cumsum()[::-1]
    return tail


@dataclass(frozen=True)
class ModelConfig:
    """Noise specification sigma_i = epsilon * i^p for i = 1..n_trunc, stored
    as two floats and an int; strings, bools and fractions are refused."""

    epsilon: float
    p: float
    n_trunc: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon"))
        object.__setattr__(self, "p", _real(self.p, "p"))
        object.__setattr__(self, "n_trunc", _integer(self.n_trunc, "n_trunc", lo=1))
        if not (self.epsilon > 0 and math.isfinite(self.epsilon)):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if not (self.p >= 0 and math.isfinite(self.p)):
            raise ValueError(f"p must be nonnegative and finite, got {self.p}")

    @cached_property
    def sigma(self) -> np.ndarray:
        """Noise standard deviations (sigma_1, ..., sigma_N), sigma_i = eps * i^p."""
        i = np.arange(1, self.n_trunc + 1, dtype=float)
        return _frozen(self.epsilon * i**self.p, "sigma")

    @cached_property
    def sigma_sq(self) -> np.ndarray:
        return _frozen(self.sigma**2, "sigma_sq")

    @cached_property
    def variance_sums(self) -> np.ndarray:
        """Index j holds Sigma(j) = sum_{i<=j} sigma_i^2 for j = 0..n_trunc."""
        return _frozen(np.concatenate(([0.0], np.cumsum(self.sigma_sq))), "variance_sums")


def make_model(epsilon: float, p: float, n_trunc: int = 4096) -> ModelConfig:
    """Build a ModelConfig; rejects epsilon <= 0, p < 0, either non-finite
    or not a number, and an n_trunc that is below 1, a bool or not integral."""
    return ModelConfig(epsilon=epsilon, p=p, n_trunc=n_trunc)


@dataclass(frozen=True)
class Signal:
    """A finite coefficient sequence together with its generator metadata.

    Coefficients beyond len(coeffs) are exactly zero by convention.
    """

    coeffs: np.ndarray
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        arr = np.atleast_1d(_frozen(self.coeffs, "signal coefficients"))
        if arr.ndim != 1:
            raise ValueError("signal coefficients must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("signal coefficients must be finite")
        object.__setattr__(self, "coeffs", arr)
        object.__setattr__(self, "params", dict(self.params))

    def __len__(self) -> int:
        return len(self.coeffs)

    def padded(self, n: int) -> np.ndarray:
        """Coefficients padded with exact zeros (or truncated) to length n."""
        return pad(self.coeffs, n)

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params), "coeffs": self.coeffs.tolist()}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "Signal":
        d = _json_object(d, "a signal", ("coeffs", "kind"))
        params = _json_object(d.get("params", {}), "signal params")
        return cls(coeffs=d["coeffs"], kind=d["kind"], params=params)

    @classmethod
    def from_json(cls, s: str) -> "Signal":
        return cls.from_dict(json.loads(s))


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValueError(msg)


def _integer(value: Any, name: str, lo: int | None = None, hi: int | None = None) -> int:
    """An int, a numpy integer or an integral float as an int, checked to be
    >= lo, or in [lo, hi] when hi is given too; a bool, a string, a fraction
    or a value out of range is a ValueError naming the field, never truncated."""
    try:
        ok = int(value) == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        ok = False
    _require(ok, f"{name} must be an integer, got {value!r}")
    value = int(value)
    if hi is not None:
        _require(lo <= value <= hi, f"{name} must be in [{lo}, {hi}], got {value}")
    elif lo is not None:
        _require(value >= lo, f"{name} must be >= {lo}, got {value}")
    return value


def _real(value: Any, name: str) -> float:
    """A number as a float; a string, a bool or a non-number is a ValueError
    naming the field, never parsed."""
    try:
        if not isinstance(value, (str, bytes, bool, np.bool_)):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def _param(params: Mapping[str, Any], name: str, default: Any = None, cast: type = float) -> Any:
    """params[name] (or its default) as a float, or with cast=int as an int
    (a non-finite value is no number), or a ValueError naming it."""
    _require(name in params or default is not None, f"missing parameter {name!r}")
    value, label = params.get(name, default), f"parameter {name!r}"
    if cast is float:
        return _real(value, label)
    # a bool fails as an integer; a string, nan or inf as a number
    _require(isinstance(value, (bool, np.bool_)) or math.isfinite(_real(value, label)),
             f"{label} must be a number, got {value!r}")
    return _integer(value, label)


def family_radii(family: str, params: Mapping[str, Any], n_trunc: int) -> tuple[np.ndarray, dict[str, Any]]:
    """Radii a_1..a_n of a smoothness family, with its parsed parameters.

    * ``sobolev`` (beta > 0, Q > 0): a_i = sqrt(Q) * i^{-(beta+1/2)}
    * ``analytic`` (c > 0, d > 0, Q > 0): a_i = sqrt(Q * exp(-c * i^d))
    * ``parametric`` (Q > 0, 1 <= N0 <= n_trunc): a_i = sqrt(Q) for i <= N0,
      zero after

    Missing parameters default to 1.  Signals and smoothness scales both
    take their radii from here.
    """
    _json_object(params, f"{family} params")
    q = _param(params, "Q", 1.0)
    _require(q > 0, f"Q must be positive, got {q}")
    i = np.arange(1, n_trunc + 1, dtype=float)
    if family == "sobolev":
        beta = _param(params, "beta", 1.0)
        _require(beta > 0, f"beta must be positive, got {beta}")
        return np.sqrt(q) * i ** (-(beta + 0.5)), {"beta": beta, "Q": q}
    if family == "analytic":
        c = _param(params, "c", 1.0)
        d = _param(params, "d", 1.0)
        _require(c > 0 and d > 0, f"c and d must be positive, got c={c}, d={d}")
        return np.sqrt(q * np.exp(-c * i**d)), {"c": c, "d": d, "Q": q}
    if family == "parametric":
        n0 = _integer(_param(params, "N0", 1, int), "N0", 1, n_trunc)
        a = np.zeros(n_trunc)
        a[:n0] = math.sqrt(q)
        return a, {"Q": q, "N0": n0}
    raise ValueError(f"unknown family {family!r}; expected sobolev, analytic or parametric")


def generate_signal(
    kind: str,
    params: Mapping[str, Any] | None = None,
    n_trunc: int = 4096,
    seed: int | np.random.SeedSequence | np.random.Generator | None = None,
) -> Signal:
    """Generate a signal from one of the named families.

    Kinds and parameters:

    * ``zero``: all-zero coefficients.
    * ``sobolev-boundary`` (beta, Q), ``analytic`` (c, d, Q) and
      ``parametric`` (Q, N0): theta_i = a_i, the radii of the family in
      :func:`family_radii`, so the signal sits on its class boundary.
    * ``sobolev-random`` (beta, Q): theta_i drawn uniformly in [-a_i, a_i]
      with the sobolev a_i (seeded).
    * ``deceptive`` (epsilon > 0, p >= 0): zero base plus a single spike of
      squared mass m = 10 * eps^2 * j^{2p} at the first j >= ceil(2 /
      eps^{2/(2p+1)}) whose spike fails the excess-bias check at tau = 1,
      searched up to n_trunc; the constructor raises if there is none.
      Its surrogate risk is 11 eps^2 at I = 1 and j eps^2 at I = j, so it
      fails the check once j > 11.  At eps = 0.1, n_trunc = 1024 the mean
      posterior mass on I >= j (seeds 0-39) is 0.073 at p = 0 but 0.77-0.94
      at p = 0.5, 1 and 2: only the p = 0 spike is hidden from the posterior.
    * ``custom`` (coeffs): coefficients passed through verbatim.
    """
    params = dict(_json_object({} if params is None else params, "signal params"))
    n_trunc = _integer(n_trunc, "n_trunc", lo=1)

    if kind == "zero":
        return Signal(np.zeros(n_trunc), kind, {})

    if kind in ("sobolev-boundary", "sobolev-random", "analytic", "parametric"):
        a, parsed = family_radii(kind.split("-")[0], params, n_trunc)
        coeffs = np.random.default_rng(seed).uniform(-a, a) if kind == "sobolev-random" else a
        return Signal(coeffs, kind, parsed)

    if kind == "deceptive":
        model = make_model(_param(params, "epsilon"), _param(params, "p", 0.0), n_trunc)
        eps, p = model.epsilon, model.p
        j0 = math.ceil(2.0 / eps ** (2.0 / (2.0 * p + 1.0)))
        if j0 > n_trunc:
            raise ValueError(
                f"deceptive spike index {j0} exceeds the truncation level {n_trunc}; "
                f"use a larger n_trunc or a larger epsilon"
            )
        # the whole point of this signal is to sit outside the excess-bias
        # class: the spike moves out from j0 until it fails the check.
        # Import the submodule explicitly: the package namespace rebinds the
        # name "oracle" to a function of the same name.
        from .oracle import ebr_check

        for j in range(j0, n_trunc + 1):
            mass = 10.0 * eps**2 * float(j) ** (2.0 * p)
            coeffs = np.zeros(n_trunc)
            coeffs[j - 1] = math.sqrt(mass)
            sig = Signal(coeffs, kind, {"epsilon": eps, "p": p, "spike_index": j, "spike_mass": mass})
            check = ebr_check(sig, model, tau=1.0)
            if not check.member:
                return sig
        raise ValueError(
            f"deceptive construction failed: excess-bias ratio {check.ratio:.4g} <= 1 "
            f"at every spike index from {j0} to {n_trunc}"
        )

    if kind == "custom":
        _require("coeffs" in params, "custom signals need a 'coeffs' parameter")
        coeffs = np.atleast_1d(_frozen(params["coeffs"], "coeffs"))
        _require(len(coeffs) <= n_trunc, f"custom coefficients longer than n_trunc={n_trunc}")
        return Signal(pad(coeffs, n_trunc), kind, {})

    raise ValueError(f"unknown signal kind {kind!r}; expected one of {SIGNAL_KINDS}")


@dataclass(frozen=True)
class ObservedData:
    """One simulated draw X_i = theta_i + sigma_i * Z_i, i = 1..n_trunc."""

    x: np.ndarray
    model: ModelConfig
    seed: int | None

    def __post_init__(self) -> None:
        arr = _frozen(self.x, "data")
        if arr.shape != (self.model.n_trunc,):
            raise ValueError(
                f"data length {arr.shape} does not match n_trunc={self.model.n_trunc}"
            )
        _require(bool(np.all(np.isfinite(arr))), "data must be finite")
        object.__setattr__(self, "x", arr)

    def __len__(self) -> int:
        return len(self.x)


def simulate(model: ModelConfig, signal: Signal, seed: int) -> ObservedData:
    """Draw X ~ N(theta, diag(sigma^2)) with a fixed integer seed.

    The signal is zero-padded to the model truncation level; signals longer
    than the model are rejected.  Identical (model, signal, seed) gives a
    bit-identical result.
    """
    if len(signal) > model.n_trunc:
        raise ValueError(
            f"signal length {len(signal)} exceeds model truncation {model.n_trunc}"
        )
    seed = _integer(seed, "seed")
    rng = np.random.default_rng(seed)
    theta = signal.padded(model.n_trunc)
    x = theta + model.sigma * rng.standard_normal(model.n_trunc)
    return ObservedData(x=x, model=model, seed=seed)
