"""Seeded Monte-Carlo experiment harness.

Six experiment kinds, all driven by one frozen spec:

* ``contraction``      -- size-condition curves phi1(M) over an M grid
* ``oracle-inequality``-- posterior-mean risk against the oracle rate
* ``small-ball``       -- psi(delta) curves under both yardsticks
* ``coverage-size``    -- coverage and radius-size frequencies of the
                          inflated default ball, with pilot calibration
* ``overshrinkage``    -- mixture vs. zero-centered full-Bayes means
* ``scale-adaptation`` -- covers_check over the standard smoothness scales

Every replication seeds from SeedSequence(master_seed, spawn_key=...), so a
rerun of the same spec reproduces every cell byte for byte; wall-clock time
appears only in the report metadata and in output directory names.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .credible import radius_from_distances
from .diagnostics import CENTER_RULES, estimate_phi1, estimate_psi, replicate
from .model import SIGNAL_KINDS, ModelConfig, Signal, generate_signal, make_model, simulate
from .oracle import covers_check, ebr_check, oracle, scale_class, surrogate_oracle
from .posterior import DdmParams, mixture_weights, posterior_mean, shrunk_full_bayes

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "ExperimentReport",
    "default_spec",
    "run_experiment",
    "write_report",
    "read_report",
    "emit_plot_data",
]

CSV_COLUMNS = (
    "kind",
    "signal_kind",
    "signal_params",
    "epsilon",
    "grid_value",
    "statistic",
    "std_error",
    "seed",
)

#: spawn-key prefix reserving a seed namespace for pilot replications
_PILOT_KEY = 782134
#: spawn-key prefix for signal-level streams shared across the eps grid
_SIGNAL_KEY = 550927
#: delta at which the in-cell miss/size duality is tabulated
_DUALITY_DELTA = 0.5
#: spec fields that must hold an int, a real, a real or None, or a tuple of reals
_INT_FIELDS = ("n_trunc", "n_cover_samples", "reps", "inner_mc", "pilot_reps",
               "master_seed", "signal_seed", "workers")
_REAL_FIELDS = ("p", "K", "alpha", "kappa", "tau_ebr")
_OPTIONAL_REAL_FIELDS = ("coverage_inflation", "size_threshold")
_GRID_FIELDS = ("eps_grid", "m_grid", "delta_grid", "size_c_grid")


def _is_number(value, kind: type | tuple) -> bool:
    """JSON-serializable numbers only; bool is an int subclass but no number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, serializable description of one experiment run."""

    kind: str
    signals: tuple = ()
    eps_grid: tuple = (0.1,)
    p: float = 0.0
    n_trunc: int = 1024
    K: float = 2.0
    alpha: float = 0.04
    kappa: float = 0.5
    tau_ebr: float = 2.0
    m_grid: tuple = (2.0, 4.0, 8.0, 16.0)
    delta_grid: tuple = (0.02, 0.05, 0.1)
    size_c_grid: tuple = ()
    coverage_inflation: float | None = None
    size_threshold: float | None = None
    center_rule: str = "default-center"
    scales: tuple = ()
    n_cover_samples: int = 200
    reps: int = 500
    inner_mc: int = 2000
    pilot_reps: int = 200
    master_seed: int = 0
    signal_seed: int = 7
    out_dir: str | None = None
    workers: int = 0

    def __post_init__(self) -> None:
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        for name in ("signals", "eps_grid", "m_grid", "delta_grid", "size_c_grid", "scales"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        for name in _INT_FIELDS:
            if not _is_number(getattr(self, name), int):
                raise ValueError(f"{name} must be an int, got {getattr(self, name)!r}")
        for name in _REAL_FIELDS + _OPTIONAL_REAL_FIELDS:
            value = getattr(self, name)
            if not (_is_number(value, (int, float)) or (value is None and name in _OPTIONAL_REAL_FIELDS)):
                raise ValueError(f"{name} must be a number, got {value!r}")
        for name in _GRID_FIELDS:
            if not all(_is_number(v, (int, float)) for v in getattr(self, name)):
                raise ValueError(f"{name} must hold numbers only, got {list(getattr(self, name))!r}")
        if self.kind == "scale-adaptation":
            if not self.scales:
                raise ValueError("scale-adaptation needs a nonempty scales tuple")
        elif not self.signals:
            raise ValueError(f"{self.kind} needs a nonempty signals tuple")
        if not self.eps_grid:
            raise ValueError("eps_grid must be nonempty")
        if self.reps < 1 or self.inner_mc < 1 or self.pilot_reps < 1:
            raise ValueError("reps, inner_mc and pilot_reps must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        if self.center_rule not in CENTER_RULES:
            raise ValueError(f"center_rule must be one of {CENTER_RULES}, got {self.center_rule!r}")
        if not self.p >= 0:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if self.workers < 0:
            raise ValueError(f"workers must be nonnegative, got {self.workers}")
        for desc in self.signals:
            if not (isinstance(desc, dict) and desc.get("kind") in SIGNAL_KINDS):
                raise ValueError(f"each signal needs a kind in {SIGNAL_KINDS}, got {desc!r}")
        for desc in self.scales:
            if not isinstance(desc, dict):
                raise ValueError(f"each scale must be a dict with a name, got {desc!r}")
        if not all(0 < d < 1 for d in self.delta_grid):
            raise ValueError(f"delta_grid values must lie in (0, 1), got {list(self.delta_grid)!r}")
        # build every model, signal and scale now (make_model also rejects a
        # nonpositive or NaN eps and n_trunc < 1), so that a bad entry fails
        # the spec rather than a cell halfway through a run
        for eps in self.eps_grid:
            make_model(eps, self.p, self.n_trunc)
        DdmParams(K=self.K, alpha=self.alpha)
        try:
            for i, desc in enumerate(self.signals):
                for eps in self.eps_grid:
                    _build_signal(self, i, eps)
            for desc in self.scales:
                scale_class(desc.get("name"), dict(desc.get("params", {})), self.n_trunc)
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"bad entry {desc!r}: {exc}") from exc

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(**d)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    cells: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    runtime: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "cells": self.cells,
            "summary": self.summary,
            "runtime": self.runtime,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentReport":
        return cls(
            spec=ExperimentSpec.from_dict(d["spec"]),
            cells=list(d["cells"]),
            summary=dict(d["summary"]),
            runtime=dict(d["runtime"]),
        )


# canonical signal panels used by the ready-made specs
_COVERAGE_SIGNALS = (
    {"kind": "zero", "params": {}},
    {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
    {"kind": "sobolev-boundary", "params": {"beta": 0.5, "Q": 1.0}},
    {"kind": "sobolev-random", "params": {"beta": 1.0, "Q": 1.0}},
    {"kind": "analytic", "params": {"c": 1.0, "d": 1.0, "Q": 1.0}},
    {"kind": "parametric", "params": {"N0": 3, "Q": 4.0}},
    {"kind": "deceptive", "params": {}},
)

_RATE_SIGNALS = (
    {"kind": "zero", "params": {}},
    {"kind": "sobolev-boundary", "params": {"beta": 0.5, "Q": 1.0}},
    {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
    {"kind": "sobolev-boundary", "params": {"beta": 2.0, "Q": 1.0}},
    {"kind": "analytic", "params": {"c": 1.0, "d": 1.0, "Q": 1.0}},
)

_STANDARD_SCALES = (
    {"name": "sobolev-hyperrect", "params": {"beta": 1.0, "Q": 1.0}},
    {"name": "sobolev-ellipsoid", "params": {"beta": 1.0, "Q": 1.0}},
    {"name": "analytic-ellipsoid", "params": {"c": 1.0, "d": 1.0, "Q": 1.0}},
    {"name": "parametric-hyperrect", "params": {"N0": 3, "Q": 4.0}},
)


def default_spec(kind: str, **overrides) -> ExperimentSpec:
    """Ready-made spec for each experiment kind, override anything by name."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    return ExperimentSpec(**{"kind": kind, **_KINDS[kind].defaults, **overrides})


# ---------------------------------------------------------------------------
# seeding helpers

def _cell_seq(spec: ExperimentSpec, cell_idx: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(spec.master_seed, spawn_key=(cell_idx,) + tuple(extra))


def _seq_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# cell plumbing

def _build_signal(spec: ExperimentSpec, sig_idx: int, eps: float) -> Signal:
    desc = spec.signals[sig_idx]
    kind = desc["kind"]
    params = dict(desc.get("params", {}))
    if kind == "deceptive":
        params.setdefault("epsilon", eps)
        params.setdefault("p", spec.p)
    seed = _seq_int(np.random.SeedSequence(spec.signal_seed, spawn_key=(sig_idx,)))
    return generate_signal(kind, params, n_trunc=spec.n_trunc, seed=seed)


def _params_str(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


def _row(
    kind: str,
    signal_kind: str,
    signal_params: dict,
    epsilon: float,
    grid_value: str,
    statistic: float,
    std_error: float,
    seed: int,
) -> dict:
    return {
        "kind": kind,
        "signal_kind": signal_kind,
        "signal_params": _params_str(signal_params),
        "epsilon": float(epsilon),
        "grid_value": grid_value,
        "statistic": float(statistic),
        "std_error": float(std_error),
        "seed": int(seed),
    }


def _model_and_params(spec: ExperimentSpec, eps: float) -> tuple[ModelConfig, DdmParams]:
    return make_model(eps, spec.p, spec.n_trunc), DdmParams(K=spec.K, alpha=spec.alpha)


# ---------------------------------------------------------------------------
# per-kind cell bodies.  Each returns ((entry kind, entry params), stats,
# summary): stats holds (row kind suffix, grid value, statistic, std error)
# tuples, which _cell_worker writes as CSV rows "<kind>:<suffix>"

def _cell_contraction(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    ests = estimate_phi1(
        spec.m_grid,
        model,
        signal,
        params,
        center_rule=spec.center_rule,
        reps=spec.reps,
        inner_mc=spec.inner_mc,
        seed=_cell_seq(spec, cell_idx),
    )
    stats = [("phi1", repr(float(e.argument)), e.value, e.std_error) for e in ests]
    values = [e.value for e in ests]
    ratios = [
        values[k + 1] / values[k] if values[k] > 0 else math.nan
        for k in range(len(values) - 1)
    ]
    positive = [(m, v) for m, v in zip(spec.m_grid, values) if v > 0]
    slope = (
        float(np.polyfit(np.log([m for m, _ in positive]), np.log([v for _, v in positive]), 1)[0])
        if len(positive) >= 2
        else math.nan
    )
    summary = {
        "m_grid": list(spec.m_grid),
        "estimates": values,
        "std_errors": [e.std_error for e in ests],
        "nonincreasing": bool(all(values[k + 1] <= values[k] for k in range(len(values) - 1))),
        "consecutive_ratios": ratios,
        "halving_ok": bool(all(not (r > 0.5) for r in ratios if not math.isnan(r))),
        "slope": slope,
        "center_flags": ests[0].center_flags,
        "oracle_rate": ests[0].scale,
    }
    return (signal.kind, dict(signal.params)), stats, summary


def _cell_oracle_inequality(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    r2 = oracle(signal, model).rate_sq
    theta0 = signal.padded(spec.n_trunc)

    # noise streams are keyed by (signal, rep), not by cell, so every eps
    # column sees the same z draws; ratios of pivotal quantities then cancel
    # exactly along the eps grid instead of adding MC noise to the slope
    def _risk(rep: int, pilot: bool) -> float:
        key = (_PILOT_KEY, _SIGNAL_KEY, sig_idx, rep) if pilot else (_SIGNAL_KEY, sig_idx, rep)
        data_seed = _seq_int(np.random.SeedSequence(spec.master_seed, spawn_key=key))
        data = simulate(model, signal, data_seed)
        mean = posterior_mean(data, mixture_weights(data, params))
        diff = mean - theta0
        return float(diff @ diff)

    sq = np.array([_risk(rep, pilot=False) for rep in range(spec.reps)])
    ratio = float(sq.mean() / r2)
    se = float(sq.std(ddof=1) / math.sqrt(spec.reps) / r2) if spec.reps > 1 else 0.0

    pilot_sq = np.array([_risk(rep, pilot=True) for rep in range(spec.pilot_reps)])
    pilot_ratio = float(pilot_sq.mean() / r2)

    stats = [("risk-ratio", "ratio", ratio, se), ("oracle-rate-sq", "r2", r2, 0.0)]
    summary = {
        "ratio": ratio,
        "std_error": se,
        "pilot_ratio": pilot_ratio,
        "oracle_rate_sq": r2,
        "oracle_index": oracle(signal, model).i_star,
    }
    return (signal.kind, dict(signal.params)), stats, summary


def _cell_small_ball(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    stats = []
    per_scaling = {}
    for k, scaling in enumerate(("oracle-rate", "sigma-sum-surrogate")):
        ests = estimate_psi(
            spec.delta_grid,
            model,
            signal,
            params,
            center_rule=spec.center_rule,
            scaling=scaling,
            reps=spec.reps,
            inner_mc=spec.inner_mc,
            seed=_cell_seq(spec, cell_idx, k),
        )
        stats += [(f"psi:{scaling}", repr(float(e.argument)), e.value, e.std_error) for e in ests]
        deltas = np.asarray(spec.delta_grid, dtype=float)
        envelope = deltas * np.log(1.0 / deltas) ** (spec.p + 0.5)
        d_ref = float(deltas.max())
        ref_idx = int(np.argmax(deltas))
        ref_val = ests[ref_idx].value
        c_hat = float(ref_val / envelope[ref_idx]) if envelope[ref_idx] > 0 else math.nan
        vals = np.array([e.value for e in ests])
        env_ok = bool(np.all(vals <= c_hat * envelope + 1e-12)) if not math.isnan(c_hat) else bool(np.all(vals == 0.0))
        per_scaling[scaling] = {
            "delta_grid": list(map(float, deltas)),
            "estimates": [e.value for e in ests],
            "std_errors": [e.std_error for e in ests],
            "scale": ests[0].scale,
            "c_hat": c_hat,
            "c_hat_at": d_ref,
            "envelope_ok": env_ok,
            "center_flags": ests[0].center_flags,
        }
    summary = {
        "scalings": per_scaling,
        "envelope_ok": bool(all(v["envelope_ok"] for v in per_scaling.values())),
    }
    return (signal.kind, dict(signal.params)), stats, summary


def _coverage_reps(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float, pilot: bool):
    """Replications of one coverage cell; the pilot pass has its own seed
    namespace.  Returns (signal, EBR check, oracle rate, center gaps,
    radius-hats, inner small-ball masses at _DUALITY_DELTA times the rate,
    count of failed default-center verifications)."""
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    theta0 = signal.padded(spec.n_trunc)
    rate = oracle(signal, model).rate
    if pilot:
        ss, reps = np.random.SeedSequence(spec.master_seed, spawn_key=(_PILOT_KEY, cell_idx)), spec.pilot_reps
    else:
        ss, reps = _cell_seq(spec, cell_idx), spec.reps
    gaps, radii, smalls = np.empty(reps), np.empty(reps), np.empty(reps)
    flags = 0
    for rep in range(reps):
        center, flagged, dists = replicate(model, signal, params, spec.center_rule, spec.inner_mc, ss, rep)
        flags += flagged
        gaps[rep] = np.linalg.norm(theta0 - center)
        radii[rep] = radius_from_distances(dists, spec.kappa).value
        smalls[rep] = np.mean(dists <= _DUALITY_DELTA * rate)
    return signal, ebr_check(signal, model, spec.tau_ebr), rate, gaps, radii, smalls, flags


def _cell_coverage_pilot(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    """Pilot quantiles used to calibrate the inflation C and size threshold c."""
    signal, ebr, rate, gaps, radii, _, flags = _coverage_reps(spec, cell_idx, sig_idx, eps, pilot=True)
    miss_ratios = np.divide(gaps, radii, out=np.full(len(gaps), math.inf), where=radii > 0)
    summary = {
        "ebr_member": ebr.member,
        "ebr_ratio": ebr.ratio,
        "q98_miss_ratio": float(np.quantile(miss_ratios, 0.98)),
        "q99_size_ratio": float(np.quantile(radii / rate, 0.99)),
        "center_flags": flags,
    }
    return (signal.kind, dict(signal.params)), [], summary


def _cell_coverage_main(
    spec: ExperimentSpec,
    cell_idx: int,
    sig_idx: int,
    eps: float,
    inflation: float,
    c_list: tuple,
):
    signal, ebr, rate, gaps, radii, smalls, flags = _coverage_reps(spec, cell_idx, sig_idx, eps, pilot=False)

    def _freq_se(hits: np.ndarray) -> tuple[float, float]:
        f = float(hits.mean())
        return f, math.sqrt(f * (1.0 - f) / len(hits))

    coverage, cov_se = _freq_se(gaps <= inflation * radii)
    phi2_hat, phi2_se = _freq_se(gaps >= inflation * _DUALITY_DELTA * rate)
    psi_hat = float(smalls.mean())
    psi_se = float(smalls.std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0
    miss_bound = phi2_hat + psi_hat / (1.0 - spec.kappa)
    bound_se = phi2_se + psi_se / (1.0 - spec.kappa)
    duality_ok = bool((1.0 - coverage) <= miss_bound + 3.0 * (cov_se + bound_se))

    stats = [
        ("coverage", repr(float(inflation)), coverage, cov_se),
        ("miss-phi2", repr(float(inflation * _DUALITY_DELTA)), phi2_hat, phi2_se),
        ("psi", repr(_DUALITY_DELTA), psi_hat, psi_se),
        ("radius-mean", "mean", float(radii.mean()), float(radii.std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0),
    ]
    size_freqs = {}
    for c in c_list:
        f, se = _freq_se(radii >= c * rate)
        size_freqs[repr(float(c))] = [f, se]
        stats.append(("size", repr(float(c)), f, se))
    summary = {
        "signal_kind": signal.kind,
        "ebr_member": ebr.member,
        "ebr_ratio": ebr.ratio,
        "coverage": coverage,
        "coverage_se": cov_se,
        "size_freqs": size_freqs,
        "phi2_hat": phi2_hat,
        "psi_hat": psi_hat,
        "miss_bound": miss_bound,
        "duality_ok": duality_ok,
        "oracle_rate": rate,
        "radius_mean": float(radii.mean()),
        "center_flags": flags,
    }
    return (signal.kind, dict(signal.params)), stats, summary


def _cell_overshrinkage(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    theta0 = signal.padded(spec.n_trunc)
    i_bar = surrogate_oracle(signal, model).i_bar
    head = slice(0, i_bar)
    live = np.abs(theta0[head]) > 0
    if not np.any(live):
        raise ValueError(
            "overshrinkage cell needs a signal with nonzero coordinates up to "
            f"the surrogate index {i_bar}"
        )
    t_head = theta0[head][live]
    L = params.L

    rel = np.empty((spec.reps, 4))  # mix-vs-truth, shr-vs-L*truth, mix-vs-L*truth, shr-vs-truth
    for rep in range(spec.reps):
        data = simulate(model, signal, _seq_int(_cell_seq(spec, cell_idx, rep, 0)))
        mix = posterior_mean(data, mixture_weights(data, params))[head][live]
        shr = shrunk_full_bayes(data, params).mean()[head][live]
        rel[rep, 0] = np.max(np.abs(mix - t_head) / np.abs(t_head))
        rel[rep, 1] = np.max(np.abs(shr - L * t_head) / np.abs(L * t_head))
        rel[rep, 2] = np.max(np.abs(mix - L * t_head) / np.abs(L * t_head))
        rel[rep, 3] = np.max(np.abs(shr - t_head) / np.abs(t_head))

    labels = ("mixture-vs-truth", "shrunk-vs-shrunk-target", "mixture-vs-shrunk-target", "shrunk-vs-truth")
    stats = []
    for k, lab in enumerate(labels):
        se = float(rel[:, k].std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0
        stats += [("max-rel-gap", lab, float(rel[:, k].max()), 0.0), ("mean-rel-gap", lab, float(rel[:, k].mean()), se)]
    summary = {
        "i_bar": i_bar,
        "L": L,
        "max_rel": {lab: float(rel[:, k].max()) for k, lab in enumerate(labels)},
        "mean_rel": {lab: float(rel[:, k].mean()) for k, lab in enumerate(labels)},
    }
    return (signal.kind, dict(signal.params)), stats, summary


def _cell_scale_adaptation(spec: ExperimentSpec, cell_idx: int, scale_idx: int, eps: float):
    desc = spec.scales[scale_idx]
    name = desc["name"]
    sparams = dict(desc.get("params", {}))
    model = make_model(eps, spec.p, spec.n_trunc)
    cls = scale_class(name, sparams, spec.n_trunc)
    report = covers_check(cls, model, n_samples=spec.n_cover_samples, seed=_cell_seq(spec, cell_idx, 0))
    stats = [
        ("worst-ratio", "ratio", report.worst_ratio, 0.0),
        ("threshold", "threshold", report.threshold, 0.0),
        ("rate-sq", "r2", report.rate_sq, 0.0),
        ("lambda-margin", "min-margin", report.lambda_worst_margin, 0.0),
    ]
    summary = {
        "worst_ratio": report.worst_ratio,
        "worst_sample": report.worst_sample,
        "threshold": report.threshold,
        "passed": report.passed,
        "lambda_all_hold": report.lambda_all_hold,
        "lambda_worst_margin": report.lambda_worst_margin,
    }
    return (name, sparams), stats, summary


# ---------------------------------------------------------------------------
# per-kind summaries.  Each adds its keys to the report summary from the
# successful cell summaries and returns the checks acceptance_ok needs

def _summarize_contraction(s: dict, cells: list) -> list:
    s["all_nonincreasing"] = bool(all(c["nonincreasing"] for c in cells)) if cells else False
    s["all_halving"] = bool(all(c["halving_ok"] for c in cells)) if cells else False
    return [s["all_nonincreasing"], s["all_halving"]]


def _summarize_oracle_inequality(s: dict, cells: list) -> list:
    ratios = [c["ratio"] for c in cells]
    pilot_max = max((c["pilot_ratio"] for c in cells), default=math.nan)
    bound = 1.25 * pilot_max if not math.isnan(pilot_max) else math.nan
    slopes = {}
    by_sig: dict = {}
    for c in cells:
        by_sig.setdefault(c["signal"], []).append((c["epsilon"], c["ratio"]))
    for sig, pts in by_sig.items():
        if len(pts) >= 2 and all(r > 0 for _, r in pts):
            e, r = zip(*sorted(pts))
            slopes[sig] = float(np.polyfit(np.log(e), np.log(r), 1)[0])
        else:
            slopes[sig] = math.nan
    s["max_ratio"] = max(ratios, default=math.nan)
    s["pilot_max_ratio"] = pilot_max
    s["ratio_bound"] = bound
    s["within_bound"] = bool(ratios and not math.isnan(bound) and max(ratios) <= bound)
    s["slopes"] = slopes
    s["slopes_ok"] = bool(slopes and all(abs(v) <= 0.15 for v in slopes.values() if not math.isnan(v)))
    return [s["within_bound"], s["slopes_ok"]]


def _summarize_small_ball(s: dict, cells: list) -> list:
    s["all_envelope_ok"] = bool(all(c["envelope_ok"] for c in cells)) if cells else False
    return [s["all_envelope_ok"]]


def _summarize_coverage_size(s: dict, cells: list) -> list:
    member = [c for c in cells if c["ebr_member"]]
    deceptive = [c for c in cells if c["signal_kind"] == "deceptive"]
    s["min_ebr_coverage"] = min((c["coverage"] for c in member), default=math.nan)
    c_star = s.get("size_c")
    key = repr(float(c_star)) if c_star is not None else None
    size_vals = [c["size_freqs"][key][0] for c in cells if key in c["size_freqs"]]
    s["max_size_freq"] = max(size_vals, default=math.nan)
    s["coverage_ok"] = bool(member and s["min_ebr_coverage"] >= 0.90)
    s["size_ok"] = bool(size_vals and s["max_size_freq"] <= 0.05)
    if deceptive and member:
        worst_dec = max(deceptive, key=lambda c: c["coverage"])
        edge = min(member, key=lambda c: c["coverage"])
        sep = edge["coverage"] - worst_dec["coverage"] - 3.0 * (edge["coverage_se"] + worst_dec["coverage_se"])
        s["deceptive_max_coverage"] = worst_dec["coverage"]
        s["deceptive_separated"] = bool(sep > 0)
    else:
        s["deceptive_separated"] = None
    s["duality_ok"] = bool(all(c["duality_ok"] for c in cells)) if cells else False
    parts = [s["coverage_ok"], s["size_ok"]]
    if s["deceptive_separated"] is not None:
        parts.append(s["deceptive_separated"])
    return parts


def _summarize_overshrinkage(s: dict, cells: list) -> list:
    tol = 0.01
    ok = bool(
        cells
        and all(
            c["max_rel"]["mixture-vs-truth"] <= tol and c["max_rel"]["shrunk-vs-shrunk-target"] <= tol
            for c in cells
        )
    )
    gap = min(
        (
            min(c["mean_rel"]["mixture-vs-shrunk-target"], c["mean_rel"]["shrunk-vs-truth"])
            for c in cells
        ),
        default=math.nan,
    )
    s["tracking_ok"] = ok
    s["min_cross_gap"] = gap
    s["cross_gap_large"] = bool(not math.isnan(gap) and gap > 10 * tol)
    return [ok, s["cross_gap_large"]]


def _summarize_scale_adaptation(s: dict, cells: list) -> list:
    s["all_passed"] = bool(all(c["passed"] for c in cells)) if cells else False
    s["all_lambda_hold"] = bool(all(c["lambda_all_hold"] for c in cells)) if cells else False
    return [s["all_passed"], s["all_lambda_hold"]]


# ---------------------------------------------------------------------------
# the kind table

class _Kind(NamedTuple):
    """default_spec's fields besides the kind, the body run once per
    (entry, eps) cell, and the summary over the successful cells."""

    defaults: dict
    cell: Callable
    summarize: Callable


_KINDS = {
    "contraction": _Kind(
        dict(signals=({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},), eps_grid=(0.05,)),
        _cell_contraction, _summarize_contraction),
    "oracle-inequality": _Kind(
        dict(signals=_RATE_SIGNALS, eps_grid=(0.1, 0.05, 0.02, 0.01)),
        _cell_oracle_inequality, _summarize_oracle_inequality),
    "small-ball": _Kind(
        dict(signals=({"kind": "zero", "params": {}},), eps_grid=(0.05,)),
        _cell_small_ball, _summarize_small_ball),
    "coverage-size": _Kind(
        dict(signals=_COVERAGE_SIGNALS, eps_grid=(0.1,)),
        _cell_coverage_main, _summarize_coverage_size),
    "overshrinkage": _Kind(
        dict(signals=({"kind": "parametric", "params": {"N0": 3, "Q": 4.0}},), eps_grid=(0.001,), reps=50),
        _cell_overshrinkage, _summarize_overshrinkage),
    "scale-adaptation": _Kind(
        dict(scales=_STANDARD_SCALES, eps_grid=(0.1, 0.05)),
        _cell_scale_adaptation, _summarize_scale_adaptation),
}

EXPERIMENT_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# worker + driver

def _cell_worker(job):
    """Run one cell body, pilot or main, and write its statistics as CSV rows
    under the cell seed; a failing cell returns its traceback instead."""
    spec, cell_idx, (i, j), body, extra = job
    eps = spec.eps_grid[j]
    try:
        (name, params), stats, summary = body(spec, cell_idx, i, eps, *extra)
        seed = _seq_int(_cell_seq(spec, cell_idx))
        rows = [_row(f"{spec.kind}:{suffix}", name, params, eps, grid, stat, se, seed)
                for suffix, grid, stat, se in stats]
    except Exception:
        return cell_idx, None, traceback.format_exc()
    label = "scale" if spec.kind == "scale-adaptation" else "signal"
    return cell_idx, (rows, {label: f"{name}{_params_str(params)}", "epsilon": eps, **summary}), None


def _resolve_workers(spec: ExperimentSpec) -> int:
    if spec.workers > 0:
        return spec.workers
    env = os.environ.get("DDM_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def _map_cells(jobs, n_workers: int):
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(_cell_worker, jobs))
    return [_cell_worker(j) for j in jobs]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every cell of the spec and assemble rows, summary, and outputs.

    A failing cell is recorded in summary["failed_cells"] with its traceback
    and contributes a single error row; other cells are unaffected.
    """
    t0 = time.monotonic()
    entries = spec.scales if spec.kind == "scale-adaptation" else spec.signals
    coords = [(i, j) for i in range(len(entries)) for j in range(len(spec.eps_grid))]
    n_workers = _resolve_workers(spec)
    report = ExperimentReport(spec=spec)
    failed: list = []

    extra = ()
    if spec.kind == "coverage-size":
        inflation, c_star, pilot_cells = _calibrate_coverage(spec, coords, n_workers, failed)
        extra = (inflation, tuple(sorted(set(map(float, spec.size_c_grid)) | {c_star})))
        report.summary["inflation_C"] = inflation
        report.summary["size_c"] = c_star
        report.summary["pilot_cells"] = pilot_cells
        report.summary["pilot_reps"] = spec.pilot_reps

    jobs = [(spec, idx, coord, _KINDS[spec.kind].cell, extra) for idx, coord in enumerate(coords)]
    outcomes = _map_cells(jobs, n_workers)

    cell_summaries: list = []
    for cell_idx, payload, err in outcomes:
        coord = coords[cell_idx]
        eps = spec.eps_grid[coord[1]]
        if err is not None:
            desc = entries[coord[0]]
            tag = desc.get("name") or desc.get("kind") or "?"
            report.cells.append(
                _row(f"{spec.kind}:error", str(tag), dict(desc.get("params", {})), eps, "error", math.nan, math.nan, 0)
            )
            failed.append({"cell": cell_idx, "coord": list(coord), "error": err})
            cell_summaries.append({"cell": cell_idx, "failed": True})
            continue
        rows, cell_summary = payload
        report.cells.extend(rows)
        cell_summary["cell"] = cell_idx
        cell_summaries.append(cell_summary)

    report.summary["cells"] = cell_summaries
    report.summary["failed_cells"] = failed
    ok_cells = [c for c in cell_summaries if not c.get("failed")]
    checks = _KINDS[spec.kind].summarize(report.summary, ok_cells)
    report.summary["acceptance_ok"] = bool(all(checks) and not failed)

    report.runtime = {
        "wall_seconds": time.monotonic() - t0,
        "workers": n_workers,
        "n_cells": len(coords),
    }

    if spec.out_dir is not None:
        paths = _persist(report)
        report.runtime["paths"] = {k: str(v) for k, v in paths.items()}
    return report


def _calibrate_coverage(spec, coords, n_workers, failed):
    """Pilot pass: data-driven inflation and size threshold, unless pinned."""
    need_c = spec.coverage_inflation is None
    need_s = spec.size_threshold is None
    pilot_cells: list = []
    if need_c or need_s:
        jobs = [(spec, idx, coord, _cell_coverage_pilot, ()) for idx, coord in enumerate(coords)]
        for cell_idx, payload, err in _map_cells(jobs, n_workers):
            if err is not None:
                failed.append({"cell": cell_idx, "phase": "pilot", "error": err})
                continue
            _, summary = payload
            summary["cell"] = cell_idx
            pilot_cells.append(summary)
    inflation = spec.coverage_inflation
    if need_c:
        member = [c["q98_miss_ratio"] for c in pilot_cells if c["ebr_member"]]
        if not member:
            raise ValueError("coverage calibration needs at least one EBR-member cell")
        inflation = 1.1 * max(member)
    c_star = spec.size_threshold
    if need_s:
        if not pilot_cells:
            raise ValueError("size calibration needs at least one successful pilot cell")
        c_star = 1.25 * max(c["q99_size_ratio"] for c in pilot_cells)
    return float(inflation), float(c_star), pilot_cells


# ---------------------------------------------------------------------------
# persistence

def write_report(report: ExperimentReport, format: str = "json", path: str | Path = None) -> Path:
    """Serialize a report; CSV writes the cell rows, JSON the whole report."""
    if path is None:
        raise ValueError("path is required")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if format == "json":
        path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    elif format == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
            writer.writeheader()
            for row in report.cells:
                out = dict(row)
                for col in ("epsilon", "statistic", "std_error"):
                    out[col] = repr(float(out[col]))
                writer.writerow(out)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    return path


def read_report(path: str | Path) -> ExperimentReport:
    return ExperimentReport.from_dict(json.loads(Path(path).read_text()))


def emit_plot_data(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Plain-text plot files, one per cell group: a comment header followed
    by whitespace-separated (grid, statistic, std_error) columns."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    groups: dict = {}
    for row in report.cells:
        key = (row["kind"], row["signal_kind"], row["signal_params"], row["epsilon"])
        groups.setdefault(key, []).append(row)
    paths = []
    for g_idx, (key, rows) in enumerate(groups.items()):
        kind, signal_kind, signal_params, eps = key
        stem = kind.replace(":", "-")
        path = out_dir / f"{stem}-{g_idx:03d}.dat"
        lines = [
            f"# kind: {kind}",
            f"# signal: {signal_kind} {signal_params}",
            f"# epsilon: {eps!r}",
            "# columns: grid_value statistic std_error",
        ]
        for row in rows:
            lines.append(f"{row['grid_value']} {row['statistic']!r} {row['std_error']!r}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


def _persist(report: ExperimentReport) -> dict:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S-%f")
    run_dir = Path(report.spec.out_dir) / report.spec.kind / stamp
    run_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "run_dir": run_dir,
        "report": write_report(report, "json", run_dir / "report.json"),
        "cells": write_report(report, "csv", run_dir / "cells.csv"),
    }
    paths["plots"] = [str(p) for p in emit_plot_data(report, run_dir / "plots")]
    return paths
