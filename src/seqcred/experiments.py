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

EXPERIMENT_KINDS = (
    "contraction",
    "oracle-inequality",
    "small-ball",
    "coverage-size",
    "overshrinkage",
    "scale-adaptation",
)

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
    mc_samples: int = 2000
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
        if self.kind == "scale-adaptation":
            if not self.scales:
                raise ValueError("scale-adaptation needs a nonempty scales tuple")
        elif not self.signals:
            raise ValueError(f"{self.kind} needs a nonempty signals tuple")
        if not self.eps_grid:
            raise ValueError("eps_grid must be nonempty")
        if any(e <= 0 for e in self.eps_grid):
            raise ValueError("all eps values must be positive")
        if self.reps < 1 or self.inner_mc < 1 or self.mc_samples < 1 or self.pilot_reps < 1:
            raise ValueError("reps, inner_mc, mc_samples and pilot_reps must be positive")
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        if self.center_rule not in CENTER_RULES:
            raise ValueError(f"center_rule must be one of {CENTER_RULES}, got {self.center_rule!r}")
        if not self.p >= 0:
            raise ValueError(f"p must be nonnegative, got {self.p}")
        if isinstance(self.n_trunc, bool) or not isinstance(self.n_trunc, int) or self.n_trunc < 1:
            raise ValueError(f"n_trunc must be a positive int, got {self.n_trunc!r}")
        if self.workers < 0:
            raise ValueError(f"workers must be nonnegative, got {self.workers}")
        for desc in self.signals:
            if not (isinstance(desc, dict) and desc.get("kind") in SIGNAL_KINDS):
                raise ValueError(f"each signal needs a kind in {SIGNAL_KINDS}, got {desc!r}")

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
    base: dict
    if kind == "contraction":
        base = dict(
            kind=kind,
            signals=({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},),
            eps_grid=(0.05,),
        )
    elif kind == "oracle-inequality":
        base = dict(kind=kind, signals=_RATE_SIGNALS, eps_grid=(0.1, 0.05, 0.02, 0.01))
    elif kind == "small-ball":
        base = dict(kind=kind, signals=({"kind": "zero", "params": {}},), eps_grid=(0.05,))
    elif kind == "coverage-size":
        base = dict(kind=kind, signals=_COVERAGE_SIGNALS, eps_grid=(0.1,))
    elif kind == "overshrinkage":
        base = dict(
            kind=kind,
            signals=({"kind": "parametric", "params": {"N0": 3, "Q": 4.0}},),
            eps_grid=(0.001,),
            reps=50,
        )
    elif kind == "scale-adaptation":
        base = dict(kind=kind, scales=_STANDARD_SCALES, eps_grid=(0.1, 0.05))
    else:
        raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# seeding helpers

def _cell_seq(spec: ExperimentSpec, cell_idx: int, *extra: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(spec.master_seed, spawn_key=(cell_idx,) + tuple(extra))


def _seq_int(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1, np.uint64)[0])


# ---------------------------------------------------------------------------
# cell plumbing

def _signal_cells(spec: ExperimentSpec) -> list:
    if spec.kind == "scale-adaptation":
        return [(i, j) for i in range(len(spec.scales)) for j in range(len(spec.eps_grid))]
    return [(i, j) for i in range(len(spec.signals)) for j in range(len(spec.eps_grid))]


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


def _signal_label(signal: Signal) -> str:
    return f"{signal.kind}{_params_str(dict(signal.params))}"


# ---------------------------------------------------------------------------
# per-kind cell bodies; each returns (rows, cell_summary)

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
    seed = _seq_int(_cell_seq(spec, cell_idx))
    rows = [
        _row(
            "contraction:phi1",
            signal.kind,
            dict(signal.params),
            eps,
            repr(float(e.argument)),
            e.value,
            e.std_error,
            seed,
        )
        for e in ests
    ]
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
        "signal": _signal_label(signal),
        "epsilon": eps,
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
    return rows, summary


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

    seed = _seq_int(_cell_seq(spec, cell_idx))
    rows = [
        _row("oracle-inequality:risk-ratio", signal.kind, dict(signal.params), eps, "ratio", ratio, se, seed),
        _row("oracle-inequality:oracle-rate-sq", signal.kind, dict(signal.params), eps, "r2", r2, 0.0, seed),
    ]
    summary = {
        "signal": _signal_label(signal),
        "epsilon": eps,
        "ratio": ratio,
        "std_error": se,
        "pilot_ratio": pilot_ratio,
        "oracle_rate_sq": r2,
        "oracle_index": oracle(signal, model).i_star,
    }
    return rows, summary


def _cell_small_ball(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    seed = _seq_int(_cell_seq(spec, cell_idx))
    rows = []
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
        for e in ests:
            rows.append(
                _row(
                    f"small-ball:psi:{scaling}",
                    signal.kind,
                    dict(signal.params),
                    eps,
                    repr(float(e.argument)),
                    e.value,
                    e.std_error,
                    seed,
                )
            )
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
        "signal": _signal_label(signal),
        "epsilon": eps,
        "scalings": per_scaling,
        "envelope_ok": bool(all(v["envelope_ok"] for v in per_scaling.values())),
    }
    return rows, summary


def _coverage_reps(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float, pilot: bool):
    """Replications of one coverage cell; the pilot pass has its own seed
    namespace.  Returns (signal, EBR check, oracle rate, center gaps,
    radius-hats, inner small-ball masses at _DUALITY_DELTA times the rate)."""
    signal = _build_signal(spec, sig_idx, eps)
    model, params = _model_and_params(spec, eps)
    theta0 = signal.padded(spec.n_trunc)
    rate = oracle(signal, model).rate
    if pilot:
        ss, reps = np.random.SeedSequence(spec.master_seed, spawn_key=(_PILOT_KEY, cell_idx)), spec.pilot_reps
    else:
        ss, reps = _cell_seq(spec, cell_idx), spec.reps
    gaps, radii, smalls = np.empty(reps), np.empty(reps), np.empty(reps)
    for rep in range(reps):
        center, _, dists = replicate(model, signal, params, spec.center_rule, spec.mc_samples, ss, rep)
        gaps[rep] = np.linalg.norm(theta0 - center)
        radii[rep] = radius_from_distances(dists, spec.kappa).value
        smalls[rep] = np.mean(dists <= _DUALITY_DELTA * rate)
    return signal, ebr_check(signal, model, spec.tau_ebr), rate, gaps, radii, smalls


def _cell_coverage_pilot(spec: ExperimentSpec, cell_idx: int, sig_idx: int, eps: float):
    """Pilot quantiles used to calibrate the inflation C and size threshold c."""
    signal, ebr, rate, gaps, radii, _ = _coverage_reps(spec, cell_idx, sig_idx, eps, pilot=True)
    miss_ratios = np.divide(gaps, radii, out=np.full(len(gaps), math.inf), where=radii > 0)
    return {
        "signal": _signal_label(signal),
        "epsilon": eps,
        "ebr_member": ebr.member,
        "ebr_ratio": ebr.ratio,
        "q98_miss_ratio": float(np.quantile(miss_ratios, 0.98)),
        "q99_size_ratio": float(np.quantile(radii / rate, 0.99)),
    }


def _cell_coverage_main(
    spec: ExperimentSpec,
    cell_idx: int,
    sig_idx: int,
    eps: float,
    inflation: float,
    c_list: tuple,
):
    signal, ebr, rate, gaps, radii, smalls = _coverage_reps(spec, cell_idx, sig_idx, eps, pilot=False)

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

    seed = _seq_int(_cell_seq(spec, cell_idx))
    sp = dict(signal.params)
    rows = [
        _row("coverage-size:coverage", signal.kind, sp, eps, repr(float(inflation)), coverage, cov_se, seed),
        _row("coverage-size:miss-phi2", signal.kind, sp, eps, repr(float(inflation * _DUALITY_DELTA)), phi2_hat, phi2_se, seed),
        _row("coverage-size:psi", signal.kind, sp, eps, repr(_DUALITY_DELTA), psi_hat, psi_se, seed),
        _row("coverage-size:radius-mean", signal.kind, sp, eps, "mean", float(radii.mean()), float(radii.std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0, seed),
    ]
    size_freqs = {}
    for c in c_list:
        f, se = _freq_se(radii >= c * rate)
        size_freqs[repr(float(c))] = [f, se]
        rows.append(_row("coverage-size:size", signal.kind, sp, eps, repr(float(c)), f, se, seed))
    summary = {
        "signal": _signal_label(signal),
        "signal_kind": signal.kind,
        "epsilon": eps,
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
    }
    return rows, summary


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
    seed = _seq_int(_cell_seq(spec, cell_idx))
    rows = []
    sp = dict(signal.params)
    for k, lab in enumerate(labels):
        rows.append(_row("overshrinkage:max-rel-gap", signal.kind, sp, eps, lab, float(rel[:, k].max()), 0.0, seed))
        rows.append(
            _row(
                "overshrinkage:mean-rel-gap",
                signal.kind,
                sp,
                eps,
                lab,
                float(rel[:, k].mean()),
                float(rel[:, k].std(ddof=1) / math.sqrt(spec.reps)) if spec.reps > 1 else 0.0,
                seed,
            )
        )
    summary = {
        "signal": _signal_label(signal),
        "epsilon": eps,
        "i_bar": i_bar,
        "L": L,
        "max_rel": {lab: float(rel[:, k].max()) for k, lab in enumerate(labels)},
        "mean_rel": {lab: float(rel[:, k].mean()) for k, lab in enumerate(labels)},
    }
    return rows, summary


def _cell_scale_adaptation(spec: ExperimentSpec, cell_idx: int, scale_idx: int, eps: float):
    desc = spec.scales[scale_idx]
    name = desc["name"]
    sparams = dict(desc.get("params", {}))
    model = make_model(eps, spec.p, spec.n_trunc)
    cls = scale_class(name, sparams, spec.n_trunc)
    seed = _seq_int(_cell_seq(spec, cell_idx))
    report = covers_check(cls, model, n_samples=spec.n_cover_samples, seed=_cell_seq(spec, cell_idx, 0))
    rows = [
        _row("scale-adaptation:worst-ratio", name, sparams, eps, "ratio", report.worst_ratio, 0.0, seed),
        _row("scale-adaptation:threshold", name, sparams, eps, "threshold", report.threshold, 0.0, seed),
        _row("scale-adaptation:rate-sq", name, sparams, eps, "r2", report.rate_sq, 0.0, seed),
        _row(
            "scale-adaptation:lambda-margin",
            name,
            sparams,
            eps,
            "min-margin",
            report.lambda_worst_margin,
            0.0,
            seed,
        ),
    ]
    summary = {
        "scale": f"{name}{_params_str(sparams)}",
        "epsilon": eps,
        "worst_ratio": report.worst_ratio,
        "worst_sample": report.worst_sample,
        "threshold": report.threshold,
        "passed": report.passed,
        "lambda_all_hold": report.lambda_all_hold,
        "lambda_worst_margin": report.lambda_worst_margin,
    }
    return rows, summary


# ---------------------------------------------------------------------------
# worker + driver

def _cell_worker(args):
    spec, cell_idx, coord, extra = args
    i, j = coord
    eps = spec.eps_grid[j]
    try:
        if spec.kind == "contraction":
            return cell_idx, _cell_contraction(spec, cell_idx, i, eps), None
        if spec.kind == "oracle-inequality":
            return cell_idx, _cell_oracle_inequality(spec, cell_idx, i, eps), None
        if spec.kind == "small-ball":
            return cell_idx, _cell_small_ball(spec, cell_idx, i, eps), None
        if spec.kind == "coverage-size":
            inflation, c_list = extra
            return cell_idx, _cell_coverage_main(spec, cell_idx, i, eps, inflation, c_list), None
        if spec.kind == "overshrinkage":
            return cell_idx, _cell_overshrinkage(spec, cell_idx, i, eps), None
        if spec.kind == "scale-adaptation":
            return cell_idx, _cell_scale_adaptation(spec, cell_idx, i, eps), None
        raise ValueError(f"unhandled kind {spec.kind!r}")
    except Exception:
        return cell_idx, None, traceback.format_exc()


def _pilot_worker(args):
    spec, cell_idx, coord = args
    i, j = coord
    try:
        return cell_idx, _cell_coverage_pilot(spec, cell_idx, i, spec.eps_grid[j]), None
    except Exception:
        return cell_idx, None, traceback.format_exc()


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


def _map_cells(worker, jobs, n_workers: int):
    if n_workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(worker, jobs))
    return [worker(j) for j in jobs]


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every cell of the spec and assemble rows, summary, and outputs.

    A failing cell is recorded in summary["failed_cells"] with its traceback
    and contributes a single error row; other cells are unaffected.
    """
    t0 = time.monotonic()
    coords = _signal_cells(spec)
    n_workers = _resolve_workers(spec)
    report = ExperimentReport(spec=spec)
    failed: list = []

    extra = None
    if spec.kind == "coverage-size":
        inflation, c_star, pilot_cells = _calibrate_coverage(spec, coords, n_workers, failed)
        c_list = tuple(sorted(set(map(float, spec.size_c_grid)) | {c_star}))
        extra = (inflation, c_list)
        report.summary["inflation_C"] = inflation
        report.summary["size_c"] = c_star
        report.summary["pilot_cells"] = pilot_cells
        report.summary["pilot_reps"] = spec.pilot_reps

    jobs = [(spec, idx, coord, extra) for idx, coord in enumerate(coords)]
    outcomes = _map_cells(_cell_worker, jobs, n_workers)

    cell_summaries: list = []
    for cell_idx, payload, err in outcomes:
        coord = coords[cell_idx]
        eps = spec.eps_grid[coord[1]]
        if err is not None:
            desc = spec.scales[coord[0]] if spec.kind == "scale-adaptation" else spec.signals[coord[0]]
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
    _summarize(spec, report, cell_summaries)

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
        jobs = [(spec, idx, coord) for idx, coord in enumerate(coords)]
        for cell_idx, payload, err in _map_cells(_pilot_worker, jobs, n_workers):
            if err is not None:
                failed.append({"cell": cell_idx, "phase": "pilot", "error": err})
                continue
            payload["cell"] = cell_idx
            pilot_cells.append(payload)
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


def _summarize(spec: ExperimentSpec, report: ExperimentReport, cells: list) -> None:
    ok_cells = [c for c in cells if not c.get("failed")]
    s = report.summary
    if spec.kind == "contraction":
        s["all_nonincreasing"] = bool(all(c["nonincreasing"] for c in ok_cells)) if ok_cells else False
        s["all_halving"] = bool(all(c["halving_ok"] for c in ok_cells)) if ok_cells else False
        s["acceptance_ok"] = bool(s["all_nonincreasing"] and s["all_halving"] and not report.summary["failed_cells"])
    elif spec.kind == "oracle-inequality":
        ratios = [c["ratio"] for c in ok_cells]
        pilot_max = max((c["pilot_ratio"] for c in ok_cells), default=math.nan)
        bound = 1.25 * pilot_max if not math.isnan(pilot_max) else math.nan
        slopes = {}
        by_sig: dict = {}
        for c in ok_cells:
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
        s["acceptance_ok"] = bool(s["within_bound"] and s["slopes_ok"] and not s["failed_cells"])
    elif spec.kind == "small-ball":
        s["all_envelope_ok"] = bool(all(c["envelope_ok"] for c in ok_cells)) if ok_cells else False
        s["acceptance_ok"] = bool(s["all_envelope_ok"] and not s["failed_cells"])
    elif spec.kind == "coverage-size":
        member = [c for c in ok_cells if c["ebr_member"]]
        deceptive = [c for c in ok_cells if c["signal_kind"] == "deceptive"]
        s["min_ebr_coverage"] = min((c["coverage"] for c in member), default=math.nan)
        c_star = s.get("size_c")
        key = repr(float(c_star)) if c_star is not None else None
        size_vals = [c["size_freqs"][key][0] for c in ok_cells if key in c["size_freqs"]]
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
        s["duality_ok"] = bool(all(c["duality_ok"] for c in ok_cells)) if ok_cells else False
        parts = [s["coverage_ok"], s["size_ok"]]
        if s["deceptive_separated"] is not None:
            parts.append(s["deceptive_separated"])
        s["acceptance_ok"] = bool(all(parts) and not s["failed_cells"])
    elif spec.kind == "overshrinkage":
        tol = 0.01
        ok = bool(
            ok_cells
            and all(
                c["max_rel"]["mixture-vs-truth"] <= tol and c["max_rel"]["shrunk-vs-shrunk-target"] <= tol
                for c in ok_cells
            )
        )
        gap = min(
            (
                min(c["mean_rel"]["mixture-vs-shrunk-target"], c["mean_rel"]["shrunk-vs-truth"])
                for c in ok_cells
            ),
            default=math.nan,
        )
        s["tracking_ok"] = ok
        s["min_cross_gap"] = gap
        s["cross_gap_large"] = bool(not math.isnan(gap) and gap > 10 * tol)
        s["acceptance_ok"] = bool(ok and s["cross_gap_large"] and not s["failed_cells"])
    elif spec.kind == "scale-adaptation":
        s["all_passed"] = bool(all(c["passed"] for c in ok_cells)) if ok_cells else False
        s["all_lambda_hold"] = bool(all(c["lambda_all_hold"] for c in ok_cells)) if ok_cells else False
        s["acceptance_ok"] = bool(s["all_passed"] and s["all_lambda_hold"] and not s["failed_cells"])


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
