"""Seeded Monte-Carlo experiment harness.

Six experiment kinds, all driven by one frozen spec:

* ``contraction``      -- size-condition curves phi1(M) over an M grid
* ``oracle-inequality``-- posterior-mean risk against the oracle rate
* ``small-ball``       -- psi(delta) curves under both yardsticks
* ``coverage-size``    -- coverage and radius-size frequencies of the
                          inflated default ball, with pilot calibration
* ``overshrinkage``    -- mixture vs. zero-centered full-Bayes means
* ``scale-adaptation`` -- covers_check over the standard smoothness scales

Every replication seeds from a stream of master_seed listed in the table of
:mod:`seqcred.streams`, so a rerun of the same spec reproduces every cell
byte for byte; wall-clock time appears only in the report metadata and in
output directory names.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import json
import math
import os
import time
import traceback
from collections.abc import Iterable, Mapping
from concurrent import futures
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .credible import radius_from_distances
from .diagnostics import CONDITIONS, check_estimator_args, estimate_phi1, estimate_psi, mean_and_se, replicate
from .model import Signal, _json_object, generate_signal, make_model
from .oracle import covers_check, ebr_check, oracle, scale_class, surrogate_oracle
from .posterior import DdmParams, make_posterior, mixture_weights, posterior_mean
from .streams import PILOT_KEY, SIGNAL_KEY, data_set, seed_int, stream

__all__ = [
    "EXPERIMENT_KINDS",
    "ExperimentSpec",
    "ExperimentReport",
    "default_spec",
    "run_experiment",
    "write_report",
    "read_report",
]


def _params_str(params: dict) -> str:
    return json.dumps(params, sort_keys=True, separators=(",", ":"))


#: the CSV columns, in order, each with the conversion _row gives its value
_COLUMNS = {
    "kind": str,
    "signal_kind": str,
    "signal_params": _params_str,
    "epsilon": float,
    "grid_value": str,
    "statistic": float,
    "std_error": float,
    "seed": int,
}
CSV_COLUMNS = tuple(_COLUMNS)

#: delta at which the in-cell miss/size duality is tabulated
_DUALITY_DELTA = 0.5


def _is_real(value) -> bool:
    """JSON-serializable numbers only; bool is an int subclass but no number here."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: the check of each ExperimentSpec field annotation and its error; a tuple
#: field is first read from any list
_FIELD_CHECKS = {
    "str": (lambda v: isinstance(v, str), "{name} must be a string, got {value!r}"),
    "str | None": (lambda v: v is None or isinstance(v, (str, os.PathLike)),
                   "{name} must be a path string or null, got {value!r}"),
    "int": (lambda v: _is_real(v) and isinstance(v, int), "{name} must be an int, got {value!r}"),
    "float": (_is_real, "{name} must be a number, got {value!r}"),
    "float | None": (lambda v: v is None or _is_real(v), "{name} must be a number, got {value!r}"),
    "tuple[float, ...]": (lambda v: all(map(_is_real, v)), "{name} must hold numbers only, got {value!r}"),
    "tuple[dict, ...]": (lambda v: all(isinstance(d, dict) for d in v), "each {entry} must be a dict, got {value!r}"),
}


def _require_positive(name: str, value) -> None:
    """Every value > 0, which NaN fails; None is an unset threshold, calibrated later."""
    if value is not None and not np.all(np.asarray(value, dtype=float) > 0):
        raise ValueError(f"{name} must be positive, got {value!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Complete, serializable description of one experiment run."""

    kind: str
    signals: tuple[dict, ...] = ()
    eps_grid: tuple[float, ...] = (0.1,)
    p: float = 0.0
    n_trunc: int = 1024
    K: float = DdmParams.K
    alpha: float = DdmParams.alpha
    kappa: float = 0.5
    tau_ebr: float = 2.0
    m_grid: tuple[float, ...] = (2.0, 4.0, 8.0, 16.0)
    delta_grid: tuple[float, ...] = (0.02, 0.05, 0.1)
    size_c_grid: tuple[float, ...] = ()
    coverage_inflation: float | None = None
    size_threshold: float | None = None
    center_rule: str = "default-center"
    scales: tuple[dict, ...] = ()
    n_cover_samples: int = 200
    reps: int = 500
    inner_mc: int = 2000
    pilot_reps: int = 200
    master_seed: int = 0
    signal_seed: int = 7
    out_dir: str | None = None
    workers: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type.startswith("tuple["):
                if isinstance(value, (str, Mapping)) or not isinstance(value, Iterable):
                    raise ValueError(f"{f.name} must be a list, got {value!r}")
                # the spec's own copy, sharing no dict with the caller or a default panel
                value = copy.deepcopy(tuple(value))
                object.__setattr__(self, f.name, value)
            check, message = _FIELD_CHECKS[f.type]
            if not check(value):
                shown = list(value) if isinstance(value, tuple) else value
                raise ValueError(message.format(name=f.name, entry=f.name[:-1], value=shown))
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}")
        if not getattr(self, _KINDS[self.kind].entries):
            raise ValueError(f"{self.kind} needs a nonempty {_KINDS[self.kind].entries} tuple")
        for name in ("eps_grid", "m_grid", "delta_grid"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be nonempty")
        check_estimator_args(self.center_rule, self.reps, self.inner_mc)
        for name in ("pilot_reps", "n_cover_samples", "tau_ebr", "coverage_inflation",
                     "size_threshold", "m_grid", "size_c_grid"):
            _require_positive(name, getattr(self, name))
        if not 0.0 < self.kappa < 1.0:
            raise ValueError(f"kappa must lie in (0,1), got {self.kappa}")
        for name in ("workers", "master_seed", "signal_seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not all(0 < d < 1 for d in self.delta_grid):
            raise ValueError(f"delta_grid values must lie in (0, 1), got {list(self.delta_grid)!r}")
        # build every model, signal and scale now (make_model rejects a
        # nonpositive or NaN eps, a negative p and n_trunc < 1), so that a bad
        # entry fails the spec rather than a cell halfway through a run
        for eps in self.eps_grid:
            make_model(eps, self.p, self.n_trunc)
        DdmParams(K=self.K, alpha=self.alpha)
        for entries in ("signals", "scales"):
            for i, desc in enumerate(getattr(self, entries)):
                try:
                    for eps in self.eps_grid:
                        _build_entry(self, entries, i, eps)
                except (TypeError, KeyError, ValueError) as exc:
                    raise ValueError(f"bad entry {desc!r}: {exc}") from exc

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return copy.deepcopy(out)

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentSpec":
        unknown = set(_json_object(d, "a spec", ("kind",))) - {f.name for f in fields(cls)}
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
        _json_object(d, "a report", [f.name for f in fields(cls)])
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
# cell plumbing

def _build_signal(spec: ExperimentSpec, sig_idx: int, eps: float) -> Signal:
    desc = spec.signals[sig_idx]
    kind = desc.get("kind")
    params = dict(desc.get("params", {}))
    if kind == "deceptive":
        params.setdefault("epsilon", eps)
        params.setdefault("p", spec.p)
    seed = seed_int(stream(spec.signal_seed, sig_idx))
    return generate_signal(kind, params, n_trunc=spec.n_trunc, seed=seed)


def _build_entry(spec: ExperimentSpec, entries: str, idx: int, eps: float) -> tuple:
    """Entry idx of the spec list named entries, with the name and params
    its CSV rows carry: a signal under its parsed params, a scale class
    under the params of its spec entry."""
    if entries == "signals":
        signal = _build_signal(spec, idx, eps)
        return signal, signal.kind, dict(signal.params)
    desc = spec.scales[idx]
    name, params = desc.get("name"), dict(desc.get("params", {}))
    return scale_class(name, params, spec.n_trunc), name, params


def _row(*values) -> dict:
    """One CSV row from its values, in the order of CSV_COLUMNS."""
    return {col: convert(v) for (col, convert), v in zip(_COLUMNS.items(), values, strict=True)}


# ---------------------------------------------------------------------------
# per-kind cell bodies, called as body(spec, cell_idx, entry_idx, entry,
# model, params) with the entry (a Signal or a scale class), the
# ModelConfig and the DdmParams that _cell_worker builds.  Each returns
# (stats, summary): stats holds (row kind suffix, grid value, statistic,
# std error) tuples, which _cell_worker writes as CSV rows "<kind>:<suffix>"

def _cell_contraction(spec, cell_idx, sig_idx, signal, model, params):
    est = estimate_phi1(
        spec.m_grid,
        model,
        signal,
        params,
        center_rule=spec.center_rule,
        reps=spec.reps,
        inner_mc=spec.inner_mc,
        seed=stream(spec.master_seed, cell_idx),
    )
    vals = est.values
    stats = [("phi1", repr(m), v, se) for m, v, se in zip(est.grid.tolist(), vals, est.std_errors)]
    ratios = np.divide(vals[1:], vals[:-1], out=np.full(len(vals) - 1, math.nan), where=vals[:-1] > 0)
    positive = vals > 0
    slope = (
        float(np.polyfit(np.log(est.grid[positive]), np.log(vals[positive]), 1)[0])
        if positive.sum() >= 2
        else math.nan
    )
    summary = {
        "m_grid": list(spec.m_grid),
        "estimates": vals.tolist(),
        "std_errors": est.std_errors.tolist(),
        "nonincreasing": bool(np.all(np.diff(vals) <= 0)),
        "consecutive_ratios": ratios.tolist(),
        "halving_ok": not np.any(ratios > 0.5),
        "slope": slope,
        "center_flags": est.center_flags,
        "oracle_rate": est.scale,
    }
    return stats, summary


def _cell_oracle_inequality(spec, cell_idx, sig_idx, signal, model, params):
    orc = oracle(signal, model)
    r2 = orc.rate_sq
    theta0 = signal.padded(spec.n_trunc)

    # keyed by signal, not by cell: every eps column sees the same noise
    def _risk(rep: int, pilot: bool) -> float:
        key = (PILOT_KEY, SIGNAL_KEY, sig_idx, rep) if pilot else (SIGNAL_KEY, sig_idx, rep)
        data = data_set(model, signal, spec.master_seed, *key)
        mean = posterior_mean(data, mixture_weights(data, params))
        diff = mean - theta0
        return float(diff @ diff)

    mean_sq, se_sq = mean_and_se([_risk(rep, pilot=False) for rep in range(spec.reps)])
    ratio, se = float(mean_sq / r2), float(se_sq / r2)

    pilot_sq = np.array([_risk(rep, pilot=True) for rep in range(spec.pilot_reps)])
    pilot_ratio = float(pilot_sq.mean() / r2)

    stats = [("risk-ratio", "ratio", ratio, se), ("oracle-rate-sq", "r2", r2, 0.0)]
    summary = {
        "ratio": ratio,
        "std_error": se,
        "pilot_ratio": pilot_ratio,
        "oracle_rate_sq": r2,
        "oracle_index": orc.i_star,
    }
    return stats, summary


def _cell_small_ball(spec, cell_idx, sig_idx, signal, model, params):
    deltas = np.asarray(spec.delta_grid, dtype=float)
    envelope = deltas * np.log(1.0 / deltas) ** (spec.p + 0.5)
    ref_idx = int(np.argmax(deltas))
    stats = []
    per_scaling = {}
    for k, scaling in enumerate(("oracle-rate", "sigma-sum-surrogate")):
        est = estimate_psi(
            spec.delta_grid,
            model,
            signal,
            params,
            center_rule=spec.center_rule,
            scaling=scaling,
            reps=spec.reps,
            inner_mc=spec.inner_mc,
            seed=stream(spec.master_seed, cell_idx, k),
        )
        vals = est.values
        stats += [(f"psi:{scaling}", repr(d), v, se) for d, v, se in zip(est.grid.tolist(), vals, est.std_errors)]
        c_hat = float(vals[ref_idx] / envelope[ref_idx])
        env_ok = bool(np.all(vals <= c_hat * envelope + 1e-12))
        per_scaling[scaling] = {
            "delta_grid": deltas.tolist(),
            "estimates": vals.tolist(),
            "std_errors": est.std_errors.tolist(),
            "scale": est.scale,
            "c_hat": c_hat,
            "c_hat_at": float(deltas[ref_idx]),
            "envelope_ok": env_ok,
            "center_flags": est.center_flags,
        }
    summary = {
        "scalings": per_scaling,
        "envelope_ok": bool(all(v["envelope_ok"] for v in per_scaling.values())),
    }
    return stats, summary


def _coverage_reps(spec, cell_idx, signal, model, params, pilot: bool):
    """Replications of one coverage cell; the pilot pass has its own seed
    namespace.  Returns (EBR check, oracle rate, the Replications, their
    radius-hats)."""
    rate = oracle(signal, model).rate
    if pilot:
        ss, reps = stream(spec.master_seed, PILOT_KEY, cell_idx), spec.pilot_reps
    else:
        ss, reps = stream(spec.master_seed, cell_idx), spec.reps
    runs = replicate(model, signal, params, spec.center_rule, spec.inner_mc, ss, reps)
    radii = np.array([radius_from_distances(d, spec.kappa).value for d in runs.dists])
    return ebr_check(signal, model, spec.tau_ebr), rate, runs, radii


def _cell_coverage_pilot(spec, cell_idx, sig_idx, signal, model, params):
    """Pilot quantiles used to calibrate the inflation C and size threshold c."""
    ebr, rate, runs, radii = _coverage_reps(spec, cell_idx, signal, model, params, pilot=True)
    miss_ratios = np.divide(runs.gaps, radii, out=np.full(len(radii), math.inf), where=radii > 0)
    summary = {
        "ebr_member": ebr.member,
        "ebr_ratio": ebr.ratio,
        "q98_miss_ratio": float(np.quantile(miss_ratios, 0.98)),
        "q99_size_ratio": float(np.quantile(radii / rate, 0.99)),
        "center_flags": runs.flags,
    }
    return [], summary


def _cell_coverage_main(spec, cell_idx, sig_idx, signal, model, params):
    """The main pass, on a spec whose inflation and size threshold are set."""
    inflation = spec.coverage_inflation
    ebr, rate, runs, radii = _coverage_reps(spec, cell_idx, signal, model, params, pilot=False)
    coverage, cov_se = map(float, mean_and_se(runs.gaps <= inflation * radii))
    phi2_hat, phi2_se = map(float, mean_and_se(CONDITIONS["phi2"](runs, inflation * _DUALITY_DELTA * rate)))
    psi_hat, psi_se = map(float, mean_and_se(CONDITIONS["psi"](runs, _DUALITY_DELTA * rate)))
    radius_mean, radius_se = map(float, mean_and_se(radii))
    miss_bound = phi2_hat + psi_hat / (1.0 - spec.kappa)
    bound_se = phi2_se + psi_se / (1.0 - spec.kappa)
    duality_ok = bool((1.0 - coverage) <= miss_bound + 3.0 * (cov_se + bound_se))

    stats = [
        ("coverage", repr(float(inflation)), coverage, cov_se),
        ("miss-phi2", repr(float(inflation * _DUALITY_DELTA)), phi2_hat, phi2_se),
        ("psi", repr(_DUALITY_DELTA), psi_hat, psi_se),
        ("radius-mean", "mean", radius_mean, radius_se),
    ]
    size_freqs = {}
    for c in sorted(set(map(float, spec.size_c_grid)) | {spec.size_threshold}):
        f, se = map(float, mean_and_se(radii >= c * rate))
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
        "radius_mean": radius_mean,
        "center_flags": runs.flags,
    }
    return stats, summary


def _cell_overshrinkage(spec, cell_idx, sig_idx, signal, model, params):
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
        data = data_set(model, signal, stream(spec.master_seed, cell_idx), rep, 0)
        mix = posterior_mean(data, mixture_weights(data, params))[head][live]
        shr = make_posterior(data, params, variant="full-bayes-shrunk").mean()[head][live]
        rel[rep, 0] = np.max(np.abs(mix - t_head) / np.abs(t_head))
        rel[rep, 1] = np.max(np.abs(shr - L * t_head) / np.abs(L * t_head))
        rel[rep, 2] = np.max(np.abs(mix - L * t_head) / np.abs(L * t_head))
        rel[rep, 3] = np.max(np.abs(shr - t_head) / np.abs(t_head))

    labels = ("mixture-vs-truth", "shrunk-vs-shrunk-target", "mixture-vs-shrunk-target", "shrunk-vs-truth")
    stats = []
    max_rel, mean_rel = {}, {}
    for k, lab in enumerate(labels):
        max_rel[lab] = float(rel[:, k].max())
        mean_rel[lab], se = map(float, mean_and_se(rel[:, k]))
        stats += [("max-rel-gap", lab, max_rel[lab], 0.0), ("mean-rel-gap", lab, mean_rel[lab], se)]
    summary = {"i_bar": i_bar, "L": L, "max_rel": max_rel, "mean_rel": mean_rel}
    return stats, summary


def _cell_scale_adaptation(spec, cell_idx, scale_idx, cls, model, params):
    report = covers_check(cls, model, n_samples=spec.n_cover_samples, seed=stream(spec.master_seed, cell_idx, 0))
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
    return stats, summary


# ---------------------------------------------------------------------------
# per-kind summaries.  Each adds its keys to the report summary from the
# successful cell summaries and returns the checks acceptance_ok needs

def _summarize_contraction(s: dict, cells: list) -> list:
    s["all_nonincreasing"] = bool(all(c["nonincreasing"] for c in cells)) if cells else False
    s["all_halving"] = bool(all(c["halving_ok"] for c in cells)) if cells else False
    return [s["all_nonincreasing"], s["all_halving"]]


def _summarize_oracle_inequality(s: dict, cells: list) -> list:
    ratios = [c["ratio"] for c in cells]
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
    s["pilot_max_ratio"] = max((c["pilot_ratio"] for c in cells), default=math.nan)
    s["ratio_bound"] = 1.25 * s["pilot_max_ratio"]
    s["within_bound"] = bool(ratios and max(ratios) <= s["ratio_bound"])
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
    key = repr(float(s["size_c"]))
    size_vals = [c["size_freqs"][key][0] for c in cells]
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
    (entry, eps) cell, the summary over the successful cells, and the spec
    field that lists the entries."""

    defaults: dict
    cell: Callable
    summarize: Callable
    entries: str = "signals"


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
        _cell_scale_adaptation, _summarize_scale_adaptation, "scales"),
}

EXPERIMENT_KINDS = tuple(_KINDS)


# ---------------------------------------------------------------------------
# worker + driver

def _cell_worker(job):
    """Run one cell body, pilot or main, and return (rows, summary, error,
    seconds): its statistics as CSV rows under the cell seed and its
    summary, or, for a failing cell, one error row, a failed placeholder and
    the traceback; and the cell's own wall time, not its wait for a worker."""
    t0 = time.monotonic()
    spec, cell_idx, (i, j), body = job
    entries = _KINDS[spec.kind].entries
    eps = spec.eps_grid[j]
    try:
        entry, name, params = _build_entry(spec, entries, i, eps)
        model = make_model(eps, spec.p, spec.n_trunc)
        stats, summary = body(spec, cell_idx, i, entry, model, DdmParams(K=spec.K, alpha=spec.alpha))
        seed = seed_int(stream(spec.master_seed, cell_idx))
        rows = [_row(f"{spec.kind}:{suffix}", name, params, eps, grid, stat, se, seed)
                for suffix, grid, stat, se in stats]
        summary = {"cell": cell_idx, entries[:-1]: f"{name}{_params_str(params)}", "epsilon": eps, **summary}
        outcome = rows, summary, None
    except Exception:
        desc = getattr(spec, entries)[i]
        tag = desc.get("name") or desc.get("kind") or "?"
        row = _row(f"{spec.kind}:error", str(tag), dict(desc.get("params", {})), eps, "error", math.nan, math.nan, 0)
        outcome = [row], {"cell": cell_idx, "failed": True}, traceback.format_exc()
    return (*outcome, time.monotonic() - t0)


def _pool_size(spec: ExperimentSpec, n_cells: int) -> int:
    """Processes that run the spec's cells: spec.workers, where 0 means one
    per usable CPU, and never more than there are cells.  1 runs them in
    this process."""
    workers = spec.workers
    if workers == 0:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(workers, n_cells)


def _run_pass(spec, body, coords, pool, failed: list, phase: str, runtime: dict) -> tuple[list, list]:
    """Run body on every cell, through pool.map when there is a pool and in
    this process otherwise; return the rows and summaries in cell order,
    append a {cell, coord, phase, error} record to failed for each failing
    cell, and set runtime["phase_seconds"][phase] to the pass's wall time and
    runtime["cell_seconds"][phase] to each cell's, in cell order."""
    t0 = time.monotonic()
    jobs = [(spec, idx, coord, body) for idx, coord in enumerate(coords)]
    outcomes = list((map if pool is None else pool.map)(_cell_worker, jobs))
    rows, summaries = [], []
    for coord, (cell_rows, summary, error, _) in zip(coords, outcomes):
        rows += cell_rows
        summaries.append(summary)
        if error is not None:
            failed.append({"cell": summary["cell"], "coord": list(coord), "phase": phase, "error": error})
    runtime["cell_seconds"][phase] = [seconds for *_, seconds in outcomes]
    runtime["phase_seconds"][phase] = time.monotonic() - t0
    return rows, summaries


def run_experiment(spec: ExperimentSpec) -> ExperimentReport:
    """Run every cell of the spec and assemble rows, summary, and outputs.

    A failing cell contributes one error row and a {"cell", "failed": True}
    summary, and summary["failed_cells"] gets its {cell, coord, phase, error}
    record: coord is its (entry, eps) index pair, phase "pilot" or "main",
    error its traceback.  Other cells are unaffected.

    The cells run on one process pool, shared by the pilot and main passes,
    when _pool_size gives at least 2; every worker has exited by the time
    this returns or raises.
    """
    t0 = time.monotonic()
    n_entries = len(getattr(spec, _KINDS[spec.kind].entries))
    coords = [(i, j) for i in range(n_entries) for j in range(len(spec.eps_grid))]
    n_workers = _pool_size(spec, len(coords))
    report = ExperimentReport(spec=spec)
    failed: list = []
    runtime: dict = {"phase_seconds": {}, "cell_seconds": {}}

    with futures.ProcessPoolExecutor(n_workers) if n_workers > 1 else contextlib.nullcontext() as pool:
        cell_spec = spec
        if spec.kind == "coverage-size":
            cell_spec, pilot_cells = _calibrate_coverage(spec, coords, pool, failed, runtime)
            report.summary.update(inflation_C=cell_spec.coverage_inflation, size_c=cell_spec.size_threshold,
                                  pilot_cells=pilot_cells, pilot_reps=spec.pilot_reps)
        report.cells, cell_summaries = _run_pass(
            cell_spec, _KINDS[spec.kind].cell, coords, pool, failed, "main", runtime)
    report.summary["cells"] = cell_summaries
    report.summary["failed_cells"] = failed
    ok_cells = [c for c in cell_summaries if not c.get("failed")]
    checks = _KINDS[spec.kind].summarize(report.summary, ok_cells)
    report.summary["acceptance_ok"] = bool(all(checks) and not failed)

    report.runtime = {
        "wall_seconds": time.monotonic() - t0,
        **runtime,
        "workers": n_workers,
        "n_cells": len(coords),
    }

    if spec.out_dir is not None:
        report.runtime["paths"] = _persist(report)
    return report


def _calibrate_coverage(spec, coords, pool, failed, runtime):
    """Pilot pass, whose rows are dropped: the spec with its inflation and size
    threshold set where it leaves them unset, and the successful pilot cells."""
    need_c = spec.coverage_inflation is None
    need_s = spec.size_threshold is None
    pilot_cells: list = []
    if need_c or need_s:
        _, summaries = _run_pass(spec, _cell_coverage_pilot, coords, pool, failed, "pilot", runtime)
        pilot_cells = [c for c in summaries if not c.get("failed")]
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
    # set on a copy, since replace would rebuild every signal of the spec
    calibrated = copy.copy(spec)
    for name, value in (("coverage_inflation", float(inflation)), ("size_threshold", float(c_star))):
        _require_positive(name, value)
        object.__setattr__(calibrated, name, value)
    return calibrated, pilot_cells


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
            writer.writerows(report.cells)
    else:
        raise ValueError(f"format must be 'json' or 'csv', got {format!r}")
    return path


def read_report(path: str | Path) -> ExperimentReport:
    return ExperimentReport.from_dict(json.loads(Path(path).read_text()))


def _persist(report: ExperimentReport) -> dict:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S-%f")
    run_dir = Path(report.spec.out_dir) / report.spec.kind / stamp
    return {
        "run_dir": str(run_dir),
        "report": str(write_report(report, "json", run_dir / "report.json")),
        "cells": str(write_report(report, "csv", run_dir / "cells.csv")),
    }
