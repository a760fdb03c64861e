"""Experiment harness: spec plumbing, per-kind cells, reports, determinism.

Everything here runs tiny configurations (few reps, short sequences) so the
whole module stays fast; statistical assertions at the published scale live
in the acceptance suite.
"""

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
from concurrent import futures

import numpy as np
import pytest

from seqcred import (
    EXPERIMENT_KINDS,
    ExperimentReport,
    ExperimentSpec,
    default_spec,
    read_report,
    run_experiment,
    write_report,
)
from seqcred import experiments
from seqcred.experiments import _build_signal

FAST = dict(n_trunc=96, reps=6, inner_mc=1000, pilot_reps=4, master_seed=5)


@pytest.fixture(scope="module")
def contraction_report():
    spec = default_spec("contraction", m_grid=(1.0, 4.0, 16.0), **FAST)
    return run_experiment(spec)


@pytest.fixture(scope="module")
def coverage_report():
    spec = default_spec(
        "coverage-size",
        signals=(
            {"kind": "zero", "params": {}},
            {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
        ),
        size_c_grid=(2.0,),
        **FAST,
    )
    return run_experiment(spec)


class TestSpec:
    def test_round_trip(self):
        spec = default_spec("oracle-inequality", reps=9)
        back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec

    def test_list_inputs_coerced_to_tuples(self):
        spec = ExperimentSpec(
            kind="small-ball",
            signals=[{"kind": "zero", "params": {}}],
            eps_grid=[0.1, 0.05],
            delta_grid=[0.1],
        )
        assert isinstance(spec.eps_grid, tuple)
        assert isinstance(spec.signals, tuple)

    def test_from_dict_rejects_unknown_fields(self):
        d = default_spec("contraction").to_dict()
        d["typo_field"] = 1
        with pytest.raises(ValueError, match="unknown spec fields"):
            ExperimentSpec.from_dict(d)

    @pytest.mark.parametrize("bad", [
        dict(kind="bootstrap", signals=({"kind": "zero"},)),
        dict(kind="contraction", signals=()),
        dict(kind="scale-adaptation", scales=()),
        dict(kind="contraction", signals=({"kind": "zero"},), eps_grid=()),
        dict(kind="contraction", signals=({"kind": "zero"},), eps_grid=(0.0,)),
        dict(kind="contraction", signals=({"kind": "zero"},), kappa=1.0),
        dict(kind="contraction", signals=({"kind": "zero"},), reps=0),
        dict(kind="contraction", signals=({"kind": "zero"},), center_rule="mode"),
        dict(kind="contraction", signals=({"kind": "zero"},), p=-0.5),
        dict(kind="contraction", signals=({"kind": "zero"},), p=math.nan),
        dict(kind="contraction", signals=({"kind": "zero"},), n_trunc=0),
        dict(kind="contraction", signals=({"kind": "zero"},), n_trunc=96.0),
        dict(kind="contraction", signals=({"kind": "zero"},), n_trunc=True),
        dict(kind="contraction", signals=({"kind": "zero"},), workers=-3),
        dict(kind="contraction", signals=({"kind": "sobolev"},)),
        dict(kind="contraction", signals=({"params": {}},)),
        dict(kind="contraction", signals=("zero",)),
        dict(kind="contraction", signals=({"kind": "zero"},), workers="2"),
        dict(kind="contraction", signals=({"kind": "zero"},), reps="3"),
        dict(kind="contraction", signals=({"kind": "zero"},), p="0"),
        dict(kind="contraction", signals=({"kind": "zero"},), kappa="0.5"),
        dict(kind="contraction", signals=({"kind": "zero"},), eps_grid=("0.1",)),
        dict(kind="contraction", signals=({"kind": "zero"},), master_seed=1.5),
        dict(kind="contraction", signals=({"kind": "zero"},), K=None),
        dict(kind="contraction", signals=({"kind": "zero"},), coverage_inflation="2"),
        dict(kind="contraction", signals=({"kind": "zero"},), reps=True),
        dict(kind="contraction", signals=({"kind": "sobolev-boundary", "params": {"beta": "x", "Q": 1.0}},)),
        dict(kind="contraction", signals=({"kind": "sobolev-boundary", "params": {"beta": None}},)),
        dict(kind="contraction", signals=({"kind": "sobolev-boundary", "params": {"beta": -1.0}},)),
        dict(kind="contraction", signals=({"kind": "zero", "params": 3},)),
        dict(kind="coverage-size", signals=({"kind": "deceptive", "params": {}},), n_trunc=96),
        dict(kind="scale-adaptation", scales=({"name": "bogus"},)),
        dict(kind="scale-adaptation", scales=("sobolev-hyperrect",)),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect", "params": {"Q": "x"}},)),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect", "params": None},)),
        dict(kind="contraction", signals=({"kind": "zero"},), eps_grid=(math.nan,)),
        dict(kind="contraction", signals=({"kind": "zero"},), K=math.nan),
        dict(kind="contraction", signals=({"kind": "zero"},), alpha=0.0),
        dict(kind="small-ball", signals=({"kind": "zero"},), delta_grid=(0.1, 1.0)),
        dict(kind="small-ball", signals=({"kind": "zero"},), delta_grid=(0.0,)),
        dict(kind="small-ball", signals=({"kind": "zero"},), delta_grid=(math.nan,)),
        dict(kind="scale-adaptation", scales=({"name": "parametric-hyperrect", "params": {"N0": 0}},)),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect", "params": {"beta": -0.25}},)),
        dict(kind="scale-adaptation", scales=({"name": "analytic-ellipsoid", "params": {"c": 0.0}},)),
        dict(kind="contraction", signals=({"kind": "parametric", "params": {"N0": 2.5}},)),
        dict(kind="contraction", signals=({"kind": "zero"},), pilot_reps=0),
        dict(kind="contraction", signals=({"kind": "zero"},), scales=({"name": "bogus"},)),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect"},), signals=({"kind": "bogus"},)),
        dict(kind="contraction", signals=({"kind": "zero"},), m_grid=(0.0, 2.0)),
        dict(kind="contraction", signals=({"kind": "zero"},), m_grid=(2.0, -1.0)),
        dict(kind="coverage-size", signals=({"kind": "zero"},), tau_ebr=0.0),
        dict(kind="coverage-size", signals=({"kind": "zero"},), tau_ebr=math.nan),
        dict(kind="coverage-size", signals=({"kind": "zero"},), coverage_inflation=0.0),
        dict(kind="coverage-size", signals=({"kind": "zero"},), size_threshold=-1.0),
        dict(kind="coverage-size", signals=({"kind": "zero"},), size_c_grid=(2.0, 0.0)),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect"},), n_cover_samples=0),
        dict(kind="scale-adaptation", scales=({"name": "sobolev-hyperrect"},), n_cover_samples=-3),
        dict(kind="contraction", signals=({"kind": "zero"},), m_grid=()),
        dict(kind="small-ball", signals=({"kind": "zero"},), delta_grid=()),
        dict(kind="contraction", signals=({"kind": "zero"},), master_seed=-1),
        dict(kind="contraction", signals=({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},),
             signal_seed=-1),
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentSpec(**bad)

    def test_default_center_needs_mc_floor(self):
        """Below the draw floor of default_center the spec fails when built,
        not in every cell of the run; the posterior mean needs no floor."""
        with pytest.raises(ValueError, match="inner_mc >= 1000"):
            default_spec("contraction", inner_mc=500, reps=2, n_trunc=128)
        spec = default_spec("contraction", inner_mc=500, reps=2, n_trunc=128, center_rule="posterior-mean")
        assert spec.inner_mc == 500

    def test_default_spec_all_kinds(self):
        for kind in EXPERIMENT_KINDS:
            spec = default_spec(kind)
            assert spec.kind == kind
        with pytest.raises(ValueError):
            default_spec("bayes-factor")

    def test_default_spec_overrides(self):
        spec = default_spec("contraction", reps=3, n_trunc=32)
        assert spec.reps == 3
        assert spec.n_trunc == 32

    def test_signal_construction_is_seeded(self):
        spec = default_spec(
            "coverage-size",
            signals=({"kind": "sobolev-random", "params": {"beta": 1.0, "Q": 1.0}},),
        )
        a = _build_signal(spec, 0, 0.1)
        b = _build_signal(spec, 0, 0.1)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_coverage_size_builds_at_p_one(self):
        spec = default_spec("coverage-size", p=1)
        sig = _build_signal(spec, 6, 0.1)  # the deceptive panel entry
        assert (spec.p, sig.params["spike_index"]) == (1, 11)

    def test_deceptive_signal_inherits_model_epsilon(self):
        spec = default_spec("coverage-size", n_trunc=1024)
        sig = _build_signal(spec, 6, 0.1)  # the deceptive panel entry
        assert sig.kind == "deceptive"
        assert sig.params["epsilon"] == 0.1


class TestContractionCells:
    def test_rows_and_summary(self, contraction_report):
        rep = contraction_report
        rows = [r for r in rep.cells if r["kind"] == "contraction:phi1"]
        assert len(rows) == 3  # one per grid point
        cell = rep.summary["cells"][0]
        assert set(cell) >= {"estimates", "nonincreasing", "consecutive_ratios", "halving_ok"}
        assert len(cell["estimates"]) == 3
        assert rep.summary["acceptance_ok"] in (True, False)

    def test_monotone_even_at_tiny_reps(self, contraction_report):
        # shared inner draws make the curve exactly monotone per replication
        assert contraction_report.summary["all_nonincreasing"]

    def test_runtime_recorded(self, contraction_report):
        rt = contraction_report.runtime
        assert rt["n_cells"] == 1
        assert rt["workers"] == 1
        assert rt["wall_seconds"] > 0
        assert list(rt["phase_seconds"]) == ["main"]


@pytest.fixture(scope="module")
def oracle_ineq_report():
    spec = default_spec(
        "oracle-inequality",
        signals=(
            {"kind": "zero", "params": {}},
            {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
        ),
        eps_grid=(0.1, 0.05),
        **FAST,
    )
    return run_experiment(spec)


class TestOracleInequalityCells:

    def test_rows(self, oracle_ineq_report):
        report = oracle_ineq_report
        ratios = [r for r in report.cells if r["kind"] == "oracle-inequality:risk-ratio"]
        rates = [r for r in report.cells if r["kind"] == "oracle-inequality:oracle-rate-sq"]
        assert len(ratios) == 4 and len(rates) == 4
        assert all(r["statistic"] > 0 for r in ratios)

    def test_summary_structure(self, oracle_ineq_report):
        s = oracle_ineq_report.summary
        assert set(s["slopes"]) == {c["signal"] for c in s["cells"]}
        assert s["ratio_bound"] == pytest.approx(1.25 * s["pilot_max_ratio"])
        assert isinstance(s["within_bound"], bool)

    def test_zero_signal_shares_noise_across_eps(self, oracle_ineq_report):
        """Common random numbers across the eps grid: for the zero signal the
        risk ratio is scale-free, so both eps columns give the same value."""
        zero = [c for c in oracle_ineq_report.summary["cells"] if c["signal"].startswith("zero")]
        assert len(zero) == 2
        assert zero[0]["ratio"] == pytest.approx(zero[1]["ratio"], rel=1e-12)


class TestSmallBallCells:
    def test_both_scalings_reported(self):
        spec = default_spec("small-ball", delta_grid=(0.1, 0.4), **FAST)
        rep = run_experiment(spec)
        kinds = {r["kind"] for r in rep.cells}
        assert "small-ball:psi:oracle-rate" in kinds
        assert "small-ball:psi:sigma-sum-surrogate" in kinds
        cell = rep.summary["cells"][0]
        assert set(cell["scalings"]) == {"oracle-rate", "sigma-sum-surrogate"}
        for block in cell["scalings"].values():
            assert len(block["estimates"]) == 2
            assert block["c_hat_at"] == 0.4


class TestCoverageCells:
    def test_pilot_calibration_recorded(self, coverage_report):
        s = coverage_report.summary
        assert s["inflation_C"] > 0
        assert s["size_c"] > 0
        assert len(s["pilot_cells"]) == 2
        member_qs = [c["q98_miss_ratio"] for c in s["pilot_cells"] if c["ebr_member"]]
        assert s["inflation_C"] == pytest.approx(1.1 * max(member_qs))

    def test_report_keeps_the_callers_spec(self, coverage_report):
        """The main pass runs on the calibrated spec; the report holds the
        spec as passed, whose unset fields say a pilot pass ran."""
        spec = coverage_report.spec
        assert spec.coverage_inflation is None and spec.size_threshold is None

    def test_size_grid_includes_calibrated_value(self, coverage_report):
        s = coverage_report.summary
        cell = s["cells"][0]
        keys = set(cell["size_freqs"])
        assert repr(2.0) in keys
        assert repr(float(s["size_c"])) in keys

    def test_summary_flags(self, coverage_report):
        s = coverage_report.summary
        for name in ("coverage_ok", "size_ok", "duality_ok", "acceptance_ok"):
            assert isinstance(s[name], bool)
        assert s["deceptive_separated"] is None  # no deceptive cell in this panel
        kappa = coverage_report.spec.kappa
        for cell in s["cells"]:
            assert cell["miss_bound"] == pytest.approx(cell["phi2_hat"] + cell["psi_hat"] / (1.0 - kappa))

    def test_center_rule_reaches_coverage_rows(self, coverage_report):
        spec = dataclasses.replace(coverage_report.spec, center_rule="posterior-mean")
        rows = run_experiment(spec).cells
        radius = [r["statistic"] for r in rows if r["kind"] == "coverage-size:radius-mean"]
        default = [r["statistic"] for r in coverage_report.cells if r["kind"] == "coverage-size:radius-mean"]
        assert len(radius) == len(default) == 2
        assert all(a != b for a, b in zip(radius, default))

    def test_center_flags_counted_outside_the_csv(self, coverage_report, tmp_path, monkeypatch):
        """Failed center verifications are counted per cell in the summary,
        and the count never reaches the CSV: a run where every verification
        fails writes the same bytes as the real run."""
        from seqcred import experiments

        real = experiments.replicate

        def all_flagged(*args, **kwargs):
            runs = real(*args, **kwargs)
            return runs._replace(flags=len(runs.gaps))

        monkeypatch.setattr(experiments, "replicate", all_flagged)
        flagged = run_experiment(coverage_report.spec)
        spec = coverage_report.spec
        assert [c["center_flags"] for c in coverage_report.summary["cells"]] == [0, 0]
        assert [c["center_flags"] for c in flagged.summary["cells"]] == [spec.reps, spec.reps]
        assert [c["center_flags"] for c in flagged.summary["pilot_cells"]] == [spec.pilot_reps] * 2
        a = write_report(coverage_report, "csv", tmp_path / "real.csv").read_bytes()
        b = write_report(flagged, "csv", tmp_path / "flagged.csv").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

    def test_failing_cell_is_recorded_in_both_passes(self, coverage_report, monkeypatch):
        """A cell that raises in the pilot and in the main pass leaves one
        failure record of one shape per pass, no pilot summary, a failed
        placeholder among the cells and a single CSV error row."""
        from seqcred import experiments

        real = experiments._coverage_reps

        def first_cell_raises(spec, cell_idx, *args, **kwargs):
            if cell_idx == 0:
                raise RuntimeError("injected cell failure")
            return real(spec, cell_idx, *args, **kwargs)

        monkeypatch.setattr(experiments, "_coverage_reps", first_cell_raises)
        rep = run_experiment(coverage_report.spec)
        s = rep.summary
        assert [set(f) for f in s["failed_cells"]] == [{"cell", "coord", "phase", "error"}] * 2
        assert [(f["cell"], f["coord"], f["phase"]) for f in s["failed_cells"]] == [(0, [0, 0], "pilot"),
                                                                                    (0, [0, 0], "main")]
        assert all("injected cell failure" in f["error"] for f in s["failed_cells"])
        assert [c["cell"] for c in s["pilot_cells"]] == [1]
        assert s["cells"][0] == {"cell": 0, "failed": True}
        assert s["cells"][1]["cell"] == 1 and "coverage" in s["cells"][1]
        error_rows = [r for r in rep.cells if r["kind"] == "coverage-size:error"]
        assert len(error_rows) == 1 and error_rows[0]["signal_kind"] == "zero"
        assert math.isnan(error_rows[0]["statistic"])
        assert not s["acceptance_ok"]

    def test_pinned_calibration_skips_pilot(self):
        spec = default_spec(
            "coverage-size",
            signals=({"kind": "zero", "params": {}},),
            coverage_inflation=3.0,
            size_threshold=5.0,
            **FAST,
        )
        rep = run_experiment(spec)
        assert rep.summary["inflation_C"] == 3.0
        assert rep.summary["size_c"] == 5.0
        assert rep.summary["pilot_cells"] == []

    @pytest.mark.parametrize("pinned, builds", [({}, 2), (dict(coverage_inflation=3.0, size_threshold=5.0), 1)],
                             ids=["pilot", "pinned"])
    def test_calibration_builds_no_signal(self, monkeypatch, pinned, builds):
        """Each pass builds every signal of the panel once; setting the
        calibrated values builds none."""
        from seqcred import experiments

        # workers=1: generate_signal calls made in pool workers would not reach this list
        spec = default_spec("coverage-size", n_trunc=256, reps=2, pilot_reps=2, inner_mc=1000, workers=1, **pinned)
        calls = []
        real = experiments.generate_signal

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "generate_signal", counting)
        run_experiment(spec)
        assert len(calls) == builds * len(spec.signals)

    def test_calibrated_values_must_be_positive(self, monkeypatch):
        from seqcred import experiments

        real = experiments._cell_coverage_pilot

        def nan_pilot(*args):
            stats, summary = real(*args)
            return stats, {**summary, "q98_miss_ratio": math.nan}

        monkeypatch.setattr(experiments, "_cell_coverage_pilot", nan_pilot)
        spec = default_spec("coverage-size", signals=({"kind": "zero", "params": {}},), **FAST)
        with pytest.raises(ValueError, match="coverage_inflation must be positive, got nan"):
            run_experiment(spec)


class TestOvershrinkageCells:
    def test_tracking_statistics(self):
        spec = default_spec("overshrinkage", n_trunc=96, reps=4, master_seed=1)
        rep = run_experiment(spec)
        cell = rep.summary["cells"][0]
        # at eps = 1e-3 the mixture tracks truth and the shrunk mean tracks
        # L*truth, far better than either tracks the other target
        assert cell["max_rel"]["mixture-vs-truth"] < 0.01
        assert cell["max_rel"]["shrunk-vs-shrunk-target"] < 0.01
        assert cell["mean_rel"]["shrunk-vs-truth"] > 0.1
        assert rep.summary["acceptance_ok"]

    def test_zero_signal_cell_fails_gracefully(self):
        spec = default_spec(
            "overshrinkage",
            signals=({"kind": "zero", "params": {}},),
            n_trunc=64,
            reps=2,
        )
        rep = run_experiment(spec)
        assert len(rep.summary["failed_cells"]) == 1
        assert "nonzero coordinates" in rep.summary["failed_cells"][0]["error"]
        assert not rep.summary["acceptance_ok"]
        error_rows = [r for r in rep.cells if r["kind"] == "overshrinkage:error"]
        assert len(error_rows) == 1 and math.isnan(error_rows[0]["statistic"])


class TestScaleAdaptationCells:
    def test_all_scales_pass(self):
        spec = default_spec("scale-adaptation", n_trunc=96, n_cover_samples=40, eps_grid=(0.1,))
        rep = run_experiment(spec)
        s = rep.summary
        assert s["all_passed"] and s["all_lambda_hold"] and s["acceptance_ok"]
        assert len(s["cells"]) == 4
        for cell in s["cells"]:
            assert cell["worst_ratio"] <= cell["threshold"]
            assert cell["lambda_worst_margin"] >= 0.0


class TestReportsAndPersistence:
    def test_json_round_trip(self, contraction_report, tmp_path):
        p = write_report(contraction_report, "json", tmp_path / "r.json")
        back = read_report(p)
        assert back.spec == contraction_report.spec
        assert back.cells == contraction_report.cells
        assert back.summary == json.loads(json.dumps(contraction_report.summary))

    def test_csv_shape_and_exact_floats(self, contraction_report, tmp_path):
        import csv as csv_mod

        p = write_report(contraction_report, "csv", tmp_path / "r.csv")
        with open(p) as fh:
            rows = list(csv_mod.DictReader(fh))
        assert len(rows) == len(contraction_report.cells)
        for got, want in zip(rows, contraction_report.cells):
            assert float(got["statistic"]) == want["statistic"]  # repr round-trips
            assert got["kind"] == want["kind"]

    @pytest.mark.parametrize("content, message", [
        ("[1]", "a report must be a JSON object, got list"),
        ("{}", "report lacks field(s) ['spec', 'cells', 'summary', 'runtime']"),
        ('{"spec": {}, "cells": [], "summary": {}}', "report lacks field(s) ['runtime']"),
    ], ids=["array", "empty", "no-runtime"])
    def test_read_report_rejects_malformed(self, tmp_path, content, message):
        path = tmp_path / "r.json"
        path.write_text(content)
        with pytest.raises(ValueError, match=re.escape(message)):
            read_report(path)

    def test_write_report_needs_path_and_valid_format(self, contraction_report, tmp_path):
        with pytest.raises(ValueError):
            write_report(contraction_report, "json", None)
        with pytest.raises(ValueError):
            write_report(contraction_report, "parquet", tmp_path / "x")

    def test_out_dir_persists_run(self, tmp_path):
        spec = default_spec("scale-adaptation", n_trunc=64, n_cover_samples=10,
                            eps_grid=(0.1,), out_dir=str(tmp_path))
        rep = run_experiment(spec)
        run_dir = tmp_path / "scale-adaptation"
        stamps = list(run_dir.iterdir())
        assert len(stamps) == 1
        assert sorted(p.name for p in stamps[0].iterdir()) == ["cells.csv", "report.json"]
        assert rep.runtime["paths"]["report"].endswith("report.json")
        assert json.loads(json.dumps(rep.runtime)) == rep.runtime
        assert all(isinstance(path, str) for path in rep.runtime["paths"].values())

    def test_csv_of_read_report_matches(self, coverage_report, tmp_path):
        """Rows read back from the JSON report, an error row's NaNs among
        them, write the same CSV bytes as the rows of the run."""
        from seqcred.experiments import _row

        error = _row("coverage-size:error", "zero", {}, 0.1, "error", math.nan, math.nan, 0)
        report = dataclasses.replace(coverage_report, cells=[*coverage_report.cells, error])
        back = read_report(write_report(report, "json", tmp_path / "r.json"))
        a = write_report(report, "csv", tmp_path / "a.csv")
        b = write_report(back, "csv", tmp_path / "b.csv")
        assert a.read_bytes() == b.read_bytes()


class TestDeterminism:
    def test_identical_spec_identical_csv(self, tmp_path):
        """Byte-identical cell tables from byte-identical specs; the larger
        acceptance run repeats this at the published scale."""
        spec = default_spec("overshrinkage", n_trunc=96, reps=4, master_seed=33)
        a = run_experiment(spec)
        b = run_experiment(spec)
        pa = write_report(a, "csv", tmp_path / "a.csv")
        pb = write_report(b, "csv", tmp_path / "b.csv")
        assert pa.read_bytes() == pb.read_bytes()

    def test_phase_timings_stay_out_of_the_csv(self, coverage_report, tmp_path):
        """The pilot and main passes, and each of their cells, are timed in
        the runtime record, which round-trips through JSON, and a rerun of
        the spec writes the same CSV."""
        again = run_experiment(coverage_report.spec)
        phases = again.runtime["phase_seconds"]
        assert list(phases) == ["pilot", "main"]
        assert all(t > 0 for t in phases.values())
        assert sum(phases.values()) <= again.runtime["wall_seconds"]
        cells = again.runtime["cell_seconds"]
        assert list(cells) == ["pilot", "main"]
        for phase, seconds in cells.items():
            assert len(seconds) == again.runtime["n_cells"] == 2
            assert all(t > 0 for t in seconds)
            # the cells share the pass's wall time among at most `workers` processes
            assert sum(seconds) <= again.runtime["workers"] * phases[phase]
        assert json.loads(json.dumps(again.runtime)) == again.runtime
        pa = write_report(coverage_report, "csv", tmp_path / "a.csv")
        pb = write_report(again, "csv", tmp_path / "b.csv")
        assert pa.read_bytes() == pb.read_bytes()

    def test_master_seed_changes_results(self):
        base = dict(n_trunc=96, reps=4)
        a = run_experiment(default_spec("overshrinkage", master_seed=1, **base))
        b = run_experiment(default_spec("overshrinkage", master_seed=2, **base))
        sa = [r["statistic"] for r in a.cells]
        sb = [r["statistic"] for r in b.cells]
        assert sa != sb


#: a spec of each kind with at least three cells, so that every worker count
#: up to 3 fills its pool
WORKER_SPECS = {
    "contraction": default_spec("contraction", eps_grid=(0.1, 0.05, 0.02), **FAST),
    "oracle-inequality": default_spec(
        "oracle-inequality", signals=default_spec("oracle-inequality").signals[:2], eps_grid=(0.1, 0.05), **FAST),
    "small-ball": default_spec("small-ball", eps_grid=(0.1, 0.05, 0.02), **FAST),
    "coverage-size": default_spec(
        "coverage-size", signals=default_spec("coverage-size").signals[:3], **dict(FAST, reps=3, pilot_reps=2)),
    "overshrinkage": default_spec("overshrinkage", eps_grid=(0.01, 0.005, 0.001), n_trunc=96, reps=4, master_seed=5),
    "scale-adaptation": default_spec("scale-adaptation", n_trunc=64, n_cover_samples=10, eps_grid=(0.1, 0.05)),
}


def _two_cell_coverage(**overrides):
    signals = ({"kind": "zero", "params": {}}, {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}})
    return default_spec("coverage-size", **{**FAST, "signals": signals, "reps": 3, "pilot_reps": 2, **overrides})


@pytest.fixture(scope="module", params=EXPERIMENT_KINDS)
def serial_run(request):
    spec = WORKER_SPECS[request.param]
    return spec, run_experiment(dataclasses.replace(spec, workers=1))


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_parallel_run_matches_serial(self, serial_run, workers):
        """Cells read only their own streams, so the rows, the pilot cells
        and the calibrated C and c do not depend on the worker count, 3
        included, which may exceed the host's cores.  The report gives the
        processes that ran the cells."""
        spec, serial = serial_run
        run = run_experiment(dataclasses.replace(spec, workers=workers))
        n_cells = run.runtime["n_cells"]
        assert n_cells >= 3
        expected = min(workers or len(os.sched_getaffinity(0)), n_cells)
        assert serial.runtime["workers"] == 1 and run.runtime["workers"] == expected
        assert run.cells == serial.cells
        for key in ("pilot_cells", "inflation_C", "size_c"):
            assert run.summary.get(key) == serial.summary.get(key)

    def test_zero_means_one_worker_per_usable_cpu(self, monkeypatch):
        spec = WORKER_SPECS["coverage-size"]
        assert experiments._pool_size(spec, 100) == len(os.sched_getaffinity(0))
        assert experiments._pool_size(dataclasses.replace(spec, workers=5), 3) == 3
        assert experiments._pool_size(dataclasses.replace(spec, workers=1), 3) == 1
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert experiments._pool_size(spec, 100) == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert experiments._pool_size(spec, 100) == 1

    @pytest.mark.parametrize("workers", [0, 2])
    def test_one_cell_run_starts_no_pool(self, monkeypatch, workers):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-cell run started a process pool")

        monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
        spec = default_spec("coverage-size", signals=({"kind": "zero", "params": {}},), workers=workers, **FAST)
        report = run_experiment(spec)
        assert report.runtime["workers"] == 1
        assert list(report.runtime["phase_seconds"]) == ["pilot", "main"]

    def test_pilot_and_main_share_one_pool(self, monkeypatch):
        opened = []

        class CountingPool(futures.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
        report = run_experiment(_two_cell_coverage(workers=2))
        assert list(report.runtime["phase_seconds"]) == ["pilot", "main"]
        assert report.runtime["workers"] == 2
        assert len(opened) == 1

    def test_workers_exit_with_the_run(self):
        run_experiment(_two_cell_coverage(workers=2))
        assert multiprocessing.active_children() == []
        # a tiny tau_ebr leaves no EBR member among the sobolev signals, so calibration raises
        spec = _two_cell_coverage(
            workers=2,
            tau_ebr=1e-12,
            signals=(
                {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
                {"kind": "sobolev-boundary", "params": {"beta": 2.0, "Q": 1.0}},
            ),
        )
        with pytest.raises(ValueError, match="needs at least one EBR-member cell"):
            run_experiment(spec)
        assert multiprocessing.active_children() == []
