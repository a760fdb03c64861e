"""Experiment harness: spec plumbing, per-kind cells, reports, determinism.

Everything here runs tiny configurations (few reps, short sequences) so the
whole module stays fast; statistical assertions at the published scale live
in the acceptance suite.
"""

import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from seqcred import (
    EXPERIMENT_KINDS,
    ExperimentReport,
    ExperimentSpec,
    default_spec,
    emit_plot_data,
    read_report,
    run_experiment,
    write_report,
)
from seqcred.experiments import _build_signal, _resolve_workers

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
    ])
    def test_validation(self, bad):
        with pytest.raises(ValueError):
            ExperimentSpec(**bad)

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
        monkeypatch.setattr(experiments, "replicate", lambda *a, **k: real(*a, **k)._replace(flagged=True))
        flagged = run_experiment(coverage_report.spec)
        spec = coverage_report.spec
        assert [c["center_flags"] for c in coverage_report.summary["cells"]] == [0, 0]
        assert [c["center_flags"] for c in flagged.summary["cells"]] == [spec.reps, spec.reps]
        assert [c["center_flags"] for c in flagged.summary["pilot_cells"]] == [spec.pilot_reps] * 2
        a = write_report(coverage_report, "csv", tmp_path / "real.csv").read_bytes()
        b = write_report(flagged, "csv", tmp_path / "flagged.csv").read_bytes()
        assert hashlib.sha256(a).hexdigest() == hashlib.sha256(b).hexdigest()

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

    def test_write_report_needs_path_and_valid_format(self, contraction_report, tmp_path):
        with pytest.raises(ValueError):
            write_report(contraction_report, "json", None)
        with pytest.raises(ValueError):
            write_report(contraction_report, "parquet", tmp_path / "x")

    def test_plot_data_files(self, contraction_report, tmp_path):
        paths = emit_plot_data(contraction_report, tmp_path / "plots")
        assert len(paths) == 1
        text = paths[0].read_text()
        assert text.startswith("# kind: contraction:phi1")
        data_lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert len(data_lines) == 3

    def test_out_dir_persists_run(self, tmp_path):
        spec = default_spec("scale-adaptation", n_trunc=64, n_cover_samples=10,
                            eps_grid=(0.1,), out_dir=str(tmp_path))
        rep = run_experiment(spec)
        run_dir = tmp_path / "scale-adaptation"
        stamps = list(run_dir.iterdir())
        assert len(stamps) == 1
        assert (stamps[0] / "report.json").exists()
        assert (stamps[0] / "cells.csv").exists()
        assert list((stamps[0] / "plots").glob("*.dat"))
        assert rep.runtime["paths"]["report"].endswith("report.json")


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

    def test_master_seed_changes_results(self):
        base = dict(n_trunc=96, reps=4)
        a = run_experiment(default_spec("overshrinkage", master_seed=1, **base))
        b = run_experiment(default_spec("overshrinkage", master_seed=2, **base))
        sa = [r["statistic"] for r in a.cells]
        sb = [r["statistic"] for r in b.cells]
        assert sa != sb


class TestWorkers:
    def test_explicit_worker_count_wins(self, monkeypatch):
        monkeypatch.setenv("DDM_THREADS", "7")
        assert _resolve_workers(default_spec("contraction", workers=2)) == 2
        assert _resolve_workers(default_spec("contraction")) == 7

    def test_env_fallbacks(self, monkeypatch):
        monkeypatch.setenv("DDM_THREADS", "junk")
        assert _resolve_workers(default_spec("contraction")) == 1
        monkeypatch.delenv("DDM_THREADS")
        assert _resolve_workers(default_spec("contraction")) == 1

    @pytest.mark.parametrize("spec", [
        default_spec("scale-adaptation", n_trunc=64, n_cover_samples=10, eps_grid=(0.1, 0.05)),
        # two cells, so the pilot pass also goes through the process pool
        default_spec(
            "coverage-size",
            signals=(
                {"kind": "zero", "params": {}},
                {"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},
            ),
            **dict(FAST, reps=3, pilot_reps=2),
        ),
    ], ids=["scale-adaptation", "coverage-size"])
    def test_parallel_run_matches_serial(self, spec):
        a = run_experiment(dataclasses.replace(spec, workers=1))
        b = run_experiment(dataclasses.replace(spec, workers=2))
        assert a.runtime["workers"] == 1 and b.runtime["workers"] == 2
        assert a.cells == b.cells
        assert a.summary.get("pilot_cells") == b.summary.get("pilot_cells")
