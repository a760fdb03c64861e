"""Command-line interface tests.

Everything runs through ``dispatch`` so exit codes and stdout/stderr are
exercised the way a shell user sees them, without paying for process
spawns.  The experiment subcommand is tested twice: against tiny real
configs for the exit-code contract, and against a monkeypatched runner
for the override plumbing.
"""

import json
import math

import numpy as np
import pytest

from seqcred import cli
from seqcred.cli import dispatch
from seqcred.experiments import default_spec
from seqcred.model import ObservedData, Signal, generate_signal, make_model, simulate
from seqcred.posterior import DdmParams, eb_index, make_posterior


def run_cli(argv, capsys):
    """Dispatch argv and hand back (exit code, stdout, stderr)."""
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def data_file(tmp_path_factory):
    """A saved simulate payload shared by the posterior/ball tests."""
    path = tmp_path_factory.mktemp("cli") / "data.json"
    code = dispatch(
        [
            "simulate",
            "--eps", "0.1",
            "--n", "64",
            "--kind", "sobolev-boundary",
            "--params", '{"beta": 1.0, "Q": 1.0}',
            "--seed", "9",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def signal_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-sig") / "sobolev.json"
    sig = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=256)
    path.write_text(sig.to_json())
    return path


def observed_from_payload(payload):
    model = make_model(payload["epsilon"], payload["p"], payload["n_trunc"])
    return ObservedData(
        x=np.asarray(payload["x"], dtype=float), model=model, seed=payload["seed"]
    )


class TestParsing:
    def test_version(self, capsys):
        code, out, _ = run_cli(["--version"], capsys)
        assert code == 0
        assert "seqcred" in out

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0
        assert "simulate" in out

    def test_no_command_exits_one(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1
        assert "error" in err

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert "error" in err

    def test_missing_required_flag_exits_one(self, capsys):
        # simulate needs --seed
        code, _, err = run_cli(["simulate", "--eps", "0.1"], capsys)
        assert code == 1
        assert "--seed" in err


class TestSimulate:
    ARGS = ["simulate", "--eps", "0.1", "--n", "48", "--seed", "7"]

    def test_stdout_payload_matches_library(self, capsys):
        code, out, _ = run_cli(
            self.ARGS + ["--kind", "sobolev-boundary", "--params", '{"beta": 1.0, "Q": 1.0}'],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == 0.1
        assert payload["p"] == 0.0
        assert payload["n_trunc"] == 48
        assert payload["seed"] == 7
        assert len(payload["x"]) == 48

        model = make_model(0.1, 0.0, 48)
        signal = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=48)
        expected = simulate(model, signal, 7)
        np.testing.assert_array_equal(np.asarray(payload["x"]), expected.x)

        round_tripped = Signal.from_dict(payload["signal"])
        np.testing.assert_array_equal(round_tripped.coeffs, signal.coeffs)

    def test_out_file_creates_parent_dirs(self, tmp_path, capsys):
        out = tmp_path / "a" / "b" / "data.json"
        code, stdout, _ = run_cli(self.ARGS + ["--out", str(out)], capsys)
        assert code == 0
        assert stdout == ""
        payload = json.loads(out.read_text())
        assert payload["x"] == [pytest.approx(v) for v in payload["x"]]  # parses
        assert payload["signal"]["kind"] == "zero"

    def test_same_seed_same_draw(self, capsys):
        _, first, _ = run_cli(self.ARGS, capsys)
        _, second, _ = run_cli(self.ARGS, capsys)
        assert first == second

    def test_unknown_kind_maps_to_exit_one(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--eps", "0.1", "--seed", "1", "--kind", "nope"], capsys
        )
        assert code == 1
        assert err.startswith("seqcred simulate:")

    def test_bad_params_json_maps_to_exit_one(self, capsys):
        code, _, err = run_cli(self.ARGS + ["--params", "{broken"], capsys)
        assert code == 1
        assert "seqcred simulate:" in err


class TestPosterior:
    def test_payload_matches_library(self, data_file, capsys):
        code, out, _ = run_cli(["posterior", "--data", str(data_file)], capsys)
        assert code == 0
        payload = json.loads(out)

        data = observed_from_payload(json.loads(data_file.read_text()))
        post = make_posterior(data, DdmParams())
        assert payload["variant"] == "mixture"
        assert payload["i_max"] == 64
        assert payload["eb_index"] == eb_index(post.weights)
        np.testing.assert_allclose(payload["weights"], post.weights.w, rtol=1e-15)
        np.testing.assert_allclose(payload["posterior_mean"], post.mean(), rtol=1e-15)

    def test_weights_sum_to_one(self, data_file, capsys):
        _, out, _ = run_cli(["posterior", "--data", str(data_file)], capsys)
        total = sum(json.loads(out)["weights"])
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_eb_index_variant_is_one_hot(self, data_file, capsys):
        code, out, _ = run_cli(
            ["posterior", "--data", str(data_file), "--variant", "eb-index"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        w = payload["weights"]
        assert max(w) == 1.0
        assert w.index(1.0) + 1 == payload["eb_index"]

    def test_i_max_truncates_weights(self, data_file, capsys):
        _, out, _ = run_cli(
            ["posterior", "--data", str(data_file), "--i-max", "16"], capsys
        )
        payload = json.loads(out)
        assert payload["i_max"] == 16
        assert len(payload["weights"]) == 16

    def test_shrunk_variant_runs(self, data_file, capsys):
        code, out, _ = run_cli(
            ["posterior", "--data", str(data_file), "--variant", "full-bayes-shrunk"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["variant"] == "full-bayes-shrunk"

    def test_bad_variant_is_usage_error(self, data_file, capsys):
        code, _, err = run_cli(
            ["posterior", "--data", str(data_file), "--variant", "magic"], capsys
        )
        assert code == 1
        assert "invalid choice" in err

    def test_missing_data_file(self, capsys):
        code, _, err = run_cli(["posterior", "--data", "/nonexistent.json"], capsys)
        assert code == 1
        assert err.startswith("seqcred posterior:")

    def test_corrupt_data_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(["posterior", "--data", str(bad)], capsys)
        assert code == 1
        assert "seqcred posterior:" in err


class TestBall:
    def test_payload_shape(self, data_file, capsys):
        code, out, _ = run_cli(
            ["ball", "--data", str(data_file), "--mc", "1000", "--seed", "3"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "center",
            "radius",
            "level",
            "inflation",
            "radius_std_error",
            "center_candidate",
            "center_verified",
            "kappa",
            "mc_samples",
        }
        assert len(payload["center"]) == 64
        assert payload["radius"] > 0
        assert payload["level"] == 0.5
        assert payload["kappa"] == 0.5
        assert payload["mc_samples"] == 1000
        assert isinstance(payload["center_verified"], bool)

    def test_same_seed_same_ball(self, data_file, capsys):
        argv = ["ball", "--data", str(data_file), "--mc", "1000", "--seed", "11"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_inflation_and_kappa_recorded(self, data_file, capsys):
        _, out, _ = run_cli(
            [
                "ball",
                "--data", str(data_file),
                "--mc", "1000",
                "--seed", "3",
                "--inflation", "2.0",
                "--kappa", "0.25",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert payload["inflation"] == 2.0
        assert payload["kappa"] == 0.25
        assert payload["level"] == 0.25


class TestClassify:
    def test_zero_signal_facts(self, tmp_path, capsys):
        path = tmp_path / "zero.json"
        path.write_text(generate_signal("zero", {}, n_trunc=16).to_json())
        code, out, _ = run_cli(
            ["classify", "--signal", str(path), "--eps", "0.1", "--n", "256"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["i_star"] == 1
        assert payload["surrogate"]["i_bar"] == 1
        assert payload["ebr"]["ratio"] == 0.0
        assert payload["ebr"]["member"] is True
        assert "pt" not in payload

    def test_frozen_sobolev_facts(self, signal_file, capsys):
        code, out, _ = run_cli(
            ["classify", "--signal", str(signal_file), "--eps", "0.1", "--n", "256"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["oracle"]["i_star"] == 4
        assert payload["oracle"]["rate_sq"] == pytest.approx(0.06438726647214103, rel=1e-12)
        assert payload["ebr"]["ratio"] == pytest.approx(0.6096816618035255, rel=1e-12)
        assert payload["ebr"]["member"] is True

    def test_tau_flips_membership(self, signal_file, capsys):
        _, out, _ = run_cli(
            [
                "classify",
                "--signal", str(signal_file),
                "--eps", "0.1",
                "--n", "256",
                "--tau", "0.5",
            ],
            capsys,
        )
        payload = json.loads(out)
        assert payload["ebr"]["member"] is False

    def test_pt_triple_adds_block(self, signal_file, capsys):
        code, out, _ = run_cli(
            [
                "classify",
                "--signal", str(signal_file),
                "--eps", "0.1",
                "--n", "256",
                "--L0", "2", "--N0", "1", "--rho0", "2",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pt"]["member"] is True
        assert payload["pt"]["implied_ebr_tau"] == pytest.approx(6.0, rel=1e-12)

    def test_partial_pt_triple_exits_one(self, signal_file, capsys):
        code, _, err = run_cli(
            ["classify", "--signal", str(signal_file), "--eps", "0.1", "--L0", "2"],
            capsys,
        )
        assert code == 1
        assert "must be given together" in err

    def test_missing_signal_file(self, capsys):
        code, _, err = run_cli(
            ["classify", "--signal", "/nope.json", "--eps", "0.1"], capsys
        )
        assert code == 1
        assert err.startswith("seqcred classify:")


class _FakeReport:
    summary = {"acceptance_ok": True}
    runtime = {"seconds": 0.0}


@pytest.fixture()
def capture_spec(monkeypatch):
    """Swap run_experiment for a recorder so override plumbing is cheap to test."""
    captured = []

    def fake_run(spec):
        captured.append(spec)
        return _FakeReport()

    monkeypatch.setattr(cli, "run_experiment", fake_run)
    return captured


class TestExperimentPlumbing:
    def test_needs_config_or_kind(self, capsys):
        code, _, err = run_cli(["experiment"], capsys)
        assert code == 1
        assert "need --config or --kind" in err

    def test_kind_uses_default_spec(self, capture_spec, capsys):
        code, out, _ = run_cli(["experiment", "--kind", "contraction"], capsys)
        assert code == 0
        assert capture_spec == [default_spec("contraction")]
        printed = json.loads(out)
        assert printed["summary"] == {"acceptance_ok": True}

    def test_seed_and_out_overrides(self, capture_spec, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "experiment",
                "--kind", "contraction",
                "--seed", "42",
                "--out", str(tmp_path / "results"),
            ],
            capsys,
        )
        assert code == 0
        spec = capture_spec[0]
        assert spec.master_seed == 42
        assert spec.out_dir == str(tmp_path / "results")

    def test_threads_flag_beats_env(self, capture_spec, monkeypatch, capsys):
        monkeypatch.setenv("DDM_THREADS", "5")
        run_cli(["experiment", "--kind", "contraction", "--threads", "2"], capsys)
        assert capture_spec[0].workers == 2

    @staticmethod
    def _workers_of_tiny_run(tmp_path, capsys):
        """Resolved worker count printed by a one-cell run, which never
        starts a process pool whatever the count."""
        spec = default_spec(
            "scale-adaptation", scales=default_spec("scale-adaptation").scales[:1],
            eps_grid=(0.1,), n_trunc=64, n_cover_samples=5,
        )
        cfg = tmp_path / "one-cell.json"
        cfg.write_text(spec.to_json())
        code, out, _ = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 0
        return json.loads(out)["runtime"]["workers"]

    def test_env_threads_fallback(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DDM_THREADS", "5")
        assert self._workers_of_tiny_run(tmp_path, capsys) == 5

    def test_superscript_env_threads_fall_back_to_one(self, tmp_path, monkeypatch, capsys):
        # superscript two passes str.isdigit() but not int()
        monkeypatch.setenv("DDM_THREADS", "\u00b2")
        assert self._workers_of_tiny_run(tmp_path, capsys) == 1

    def test_junk_env_threads_ignored(self, capture_spec, monkeypatch, capsys):
        monkeypatch.setenv("DDM_THREADS", "five")
        run_cli(["experiment", "--kind", "contraction"], capsys)
        assert capture_spec[0].workers == default_spec("contraction").workers

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(["experiment", "--config", "/gone.json"], capsys)
        assert code == 1
        assert err.startswith("seqcred experiment:")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "contraction", "bogus_knob": 1}))
        code, _, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert "seqcred experiment:" in err

    @pytest.mark.parametrize("key, value", [
        ("workers", "2"),
        ("reps", "3"),
        ("p", "0"),
        ("kappa", "0.5"),
        ("eps_grid", ["0.1"]),
    ])
    def test_non_numeric_config_value_rejected(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "contraction", key: value}))
        code, out, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"seqcred experiment: {key} must")
        assert err.count("\n") == 1

    def test_non_dict_scale_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"kind": "scale-adaptation", "scales": ["sobolev-hyperrect"]}))
        code, out, err = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("seqcred experiment: each scale must be a dict")
        assert err.count("\n") == 1


class TestExperimentRuns:
    """Small real runs pin down the --check exit-code contract."""

    def _write_config(self, tmp_path, kind, **overrides):
        d = default_spec(kind).to_dict()
        d.update(overrides)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(d))
        return path

    def test_check_passes_on_tiny_scale_adaptation(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path, "scale-adaptation", n_trunc=96, n_cover_samples=25, master_seed=3
        )
        code, out, _ = run_cli(["experiment", "--config", str(cfg), "--check"], capsys)
        assert code == 0
        printed = json.loads(out)
        assert printed["summary"]["acceptance_ok"] is True
        assert "runtime" in printed

    def test_check_exits_two_on_failing_cell(self, tmp_path, capsys):
        # the overshrinkage statistic is undefined for an identically-zero
        # signal, so this spec is guaranteed to produce a failed cell
        cfg = self._write_config(
            tmp_path,
            "overshrinkage",
            n_trunc=64,
            reps=2,
            signals=[{"kind": "zero", "params": {}}],
            master_seed=3,
        )
        code, out, _ = run_cli(["experiment", "--config", str(cfg), "--check"], capsys)
        assert code == 2
        assert json.loads(out)["summary"]["acceptance_ok"] is False

    def test_without_check_failures_still_exit_zero(self, tmp_path, capsys):
        cfg = self._write_config(
            tmp_path,
            "overshrinkage",
            n_trunc=64,
            reps=2,
            signals=[{"kind": "zero", "params": {}}],
            master_seed=3,
        )
        code, _, _ = run_cli(["experiment", "--config", str(cfg)], capsys)
        assert code == 0


class TestVerifyConstants:
    @pytest.mark.parametrize("p", ["0.0", "1.0"])
    def test_passes_for_power_sequences(self, p, capsys):
        code, out, _ = run_cli(["verify-constants", "--p", p, "--n-max", "300"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_conditions"]["passed"] is True
        assert payload["sigma_conditions"]["violations"] == []
        assert payload["volume_bound_ok"] is True
        assert payload["params"]["upper_regime"] is True
        assert payload["params"]["lower_regime"] is True
        assert payload["params"]["a_k"] == pytest.approx(0.04726744594591781, rel=1e-12)

    def test_regime_flags_reported_without_failing(self, capsys):
        # alpha above a(K) loses the lower-regime guarantee but is not a
        # sequence-condition violation, so the exit code stays 0
        code, out, _ = run_cli(
            ["verify-constants", "--n-max", "200", "--alpha", "0.05"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["lower_regime"] is False
        assert math.isnan(payload["params"]["delta_sb"])

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "constants.json"
        code, stdout, _ = run_cli(
            ["verify-constants", "--n-max", "200", "--out", str(out)], capsys
        )
        assert code == 0
        assert stdout == ""
        assert json.loads(out.read_text())["volume_bound_ok"] is True


def test_full_pipeline_through_files(tmp_path, capsys):
    data = tmp_path / "data.json"
    post = tmp_path / "post.json"
    ball = tmp_path / "ball.json"

    assert dispatch(
        [
            "simulate",
            "--eps", "0.1",
            "--n", "64",
            "--kind", "parametric",
            "--params", '{"N0": 3, "Q": 4.0}',
            "--seed", "21",
            "--out", str(data),
        ]
    ) == 0
    assert dispatch(["posterior", "--data", str(data), "--out", str(post)]) == 0
    assert dispatch(
        ["ball", "--data", str(data), "--mc", "1000", "--seed", "5", "--out", str(ball)]
    ) == 0
    capsys.readouterr()

    weights = json.loads(post.read_text())["weights"]
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    payload = json.loads(ball.read_text())
    # a three-coordinate signal of size 2 against noise 0.1: the ball
    # centered by default must contain the truth comfortably
    truth = np.zeros(64)
    truth[:3] = 2.0
    center = np.asarray(payload["center"])
    assert np.linalg.norm(center - truth) <= payload["radius"] * 3
