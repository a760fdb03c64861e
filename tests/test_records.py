"""Every record keeps its own copy of what it is given: the arrays it
stores are read-only copies that share no memory with the caller's, and a
spec shares no dict with its caller, its to_dict() results or the default
signal panels."""

import numpy as np
import pytest

from seqcred import (
    CredibleBall,
    Ellipsoid,
    ExperimentSpec,
    Hyperrectangle,
    MixtureWeights,
    ObservedData,
    Signal,
    default_center,
    default_spec,
    make_confidence_ball,
    make_model,
    make_posterior,
)

RECORDS = {
    "Signal": (lambda a: Signal(a, "custom"), "coeffs"),
    "ObservedData": (lambda a: ObservedData(a, make_model(0.1, 0.0, 2), None), "x"),
    "MixtureWeights": (lambda a: MixtureWeights(a), "log_w"),
    "CredibleBall": (lambda a: CredibleBall(a, radius=1.0, level=0.95, inflation=1.0), "center"),
    "Ellipsoid": (lambda a: Ellipsoid(a), "a"),
    "Hyperrectangle": (lambda a: Hyperrectangle(a), "a"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_stores_a_frozen_copy(name):
    build, attr = RECORDS[name]
    a = np.array([2.0, 1.0])
    record = build(a)
    stored = getattr(record, attr)
    assert a.flags.writeable
    assert not stored.flags.writeable
    assert not np.shares_memory(stored, a)
    a[1] = 5.0
    assert getattr(record, attr).tolist() == [2.0, 1.0]


def test_later_write_leaves_a_class_as_validated():
    a = np.array([2.0, 1.0])
    ellipsoid = Ellipsoid(a)
    a[1] = 5.0
    assert not ellipsoid.contains([0.0, 3.0])


def test_confidence_ball_leaves_the_default_center_writable(small_data, params):
    dc = default_center(make_posterior(small_data, params), mc_samples=1000, seed=3)
    assert dc.center.flags.writeable
    ball = make_confidence_ball(dc.center, 1.0)
    assert dc.center.flags.writeable
    assert not np.shares_memory(ball.center, dc.center)


def _coverage_spec(signals) -> ExperimentSpec:
    return ExperimentSpec(kind="coverage-size", signals=signals, n_trunc=64, reps=2, pilot_reps=2,
                          inner_mc=1000)


def test_spec_keeps_its_own_signal_dicts():
    signals = [{"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}}]
    spec = _coverage_spec(signals)
    signals[0]["params"]["beta"] = 7.0
    signals[0]["kind"] = "zero"
    assert spec.signals == ({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},)


def test_spec_to_dict_hands_out_copies():
    spec = _coverage_spec([{"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}}])
    d = spec.to_dict()
    d["signals"][0]["params"]["beta"] = 7.0
    assert spec.signals[0]["params"]["beta"] == 1.0
    assert spec.to_dict()["signals"][0]["params"]["beta"] == 1.0


def test_default_spec_shares_no_dict_with_the_default_panel():
    before = default_spec("coverage-size").to_json()
    default_spec("coverage-size").signals[1]["params"]["beta"] = 7.0
    assert default_spec("coverage-size").to_json() == before
