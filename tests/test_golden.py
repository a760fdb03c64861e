"""Golden outputs of the default random stream.

Pins the CSV SHA-256 of every default experiment kind at a reduced scale.
Because the default small-ball CSVs read all zeros at that scale, it also
pins one small-ball CSV with nonzero psi, and the draw-dependent condition
estimates phi1, psi and phi2 on a tiny fixture under both center rules, at
p = 0 and p = 1.  A refactor must leave every value here
unchanged; a change that alters the random stream on purpose says so and
re-records them.

Recorded with numpy 2.4.6 (Python 3.11.7, scipy 1.17.1).  numpy does not
promise identical streams across versions, so a mismatch under another
numpy version may be a version effect rather than a regression.
"""

import hashlib

import numpy as np
import pytest

from seqcred import (
    DdmParams,
    estimate_phi1,
    estimate_phi2,
    estimate_psi,
    generate_signal,
    make_model,
)
from seqcred.experiments import EXPERIMENT_KINDS, default_spec, run_experiment, write_report

RECORDED_NUMPY = "2.4.6"

#: n_trunc 256 is the smallest power of two at which the deceptive signal builds
GOLDEN_SCALE = dict(n_trunc=256, reps=3, pilot_reps=2, inner_mc=1000)

#: (kind, p) -> SHA-256 of the CSV
CSV_SHA256 = {
    ("contraction", 0.0): "6f807e0934bd842388690f9823177d1c00c2e6f6cf4a451d226001a2a1fb13e8",
    ("oracle-inequality", 0.0): "b938f8a829b2dde2b858e28db18ba546a2e05b5f1491fb357947f6f27074cb9f",
    ("small-ball", 0.0): "df2c045484b86b9472906650c990fe24eba8d830a26e55a8b0c5b74cd76cf693",
    ("small-ball", 1.0): "df2c045484b86b9472906650c990fe24eba8d830a26e55a8b0c5b74cd76cf693",
    ("coverage-size", 0.0): "48a5b7f826670ed59d7dcc72fdf2d815038dd3d6e0ca26f9a84bc96f6699a0ca",
    ("overshrinkage", 0.0): "280e9a0e722dcb62d397699a8e0d1d8077b25ca9c15836e4f9aed5f6013626c1",
    ("scale-adaptation", 0.0): "053b8b84634ef4a2a4fac19ba4fc40a7ad613c60aa9b0fd2b3ec1d261471f2eb",
}

#: small-ball CSV with nonzero psi in 3 of its 6 rows, unlike the all-zero
#: default small-ball pins above
SMALL_BALL_NONZERO_SHA256 = "a57b33c052d0691849d4dda248e84b41e8e4bbcf4b74da4f006b1a07fb660478"

#: p -> (phi1 M grid, psi delta grid, phi2 M grid), each straddling the
#: region where the estimate is strictly between 0 and 1
GRIDS = {
    0.0: ((1.0, 2.0, 4.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0, 3.0)),
    1.0: ((96.0, 128.0, 160.0), (160.0, 192.0, 224.0), (128.0, 136.0, 144.0, 152.0)),
}

#: (p, center rule, condition) -> [(value, std_error) per grid point]
ESTIMATES = {
    (0.0, "default-center", "phi1"): [(0.737, 0.12643970895252804), (0.0845, 0.033740430742162535), (0.00125, 0.00075)],
    (0.0, "default-center", "psi"): [(0.0, 0.0), (0.10675, 0.08447324527130863), (0.7205, 0.14604422846065046)],
    (0.0, "default-center", "phi2"): [(1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25), (0.0, 0.0)],
    (0.0, "posterior-mean", "phi1"): [(0.7425, 0.12959070182694435), (0.07925, 0.0330261891029932), (0.00075, 0.0004787135538781691)],
    (0.0, "posterior-mean", "psi"): [(0.00025, 0.00025), (0.1165, 0.09131310603266836), (0.734, 0.14123089841343736)],
    (0.0, "posterior-mean", "phi2"): [(1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25), (0.0, 0.0)],
    (1.0, "default-center", "phi1"): [(0.9874999999999999, 0.003068658773253664), (0.314, 0.03836882415016996), (0.002, 0.0)],
    (1.0, "default-center", "psi"): [(0.03275, 0.005893145736079049), (0.46275000000000005, 0.03911814370169765), (0.93275, 0.012736921396737376)],
    (1.0, "default-center", "phi2"): [(1.0, 0.0), (1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25)],
    (1.0, "posterior-mean", "phi1"): [(0.9877499999999999, 0.0012500000000000011), (0.29075, 0.024682568072764758), (0.0022500000000000003, 0.00025)],
    (1.0, "posterior-mean", "psi"): [(0.03625, 0.007215434844830906), (0.46975000000000006, 0.033109351649747945), (0.9315, 0.010070584226680517)],
    (1.0, "posterior-mean", "phi2"): [(1.0, 0.0), (1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25)],
}


def _version_note() -> str:
    return f"golden values recorded with numpy {RECORDED_NUMPY}, running {np.__version__}"


def test_every_default_kind_is_pinned():
    assert {kind for kind, _ in CSV_SHA256} == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind, p", sorted(CSV_SHA256))
def test_default_spec_csv_hash(kind, p, tmp_path):
    report = run_experiment(default_spec(kind, p=p, **GOLDEN_SCALE))
    assert report.summary["failed_cells"] == []
    path = write_report(report, "csv", tmp_path / "cells.csv")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == CSV_SHA256[(kind, p)], _version_note()


def test_small_ball_csv_hash_with_nonzero_psi(tmp_path):
    spec = default_spec(
        "small-ball",
        p=0.0,
        signals=({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},),
        delta_grid=(0.5, 0.7, 0.9),
        **GOLDEN_SCALE,
    )
    report = run_experiment(spec)
    assert report.summary["failed_cells"] == []
    path = write_report(report, "csv", tmp_path / "cells.csv")
    assert sum(float(line.split(",")[-3]) > 0 for line in path.read_text().splitlines()[1:]) == 3
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SMALL_BALL_NONZERO_SHA256, _version_note()


@pytest.mark.parametrize("p, center_rule, condition", sorted(ESTIMATES))
def test_condition_estimates(p, center_rule, condition):
    estimator = {"phi1": estimate_phi1, "psi": estimate_psi, "phi2": estimate_phi2}[condition]
    grid = GRIDS[p][("phi1", "psi", "phi2").index(condition)]
    model = make_model(0.1, p, 96)
    signal = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=96)
    ests = estimator(
        grid, model, signal, DdmParams(K=2.0, alpha=0.04),
        center_rule=center_rule, reps=4, inner_mc=1000, seed=31,
    )
    assert [(e.value, e.std_error) for e in ests] == ESTIMATES[(p, center_rule, condition)], _version_note()
    assert all(e.center_flags == 0 for e in ests)
