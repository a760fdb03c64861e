"""Golden outputs of the default random stream.

Pins the CSV SHA-256 of every default experiment kind at a reduced scale.
Because the default small-ball CSVs read all zeros at that scale, it also
pins one small-ball CSV with nonzero psi, and the draw-dependent condition
estimates phi1, psi and phi2 on a tiny fixture under both center rules, at
p = 0 and p = 1.  Three streams that reach no CSV are pinned too: the
oracle-inequality pilot ratios, which go only to the JSON summary, the
oversmoothing mass, and the ``seqcred ball`` radius and center.  A refactor
must leave every value here
unchanged; a change that alters the random stream on purpose says so and
re-records them.

Recorded with numpy 2.4.6 under Python 3.11.7.  The recorded stream depends
on numpy and Python, not on scipy: the package does not import it.  numpy
does not promise identical streams across versions, so a mismatch under
another numpy version may be a version effect rather than a regression.
"""

import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from seqcred import (
    DdmParams,
    estimate_phi1,
    estimate_phi2,
    estimate_psi,
    generate_signal,
    make_model,
    oversmoothing_probability,
)
from seqcred.cli import dispatch
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

#: p -> oracle-inequality pilot_ratio of each cell at GOLDEN_SCALE
PILOT_RATIOS = {
    0.0: [
        38.45559284438721, 38.45559284438721, 38.45559284438737, 38.45559284438737,
        1.4215875074182784, 2.086371659655545, 1.5696098316671894, 1.5511373963304576,
        4.752937261176513, 3.087936354242216, 1.8263082320538575, 1.400485565066861,
        3.020351755235605, 2.166176483830318, 1.506813290663252, 1.2192519689718229,
        7.158253719242514, 6.629663023099901, 6.758986754808076, 6.08288848920703,
    ],
    1.0: [
        5662645.529187616, 5662645.529187616, 5662645.529187616, 5662645.529187616,
        141725.06460727222, 50879.9001135736, 12851.531037785855, 4586.373798722088,
        381131.01085498894, 161381.7049823441, 53230.083596659715, 23215.68501141107,
        896653.2343855901, 578700.7688566048, 234989.20476641998, 142033.8060011827,
        384075.6762438994, 193256.78740307267, 87300.84266440966, 52491.90391115599,
    ],
}

#: oversmoothing_probability on sobolev-boundary beta 0.5 at n 256, eps 0.1,
#: p 0, K 2, alpha 0.01, kappa_frac 0.7, 6 reps, seed 5: (estimate,
#: std_error, per_rep), with mass in every rep
OVERSMOOTHING = (
    0.04400597151753304,
    0.04093290139409793,
    [0.0013071700676729615, 4.185702624183102e-07, 0.24834979727467832,
     0.014314043460681908, 7.126094404409862e-06, 5.72736374982321e-05],
)

#: ``seqcred ball --mc 1000 --seed 3`` on BALL_DATA: (radius, radius_std_error,
#: SHA-256 of the center as float64 bytes)
BALL_DATA = ["--eps", "0.1", "--n", "64", "--kind", "sobolev-boundary",
             "--params", '{"beta": 1.0, "Q": 1.0}', "--seed", "9"]
BALL = (0.44303753902444065, 0.0025194950514478565,
        "cd44f487c987da64fe69192e9d3f90011c5c6ac2301b4566ed131ee962de0b67")


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


@pytest.mark.parametrize("p", sorted(PILOT_RATIOS))
def test_oracle_inequality_pilot_ratios(p):
    report = run_experiment(default_spec("oracle-inequality", p=p, **GOLDEN_SCALE))
    assert report.summary["failed_cells"] == []
    assert [c["pilot_ratio"] for c in report.summary["cells"]] == PILOT_RATIOS[p], _version_note()


def test_oversmoothing_probability():
    model = make_model(0.1, 0.0, 256)
    signal = generate_signal("sobolev-boundary", {"beta": 0.5, "Q": 1.0}, n_trunc=256)
    res = oversmoothing_probability(model, signal, DdmParams(K=2.0, alpha=0.01), 0.7, reps=6, seed=5)
    assert (res.estimate, res.std_error, res.per_rep.tolist()) == OVERSMOOTHING, _version_note()
    assert all(v > 0 for v in res.per_rep)


def test_cli_ball(tmp_path):
    data = tmp_path / "data.json"
    assert dispatch(["simulate", *BALL_DATA, "--out", str(data)]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert dispatch(["ball", "--data", str(data), "--mc", "1000", "--seed", "3"]) == 0
    payload = json.loads(out.getvalue())
    center = hashlib.sha256(np.asarray(payload["center"], dtype=float).tobytes()).hexdigest()
    assert (payload["radius"], payload["radius_std_error"], center) == BALL, _version_note()
