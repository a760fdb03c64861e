"""Golden outputs of the default random stream.

Pins the CSV SHA-256 of every default experiment kind at a reduced scale.
Because the default small-ball CSVs read all zeros at that scale, it also
pins one small-ball CSV with nonzero psi at p = 0 and one at p = 1, and the
draw-dependent condition estimates phi1, psi and phi2 on a tiny fixture
under both center rules, at p = 0 and p = 1.  Three streams that reach no
CSV are pinned too: the oracle-inequality pilot ratios, which go only to the
JSON summary, the oversmoothing mass, and the ``seqcred ball`` radius and
center.  A refactor must leave every value here unchanged; a change that
alters the random stream on purpose says so and re-records the pins that
moved with

    PYTHONPATH=src python tests/test_golden.py --record

which prints every pin table in this file's layout, then the pins whose
values differ from the ones written here.  No pin is edited by hand.

Recorded with numpy 2.4.6 under Python 3.11.7.  The recorded stream depends
on numpy and Python, not on scipy: the package does not import it.  numpy
does not promise identical streams across versions, so a mismatch under
another numpy version may be a version effect rather than a regression.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from seqcred import (
    ConditionEstimate,
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
    ("contraction", 0.0): "b5a929deccc124c06b68fdedc4003601a92fd71336001de954691915c3c181a6",
    ("oracle-inequality", 0.0): "b938f8a829b2dde2b858e28db18ba546a2e05b5f1491fb357947f6f27074cb9f",
    ("small-ball", 0.0): "df2c045484b86b9472906650c990fe24eba8d830a26e55a8b0c5b74cd76cf693",
    ("coverage-size", 0.0): "2cf859fcf3ae4472447b5489235506eb2391209142d1414c7b24a3bfe45bad77",
    ("overshrinkage", 0.0): "280e9a0e722dcb62d397699a8e0d1d8077b25ca9c15836e4f9aed5f6013626c1",
    ("scale-adaptation", 0.0): "053b8b84634ef4a2a4fac19ba4fc40a7ad613c60aa9b0fd2b3ec1d261471f2eb",
}

#: p -> reps of the small-ball run with nonzero psi.  At p = 1 the posterior
#: puts so little mass in balls below the scale that GOLDEN_SCALE's 3 reps
#: read all zeros, so that run takes ten times as many.
NONZERO_REPS = {0.0: 3, 1.0: 30}

#: p -> (rows with nonzero psi out of 6, SHA-256 of the CSV) of the
#: small-ball run on sobolev-boundary at delta 0.5, 0.7, 0.9
SMALL_BALL_NONZERO = {
    0.0: (4, "fd4a72e7c33dfe6b56e7acfae3b9040f2f3fe20787970d79efe249db3d60d2cc"),
    1.0: (6, "b39b83386cbe836f96d916fa01dc6b9a865044d2d1dca3ee630c3b50dd29e754"),
}

#: p -> (phi1 M grid, psi delta grid, phi2 M grid), each straddling the
#: region where the estimate is strictly between 0 and 1.  A row whose every
#: value lies within 0.01 of 0 or of 1 under both center rules after a
#: stream change is re-chosen as the same number of consecutive points of
#: the doubling ladder 2^k, starting at the last point where the estimate
#: still reads its extreme (1 for phi1 and phi2, 0 for psi) under both
#: center rules.  The p = 1 phi2 row was re-chosen so when the index weights
#: moved to the K sigma_i^2 prior scale, and the p = 1 phi1 and psi rows
#: when the sampler began drawing only the coordinates a draw uses.
GRIDS = {
    0.0: ((1.0, 2.0, 4.0), (0.5, 1.0, 2.0), (1.0, 1.5, 2.0, 3.0)),
    1.0: ((1.0, 2.0, 4.0), (2.0, 4.0, 8.0), (2.0, 4.0, 8.0, 16.0)),
}

#: (p, center rule, condition) -> [(value, std_error) per grid point]
ESTIMATES = {
    (0.0, "default-center", "phi1"): [(0.7335, 0.13070163222648243), (0.0855, 0.035712976166467375), (0.002, 0.001414213562373095)],
    (0.0, "default-center", "psi"): [(0.00025, 0.00025), (0.11675, 0.09221295552505986), (0.7252500000000001, 0.14990239880224288)],
    (0.0, "default-center", "phi2"): [(1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25), (0.0, 0.0)],
    (0.0, "posterior-mean", "phi1"): [(0.7292500000000001, 0.13175379501175669), (0.07975000000000002, 0.033204856572495535), (0.0015, 0.0008660254037844387)],
    (0.0, "posterior-mean", "psi"): [(0.0, 0.0), (0.11025, 0.08896663700511556), (0.738, 0.13826122618676093)],
    (0.0, "posterior-mean", "phi2"): [(1.0, 0.0), (0.5, 0.28867513459481287), (0.25, 0.25), (0.0, 0.0)],
    (1.0, "default-center", "phi1"): [(1.0, 0.0), (0.99325, 0.00579331511312824), (0.797, 0.1659161434781639)],
    (1.0, "default-center", "psi"): [(0.0, 0.0), (0.05525, 0.05098917368749304), (0.261, 0.17791617876591964)],
    (1.0, "default-center", "phi2"): [(1.0, 0.0), (0.75, 0.25), (0.5, 0.28867513459481287), (0.25, 0.25)],
    (1.0, "posterior-mean", "phi1"): [(1.0, 0.0), (0.995, 0.0050000000000000044), (0.75575, 0.16104159659334397)],
    (1.0, "posterior-mean", "psi"): [(0.0, 0.0), (0.04675, 0.04674999999999999), (0.33599999999999997, 0.1975149783349776)],
    (1.0, "posterior-mean", "phi2"): [(1.0, 0.0), (0.5, 0.28867513459481287), (0.5, 0.28867513459481287), (0.25, 0.25)],
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
        199180.46931054266, 199180.46931054266, 199180.46931054268, 199180.46931054268,
        66.13627478379091, 23.292430348268784, 5.6485443428635245, 2.36011073908134,
        836.937601054089, 364.5623111786626, 123.68209412571372, 56.38917633740578,
        152.04872817171574, 98.7703363713807, 40.38089368274747, 24.425025655073103,
        2924.121841048555, 2173.4044528873346, 1153.5560155828546, 822.5285686618776,
    ],
}

#: oversmoothing_probability on sobolev-boundary beta 0.5 at n 256, eps 0.1,
#: p 0, K 2, alpha 0.01, kappa_frac 0.7, 6 reps, seed 5: (estimate,
#: std_error, per_rep), with mass in every rep
OVERSMOOTHING = (
    0.04400597151753304,
    0.04093290139409793,
    [
        0.0013071700676729615, 4.185702624183102e-07, 0.24834979727467832, 0.014314043460681908,
        7.126094404409862e-06, 5.72736374982321e-05,
    ],
)

#: ``seqcred ball --mc 1000 --seed 3`` on BALL_DATA: (radius, radius_std_error,
#: SHA-256 of the center as float64 bytes)
BALL_DATA = ["--eps", "0.1", "--n", "64", "--kind", "sobolev-boundary",
             "--params", '{"beta": 1.0, "Q": 1.0}', "--seed", "9"]
BALL = (0.4477218003416341, 0.0030038045387349444, "cd44f487c987da64fe69192e9d3f90011c5c6ac2301b4566ed131ee962de0b67")

#: the pin tables, in the order the recorder prints them
PIN_TABLES = ("CSV_SHA256", "SMALL_BALL_NONZERO", "ESTIMATES", "PILOT_RATIOS", "OVERSMOOTHING", "BALL")


# ---------------------------------------------------------------------------
# what each pin measures, shared by the tests and the recorder


def _csv_sha256(report) -> str:
    assert report.summary["failed_cells"] == []
    with tempfile.TemporaryDirectory() as tmp:
        path = write_report(report, "csv", Path(tmp) / "cells.csv")
        return hashlib.sha256(path.read_bytes()).hexdigest()


def default_csv_sha256(kind: str, p: float) -> str:
    return _csv_sha256(run_experiment(default_spec(kind, p=p, **GOLDEN_SCALE)))


def small_ball_nonzero(p: float) -> tuple[int, str]:
    spec = default_spec(
        "small-ball",
        p=p,
        signals=({"kind": "sobolev-boundary", "params": {"beta": 1.0, "Q": 1.0}},),
        delta_grid=(0.5, 0.7, 0.9),
        **{**GOLDEN_SCALE, "reps": NONZERO_REPS[p]},
    )
    report = run_experiment(spec)
    nonzero = sum(row["statistic"] > 0 for row in report.cells)
    return nonzero, _csv_sha256(report)


def condition_estimates(p: float, center_rule: str, condition: str) -> ConditionEstimate:
    estimator = {"phi1": estimate_phi1, "psi": estimate_psi, "phi2": estimate_phi2}[condition]
    grid = GRIDS[p][("phi1", "psi", "phi2").index(condition)]
    model = make_model(0.1, p, 96)
    signal = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=96)
    return estimator(
        grid, model, signal, DdmParams(K=2.0, alpha=0.04),
        center_rule=center_rule, reps=4, inner_mc=1000, seed=31,
    )


def _pairs(est: ConditionEstimate) -> list[tuple[float, float]]:
    """The (value, std error) pair at each grid point, as ESTIMATES holds them."""
    return list(zip(est.values.tolist(), est.std_errors.tolist()))


def pilot_ratios(p: float) -> list[float]:
    report = run_experiment(default_spec("oracle-inequality", p=p, **GOLDEN_SCALE))
    assert report.summary["failed_cells"] == []
    return [c["pilot_ratio"] for c in report.summary["cells"]]


def oversmoothing():
    model = make_model(0.1, 0.0, 256)
    signal = generate_signal("sobolev-boundary", {"beta": 0.5, "Q": 1.0}, n_trunc=256)
    return oversmoothing_probability(model, signal, DdmParams(K=2.0, alpha=0.01), 0.7, reps=6, seed=5)


def cli_ball() -> tuple[float, float, str]:
    with tempfile.TemporaryDirectory() as tmp:
        data = str(Path(tmp) / "data.json")
        assert dispatch(["simulate", *BALL_DATA, "--out", data]) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert dispatch(["ball", "--data", data, "--mc", "1000", "--seed", "3"]) == 0
    payload = json.loads(out.getvalue())
    center = hashlib.sha256(np.asarray(payload["center"], dtype=float).tobytes()).hexdigest()
    return payload["radius"], payload["radius_std_error"], center


def _version_note() -> str:
    return f"golden values recorded with numpy {RECORDED_NUMPY}, running {np.__version__}"


# ---------------------------------------------------------------------------
# the pins


def test_every_default_kind_is_pinned():
    assert {kind for kind, _ in CSV_SHA256} == set(EXPERIMENT_KINDS)


@pytest.mark.parametrize("kind, p", sorted(CSV_SHA256))
def test_default_spec_csv_hash(kind, p):
    assert default_csv_sha256(kind, p) == CSV_SHA256[(kind, p)], _version_note()


@pytest.mark.parametrize("p", sorted(SMALL_BALL_NONZERO))
def test_small_ball_csv_hash_with_nonzero_psi(p):
    nonzero, digest = small_ball_nonzero(p)
    assert nonzero > 0
    assert (nonzero, digest) == SMALL_BALL_NONZERO[p], _version_note()


@pytest.mark.parametrize("p, center_rule, condition", sorted(ESTIMATES))
def test_condition_estimates(p, center_rule, condition):
    est = condition_estimates(p, center_rule, condition)
    assert _pairs(est) == ESTIMATES[(p, center_rule, condition)], _version_note()
    assert est.center_flags == 0


@pytest.mark.parametrize("p", sorted(PILOT_RATIOS))
def test_oracle_inequality_pilot_ratios(p):
    assert pilot_ratios(p) == PILOT_RATIOS[p], _version_note()


def test_oversmoothing_probability():
    res = oversmoothing()
    assert (res.estimate, res.std_error, res.per_rep.tolist()) == OVERSMOOTHING, _version_note()
    assert all(v > 0 for v in res.per_rep)


def test_cli_ball():
    assert cli_ball() == BALL, _version_note()


def test_recorder_prints_the_file_layout():
    """Each pin table, printed by the recorder from its current value,
    appears verbatim in this file, so a re-record is a copy of its output."""
    source = Path(__file__).read_text()
    for name in PIN_TABLES:
        assert f"\n{name} = {_layout(globals()[name])}\n" in source, name


# ---------------------------------------------------------------------------
# the recorder: python tests/test_golden.py --record


def _literal(value) -> str:
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (tuple, list)):
        inner = ", ".join(_literal(v) for v in value)
        return f"({inner})" if isinstance(value, tuple) else f"[{inner}]"
    return repr(value)


def _layout(value, indent: int = 0) -> str:
    """A pin value as Python source: a dict one entry per line, a sequence
    longer than four (or holding one) one item per line, scalars four to a
    line, anything else on one line."""
    pad, end = " " * (indent + 4), " " * indent
    if isinstance(value, dict):
        body = "".join(f"{pad}{_literal(k)}: {_layout(v, indent + 4)},\n" for k, v in value.items())
        return "{\n" + body + end + "}"
    long = isinstance(value, (tuple, list)) and (
        len(value) > 4 or any(isinstance(v, (tuple, list)) and len(v) > 4 for v in value)
    )
    if not long:
        return _literal(value)
    if any(isinstance(v, (tuple, list, dict)) for v in value):
        items = [_layout(v, indent + 4) for v in value]
    else:
        items = [", ".join(_literal(v) for v in value[i : i + 4]) for i in range(0, len(value), 4)]
    opening, closing = ("(", ")") if isinstance(value, tuple) else ("[", "]")
    return opening + "\n" + "".join(f"{pad}{item},\n" for item in items) + end + closing


def record() -> dict:
    """Every pin table as the code computes it now."""
    res = oversmoothing()
    return {
        "CSV_SHA256": {key: default_csv_sha256(*key) for key in CSV_SHA256},
        "SMALL_BALL_NONZERO": {p: small_ball_nonzero(p) for p in SMALL_BALL_NONZERO},
        "ESTIMATES": {key: _pairs(condition_estimates(*key)) for key in ESTIMATES},
        "PILOT_RATIOS": {p: pilot_ratios(p) for p in PILOT_RATIOS},
        "OVERSMOOTHING": (res.estimate, res.std_error, res.per_rep.tolist()),
        "BALL": cli_ball(),
    }


def _diff(name: str, before, after) -> list[str]:
    if not isinstance(before, dict):
        before, after = {None: before}, {None: after}
    lines = []
    for key in before:
        if before[key] != after[key]:
            label = name if key is None else f"{name}[{_literal(key)}]"
            lines += [f"{label}:", f"  before: {_literal(before[key])}", f"  after:  {_literal(after[key])}"]
    return lines


def main(argv: list[str]) -> int:
    if argv != ["--record"]:
        print("usage: python tests/test_golden.py --record", file=sys.stderr)
        return 2
    now = record()
    print(f"# recorded with numpy {np.__version__} under Python {sys.version.split()[0]}\n")
    for name in PIN_TABLES:
        print(f"{name} = {_layout(now[name])}\n")
    changed = [line for name in PIN_TABLES for line in _diff(name, globals()[name], now[name])]
    print("\n".join(["# pins that differ from this file:", *changed]) if changed else "# every pin equals this file")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
