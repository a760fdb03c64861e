"""Acceptance checklist.

One test per numbered item.  Every test prints a single line

    criterion NN: PASS - <measured numbers>

before asserting, so a ``pytest tests/test_acceptance.py -v -s`` run
reads as a thirteen-line checklist with the measurements inline.  The
expensive Monte-Carlo reports are shared through module-scoped
fixtures, and everything is seeded: reruns print identical numbers.

Desk scale throughout: n_trunc = 1024, K = 2, alpha = 0.04 unless an
item pins something else.
"""

import math

import numpy as np
import pytest

from seqcred.diagnostics import ball_volume_bound, oversmoothing_probability
from seqcred.experiments import ExperimentSpec, default_spec, run_experiment, write_report
from seqcred.model import generate_signal, make_model, simulate
from seqcred.oracle import ebr_check, pt_check, pt_to_ebr_tau, verify_sigma_conditions
from seqcred.posterior import DdmParams, crit, eb_index, mixture_weights

from test_posterior import direct_log_weights

pytestmark = pytest.mark.acceptance

DESK_N = 1024


def _line(num: int, ok: bool, detail: str) -> str:
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def _signal_rotation(idx):
    """A fixed rotation of signal families used by the dataset criteria."""
    table = (
        ("zero", {}),
        ("sobolev-random", {"beta": 1.0, "Q": 1.0}),
        ("sobolev-boundary", {"beta": 0.5, "Q": 4.0}),
        ("parametric", {"N0": 3, "Q": 4.0}),
        ("analytic", {"c": 1.0, "d": 1.0, "Q": 2.0}),
    )
    return table[idx % len(table)]


# ---------------------------------------------------------------------------
# shared experiment runs (each fixture is consumed by one or two items)


@pytest.fixture(scope="module")
def oracle_inequality_report():
    return run_experiment(default_spec("oracle-inequality"))


@pytest.fixture(scope="module")
def contraction_report():
    return run_experiment(default_spec("contraction"))


@pytest.fixture(scope="module")
def small_ball_reports():
    base = default_spec("small-ball").to_dict()
    return {
        p: run_experiment(ExperimentSpec.from_dict({**base, "p": p}))
        for p in (0.0, 1.0)
    }


@pytest.fixture(scope="module")
def coverage_report():
    return run_experiment(default_spec("coverage-size"))


@pytest.fixture(scope="module")
def overshrinkage_report():
    return run_experiment(default_spec("overshrinkage"))


# ---------------------------------------------------------------------------
# 1-2: exact equivalences on random datasets


def test_criterion_01_weight_recursion_matches_direct_evaluation():
    base = np.random.SeedSequence(20260818)
    params = DdmParams()
    worst_log = 0.0
    worst_sum = 0.0
    for idx, child in enumerate(base.spawn(100)):
        p = float(idx % 2)
        kind, kp = _signal_rotation(idx)
        sig_seed, data_seed = child.spawn(2)
        model = make_model(0.1, p, 200)
        signal = generate_signal(kind, kp, n_trunc=200, seed=sig_seed)
        data = simulate(model, signal, int(data_seed.generate_state(1)[0]))
        weights = mixture_weights(data, params)
        lw_direct = direct_log_weights(data, params, 200)
        # both sides are normalized log-weights, so the log gap is the
        # relative error of the weights themselves
        worst_log = max(worst_log, float(np.max(np.abs(weights.log_w - lw_direct))))
        worst_sum = max(
            worst_sum,
            abs(float(weights.w.sum()) - 1.0),
            abs(float(np.exp(lw_direct).sum()) - 1.0),
        )
    ok = worst_log <= 1e-10 and worst_sum <= 1e-12
    line = _line(
        1,
        ok,
        f"100 datasets (n=200, p alternating 0/1): max relative weight error "
        f"{worst_log:.2e} (tol 1e-10), worst |sum-1| {worst_sum:.2e} (tol 1e-12)",
    )
    assert ok, line


def test_criterion_02_eb_index_is_the_penalized_argmin():
    base = np.random.SeedSequence(411)
    params = DdmParams()
    model = make_model(0.1, 0.0, 200)
    mismatches = []
    for idx, child in enumerate(base.spawn(100)):
        kind, kp = _signal_rotation(idx)
        sig_seed, data_seed = child.spawn(2)
        signal = generate_signal(kind, kp, n_trunc=200, seed=sig_seed)
        data = simulate(model, signal, int(data_seed.generate_state(1)[0]))
        i_hat = eb_index(mixture_weights(data, params))
        crits = np.array([crit(data, params, i) for i in range(1, 201)])
        i_direct = int(np.argmin(crits)) + 1
        if i_hat != i_direct:
            mismatches.append((idx, i_hat, i_direct))
    ok = not mismatches
    line = _line(
        2,
        ok,
        f"100 direct-case datasets: eb_index == argmin of the penalized "
        f"criterion in {100 - len(mismatches)}/100 cases"
        + (f", first mismatch {mismatches[0]}" if mismatches else ""),
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 3: the polished-tail class sits inside the excess-bias class


def _sample_polished_tail_signal(rng):
    """Draw one signal from a family mix tilted towards tail-controlled decay."""
    u = rng.random()
    amp = 10.0 ** rng.uniform(-1.0, 1.0)
    if u < 0.35:
        beta = rng.uniform(0.3, 2.5)
        return generate_signal("sobolev-boundary", {"beta": beta, "Q": amp}, DESK_N)
    if u < 0.55:
        q = rng.uniform(0.05, 0.65)
        i = np.arange(1, DESK_N + 1, dtype=float)
        coeffs = np.sqrt(amp) * q ** (i / 2.0)
        return generate_signal("custom", {"coeffs": coeffs}, DESK_N)
    if u < 0.75:
        c = rng.uniform(0.5, 2.0)
        return generate_signal("analytic", {"c": c, "d": 1.0, "Q": amp}, DESK_N)
    if u < 0.85:
        n0 = int(rng.integers(1, 4))
        return generate_signal("parametric", {"N0": n0, "Q": amp}, DESK_N)
    beta = rng.uniform(0.5, 2.0)
    return generate_signal(
        "sobolev-random", {"beta": beta, "Q": amp}, DESK_N, seed=rng
    )


def test_criterion_03_polished_tail_signals_pass_the_excess_bias_check():
    tau = pt_to_ebr_tau(2.0, 1, 2.0, 0.0)
    assert tau == pytest.approx(6.0, rel=1e-14)
    model = make_model(0.1, 0.0, DESK_N)
    rng = np.random.default_rng(np.random.SeedSequence(551234))
    accepted = 0
    attempts = 0
    failures = 0
    max_ratio = 0.0
    while accepted < 1000 and attempts < 4000:
        attempts += 1
        signal = _sample_polished_tail_signal(rng)
        if not pt_check(signal, 2.0, 1, 2.0):
            continue
        accepted += 1
        res = ebr_check(signal, model, tau)
        max_ratio = max(max_ratio, res.ratio)
        failures += not res.member
    assert accepted == 1000, f"sampler produced only {accepted} signals in {attempts} tries"
    ok = failures == 0
    line = _line(
        3,
        ok,
        f"1000 sampled tail-controlled signals (from {attempts} draws), "
        f"{failures} excess-bias failures at tau={tau:g}, max ratio {max_ratio:.3f}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 4-5: deterministic sweeps


def test_criterion_04_variance_sequence_conditions_hold():
    worst_margin = math.inf
    violations = 0
    for p in (0.0, 0.5, 1.0, 2.0):
        res = verify_sigma_conditions(
            make_model(1.0, p, 10_000), 10_000, rho=2.0, gamma=0.5, tau0=2.0
        )
        violations += len(res.violations)
        worst_margin = min(worst_margin, min(res.margins.values()))
        if not res.passed:
            violations += 1
    ok = violations == 0
    line = _line(
        4,
        ok,
        f"p in {{0, 0.5, 1, 2}}, n <= 1e4: {violations} violations, "
        f"smallest condition margin {worst_margin:.4f}",
    )
    assert ok, line


def test_criterion_05_volume_bound_dominates_exact_ball_volume():
    worst_slack = math.inf
    worst_at = None
    bad = 0
    for k in range(1, 201):
        for r in (0.1, 1.0, 10.0):
            v = ball_volume_bound(k, r)
            slack = v.log_bound - v.log_exact
            if slack < 0:
                bad += 1
            if slack < worst_slack:
                worst_slack, worst_at = slack, (k, r)
    ok = bad == 0
    line = _line(
        5,
        ok,
        f"k=1..200 x r in {{0.1, 1, 10}}: {bad} violations, smallest "
        f"log slack {worst_slack:.4f} at (k, r)={worst_at}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 6-8: Monte-Carlo shape checks


def test_criterion_06_risk_ratio_flat_in_noise_and_pilot_bounded(oracle_inequality_report):
    s = oracle_inequality_report.summary
    slopes_txt = ", ".join(f"{k} {v:+.3f}" for k, v in sorted(s["slopes"].items()))
    ok = bool(s["slopes_ok"] and s["within_bound"] and not s["failed_cells"])
    line = _line(
        6,
        ok,
        f"risk/oracle-rate ratio: log-log slopes vs eps [{slopes_txt}] "
        f"(tol +-0.15), max ratio {s['max_ratio']:.2f} vs pilot bound "
        f"{s['ratio_bound']:.2f}",
    )
    assert ok, line


def test_criterion_07_posterior_tail_mass_halves_with_the_radius_multiple(contraction_report):
    s = contraction_report.summary
    cell = s["cells"][0]
    est_txt = ", ".join(f"{v:.3g}" for v in cell["estimates"])
    ok = bool(s["all_nonincreasing"] and s["all_halving"] and not s["failed_cells"])
    line = _line(
        7,
        ok,
        f"tail mass at M in {cell['m_grid']}: [{est_txt}] nonincreasing="
        f"{s['all_nonincreasing']}, consecutive ratios all <= 0.5: {s['all_halving']}",
    )
    assert ok, line


def test_criterion_08_small_ball_mass_under_linear_log_envelope(small_ball_reports):
    ok = True
    parts = []
    for p, report in sorted(small_ball_reports.items()):
        if report.summary["failed_cells"]:
            ok = False
            parts.append(f"p={p:g}: failed cells")
            continue
        for cell in report.summary["cells"]:
            sc = cell["scalings"]["sigma-sum-surrogate"]
            ok = ok and bool(sc["envelope_ok"])
            est_txt = ", ".join(f"{v:.2g}" for v in sc["estimates"])
            parts.append(f"p={p:g}: psi=[{est_txt}], C_hat={sc['c_hat']:.2g}")
    line = _line(8, ok, "; ".join(parts) + " (fitted at delta=0.1, must dominate)")
    assert ok, line


# ---------------------------------------------------------------------------
# 9-10: coverage and size of the calibrated ball


def test_criterion_09_calibrated_ball_covers_and_stays_small(coverage_report):
    s = coverage_report.summary
    ok = bool(s["coverage_ok"] and s["size_ok"] and not s["failed_cells"])
    line = _line(
        9,
        ok,
        f"C={s['inflation_C']:.3f}, c={s['size_c']:.3f}: min coverage over "
        f"excess-bias cells {s['min_ebr_coverage']:.3f} (need >= 0.90), max "
        f"size frequency {s['max_size_freq']:.3f} (need <= 0.05)",
    )
    assert ok, line


def test_criterion_10_deceptive_signal_breaks_coverage_separately(coverage_report):
    s = coverage_report.summary
    ok = s["deceptive_separated"] is True
    line = _line(
        10,
        ok,
        f"deceptive coverage {s.get('deceptive_max_coverage', float('nan')):.3f} vs "
        f"minimum over excess-bias cells {s['min_ebr_coverage']:.3f}, separated by "
        f"more than 3 combined std errors: {s['deceptive_separated']}",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 11: mass on heavily-oversmoothing indices


def test_criterion_11_oversmoothing_mass_below_exponential_bound():
    params = DdmParams()
    kappa_zero = (params.a_k - params.alpha) / params.a_k
    frac = kappa_zero / 2.0
    worst_gap = math.inf
    max_est = 0.0
    min_bound = math.inf
    bad = 0
    seed = 0
    for beta in (0.5, 1.0, 2.0):
        signal = generate_signal("sobolev-boundary", {"beta": beta, "Q": 1.0}, DESK_N)
        for eps in (0.1, 0.05, 0.02, 0.01):
            seed += 1
            res = oversmoothing_probability(
                make_model(eps, 0.0, DESK_N), signal, params, frac, reps=500, seed=seed
            )
            gap = res.bound + 3.0 * res.std_error - res.estimate
            worst_gap = min(worst_gap, gap)
            max_est = max(max_est, res.estimate)
            min_bound = min(min_bound, res.bound)
            bad += gap < 0
    ok = bad == 0
    line = _line(
        11,
        ok,
        f"beta in {{0.5, 1, 2}} x 4 noise levels at kappa_frac={frac:.4f}: "
        f"max estimate {max_est:.4f}, smallest bound {min_bound:.2f}, "
        f"{bad} exceedances",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 12: the shrunk variant really shrinks, the mixture variant does not


def test_criterion_12_shrunk_variant_tracks_shrunk_truth_within_one_percent(overshrinkage_report):
    s = overshrinkage_report.summary
    cell = s["cells"][0]
    ok = bool(s["tracking_ok"] and s["cross_gap_large"] and not s["failed_cells"])
    line = _line(
        12,
        ok,
        f"eps=1e-3 head coordinates: mixture-vs-truth rel {cell['max_rel']['mixture-vs-truth']:.2e}, "
        f"shrunk-vs-shrunk-target rel {cell['max_rel']['shrunk-vs-shrunk-target']:.2e} "
        f"(tol 1e-2), smallest cross gap {s['min_cross_gap']:.3f} (need > 0.1)",
    )
    assert ok, line


# ---------------------------------------------------------------------------
# 13: rerunning a spec is byte-identical


def test_criterion_13_rerunning_a_spec_yields_byte_identical_csv(tmp_path):
    spec = ExperimentSpec.from_dict(
        {
            **default_spec("contraction").to_dict(),
            "n_trunc": 256,
            "reps": 40,
            "inner_mc": 1000,
            "master_seed": 11,
        }
    )
    paths = []
    for k in range(2):
        report = run_experiment(spec)
        paths.append(write_report(report, format="csv", path=tmp_path / f"run{k}.csv"))
    first, second = (p.read_bytes() for p in paths)
    ok = first == second
    line = _line(
        13,
        ok,
        f"same spec run twice: {len(first)} CSV bytes, identical={ok}",
    )
    assert ok, line
