"""Condition estimators, oversmoothing mass, ball volumes."""

import inspect
import math

import numpy as np
import pytest

from seqcred import credible, diagnostics
from seqcred import (
    DdmParams,
    ball_volume_bound,
    default_center,
    estimate_phi1,
    estimate_phi2,
    estimate_psi,
    generate_signal,
    make_model,
    make_posterior,
    mean_and_se,
    oversmoothing_probability,
    replicate,
    sample_posterior,
    stream,
)
from seqcred.streams import data_set

SMALL = dict(reps=12, inner_mc=1000, seed=31)


def _fields(est) -> dict:
    """A ConditionEstimate's fields, its arrays as lists, for comparison."""
    return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in vars(est).items()}


@pytest.fixture(scope="module")
def tiny_model():
    return make_model(0.1, 0.0, 96)


@pytest.fixture(scope="module")
def tiny_signal():
    return generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=96)


class TestConditionEstimators:
    def test_phi1_monotone_on_shared_draws(self, tiny_model, tiny_signal, params):
        est = estimate_phi1([1.0, 2.0, 4.0], tiny_model, tiny_signal, params, **SMALL)
        vals = est.values.tolist()
        assert vals == sorted(vals, reverse=True)
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_phi1_at_zero_radius_is_one(self, tiny_model, tiny_signal, params):
        est = estimate_phi1(0.0, tiny_model, tiny_signal, params, **SMALL)
        assert est.values.tolist() == [1.0]
        assert est.kind == "phi1"

    def test_phi1_vanishes_at_huge_radius(self, tiny_model, tiny_signal, params):
        est = estimate_phi1(1e6, tiny_model, tiny_signal, params, **SMALL)
        assert est.values.tolist() == [0.0]

    def test_scalar_vs_grid_return(self, tiny_model, tiny_signal, params):
        """A scalar argument and its one-point grid give the same record of
        length-1 arrays."""
        one = estimate_phi1(2.0, tiny_model, tiny_signal, params, **SMALL)
        grid = estimate_phi1([2.0], tiny_model, tiny_signal, params, **SMALL)
        for est in (one, grid):
            assert est.grid.shape == est.values.shape == est.std_errors.shape == (1,)
        assert _fields(one) == _fields(grid)

    def test_grid_shares_the_draws_of_its_points(self, tiny_model, tiny_signal, params):
        """Point k of a grid estimate equals the estimate at grid[k] alone."""
        grid = estimate_psi([0.05, 0.5], tiny_model, tiny_signal, params, **SMALL)
        for k, delta in enumerate(grid.grid.tolist()):
            one = estimate_psi(delta, tiny_model, tiny_signal, params, **SMALL)
            assert (one.values[0], one.std_errors[0]) == (grid.values[k], grid.std_errors[k])

    def test_deterministic(self, tiny_model, tiny_signal, params):
        a = estimate_phi1(2.0, tiny_model, tiny_signal, params, **SMALL)
        b = estimate_phi1(2.0, tiny_model, tiny_signal, params, **SMALL)
        assert _fields(a) == _fields(b)

    def test_psi_monotone_and_saturates(self, tiny_model, tiny_signal, params):
        est = estimate_psi([0.05, 0.5, 1e6], tiny_model, tiny_signal, params, **SMALL)
        vals = est.values.tolist()
        assert vals == sorted(vals)
        assert vals[-1] == 1.0  # the huge ball swallows every draw

    def test_psi_scale_choices(self, tiny_model, tiny_signal, params):
        from seqcred import oracle, surrogate_oracle

        a = estimate_psi(0.1, tiny_model, tiny_signal, params, scaling="oracle-rate", **SMALL)
        b = estimate_psi(0.1, tiny_model, tiny_signal, params, **SMALL)
        assert a.scale == pytest.approx(oracle(tiny_signal, tiny_model).rate)
        assert b.scale == pytest.approx(
            math.sqrt(surrogate_oracle(tiny_signal, tiny_model).sigma_sum)
        )

    def test_phi2_monotone(self, tiny_model, tiny_signal, params):
        est = estimate_phi2([0.5, 1.0, 8.0], tiny_model, tiny_signal, params,
                            reps=12, seed=31)
        vals = est.values.tolist()
        assert vals == sorted(vals, reverse=True)
        assert est.inner_mc == 0  # no inner draws are recorded for phi2

    def test_posterior_mean_rule(self, tiny_model, tiny_signal, params):
        est = estimate_phi2(1.0, tiny_model, tiny_signal, params,
                            center_rule="posterior-mean", reps=8, seed=2)
        assert est.center_flags == 0

    @pytest.mark.parametrize("bad", [
        lambda m, s, p: estimate_phi1(1.0, m, s, p, center_rule="mode"),
        lambda m, s, p: estimate_phi1(1.0, m, s, p, reps=0),
        lambda m, s, p: estimate_psi(-0.1, m, s, p),
        lambda m, s, p: estimate_psi(0.1, m, s, p, scaling="variance"),
        lambda m, s, p: estimate_psi([], m, s, p),
        lambda m, s, p: estimate_phi1(1.0, m, s, p, reps=2.5),
        lambda m, s, p: estimate_phi1(1.0, m, s, p, reps=True),
        lambda m, s, p: estimate_phi1(1.0, m, s, p, reps="3"),
        lambda m, s, p: oversmoothing_probability(m, s, p, 0.01, reps=2.5),
        lambda m, s, p: oversmoothing_probability(m, s, p, 0.01, reps=True),
        lambda m, s, p: oversmoothing_probability(m, s, p, 0.01, reps="3"),
        lambda m, s, p: estimate_phi1(math.nan, m, s, p),
        lambda m, s, p: estimate_phi1(-1.0, m, s, p),
        lambda m, s, p: estimate_phi2(math.nan, m, s, p),
        lambda m, s, p: estimate_psi(math.nan, m, s, p),
    ])
    def test_rejects_bad_arguments(self, tiny_model, tiny_signal, params, bad):
        with pytest.raises(ValueError):
            bad(tiny_model, tiny_signal, params)

    @pytest.mark.parametrize("estimator", [estimate_phi1, estimate_psi, estimate_phi2])
    def test_mc_floor_checked_before_first_replication(self, tiny_model, tiny_signal, params,
                                                       estimator, monkeypatch):
        def no_replication(*args, **kwargs):
            raise AssertionError("a replication ran before the arguments were checked")

        monkeypatch.setattr(diagnostics, "replicate", no_replication)
        with pytest.raises(ValueError, match="inner_mc >= 1000"):
            estimator(1.0, tiny_model, tiny_signal, params, reps=2, inner_mc=500, seed=0)
        with pytest.raises(AssertionError, match="before the arguments"):
            estimator(1.0, tiny_model, tiny_signal, params, center_rule="posterior-mean",
                      reps=2, inner_mc=500, seed=0)

    def test_estimators_share_one_parameter_order(self):
        """Past the grid, the three estimators take the same parameters in
        the same order (psi adds its scaling), so one positional call means
        the same run to each."""
        orders = [
            [name for name in inspect.signature(estimator).parameters if name != "scaling"][1:]
            for estimator in (estimate_phi1, estimate_psi, estimate_phi2)
        ]
        assert orders[0] == ["model", "signal", "params", "center_rule", "reps", "inner_mc", "seed"]
        assert orders[1] == orders[0] and orders[2] == orders[0]


class TestReplicate:
    @pytest.mark.parametrize("center_rule", ["default-center", "posterior-mean"])
    def test_rows_do_not_depend_on_reps(self, tiny_model, tiny_signal, params, center_rule):
        """Replication rep reads only its own streams, so a longer run
        extends a shorter one bit for bit."""
        args = (tiny_model, tiny_signal, params, center_rule, 1000, stream(31))
        three, two = replicate(*args, reps=3), replicate(*args, reps=2)
        assert three.dists.shape == (3, 1000)
        np.testing.assert_array_equal(three.gaps[:2], two.gaps)
        np.testing.assert_array_equal(three.dists[:2], two.dists)

    def test_centers_only(self, tiny_model, tiny_signal, params):
        args = (tiny_model, tiny_signal, params, "default-center", 1000, stream(31))
        full, centers = replicate(*args, reps=2), replicate(*args, reps=2, distances=False)
        assert centers.dists is None
        np.testing.assert_array_equal(centers.gaps, full.gaps)
        assert centers.flags == full.flags


    def test_default_center_distances_are_its_verification_batch(self, tiny_model, tiny_signal, params):
        """Each replication's distances are those of the batch that verified
        its center, so the verified mass is read from them."""
        ss = stream(31)
        runs = replicate(tiny_model, tiny_signal, params, "default-center", 1000, ss, reps=3)
        for rep in range(3):
            post = make_posterior(data_set(tiny_model, tiny_signal, ss, rep, 0), params)
            rng = np.random.default_rng(stream(ss, rep, 1))
            sample_posterior(post, 1000, rng)  # the center search
            fresh = sample_posterior(post, 1000, rng)
            res = default_center(post, mc_samples=1000, seed=stream(ss, rep, 1))
            np.testing.assert_array_equal(runs.dists[rep], np.sqrt(fresh.sq_dists(res.center)))
            assert res.mass_at_inflated == np.mean(runs.dists[rep] <= 1.5 * res.radius.value)

    @pytest.mark.parametrize("center_rule, batches", [("default-center", 2), ("posterior-mean", 1)])
    def test_posterior_batches_per_replication(self, tiny_model, tiny_signal, params, center_rule, batches,
                                               monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return sample_posterior(*args, **kwargs)

        monkeypatch.setattr(credible, "sample_posterior", counted)
        monkeypatch.setattr(diagnostics, "sample_posterior", counted)
        replicate(tiny_model, tiny_signal, params, center_rule, 1000, stream(31), reps=3)
        assert len(calls) == 3 * batches


class TestMeanAndSe:
    def test_columns_and_single_row(self):
        x = np.random.default_rng(4).standard_normal((9, 3))
        mean, se = mean_and_se(x)
        assert np.array_equal(mean, x.mean(axis=0))
        assert np.array_equal(se, x.std(axis=0, ddof=1) / 3.0)
        for k in range(3):  # a strided column reduces exactly like a vector
            assert mean_and_se(x[:, k]) == (x[:, k].mean(), x[:, k].std(ddof=1) / 3.0)
            np.testing.assert_allclose(mean_and_se(x[:, k]), (mean[k], se[k]), rtol=1e-13)
        one_mean, one_se = mean_and_se(x[:1])
        np.testing.assert_array_equal(one_mean, x[0])
        np.testing.assert_array_equal(one_se, np.zeros(3))
        assert mean_and_se([2.0]) == (2.0, 0.0)


class TestOversmoothing:
    def test_bound_formula_and_frozen_regime_boundary(self, tiny_model, tiny_signal, params):
        res = oversmoothing_probability(tiny_model, tiny_signal, params,
                                        kappa_frac=0.07, reps=20, seed=5)
        assert res.kappa_zero == pytest.approx(0.15375161065890955, rel=1e-12)
        expected_bound = math.exp(-(params.a_k * 0.93 - 0.04) * res.i_bar) / params.c_alpha
        assert res.bound == pytest.approx(expected_bound, rel=1e-12)
        assert res.estimate <= res.bound + 3.0 * res.std_error
        assert res.per_rep.shape == (20,)

    def test_zero_cutoff_gives_zero_mass(self, params):
        # i_bar = 1 for the zero signal, so any kappa_frac < 1 floors to zero
        m = make_model(0.1, 0.0, 64)
        z = generate_signal("zero", n_trunc=64)
        res = oversmoothing_probability(m, z, params, kappa_frac=0.1, reps=5, seed=1)
        assert res.i_bar == 1
        assert res.estimate == 0.0

    def test_rejects_kappa_frac_at_or_above_kappa_zero(self, tiny_model, tiny_signal, params):
        with pytest.raises(ValueError, match="kappa_frac"):
            oversmoothing_probability(tiny_model, tiny_signal, params, kappa_frac=0.16)

    def test_rejects_alpha_outside_regime(self, tiny_model, tiny_signal):
        bad = DdmParams(K=2.0, alpha=0.05)  # above a(K) ~ 0.0473
        with pytest.raises(ValueError, match="a\\(K\\)"):
            oversmoothing_probability(tiny_model, tiny_signal, bad, kappa_frac=0.01)


class TestBallVolume:
    def test_frozen_low_dimensions(self):
        b1 = ball_volume_bound(1, 1.0)
        assert b1.log_exact == pytest.approx(math.log(2.0), rel=1e-12)
        assert b1.log_bound == pytest.approx(math.log(6.3380654656113595), rel=1e-12)
        b2 = ball_volume_bound(2, 1.0)
        assert b2.log_exact == pytest.approx(math.log(math.pi), rel=1e-12)
        assert b2.log_bound == pytest.approx(math.log(9.260808470207103), rel=1e-12)

    def test_formula_recomputation(self):
        """Both fields re-derived from scratch, in logs, at a few (k, r) pairs."""
        for k, r in [(1, 0.1), (3, 1.0), (7, 10.0), (12, 0.5)]:
            b = ball_volume_bound(k, r)
            log_exact = k * math.log(r) + k / 2.0 * math.log(math.pi) - math.lgamma(1.0 + k / 2.0)
            log_bound = (
                1.0 - 0.5 * math.log(math.pi) + k * math.log(r) - (k + 1) / 2.0 * math.log(k)
                + k / 2.0 * math.log(2.0 * math.pi * math.e)
            )
            assert b.log_exact == pytest.approx(log_exact, rel=1e-12)
            assert b.log_bound == pytest.approx(log_bound, rel=1e-12)

    def test_bound_dominates_exact_everywhere(self):
        for k in range(1, 201):
            for r in (0.1, 1.0, 10.0):
                b = ball_volume_bound(k, r)
                assert b.log_bound >= b.log_exact, (k, r)

    def test_log_fields_survive_overflow(self):
        b = ball_volume_bound(200, 0.1)
        assert b.log_bound == pytest.approx(-708.7825722388769, rel=1e-12)
        assert b.log_exact == pytest.approx(-709.7834055694325, rel=1e-12)
        big = ball_volume_bound(400, 100.0)
        assert np.isfinite(big.log_bound)
        assert np.isfinite(big.log_exact)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ball_volume_bound(0, 1.0)
        with pytest.raises(ValueError):
            ball_volume_bound(3, 0.0)
        for bad in (2.5, True):
            with pytest.raises(ValueError, match="dimension k must be an integer"):
                ball_volume_bound(bad, 1.0)

    def test_integral_dimension_kept(self):
        assert ball_volume_bound(2.0, 1.0) == ball_volume_bound(np.int64(2), 1.0) == ball_volume_bound(2, 1.0)
