"""Credible-ball radius, default center selection, and ball membership."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from seqcred import (
    CredibleBall,
    DdmParams,
    RadiusEstimate,
    default_center,
    eb_index,
    generate_signal,
    make_confidence_ball,
    make_model,
    make_posterior,
    mixture_weights,
    radius_at_level,
    radius_from_distances,
    simulate,
)
from seqcred.model import ObservedData


class TestRadiusFromDistances:
    def test_hand_case(self):
        """100 distances 1..100 at kappa = 1/2: rank 50, CI ranks 45 and 55."""
        est = radius_from_distances(np.arange(1.0, 101.0), kappa=0.5)
        assert est.value == 50.0
        assert est.std_error == 5.0
        assert est.mc_samples == 100
        assert est.level == 0.5

    def test_order_statistic_rank(self):
        d = np.array([5.0, 1.0, 3.0])  # sorting happens inside
        # kappa = 0.25: rank ceil(0.75*3) = 3
        assert radius_from_distances(d, 0.25).value == 5.0
        # kappa = 0.9: rank ceil(0.3) = 1
        assert radius_from_distances(d, 0.9).value == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            radius_from_distances(np.array([1.0]), kappa=0.0)
        with pytest.raises(ValueError):
            radius_from_distances(np.array([1.0]), kappa=1.0)
        with pytest.raises(ValueError):
            radius_from_distances(np.array([]), kappa=0.5)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        m=st.integers(1, 400),
        kappa=st.floats(0.01, 0.99),
    )
    def test_captures_at_least_target_mass(self, seed, m, kappa):
        """The returned radius always covers a (1-kappa) fraction of the
        sample, and is itself one of the sampled distances."""
        d = np.random.default_rng(seed).exponential(size=m)
        est = radius_from_distances(d, kappa)
        assert est.value in d
        assert np.mean(d <= est.value) >= (1.0 - kappa) - 1e-12


class TestRadiusAtLevel:
    def test_single_component_matches_chi_square(self, params):
        """With the index pinned at I the squared distance to the projection
        center is L*eps^2 times a chi-square with I degrees of freedom."""
        n = 64
        x = np.zeros(n)
        x[:6] = 4.0
        data = ObservedData(x=x, model=make_model(0.1, 0.0, n), seed=None)
        post = make_posterior(data, params, variant="eb-index")
        assert eb_index(post.weights) == 6
        est = radius_at_level(post, post.mean(), kappa=0.5, mc_samples=50_000, seed=0)
        exact = math.sqrt(params.L * 0.01 * chi2.ppf(0.5, 6))
        assert est.value == pytest.approx(exact, abs=4 * est.std_error)

    def test_monotone_in_kappa(self, small_data, params):
        post = make_posterior(small_data, params)
        r_tight = radius_at_level(post, post.mean(), kappa=0.5, mc_samples=2000, seed=1)
        r_loose = radius_at_level(post, post.mean(), kappa=0.05, mc_samples=2000, seed=1)
        assert r_loose.value >= r_tight.value

    def test_needs_minimum_mc_budget(self, small_data, params):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError, match="mc_samples"):
            radius_at_level(post, post.mean(), kappa=0.5, mc_samples=500, seed=1)

    def test_short_center_zero_padded(self, small_data, params):
        post = make_posterior(small_data, params)
        full = radius_at_level(post, np.zeros(256), kappa=0.5, mc_samples=1000, seed=2)
        short = radius_at_level(post, np.zeros(3), kappa=0.5, mc_samples=1000, seed=2)
        assert short.value == full.value


class TestDefaultCenter:
    def test_winner_never_worse_than_mean(self, small_data, params):
        post = make_posterior(small_data, params)
        res = default_center(post, seed=0)
        assert res.radius.value <= res.radius_at_mean
        assert res.candidates_evaluated >= 2
        assert res.p_level == pytest.approx(2.0 / 3.0)

    def test_verified_on_clean_data(self, small_data, params):
        post = make_posterior(small_data, params)
        res = default_center(post, seed=0)
        assert res.verified
        assert res.mass_at_inflated >= res.p_level

    def test_deterministic(self, small_data, params):
        post = make_posterior(small_data, params)
        a = default_center(post, seed=42)
        b = default_center(post, seed=42)
        np.testing.assert_array_equal(a.center, b.center)
        assert a.radius == b.radius
        assert a.candidate == b.candidate

    def test_warns_when_mass_check_fails(self, params):
        """With no inflation slack the fresh-batch mass check sits right at
        the quantile and a small budget can land below it."""
        data = simulate(
            make_model(0.1, 0.0, 128),
            generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=128),
            seed=3,
        )
        post = make_posterior(data, params)
        with pytest.warns(UserWarning, match="verification failed"):
            res = default_center(post, varsigma=0.0, mc_samples=1000, seed=0)
        assert not res.verified

    def test_mode_candidate_labeled(self, params):
        x = np.zeros(32)
        x[:4] = 6.0
        data = ObservedData(x=x, model=make_model(0.1, 0.0, 32), seed=None)
        post = make_posterior(data, params)
        res = default_center(post, seed=1)
        assert res.candidate.startswith(("posterior-mean", "projection-"))

    @pytest.mark.parametrize("kwargs", [
        dict(p_level=0.0),
        dict(p_level=1.0),
        dict(varsigma=-0.1),
        dict(mc_samples=10),
    ])
    def test_rejects_bad_arguments(self, small_data, params, kwargs):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError):
            default_center(post, **kwargs)


class TestCredibleBall:
    def test_closed_boundary(self):
        ball = CredibleBall(center=np.zeros(3), radius=1.0, level=0.5, inflation=2.0)
        assert ball.effective_radius == 2.0
        assert ball.contains([2.0, 0.0, 0.0])
        assert not ball.contains([2.0 + 1e-9, 0.0, 0.0])

    def test_length_mismatch_is_zero_padding(self):
        ball = CredibleBall(center=np.array([1.0, 1.0]), radius=1.5, level=0.5, inflation=1.0)
        assert ball.contains([1.0])            # implied second coordinate 0
        assert ball.contains([1.0, 1.0, 0.5])  # extra coordinate inside slack
        assert not ball.contains([1.0, 1.0, 2.0])

    def test_rejects_negative_radius(self):
        with pytest.raises(ValueError):
            CredibleBall(center=np.zeros(2), radius=-1.0, level=0.5, inflation=1.0)

    def test_to_dict(self):
        ball = CredibleBall(center=np.array([1.0]), radius=2.0, level=0.5, inflation=3.0)
        d = ball.to_dict()
        assert d == {"center": [1.0], "radius": 2.0, "level": 0.5, "inflation": 3.0}

    def test_make_confidence_ball_from_estimate(self):
        est = RadiusEstimate(value=2.0, level=0.25, mc_samples=1000, std_error=0.1)
        ball = make_confidence_ball(np.zeros(2), est, M=1.5)
        assert ball.radius == 2.0
        assert ball.level == 0.25
        assert ball.effective_radius == 3.0

    def test_make_confidence_ball_from_float(self):
        ball = make_confidence_ball(np.zeros(2), 0.7)
        assert ball.radius == 0.7
        assert math.isnan(ball.level)
        assert ball.contains(np.zeros(2))

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        radius=st.floats(0.0, 10.0),
        inflation=st.floats(0.0, 4.0),
    )
    def test_membership_matches_norm(self, seed, radius, inflation):
        rng = np.random.default_rng(seed)
        center = rng.standard_normal(8)
        theta = rng.standard_normal(8)
        ball = CredibleBall(center=center, radius=radius, level=0.5, inflation=inflation)
        expected = np.linalg.norm(theta - center) <= inflation * radius
        assert ball.contains(theta) == expected
