"""Credible-ball radius, default center selection, and ball membership."""

import math
import tracemalloc
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
    sample_posterior,
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

    def test_fractional_budget_names_mc_samples(self, small_data, params):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError, match="mc_samples must be an integer, got 1500.5"):
            radius_at_level(post, post.mean(), kappa=0.5, mc_samples=1500.5, seed=1)

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

    def test_flags_when_mass_check_fails(self, params):
        """With no inflation slack the fresh-batch mass check sits right at
        the quantile, so about half of the seeds land below it; the result
        says so in its fields, and no warning is raised."""
        data = simulate(
            make_model(0.1, 0.0, 128),
            generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=128),
            seed=3,
        )
        post = make_posterior(data, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = [default_center(post, varsigma=0.0, mc_samples=1000, seed=s) for s in range(20)]
        assert all(res.verified == (res.mass_at_inflated >= res.p_level) for res in results)
        assert not all(res.verified for res in results)

    def test_memory_stays_within_budget(self, params):
        """Two batches of 2000 draws at sum J = 2,048,000 each: the scratch
        arrays are bounded blocks, so the traced peak stays within 16 bytes
        per stored entry of one batch (its values and columns take 12)."""
        post = make_posterior(ObservedData(x=np.ones(1024), model=make_model(0.1, 0.0, 1024), seed=None), params)
        tracemalloc.start()
        try:
            default_center(post, mc_samples=2000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2_048_000

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

    def test_fractional_budget_names_mc_samples(self, small_data, params):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError, match="mc_samples must be an integer, got 1500.5"):
            default_center(post, mc_samples=1500.5, seed=1)


def brute_force_default_center(post, mc_samples, seed, p_level=2.0 / 3.0, varsigma=0.5):
    """Reference: score every candidate from its own ``sq_dists`` vector and
    a full sort, keeping the first strict minimum."""
    rng = np.random.default_rng(seed)
    w = post.weights.w
    i_hat = eb_index(post.weights)
    levels = sorted(set(np.flatnonzero(w >= 1e-3) + 1) | {i_hat})
    cands = [("posterior-mean", post.mean())] + [
        (f"projection-{i}" + ("(mode)" if i == i_hat else ""), post.component_mean(i)) for i in levels
    ]
    q = p_level
    rank = min(max(math.ceil(q * mc_samples), 1), mc_samples)
    half = math.sqrt(mc_samples * q * (1.0 - q))
    lo = min(max(math.ceil(q * mc_samples - half), 1), mc_samples)
    hi = min(max(math.ceil(q * mc_samples + half), 1), mc_samples)
    draws = sample_posterior(post, mc_samples, rng)
    scores = []
    for _, c in cands:
        d = np.sort(np.sqrt(draws.sq_dists(c)))
        scores.append((float(d[rank - 1]), float(d[hi - 1] - d[lo - 1]) / 2.0))
    win = min(range(len(cands)), key=lambda k: (scores[k][0], k))
    tag, center = cands[win]
    fresh = np.sqrt(sample_posterior(post, mc_samples, rng).sq_dists(center))
    mass = float(np.mean(fresh <= (1.0 + varsigma) * scores[win][0]))
    return tag, center, scores[win], mass, scores[0][0], len(cands)


def assert_matches_brute_force(post, seed, p_level=2.0 / 3.0):
    """Same tag and center, and bit-equal radius, standard error, inflated
    mass and radius at the mean, as the brute-force reference."""
    res = default_center(post, p_level=p_level, mc_samples=1000, seed=seed)
    tag, center, (value, std_error), mass, at_mean, n_cands = brute_force_default_center(post, 1000, seed, p_level)
    assert (res.candidate, res.radius.value, res.radius.std_error) == (tag, value, std_error)
    assert (res.mass_at_inflated, res.radius_at_mean, res.candidates_evaluated) == (mass, at_mean, n_cands)
    np.testing.assert_array_equal(res.center, center)
    return res


class TestDefaultCenterMatchesBruteForce:
    """The prefix-sum ranking reports exactly what scoring every candidate
    from its own distances reports."""

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("signal_kind, signal_params", [
        ("zero", {}),
        ("sobolev-boundary", {"beta": 1.0, "Q": 1.0}),
        ("analytic", {"c": 1.0, "d": 1.0, "Q": 1.0}),
        ("parametric", {"N0": 3, "Q": 4.0}),
    ])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_equal_to_reference(self, params, p, signal_kind, signal_params, seed):
        n = 128
        signal = generate_signal(signal_kind, signal_params, n_trunc=n)
        post = make_posterior(simulate(make_model(0.1, p, n), signal, seed=100 + seed), params)
        assert_matches_brute_force(post, seed)

    @pytest.mark.parametrize("x21", [0.2, 0.35, 0.45, 0.5])
    @pytest.mark.parametrize("p_level", [0.2, 2.0 / 3.0, 0.9])
    def test_projection_winners(self, params, x21, p_level):
        """A sharp cutoff at 3 plus one mid-sized coefficient at 21 splits
        the index posterior, so projection centers win at some levels."""
        x = np.zeros(64)
        x[:3] = 5.0
        x[20] = x21
        post = make_posterior(ObservedData(x=x, model=make_model(0.1, 0.0, 64), seed=None), params)
        assert_matches_brute_force(post, 0, p_level)

    @pytest.mark.parametrize("seed", [3, 5, 7, 8])
    def test_exact_tie_goes_to_the_mean(self, small_data, params, seed):
        """Under a point-mass index posterior the mean is the mode's
        projection center, and the earlier candidate wins the tie.  At seed 3
        the prefix-sum radius of the projection rounds one ulp below the
        mean's, so only the exact re-scoring keeps the mean; at 5, 7 and 8
        the two radii are equal."""
        res = assert_matches_brute_force(make_posterior(small_data, params, variant="eb-index"), seed)
        assert res.candidate == "posterior-mean"

    def test_shrunk_variant(self, small_data, params):
        assert_matches_brute_force(make_posterior(small_data, params, variant="full-bayes-shrunk"), 5)


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
