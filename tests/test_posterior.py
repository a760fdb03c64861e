"""Index-mixture posterior: weight recursion vs. direct marginal evaluation.

The recursion in the package computes unnormalized log weights by cumulative
increments.  The reference implementation here evaluates each component's
marginal log density from scratch with scipy.stats.norm, one I at a time,
which is O(n^2) and obviously correct.  Both must agree to near machine
precision; the acceptance run repeats the comparison at scale.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from seqcred import (
    DdmParams,
    MixtureWeights,
    crit,
    eb_index,
    generate_signal,
    make_model,
    make_posterior,
    mixture_weights,
    posterior_mean,
    sample_posterior,
    shrunk_full_bayes,
    simulate,
    validate_params,
)

from conftest import rng_datasets


def direct_log_weights(data, params, i_max, shrunk=False):
    """Reference: evaluate every component marginal density from scratch."""
    x = data.x[:i_max]
    sig = data.model.sigma[:i_max]
    v = params.K * data.model.epsilon**2
    out = np.empty(i_max)
    for i in range(1, i_max + 1):
        if shrunk:
            head = norm.logpdf(x[:i], loc=0.0, scale=np.sqrt(sig[:i] ** 2 + v)).sum()
        else:
            # density of X_j at its own mean: (2 pi (v + sigma_j^2))^{-1/2}
            head = -0.5 * np.log(2.0 * math.pi * (v + sig[:i] ** 2)).sum()
        tail = norm.logpdf(x[i:], loc=0.0, scale=sig[i:]).sum()
        out[i - 1] = params.log_lambda(i) + head + tail
    return out - logsumexp(out)


def observed(arr, eps=0.1, p=0.0):
    from seqcred.model import ObservedData

    return ObservedData(x=np.asarray(arr, float), model=make_model(eps, p, len(arr)), seed=None)


class TestParams:
    def test_derived_quantities(self, params):
        assert params.L == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert params.c_alpha == pytest.approx(math.expm1(0.04), rel=1e-15)
        assert params.a_k == pytest.approx(0.25 - 0.5 * math.log(1.5), rel=1e-15)
        assert params.a_k == pytest.approx(0.0472674459459178, rel=1e-12)
        assert params.penalty == pytest.approx(math.log(3.0) + 0.08, rel=1e-15)

    def test_prior_sums_to_one(self, params):
        i = np.arange(1, 5000)
        total = np.exp(params.log_lambda(i)).sum()
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_hyperparameters(self):
        with pytest.raises(ValueError):
            DdmParams(K=0.0)
        with pytest.raises(ValueError):
            DdmParams(alpha=-0.01)

    def test_delta_sb_regimes(self):
        good = DdmParams(K=2.0, alpha=0.04)
        assert 0.0 < good.delta_sb(0.0) <= 1.0
        # alpha above a(K): the lower-bound radius is undefined
        assert math.isnan(DdmParams(K=2.0, alpha=0.05).delta_sb(0.0))

    def test_validate_params_flags(self):
        d = validate_params(2.0, 0.04)
        assert d.upper_regime and d.lower_regime
        assert not validate_params(1.0, 0.04).upper_regime
        assert not validate_params(2.0, 0.2).lower_regime


class TestWeights:
    def test_recursion_matches_direct_evaluation(self, params):
        for k, x in enumerate(rng_datasets(10, 60, scale=0.3)):
            p_level = 0.0 if k % 2 == 0 else 1.0
            data = observed(x, eps=0.1, p=p_level)
            w = mixture_weights(data, params)
            ref = direct_log_weights(data, params, 60)
            np.testing.assert_allclose(np.exp(w.log_w), np.exp(ref), rtol=1e-10)

    def test_weights_sum_to_one(self, small_data, params):
        w = mixture_weights(small_data, params)
        assert w.w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_i_max_truncation(self, small_data, params):
        w = mixture_weights(small_data, params, i_max=10)
        assert w.i_max == 10
        ref = direct_log_weights(small_data, params, 10)
        np.testing.assert_allclose(w.log_w, ref, atol=1e-10)

    def test_i_max_bounds(self, small_data, params):
        with pytest.raises(ValueError):
            mixture_weights(small_data, params, i_max=0)
        with pytest.raises(ValueError):
            mixture_weights(small_data, params, i_max=257)

    def test_tail_weights(self, small_data, params):
        w = mixture_weights(small_data, params, i_max=20)
        t = w.tail_weights()
        assert t[0] == pytest.approx(1.0, abs=1e-12)
        brute = [w.w[i:].sum() for i in range(20)]
        np.testing.assert_allclose(t, brute, rtol=1e-12)
        assert np.all(np.diff(t) <= 1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MixtureWeights(log_w=np.zeros(3), i_max=4)

    def test_big_signal_pushes_weight_out(self, params):
        x = np.zeros(30)
        x[:8] = 5.0  # strong signal through coordinate 8
        w = mixture_weights(observed(x), params)
        assert eb_index(w) == 8
        assert w.tail_weights()[7] > 0.99


class TestEbIndexAndCrit:
    def test_eb_index_is_smallest_mode(self):
        log_w = np.log(np.array([0.1, 0.35, 0.1, 0.35, 0.1]))
        assert eb_index(MixtureWeights(log_w=log_w, i_max=5)) == 2

    def test_matches_penalized_criterion_direct_case(self, params):
        """At p = 0 the smallest posterior mode minimizes the projection
        criterion; exact index equality, not approximate."""
        for x in rng_datasets(25, 80, scale=0.25, entropy=4242):
            data = observed(x, eps=0.1, p=0.0)
            w = mixture_weights(data, params)
            crits = np.array([crit(data, params, i) for i in range(1, 81)])
            assert eb_index(w) == int(np.argmin(crits)) + 1

    def test_crit_value(self, params):
        data = observed(np.array([2.0, 1.0, 0.5]), eps=0.5)
        expected = -4.0 + params.penalty * 0.25 * 1
        assert crit(data, params, 1) == pytest.approx(expected, rel=1e-14)

    def test_crit_rejects_out_of_range(self, small_data, params):
        with pytest.raises(ValueError):
            crit(small_data, params, 0)


class TestPosteriorMean:
    def test_two_point_hand_case(self, params):
        data = observed(np.array([3.0, -2.0]))
        w = mixture_weights(data, params)
        mean = posterior_mean(data, w)
        assert mean[0] == pytest.approx(3.0 * (w.w[0] + w.w[1]), rel=1e-12)
        assert mean[1] == pytest.approx(-2.0 * w.w[1], rel=1e-12)

    def test_matches_weighted_component_means(self, small_data, params):
        post = make_posterior(small_data, params, i_max=40)
        stack = np.array([post.component_mean(i) for i in range(1, 41)])
        direct = post.weights.w @ stack
        np.testing.assert_allclose(post.mean(), direct, atol=1e-12)

    def test_eb_variant_mean_is_truncated_data(self, small_data, params):
        post = make_posterior(small_data, params, variant="eb-index")
        i_hat = eb_index(mixture_weights(small_data, params))
        expected = np.zeros(256)
        expected[:i_hat] = small_data.x[:i_hat]
        np.testing.assert_array_equal(post.mean(), expected)

    def test_unknown_variant(self, small_data, params):
        with pytest.raises(ValueError):
            make_posterior(small_data, params, variant="bootstrap")


class TestShrunkVariant:
    def test_weights_match_zero_mean_marginals(self, params):
        for x in rng_datasets(6, 50, scale=0.4, entropy=777):
            data = observed(x, eps=0.1, p=1.0)
            post = shrunk_full_bayes(data, params)
            ref = direct_log_weights(data, params, 50, shrunk=True)
            np.testing.assert_allclose(np.exp(post.weights.log_w), np.exp(ref), rtol=1e-10)

    def test_tracks_shrunken_signal(self, params):
        """Against a strong fixed signal the two variants separate: the
        mixture mean follows theta, the shrunk mean follows L*theta."""
        n = 64
        theta = np.zeros(n)
        theta[:5] = 50.0
        model = make_model(0.001, 0.0, n)
        data = simulate(model, generate_signal("custom", {"coeffs": theta}, n_trunc=n), seed=4)
        mix = make_posterior(data, params).mean()
        shr = shrunk_full_bayes(data, params).mean()
        np.testing.assert_allclose(mix[:5], theta[:5], rtol=1e-3)
        np.testing.assert_allclose(shr[:5], params.L * theta[:5], rtol=1e-3)

    def test_mean_factor(self, small_data, params):
        assert shrunk_full_bayes(small_data, params).mean_factor == params.L
        assert make_posterior(small_data, params).mean_factor == 1.0


class TestSampling:
    def test_deterministic_given_seed(self, small_data, params):
        post = make_posterior(small_data, params)
        a = sample_posterior(post, 50, seed=9)
        b = sample_posterior(post, 50, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_zeros_beyond_own_index(self, small_data, params):
        post = make_posterior(small_data, params)
        draws = sample_posterior(post, 200, seed=1)
        for r in range(200):
            i = draws.indices[r]
            assert np.all(draws.coeffs[r, i:] == 0.0)

    def test_draw_moments(self, small_data, params):
        post = make_posterior(small_data, params)
        draws = sample_posterior(post, 60_000, seed=5)
        # empirical mean tracks the analytic posterior mean
        np.testing.assert_allclose(
            draws.coeffs.mean(axis=0)[:10], post.mean()[:10], atol=4e-3
        )
        # coordinate 1 is active in every draw: variance is L*sigma_1^2
        v = draws.coeffs[:, 0].var()
        assert v == pytest.approx(params.L * 0.01, rel=0.05)

    def test_index_distribution(self, small_data, params):
        post = make_posterior(small_data, params)
        draws = sample_posterior(post, 40_000, seed=11)
        w = post.weights.w
        top = int(np.argmax(w))
        freq = float(np.mean(draws.indices == top + 1))
        assert freq == pytest.approx(w[top], abs=0.01)

    def test_compact_distance_helper_is_exact(self, small_data, params):
        post = make_posterior(small_data, params)
        rng = np.random.default_rng(3)
        draws = sample_posterior(post, 40, rng)
        assert draws.prefix.shape == (40, draws.indices.max())
        center = rng.standard_normal(256)
        want = np.sum((draws.coeffs - center[None, :]) ** 2, axis=1)
        np.testing.assert_allclose(draws.sq_dists(center), want, rtol=1e-12)

    def test_rejects_zero_draws(self, small_data, params):
        with pytest.raises(ValueError):
            sample_posterior(make_posterior(small_data, params), 0, seed=1)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31),
    eps=st.floats(0.02, 0.5),
    p=st.floats(0.0, 1.5),
    k=st.floats(0.5, 5.0),
    alpha=st.floats(0.005, 0.3),
)
def test_recursion_equals_direct_under_random_hyperparameters(seed, eps, p, k, alpha):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(25) * eps * 2.0
    data = observed(x, eps=eps, p=p)
    params = DdmParams(K=k, alpha=alpha)
    w = mixture_weights(data, params)
    ref = direct_log_weights(data, params, 25)
    np.testing.assert_allclose(np.exp(w.log_w), np.exp(ref), rtol=1e-9, atol=1e-15)
    assert w.w.sum() == pytest.approx(1.0, abs=1e-12)
