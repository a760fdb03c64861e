"""Index-mixture posterior: weight recursion vs. direct marginal evaluation.

The recursion in the package computes unnormalized log weights by cumulative
increments.  The reference implementation here evaluates each component's
marginal log density from scratch with scipy.stats.norm, one I at a time,
which is O(n^2) and obviously correct.  Both must agree to near machine
precision; the acceptance run repeats the comparison at scale.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp
from scipy.stats import norm

from seqcred import (
    VARIANTS,
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
    simulate,
)
from seqcred.experiments import default_spec, run_experiment
from seqcred.posterior import _increments, _logsumexp

from conftest import rng_datasets


def direct_log_weights(data, params, i_max, shrunk=False):
    """Reference: evaluate every component marginal density from scratch,
    with prior variance v_j = K sigma_j^2 on coordinate j."""
    x = data.x[:i_max]
    sig = data.model.sigma[:i_max]
    v = params.K * sig**2
    out = np.empty(i_max)
    for i in range(1, i_max + 1):
        if shrunk:
            head = norm.logpdf(x[:i], loc=0.0, scale=np.sqrt(sig[:i] ** 2 + v[:i])).sum()
        else:
            # density of X_j at its own mean: (2 pi (v_j + sigma_j^2))^{-1/2}
            head = -0.5 * np.log(2.0 * math.pi * (v[:i] + sig[:i] ** 2)).sum()
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
        d = DdmParams(2.0, 0.04)
        assert d.upper_regime and d.lower_regime
        assert not DdmParams(1.0, 0.04).upper_regime
        assert not DdmParams(2.0, 0.2).lower_regime


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
        for build in [mixture_weights] + [functools.partial(make_posterior, variant=v) for v in VARIANTS]:
            for bad in (2.5, True):
                with pytest.raises(ValueError, match="i_max must be an integer"):
                    build(small_data, params, i_max=bad)

    @pytest.mark.parametrize("i_max", [3.0, np.int64(3)])
    def test_integral_i_max_kept(self, small_data, params, i_max):
        assert mixture_weights(small_data, params, i_max=i_max).i_max == 3
        assert make_posterior(small_data, params, i_max=i_max).weights.i_max == 3
        assert make_posterior(small_data, params, i_max=i_max, variant="full-bayes-shrunk").weights.i_max == 3

    def test_tail_weights(self, small_data, params):
        w = mixture_weights(small_data, params, i_max=20)
        t = w.tail_weights()
        assert t[0] == pytest.approx(1.0, abs=1e-12)
        brute = [w.w[i:].sum() for i in range(20)]
        np.testing.assert_allclose(t, brute, rtol=1e-12)
        assert np.all(np.diff(t) <= 1e-15)

    def test_shape_validation(self):
        assert MixtureWeights(log_w=np.zeros(3)).i_max == 3
        with pytest.raises(ValueError, match="log_w must be one-dimensional"):
            MixtureWeights(log_w=np.zeros((2, 3)))

    def test_big_signal_pushes_weight_out(self, params):
        x = np.zeros(30)
        x[:8] = 5.0  # strong signal through coordinate 8
        w = mixture_weights(observed(x), params)
        assert eb_index(w) == 8
        assert w.tail_weights()[7] > 0.99


class TestLogSumExp:
    """The private log-sum-exp is scipy.special.logsumexp bit for bit, so
    dropping the runtime scipy import moved no posterior weight."""

    def test_random_vectors_with_ties(self):
        rng = np.random.default_rng(2024)
        for trial in range(2000):
            n = int(rng.integers(1, 2000))
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, math.log10(700.0))
            if trial % 5 == 0:
                a[rng.choice(n, size=min(n, int(rng.integers(1, 6))), replace=False)] = a.max()
            assert _logsumexp(a) == logsumexp(a), trial

    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("shrunk", [False, True], ids=["mixture", "shrunk"])
    def test_posterior_log_weights(self, params, p, shrunk):
        model = make_model(0.1, p, 512)
        for kind, sig_params in (("zero", {}), ("sobolev-boundary", {"beta": 1.0}), ("analytic", {})):
            signal = generate_signal(kind, sig_params, n_trunc=512)
            for seed in range(10):
                data = simulate(model, signal, seed)
                log_u = np.concatenate(([0.0], np.cumsum(_increments(data, params, 512, shrunk))))
                assert _logsumexp(log_u) == logsumexp(log_u), (kind, seed)


class TestEbIndexAndCrit:
    def test_eb_index_is_smallest_mode(self):
        log_w = np.log(np.array([0.1, 0.35, 0.1, 0.35, 0.1]))
        assert eb_index(MixtureWeights(log_w=log_w)) == 2

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
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="I must be an integer"):
                crit(small_data, params, bad)


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

    def test_component_mean_rejects_bad_index(self, small_data, params):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError):
            post.component_mean(0)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="I must be an integer"):
                post.component_mean(bad)

    def test_unknown_variant(self, small_data, params):
        with pytest.raises(ValueError):
            make_posterior(small_data, params, variant="bootstrap")


class TestShrunkVariant:
    def test_weights_match_zero_mean_marginals(self, params):
        for x in rng_datasets(6, 50, scale=0.4, entropy=777):
            data = observed(x, eps=0.1, p=1.0)
            post = make_posterior(data, params, variant="full-bayes-shrunk")
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
        shr = make_posterior(data, params, variant="full-bayes-shrunk").mean()
        np.testing.assert_allclose(mix[:5], theta[:5], rtol=1e-3)
        np.testing.assert_allclose(shr[:5], params.L * theta[:5], rtol=1e-3)

    def test_mean_factor(self, small_data, params):
        assert make_posterior(small_data, params, variant="full-bayes-shrunk").mean_factor == params.L
        assert make_posterior(small_data, params).mean_factor == 1.0


class TestSampling:
    def test_deterministic_given_seed(self, small_data, params):
        post = make_posterior(small_data, params)
        a = sample_posterior(post, 50, seed=9)
        b = sample_posterior(post, 50, seed=9)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_continues_caller_generator(self, small_data, params):
        """A Generator passed in is drawn from in place: two calls on it
        continue one stream, and leave it where a reference run does."""
        post = make_posterior(small_data, params)
        g = np.random.default_rng(0)
        first = sample_posterior(post, 50, g)
        second = sample_posterior(post, 50, g)
        ref = np.random.default_rng(0)
        np.testing.assert_array_equal(first.coeffs, sample_posterior(post, 50, ref).coeffs)
        np.testing.assert_array_equal(second.coeffs, sample_posterior(post, 50, ref).coeffs)
        assert not np.array_equal(first.coeffs, second.coeffs)
        assert g.bit_generator.state == ref.bit_generator.state
        np.testing.assert_array_equal(first.coeffs, sample_posterior(post, 50, 0).coeffs)

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

    @pytest.mark.parametrize("variant", ["mixture", "full-bayes-shrunk"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stream_is_choice_then_one_normal_per_stored_coordinate(self, small_data, params, variant, seed):
        """The indices are the ones Generator.choice draws, and the stored
        coordinates consume exactly sum J normals after them."""
        post = make_posterior(small_data, params, variant=variant)
        g = np.random.default_rng(seed)
        draws = sample_posterior(post, 300, g)
        ref = np.random.default_rng(seed)
        w = post.weights.w
        indices = ref.choice(post.weights.i_max, 300, p=w / w.sum()) + 1
        z = ref.standard_normal(indices.sum())
        cols = np.concatenate([np.arange(j) for j in indices])
        want = z * (math.sqrt(params.L) * small_data.model.sigma[cols]) + post.mean_factor * small_data.x[cols]
        np.testing.assert_array_equal(draws.indices, indices)
        assert len(draws.values) == draws.indices.sum()
        np.testing.assert_array_equal(draws.values, want)
        assert g.bit_generator.state == ref.bit_generator.state

    def test_dense_views_hold_the_stored_coordinates(self, small_data, params):
        """Entry k of ``values`` sits at coordinate ``columns[k]`` of its draw."""
        draws = sample_posterior(make_posterior(small_data, params), 100, seed=6)
        mask = np.arange(256) < draws.indices[:, None]
        np.testing.assert_array_equal(draws.coeffs[mask], draws.values)
        np.testing.assert_array_equal(draws.columns, np.nonzero(mask)[1])

    def test_compact_distance_helper_is_exact(self, small_data, params):
        post = make_posterior(small_data, params)
        rng = np.random.default_rng(3)
        draws = sample_posterior(post, 40, rng)
        assert not draws.coeffs[:, draws.indices.max():].any()
        center = rng.standard_normal(256)
        want = np.sum((draws.coeffs - center[None, :]) ** 2, axis=1)
        np.testing.assert_allclose(draws.sq_dists(center), want, rtol=1e-12)

    @pytest.mark.parametrize("p", [0.0, 1.0])
    @pytest.mark.parametrize("variant", ["mixture", "full-bayes-shrunk"])
    def test_projection_distances_match_sq_dists(self, params, p, variant):
        """Prefix-sum distances to X(I) equal the one-center kernel to
        rounding, below, at and beyond the largest sampled index."""
        n = 256
        model = make_model(0.1, p, n)
        signal = generate_signal("parametric", {"N0": 3, "Q": 4.0}, n_trunc=n)
        post = make_posterior(simulate(model, signal, seed=17), params, variant=variant)
        draws = sample_posterior(post, 500, seed=4)
        d_max = int(draws.indices.max())
        levels = sorted({1, max(1, d_max // 2), d_max, min(n, d_max + 1), n})
        got = draws.projection_sq_dists(post.mean_factor * post.data.x, levels)
        assert got.shape == (len(levels), 500)
        for row, i in zip(got, levels):
            np.testing.assert_allclose(row, draws.sq_dists(post.component_mean(i)), rtol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 1 << 30])
    def test_blocks_change_no_bit(self, params, monkeypatch, block):
        """Draws, both distance kernels and every default-center field are
        bit for bit the same whatever the row-block size: one draw per block,
        blocks smaller than most draws' J, or the whole batch in one block."""
        import seqcred.posterior as posterior_module
        from seqcred.credible import default_center

        n = 256
        signal = generate_signal("parametric", {"N0": 3, "Q": 4.0}, n_trunc=n)
        post = make_posterior(simulate(make_model(0.1, 1.0, n), signal, seed=17), params)

        def outputs():
            draws = sample_posterior(post, 300, seed=4)
            d_max = int(draws.indices.max())
            res = default_center(post, mc_samples=1000, seed=2)
            return (
                draws.values,
                draws.sq_dists(post.mean()),
                draws.projection_sq_dists(post.data.x, [1, d_max // 2, d_max]),  # levels below d_max
                draws.projection_sq_dists(post.data.x, [2, d_max + 5, n]),  # d beyond d_max
                *(getattr(res, f.name) for f in dataclasses.fields(res)),
            )

        want = outputs()
        assert sample_posterior(post, 300, seed=4).indices.max() > 7  # some draw spans several entry blocks
        monkeypatch.setattr(posterior_module, "_BLOCK", block)
        got = outputs()
        assert len(got) == len(want)
        for a, b in zip(got, want):
            if isinstance(a, np.ndarray):
                np.testing.assert_array_equal(a, b)
            else:
                assert a == b

    def test_projection_distances_reject_bad_levels(self, small_data, params):
        draws = sample_posterior(make_posterior(small_data, params), 20, seed=1)
        with pytest.raises(ValueError):
            draws.projection_sq_dists(small_data.x, [0, 3])
        with pytest.raises(ValueError):
            draws.projection_sq_dists(small_data.x, [len(small_data) + 1])

    def test_rejects_zero_draws(self, small_data, params):
        post = make_posterior(small_data, params)
        with pytest.raises(ValueError):
            sample_posterior(post, 0, seed=1)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="n_draws must be an integer"):
                sample_posterior(post, bad, seed=1)


class TestGrowingNoise:
    """At p > 0 the index weights see the data only through X_i / sigma_i,
    so the index posterior does not drift to n_trunc as sigma_i grows."""

    @pytest.mark.parametrize("shrunk", [False, True], ids=["mixture", "shrunk"])
    def test_weights_read_only_the_standardized_data(self, params, shrunk):
        z = np.random.default_rng(20261018).standard_normal(512)
        log_w = []
        for p in (0.0, 0.5, 1.0, 2.0):
            data = observed(make_model(0.1, p, 512).sigma * z, eps=0.1, p=p)
            post = make_posterior(data, params, variant="full-bayes-shrunk" if shrunk else "mixture")
            log_w.append(post.weights.log_w)
        for other in log_w[1:]:
            np.testing.assert_allclose(other, log_w[0], rtol=0.0, atol=1e-12)

    def test_mean_index_on_noise_does_not_grow_with_n_trunc(self, params):
        means = []
        for n in (256, 1024, 4096):
            model = make_model(0.05, 1.0, n)
            zero = generate_signal("zero", n_trunc=n)
            means.append(np.mean([
                mixture_weights(simulate(model, zero, seed), params).w @ np.arange(1, n + 1)
                for seed in range(20)
            ]))
        assert max(means) <= 2.0 * means[0], means

    def test_zero_signal_risk_ratio_does_not_grow_with_n_trunc(self):
        ratios = []
        for n in (256, 1024, 4096):
            spec = default_spec(
                "oracle-inequality", p=1.0, n_trunc=n, signals=({"kind": "zero", "params": {}},),
                eps_grid=(0.05,), reps=40, pilot_reps=2,
            )
            ratios.append(run_experiment(spec).summary["cells"][0]["ratio"])
        assert ratios[-1] <= 2.0 * ratios[0], ratios


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
