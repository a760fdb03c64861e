"""Oracle rates, class membership checks, and noise-sequence conditions.

The projection oracles are cross-checked against deliberately slow
pure-Python scans so the vectorized implementations never drift.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcred import (
    Ellipsoid,
    Hyperrectangle,
    covers_check,
    ebr_check,
    generate_signal,
    make_model,
    minimax_rate,
    oracle,
    pt_check,
    pt_to_ebr_tau,
    scale_class,
    simulate,
    surrogate_oracle,
    verify_sigma_conditions,
)
from seqcred.oracle import sigma_constants


def brute_oracle(theta, model):
    """Reference scan: r^2(I) = Sigma(I) + sum_{i>I} theta_i^2, smallest argmin."""
    n = model.n_trunc
    th = np.zeros(n)
    th[: len(theta)] = theta
    best_i, best = None, math.inf
    for i_cand in range(1, n + 1):
        val = sum(float(model.sigma_sq[j]) for j in range(i_cand)) + float(
            np.sum(th[i_cand:] ** 2)
        )
        if val < best:
            best, best_i = val, i_cand
    return best_i, best


class TestOracle:
    def test_matches_brute_force_on_random_signals(self, small_model):
        rng = np.random.default_rng(2024)
        m = make_model(0.1, 0.7, n_trunc=40)
        for _ in range(20):
            theta = rng.standard_normal(40) * np.exp(-0.2 * np.arange(40))
            sig = generate_signal("custom", {"coeffs": theta}, n_trunc=40)
            res = oracle(sig, m)
            bi, bv = brute_oracle(theta, m)
            assert res.i_star == bi
            assert res.rate_sq == pytest.approx(bv, rel=1e-12)

    def test_sobolev_frozen_value(self, small_model, sobolev_signal):
        res = oracle(sobolev_signal, small_model)
        assert res.i_star == 4
        assert res.rate_sq == pytest.approx(0.06438726647214103, rel=1e-12)
        assert res.variance_term == pytest.approx(0.04, rel=1e-12)
        assert res.rate == pytest.approx(math.sqrt(res.rate_sq))

    def test_zero_signal_picks_first_index(self):
        m = make_model(0.1, 0.0, n_trunc=32)
        res = oracle(generate_signal("zero", n_trunc=32), m)
        assert res.i_star == 1
        assert res.rate_sq == pytest.approx(0.01)
        assert res.bias_term == 0.0

    def test_decomposition_adds_up(self, small_model, sobolev_signal):
        res = oracle(sobolev_signal, small_model)
        assert res.rate_sq == pytest.approx(res.variance_term + res.bias_term, rel=1e-14)


class TestSurrogateOracle:
    def test_direct_case_equals_oracle(self, sobolev_signal):
        """At p = 0 the rescaled objective is the plain one, index and value."""
        m = make_model(0.1, 0.0, n_trunc=256)
        o = oracle(sobolev_signal, m)
        s = surrogate_oracle(sobolev_signal, m)
        assert s.i_bar == o.i_star
        assert s.surr_rate_sq == pytest.approx(o.rate_sq, rel=1e-12)
        assert s.sigma_sum == pytest.approx(o.variance_term, rel=1e-12)

    def test_matches_brute_force_ill_posed(self):
        m = make_model(0.05, 1.5, n_trunc=30)
        rng = np.random.default_rng(7)
        for _ in range(10):
            theta = rng.standard_normal(30) / np.arange(1, 31)
            sig = generate_signal("custom", {"coeffs": theta}, n_trunc=30)
            res = surrogate_oracle(sig, m)
            # reference scan of I*eps^2 + sum_{i>I} theta_i^2 / i^{2p}
            kappa_sq = np.arange(1, 31, dtype=float) ** 3.0
            vals = [
                0.05**2 * i_cand + float(np.sum(theta[i_cand:] ** 2 / kappa_sq[i_cand:]))
                for i_cand in range(1, 31)
            ]
            assert res.i_bar == int(np.argmin(vals)) + 1
            assert res.surr_rate_sq == pytest.approx(min(vals), rel=1e-12)

    def test_sigma_sum_is_variance_at_i_bar(self, sobolev_signal):
        m = make_model(0.1, 1.0, n_trunc=256)
        res = surrogate_oracle(sobolev_signal, m)
        assert res.sigma_sum == pytest.approx(m.variance_sums[res.i_bar], rel=1e-15)


class TestEbr:
    def test_sobolev_frozen_ratio(self, small_model, sobolev_signal):
        res = ebr_check(sobolev_signal, small_model, tau=6.0)
        assert res.member
        assert res.i_bar == 4
        assert res.ratio == pytest.approx(0.6096816618035255, rel=1e-12)

    def test_deceptive_ratio_exactly_ten(self):
        """The spike construction puts mass 10*eps^2 just past the surrogate
        index, so bias/variance lands on 10 up to rounding."""
        m = make_model(0.1, 0.0, n_trunc=1024)
        sig = generate_signal("deceptive", {"epsilon": 0.1, "p": 0.0}, n_trunc=1024)
        res = ebr_check(sig, m, tau=1.0)
        assert not res.member
        assert res.i_bar == 1
        assert res.ratio == pytest.approx(10.0, rel=1e-12)

    def test_zero_signal_always_member(self):
        m = make_model(0.2, 1.0, n_trunc=64)
        res = ebr_check(generate_signal("zero", n_trunc=64), m, tau=0.001)
        assert res.member
        assert res.ratio == 0.0

    def test_rejects_nonpositive_tau(self, small_model, sobolev_signal):
        with pytest.raises(ValueError):
            ebr_check(sobolev_signal, small_model, tau=0.0)

    def test_ratio_definition(self, small_model, sobolev_signal):
        res = ebr_check(sobolev_signal, small_model, tau=2.0)
        th2 = sobolev_signal.padded(256) ** 2
        assert res.bias_tail == pytest.approx(float(th2[res.i_bar :].sum()), rel=1e-12)
        assert res.ratio == pytest.approx(res.bias_tail / res.variance_sum, rel=1e-15)


class TestPolishedTail:
    def test_geometric_passes(self):
        sig = generate_signal("custom", {"coeffs": 2.0 ** -np.arange(1, 21)}, n_trunc=20)
        assert pt_check(sig, L0=2.0, N0=1, rho0=2.0)

    def test_isolated_spike_fails(self):
        coeffs = np.zeros(20)
        coeffs[4] = 1.0  # spike at index 5: the window [2, 4] misses it
        sig = generate_signal("custom", {"coeffs": coeffs}, n_trunc=20)
        assert not pt_check(sig, L0=2.0, N0=1, rho0=2.0)

    def test_spike_passes_with_late_start(self):
        coeffs = np.zeros(20)
        coeffs[4] = 1.0
        sig = generate_signal("custom", {"coeffs": coeffs}, n_trunc=20)
        assert pt_check(sig, L0=2.0, N0=5, rho0=2.0)

    def test_zero_signal_passes(self):
        sig = generate_signal("zero", n_trunc=16)
        assert pt_check(sig, L0=1.0, N0=1, rho0=2.0)

    def test_tail_below_rounding_still_counts(self):
        """At N = 2 the tail is 1e-18 and the window [2, 4] is empty.  A tail
        taken as a difference of prefix sums, 1 + 1e-18 - 1, reads 0 there
        and lets the late spike pass."""
        coeffs = np.zeros(64)
        coeffs[0], coeffs[49] = 1.0, 1e-9
        sig = generate_signal("custom", {"coeffs": coeffs}, n_trunc=64)
        assert not pt_check(sig, L0=2.0, N0=1, rho0=2.0)
        assert pt_check(sig, L0=2.0, N0=26, rho0=2.0)

    @pytest.mark.parametrize("kwargs", [
        dict(L0=0.5, N0=1, rho0=2.0),
        dict(L0=2.0, N0=0, rho0=2.0),
        dict(L0=2.0, N0=1, rho0=1.5),
        dict(L0=2.0, N0=True, rho0=2.0),
        dict(L0=2.0, N0=2.5, rho0=2.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        sig = generate_signal("zero", n_trunc=8)
        with pytest.raises(ValueError):
            pt_check(sig, **kwargs)

    @pytest.mark.parametrize("n0", [2.0, np.int64(2)])
    def test_integral_N0_kept(self, n0):
        sig = generate_signal("sobolev-boundary", {"beta": 1.0}, n_trunc=16)
        assert pt_check(sig, 2.0, n0, 2.0) == pt_check(sig, 2.0, 2, 2.0)

    def test_tau_transfer_values(self):
        # direct case: K1 = 1, K2 = (rho0*N0 + 1)^1 = 3, so tau = L0 * 3
        assert pt_to_ebr_tau(2.0, 1, 2.0, 0.0) == pytest.approx(6.0, rel=1e-14)
        # p = 1: K1 = 3, K2 = 27
        assert pt_to_ebr_tau(2.0, 1, 2.0, 1.0) == pytest.approx(162.0, rel=1e-14)

    @settings(max_examples=40, deadline=None)
    @given(
        scale=st.floats(1e-3, 1e3, allow_nan=False),
        seed=st.integers(0, 2**31),
    )
    def test_scale_invariance(self, scale, seed):
        """Both sides of the tail inequality scale together."""
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal(16) * np.exp(-0.3 * np.arange(16))
        a = generate_signal("custom", {"coeffs": coeffs}, n_trunc=16)
        b = generate_signal("custom", {"coeffs": scale * coeffs}, n_trunc=16)
        assert pt_check(a, 2.0, 1, 2.0) == pt_check(b, 2.0, 1, 2.0)


class TestSigmaConstants:
    def test_direct_case_values(self):
        c = sigma_constants(0.0)
        assert c.k1 == 1.0
        assert c.k2 == pytest.approx(3.0)
        assert c.tau == pytest.approx(4.0)
        assert c.k4 == 0.5
        assert c.k5 == 1.0
        assert c.k3 == pytest.approx(10.361873819930429, rel=1e-12)

    def test_p_one_values(self):
        c = sigma_constants(1.0)
        assert c.k1 == 3.0
        assert c.k2 == pytest.approx(27.0)
        assert c.tau == pytest.approx(2.0 ** (4.0 / 3.0), rel=1e-14)
        assert c.k5 == pytest.approx(0.0625)
        assert c.k3 == pytest.approx(807.7404258906201, rel=1e-12)

    def test_k3_formula(self):
        # spot re-derivation for p = 1/2, gamma = 1/2
        c = sigma_constants(0.5, gamma=0.5)
        expected = 4.0 * 8.0 / ((math.e * 0.5) ** 2 * (math.exp(0.25) - 1.0))
        assert c.k3 == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sigma_constants(-0.1)
        with pytest.raises(ValueError):
            sigma_constants(0.0, rho=0.5)
        for nan in (dict(rho=math.nan), dict(tau0=math.nan)):
            with pytest.raises(ValueError, match="rho and tau0 must be >= 1"):
                sigma_constants(0.0, **nan)
        with pytest.raises(ValueError):
            sigma_constants(0.0, gamma=0.0)

    def test_overflow_is_a_value_error(self):
        with pytest.raises(ValueError, match="K2 or K3 overflows a float at p=60"):
            sigma_constants(60)


class TestSigmaConditions:
    @pytest.mark.parametrize("p", [0.0, 0.5, 1.0, 2.0])
    def test_passes_at_moderate_range(self, p):
        rep = verify_sigma_conditions(make_model(0.1, p, n_trunc=16), n_max=500)
        assert rep.passed
        assert rep.violations == ()
        assert set(rep.margins) == {"i", "ii", "iii", "iv", "v"}
        assert all(m <= 1.0 + 1e-9 for m in rep.margins.values())

    def test_region_endpoints_cover_real_arguments(self):
        """Spot-check conditions (iv) and (v) on a dense grid of non-lattice
        real arguments against the same constants; the endpoint scan must not
        be hiding violations between grid points."""
        model = make_model(0.3, 1.0, n_trunc=8)
        c = sigma_constants(1.0)
        rng = np.random.default_rng(11)
        n_max = 300
        i = np.arange(1, n_max + 1, dtype=float)
        s = np.concatenate(([0.0], np.cumsum(0.09 * i**2)))
        for m in rng.uniform(c.tau, n_max, size=4000):
            lhs = s[int(math.floor(m / c.tau))]
            rhs = (1.0 - c.k4) * s[int(math.floor(m))]
            assert lhs <= rhs * (1 + 1e-9)
        for ell in rng.uniform(2.0, n_max, size=4000):
            lo, hi = int(math.floor(ell / 2.0)), int(math.floor(ell))
            assert c.k5 * (s[hi] - s[lo]) <= ell * 0.09 * lo**2 * (1 + 1e-9)

    def test_conditions_without_region_points_hold(self):
        """Below tau = 2^(4/3) condition (iv) has no region point: it holds
        with margin 0."""
        rep = verify_sigma_conditions(make_model(1.0, 0.0, 4), 3)
        assert rep.passed
        assert rep.margins["iv"] == 0.0

    def test_rejects_bad_n_max(self):
        with pytest.raises(ValueError):
            verify_sigma_conditions(make_model(0.1, 0.0, 8), n_max=0)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="n_max must be an integer"):
                verify_sigma_conditions(make_model(0.1, 0.0, 8), n_max=bad)

    @pytest.mark.parametrize("kwargs", [
        dict(n_max=10, gamma=1e-9),
        dict(n_max=10, rho=1e9),
        dict(n_max=10, rho=math.inf),
        dict(n_max=10**9),
    ])
    def test_refuses_arrays_past_the_term_bound(self, kwargs, monkeypatch):
        """The bound is checked before any long array is built."""
        arange = np.arange

        def short_arange(*args, **kw):
            assert max(abs(float(a)) for a in args) <= 5e7, args
            return arange(*args, **kw)

        monkeypatch.setattr(np, "arange", short_arange)
        with pytest.raises(ValueError, match="noise terms"):
            verify_sigma_conditions(make_model(0.1, 1.0, 8), **kwargs)


class TestScaleClasses:
    def test_radii_formulas(self):
        i = np.arange(1, 9, dtype=float)
        ell = scale_class("sobolev-ellipsoid", {"beta": 1.5, "Q": 4.0}, 8)
        np.testing.assert_allclose(ell.a, 2.0 * i**-1.5, rtol=1e-14)
        hyp = scale_class("sobolev-hyperrect", {"beta": 1.5, "Q": 4.0}, 8)
        np.testing.assert_allclose(hyp.a, 2.0 * i**-2.0, rtol=1e-14)
        ana = scale_class("analytic-ellipsoid", {"c": 0.5, "d": 1.0, "Q": 1.0}, 8)
        np.testing.assert_allclose(ana.a, np.exp(-0.25 * i), rtol=1e-14)
        par = scale_class("parametric-hyperrect", {"Q": 9.0, "N0": 2}, 8)
        np.testing.assert_array_equal(par.a, [3.0, 3.0, 0, 0, 0, 0, 0, 0])

    def test_kinds(self):
        assert scale_class("sobolev-ellipsoid", {}, 4).kind == "ellipsoid"
        assert scale_class("sobolev-hyperrect", {}, 4).kind == "hyperrect"
        with pytest.raises(ValueError, match="unknown scale"):
            scale_class("besov", {}, 4)

    def test_ellipsoid_contains(self):
        e = Ellipsoid(np.array([2.0, 1.0]))
        assert e.contains(np.array([2.0, 0.0]))
        assert e.contains(np.array([1.0, 0.5 * math.sqrt(3.0)]))
        assert not e.contains(np.array([2.0, 0.1]))
        # zero tail radii: only exact zeros allowed there
        assert e.contains(np.array([0.0, 1.0, 0.0]))
        assert not e.contains(np.array([0.0, 0.0, 0.5]))

    def test_hyperrect_contains(self):
        h = Hyperrectangle(np.array([1.0, 0.5]))
        assert h.contains(np.array([1.0, -0.5]))
        assert not h.contains(np.array([1.1, 0.0]))
        assert not h.contains(np.array([0.0, 0.0, 0.01]))

    def test_radii_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            Ellipsoid(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            Hyperrectangle(np.array([-1.0]))
        with pytest.raises(ValueError):
            Ellipsoid(np.array([[1.0], [0.5]]))

    @pytest.mark.parametrize("signal_kind,scale,params", [
        ("sobolev-boundary", "sobolev-hyperrect", {"beta": 0.75, "Q": 3.0}),
        ("sobolev-boundary", "sobolev-hyperrect", {}),
        ("analytic", "analytic-ellipsoid", {"c": 0.3, "d": 1.5, "Q": 2.0}),
        ("parametric", "parametric-hyperrect", {"Q": 5.0, "N0": 7}),
    ])
    def test_class_boundary_is_the_signal(self, signal_kind, scale, params):
        """A boundary signal and its scale share the radii bit for bit."""
        a = scale_class(scale, params, 64).a
        np.testing.assert_array_equal(a, generate_signal(signal_kind, params, n_trunc=64).coeffs)

    @pytest.mark.parametrize("name,params", [
        ("sobolev-hyperrect", {"beta": -0.25}),
        ("sobolev-ellipsoid", {"beta": -0.25}),
        ("sobolev-ellipsoid", {"Q": 0.0}),
        ("analytic-ellipsoid", {"c": 0.0}),
        ("analytic-ellipsoid", {"d": -1.0}),
        ("parametric-hyperrect", {"N0": 0}),
        ("parametric-hyperrect", {"N0": 99}),
        ("sobolev-hyperrect", [("beta", 1.0)]),
        ("analytic-ellipsoid", {"c": None}),
        ("parametric-hyperrect", {"N0": 2.5}),
        ("parametric-hyperrect", {"N0": True}),
    ])
    def test_rejects_bad_parameters(self, name, params):
        """Scales take the parameter checks of the signal families."""
        with pytest.raises(ValueError):
            scale_class(name, params, 16)


class TestMinimaxRate:
    def test_parametric_frozen(self):
        m = make_model(0.1, 0.0, 64)
        cls = scale_class("parametric-hyperrect", {"Q": 1.0, "N0": 3}, 64)
        assert minimax_rate(cls, m) == pytest.approx(0.03, rel=1e-12)

    def test_sobolev_ellipsoid_frozen(self):
        m = make_model(0.1, 0.0, 64)
        cls = scale_class("sobolev-ellipsoid", {"beta": 1.0, "Q": 1.0}, 64)
        # argmin at I = 5: 5*0.01 + 1/36
        assert minimax_rate(cls, m) == pytest.approx(0.05 + 1.0 / 36.0, rel=1e-12)

    def test_hyperrect_brute_force(self):
        m = make_model(0.07, 0.5, 32)
        cls = scale_class("sobolev-hyperrect", {"beta": 0.8, "Q": 2.0}, 32)
        a2 = cls.a**2
        vals = [m.variance_sums[i_c] + float(a2[i_c:].sum()) for i_c in range(1, 33)]
        assert minimax_rate(cls, m) == pytest.approx(min(vals), rel=1e-12)

    def test_rejects_class_below_noise_level(self):
        m = make_model(1.0, 0.0, 16)
        cls = scale_class("sobolev-ellipsoid", {"beta": 1.0, "Q": 0.25}, 16)
        with pytest.raises(ValueError, match="noise level"):
            minimax_rate(cls, m)


class TestCoversCheck:
    @pytest.mark.parametrize(
        "name,params,bound",
        [
            ("sobolev-ellipsoid", {"beta": 1.0, "Q": 1.0}, (2 * math.pi) ** 2),
            ("sobolev-hyperrect", {"beta": 1.0, "Q": 1.0}, 2.5),
            ("analytic-ellipsoid", {"c": 1.0, "d": 1.0, "Q": 1.0}, (2 * math.pi) ** 2),
            ("parametric-hyperrect", {"Q": 4.0, "N0": 3}, 2.5),
        ],
    )
    def test_standard_scales_pass(self, name, params, bound):
        m = make_model(0.1, 0.0, 128)
        cls = scale_class(name, params, 128)
        rep = covers_check(cls, m, n_samples=60, seed=0, lambda_trials=200)
        assert rep.passed
        assert rep.threshold == bound
        assert rep.worst_ratio <= bound
        assert rep.lambda_all_hold
        assert rep.lambda_worst_margin >= 0.0

    def test_deterministic_given_seed(self):
        m = make_model(0.1, 0.0, 64)
        cls = scale_class("sobolev-ellipsoid", {"beta": 1.0, "Q": 1.0}, 64)
        a = covers_check(cls, m, n_samples=30, seed=3, lambda_trials=50)
        b = covers_check(cls, m, n_samples=30, seed=3, lambda_trials=50)
        assert a == b

    def test_rejects_bad_sample_count(self):
        m = make_model(0.1, 0.0, 64)
        cls = scale_class("sobolev-ellipsoid", {"beta": 1.0, "Q": 1.0}, 64)
        for bad in (2.5, True, "3"):
            with pytest.raises(ValueError, match="n_samples must be an integer"):
                covers_check(cls, m, n_samples=bad, seed=3, lambda_trials=50)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_samples must be >= 1"):
                covers_check(cls, m, n_samples=bad, seed=3, lambda_trials=50)

    def test_sample_count_is_the_request(self):
        """The axis sweep of an ellipsoid takes at most n_samples spikes, so a
        request below the spike count is not raised to it."""
        m = make_model(0.1, 0.0, 1024)
        cls = scale_class("sobolev-ellipsoid", {"beta": 1.0, "Q": 1.0}, 1024)
        for n_samples in (1, 5, 25, 200):
            assert covers_check(cls, m, n_samples=n_samples, seed=0, lambda_trials=10).n_samples == n_samples


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31), eps=st.floats(0.01, 1.0), p=st.floats(0.0, 2.0))
def test_oracle_rate_below_any_candidate(seed, eps, p):
    """The oracle value is a minimum: no projection level does better."""
    rng = np.random.default_rng(seed)
    n = 24
    theta = rng.standard_normal(n)
    m = make_model(eps, p, n_trunc=n)
    sig = generate_signal("custom", {"coeffs": theta}, n_trunc=n)
    res = oracle(sig, m)
    i_c = int(rng.integers(1, n + 1))
    candidate = m.variance_sums[i_c] + float(np.sum(theta[i_c:] ** 2))
    assert res.rate_sq <= candidate * (1 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_noisier_data_never_shrinks_oracle_variance(seed):
    """Doubling eps doubles sigma pointwise, so the oracle rate scales up."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(20)
    sig = generate_signal("custom", {"coeffs": theta}, n_trunc=20)
    r1 = oracle(sig, make_model(0.1, 0.5, 20)).rate_sq
    r2 = oracle(sig, make_model(0.2, 0.5, 20)).rate_sq
    assert r2 >= r1 - 1e-15
