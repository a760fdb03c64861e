"""Model construction, signal families, and simulation determinism."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcred import (
    ModelConfig,
    ObservedData,
    Signal,
    ebr_check,
    family_radii,
    generate_signal,
    make_model,
    pad,
    simulate,
    tail_sums,
)
from seqcred.model import _integer


class TestModelConfig:
    def test_sigma_values(self):
        m = make_model(0.05, 1.0, n_trunc=10)
        i = np.arange(1, 11, dtype=float)
        np.testing.assert_allclose(m.sigma, 0.05 * i, rtol=0, atol=0)

    def test_direct_problem_sigma_constant(self):
        m = make_model(0.3, 0.0, n_trunc=7)
        assert np.all(m.sigma == 0.3)

    def test_sigma_is_readonly(self):
        m = make_model(0.1, 0.0, n_trunc=4)
        with pytest.raises(ValueError):
            m.sigma[0] = 99.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, p=0.0, n_trunc=4),
            dict(epsilon=-1.0, p=0.0, n_trunc=4),
            dict(epsilon=0.1, p=-0.5, n_trunc=4),
            dict(epsilon=0.1, p=0.0, n_trunc=0),
            dict(epsilon=math.nan, p=0.0, n_trunc=4),
            dict(epsilon=math.inf, p=0.0, n_trunc=4),
            dict(epsilon=0.1, p=math.nan, n_trunc=4),
            dict(epsilon=0.1, p=math.inf, n_trunc=4),
            dict(epsilon=0.1, p=0.0, n_trunc=96.5),
            dict(epsilon=0.1, p=0.0, n_trunc=True),
            dict(epsilon="0.1", p=0.0, n_trunc=4),
            dict(epsilon=True, p=0.0, n_trunc=4),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)
        with pytest.raises(ValueError):
            make_model(**kwargs)

    def test_integral_truncation_kept(self):
        assert make_model(0.1, 0.0, 96.0).n_trunc == make_model(0.1, 0.0, np.int64(96)).n_trunc == 96

    def test_default_truncation(self):
        assert make_model(0.1, 0.0).n_trunc == 4096


class TestSignalFamilies:
    def test_zero(self):
        s = generate_signal("zero", n_trunc=12)
        assert s.kind == "zero"
        assert np.all(s.coeffs == 0.0)
        assert len(s) == 12

    def test_sobolev_boundary_sits_on_envelope(self):
        beta, q = 1.5, 2.0
        s = generate_signal("sobolev-boundary", {"beta": beta, "Q": q}, n_trunc=64)
        i = np.arange(1, 65, dtype=float)
        np.testing.assert_allclose(s.coeffs**2, q * i ** (-(2 * beta + 1)), rtol=1e-14)

    def test_sobolev_random_within_envelope_and_seeded(self):
        s1 = generate_signal("sobolev-random", {"beta": 1.0, "Q": 1.0}, n_trunc=64, seed=5)
        s2 = generate_signal("sobolev-random", {"beta": 1.0, "Q": 1.0}, n_trunc=64, seed=5)
        s3 = generate_signal("sobolev-random", {"beta": 1.0, "Q": 1.0}, n_trunc=64, seed=6)
        np.testing.assert_array_equal(s1.coeffs, s2.coeffs)
        assert not np.array_equal(s1.coeffs, s3.coeffs)
        a = np.arange(1, 65, dtype=float) ** (-1.5)
        assert np.all(np.abs(s1.coeffs) <= a)

    def test_analytic_decay(self):
        s = generate_signal("analytic", {"c": 1.0, "d": 1.0, "Q": 1.0}, n_trunc=32)
        np.testing.assert_allclose(
            s.coeffs, np.exp(-0.5 * np.arange(1, 33, dtype=float)), rtol=1e-14
        )

    def test_parametric_block(self):
        s = generate_signal("parametric", {"Q": 4.0, "N0": 3}, n_trunc=10)
        assert np.all(s.coeffs[:3] == 2.0)
        assert np.all(s.coeffs[3:] == 0.0)

    def test_deceptive_spike_location_and_mass(self):
        # p = 0, eps = 0.1: spike lands at ceil(2 / 0.01) = 200 with mass 10 eps^2
        s = generate_signal("deceptive", {"epsilon": 0.1, "p": 0.0}, n_trunc=1024)
        nz = np.nonzero(s.coeffs)[0]
        assert list(nz) == [199]
        assert s.coeffs[199] == pytest.approx(math.sqrt(0.1), rel=1e-15)
        assert s.params["spike_index"] == 200
        # at p = 1 and p = 2 the formula's index (10 and 6) passes the
        # excess-bias check, so the spike moves out to the first failing index
        for p, j in ((1.0, 11), (2.0, 12)):
            s = generate_signal("deceptive", {"epsilon": 0.1, "p": p}, n_trunc=1024)
            assert list(np.nonzero(s.coeffs)[0]) == [j - 1]
            assert s.params["spike_index"] == j
            assert s.params["spike_mass"] == 10.0 * 0.1**2 * float(j) ** (2.0 * p)
            assert not ebr_check(s, make_model(0.1, p, 1024), tau=1.0).member

    def test_deceptive_needs_room_for_spike(self):
        with pytest.raises(ValueError, match="truncation"):
            generate_signal("deceptive", {"epsilon": 0.1, "p": 0.0}, n_trunc=100)
        # at p = 1 the formula's index 10 passes the check and no later one fits
        with pytest.raises(ValueError, match="construction failed"):
            generate_signal("deceptive", {"epsilon": 0.1, "p": 1.0}, n_trunc=10)

    def test_custom_passthrough(self):
        s = generate_signal("custom", {"coeffs": [1.0, -2.0, 3.0]}, n_trunc=5)
        np.testing.assert_array_equal(s.coeffs, [1.0, -2.0, 3.0, 0.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown signal kind"):
            generate_signal("fourier", n_trunc=5)

    @pytest.mark.parametrize("kind,params", [
        ("sobolev-boundary", {"beta": -1.0}),
        ("sobolev-boundary", {"Q": 0.0}),
        ("analytic", {"c": -1.0}),
        ("parametric", {"N0": 0}),
        ("parametric", {"N0": 99}),
    ])
    def test_rejects_bad_family_parameters(self, kind, params):
        with pytest.raises(ValueError):
            generate_signal(kind, params, n_trunc=16)

    @pytest.mark.parametrize("kind", ["zero", "sobolev-boundary"])
    @pytest.mark.parametrize("n_trunc", [0, True, 2.5])
    def test_rejects_bad_truncation(self, kind, n_trunc):
        with pytest.raises(ValueError, match="n_trunc must be"):
            generate_signal(kind, n_trunc=n_trunc)

    @pytest.mark.parametrize("n_trunc", [8, 8.0, np.int64(8)])
    def test_integral_truncation_kept(self, n_trunc):
        assert len(generate_signal("sobolev-boundary", n_trunc=n_trunc)) == 8


class TestZeroTail:
    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_tail_sums_match_brute_force_loop(self, n):
        v = np.random.default_rng(n).standard_normal(n) ** 2
        tail = tail_sums(v)
        assert tail.shape == (n + 1,)
        want, acc = np.zeros(n + 1), 0.0
        for i in range(n - 1, -1, -1):  # sum_{i > I} v_i, accumulated from the end
            acc += v[i]
            want[i] = acc
        np.testing.assert_array_equal(tail, want)
        np.testing.assert_allclose(tail, [math.fsum(v[k:]) for k in range(n + 1)], rtol=1e-12, atol=0)

    def test_pad_extends_truncates_and_copies(self):
        v = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(pad(v, 5), [1.0, 2.0, 3.0, 0.0, 0.0])
        np.testing.assert_array_equal(pad([1, 2], 1), [1.0])
        same = pad(v, 3)
        same[0] = 9.0
        assert v[0] == 1.0

    def test_variance_sums_are_the_cumulative_variances(self):
        m = make_model(0.1, 1.0, n_trunc=6)
        np.testing.assert_array_equal(m.variance_sums, np.concatenate(([0.0], np.cumsum(m.sigma_sq))))

    def test_family_radii_parse_params(self):
        a, parsed = family_radii("parametric", {"Q": 4, "N0": 2.0}, 4)
        np.testing.assert_array_equal(a, [2.0, 2.0, 0.0, 0.0])
        assert parsed == {"Q": 4.0, "N0": 2}
        assert family_radii("sobolev", {}, 3)[1] == {"beta": 1.0, "Q": 1.0}
        with pytest.raises(ValueError, match="unknown family"):
            family_radii("sobolev-boundary", {}, 3)


class TestSignalObject:
    def test_padded_extends_and_truncates(self):
        s = Signal(np.array([1.0, 2.0]), "custom")
        np.testing.assert_array_equal(s.padded(4), [1.0, 2.0, 0.0, 0.0])
        np.testing.assert_array_equal(s.padded(1), [1.0])

    def test_json_round_trip(self):
        s = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=8)
        back = Signal.from_json(s.to_json())
        np.testing.assert_array_equal(back.coeffs, s.coeffs)
        assert back.kind == s.kind
        assert back.params == dict(s.params)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            Signal(np.array([1.0, np.inf]), "custom")

    def test_rejects_matrix(self):
        with pytest.raises(ValueError):
            Signal(np.ones((2, 2)), "custom")

    @pytest.mark.parametrize("d, message", [
        ([1, 2], "a signal must be a JSON object"),
        ({"kind": "zero"}, "signal lacks field(s) ['coeffs']"),
        ({"coeffs": [1.0]}, "signal lacks field(s) ['kind']"),
        ({"kind": "custom", "coeffs": [1.0], "params": [1]}, "signal params must be a JSON object"),
        ({"kind": "custom", "coeffs": {"a": 1}}, "signal coefficients must hold numbers only"),
    ], ids=["array", "no-coeffs", "no-kind", "list-params", "dict-coeffs"])
    def test_from_dict_rejects_malformed(self, d, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            Signal.from_dict(d)


class TestParameterParsing:
    @pytest.mark.parametrize("kind, params, message", [
        ("sobolev-boundary", {"beta": None}, "parameter 'beta' must be a number, got None"),
        ("analytic", {"c": "x"}, "parameter 'c' must be a number"),
        ("parametric", {"N0": math.inf}, "parameter 'N0' must be a number"),
        ("parametric", {"N0": math.nan}, "parameter 'N0' must be a number"),
        ("deceptive", {}, "missing parameter 'epsilon'"),
        ("custom", {"coeffs": {"a": 1}}, "coeffs must hold numbers only"),
        ("sobolev-boundary", [1], "signal params must be a JSON object"),
        ("parametric", {"N0": 2.5}, "parameter 'N0' must be an integer, got 2.5"),
        ("parametric", {"N0": True}, "parameter 'N0' must be an integer, got True"),
        ("sobolev-boundary", {"beta": "1.5"}, "parameter 'beta' must be a number, got '1.5'"),
        ("sobolev-boundary", {"Q": True}, "parameter 'Q' must be a number, got True"),
        ("deceptive", {"epsilon": 0.0}, "epsilon must be positive and finite, got 0.0"),
        ("deceptive", {"epsilon": -0.1}, "epsilon must be positive and finite, got -0.1"),
        ("deceptive", {"epsilon": math.nan}, "epsilon must be positive and finite, got nan"),
        ("deceptive", {"epsilon": math.inf}, "epsilon must be positive and finite, got inf"),
        ("deceptive", {"epsilon": 0.5, "p": -1}, "p must be nonnegative and finite, got -1.0"),
        ("deceptive", {"epsilon": 0.5, "p": math.inf}, "p must be nonnegative and finite, got inf"),
    ], ids=["null-beta", "string-c", "inf-N0", "nan-N0", "no-epsilon", "dict-coeffs", "list-params",
            "fractional-N0", "bool-N0", "string-beta", "bool-Q", "zero-epsilon", "negative-epsilon",
            "nan-epsilon", "inf-epsilon", "negative-p", "inf-p"])
    def test_bad_params_raise_value_error_naming_the_field(self, kind, params, message):
        with pytest.raises(ValueError, match=message):
            generate_signal(kind, params, n_trunc=16)

    @pytest.mark.parametrize("n0", [3, 3.0, np.int64(3)])
    def test_integral_N0_kept(self, n0):
        assert generate_signal("parametric", {"N0": n0}, n_trunc=16).params["N0"] == 3


class TestIntegerRange:
    """_integer is the one range rule for counts and indices."""

    @pytest.mark.parametrize("value", [1, 5, 5.0, np.int64(5), 9, 9.0, np.int64(9)])
    def test_in_range_kept(self, value):
        assert _integer(value, "count", lo=1) == int(value)
        assert _integer(value, "index", 1, 9) == int(value)
        assert type(_integer(value, "index", 1, 9)) is int

    @pytest.mark.parametrize("value, lo, hi, message", [
        (0, 1, None, "count must be >= 1, got 0"),
        (-3.0, 1, None, "count must be >= 1, got -3"),
        (np.int64(999), 1000, None, "count must be >= 1000, got 999"),
        (0, 1, 9, "count must be in [1, 9], got 0"),
        (10, 1, 9, "count must be in [1, 9], got 10"),
        (np.int64(10), 1, 9, "count must be in [1, 9], got 10"),
    ])
    def test_out_of_range_names_the_field(self, value, lo, hi, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            _integer(value, "count", lo, hi)

    @pytest.mark.parametrize("value", [2.5, True, "3", None, math.nan, math.inf])
    def test_non_integers_refused_before_the_range(self, value):
        with pytest.raises(ValueError, match="count must be an integer"):
            _integer(value, "count", 1, 9)


class TestObservedData:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError, match="data must be finite"):
            ObservedData(x=np.array([0.1, bad, 0.3]), model=make_model(0.1, 0.0, 3), seed=None)

    def test_rejects_non_numeric(self):
        with pytest.raises(ValueError, match="data must hold numbers only"):
            ObservedData(x={"a": 1}, model=make_model(0.1, 0.0, 3), seed=None)


class TestSimulate:
    def test_shape_and_model_attached(self, small_model, sobolev_signal):
        d = simulate(small_model, sobolev_signal, seed=1)
        assert d.x.shape == (256,)
        assert d.model is small_model
        assert d.seed == 1

    def test_same_seed_bit_identical(self, small_model, sobolev_signal):
        a = simulate(small_model, sobolev_signal, seed=77)
        b = simulate(small_model, sobolev_signal, seed=77)
        assert a.x.tobytes() == b.x.tobytes()

    def test_different_seed_differs(self, small_model, sobolev_signal):
        a = simulate(small_model, sobolev_signal, seed=77)
        b = simulate(small_model, sobolev_signal, seed=78)
        assert not np.array_equal(a.x, b.x)

    def test_noise_uses_model_sigma(self):
        """With a known seed the draw must equal theta + sigma * Z exactly."""
        m = make_model(0.2, 1.0, n_trunc=16)
        s = generate_signal("parametric", {"Q": 1.0, "N0": 4}, n_trunc=16)
        d = simulate(m, s, seed=99)
        z = np.random.default_rng(99).standard_normal(16)
        np.testing.assert_array_equal(d.x, s.coeffs + m.sigma * z)

    @pytest.mark.parametrize("seed", [1.7, True])
    def test_seed_must_be_an_integer(self, small_model, sobolev_signal, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            simulate(small_model, sobolev_signal, seed=seed)

    def test_integral_float_seed(self, small_model, sobolev_signal):
        d = simulate(small_model, sobolev_signal, seed=3.0)
        assert d.seed == 3 and type(d.seed) is int
        assert d.x.tobytes() == simulate(small_model, sobolev_signal, seed=3).x.tobytes()

    def test_signal_longer_than_model_rejected(self, small_model):
        long_sig = generate_signal("zero", n_trunc=1024)
        with pytest.raises(ValueError, match="exceeds"):
            simulate(small_model, long_sig, seed=0)

    def test_shorter_signal_zero_padded(self):
        m = make_model(0.1, 0.0, n_trunc=8)
        s = Signal(np.array([5.0]), "custom")
        d = simulate(m, s, seed=3)
        z = np.random.default_rng(3).standard_normal(8)
        np.testing.assert_array_equal(d.x[1:], 0.1 * z[1:])


@settings(max_examples=25, deadline=None)
@given(
    beta=st.floats(0.1, 4.0, allow_nan=False),
    q=st.floats(0.01, 50.0, allow_nan=False),
    n=st.integers(1, 200),
)
def test_sobolev_boundary_weighted_squares_constant(beta, q, n):
    """i^(2 beta + 1) * theta_i^2 equals Q at every coordinate, by construction."""
    s = generate_signal("sobolev-boundary", {"beta": beta, "Q": q}, n_trunc=n)
    i = np.arange(1, n + 1, dtype=float)
    np.testing.assert_allclose(i ** (2 * beta + 1) * s.coeffs**2, q, rtol=1e-10)
