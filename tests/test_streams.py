"""The stream table: spawn keys, seed words, data sets, and the one module
that builds them."""

from pathlib import Path

import numpy as np
import pytest

import seqcred
from seqcred import generate_signal, make_model, simulate
from seqcred.streams import data_set, seed_int, stream


class TestSeedTree:
    def test_child_keys_are_stable_and_distinct(self):
        ss = np.random.SeedSequence(123)
        assert seed_int(stream(ss, 4, 0)) == seed_int(stream(ss, 4, 0))
        assert seed_int(stream(ss, 4, 0)) != seed_int(stream(ss, 5, 0))
        assert seed_int(stream(ss, 4, 0)) != seed_int(stream(ss, 4, 1))

    def test_child_extends_existing_spawn_key(self):
        ss = np.random.SeedSequence(9, spawn_key=(2,))
        child = stream(ss, 7)
        assert child.spawn_key == (2, 7)
        assert child.entropy == 9


class TestStream:
    @pytest.mark.parametrize("key", [(), (3,), (782134, 550927, 1, 4)])
    def test_int_root_is_a_plain_seed_sequence(self, key):
        ss = stream(11, *key)
        ref = np.random.SeedSequence(11, spawn_key=key)
        assert (ss.entropy, ss.spawn_key) == (ref.entropy, ref.spawn_key)
        assert seed_int(ss) == int(ref.generate_state(1, np.uint64)[0])

    def test_none_root_keeps_one_entropy_once_resolved(self):
        """The estimators resolve a None seed once, so every rep shares it."""
        root = stream(None)
        assert stream(root, 1).entropy == root.entropy

    def test_data_set_simulates_from_the_seed_word(self):
        model = make_model(0.1, 1.0, 32)
        signal = generate_signal("sobolev-boundary", {"beta": 1.0, "Q": 1.0}, n_trunc=32)
        data = data_set(model, signal, stream(8, 2), 5, 0)
        ref = simulate(model, signal, seed_int(np.random.SeedSequence(8, spawn_key=(2, 5, 0))))
        assert data.seed == ref.seed
        assert np.array_equal(data.x, ref.x)


def test_only_streams_builds_seed_sequences():
    package = Path(seqcred.__file__).parent
    offenders = [
        (path.name, token)
        for path in sorted(package.glob("*.py"))
        if path.name != "streams.py"
        for token in ("SeedSequence(", "generate_state(")
        if token in path.read_text()
    ]
    assert offenders == []
