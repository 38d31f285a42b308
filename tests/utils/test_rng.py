"""Tests of :mod:`repro.utils.rng` (seed handling and stream derivation)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.rng import derive_rng, ensure_rng


class TestEnsureRng:
    def test_none_returns_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_deterministic(self):
        a = ensure_rng(7).integers(0, 1_000_000, size=10)
        b = ensure_rng(7).integers(0, 1_000_000, size=10)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(7).integers(0, 1_000_000, size=10)
        b = ensure_rng(8).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(3)
        assert ensure_rng(gen) is gen

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(99)
        gen = ensure_rng(ss)
        assert isinstance(gen, np.random.Generator)

    def test_numpy_integer_seed(self):
        gen = ensure_rng(np.int64(5))
        assert isinstance(gen, np.random.Generator)

    @pytest.mark.parametrize("bad", ["seed", 1.5, [1, 2], {}])
    def test_invalid_seed_raises(self, bad):
        with pytest.raises(TypeError):
            ensure_rng(bad)


class TestDeriveRng:
    def test_same_keys_same_stream(self):
        parent_a = ensure_rng(10)
        parent_b = ensure_rng(10)
        child_a = derive_rng(parent_a, 3)
        child_b = derive_rng(parent_b, 3)
        assert np.array_equal(
            child_a.integers(0, 1_000_000, 5), child_b.integers(0, 1_000_000, 5)
        )

    def test_different_keys_different_streams(self):
        parent = ensure_rng(10)
        a = derive_rng(parent, 0).integers(0, 1_000_000, 10)
        b = derive_rng(parent, 1).integers(0, 1_000_000, 10)
        assert not np.array_equal(a, b)

    def test_derivation_does_not_consume_parent(self):
        parent_a = ensure_rng(11)
        parent_b = ensure_rng(11)
        derive_rng(parent_a, 1)
        derive_rng(parent_a, 2)
        # Parent streams must still agree even though one spawned children.
        assert np.array_equal(
            parent_a.integers(0, 1_000_000, 5), parent_b.integers(0, 1_000_000, 5)
        )

    def test_multi_key_derivation(self):
        parent = ensure_rng(12)
        a = derive_rng(parent, 1, 2).integers(0, 1_000_000, 5)
        b = derive_rng(parent, 2, 1).integers(0, 1_000_000, 5)
        assert not np.array_equal(a, b)

    def test_requires_at_least_one_key(self):
        with pytest.raises(ValueError):
            derive_rng(ensure_rng(0))

    def test_derivation_is_state_independent(self):
        # Regression: derive_rng once carried a dead draw from the parent
        # stream behind an ``if False`` guard.  Deriving a child must depend
        # only on the parent's seed sequence, so the child is identical
        # whether or not the parent stream has been consumed first.
        fresh = ensure_rng(13)
        consumed = ensure_rng(13)
        consumed.integers(0, 1_000_000, size=100)
        assert np.array_equal(
            derive_rng(fresh, 4).integers(0, 1_000_000, 5),
            derive_rng(consumed, 4).integers(0, 1_000_000, 5),
        )

    @given(seed=st.integers(0, 2**31 - 1), key=st.integers(0, 1_000))
    def test_property_determinism(self, seed, key):
        a = derive_rng(ensure_rng(seed), key).integers(0, 2**31 - 1)
        b = derive_rng(ensure_rng(seed), key).integers(0, 2**31 - 1)
        assert a == b
