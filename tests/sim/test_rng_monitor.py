"""Tests for RNG streams and the per-component :class:`Counter`."""

import pytest

from repro.sim import Counter, RngStreams, derive_seed


class TestRngStreams:
    def test_same_name_same_stream_object(self):
        streams = RngStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(42).stream("x").random()
        b = RngStreams(42).stream("x").random()
        assert a == b

    def test_streams_independent(self):
        # Drawing from one stream must not perturb another.
        s1 = RngStreams(42)
        s2 = RngStreams(42)
        _ = [s1.stream("noise").random() for _ in range(100)]
        assert s1.stream("signal").random() == s2.stream("signal").random()

    def test_different_seeds_differ(self):
        assert RngStreams(1).stream("x").random() != RngStreams(2).stream("x").random()

    def test_derive_seed_stable(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")


class TestCounterSampler:
    def test_counter_accumulates(self):
        c = Counter()
        c.increment("x")
        c.increment("x", 4)
        assert c.get("x") == 5
        assert c.get("missing") == 0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter().increment("x", -1)
