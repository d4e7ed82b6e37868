"""Primitive registry / break timeline, DRBG, entropic encryption."""

import pytest

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.entropic import EntropicEncryption
from repro.crypto.registry import (
    BreakTimeline,
    PrimitiveKind,
    PrimitiveRegistry,
    global_registry,
    register_primitive,
)
from repro.errors import AdversaryError, ParameterError
from repro.security import SecurityNotion


class TestRegistry:
    def test_core_primitives_registered(self):
        registry = global_registry()
        for name in (
            "aes-256-ctr",
            "chacha20",
            "sha256",
            "shamir",
            "one-time-pad",
            "legacy-feistel",
            "pedersen",
            "aont-rs",
        ):
            assert name in registry, name

    def test_notions(self):
        registry = global_registry()
        assert registry.get("aes-256-ctr").notion is SecurityNotion.COMPUTATIONAL
        assert registry.get("shamir").notion is SecurityNotion.INFORMATION_THEORETIC
        assert registry.get("one-time-pad").breakable is False

    def test_unknown_primitive(self):
        with pytest.raises(ParameterError):
            global_registry().get("nonexistent")

    def test_reregistration_idempotent(self):
        info = register_primitive(
            name="test-reregister",
            kind=PrimitiveKind.CIPHER,
            description="test",
            hardness_assumption="x",
        )
        again = register_primitive(
            name="test-reregister",
            kind=PrimitiveKind.CIPHER,
            description="test",
            hardness_assumption="x",
        )
        assert info == again

    def test_conflicting_reregistration_rejected(self):
        register_primitive(
            name="test-conflict", kind=PrimitiveKind.CIPHER, description="a",
            hardness_assumption="x",
        )
        with pytest.raises(ParameterError):
            register_primitive(
                name="test-conflict", kind=PrimitiveKind.CIPHER, description="b",
                hardness_assumption="x",
            )

    def test_by_kind(self):
        ciphers = global_registry().by_kind(PrimitiveKind.CIPHER)
        assert any(p.name == "aes-256-ctr" for p in ciphers)

    def test_fresh_registry_isolated(self):
        fresh = PrimitiveRegistry()
        assert "aes-256-ctr" not in fresh


class TestBreakTimeline:
    def test_schedule_and_query(self):
        timeline = BreakTimeline()
        timeline.schedule_break("aes-256-ctr", 10)
        assert not timeline.is_broken("aes-256-ctr", 9)
        assert timeline.is_broken("aes-256-ctr", 10)
        assert timeline.is_broken("aes-256-ctr", 100)

    def test_cannot_break_information_theoretic(self):
        timeline = BreakTimeline()
        with pytest.raises(AdversaryError):
            timeline.schedule_break("one-time-pad", 5)
        with pytest.raises(AdversaryError):
            timeline.schedule_break("shamir", 5)

    def test_historically_broken_always_broken(self):
        timeline = BreakTimeline()
        assert timeline.is_broken("md5", 0)
        assert timeline.is_broken("legacy-feistel", 0)
        assert timeline.break_epoch("md5") == 0

    def test_earliest_break_wins(self):
        timeline = BreakTimeline()
        timeline.schedule_break("aes-256-ctr", 20)
        timeline.schedule_break("aes-256-ctr", 10)
        timeline.schedule_break("aes-256-ctr", 30)
        assert timeline.break_epoch("aes-256-ctr") == 10

    def test_broken_primitives_listing(self):
        timeline = BreakTimeline()
        timeline.schedule_break("aes-256-ctr", 5)
        broken = timeline.broken_primitives(10)
        assert "aes-256-ctr" in broken and "md5" in broken
        assert "aes-256-ctr" not in timeline.broken_primitives(4)

    def test_negative_epoch_rejected(self):
        with pytest.raises(ParameterError):
            BreakTimeline().schedule_break("aes-256-ctr", -1)

    def test_copy_is_independent(self):
        a = BreakTimeline()
        a.schedule_break("aes-256-ctr", 5)
        b = a.copy()
        b.schedule_break("chacha20", 7)
        assert not a.is_broken("chacha20", 10)
        assert b.is_broken("aes-256-ctr", 10)


class TestDeterministicRandom:
    def test_reproducible(self):
        assert DeterministicRandom(7).bytes(100) == DeterministicRandom(7).bytes(100)

    def test_seed_types(self):
        for seed in (0, b"bytes", "string"):
            DeterministicRandom(seed).bytes(10)

    def test_different_seeds_differ(self):
        assert DeterministicRandom(1).bytes(32) != DeterministicRandom(2).bytes(32)

    def test_stream_continuity(self):
        rng = DeterministicRandom(3)
        first = rng.bytes(10)
        second = rng.bytes(10)
        combined = DeterministicRandom(3).bytes(20)
        assert first + second == combined

    def test_interleaved_draws_equal_one_shot(self):
        # Crosses the 64 KiB slab boundary mid-draw and with a draw larger
        # than a slab, so the read offset and the refill both get exercised.
        sizes = [1, 31, 32, 64, 65_536, 70_000, 1, 31, 32, 64]
        rng = DeterministicRandom(b"interleaved")
        interleaved = b"".join(rng.bytes(n) for n in sizes)
        assert rng.bytes(0) == b""
        assert interleaved == DeterministicRandom(b"interleaved").bytes(sum(sizes))
        assert rng.bytes(100) == DeterministicRandom(b"interleaved").bytes(sum(sizes) + 100)[-100:]

    def test_randrange_bounds_and_coverage(self):
        rng = DeterministicRandom(4)
        values = {rng.randrange(10) for _ in range(500)}
        assert values == set(range(10))

    def test_randrange_with_start(self):
        rng = DeterministicRandom(5)
        for _ in range(100):
            assert 5 <= rng.randrange(5, 8) < 8

    def test_empty_randrange_rejected(self):
        with pytest.raises(ParameterError):
            DeterministicRandom(0).randrange(5, 5)

    def test_sample_distinct(self):
        rng = DeterministicRandom(6)
        picked = rng.sample(range(100), 10)
        assert len(set(picked)) == 10

    def test_sample_too_large_rejected(self):
        with pytest.raises(ParameterError):
            DeterministicRandom(0).sample([1, 2], 3)

    def test_shuffle_is_permutation(self):
        rng = DeterministicRandom(7)
        items = list(range(50))
        shuffled = list(items)
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items and shuffled != items

    def test_uniformity_rough(self):
        rng = DeterministicRandom(8)
        arr = rng.uint8_array(100_000)
        assert abs(arr.mean() - 127.5) < 2.0

    def test_random_unit_interval(self):
        rng = DeterministicRandom(9)
        for _ in range(100):
            assert 0 <= rng.random() < 1

    def test_choice(self):
        rng = DeterministicRandom(10)
        assert rng.choice([42]) == 42
        with pytest.raises(ParameterError):
            rng.choice([])

    def test_getrandbits_width(self):
        rng = DeterministicRandom(11)
        for _ in range(50):
            assert 0 <= rng.getrandbits(5) < 32


class TestEntropicEncryption:
    def test_roundtrip(self):
        rng = DeterministicRandom(0)
        scheme = EntropicEncryption()
        key = scheme.generate_key(rng)
        message = rng.bytes(500)
        ct = scheme.encrypt(key, message, rng)
        assert scheme.decrypt(key, ct) == message

    def test_key_is_short(self):
        scheme = EntropicEncryption(key_bytes=16)
        rng = DeterministicRandom(1)
        key = scheme.generate_key(rng)
        assert len(key) == 16  # far below |message|: beats the OTP bound

    def test_wrong_key_garbles(self):
        rng = DeterministicRandom(2)
        scheme = EntropicEncryption()
        ct = scheme.encrypt(scheme.generate_key(rng), b"high entropy data here", rng)
        assert scheme.decrypt(scheme.generate_key(rng), ct) != b"high entropy data here"

    def test_storage_overhead_near_one(self):
        scheme = EntropicEncryption()
        assert scheme.storage_overhead_for(1 << 20) < 1.001

    def test_key_size_validated(self):
        with pytest.raises(ParameterError):
            EntropicEncryption(key_bytes=0)
        scheme = EntropicEncryption(key_bytes=16)
        with pytest.raises(ParameterError):
            scheme.encrypt(b"short", b"m", DeterministicRandom(0))

    def test_conditional_security_failure_mode(self):
        """The Figure 1 asterisk, demonstrated: with a LOW-entropy message
        space (two known candidates) and an enumerable keyspace (1-byte
        key), the adversary decrypts under every key and identifies the
        message -- entropic security's condition matters."""
        rng = DeterministicRandom(7)
        scheme = EntropicEncryption(key_bytes=1, min_entropy_bits=1)
        candidates = [b"attack at dawn, via the mountain pass!",
                      b"attack at dusk, along the river road!!"]
        key = scheme.generate_key(rng)
        ciphertext = scheme.encrypt(key, candidates[0], rng)
        matches = set()
        for candidate_key in range(256):
            guess = scheme.decrypt(bytes([candidate_key]), ciphertext)
            if guess in candidates:
                matches.add(guess)
        assert matches == {candidates[0]}, "enumeration pinpoints the message"
