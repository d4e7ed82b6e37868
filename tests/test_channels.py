"""Channels: TLS-like (harvestable), QKD (ITS), and BSM key agreement."""

import pytest

from repro.channels.bsm import BoundedStorageChannel, BsmAdversary
from repro.channels.qkd import QkdLink
from repro.channels.tls import TlsLikeChannel
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import ChannelError, ParameterError
from repro.security import SecurityNotion


@pytest.fixture
def timeline():
    tl = BreakTimeline()
    tl.schedule_break("toy-dh", 10)
    tl.schedule_break("chacha20", 20)
    return tl


class TestTlsLike:
    def test_roundtrip(self):
        channel = TlsLikeChannel(DeterministicRandom(0))
        t = channel.send(b"hello node")
        assert channel.receive(t) == b"hello node"

    def test_wire_is_not_plaintext(self):
        channel = TlsLikeChannel(DeterministicRandom(1))
        t = channel.send(b"plaintext material")
        assert t.wire != b"plaintext material"

    def test_sequence_numbers_and_accounting(self):
        channel = TlsLikeChannel(DeterministicRandom(2))
        a = channel.send(b"one")
        b = channel.send(b"two!")
        assert (a.sequence, b.sequence) == (0, 1)
        assert channel.bytes_sent == 7

    def test_classification(self):
        channel = TlsLikeChannel(DeterministicRandom(3))
        assert channel.notion is SecurityNotion.COMPUTATIONAL

    def test_break_open_before_break_fails(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(4))
        t = channel.send(b"harvest me")
        with pytest.raises(ChannelError):
            channel.break_open(t, timeline, epoch=5)

    def test_break_open_needs_all_primitives_broken(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(5))
        t = channel.send(b"harvest me")
        # DH broken at 10, ChaCha20 at 20: epoch 15 is not enough.
        with pytest.raises(ChannelError):
            channel.break_open(t, timeline, epoch=15)

    def test_break_open_after_break_succeeds(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(6))
        t = channel.send(b"harvest me")
        assert channel.break_open(t, timeline, epoch=25) == b"harvest me"

    def test_wrong_channel_transmission_rejected(self):
        a = TlsLikeChannel(DeterministicRandom(7))
        rng = DeterministicRandom(8)
        qkd = QkdLink(rng)
        qkd.advance_time(1)
        t = qkd.send(b"hi")
        with pytest.raises(ChannelError):
            a.receive(t)


class TestQkd:
    def test_pad_generation_and_send(self):
        link = QkdLink(DeterministicRandom(0), key_rate_bytes_per_s=100)
        link.advance_time(2.0)
        assert link.pad_available == 200
        t = link.send(b"x" * 150)
        assert link.receive(t) == b"x" * 150
        assert link.pad_available == 50

    def test_pad_exhaustion_blocks(self):
        link = QkdLink(DeterministicRandom(1), key_rate_bytes_per_s=10)
        with pytest.raises(ChannelError):
            link.send(b"too much data")

    def test_seconds_needed(self):
        link = QkdLink(DeterministicRandom(2), key_rate_bytes_per_s=100)
        assert link.seconds_needed_for(250) == pytest.approx(2.5)
        link.advance_time(1.0)
        assert link.seconds_needed_for(250) == pytest.approx(1.5)

    def test_never_breakable(self):
        link = QkdLink(DeterministicRandom(3))
        link.advance_time(1.0)
        t = link.send(b"forever secret")
        timeline = BreakTimeline()
        assert not link.is_breakable_at(timeline, 10**9)
        with pytest.raises(ChannelError):
            link.break_open(t, timeline, 10**9)

    def test_wire_leaks_nothing_about_plaintext(self):
        """OTP wire bytes are uniform: equal messages yield unequal wires."""
        link = QkdLink(DeterministicRandom(4), key_rate_bytes_per_s=1e6)
        link.advance_time(1.0)
        a = link.send(b"same message")
        b = link.send(b"same message")
        assert a.wire != b.wire

    def test_receive_needs_a_pad_this_link_recorded(self):
        sender = QkdLink(DeterministicRandom(9), key_rate_bytes_per_s=1e6)
        sender.advance_time(1.0)
        t = sender.send(b"meant for another link")
        with pytest.raises(ChannelError):
            QkdLink(DeterministicRandom(10)).receive(t)

    def test_infrastructure_cost(self):
        link = QkdLink(DeterministicRandom(5), distance_km=100)
        assert link.infrastructure_cost_usd == pytest.approx(100_000 + 10_000 * 100)

    def test_classification(self):
        assert QkdLink(DeterministicRandom(6)).notion is SecurityNotion.INFORMATION_THEORETIC

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            QkdLink(DeterministicRandom(7), key_rate_bytes_per_s=0)
        with pytest.raises(ParameterError):
            QkdLink(DeterministicRandom(8), distance_km=-1)
        link = QkdLink(DeterministicRandom(9))
        with pytest.raises(ParameterError):
            link.advance_time(-1)


class TestBsm:
    def test_agreement_without_adversary(self):
        channel = BoundedStorageChannel(
            stream_bytes=10_000, honest_positions=128, shared_seed=b"seed"
        )
        result = channel.agree()
        assert len(result.key) == 128 - 16
        assert result.adversary_known_positions == 0

    def test_small_adversary_leaves_long_key(self):
        channel = BoundedStorageChannel(
            stream_bytes=100_000, honest_positions=256, shared_seed=b"s",
            rng=DeterministicRandom(0),
        )
        adversary = BsmAdversary(storage_bytes=10_000, rng=DeterministicRandom(1))
        result = channel.agree(adversary)
        # ~10% of positions known; expected key ~ 256*0.9 - 16 ~ 214.
        assert 180 < len(result.key) < 245
        assert result.residual_entropy_bytes > 180

    def test_huge_adversary_fails_agreement(self):
        channel = BoundedStorageChannel(
            stream_bytes=10_000, honest_positions=64, shared_seed=b"s",
            rng=DeterministicRandom(2),
        )
        adversary = BsmAdversary(storage_bytes=10_000, rng=DeterministicRandom(3))
        with pytest.raises(ChannelError):
            channel.agree(adversary)

    def test_knowledge_fraction_tracks_storage_ratio(self):
        channel = BoundedStorageChannel(
            stream_bytes=50_000, honest_positions=512, shared_seed=b"s",
            rng=DeterministicRandom(4),
        )
        adversary = BsmAdversary(storage_bytes=25_000, rng=DeterministicRandom(5))
        result = channel.agree(adversary)
        assert result.adversary_knowledge_fraction == pytest.approx(0.5, abs=0.1)

    def test_expected_key_bytes_analytic(self):
        channel = BoundedStorageChannel(
            stream_bytes=1000, honest_positions=100, shared_seed=b"s"
        )
        assert channel.expected_key_bytes(0) == pytest.approx(84)
        assert channel.expected_key_bytes(500) == pytest.approx(34)
        assert channel.expected_key_bytes(1000) == 0.0

    def test_both_parties_derive_same_key(self):
        """The seed determines the positions, so two honest endpoints with
        the same seed and broadcast derive identical keys."""
        a = BoundedStorageChannel(5000, 64, b"shared", rng=DeterministicRandom(6))
        b = BoundedStorageChannel(5000, 64, b"shared", rng=DeterministicRandom(6))
        assert a.agree().key == b.agree().key

    def test_different_seeds_different_keys(self):
        a = BoundedStorageChannel(5000, 64, b"alpha", rng=DeterministicRandom(7))
        b = BoundedStorageChannel(5000, 64, b"beta", rng=DeterministicRandom(7))
        assert a.agree().key != b.agree().key

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            BoundedStorageChannel(0, 1, b"s")
        with pytest.raises(ParameterError):
            BoundedStorageChannel(10, 11, b"s")
        with pytest.raises(ParameterError):
            BsmAdversary(-1, DeterministicRandom(0))
