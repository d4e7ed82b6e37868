"""Feldman and Pedersen verifiable secret sharing, and proactive VSS."""

import pytest

from repro.crypto.drbg import DeterministicRandom
from repro.errors import ParameterError, VerificationError
from repro.gmath.primes import default_group, generate_schnorr_group
from repro.secretsharing.verifiable import (
    KEY_LIMB_BYTES,
    FeldmanShare,
    FeldmanVSS,
    PedersenShare,
    PedersenVSS,
    ProactiveVSS,
    deal_key_limbs,
    join_key_limbs,
)


@pytest.fixture
def rng():
    return DeterministicRandom(b"vss")


@pytest.fixture(scope="module")
def small_group():
    # 64-bit group: big enough for protocol tests, fast to generate.
    return generate_schnorr_group(bits=64, seed=33)


@pytest.fixture(scope="module")
def tiny_group():
    # 16-bit group: small enough that tests can play the unbounded
    # adversary and brute-force discrete logs.
    return generate_schnorr_group(bits=16, seed=5)


class TestFeldman:
    def test_deal_verify_reconstruct(self, rng):
        vss = FeldmanVSS(5, 3)
        deal = vss.deal(123456, rng)
        assert all(vss.verify_share(s, deal.commitments) for s in deal.shares)
        assert vss.reconstruct(list(deal.shares)) == 123456 % vss.group.q

    def test_subset_reconstruction(self, rng):
        vss = FeldmanVSS(6, 3)
        deal = vss.deal(777, rng)
        assert vss.reconstruct(list(deal.shares)[2:5]) == 777

    def test_corrupt_share_detected(self, rng):
        vss = FeldmanVSS(5, 3)
        deal = vss.deal(42, rng)
        bad = FeldmanShare(index=1, value=(deal.shares[0].value + 1) % vss.group.q)
        assert not vss.verify_share(bad, deal.commitments)

    def test_commitment_count_equals_threshold(self, rng):
        vss = FeldmanVSS(5, 3)
        deal = vss.deal(42, rng)
        assert len(deal.commitments) == 3

    def test_feldman_leaks_secret_image(self, rng):
        """The LINCOS objection: C_0 = g^s is public."""
        vss = FeldmanVSS(4, 2)
        deal = vss.deal(99, rng)
        assert vss.secret_image(deal.commitments) == vss.group.exp_g(99)

    def test_too_few_shares_rejected(self, rng):
        vss = FeldmanVSS(5, 3)
        deal = vss.deal(1, rng)
        with pytest.raises(ParameterError):
            vss.reconstruct(list(deal.shares)[:2])

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            FeldmanVSS(3, 4)


class TestPedersenVss:
    def test_deal_verify_reconstruct(self, rng):
        vss = PedersenVSS(5, 3)
        deal = vss.deal(987654, rng)
        assert all(vss.verify_share(s, deal.commitments) for s in deal.shares)
        assert vss.reconstruct(list(deal.shares)) == 987654 % vss.group.q

    def test_corrupt_value_detected(self, rng):
        vss = PedersenVSS(5, 3)
        deal = vss.deal(42, rng)
        s = deal.shares[0]
        bad = PedersenShare(index=s.index, value=(s.value + 1) % vss.group.q, blinding=s.blinding)
        assert not vss.verify_share(bad, deal.commitments)
        with pytest.raises(VerificationError):
            vss.require_valid(bad, deal.commitments)

    def test_corrupt_blinding_detected(self, rng):
        vss = PedersenVSS(5, 3)
        deal = vss.deal(42, rng)
        s = deal.shares[0]
        bad = PedersenShare(index=s.index, value=s.value, blinding=(s.blinding + 1) % vss.group.q)
        assert not vss.verify_share(bad, deal.commitments)

    def test_zero_secret_deal(self, rng):
        vss = PedersenVSS(4, 2)
        deal = vss.deal(12345, rng, zero_secret=True)
        assert vss.reconstruct(list(deal.shares)) == 0

    def test_commitments_hide_secret(self, rng, tiny_group):
        """Unlike Feldman, C_0 opens to ANY value with a suitable blinding:
        even an unbounded adversary (here: one that brute-forces exponents
        in a tiny group) cannot pin down the dealt secret."""
        vss = PedersenVSS(3, 2, tiny_group)
        deal = vss.deal(10, rng)
        c0 = deal.commitments[0]
        g, h, p, q = tiny_group.g, tiny_group.h, tiny_group.p, tiny_group.q
        # Exhibit an opening of c0 to the WRONG value 11: find b' with
        # g^11 h^b' = c0 (h generates the subgroup, so b' always exists).
        target = (c0 * pow(g, -11, p)) % p
        exponent = next(x for x in range(q) if pow(h, x, p) == target)
        assert (pow(g, 11, p) * pow(h, exponent, p)) % p == c0

    def test_custom_group(self, rng, small_group):
        vss = PedersenVSS(4, 2, small_group)
        deal = vss.deal(55, rng)
        assert vss.reconstruct(list(deal.shares)) == 55 % small_group.q


class TestProactiveVss:
    def test_initialize_and_reconstruct(self, rng):
        pv = ProactiveVSS(5, 3)
        pv.initialize(424242, rng)
        assert pv.reconstruct() == 424242

    def test_renewal_preserves_secret(self, rng):
        pv = ProactiveVSS(5, 3)
        pv.initialize(31337, rng)
        for _ in range(3):
            report = pv.renew(rng)
            assert report.deals_rejected == 0
            assert pv.reconstruct() == 31337

    def test_shares_change_each_renewal(self, rng):
        pv = ProactiveVSS(4, 2)
        pv.initialize(1, rng)
        before = pv.shares()[1].value
        pv.renew(rng)
        assert pv.shares()[1].value != before

    def test_commitments_stay_consistent_after_renewal(self, rng):
        pv = ProactiveVSS(4, 2)
        pv.initialize(5555, rng)
        pv.renew(rng)
        for share in pv.shares().values():
            assert pv.vss.verify_share(share, pv.commitments)

    def test_corrupt_dealer_rejected_and_secret_survives(self, rng):
        pv = ProactiveVSS(5, 3)
        pv.initialize(2024, rng)
        report = pv.renew(rng, corrupt_dealers={2, 4})
        assert set(report.rejected_dealers) == {2, 4}
        assert report.deals_verified == 3
        assert pv.reconstruct() == 2024

    def test_epoch_counter(self, rng):
        pv = ProactiveVSS(3, 2)
        pv.initialize(9, rng)
        pv.renew(rng)
        pv.renew(rng)
        assert pv.epoch == 2


def _joined(groups, key_length):
    return join_key_limbs((group.reconstruct() for group in groups), key_length)


class TestKeyLimbs:
    """Key escrow: one ProactiveVSS committee per KEY_LIMB_BYTES limb."""

    def test_limb_fits_below_the_group_order(self):
        assert 8 * KEY_LIMB_BYTES < default_group().q.bit_length()

    @pytest.mark.parametrize("length", [1, 15, 16, 30, 32, 45])
    def test_round_trip(self, rng, length):
        key = bytes((0xFF - i) % 256 for i in range(length))
        groups = deal_key_limbs(key, 5, 3, rng)
        assert len(groups) == -(-length // KEY_LIMB_BYTES)
        assert all((group.n, group.t) == (5, 3) for group in groups)
        assert _joined(groups, length) == key

    def test_leading_zero_bytes_survive(self, rng):
        key = bytes(14) + b"\x01" + bytes(16) + b"\x02"
        assert _joined(deal_key_limbs(key, 4, 2, rng), len(key)) == key

    def test_key_survives_renewal(self, rng):
        key = bytes(range(32))
        groups = deal_key_limbs(key, 5, 3, rng)
        for _ in range(2):
            for group in groups:
                assert group.renew(rng).deals_rejected == 0
        assert _joined(groups, len(key)) == key

    def test_limbs_are_dealt_in_order_from_one_rng(self):
        key = bytes(range(1, 33))
        dealt_rng = DeterministicRandom(b"limbs")
        groups = deal_key_limbs(key, 5, 3, dealt_rng)
        manual_rng = DeterministicRandom(b"limbs")
        for offset, group in zip(range(0, len(key), KEY_LIMB_BYTES), groups):
            expected = ProactiveVSS(5, 3)
            limb = key[offset : offset + KEY_LIMB_BYTES]
            expected.initialize(int.from_bytes(limb, "big"), manual_rng)
            assert group.shares() == expected.shares()
            assert group.commitments == expected.commitments
        assert dealt_rng.bytes(16) == manual_rng.bytes(16)

    @pytest.mark.parametrize(
        "limbs, key_length, expected",
        [
            ([(3 << 120) | 0xAB], 15, bytes(14) + b"\xab"),
            ([(1 << 120) + 5, (1 << 8) + 7], 16, bytes(14) + b"\x05\x07"),
            ([1 << 200, (1 << 120) - 1], 30, bytes(15) + b"\xff" * 15),
        ],
        ids=["one-limb", "short-last-limb", "two-full-limbs"],
    )
    def test_join_reduces_each_limb_to_its_width(self, limbs, key_length, expected):
        assert join_key_limbs(limbs, key_length) == expected

    def test_mixed_epoch_shares_join_to_a_wrong_key(self, rng):
        # A haul from two renewal epochs reconstructs an arbitrary group
        # element per limb: the join yields a wrong key, not an overflow.
        key = bytes(range(32))
        groups = deal_key_limbs(key, 5, 3, rng)
        stale = [group.shares() for group in groups]
        for group in groups:
            group.renew(rng)
        limbs = [
            group.vss.reconstruct([old[1], old[2], group.shares()[3]])
            for group, old in zip(groups, stale)
        ]
        assert any(value >> (8 * KEY_LIMB_BYTES) for value in limbs)
        joined = join_key_limbs(limbs, len(key))
        assert len(joined) == len(key) and joined != key
