"""Pin the batched GF(256) kernel, codec plan caches and batch ingest.

The tentpole refactor moved every codec's bulk path onto one kernel
(:func:`repro.gmath.kernel.gf256_matmul`) and cached the small codec
matrices.  Field arithmetic is exact, so these are *byte-identity*
properties: the kernel-based codecs must reproduce the pre-kernel
Horner/loop reference implementations bit for bit, across seeds, and
cache hits must never change an output.
"""

import numpy as np
import pytest

from repro import (
    ArchivePolicy,
    ConfidentialityTarget,
    DeterministicRandom,
    SecureArchive,
    make_node_fleet,
)
from repro.core.policy import CENTURY_SAFE, PRACTICAL_COMPUTATIONAL
from repro.crypto.aes import _expand_key, aes_ctr_xor
from repro.errors import ObjectNotFoundError, ParameterError
from repro.gmath.gf256 import GF256
from repro.gmath.kernel import (
    clear_plan_caches,
    gf256_matmul,
    lagrange_matrix_plan,
    plan_cache_info,
    rows_as_matrix,
    vandermonde_inverse_plan,
    vandermonde_plan,
)
from repro.gmath.poly import lagrange_basis_at
from repro.gmath.reedsolomon import ReedSolomonCode
from repro.secretsharing.packed import PackedSecretSharing
from repro.secretsharing.shamir import ShamirSecretSharing

SEEDS = [b"kernel-0", b"kernel-1", b"kernel-2"]


def _naive_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference product: scalar field ops, no tables, no vectorization."""
    m, k = a.shape
    _, width = b.shape
    out = np.zeros((m, width), dtype=np.uint8)
    for i in range(m):
        for j in range(k):
            for col in range(width):
                out[i, col] = GF256.add(
                    int(out[i, col]), GF256.mul(int(a[i, j]), int(b[j, col]))
                )
    return out


def _horner_eval(rows: list[np.ndarray], x: int) -> np.ndarray:
    """Pre-kernel reference: Horner evaluation of byte-row coefficients."""
    acc = np.zeros_like(rows[0])
    for row in reversed(rows):
        acc = GF256.scalar_mul_vec(x, acc) ^ row
    return acc


class TestKernel:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_naive_field_loop(self, seed):
        rng = DeterministicRandom(seed)
        m, k, width = 5, 4, 97
        a = rng.uint8_array(m * k).reshape(m, k)
        b = rng.uint8_array(k * width).reshape(k, width)
        assert np.array_equal(gf256_matmul(a, b), _naive_matmul(a, b))

    def test_zero_and_one_coefficients_short_circuit_exactly(self):
        rng = DeterministicRandom(b"shortcircuit")
        b = rng.uint8_array(3 * 64).reshape(3, 64)
        a = np.array([[0, 1, 2], [1, 1, 0], [0, 0, 0]], dtype=np.uint8)
        assert np.array_equal(gf256_matmul(a, b), _naive_matmul(a, b))

    def test_rejects_bad_shapes_and_dtypes(self):
        good = np.zeros((2, 3), dtype=np.uint8)
        with pytest.raises(ParameterError):
            gf256_matmul(good, np.zeros((4, 5), dtype=np.uint8))
        with pytest.raises(ParameterError):
            gf256_matmul(good, np.zeros((3, 5), dtype=np.uint16))
        with pytest.raises(ParameterError):
            gf256_matmul(np.zeros(3, dtype=np.uint8), np.zeros((3, 5), dtype=np.uint8))

    def test_rows_as_matrix_passthrough_and_stack(self):
        matrix = np.arange(12, dtype=np.uint8).reshape(3, 4)
        assert rows_as_matrix(matrix) is matrix
        stacked = rows_as_matrix([matrix[0], matrix[1]])
        assert stacked.shape == (2, 4)
        with pytest.raises(ParameterError):
            rows_as_matrix([])


class TestShamirByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_split_matches_horner_reference(self, seed):
        scheme = ShamirSecretSharing(5, 3)
        data = DeterministicRandom(seed).bytes(601)
        split = scheme.split(data, DeterministicRandom(seed + b"-rng"))

        # Reference: identical rng stream, per-point Horner evaluation.
        rng = DeterministicRandom(seed + b"-rng")
        secret = np.frombuffer(data, dtype=np.uint8)
        randomness = rng.uint8_array((scheme.t - 1) * secret.size).reshape(
            scheme.t - 1, secret.size
        )
        rows = [secret] + [randomness[i] for i in range(scheme.t - 1)]
        for share in split.shares:
            expected = _horner_eval(rows, share.index)
            assert share.payload == expected.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconstruct_from_every_threshold_subset(self, seed):
        scheme = ShamirSecretSharing(5, 3)
        data = DeterministicRandom(seed).bytes(257)
        split = scheme.split(data, DeterministicRandom(seed + b"-rng"))
        shares = list(split.shares)
        for i in range(len(shares)):
            for j in range(i + 1, len(shares)):
                for k in range(j + 1, len(shares)):
                    subset = [shares[i], shares[j], shares[k]]
                    assert scheme.reconstruct(subset) == data

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shamir_is_nonsystematic_rs(self, seed):
        """McEliece-Sarwate: Shamir == non-systematic [n, t] RS applied to
        (secret, r_1, ..., r_{t-1}), still true on the kernel paths."""
        n, t = 6, 3
        scheme = ShamirSecretSharing(n, t)
        code = ReedSolomonCode(n, t)
        data = DeterministicRandom(seed).bytes(340)
        split = scheme.split(data, DeterministicRandom(seed + b"-rng"))

        rng = DeterministicRandom(seed + b"-rng")
        secret = np.frombuffer(data, dtype=np.uint8)
        randomness = rng.uint8_array((t - 1) * secret.size).reshape(t - 1, secret.size)
        rows = [secret] + [randomness[i] for i in range(t - 1)]
        shards = code.encode_nonsystematic(rows)
        for share, shard in zip(split.shares, shards):
            assert share.payload == shard.data
        recovered = code.decode_nonsystematic(shards[1 : t + 1])
        assert recovered[0].tobytes() == data


class TestReedSolomonByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_parity_matches_lagrange_reference(self, seed):
        code = ReedSolomonCode(6, 4)
        data = DeterministicRandom(seed).bytes(4 * 300)
        shards = code.encode(data)
        rows = [np.frombuffer(s.data, dtype=np.uint8) for s in shards[:4]]
        for parity in shards[4:]:
            x = code.points[parity.index]
            expected = np.zeros_like(rows[0])
            for j, row in enumerate(rows):
                coefficient = lagrange_basis_at(GF256, code.points[:4], j, x)
                expected ^= GF256.scalar_mul_vec(coefficient, row)
            assert parity.data == expected.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_decode_every_survivor_subset(self, seed):
        from itertools import combinations

        code = ReedSolomonCode(6, 4)
        data = DeterministicRandom(seed).bytes(1021)  # forces padding
        shards = code.encode(data)
        for subset in combinations(shards, 4):
            assert code.decode(list(subset), len(data)) == data


class TestPackedByteIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tail_shares_match_lagrange_reference(self, seed):
        scheme = PackedSecretSharing(n=8, t=2, k=4)
        data = DeterministicRandom(seed).bytes(997)
        split = scheme.split(data, DeterministicRandom(seed + b"-rng"))

        rng = DeterministicRandom(seed + b"-rng")
        chunk_rows, _ = scheme._chunk(data)
        random_rows = [rng.uint8_array(chunk_rows[0].size) for _ in range(scheme.t)]
        anchors = chunk_rows + random_rows
        shares = list(split.shares)
        for i in range(scheme.t):
            assert shares[i].payload == random_rows[i].tobytes()
        for share in shares[scheme.t :]:
            expected = np.zeros_like(anchors[0])
            for j, row in enumerate(anchors):
                coefficient = lagrange_basis_at(
                    GF256, scheme.anchor_points, j, share.index
                )
                expected ^= GF256.scalar_mul_vec(coefficient, row)
            assert share.payload == expected.tobytes()
        assert scheme.reconstruct(split) == data


class TestPlanCaches:
    def test_interleaved_codes_survivors_and_keys_stay_correct(self):
        """Cache correctness under an adversarial mix: different (n, k)
        parameters, different survivor sets and different AES keys
        interleaved so every lookup alternates hit/miss patterns."""
        from itertools import combinations

        clear_plan_caches()
        datasets = {
            (6, 4): DeterministicRandom(b"mix-a").bytes(800),
            (5, 3): DeterministicRandom(b"mix-b").bytes(799),
            (7, 2): DeterministicRandom(b"mix-c").bytes(251),
        }
        passes = []
        for _ in range(2):  # second pass is all cache hits
            for (n, k), data in datasets.items():
                code = ReedSolomonCode(n, k)
                shards = code.encode(data)
                for subset in list(combinations(shards, k))[:6]:
                    assert code.decode(list(subset), len(data)) == data
            passes.append(plan_cache_info()["lagrange_matrix_plan"])
        first, second = passes
        # The second pass never rebuilds a plan: every parity and
        # survivor-set lookup lands in the Lagrange plan cache.
        assert first["misses"] > 0
        assert second["misses"] == first["misses"]
        assert second["hits"] > first["hits"]

    def test_cached_plans_are_frozen_and_identical_across_calls(self):
        clear_plan_caches()
        first = vandermonde_plan((1, 2, 3), 3)
        again = vandermonde_plan((1, 2, 3), 3)
        assert first is again  # lru_cache returns the same frozen object
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 99
        inverse = vandermonde_inverse_plan((2, 4, 5), 3)
        assert not inverse.flags.writeable
        identity = gf256_matmul(
            vandermonde_plan((2, 4, 5), 3), rows_as_matrix(inverse)
        )
        assert np.array_equal(identity, np.eye(3, dtype=np.uint8))

    def test_lagrange_plan_is_pure_function_of_key(self):
        clear_plan_caches()
        plan = lagrange_matrix_plan((1, 3, 5), (0,))
        expected = [lagrange_basis_at(GF256, [1, 3, 5], j, 0) for j in range(3)]
        assert plan.tolist() == [expected]

    def test_aes_round_key_cache(self):
        keys = [bytes([i]) * 32 for i in range(4)]
        schedules = [_expand_key(key) for key in keys]
        for key, schedule in zip(keys, schedules):
            assert _expand_key(key) is schedule  # cache hit, same object
            assert not schedule.flags.writeable
        # Interleaved keys still encrypt/decrypt correctly.
        nonce = b"\x07" * 12
        plaintext = DeterministicRandom(b"aes-mix").bytes(1000)
        for key in keys + keys[::-1]:
            ciphertext = aes_ctr_xor(key, nonce, plaintext)
            assert aes_ctr_xor(key, nonce, ciphertext) == plaintext


class TestBatchIngest:
    def _archive(self, policy=CENTURY_SAFE, seed=0):
        return SecureArchive(policy, make_node_fleet(6), DeterministicRandom(seed))

    def test_store_batch_roundtrip_in_input_order(self):
        archive = self._archive()
        items = [
            (f"obj-{i}", DeterministicRandom(i).bytes(500 + 37 * i))
            for i in range(5)
        ]
        receipts = archive.store_batch(items)
        assert [r.object_id for r in receipts] == [oid for oid, _ in items]
        results = archive.retrieve_batch([oid for oid, _ in items])
        assert results == [data for _, data in items]
        # Single-object retrieve agrees with the batch path.
        assert archive.retrieve("obj-3") == items[3][1]

    def test_store_batch_rejects_duplicate_ids(self):
        archive = self._archive()
        with pytest.raises(ParameterError):
            archive.store_batch([("dup", b"a"), ("dup", b"b")])

    def test_batch_deterministic_across_identical_archives(self):
        """Two identically seeded archives batch-storing the same items end
        up with byte-identical shares: the parallel encode phase draws all
        randomness from sequentially derived child seeds, so thread
        scheduling cannot influence the outcome."""
        one, two = self._archive(seed=7), self._archive(seed=7)
        items = [
            (f"obj-{i}", DeterministicRandom(100 + i).bytes(777))
            for i in range(4)
        ]
        one.store_batch(items)
        two.store_batch(items)
        for object_id, _ in items:
            stolen_one = one.steal_at_rest(object_id)
            stolen_two = two.steal_at_rest(object_id)
            assert stolen_one == stolen_two

    def test_batch_metrics_histogram_recorded(self):
        from repro.obs import use_registry

        with use_registry() as registry:
            archive = self._archive()
            archive.store_batch([("a", b"x" * 100), ("b", b"y" * 100)])
            archive.retrieve_batch(["a", "b"])
            histograms = registry.host_snapshot()["histograms"]
        assert histograms["archive_batch_seconds{op=store}"]["count"] == 1
        assert histograms["archive_batch_seconds{op=retrieve}"]["count"] == 1

    def test_a_failed_fetch_ends_the_batch_after_the_decodes_before_it(self):
        """Each object's decode starts as soon as its shares are fetched, so
        when a later lookup or fetch raises, the objects fetched before it
        have been decoded and counted, but none is returned or counted as
        retrieved bytes."""
        from repro.obs import use_registry

        with use_registry() as registry:
            archive = self._archive(policy=PRACTICAL_COMPUTATIONAL)
            archive.store_batch([("a", b"x" * 100), ("b", b"y" * 100)])
            with pytest.raises(ObjectNotFoundError):
                archive.retrieve_batch(["a", "ghost", "b"])
            counters = registry.snapshot()["counters"]
        assert counters["archive_ops_total{op=retrieve}"] == 2
        assert counters["crypto_aont_ops_total{direction=unpackage}"] == 1
        assert "archive_retrieve_bytes_total" not in counters

    def test_store_large_flows_through_batch(self):
        from repro.obs import use_registry

        with use_registry() as registry:
            archive = self._archive()
            data = DeterministicRandom(b"large").bytes(10_000)
            archive.store_large("doc", data, segment_bytes=3000)
            assert archive.retrieve_large("doc") == data
            counters = registry.snapshot()["counters"]
        assert counters["archive_ops_total{op=store_batch}"] == 1

    def test_shamir_policy_batch_roundtrip(self):
        policy = ArchivePolicy(
            target=ConfidentialityTarget.LONG_TERM, n=5, t=3
        )
        archive = self._archive(policy=policy, seed=3)
        items = [(f"its-{i}", DeterministicRandom(i).bytes(333)) for i in range(3)]
        archive.store_batch(items)
        assert archive.retrieve_batch([oid for oid, _ in items]) == [
            data for _, data in items
        ]
