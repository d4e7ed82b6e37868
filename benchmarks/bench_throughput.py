"""Encode/decode throughput of every data path (engineering benchmark).

Not a paper artifact, but the measurement that justifies the library's
vectorized substrate: archival pipelines are byte-touching machines, and
the benchmark table documents MB/s for each encoding on 1 MiB objects, plus
ChaCha20 at the DRBG's 64 KiB slab, where per-call cost dominates.
"""

import pytest

from repro.crypto.aes import aes_ctr_xor
from repro.crypto.chacha20 import chacha20_keystream, chacha20_xor
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.aont import aont_package, aont_unpackage
from repro.crypto.sha256 import sha256
from repro.gmath.reedsolomon import ReedSolomonCode
from repro.secretsharing.aontrs import AontRsDispersal
from repro.secretsharing.packed import PackedSecretSharing
from repro.secretsharing.shamir import ShamirSecretSharing

MIB = 1 << 20
SLAB = 64 << 10  # one DeterministicRandom refill
DATA = DeterministicRandom(b"throughput").bytes(MIB)


@pytest.fixture(scope="module")
def rng():
    return DeterministicRandom(b"bench")


def test_bench_sha256(benchmark):
    digest = benchmark(sha256, DATA)
    assert len(digest) == 32


def test_bench_aes_ctr(benchmark):
    ct = benchmark(aes_ctr_xor, b"\x01" * 32, b"\x02" * 12, DATA)
    assert len(ct) == MIB


def test_bench_chacha20(benchmark):
    ct = benchmark(chacha20_xor, b"\x01" * 32, b"\x02" * 12, DATA)
    assert len(ct) == MIB


def test_bench_chacha20_keystream_slab(benchmark):
    stream = benchmark(chacha20_keystream, b"\x01" * 32, b"\x02" * 12, SLAB)
    assert len(stream) == SLAB


def test_bench_aont_package(benchmark, rng):
    package = benchmark(aont_package, DATA, rng)
    assert len(package) == MIB + 32


def test_bench_aont_unpackage(benchmark, rng):
    package = aont_package(DATA, rng)
    plain = benchmark(aont_unpackage, package)
    assert plain == DATA


def test_bench_rs_encode(benchmark):
    code = ReedSolomonCode(6, 4)
    shards = benchmark(code.encode, DATA)
    assert len(shards) == 6


def test_bench_rs_decode_parity_path(benchmark):
    code = ReedSolomonCode(6, 4)
    shards = code.encode(DATA)
    # Force the interpolation path (skip systematic shard 0).
    subset = [shards[1], shards[2], shards[4], shards[5]]
    plain = benchmark(code.decode, subset, MIB)
    assert plain == DATA


def test_bench_shamir_split(benchmark, rng):
    scheme = ShamirSecretSharing(5, 3)
    split = benchmark(scheme.split, DATA, rng)
    assert split.total == 5


def test_bench_shamir_reconstruct(benchmark, rng):
    scheme = ShamirSecretSharing(5, 3)
    split = scheme.split(DATA, rng)
    shares = list(split.shares)[1:4]
    plain = benchmark(scheme.reconstruct, shares)
    assert plain == DATA


def test_bench_packed_split(benchmark, rng):
    scheme = PackedSecretSharing(n=8, t=2, k=4)
    split = benchmark(scheme.split, DATA, rng)
    assert split.total == 8


def test_bench_aontrs_split(benchmark, rng):
    scheme = AontRsDispersal(6, 4)
    split = benchmark(scheme.split, DATA, rng)
    assert split.total == 6


def test_throughput_summary_artifact(run_once, emit_artifact, rng, cold_warm_mbps):
    """Median-of-5 MB/s table, cold-plan and warm-plan phases.

    Timings come from the observability registry: every round runs inside a
    span and its wall-clock cost is read back from the snapshot, so this
    artifact exercises the same measurement path the library reports.  The
    warm column is what ``tools/bench_ratchet.py`` gates regressions on.
    """
    from repro.analysis.report import render_table

    operations = {
        "sha256": lambda: sha256(DATA),
        "aes-256-ctr": lambda: aes_ctr_xor(b"\x01" * 32, b"\x02" * 12, DATA),
        "chacha20": lambda: chacha20_xor(b"\x01" * 32, b"\x02" * 12, DATA),
        "rs[6,4] encode": lambda: ReedSolomonCode(6, 4).encode(DATA),
        "shamir(5,3) split": lambda: ShamirSecretSharing(5, 3).split(DATA, rng),
        "aont-rs(6,4) split": lambda: AontRsDispersal(6, 4).split(DATA, rng),
    }
    rows = []
    for name, operation in operations.items():
        cold, warm = cold_warm_mbps(name, operation, MIB)
        rows.append((name, f"{cold:.1f}", f"{warm:.1f}"))
    cold, warm = cold_warm_mbps(
        "chacha20 64KiB keystream",
        lambda: chacha20_keystream(b"\x01" * 32, b"\x02" * 12, SLAB),
        SLAB,
    )
    rows.append(("chacha20 64KiB keystream", f"{cold:.1f}", f"{warm:.1f}"))
    run_once(lambda: sha256(DATA))
    emit_artifact(
        "throughput",
        render_table(
            headers=["Operation", "cold MB/s", "warm MB/s"],
            rows=rows,
            title="Data-path throughput (1 MiB object, median of 5)",
        ),
    )
