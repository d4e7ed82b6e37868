"""Instrumentation budget: work per read and per store, counted, not timed.

Every metric update ends in ``Counter.inc``, ``Histogram.observe`` or
``Gauge.set``.  These tests count those calls for one healthy and one
repaired service read, and for one healthy service store, on a tiered
CENTURY_SAFE_ECONOMY archive, and hold each count to a ceiling; the store
also holds its SHA-256 calls and bytes and its ChaCha20 keystream bytes.
A count does not depend on host speed, so the ceiling cannot flake the
way a wall-time budget on a shared host would; a change that adds
per-share or per-call updates to the read path, or hashing to the store
path, fails here.
"""

from collections import Counter as Tally

import pytest

from repro.core.archive import SecureArchive
from repro.core.policy import CENTURY_SAFE_ECONOMY
from repro.crypto.drbg import DeterministicRandom
from repro.obs import metrics, use_registry
from repro.service.server import ArchiveService, Request
from repro.storage.placement import share_key
from repro.storage.tiering import TIER_COLD, TIER_HOT, TIER_WARM, make_tiered_fleet

#: Update calls per read, by method: (healthy read, repaired read).
CEILINGS = {
    "Counter.inc": (39, 47),
    "Histogram.observe": (10, 10),
    "Gauge.set": (1, 1),
}

#: One healthy service store of a 64 KiB object onto a chain that already
#: has a link, with the archive's own signer height: metric update calls,
#: and the counters of its hash and keystream work.
STORE_CEILINGS = {
    "Counter.inc": 54,
    "crypto_hash_calls_total{algorithm=sha256}": 10,
    "crypto_hash_bytes_total{algorithm=sha256}": 223156,
    "crypto_cipher_bytes_total{cipher=chacha20}": 65536,
}


class _Archive(SecureArchive):
    SIGNER_HEIGHT = 4


@pytest.fixture
def updates(monkeypatch):
    """A tally of metric update calls by method, from now on."""
    tally = Tally()
    methods = ((metrics.Counter, "inc"), (metrics.Histogram, "observe"), (metrics.Gauge, "set"))
    for cls, method in methods:
        original = getattr(cls, method)
        name = f"{cls.__name__}.{method}"

        def counted(self, *args, _original=original, _name=name, **kwargs):
            tally[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, counted)
    return tally


def test_reads_stay_within_their_update_budget(updates):
    with use_registry():
        fleet = make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6})
        archive = _Archive(CENTURY_SAFE_ECONOMY, fleet, DeterministicRandom(b"budget"))
        archive.enable_tiering()
        service = ArchiveService(archive, rng=DeterministicRandom(b"budget/service"))
        service.submit(Request("store", "doc", payload=bytes(range(256)) * 64))
        service.submit(Request("retrieve", "doc", arrival_s=0.1))

        updates.clear()
        service.submit(Request("retrieve", "doc", arrival_s=0.2))
        healthy = dict(updates)
        assert archive.last_read_report.repair_candidates == []

        node_id = archive.receipt("doc").placement.node_by_share[1]
        archive.placement_policy.node(node_id).corrupt_object(share_key("doc", 1), b"rot")
        updates.clear()
        service.submit(Request("retrieve", "doc", arrival_s=0.3))
        repaired = dict(updates)
        assert archive.last_read_report.shares_repaired == 1

    for method, (healthy_ceiling, repaired_ceiling) in CEILINGS.items():
        assert healthy.get(method, 0) <= healthy_ceiling, method
        assert repaired.get(method, 0) <= repaired_ceiling, method


def test_a_store_stays_within_its_budget(updates):
    payload = bytes(range(256)) * 256
    with use_registry() as registry:
        fleet = make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6})
        archive = SecureArchive(CENTURY_SAFE_ECONOMY, fleet, DeterministicRandom(b"budget"))
        archive.enable_tiering()
        service = ArchiveService(archive, rng=DeterministicRandom(b"budget/service"))
        service.submit(Request("store", "doc", payload=payload))
        before = registry.snapshot()["counters"]
        updates.clear()
        service.submit(Request("store", "doc-2", payload=payload, arrival_s=0.1))
        inc_calls = updates["Counter.inc"]
        after = registry.snapshot()["counters"]
    assert len(archive.chain) == 2
    spent = {name: after.get(name, 0) - before.get(name, 0) for name in STORE_CEILINGS}
    spent["Counter.inc"] = inc_calls
    for name, ceiling in STORE_CEILINGS.items():
        assert spent[name] <= ceiling, (name, spent[name])
