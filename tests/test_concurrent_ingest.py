"""Concurrent clients over one archive: byte-identity and exact metrics.

The archive's concurrency contract (SecureArchive docstring, DESIGN.md
"Concurrency model") is that public operations serialize on the client
lock while parallelism lives inside them, so N client threads hammering
one archive must (a) never corrupt anything, (b) return the same
plaintexts a sequential run returns, and (c) lose no metrics counts --
the worker-thread counter increments are the exact surface ARCH012 and
the per-metric locks exist for.
"""

import threading

import pytest

from repro.core import SecureArchive
from repro.core.policy import PRACTICAL_COMPUTATIONAL
from repro.crypto.drbg import DeterministicRandom
from repro.obs import metrics
from repro.storage.node import make_node_fleet

CLIENTS = 4
OBJECTS_PER_CLIENT = 6


def _payload(client: int, index: int) -> bytes:
    # Distinct, incompressible-ish, multi-KiB payloads per (client, object).
    seed = bytes([client * 31 + index]) * 64
    return bytes((b + i) % 256 for i, b in enumerate(seed * 40))


def _items_for(client: int) -> list[tuple[str, bytes]]:
    return [
        (f"client-{client}/obj-{index}", _payload(client, index))
        for index in range(OBJECTS_PER_CLIENT)
    ]


def _build_archive() -> SecureArchive:
    return SecureArchive(
        PRACTICAL_COMPUTATIONAL, make_node_fleet(8), DeterministicRandom(99)
    )


def _run_clients(worker):
    """Start one thread per client behind a barrier; re-raise any failure."""
    barrier = threading.Barrier(CLIENTS)
    errors = []
    errors_lock = threading.Lock()

    def runner(client):
        try:
            barrier.wait()
            worker(client)
        except Exception as exc:  # noqa: ARCH001 -- test must surface worker death
            with errors_lock:
                errors.append(exc)

    threads = [
        threading.Thread(target=runner, args=(client,)) for client in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class TestConcurrentIngest:
    def test_concurrent_store_then_retrieve_is_byte_identical(self):
        """4 client threads store_batch disjoint objects, then every object
        retrieves to exactly the bytes it stored -- regardless of how the
        client schedules interleaved."""
        archive = _build_archive()

        def worker(client):
            archive.store_batch(_items_for(client))

        _run_clients(worker)

        for client in range(CLIENTS):
            for object_id, data in _items_for(client):
                assert archive.retrieve(object_id) == data

    def test_concurrent_retrieve_matches_sequential_run(self):
        """The same store workload ingested sequentially and retrieved by 4
        concurrent clients yields plaintexts byte-identical to a sequential
        retrieve of the same ids (reads don't mutate plaintext-visible
        state, so schedules can't matter -- this pins that)."""
        archive = _build_archive()
        for client in range(CLIENTS):
            archive.store_batch(_items_for(client))
        ids = [
            object_id
            for client in range(CLIENTS)
            for object_id, _ in _items_for(client)
        ]
        sequential = {object_id: archive.retrieve(object_id) for object_id in ids}

        results: dict[int, list[bytes]] = {}
        results_lock = threading.Lock()

        def worker(client):
            mine = [object_id for object_id, _ in _items_for(client)]
            batch = archive.retrieve_batch(mine)
            with results_lock:
                results[client] = batch

        _run_clients(worker)

        for client in range(CLIENTS):
            expected = [sequential[object_id] for object_id, _ in _items_for(client)]
            assert results[client] == expected

    def test_concurrent_ingest_loses_no_metrics(self):
        """Counter totals after a 4-thread ingest equal the arithmetic the
        workload implies: one store per object, every payload byte counted
        exactly once.  A single lost update anywhere in the worker fan-out
        breaks the equality."""
        with metrics.use_registry() as registry:
            archive = _build_archive()

            def worker(client):
                archive.store_batch(_items_for(client))
                archive.retrieve_batch(
                    [object_id for object_id, _ in _items_for(client)]
                )

            _run_clients(worker)
            snapshot = registry.snapshot()
            host = registry.host_snapshot()

        counters = snapshot["counters"]
        total_objects = CLIENTS * OBJECTS_PER_CLIENT
        total_bytes = sum(
            len(data)
            for client in range(CLIENTS)
            for _, data in _items_for(client)
        )
        assert counters["archive_ops_total{op=store}"] == total_objects
        assert counters["archive_ops_total{op=store_batch}"] == CLIENTS
        assert counters["archive_ops_total{op=retrieve}"] == total_objects
        assert counters["archive_store_bytes_total"] == total_bytes
        assert counters["archive_retrieve_bytes_total"] == total_bytes
        # Histogram consistency: one batch observation per batch call.
        hist = host["histograms"]["archive_batch_seconds{op=store}"]
        assert hist["count"] == CLIENTS
        assert sum(count for _, count in hist["buckets"]) == CLIENTS

    def test_mixed_concurrent_store_retrieve_delete(self):
        """Clients interleave stores, reads and deletes of disjoint id
        spaces; the archive stays consistent and every surviving object
        round-trips."""
        archive = _build_archive()

        def worker(client):
            items = _items_for(client)
            archive.store_batch(items)
            for object_id, data in items:
                assert archive.retrieve(object_id) == data
            # Every other client deletes its even objects again.
            if client % 2 == 0:
                for index, (object_id, _) in enumerate(items):
                    if index % 2 == 0:
                        archive.delete(object_id)

        _run_clients(worker)

        for client in range(CLIENTS):
            for index, (object_id, data) in enumerate(_items_for(client)):
                if client % 2 == 0 and index % 2 == 0:
                    with pytest.raises(Exception):
                        archive.retrieve(object_id)
                else:
                    assert archive.retrieve(object_id) == data
