"""SecureArchive: the policy-driven facade over the whole library.

This is the public entry point a downstream user starts with (see
``examples/quickstart.py``): pick an :class:`repro.core.policy.ArchivePolicy`
and a node fleet, then store/retrieve; the facade wires up the encoding the
policy implies, disperses shares across independent providers, timestamps
every object onto an integrity chain, and runs the long-term maintenance
(proactive share renewal, chain re-signing) when the epoch clock advances.

The archive *is* an :class:`repro.systems.base.ArchivalSystem`, so all
adversary harnesses (HNDL, mobile) and the classifier work on it directly.
"""

from __future__ import annotations

import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.policy import ArchivePolicy, ConfidentialityTarget
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.commitments import PedersenCommitment
from repro.errors import (
    DecodingError,
    ObjectNotFoundError,
    ParameterError,
    PlacementShortfallError,
    RetentionLockedError,
)
from repro.integrity.timestamp import (
    MerkleChainSigner,
    MerkleChainVerifier,
    TimestampAuthority,
    TimestampChain,
)
from repro.obs import metrics as _metrics
from repro.obs.profiling import profiled
from repro.obs.tracing import span
from repro.secretsharing.aontrs import AontRsDispersal
from repro.secretsharing.base import SplitResult
from repro.secretsharing.leakage import LeakageResilientSharing
from repro.secretsharing.packed import PackedSecretSharing
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.systems.base import ArchivalSystem, StoreReceipt, as_shares, share_payloads


@dataclass
class MaintenanceReport:
    """What one epoch of maintenance did and what it cost."""

    epoch: int
    objects_renewed: int = 0
    renewal_bytes: int = 0
    chain_renewed: bool = False
    #: Tier migrations this epoch's pass made (0 untiered).  A rewrite that
    #: both renews and moves an object counts here and in the renewal
    #: fields above.
    objects_promoted: int = 0
    objects_demoted: int = 0
    migration_bytes: int = 0
    #: Objects whose renewal or migration found too few nodes to place on
    #: (an object due both is on both lists); their shares stay where they
    #: were until a later epoch moves them.
    renewals_deferred: list[str] = field(default_factory=list)
    migrations_deferred: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)


class SecureArchive(ArchivalSystem):
    """Policy-driven secure archive.

    **Client concurrency.**  Public operations serialize on a per-archive
    re-entrant lock: parallelism lives *inside* an operation (batch encode
    fan-out, kernel sharding), never across operations -- the archive rng,
    placement state, receipts, and timestamp chain must be consumed in a
    deterministic order or two identically seeded archives would diverge.
    Concurrent clients therefore see their calls executed in *some*
    sequential order, each call atomic, and the retrieved plaintexts are
    byte-identical to a sequential run (share bytes depend on rng
    interleaving across clients, plaintexts never do).  The lock is
    re-entrant because the composite operations (``store_large`` /
    ``retrieve_large``) call other public operations while holding it.
    """

    name = "SecureArchive"
    citation = "(this work)"

    #: Merkle-signer tree height: 2**height one-time keys per signer before
    #: rollover.  A class attribute so simulations that build many archives
    #: can trade signer capacity for construction speed (keygen is linear
    #: in the key count); rollover semantics are identical at any height.
    SIGNER_HEIGHT = 8

    def __init__(self, policy: ArchivePolicy, nodes, rng):
        self.policy = policy
        self._scheme = self._build_scheme(policy)
        # Serializes the public client surface (see the class docstring);
        # taken by every store/retrieve/maintenance entry point.
        self._client_lock = threading.RLock()
        super().__init__(nodes, rng)
        self.chain = TimestampChain()
        self.authority = TimestampAuthority(
            MerkleChainSigner(rng, height=self.SIGNER_HEIGHT)
        )
        #: Every signer the archive has ever used, for auditors: hash-based
        #: signatures are finite-use, so long-lived chains rotate signers.
        #: Retired signers are kept as verifiers (their 32-byte roots); only
        #: the last entry, the live signer, holds one-time keys.
        self.signer_history: list[MerkleChainSigner | MerkleChainVerifier] = [
            self.authority.signer
        ]
        self.commitments = PedersenCommitment()
        self._manifests: dict[str, dict] = {}
        self._retention: dict[str, int] = {}

    # -- tiering -----------------------------------------------------------------------

    def enable_tiering(self, migrator=None):
        """Turn on tiered placement and policy-driven migration.

        Call after construction, before the first store, on a fleet built
        with :func:`repro.storage.tiering.make_tiered_fleet` (nodes carry
        tier labels).  The *migrator* (a default-policy
        :class:`repro.storage.tiering.TierMigrator` when omitted) is bound
        to this archive -- migration rides the proactive-renewal pipeline
        -- and becomes the placement policy's ``tiering`` handle, so stores
        honor per-share tier layouts, fetches try hot media first, and every
        user read feeds the access counters.  Returns the bound migrator.
        """
        from repro.storage.tiering import TierMigrator

        migrator = migrator or TierMigrator()
        migrator.bind(self, data_shares=self.policy.t)
        return migrator

    @property
    def tiering(self):
        """The bound :class:`repro.storage.tiering.TierMigrator`; None untiered."""
        return self.placement_policy.tiering

    # The base class uses a class attribute; the facade's value depends on
    # the instance's policy, so it is a property here.
    @property
    def at_rest_relies_on(self) -> tuple[str, ...]:  # type: ignore[override]
        if self.policy.target is ConfidentialityTarget.COMPUTATIONAL:
            return ("aes-256-ctr", "sha256")
        return ()

    @staticmethod
    def _build_scheme(policy: ArchivePolicy):
        if policy.target is ConfidentialityTarget.COMPUTATIONAL:
            return AontRsDispersal(policy.n, policy.t)
        if policy.target is ConfidentialityTarget.LONG_TERM:
            return ShamirSecretSharing(policy.n, policy.t)
        if policy.target is ConfidentialityTarget.LONG_TERM_ECONOMY:
            return PackedSecretSharing(policy.n, policy.t, policy.pack_width)
        if policy.target is ConfidentialityTarget.LONG_TERM_LEAKAGE_HARDENED:
            return LeakageResilientSharing(
                policy.n, policy.t, policy.leakage_budget_bits
            )
        raise ParameterError(f"unhandled target {policy.target}")

    # -- observability -----------------------------------------------------------------

    @staticmethod
    def metrics_snapshot() -> dict:
        """Deterministic snapshot of the active metrics registry.

        The registry is process-wide (instrumentation lives in layers far
        below the facade), so this reflects everything measured since the
        registry was installed; wrap work in
        ``repro.obs.use_registry()`` to scope it to one archive.
        """
        return _metrics.get_registry().snapshot()

    # -- store / retrieve --------------------------------------------------------------

    #: The reserved segment namespace store_large writes into; user-chosen
    #: ids must stay out of it or a later store_large could collide.
    _SEGMENT_ID_RE = re.compile(r"/seg-\d+$")

    @classmethod
    def _reject_segment_id(cls, object_id: str) -> None:
        if cls._SEGMENT_ID_RE.search(object_id):
            raise ParameterError(
                f"object id {object_id!r} is inside the reserved segment "
                "namespace (<id>/seg-<k>); use store_large for segmented "
                "objects"
            )

    def store(self, object_id: str, data: bytes) -> StoreReceipt:
        self._reject_segment_id(object_id)
        with self._client_lock, span("archive.store", object_id=object_id):
            return self._store(object_id, data)

    def _store(self, object_id: str, data: bytes, encoded=None) -> StoreReceipt:
        """Disperse, timestamp and record one object.

        *encoded* lets the batch path hand in an encoding computed off the
        archive's own rng (store_batch splits items on worker threads, each
        with a child DRBG); when absent the archive rng is used.
        """
        _metrics.inc("archive_ops_total", op="store")
        _metrics.inc("archive_store_bytes_total", len(data))
        self._reject_known(object_id)
        # Hash-based signers are finite-use; a long ingest stream must not
        # crash mid-epoch when the key budget runs out.
        self._rollover_signer_if_needed()
        return self._commit(object_id, data, *(encoded or self._encode(object_id, data)))

    def _encode(self, object_id, data):
        return self._encoded(self._scheme.split(data, self.rng))

    @staticmethod
    def _encoded(split: SplitResult) -> tuple[dict[int, bytes], dict, dict]:
        metadata = {
            "scheme": split.scheme,
            "threshold": split.threshold,
            "public": dict(split.public),
        }
        return share_payloads(split.shares), metadata, {}

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        link, opening = self.authority.timestamp_document(
            self.chain,
            data,
            epoch=self.epoch,
            reference_kind="pedersen" if self.policy.information_theoretic else "hash",
            pedersen=self.commitments if self.policy.information_theoretic else None,
            rng=self.rng if self.policy.information_theoretic else None,
        )
        receipt.metadata["chain_index"] = link.index
        receipt.escrow["commitment_opening"] = opening

    def retrieve(self, object_id: str) -> bytes:
        with self._client_lock, span("archive.retrieve", object_id=object_id):
            _metrics.inc("archive_ops_total", op="retrieve")
            # Degraded read: stop at the scheme's decode threshold; shares
            # that failed their digests get repaired after the decode.
            data = super().retrieve(object_id)
            _metrics.inc("archive_retrieve_bytes_total", len(data))
            return data

    def _quorum(self, receipt: StoreReceipt) -> int:
        return receipt.metadata["threshold"]

    def _decode(self, receipt: StoreReceipt, fetched: dict[int, bytes], regenerate):
        # Every policy's shares are values of one GF(256) polynomial, so the
        # decode's interpolation also rebuilds the rotted ones, which the
        # read rewrites in place; the receipt, its timestamp and the
        # placement stay as they are.
        split = self._split(receipt, fetched)
        data, rebuilt = self._scheme.reconstruct(split, regenerate=regenerate)
        return data, share_payloads(rebuilt)

    def _split(self, receipt: StoreReceipt, fetched: dict[int, bytes]) -> SplitResult:
        meta = receipt.metadata
        return SplitResult(
            scheme=meta["scheme"],
            shares=tuple(as_shares(meta["scheme"], fetched)),
            threshold=meta["threshold"],
            total=self.policy.n,
            original_length=receipt.original_length,
            public=meta["public"],
        )

    # -- batch ingest ------------------------------------------------------------------

    #: Worker threads for batch encode/decode.  The encoders release the
    #: GIL inside numpy/hashlib, so modest parallelism is real.
    _BATCH_WORKERS = min(8, os.cpu_count() or 1)

    def store_batch(
        self, items: Sequence[tuple[str, bytes]]
    ) -> list[StoreReceipt]:
        """Store many objects; receipts come back in input order.

        The pipeline has three phases chosen to keep results deterministic
        regardless of thread scheduling:

        1. *seed* -- one 32-byte child seed per item is drawn from the
           archive rng **sequentially in input order**, so the randomness
           each item sees is a pure function of (archive seed, position);
        2. *encode* -- splits run on a thread pool, each item encoding
           under its own child DRBG (the CPU-bound phase);
        3. *finalize* -- placement, timestamping and receipt recording run
           sequentially in input order (they mutate shared placement and
           chain state and must consume the archive rng in a fixed order).
        """
        for object_id, _ in items:
            self._reject_segment_id(object_id)
        with self._client_lock:
            return self._store_batch(items)

    def _store_batch(
        self, items: Sequence[tuple[str, bytes]]
    ) -> list[StoreReceipt]:
        """store_batch minus the segment-namespace gate (store_large's
        segment ids legitimately live inside the reserved namespace)."""
        items = list(items)
        ids = [object_id for object_id, _ in items]
        if len(set(ids)) != len(ids):
            raise ParameterError("store_batch object ids must be distinct")
        already = [object_id for object_id in ids if object_id in self._receipts]
        if already:
            raise ParameterError(
                f"store_batch ids already stored: {', '.join(sorted(already)[:5])}"
            )
        start = time.perf_counter()
        with span("archive.store_batch", count=len(items)):
            _metrics.inc("archive_ops_total", op="store_batch")
            child_rngs = [
                DeterministicRandom(self.rng.bytes(32)) for _ in items
            ]
            with ThreadPoolExecutor(max_workers=self._BATCH_WORKERS) as pool:
                encodings = list(
                    pool.map(
                        lambda pair: self._encoded(self._scheme.split(pair[0][1], pair[1])),
                        zip(items, child_rngs),
                    )
                )
            receipts = [
                self._store(object_id, data, encoded=encoded)
                for (object_id, data), encoded in zip(items, encodings)
            ]
        _metrics.observe_host(
            "archive_batch_seconds", time.perf_counter() - start, op="store"
        )
        return receipts

    def retrieve_batch(self, object_ids: Sequence[str]) -> list[bytes]:
        """Retrieve many objects; plaintexts come back in input order.

        Fetching stays sequential (placement retry state is shared), the
        decode fan-out runs on the thread pool, and repair-on-read runs
        sequentially afterwards with each object's own degraded-read
        report restored.
        """
        object_ids = list(object_ids)
        start = time.perf_counter()
        with self._client_lock, span("archive.retrieve_batch", count=len(object_ids)):
            fetched_by_id = []
            for object_id in object_ids:
                _metrics.inc("archive_ops_total", op="retrieve")
                receipt = self.receipt(object_id)
                fetched = self._fetch_shares(receipt, need=self._quorum(receipt))
                report = self.last_read_report
                fetched_by_id.append((receipt, fetched, report.repair_candidates, report))
            with ThreadPoolExecutor(max_workers=self._BATCH_WORKERS) as pool:
                decoded = list(
                    pool.map(lambda entry: self._checked_decode(*entry[:3]), fetched_by_id)
                )
            results = []
            for (receipt, _, _, report), (data, rebuilt) in zip(fetched_by_id, decoded):
                self.last_read_report = report
                data = self._finish_read(receipt, data, rebuilt)
                _metrics.inc("archive_retrieve_bytes_total", len(data))
                results.append(data)
        _metrics.observe_host(
            "archive_batch_seconds", time.perf_counter() - start, op="retrieve"
        )
        return results

    # -- large objects: segmented storage --------------------------------------------------

    #: Default segment size for store_large (1 MiB keeps share buffers and
    #: renewal messages bounded regardless of object size).
    SEGMENT_BYTES = 1 << 20

    def store_large(
        self, object_id: str, data: bytes, segment_bytes: int | None = None
    ) -> list[StoreReceipt]:
        """Store *data* as independently encoded segments.

        Archival objects are often far larger than a sensible share/renewal
        unit; segmenting bounds memory, lets maintenance and repair work
        per-segment, and is how every real system in Table 1 ingests bulk
        data.  Segments share the object id namespace
        (``<id>/seg-<k>``) and a manifest records the layout.
        """
        if segment_bytes is None:
            segment_bytes = self.SEGMENT_BYTES
        if segment_bytes < 1:
            raise ParameterError("segment size must be positive")
        self._reject_segment_id(object_id)
        count = max(1, -(-len(data) // segment_bytes))
        # Segments are memoryview slices: the encoders view them through
        # np.frombuffer, so a multi-GiB ingest never duplicates the input.
        view = memoryview(data)
        with self._client_lock:
            with span("archive.store_large", object_id=object_id, segments=count):
                _metrics.inc("archive_ops_total", op="store_large")
                receipts = self._store_batch(
                    [
                        (
                            f"{object_id}/seg-{k}",
                            view[k * segment_bytes : (k + 1) * segment_bytes],
                        )
                        for k in range(count)
                    ]
                )
            self._manifests[object_id] = {
                "segments": count,
                "segment_bytes": segment_bytes,
                "total_length": len(data),
            }
            return receipts

    def retrieve_large(self, object_id: str) -> bytes:
        with self._client_lock:
            try:
                manifest = self._manifests[object_id]
            except KeyError:
                raise ObjectNotFoundError(f"no large object {object_id!r}") from None
            with span("archive.retrieve_large", object_id=object_id):
                parts = self.retrieve_batch(
                    [f"{object_id}/seg-{k}" for k in range(manifest["segments"])]
                )
        data = b"".join(parts)
        if len(data) != manifest["total_length"]:
            raise DecodingError(
                f"{object_id}: reassembled {len(data)} bytes, "
                f"manifest says {manifest['total_length']}"
            )
        return data

    # -- retention locks ---------------------------------------------------------------------

    def set_retention(self, object_id: str, until_epoch: int) -> None:
        """Forbid deletion of *object_id* before *until_epoch*.

        Archives "accumulate data that is rarely deleted"; when law or
        policy mandates retention, accidental (or adversarial) deletion
        must fail closed.
        """
        with self._client_lock:
            self.receipt(object_id)  # must exist
            if until_epoch < self.epoch:
                raise ParameterError("retention cannot end in the past")
            current = self._retention.get(object_id, -1)
            self._retention[object_id] = max(current, until_epoch)

    def delete(self, object_id: str) -> None:
        """Remove an object -- unless a retention lock forbids it."""
        with self._client_lock:
            receipt = self.receipt(object_id)
            held_until = self._retention.get(object_id)
            if held_until is not None and self.epoch < held_until:
                raise RetentionLockedError(
                    f"{object_id} is retained until epoch {held_until} "
                    f"(now {self.epoch})"
                )
            self.placement_policy.delete(receipt.placement)
            del self._receipts[object_id]
            self._plaintext_bytes -= receipt.original_length
            self._retention.pop(object_id, None)
            if self.tiering is not None:
                self.tiering.forget(object_id)

    # -- maintenance ---------------------------------------------------------------------

    def _rollover_signer_if_needed(self, report: MaintenanceReport | None = None) -> None:
        """Hash-based signers are one-time-key machines: before the current
        signer runs out, mint a fresh one and chain it in with a renewal
        link signed by the OLD signer (establishing the succession while
        the old key set is still trusted).  Checked at every epoch advance
        *and* before every store, so a sustained ingest stream longer than
        one signer's key budget rolls over mid-epoch instead of crashing.
        """
        signer = self.authority.signer
        # Keep headroom: one key for the succession link itself, plus at
        # least one spare for any store() landing before the next epoch.
        if signer.remaining >= 3:
            return
        self.authority.renew_chain(self.chain, self.epoch)  # old signer's last act
        # Auditors only verify and read identities; drop the unused keys.
        self.signer_history[-1] = signer.verifier()
        new_signer = MerkleChainSigner(self.rng, height=self.SIGNER_HEIGHT)
        self.authority = TimestampAuthority(new_signer)
        self.signer_history.append(new_signer)
        _metrics.inc("archive_signer_rollovers_total")
        if report is not None:
            report.notes.append(f"signer rolled over (now {len(self.signer_history)})")

    def advance_epoch(self) -> MaintenanceReport:
        """Advance the archive clock one epoch and run due maintenance.

        One pass rewrites each object at most once: on a tiered archive
        the migrator first plans the epoch's moves, then every object due
        for renewal or planned to move is re-split once, in store order and
        straight into its target tier, and counts for each duty it served.
        An object whose placement falls short is deferred for each of them,
        and the epoch completes.  Maintenance reads run with the access
        tracker suspended, so background traffic never counts as user
        demand.  Chain renewal runs last.
        """
        with self._client_lock:
            return self._advance_epoch()

    def _advance_epoch(self) -> MaintenanceReport:
        self.epoch += 1
        with span("archive.advance_epoch", epoch=self.epoch):
            _metrics.inc("archive_ops_total", op="advance_epoch")
            report = MaintenanceReport(epoch=self.epoch)
            self._rollover_signer_if_needed(report)
            cadence = self.policy.renew_every_epochs
            renew = (
                self.policy.information_theoretic
                and cadence is not None
                and self.epoch % cadence == 0
            )
            tiering = self.tiering
            plan = tiering.run_epoch(self.epoch) if tiering is not None else {}
            due = [oid for oid in self._receipts if renew or oid in plan]
            with self._maintenance_reads():
                for object_id in due:
                    target = plan.get(object_id)
                    try:
                        written = self._renew_object(object_id, target)
                    except PlacementShortfallError:
                        # Nothing was deleted: the old shares still read,
                        # and a later epoch retries.  Placement walks every
                        # tier, so it falls short for the target tier
                        # exactly when it would for the current one.
                        if renew:
                            _metrics.inc(
                                "maintenance_deferred_total", op="renew", reason="placement"
                            )
                            report.renewals_deferred.append(object_id)
                        if target is not None:
                            _metrics.inc(
                                "maintenance_deferred_total", op="migrate", reason="placement"
                            )
                            report.migrations_deferred.append(object_id)
                        continue
                    if renew:
                        report.objects_renewed += 1
                        report.renewal_bytes += written
                    if target is not None:
                        report.migration_bytes += written
                        if tiering.record_move(object_id, target, written):
                            report.objects_promoted += 1
                        else:
                            report.objects_demoted += 1
            _metrics.inc("archive_renewed_objects_total", report.objects_renewed)
            _metrics.inc("archive_renewal_bytes_total", report.renewal_bytes)
            if tiering is not None:
                tiering.log_epoch(self.epoch, report.objects_promoted, report.objects_demoted)
            # Chain renewal every epoch keeps the head signature fresh.
            self.authority.renew_chain(self.chain, self.epoch)
            report.chain_renewed = True
            return report

    def _maintenance_reads(self):
        """Context under which maintenance reads run: access tracking
        suspended (background reads are not demand); a no-op untiered."""
        if self.tiering is not None:
            return self.tiering.tracker.suspended()
        return nullcontext()

    @profiled(name="archive.renew_object")
    def _renew_object(self, object_id: str, tier: str | None) -> int:
        """Client-driven share refresh: re-split and replace, placed in
        *tier*'s layout on a tiered archive (the object's own tier when
        None).

        For Shamir this is security-equivalent to Herzberg renewal (fresh
        uniform polynomial through the same secret); the in-place n^2
        protocol -- used when holders must not see the secret -- lives in
        :mod:`repro.secretsharing.proactive` and is exercised by the
        proactive benchmark.  Packed and LRSS targets refresh the same way.

        The read is maintenance, not a client retrieve: it counts no
        retrieve op, bytes or span, and it repairs nothing on read, since
        the renewal replaces every share anyway.  The receipt's share
        indices are placed before the new split is drawn, so a shortfall
        raises with nothing drawn or encoded.  The data is unchanged, so
        its timestamp stands.
        """
        receipt = self.receipt(object_id)
        shares = self._fetch_shares(receipt, need=self._quorum(receipt))
        data, _ = self._checked_decode(receipt, shares)
        placement = self.placement_policy.place(
            object_id, sorted(receipt.placement.node_by_share), tier
        )
        payloads, metadata, _ = self._encode(object_id, data)
        written = self._replace_shares(receipt, placement, payloads)
        receipt.metadata.update(metadata)
        return written
