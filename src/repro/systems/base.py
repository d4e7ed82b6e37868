"""Common machinery for the Table 1 archival systems.

Each system is a client-side pipeline over a fleet of
:class:`repro.storage.node.StorageNode` instances:

    plaintext --encode--> share payloads --transit channel--> nodes

The base class owns the plumbing every system shares -- placement, the
transit channel, storage accounting, and the adversary-facing hooks -- so
each subclass is mostly its encoding pipeline plus its harvest semantics.

Adversary hooks
---------------
``record_transcript()``
    Opt in to recording the wire: from then on every transmission lands in
    ``transcript``, for the harvesting adversary.  An entry keeps the
    payload it carried, not its ciphertext: the wire bytes are derived when
    read (see ``repro.channels.base``).  A system no harness asked to
    record keeps no transmissions, so renewed share generations die.
``steal_at_rest(object_id, share_indices)``
    The at-rest haul a compromise of those nodes yields.
``attempt_recovery(stolen, timeline, epoch)``
    What that haul is worth: returns plaintext or raises while the system's
    defenses hold.  Computational systems gate on the break timeline via the
    escrow convention (see ``repro.channels.base``); information-theoretic
    systems gate on share counts only.  When a broken primitive is what
    recovers a sub-threshold haul, the system decodes the object from the
    shares its nodes hold (:meth:`ArchivalSystem._held_shares`, a
    side-effect-free oracle) instead of keeping a plaintext copy per object.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.channels.base import Transmission
from repro.channels.tls import TlsLikeChannel
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import ObjectNotFoundError, ParameterError
from repro.obs import metrics as _metrics
from repro.security import SecurityNotion, StorageCostBand
from repro.storage.faults import DegradedReadReport
from repro.storage.node import StorageNode
from repro.storage.placement import Placement, PlacementPolicy


@dataclass
class StoreReceipt:
    """Everything the system retains client-side about one stored object."""

    object_id: str
    original_length: int
    placement: Placement
    #: Scheme-specific public metadata (share counts, masked values...).
    metadata: dict = field(default_factory=dict)
    #: Sealed simulation-only material read through the escrow convention.
    escrow: dict = field(default_factory=dict, repr=False)


@dataclass
class TranscriptEntry:
    node_id: str
    object_id: str
    transmission: Transmission


class ArchivalSystem(abc.ABC):
    """Base class: subclasses set the class attributes and the pipeline."""

    #: Human name as it appears in Table 1.
    name: str = "abstract"
    #: Citation key from the paper.
    citation: str = ""
    #: Registry names of the primitives at-rest confidentiality rests on
    #: (empty tuple = information-theoretic at rest).
    at_rest_relies_on: tuple[str, ...] = ()

    def __init__(
        self,
        nodes: list[StorageNode],
        rng: DeterministicRandom,
        require_distinct_providers: bool = True,
    ):
        if not nodes:
            raise ParameterError("an archival system needs storage nodes")
        self.nodes = nodes
        self.rng = rng
        self.placement_policy = PlacementPolicy(
            nodes, require_distinct_providers=require_distinct_providers
        )
        self.transit = self._make_transit_channel()
        #: Recorded wire transmissions; None until :meth:`record_transcript`.
        self.transcript: list[TranscriptEntry] | None = None
        self._receipts: dict[str, StoreReceipt] = {}
        self._plaintext_bytes = 0
        self.epoch = 0
        #: Degraded-read report of the most recent fetch (None before any).
        self.last_read_report: DegradedReadReport | None = None
        #: Tier migrator (repro.storage.tiering.TierMigrator) when tiering
        #: is enabled; None keeps placement untiered and byte-identical.
        self.tiering = None

    # -- transit -------------------------------------------------------------------

    def _make_transit_channel(self):
        """Default transit is TLS-like; LINCOS overrides with QKD."""
        return TlsLikeChannel(self.rng)

    @property
    def transit_security(self) -> SecurityNotion:
        return self.transit.notion

    def record_transcript(self) -> list[TranscriptEntry]:
        """Start recording every transmission this system sends; returns
        the (live) transcript.  Call before the stores a harness harvests;
        calling again returns the same list."""
        if self.transcript is None:
            self.transcript = []
        return self.transcript

    def _send_share(self, node: StorageNode, object_id: str, index: int, payload: bytes) -> None:
        """Ship one share over the transit channel and store it.

        The channel runs no cipher here: the transmission carries the
        payload and derives its wire bytes only when an eavesdropper reads
        the transcript.  The node stores the object ``receive`` delivers,
        which is the transmission's own payload.  Sending is the same
        whether or not the wire is recorded, so sequence numbers,
        ``bytes_sent`` and pad use never depend on it.
        """
        transmission = self.transit.send(payload)
        if self.transcript is not None:
            self.transcript.append(
                TranscriptEntry(
                    node_id=node.node_id, object_id=object_id, transmission=transmission
                )
            )
        delivered = self.transit.receive(transmission)
        self.placement_policy.put_with_retry(
            node, f"{object_id}/share-{index}", delivered, epoch=self.epoch
        )

    def _store_shares(
        self, object_id: str, payload_by_index: dict[int, bytes]
    ) -> Placement:
        tier_layout = None
        if self.tiering is not None:
            tier_layout = self.tiering.layout_for(object_id, sorted(payload_by_index))
        placement = self.placement_policy.place(
            object_id, sorted(payload_by_index), tier_layout=tier_layout
        )
        written: dict[int, str] = {}
        try:
            for index, node_id in placement.node_by_share.items():
                self._send_share(
                    self.placement_policy.node(node_id),
                    object_id,
                    index,
                    payload_by_index[index],
                )
                written[index] = node_id
        except BaseException:  # noqa: ARCH001 -- undoes the partial store, then re-raises
            # No receipt will point at the shares already written; remove
            # them so a failed store leaves no orphans behind.
            self.placement_policy.delete(Placement(object_id, written))
            raise
        return placement

    def _fetch_shares(
        self, receipt: StoreReceipt, need: int | None = None
    ) -> dict[int, bytes]:
        """Degraded-read fetch: stop once *need* decodable shares arrived.

        The per-fetch :class:`DegradedReadReport` lands in
        :attr:`last_read_report`; systems finish their retrieve with
        :meth:`_finish_read` so corrupted shares get repaired on read.
        """
        shares, report = self.placement_policy.fetch_degraded(
            receipt.placement, need=need
        )
        self.last_read_report = report
        return shares

    def _finish_read(self, object_id: str, data: bytes) -> bytes:
        """Post-decode hook every retrieve runs: schedule repair-on-read
        for shares whose integrity check failed during the fetch."""
        report = self.last_read_report
        if report is not None and report.repair_candidates and not report.shares_repaired:
            self._repair_on_read(object_id, data, report)
            self.last_read_report = report
        return data

    def _repair_on_read(
        self, object_id: str, data: bytes, report: DegradedReadReport
    ) -> None:
        """Replace a degraded object's shares with a fresh encoding.

        The generic repair is a re-store: drop the old placement (including
        the rotted shares that failed their digests) and run the system's
        own ``store`` pipeline again with the just-decoded plaintext.
        Subclasses with a cheaper re-encode path override this.
        """
        receipt = self.receipt(object_id)
        self.placement_policy.delete(receipt.placement)
        plaintext_bytes = self._plaintext_bytes
        # Drop the stale receipt so the re-store records cleanly (a repair
        # is the one legitimate same-id store; _record rejects all others).
        del self._receipts[object_id]
        self._repair_store(object_id, data)
        # A repair is not new ingest; keep the overhead accounting honest.
        self._plaintext_bytes = plaintext_bytes
        report.shares_repaired = len(report.repair_candidates)
        _metrics.inc("repairs_on_read_total", report.shares_repaired)

    def _repair_store(self, object_id: str, data: bytes) -> None:
        """The store call a repair uses; systems whose ``store`` takes
        per-object parameters override this to preserve them."""
        self.store(object_id, data)

    def retrieve_with_report(
        self, object_id: str
    ) -> tuple[bytes, DegradedReadReport | None]:
        """Retrieve plus the degraded-read report of that retrieval."""
        self.last_read_report = None
        data = self.retrieve(object_id)
        return data, self.last_read_report

    # -- public API ------------------------------------------------------------------

    @abc.abstractmethod
    def store(self, object_id: str, data: bytes) -> StoreReceipt:
        """Encode and disperse *data*; returns (and records) the receipt."""

    @abc.abstractmethod
    def retrieve(self, object_id: str) -> bytes:
        """Fetch shares and decode the object."""

    def receipt(self, object_id: str) -> StoreReceipt:
        try:
            return self._receipts[object_id]
        except KeyError:
            raise ObjectNotFoundError(f"{self.name}: no object {object_id!r}") from None

    def _record(self, receipt: StoreReceipt) -> StoreReceipt:
        # A silent overwrite would orphan the old object's shares on the
        # nodes and double-count plaintext bytes, corrupting
        # storage_overhead(); duplicate ids are a caller error.
        if receipt.object_id in self._receipts:
            raise ParameterError(
                f"{self.name}: object {receipt.object_id!r} already stored "
                "(delete it before re-storing)"
            )
        self._receipts[receipt.object_id] = receipt
        self._plaintext_bytes += receipt.original_length
        return receipt

    # -- measured classification (feeds the Table 1 bench) ------------------------------

    def storage_overhead(self) -> float:
        """Measured stored-bytes / plaintext-bytes across all objects."""
        if self._plaintext_bytes == 0:
            raise ParameterError("store something before measuring overhead")
        return self.placement_policy.total_bytes_stored() / self._plaintext_bytes

    def storage_cost_band(self) -> StorageCostBand:
        return StorageCostBand.classify_overhead(self.storage_overhead())

    @property
    def at_rest_security(self) -> SecurityNotion:
        if not self.at_rest_relies_on:
            return SecurityNotion.INFORMATION_THEORETIC
        return SecurityNotion.COMPUTATIONAL

    # -- adversary hooks ------------------------------------------------------------------

    def steal_at_rest(
        self, object_id: str, share_indices: list[int] | None = None
    ) -> dict[int, bytes]:
        """What compromising the nodes holding those shares yields."""
        receipt = self.receipt(object_id)
        stolen: dict[int, bytes] = {}
        for index, node_id in receipt.placement.node_by_share.items():
            if share_indices is not None and index not in share_indices:
                continue
            node = self.placement_policy.node(node_id)
            haul = node.adversary_read_all(self.epoch)
            key = f"{object_id}/share-{index}"
            if key in haul:
                stolen[index] = haul[key]
        return stolen

    @abc.abstractmethod
    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        """Adversary's decode of *stolen* at *epoch*; raise while secure."""

    def at_rest_breakable(self, timeline: BreakTimeline, epoch: int) -> bool:
        """Are all primitives the at-rest encoding relies on broken?"""
        if not self.at_rest_relies_on:
            return False
        return all(timeline.is_broken(p, epoch) for p in self.at_rest_relies_on)

    def _require_at_rest_broken(self, timeline: BreakTimeline, epoch: int) -> None:
        from repro.errors import StillSecureError

        if not self.at_rest_breakable(timeline, epoch):
            raise StillSecureError(
                f"{self.name}: at-rest primitives {self.at_rest_relies_on} "
                f"still hold at epoch {epoch}"
            )

    def _held_shares(self, receipt: StoreReceipt) -> dict[int, bytes]:
        """Every intact share of *receipt* its nodes hold: the oracle.

        Stands in for cryptanalysis we cannot run: once the at-rest break
        has happened, ``attempt_recovery`` decodes a sub-threshold haul's
        object from these shares, which grants exactly the plaintext a
        per-receipt escrow copy would.  The read has no side effects -- no
        node stats, metrics, fault-plan draws, access tracking or
        compromise epochs -- so asking changes nothing a later call sees.
        """
        held: dict[int, bytes] = {}
        for index, node_id in receipt.placement.node_by_share.items():
            node = self.placement_policy.node(node_id)
            data = node.peek(f"{receipt.object_id}/share-{index}")
            if data is not None:
                held[index] = data
        return held
