"""Common machinery for the Table 1 archival systems.

Each system is a client-side pipeline over a fleet of
:class:`repro.storage.node.StorageNode` instances:

    plaintext --encode--> share payloads --transit channel--> nodes

The base class owns that pipeline -- store, retrieve, repair-on-read and
share replacement -- plus placement, the transit channel, storage
accounting and the adversary-facing hooks.  A system differs only in how
it encodes an object, so a subclass supplies four hooks:

``_encode(object_id, data) -> (payloads, metadata, escrow)``
    Encode one object into ``{share index: payload}``, the receipt's public
    metadata and its escrow.
``_decode(receipt, shares, regenerate) -> (bytes, {share index: payload})``
    Decode ``{share index: payload}`` (the base has checked the quorum),
    and rebuild from the same quorum the shares at the indices
    *regenerate* lists (empty unless a read found shares rotted or
    missing).
``_quorum(receipt) -> int | None``
    The shares a read stops at and a decode needs (None: every placed
    share, no single quorum).
``_seal(receipt, data)``
    Optional step after a store is placed (a timestamp, a ledger record,
    the object's keys).

Repair-on-read is regeneration on every system: the quorum a read decoded
fixes every other share byte for byte (a replica is its own copy; Shamir
and Reed-Solomon shares are values of one polynomial), so ``_decode``
rebuilds the shares the read found rotted or missing on an online node,
and the read rewrites each under the node and key that held it
(:meth:`ArchivalSystem._rewrite_shares`).  A repair draws no encoding
randomness and places, deletes or seals nothing, so receipts and keys stay
as they are.

``_encode`` changes no system state.  Client-held keys an encoding needs
ride in its escrow until ``_seal`` installs them, so a store whose
placement fails leaves no key behind.

Every share replacement -- renewal, tier migration, redistribution -- goes
through :meth:`ArchivalSystem._replace_shares`, which takes a placement its
caller chose before encoding.

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
from typing import Iterable, Sequence

from repro.channels.base import Transmission
from repro.channels.tls import TlsLikeChannel
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError, ObjectNotFoundError, ParameterError, StillSecureError
from repro.obs import metrics as _metrics
from repro.secretsharing.base import Share
from repro.security import SecurityNotion, StorageCostBand
from repro.storage.faults import RETRYABLE_ERRORS, DegradedReadReport
from repro.storage.node import StorageNode
from repro.storage.placement import Placement, PlacementPolicy, share_key


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


def share_payloads(shares: Iterable[Share]) -> dict[int, bytes]:
    """*shares* as ``{share index: payload}``, ready to place or rewrite."""
    return {share.index: share.payload for share in shares}


def as_shares(scheme: str, payloads: dict[int, bytes]) -> list[Share]:
    """Fetched ``{share index: payload}`` as *scheme*'s :class:`Share` list."""
    return [Share(scheme=scheme, index=i, payload=p) for i, p in payloads.items()]


class ArchivalSystem(abc.ABC):
    """Base class: subclasses set the class attributes and the encoding hooks."""

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
        self.placement_policy.put_with_retry(node, share_key(object_id, index), delivered)

    def _store_shares(
        self, placement: Placement, payload_by_index: dict[int, bytes]
    ) -> None:
        """Write each share where *placement* put it; a failure removes the
        shares already written, then re-raises."""
        written: dict[int, str] = {}
        try:
            for index, node_id in placement.node_by_share.items():
                self._send_share(
                    self.placement_policy.node(node_id),
                    placement.object_id,
                    index,
                    payload_by_index[index],
                )
                written[index] = node_id
        except BaseException:  # noqa: ARCH001 -- undoes the partial store, then re-raises
            # No receipt will point at the shares already written; remove
            # them so a failed store leaves no orphans behind.
            self.placement_policy.delete(Placement(placement.object_id, written))
            raise

    def _replace_shares(
        self,
        receipt: StoreReceipt,
        placement: Placement,
        payload_by_index: dict[int, bytes],
    ) -> int:
        """Swap *receipt*'s placed shares for *payload_by_index* at
        *placement*; returns the bytes written.  Every share replacement --
        renewal, tier migration, redistribution -- runs through here.

        The caller places before it encodes, so a replacement that finds
        too few nodes raises with the object intact and no encoding spent.
        """
        if sorted(payload_by_index) != sorted(placement.node_by_share):
            raise ParameterError(
                f"{receipt.object_id}: the encoding's share indices differ "
                "from its placement's"
            )
        self.placement_policy.delete(receipt.placement)
        self._store_shares(placement, payload_by_index)
        receipt.placement = placement
        return sum(len(p) for p in payload_by_index.values())

    def _rewrite_shares(self, receipt: StoreReceipt, payloads: dict[int, bytes]) -> int:
        """Send each of *payloads* to the node and key that already hold
        that share index; returns how many were written.

        Placement, receipt and every other share stay as they are.  A put
        that still fails after its retries leaves that node's copy alone
        and is skipped, so the caller can defer the rest of the repair.
        """
        written = 0
        for index, payload in payloads.items():
            node = self.placement_policy.node(receipt.placement.node_by_share[index])
            try:
                self._send_share(node, receipt.object_id, index, payload)
            except RETRYABLE_ERRORS:
                continue
            written += 1
        return written

    def _fetch_shares(
        self, receipt: StoreReceipt, need: int | None = None
    ) -> dict[int, bytes]:
        """Degraded-read fetch: stop once *need* decodable shares arrived.

        The per-fetch :class:`DegradedReadReport` lands in
        :attr:`last_read_report`; a read's decode regenerates the shares it
        lists as corrupted or missing, and :meth:`_finish_read` rewrites
        them.
        """
        shares, report = self.placement_policy.fetch_degraded(
            receipt.placement, need=need
        )
        self.last_read_report = report
        return shares

    def _finish_read(
        self, receipt: StoreReceipt, data: bytes, rebuilt: dict[int, bytes]
    ) -> bytes:
        """Post-decode step of every read: repair-on-read rewrites the
        *rebuilt* shares, the ones the fetch found rotted or missing, in
        place.

        A put that still fails after its retries is deferred, not raised:
        the read has already decoded, the shares it did not rewrite and the
        receipt stay as they were, and the next read of the object tries
        the repair again."""
        if not rebuilt:
            return data
        rewritten = self._rewrite_shares(receipt, rebuilt)
        if rewritten:
            _metrics.inc("repairs_on_read_total", rewritten)
        if rewritten < len(rebuilt):
            _metrics.inc("maintenance_deferred_total", op="repair", reason="put")
        else:
            self.last_read_report.shares_repaired = rewritten
        return data

    def retrieve_with_report(
        self, object_id: str
    ) -> tuple[bytes, DegradedReadReport | None]:
        """Retrieve plus the degraded-read report of that retrieval."""
        self.last_read_report = None
        data = self.retrieve(object_id)
        return data, self.last_read_report

    # -- encoding hooks ----------------------------------------------------------------

    @abc.abstractmethod
    def _encode(self, object_id: str, data: bytes) -> tuple[dict[int, bytes], dict, dict]:
        """Encode *data*: ``(payloads by share index, metadata, escrow)``."""

    @abc.abstractmethod
    def _decode(
        self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate: Sequence[int]
    ) -> tuple[bytes, dict[int, bytes]]:
        """Decode the object from a quorum of its shares, and rebuild the
        shares at *regenerate* from that quorum."""

    @abc.abstractmethod
    def _quorum(self, receipt: StoreReceipt) -> int | None:
        """Shares a read needs; None fetches every placed share."""

    def _seal(self, receipt: StoreReceipt, data: bytes) -> None:
        """Post-placement step of a store; none by default."""

    def _checked_decode(
        self, receipt: StoreReceipt, shares: dict[int, bytes], regenerate: Sequence[int] = ()
    ) -> tuple[bytes, dict[int, bytes]]:
        """:meth:`_decode`, once *shares* meet the receipt's quorum."""
        quorum = self._quorum(receipt)
        if quorum is not None and len(shares) < quorum:
            raise DecodingError(
                f"{receipt.object_id}: {len(shares)} shares held, {quorum} needed"
            )
        return self._decode(receipt, shares, regenerate)

    # -- store / retrieve ----------------------------------------------------------------

    def store(self, object_id: str, data: bytes) -> StoreReceipt:
        """Encode and disperse *data*; returns (and records) the receipt."""
        self._reject_known(object_id)
        return self._commit(object_id, data, *self._encode(object_id, data))

    def retrieve(self, object_id: str) -> bytes:
        """Fetch shares up to the quorum, decode the object and repair the
        shares the fetch found rotted or missing."""
        receipt = self.receipt(object_id)
        shares = self._fetch_shares(receipt, need=self._quorum(receipt))
        damaged = self.last_read_report.repair_candidates
        return self._finish_read(receipt, *self._checked_decode(receipt, shares, damaged))

    def receipt(self, object_id: str) -> StoreReceipt:
        try:
            return self._receipts[object_id]
        except KeyError:
            raise ObjectNotFoundError(f"{self.name}: no object {object_id!r}") from None

    def _reject_known(self, object_id: str) -> None:
        # Checked before anything is encoded, drawn or written: a silent
        # overwrite would orphan the old object's shares and double-count
        # its bytes, and a late refusal would leave the new shares behind.
        if object_id in self._receipts:
            raise ParameterError(
                f"{self.name}: object {object_id!r} already stored "
                "(delete it before re-storing)"
            )

    def _commit(
        self,
        object_id: str,
        data: bytes,
        payloads: dict[int, bytes],
        metadata: dict,
        escrow: dict,
    ) -> StoreReceipt:
        """Place an encoded object, seal it and record its receipt."""
        placement = self.placement_policy.place(object_id, sorted(payloads))
        self._store_shares(placement, payloads)
        receipt = StoreReceipt(object_id, len(data), placement, metadata, escrow)
        self._seal(receipt, data)
        self._receipts[object_id] = receipt
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
            key = share_key(object_id, index)
            if key in haul:
                stolen[index] = haul[key]
        return stolen

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        """Adversary's decode of *stolen* at *epoch*; raise while secure.

        A haul that meets the quorum decodes with no cryptanalysis, and an
        information-theoretic system holds by share counting alone.  Below
        the quorum a computational system opens once every primitive its
        at-rest encoding relies on is broken; the real attack then needs one
        share, and the simulation decodes the shares the nodes hold.
        """
        receipt = self.receipt(object_id)
        quorum = self._quorum(receipt)
        if self.at_rest_relies_on and quorum is not None and len(stolen) < quorum:
            if not stolen:
                raise DecodingError(f"{object_id}: adversary holds no shares")
            self._require_at_rest_broken(timeline, epoch)
            stolen = self._held_shares(receipt)
        return self._checked_decode(receipt, stolen)[0]

    def at_rest_breakable(self, timeline: BreakTimeline, epoch: int) -> bool:
        """Are all primitives the at-rest encoding relies on broken?"""
        if not self.at_rest_relies_on:
            return False
        return all(timeline.is_broken(p, epoch) for p in self.at_rest_relies_on)

    def _require_at_rest_broken(self, timeline: BreakTimeline, epoch: int) -> None:
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
            data = node.peek(share_key(receipt.object_id, index))
            if data is not None:
                held[index] = data
        return held
