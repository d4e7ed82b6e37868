"""Storage nodes: the dispersed, corruptible substrate.

Every archival system in :mod:`repro.systems` stores shares/objects on
:class:`StorageNode` instances.  A node models one administratively
independent storage provider site:

- a content-addressed object store (put/get/delete, with digests checked on
  read so silent corruption surfaces as :class:`IntegrityError`);
- fault injection: a node can be taken offline (availability loss) or
  *corrupted* (mobile-adversary visit: the adversary reads everything, and
  may tamper);
- accounting: bytes stored, reads/writes served, and an access log the
  adversary harness uses to know exactly what a given compromise yielded.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.crypto.hmac_ import constant_time_eq
from repro.crypto.sha256 import sha256_hex
from repro.errors import IntegrityError, NodeUnavailableError, ObjectNotFoundError
from repro.obs import metrics as _metrics
from repro.security import redact_secret


@dataclass
class StoredObject:
    """One blob on one node."""

    object_id: str
    data: bytes
    digest: str

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        # `data` is ciphertext/share material: never in reprs (ARCH010).
        return (
            f"StoredObject(object_id={self.object_id!r}, "
            f"data={redact_secret(self.data)}, digest={self.digest!r})"
        )


@dataclass
class NodeStats:
    puts: int = 0
    gets: int = 0
    deletes: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


class StorageNode:
    """One storage site run by one provider.

    *tier* is the storage tier this node's medium belongs to (a name from a
    :class:`repro.storage.tiering.TierRegistry`, e.g. its hot/warm/cold
    defaults); ``None`` means the fleet is untiered and placement treats
    every node alike.
    """

    def __init__(
        self,
        node_id: str,
        provider: str,
        tier: str | None = None,
    ):
        self.node_id = node_id
        self.provider = provider
        self.tier = tier
        self.online = True
        self._objects: dict[str, StoredObject] = {}
        self.stats = NodeStats()
        #: Epochs at which an adversary had full read access to this node.
        self.compromise_epochs: list[int] = []

    # -- basic object store ----------------------------------------------------

    def put(self, object_id: str, data: bytes) -> None:
        self._require_online(f"put {object_id}")
        self._objects[object_id] = StoredObject(
            object_id=object_id, data=bytes(data), digest=sha256_hex(data)
        )
        self.stats.puts += 1
        self.stats.bytes_written += len(data)
        _metrics.inc("storage_puts_total")
        _metrics.inc("storage_put_bytes_total", len(data))

    def get(self, object_id: str) -> bytes:
        self._require_online(f"get {object_id}")
        obj = self._lookup(object_id)
        if not constant_time_eq(sha256_hex(obj.data), obj.digest):
            raise IntegrityError(
                f"object {object_id} on node {self.node_id} fails its digest"
            )
        self.stats.gets += 1
        self.stats.bytes_read += len(obj.data)
        _metrics.inc("storage_gets_total")
        _metrics.inc("storage_get_bytes_total", len(obj.data))
        return obj.data

    def raw_bytes(self, object_id: str) -> bytes:
        """The bytes as they sit on the medium, *without* the digest gate.

        Honest reads go through :meth:`get`; this accessor exists for the
        audit protocol, where the node answers challenges from whatever it
        actually holds and the *auditor* judges it against the committed
        root -- a rotted object must produce a failing proof, not a local
        exception on an unrelated challenge.
        """
        self._require_online(f"raw_bytes {object_id}")
        return self._lookup(object_id).data

    def peek(self, object_id: str) -> bytes | None:
        """The bytes of *object_id* if this node holds them intact, else None.

        A simulation oracle for the adversary harness
        (``ArchivalSystem._held_shares``): it reads the medium whether or
        not the node is online and records nothing -- no stats, metrics or
        compromise epoch -- so calling it changes no later result.
        """
        obj = self._objects.get(object_id)
        if obj is None:
            return None
        # hashlib, not sha256_hex: that one counts into the metrics registry.
        intact = hashlib.sha256(obj.data).hexdigest()
        return obj.data if constant_time_eq(intact, obj.digest) else None

    def delete(self, object_id: str) -> None:
        self._require_online(f"delete {object_id}")
        self._lookup(object_id)
        del self._objects[object_id]
        self.stats.deletes += 1

    def contains(self, object_id: str) -> bool:
        return object_id in self._objects

    def object_ids(self) -> list[str]:
        return sorted(self._objects)

    @property
    def bytes_stored(self) -> int:
        return sum(len(obj) for obj in self._objects.values())

    # -- fault and adversary hooks ---------------------------------------------

    def set_online(self, online: bool) -> None:
        if online != self.online:
            _metrics.inc(
                "storage_node_transitions_total",
                to="online" if online else "offline",
            )
        self.online = online

    def corrupt_object(self, object_id: str, new_data: bytes) -> None:
        """Tamper with stored bytes *without* updating the digest -- the
        tampering a later honest read will detect."""
        obj = self._lookup(object_id)
        obj.data = bytes(new_data)

    def adversary_read_all(self, epoch: int) -> dict[str, bytes]:
        """A compromise: the adversary exfiltrates every object.

        Works even on 'offline' media -- the paper grants the mobile
        adversary physical corruption of a node; offline-ness reduces the
        *rate* of such events (modeled by the adversary schedule), not their
        effect.
        """
        self.compromise_epochs.append(epoch)
        return {oid: obj.data for oid, obj in self._objects.items()}

    # -- internals ----------------------------------------------------------------

    def _require_online(self, context: str = "") -> None:
        # Offline and missing must stay *distinguishable* typed errors, each
        # carrying the node id and (via context) the object id: retry logic
        # treats only the former as transient.
        if not self.online:
            suffix = f" (cannot {context})" if context else ""
            raise NodeUnavailableError(f"node {self.node_id} is offline{suffix}")

    def _lookup(self, object_id: str) -> StoredObject:
        try:
            return self._objects[object_id]
        except KeyError:
            raise ObjectNotFoundError(
                f"no object {object_id} on node {self.node_id}"
            ) from None

    def __repr__(self) -> str:
        tier = f", tier={self.tier!r}" if self.tier is not None else ""
        return (
            f"StorageNode({self.node_id!r}, provider={self.provider!r}, "
            f"objects={len(self._objects)}, online={self.online}{tier})"
        )


def make_node_fleet(
    count: int, providers: list[str] | None = None, prefix: str = "node"
) -> list[StorageNode]:
    """Build *count* nodes spread round-robin across *providers*.

    Default providers model administratively independent organizations, per
    the POTSHARDS deployment assumption.
    """
    providers = providers or [f"provider-{chr(ord('a') + i)}" for i in range(count)]
    return [
        StorageNode(node_id=f"{prefix}-{i}", provider=providers[i % len(providers)])
        for i in range(count)
    ]
