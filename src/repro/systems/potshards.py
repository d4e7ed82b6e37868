"""POTSHARDS (Storer et al., ACM TOS '09).

"POTSHARDS was the first work to design and evaluate a full archival system
based on Shamir's secret sharing.  In POTSHARDS, each share is uploaded to
an administratively independent storage provider, thereby avoiding a single
point of trust or failure" (paper Section 3.2).  Table 1: Computational
transit / ITS at rest / High cost.

Faithful structural features:

- **Two-level splitting**: an XOR secret-split for secrecy above a Shamir
  split per fragment for availability -- compromise of a full Shamir group
  still yields only one XOR fragment.
- **No encryption keys anywhere**: confidentiality comes from the splitting
  alone, so there is nothing for a future cryptanalyst to break; the
  attempt-recovery path never consults the break timeline.
- **Approximate pointers**: each shard carries a pointer *window* naming the
  id range its sibling shards live in, supporting index-loss recovery by
  bounded scan (:meth:`recover_without_index`) without giving an adversary
  exact linkage.
- The measured storage overhead is ``xor_ways * shamir_n`` -- the "high
  storage overhead ... provably unavoidable consequence of perfect secrecy"
  the paper attributes to this class of systems.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import DecodingError, ParameterError
from repro.secretsharing.additive import AdditiveSecretSharing
from repro.secretsharing.base import Share
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.storage.placement import share_key
from repro.systems.base import ArchivalSystem, StoreReceipt, share_payloads

#: Width of the approximate-pointer window, in shard-id slots.  A window
#: of w means an adversary seeing one shard learns only that siblings are
#: among w candidates; recovery scans at most w ids per hop.
POINTER_WINDOW = 16


def _shard_index(fragment: int, shamir_index: int) -> int:
    """Flatten (fragment, shamir point) into one placement index."""
    return fragment * 100 + shamir_index


def _unflatten(index: int) -> tuple[int, int]:
    return index // 100, index % 100


class Potshards(ArchivalSystem):
    """Two-level secret-split archive over independent providers."""

    name = "POTSHARDS"
    citation = "[63]"
    at_rest_relies_on = ()  # keyless: pure information-theoretic splitting

    def __init__(self, nodes, rng, xor_ways: int = 2, shamir_n: int = 4, shamir_t: int = 3):
        super().__init__(nodes, rng)
        if xor_ways < 2:
            raise ParameterError("POTSHARDS uses at least a 2-way secrecy split")
        self.xor_ways = xor_ways
        self.secrecy = AdditiveSecretSharing(xor_ways)
        self.availability = ShamirSecretSharing(shamir_n, shamir_t)

    def _shard_layout(self) -> dict[int, tuple[int, int]]:
        """Every shard of an object: placement index -> (XOR fragment,
        Shamir point)."""
        return {
            _shard_index(fragment, point): (fragment, point)
            for fragment in range(1, self.xor_ways + 1)
            for point in self.availability.points
        }

    def _encode(self, object_id, data):
        shards = {
            fragment.index: share_payloads(
                self.availability.split(fragment.payload, self.rng).shares
            )
            for fragment in self.secrecy.split(data, self.rng).shares
        }
        payloads = {
            index: self._with_pointer(object_id, index, shards[fragment][point])
            for index, (fragment, point) in self._shard_layout().items()
        }
        metadata = {
            "xor_ways": self.xor_ways,
            "shamir_n": self.availability.n,
            "shamir_t": self.availability.t,
        }
        return payloads, metadata, {}

    def _quorum(self, receipt: StoreReceipt) -> None:
        # Two-level assembly has no single quorum; try every placed shard.
        return None

    def _decode(self, receipt: StoreReceipt, shards: dict[int, bytes], regenerate):
        # The adversary path is the same pure share counting, never gated
        # on the break timeline: a keyless design has nothing to break.
        return self._assemble(receipt.object_id, shards, receipt.original_length, regenerate)

    # -- index-loss disaster recovery ----------------------------------------------------

    def recover_without_index(self, start_shard_payload: bytes, original_length: int) -> bytes:
        """Rebuild an object from ONE shard by walking approximate pointers.

        Models POTSHARDS' recovery story: a user who lost all metadata scans
        the (bounded) pointer windows across providers, gathering sibling
        shards until both levels reconstruct.
        """
        object_id, _, _ = self._parse_pointer(start_shard_payload)
        siblings = {share_key(object_id, index): index for index in self._shard_layout()}
        gathered: dict[int, bytes] = {}
        for node in self.nodes:
            if not node.online:
                continue
            for stored_id in node.object_ids():
                if stored_id in siblings:
                    gathered[siblings[stored_id]] = node.get(stored_id)
        return self._assemble(object_id, gathered, original_length, ())[0]

    # -- internals ----------------------------------------------------------------------------

    def _with_pointer(self, object_id: str, index: int, payload: bytes) -> bytes:
        """Prefix the shard with its approximate pointer window."""
        window_base = (index // POINTER_WINDOW) * POINTER_WINDOW
        header = (
            object_id.encode()
            + b"|"
            + window_base.to_bytes(4, "big")
            + POINTER_WINDOW.to_bytes(4, "big")
            + b"|"
        )
        return header + payload

    @staticmethod
    def _parse_pointer(shard: bytes) -> tuple[str, int, bytes]:
        try:
            name, rest = shard.split(b"|", 1)
            window_base = int.from_bytes(rest[:4], "big")
            payload = rest.split(b"|", 1)[1]
        except (ValueError, IndexError):
            raise DecodingError("malformed POTSHARDS shard") from None
        return name.decode(), window_base, payload

    def _assemble(
        self, object_id: str, shards: dict[int, bytes], length: int, regenerate: Sequence[int]
    ) -> tuple[bytes, dict[int, bytes]]:
        """Both levels' decode; each fragment's Shamir interpolation also
        rebuilds its shards at *regenerate*, which get their pointer back."""
        by_fragment: dict[int, list[Share]] = {}
        for index, payload in shards.items():
            fragment, shamir_index = _unflatten(index)
            _, _, body = self._parse_pointer(payload)
            by_fragment.setdefault(fragment, []).append(
                Share(scheme="shamir", index=shamir_index, payload=body)
            )
        fragment_shares = []
        rebuilt: dict[int, bytes] = {}
        for fragment in range(1, self.xor_ways + 1):
            available = by_fragment.get(fragment, [])
            if len(available) < self.availability.t:
                raise DecodingError(
                    f"fragment {fragment}: {len(available)} shards held, "
                    f"{self.availability.t} required"
                )
            points = [point for f, point in map(_unflatten, regenerate) if f == fragment]
            payload, shares = self.availability.reconstruct(available, regenerate=points)
            fragment_shares.append(Share(scheme="additive", index=fragment, payload=payload))
            for share in shares:
                index = _shard_index(fragment, share.index)
                rebuilt[index] = self._with_pointer(object_id, index, share.payload)
        return self.secrecy.reconstruct(fragment_shares)[:length], rebuilt
