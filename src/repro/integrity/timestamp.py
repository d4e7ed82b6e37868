"""Haber-Stornetta timestamp chains, with LINCOS's commitment variant.

A timestamp authority signs (payload reference, epoch, previous-link hash)
tuples; the chain is renewed by signing the whole prefix with a fresh,
stronger scheme before the old one breaks.  Verification semantics live in
:mod:`repro.integrity.auditor`.

Two payload-reference modes, the paper's exact contrast:

- ``"hash"`` -- the classic chain stores H(document).  Integrity holds, but
  the reference is only computationally hiding: an unbounded (or
  post-break) adversary can grind candidate documents, which "compromises
  the information-theoretic confidentiality of data" stored beside it.
- ``"pedersen"`` -- LINCOS's fix: store a Pedersen commitment instead.
  Perfectly hiding, still binding enough for integrity (computationally,
  via the discrete log).

Signature schemes are pluggable via :class:`ChainSigner`; the library ships
a hash-based signer (Merkle-WOTS) and the breakable toy-RSA signer so
renewal actually has something to race against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Protocol

from repro.crypto.commitments import PedersenCommitment, PedersenOpening
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.sha256 import sha256
from repro.crypto.signatures import (
    WOTS_SIGNATURE_BYTES,
    MerkleSignature,
    RsaKeyPair,
    ToyRsaSignature,
)
from repro.errors import IntegrityError, ParameterError


class ChainVerifier(Protocol):
    """What a chain auditor needs from a signature scheme: public operations."""

    scheme_name: str

    def verify(self, message: bytes, signature: bytes) -> bool: ...

    def public_identity(self) -> bytes: ...


class ChainSigner(ChainVerifier, Protocol):
    """What the timestamp authority needs from a signature scheme."""

    def sign(self, message: bytes) -> bytes: ...


class MerkleChainSigner:
    """Hash-based signer (Merkle-WOTS); the 'strong new scheme'."""

    scheme_name = "merkle-wots"

    def __init__(self, rng: DeterministicRandom, height: int = 4):
        self._scheme = MerkleSignature(height, rng)

    @property
    def remaining(self) -> int:
        """One-time keys left; each signature uses one."""
        return self._scheme.remaining

    def sign(self, message: bytes) -> bytes:
        return _encode_merkle_signature(self._scheme.sign(message))

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.verifier().verify(message, signature)

    def public_identity(self) -> bytes:
        return self._scheme.public_root

    def verifier(self) -> MerkleChainVerifier:
        """This signer's public half, which keeps none of its keys."""
        return MerkleChainVerifier(self._scheme.public_root)


class MerkleChainVerifier:
    """A Merkle-WOTS signer reduced to its 32-byte root: verifies, never
    signs.  What an archive keeps of a retired signer for its auditors."""

    scheme_name = MerkleChainSigner.scheme_name
    __slots__ = ("_root",)

    def __init__(self, public_root: bytes):
        self._root = public_root

    def verify(self, message: bytes, signature: bytes) -> bool:
        decoded = _decode_merkle_signature(signature)
        if decoded is None:
            return False
        return MerkleSignature.verify(self._root, message, decoded)

    def public_identity(self) -> bytes:
        return self._root


class RsaChainSigner:
    """Toy-RSA signer; the 'old scheme that will fall'."""

    scheme_name = "toy-rsa"

    def __init__(self, rng: DeterministicRandom, modulus_bits: int = 64):
        self._scheme = ToyRsaSignature(modulus_bits)
        self._keys: RsaKeyPair = self._scheme.generate(rng)

    def sign(self, message: bytes) -> bytes:
        signature = self._scheme.sign(self._keys, message)
        return signature.to_bytes((signature.bit_length() + 7) // 8 or 1, "big")

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self._scheme.verify(
            self._keys.public, message, int.from_bytes(signature, "big")
        )

    def public_identity(self) -> bytes:
        return self._keys.n.to_bytes((self._keys.n.bit_length() + 7) // 8, "big")


@dataclass(frozen=True)
class TimestampLink:
    """One link: a signed (reference, epoch, prev) statement."""

    index: int
    epoch: int
    scheme: str
    reference: bytes  # H(doc) or serialized Pedersen commitment
    reference_kind: str  # "hash" | "pedersen" | "renewal"
    prev_digest: bytes
    signature: bytes
    signer_identity: bytes

    def signed_message(self) -> bytes:
        return (
            b"link:"
            + self.index.to_bytes(8, "big")
            + self.epoch.to_bytes(8, "big")
            + self.scheme.encode()
            + b":"
            + self.reference_kind.encode()
            + b":"
            + self.reference
            + self.prev_digest
        )

    def digest(self) -> bytes:
        """This link's hash, recomputed from its fields on every call: what
        an auditor checks each successor's ``prev_digest`` against."""
        return sha256(self.signed_message() + self.signature)

    @cached_property
    def cached_digest(self) -> bytes:
        """:meth:`digest`, hashed once.  A link does not change after it is
        built, so the chain's head and its renewal reference read this
        instead of hashing every link again."""
        return self.digest()


@dataclass
class TimestampChain:
    """An append-only chain of timestamp links."""

    links: list[TimestampLink] = field(default_factory=list)

    @property
    def head_digest(self) -> bytes:
        if not self.links:
            return b"\x00" * 32
        return self.links[-1].cached_digest

    def append(self, link: TimestampLink) -> None:
        expected_prev = self.head_digest
        # Hash-chain heads are public ledger state, recomputable by anyone
        # from the published links; constant-time comparison buys nothing.
        if link.prev_digest != expected_prev:  # noqa: ARCH004 - public chain link
            raise IntegrityError("link does not extend the current head")
        if link.index != len(self.links):
            raise IntegrityError("link index out of sequence")
        self.links.append(link)

    def __len__(self) -> int:
        return len(self.links)


class TimestampAuthority:
    """Issues links onto chains with its configured signer."""

    def __init__(self, signer: ChainSigner):
        self.signer = signer

    def timestamp_document(
        self,
        chain: TimestampChain,
        document: bytes,
        epoch: int,
        reference_kind: str = "hash",
        pedersen: PedersenCommitment | None = None,
        rng: DeterministicRandom | None = None,
    ) -> tuple[TimestampLink, PedersenOpening | None]:
        """Timestamp *document* onto *chain*; returns the link and, in
        pedersen mode, the opening the document owner must retain."""
        opening = None
        if reference_kind == "hash":
            reference = sha256(document)
        elif reference_kind == "pedersen":
            if pedersen is None or rng is None:
                raise ParameterError("pedersen mode needs a commitment scheme and rng")
            value = int.from_bytes(sha256(document), "big") % pedersen.group.q
            commitment, opening = pedersen.commit(value, rng)
            reference = commitment.to_bytes(
                (pedersen.group.p.bit_length() + 7) // 8, "big"
            )
        else:
            raise ParameterError(f"unknown reference kind {reference_kind!r}")

        link = self._make_link(chain, reference, reference_kind, epoch)
        chain.append(link)
        return link, opening

    def renew_chain(self, chain: TimestampChain, epoch: int) -> TimestampLink:
        """Re-timestamp the whole chain prefix under this authority's scheme
        -- the periodic renewal that keeps integrity alive across breaks."""
        prefix_digest = sha256(
            b"".join(link.cached_digest for link in chain.links) or b"empty"
        )
        link = self._make_link(chain, prefix_digest, "renewal", epoch)
        chain.append(link)
        return link

    def _make_link(
        self, chain: TimestampChain, reference: bytes, kind: str, epoch: int
    ) -> TimestampLink:
        if chain.links and epoch < chain.links[-1].epoch:
            raise ParameterError("chain epochs must be non-decreasing")
        unsigned = TimestampLink(
            index=len(chain.links),
            epoch=epoch,
            scheme=self.signer.scheme_name,
            reference=reference,
            reference_kind=kind,
            prev_digest=chain.head_digest,
            signature=b"",
            signer_identity=self.signer.public_identity(),
        )
        signature = self.signer.sign(unsigned.signed_message())
        return TimestampLink(
            index=unsigned.index,
            epoch=unsigned.epoch,
            scheme=unsigned.scheme,
            reference=unsigned.reference,
            reference_kind=unsigned.reference_kind,
            prev_digest=unsigned.prev_digest,
            signature=signature,
            signer_identity=unsigned.signer_identity,
        )


# -- chain (de)serialization ---------------------------------------------------------


def serialize_chain(chain: TimestampChain) -> str:
    """JSON-encode a chain for archival export.

    A timestamp chain is itself long-lived evidence: it must survive
    system migrations, so it needs a storage-format representation that a
    future verifier can parse without this library's object model.
    """
    import json

    return json.dumps(
        {
            "format": "repro-timestamp-chain-v1",
            "links": [
                {
                    "index": link.index,
                    "epoch": link.epoch,
                    "scheme": link.scheme,
                    "reference": link.reference.hex(),
                    "reference_kind": link.reference_kind,
                    "prev_digest": link.prev_digest.hex(),
                    "signature": link.signature.hex(),
                    "signer_identity": link.signer_identity.hex(),
                }
                for link in chain.links
            ],
        },
        indent=2,
    )


def deserialize_chain(blob: str) -> TimestampChain:
    """Inverse of :func:`serialize_chain`; validates linkage on load."""
    import json

    try:
        payload = json.loads(blob)
        if payload.get("format") != "repro-timestamp-chain-v1":
            raise IntegrityError("unknown chain serialization format")
        chain = TimestampChain()
        for raw in payload["links"]:
            chain.append(
                TimestampLink(
                    index=int(raw["index"]),
                    epoch=int(raw["epoch"]),
                    scheme=str(raw["scheme"]),
                    reference=bytes.fromhex(raw["reference"]),
                    reference_kind=str(raw["reference_kind"]),
                    prev_digest=bytes.fromhex(raw["prev_digest"]),
                    signature=bytes.fromhex(raw["signature"]),
                    signer_identity=bytes.fromhex(raw["signer_identity"]),
                )
            )
    except (KeyError, ValueError, TypeError) as exc:
        raise IntegrityError(f"malformed chain serialization: {exc}") from exc
    return chain


# -- Merkle signature (de)serialization -------------------------------------------


def _encode_merkle_signature(signature: dict) -> bytes:
    """4-byte index, 2-byte path length, the path's 32-byte nodes, then the
    Winternitz signature.  No public key: the verifier recomputes the leaf
    from the signature."""
    parts = [
        signature["index"].to_bytes(4, "big"),
        len(signature["auth_path"]).to_bytes(2, "big"),
        b"".join(signature["auth_path"]),
        signature["ots_signature"],
    ]
    return b"".join(parts)


def _decode_merkle_signature(blob: bytes) -> dict | None:
    """The fields of an encoded signature; None unless *blob* is exactly
    as long as its path length says."""
    path_len = int.from_bytes(blob[4:6], "big")
    offset = 6 + 32 * path_len
    if len(blob) != offset + WOTS_SIGNATURE_BYTES:
        return None
    return {
        "index": int.from_bytes(blob[:4], "big"),
        "auth_path": [blob[6 + 32 * i : 6 + 32 * (i + 1)] for i in range(path_len)],
        "ots_signature": blob[offset:],
    }
