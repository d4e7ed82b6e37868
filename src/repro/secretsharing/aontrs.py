"""AONT-RS dispersal (Resch-Plank, FAST '11) -- the Cleversafe encoding.

Pipeline per the paper: apply the all-or-nothing transform (the key ends up
inside the package, masked by a digest of the ciphertext), then spread the
package across n storage nodes with a systematic [n, k] Reed-Solomon code.

Properties the benchmarks exercise:

- storage overhead ~= n/k (low -- Table 1 files AONT-RS under "Low"),
- availability: any k of n shards reconstruct,
- confidentiality: *computational only*.  Fewer than k shards reveal nothing
  to a PPT adversary, but once the underlying cipher or hash breaks, "an
  attacker trivially knows the key and can recover plaintext from even a
  single share" -- reproduced by pairing the weak-cipher AONT with the
  brute-force attack in the HNDL benchmark.
"""

from __future__ import annotations

from typing import Sequence

from repro.crypto.aont import aont_package_array, aont_unpackage_array
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import DecodingError, ParameterError
from repro.gmath.reedsolomon import ReedSolomonCode, Shard
from repro.secretsharing.base import Share, SplitResult, record_reconstruct, record_split
from repro.security import SecurityLevel


class AontRsDispersal:
    """AONT + systematic [n, k] Reed-Solomon dispersal."""

    name = "aont-rs"
    security_level = SecurityLevel.COMPUTATIONAL

    def __init__(self, n: int, k: int):
        if not 1 <= k < n:
            raise ParameterError(f"AONT-RS needs 1 <= k < n, got n={n} k={k}")
        self.n = n
        self.k = k
        self.code = ReedSolomonCode(n, k)

    @property
    def storage_overhead(self) -> float:
        """n/k erasure-code overhead (the +32-byte AONT tail is amortized)."""
        return self.n / self.k

    def split(self, data: bytes, rng: DeterministicRandom) -> SplitResult:
        # Zero-copy pipeline: the AONT package stays an ndarray from the CTR
        # slab through RS row-splitting; bytes materialize only per shard.
        package = aont_package_array(data, rng)
        shards = self.code.encode(package)
        shares = tuple(
            Share(scheme=self.name, index=shard.index, payload=shard.data)
            for shard in shards
        )
        record_split(self.name, len(data), self.n)
        return SplitResult(
            scheme=self.name,
            shares=shares,
            threshold=self.k,
            total=self.n,
            original_length=len(data),
            public={"package_length": package_length_bytes(len(package))},
        )

    def reconstruct(
        self,
        shares: Sequence[Share] | SplitResult,
        original_length: int | None = None,
        *,
        regenerate: Sequence[int] | None = None,
    ) -> bytes | tuple[bytes, list[Share]]:
        """Recover the plaintext from any k distinct shards.

        With *regenerate* (shard indices), returns ``(plaintext, shares)``:
        the Reed-Solomon decode rebuilds those shards from the same k, so
        the AONT package is neither re-made nor re-split.
        """
        if isinstance(shares, SplitResult):
            package_length = int.from_bytes(shares.public["package_length"], "big")
            share_list = list(shares.shares)
        else:
            share_list = list(shares)
            if original_length is None:
                raise ParameterError("original_length required when passing raw shares")
            package_length = original_length + 32
        shards = [Shard(index=s.index, data=s.payload) for s in share_list]
        if len({s.index for s in shards}) < self.k:
            raise DecodingError(f"AONT-RS needs {self.k} distinct shards")
        package, rebuilt = self.code.decode_array(
            shards, package_length, regenerate=regenerate or ()
        )
        plain = aont_unpackage_array(package)
        record_reconstruct(self.name, len(plain))
        if regenerate is None:
            return plain.tobytes()
        return plain.tobytes(), [Share(self.name, s.index, s.data) for s in rebuilt]


def package_length_bytes(length: int) -> bytes:
    """Fixed-width encoding of the package length for public metadata."""
    return length.to_bytes(8, "big")


register_primitive(
    name="aont-rs",
    kind=PrimitiveKind.SECRET_SHARING,
    description="AONT + Reed-Solomon dispersal (Resch-Plank)",
    hardness_assumption="AES is a PRP and SHA-256 is preimage-resistant",
)
