"""Local-leakage attacks and leakage-resilient secret sharing (LRSS).

Paper, Section 4: "Instead of stealing an entire secret share from the
archive, an adversary might leak only a few bits of information about a
share via some hidden side-channel.  Shamir's secret sharing is known to be
vulnerable to such leakage attacks [Benhamouda et al.]; several recent works
have proposed new leakage-resilient secret sharing (LRSS) schemes.
Evaluating LRSS's viability for archival systems is an open problem."

Two halves, both executable:

- :func:`local_leakage_attack` -- the concrete attack on *linear* schemes.
  Reconstruction is linear (secret = sum lambda_j * y_j with public
  lambda_j), so in characteristic 2 every bit of the secret is the XOR of
  one locally computable bit per share.  An adversary leaking exactly ONE
  bit from each share recovers a full secret bit with certainty -- no
  threshold violated, no share stolen.

- :class:`LeakageResilientSharing` -- an LRSS in the nonlinear-extractor
  style: the shares hide a uniform *source* w (Shamir-shared, with extra
  length as the leakage budget), and the message is masked by a nonlinear
  extraction from w.  Because the mask is not a linear function of the
  shares, the bit-XOR attack degrades to coin flipping.  Our extractor is
  instantiated with SHA-256 (a computational surrogate for the
  information-theoretic extractors in the LRSS literature -- see DESIGN.md's
  substitution table); the *leakage-budget accounting* is faithful: the
  scheme records how many leaked bits it tolerates, and the benchmark sweeps
  attacks against both schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.crypto.chacha20 import chacha20_keystream
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import DecodingError, ParameterError
from repro.gmath.gf256 import GF256
from repro.gmath.poly import lagrange_coefficients_at_zero
from repro.secretsharing.base import Share, SplitResult, record_reconstruct, record_split
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.security import SecurityLevel

#: A leakage function: sees ONE share's payload, returns `bits` leaked bits.
LeakageFunction = Callable[[bytes], int]


@dataclass
class LeakageAttackResult:
    """Outcome of a local-leakage attack on one secret bit."""

    target_byte: int
    target_bit: int
    predicted_bit: int
    actual_bit: int
    bits_leaked_per_share: int

    @property
    def success(self) -> bool:
        return self.predicted_bit == self.actual_bit


def local_leakage_attack(
    scheme: ShamirSecretSharing,
    split: SplitResult,
    secret: bytes,
    target_byte: int = 0,
    target_bit: int = 0,
) -> LeakageAttackResult:
    """Run the 1-bit-per-share local leakage attack against Shamir.

    The adversary picks any t share indices (public), computes the public
    Lagrange coefficients, and asks each side channel for one bit: bit
    *target_bit* of ``lambda_j * payload[target_byte]``.  The XOR of the
    answers equals the corresponding secret bit, because reconstruction is
    GF(2^8)-linear and bit extraction commutes with XOR.
    """
    if not secret:
        raise ParameterError("empty secret")
    shares = list(split.shares)[: scheme.t]
    xs = [s.index for s in shares]
    lambdas = lagrange_coefficients_at_zero(GF256, xs)

    predicted = 0
    for coefficient, share in zip(lambdas, shares):
        # This is the *local* function: it reads only this share's bytes
        # (the coefficient is public, derived from indices alone).
        contribution = GF256.mul(coefficient, share.payload[target_byte])
        predicted ^= (contribution >> target_bit) & 1

    actual = (secret[target_byte] >> target_bit) & 1
    return LeakageAttackResult(
        target_byte=target_byte,
        target_bit=target_bit,
        predicted_bit=predicted,
        actual_bit=actual,
        bits_leaked_per_share=1,
    )


class LeakageResilientSharing:
    """Nonlinear-extractor LRSS: Shamir-share a padded source, mask the
    message with a nonlinear extraction.

    Parameters
    ----------
    n, t:
        Threshold parameters, as in Shamir.
    leakage_budget_bits:
        Total adversarial leakage (bits, across all shares) the source
        padding absorbs.  The source is ``ceil(budget/8) + 32`` bytes longer
        than the message, keeping the residual min-entropy of w above the
        extraction length even after budget bits leak.
    """

    name = "lrss"
    security_level = SecurityLevel.ITS_CONDITIONAL

    def __init__(self, n: int, t: int, leakage_budget_bits: int = 128):
        if leakage_budget_bits < 0:
            raise ParameterError("leakage budget must be >= 0")
        self.n = n
        self.t = t
        self.leakage_budget_bits = leakage_budget_bits
        self._inner = ShamirSecretSharing(n, t)

    @property
    def padding_bytes(self) -> int:
        return -(-self.leakage_budget_bits // 8) + 32

    def storage_overhead_for(self, message_length: int) -> float:
        source = message_length + self.padding_bytes
        return (self.n * source + message_length) / max(1, message_length)

    @staticmethod
    def _extract_mask(source: bytes, length: int) -> bytes:
        """Nonlinear extraction from the source, XOF-style: HKDF condenses
        the source to a key, ChaCha20 expands to the message length."""
        key = hkdf(source, 32, info=b"lrss-extractor")
        return chacha20_keystream(key, b"\x00" * 12, max(1, length))

    def split(self, data: bytes, rng: DeterministicRandom) -> SplitResult:
        source = rng.bytes(len(data) + self.padding_bytes)
        mask = self._extract_mask(source, len(data))
        masked = (
            np.frombuffer(data, dtype=np.uint8)
            ^ np.frombuffer(mask[: len(data)], dtype=np.uint8)
        ).tobytes()
        inner = self._inner.split(source, rng)
        shares = tuple(
            Share(scheme=self.name, index=s.index, payload=s.payload)
            for s in inner.shares
        )
        record_split(self.name, len(data), self.n)
        return SplitResult(
            scheme=self.name,
            shares=shares,
            threshold=self.t,
            total=self.n,
            original_length=len(data),
            public={"masked_message": masked},
        )

    def reconstruct(
        self,
        split: SplitResult | Sequence[Share],
        masked_message: bytes | None = None,
        *,
        regenerate: Sequence[int] | None = None,
    ) -> bytes | tuple[bytes, list[Share]]:
        """Recover the message from any t shares and the masked message.

        With *regenerate* (share indices), returns ``(message, shares)``:
        the shares are Shamir shares of the source, so the inner scheme
        rebuilds them in the interpolation that recovers the source, and
        the masked message stays as it is.
        """
        if isinstance(split, SplitResult):
            masked_message = split.public["masked_message"]
            share_list = list(split.shares)
        else:
            share_list = list(split)
            if masked_message is None:
                raise ParameterError("masked_message required when passing raw shares")
        inner_shares = [
            Share(scheme=self._inner.name, index=s.index, payload=s.payload)
            for s in share_list
        ]
        source, inner_rebuilt = self._inner.reconstruct(
            inner_shares, regenerate=regenerate or ()
        )
        if len(source) < len(masked_message):
            raise DecodingError("reconstructed source shorter than message")
        mask = self._extract_mask(source, len(masked_message))
        record_reconstruct(self.name, len(masked_message))
        message = (
            np.frombuffer(masked_message, dtype=np.uint8)
            ^ np.frombuffer(mask[: len(masked_message)], dtype=np.uint8)
        ).tobytes()
        if regenerate is None:
            return message
        return message, [Share(self.name, s.index, s.payload) for s in inner_rebuilt]


def linear_attack_against_lrss(
    lrss: LeakageResilientSharing,
    split: SplitResult,
    secret: bytes,
    target_byte: int = 0,
    target_bit: int = 0,
) -> LeakageAttackResult:
    """Mount the same linear 1-bit attack against LRSS shares.

    The XOR of the leaked bits now reveals a bit of the *source* w, not of
    the message: the message bit is that source-extraction bit XORed through
    a nonlinear function the adversary cannot linearize.  The prediction is
    therefore uncorrelated with the real bit (~50% success across trials).
    """
    shares = list(split.shares)[: lrss.t]
    xs = [s.index for s in shares]
    lambdas = lagrange_coefficients_at_zero(GF256, xs)
    leaked_source_bit = 0
    for coefficient, share in zip(lambdas, shares):
        contribution = GF256.mul(coefficient, share.payload[target_byte])
        leaked_source_bit ^= (contribution >> target_bit) & 1
    # Best the adversary can do: combine the leaked source bit with the
    # public masked message bit and hope the extractor were linear.
    masked = split.public["masked_message"]
    predicted = leaked_source_bit ^ ((masked[target_byte] >> target_bit) & 1)
    actual = (secret[target_byte] >> target_bit) & 1
    return LeakageAttackResult(
        target_byte=target_byte,
        target_bit=target_bit,
        predicted_bit=predicted,
        actual_bit=actual,
        bits_leaked_per_share=1,
    )


register_primitive(
    name="lrss",
    kind=PrimitiveKind.SECRET_SHARING,
    description="Leakage-resilient secret sharing (nonlinear-extractor style)",
    hardness_assumption=None,  # leakage-bounded information-theoretic model
)
