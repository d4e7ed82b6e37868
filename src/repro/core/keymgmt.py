"""Key management with rotation history.

Two costs the paper attributes to computational approaches live here:

- cascade/layered systems carry "a growing history of encryption keys";
  :class:`KeyManager` makes that growth measurable (``history_bytes``);
- key *rotation* (new key, same cipher) is cheap for future data but does
  nothing for already-encrypted data without the re-encryption I/O -- the
  manager distinguishes ``rotate`` (new objects only) from
  ``supersede_cipher`` (a break response that marks every key of a fallen
  cipher as compromised, so callers know which objects still need the
  expensive path).

Keys can optionally be escrowed into a :class:`ProactiveVSS` group,
which is how the LINCOS/HasDPSS pattern ("share the key, not the data")
composes out of library pieces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline, global_registry
from repro.errors import KeyManagementError, ParameterError
from repro.secretsharing.verifiable import ProactiveVSS, deal_key_limbs, join_key_limbs
from repro.security import redact_secret


@dataclass
class ManagedKey:
    key_id: str
    cipher_name: str
    material: bytes
    created_epoch: int
    #: Set when the key's cipher broke or the key was rotated away.
    retired_epoch: int | None = None
    compromised: bool = False

    def __repr__(self) -> str:
        return (
            f"ManagedKey(key_id={self.key_id!r}, cipher_name={self.cipher_name!r}, "
            f"material={redact_secret(self.material)}, "
            f"created_epoch={self.created_epoch}, retired_epoch={self.retired_epoch}, "
            f"compromised={self.compromised})"
        )


@dataclass
class KeyManager:
    """Per-object key issuance, rotation, and break response."""

    rng: DeterministicRandom
    default_cipher: str = "aes-256-ctr"
    key_size: int = 32
    _keys: dict[str, list[ManagedKey]] = field(default_factory=dict)
    epoch: int = 0

    # -- issuance ------------------------------------------------------------------

    def issue(self, object_id: str, cipher_name: str | None = None) -> ManagedKey:
        cipher_name = cipher_name or self.default_cipher
        if cipher_name not in global_registry():
            raise ParameterError(f"unknown cipher {cipher_name!r}")
        key = ManagedKey(
            key_id=f"{object_id}#v{len(self._keys.get(object_id, []))}",
            cipher_name=cipher_name,
            material=self.rng.bytes(self.key_size),
            created_epoch=self.epoch,
        )
        self._keys.setdefault(object_id, []).append(key)
        return key

    def current(self, object_id: str) -> ManagedKey:
        try:
            versions = self._keys[object_id]
        except KeyError:
            raise KeyManagementError(f"no keys for {object_id!r}") from None
        for key in reversed(versions):
            if key.retired_epoch is None:
                return key
        raise KeyManagementError(f"all keys for {object_id!r} are retired")

    def history(self, object_id: str) -> list[ManagedKey]:
        return list(self._keys.get(object_id, []))

    @property
    def history_bytes(self) -> int:
        """Total key material retained -- the cascade's 'growing history'."""
        return sum(
            len(key.material)
            for versions in self._keys.values()
            for key in versions
        )

    # -- rotation and break response ---------------------------------------------------

    def rotate(self, object_id: str, cipher_name: str | None = None) -> ManagedKey:
        """Retire the current key and issue a fresh one.

        Note what this does NOT do: touch any data already encrypted under
        the old key.  That data still needs re-encryption I/O, which is the
        planner's department (:mod:`repro.core.reencryption`).
        """
        old = self.current(object_id)
        old.retired_epoch = self.epoch
        return self.issue(object_id, cipher_name or old.cipher_name)

    def supersede_cipher(
        self, timeline: BreakTimeline, replacement_cipher: str
    ) -> list[str]:
        """Mark every key of every broken cipher compromised; rotate those
        objects to *replacement_cipher*.  Returns the object ids whose
        at-rest data is now exposed until re-encrypted."""
        exposed = []
        for object_id, versions in self._keys.items():
            needs_rotation = False
            for key in versions:
                if timeline.is_broken(key.cipher_name, self.epoch):
                    key.compromised = True
                    if key.retired_epoch is None:
                        needs_rotation = True
            if needs_rotation:
                exposed.append(object_id)
                self.rotate(object_id, replacement_cipher)
        return sorted(exposed)

    def advance_epoch(self, to_epoch: int) -> None:
        if to_epoch < self.epoch:
            raise ParameterError("epochs do not run backwards")
        self.epoch = to_epoch

    # -- escrow into DPSS groups -------------------------------------------------------------

    def escrow_to_vss(self, object_id: str, n: int, t: int) -> list[ProactiveVSS]:
        """Share the current key into proactive VSS committees -- the
        'key plane is ITS even though the data plane is cheap' pattern.

        The key is split into 120-bit limbs (the scalar VSS works in a
        ~127-bit group), one committee per limb; all committees renew
        together under the caller's epoch schedule.
        """
        return deal_key_limbs(self.current(object_id).material, n, t, self.rng)

    def recover_from_vss(self, groups: list[ProactiveVSS]) -> bytes:
        """Inverse of :meth:`escrow_to_vss` (works after any renewals)."""
        return join_key_limbs((group.reconstruct() for group in groups), self.key_size)
