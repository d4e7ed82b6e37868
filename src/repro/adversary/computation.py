"""Rate-bounded adversarial computation (paper Section 2's nuanced model).

"One can introduce real-time notions into the model and bound the rate of
computation per unit of real time [Canetti et al.]. Additionally, one can
define an adversary as a sequence of adversaries indexed by time, with each
successive adversary belonging to a more powerful class [Buldas et al.]."

This module makes that adversary concrete enough to *derive* break epochs
rather than decree them: an adversary starts with a compute rate (guesses
per epoch) that grows geometrically (the Moore's-law-style sequence of
ever-stronger adversaries), and a primitive with an effective strength of
``b`` bits falls when the adversary's cumulative guesses reach ``2^b``.

Deriving the :class:`BreakTimeline` this way ties the whole obsolescence
machinery to two auditable numbers -- today's budget and its growth rate --
and exposes the design question archives actually face: *how many bits of
margin buy how many years?* (:func:`bits_needed_for_horizon`).

Brute force is the *floor* of adversarial progress, not the ceiling
(cryptanalytic shortcuts arrive unannounced -- MD5, DES, Shor); callers can
overlay scheduled breaks for shortcut events on the derived timeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.crypto.registry import BreakTimeline, PrimitiveRegistry, global_registry
from repro.errors import ParameterError
from repro.security import SecurityNotion

#: Effective strengths (bits) for the library's computational primitives.
#: Deliberately simulation-scale for the toys; standard figures otherwise.
DEFAULT_STRENGTHS: dict[str, int] = {
    "legacy-feistel": 16,  # by construction
    "toy-rsa": 32,  # ~strength of factoring a 64-bit modulus
    "toy-dh": 64,  # generic dlog in a ~128-bit group: sqrt cost
    "md5": 24,  # post-2004 collision cost, roughly
    "aes-128-ctr": 128,
    "aes-256-ctr": 256,
    "chacha20": 256,
    "sha256": 128,  # collision resistance (birthday bound)
    "chacha-dm": 128,
    "hmac-sha256": 128,
    "hkdf-sha256": 128,
    "lamport-ots": 128,
    "winternitz-ots": 128,
    "merkle-wots": 128,
    "aont": 128,
    "aont-rs": 128,
    "combined-hash": 128,
    "feldman-vss": 64,
    "proxy-reencryption": 64,
    "cascade": 256,
    "entropic": 128,
    "bsm": 256,  # unused: IT primitives are filtered out anyway
}


@dataclass(frozen=True)
class ComputeBudget:
    """An adversary's compute trajectory.

    ``initial_guesses_per_epoch`` is the rate in epoch 1; the rate multiplies
    by ``growth_per_epoch`` each epoch (1.41 ~ doubling every two epochs,
    the classic cadence).
    """

    initial_guesses_per_epoch: float
    growth_per_epoch: float = 1.41

    def __post_init__(self) -> None:
        if self.initial_guesses_per_epoch <= 0:
            raise ParameterError("compute rate must be positive")
        if self.growth_per_epoch < 1:
            raise ParameterError("compute does not shrink in this model")

    def cumulative_guesses(self, epoch: int) -> float:
        """Total guesses spent by the END of *epoch* (epoch 0 = none yet)."""
        if epoch <= 0:
            return 0.0
        r, g = self.growth_per_epoch, self.initial_guesses_per_epoch
        if r == 1.0:
            return g * epoch
        return g * (r**epoch - 1) / (r - 1)

    def epochs_to_break(self, strength_bits: float, max_epochs: int = 10_000) -> int | None:
        """First epoch whose cumulative guesses reach 2^strength_bits."""
        if strength_bits < 0:
            raise ParameterError("strength must be >= 0 bits")
        target = 2.0**strength_bits
        # Closed form when growing; guard with a cap for flat budgets.
        if self.growth_per_epoch > 1.0:
            r, g = self.growth_per_epoch, self.initial_guesses_per_epoch
            # g (r^e - 1)/(r - 1) >= target  =>  e >= log_r(target (r-1)/g + 1)
            epoch = math.ceil(math.log(target * (r - 1) / g + 1, r))
            return epoch if epoch <= max_epochs else None
        epoch = math.ceil(target / self.initial_guesses_per_epoch)
        return epoch if epoch <= max_epochs else None


def derive_timeline(
    budget: ComputeBudget,
    strengths: dict[str, int] | None = None,
    registry: PrimitiveRegistry | None = None,
    horizon_epochs: int = 10_000,
) -> BreakTimeline:
    """Build a BreakTimeline from the adversary's compute trajectory.

    Information-theoretic primitives never enter the timeline -- no budget
    breaks them, which is the paper's thesis falling out of the model.
    """
    registry = registry or global_registry()
    strengths = strengths or DEFAULT_STRENGTHS
    timeline = BreakTimeline(registry=registry)
    for name in registry.names():
        info = registry.get(name)
        if info.notion is SecurityNotion.INFORMATION_THEORETIC:
            continue
        if info.historically_broken:
            continue  # already broken at epoch 0 by registry flag
        strength = strengths.get(name)
        if strength is None:
            continue
        epoch = budget.epochs_to_break(strength, max_epochs=horizon_epochs)
        if epoch is not None:
            timeline.schedule_break(name, epoch)
    return timeline


def bits_needed_for_horizon(
    budget: ComputeBudget, horizon_epochs: int, margin_bits: float = 0.0
) -> float:
    """Minimum effective strength that survives *horizon_epochs*.

    The inverse design question: an archive with a 100-epoch confidentiality
    horizon facing this adversary needs primitives of at least this many
    bits -- plus whatever *margin_bits* hedge against cryptanalytic
    shortcuts the designer can stomach.
    """
    if horizon_epochs < 1:
        raise ParameterError("horizon must be >= 1 epoch")
    total = budget.cumulative_guesses(horizon_epochs)
    return math.log2(total) + margin_bits
