"""Exception hierarchy for the repro library.

All library-specific failures derive from :class:`ReproError` so callers can
catch one base class at API boundaries while still distinguishing the precise
failure mode when they need to.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """A caller supplied structurally invalid parameters (e.g. t > n)."""


class DecodingError(ReproError):
    """An erasure/secret decoding failed (too few shares, bad indices...)."""


class IntegrityError(ReproError):
    """A stored object, share, or chain failed an integrity check."""


class VerificationError(IntegrityError):
    """A verifiable-secret-sharing or commitment verification failed."""


class CipherBrokenError(ReproError):
    """An operation required a primitive the break timeline marks as broken."""


class StillSecureError(ReproError):
    """An attack failed because the primitives it targets still hold."""


class KeyManagementError(ReproError):
    """Key material was missing, expired, or inconsistent."""


class StorageError(ReproError):
    """A storage node or placement operation failed."""


class PlacementShortfallError(StorageError):
    """Too few online nodes or independent providers to place every share.

    Raised by :meth:`repro.storage.placement.PlacementPolicy.place` before
    anything is written or deleted, so the caller's object is untouched.
    """


class NodeUnavailableError(StorageError):
    """The targeted storage node is offline or failed."""


class ObjectNotFoundError(StorageError, KeyError):
    """No object with the requested identifier exists on the node."""


class DeadlineExceededError(StorageError):
    """A storage operation's (simulated) latency exceeded its deadline.

    Raised by the fault-injection layer when an injected latency rule pushes
    one operation past the per-op deadline priced from the
    :mod:`repro.storage.archive_model` throughput figures.  Transient by
    definition: the retry policy treats it like an offline node.
    """


class ServiceError(ReproError):
    """The archive service front-end refused or failed a request."""


class OverloadError(ServiceError):
    """Admission control rejected a request because the queue is full.

    The typed signal the paper-scale service uses for load shedding: callers
    are expected to back off and retry rather than pile onto a saturated
    archive.
    """


class QuotaExhaustedError(ServiceError):
    """A tenant's token-bucket quota has no tokens for this request."""


class ChannelError(ReproError):
    """A secure channel could not be established or has been exhausted."""


class AdversaryError(ReproError):
    """An adversary simulation was configured inconsistently."""


class RetentionLockedError(ReproError):
    """Deletion was refused because a retention lock is still active."""
