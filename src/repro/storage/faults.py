"""Deterministic fault injection, retry/backoff, and degraded-read reports.

The paper's archives must survive decades of partial failure -- transient
provider outages, slow media, flaky first reads after power-up, and silent
bit-rot.  This module makes those failures *injectable and reproducible*:

- :class:`FaultRule` / :class:`FaultPlan` -- a seeded schedule of per-node /
  per-operation faults.  A plan wraps a fleet of
  :class:`repro.storage.node.StorageNode` instances in :class:`FaultyNode`
  proxies, so every caller (placement, systems, the facade) hits faults
  without being modified.
- :class:`RetryPolicy` -- bounded attempts with exponential backoff and
  rng-seeded jitter, plus a per-operation deadline priced via
  :func:`repro.storage.archive_model.op_deadline_s`.  All waits are
  *simulated* (recorded, never slept), so chaos suites stay fast and two
  runs of the same seed are byte-identical.
- :class:`DegradedReadReport` -- what one degraded fetch saw: shares
  tried/failed/repaired, retries, and total simulated wait.

Determinism contract: every random decision (rule probability gates, bit
flips, backoff jitter) is drawn from an explicitly injected
:class:`~repro.crypto.drbg.DeterministicRandom`; no wall clocks, no global
entropy.  Same seed, same plan, same report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.drbg import DeterministicRandom
from repro.errors import (
    DeadlineExceededError,
    NodeUnavailableError,
    ParameterError,
)
from repro.obs import metrics as _metrics
from repro.storage.archive_model import op_deadline_s
from repro.storage.node import StorageNode

__all__ = [
    "FAULT_KINDS",
    "RETRYABLE_ERRORS",
    "DegradedReadReport",
    "FaultPlan",
    "FaultRule",
    "FaultyNode",
    "RetryPolicy",
    "default_retry_policy",
    "flaky_first_reads",
    "injected_latency",
    "silent_bitrot",
    "transient_outage",
]

#: The fault kinds a plan can inject.
FAULT_KINDS = ("outage", "flaky", "latency", "bitrot")

#: Errors the retry policy treats as transient.  Everything else -- missing
#: objects, integrity failures, programming errors -- propagates on the
#: first raise (pinned by the exception-narrowing regression tests).
RETRYABLE_ERRORS = (NodeUnavailableError, DeadlineExceededError)


# -- fault rules -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault behavior, scoped by node / op / object.

    Windows are expressed in *op ordinals*: the 0-based count of operations
    of that kind the plan has seen on that node.  Retries advance the
    ordinal, which is how an ``outage`` window models a transient failure
    the retry layer can wait out.
    """

    kind: str
    #: Node this rule applies to (``None`` = every node).
    node_id: str | None = None
    #: Operation kind: ``"get"``, ``"put"``, or ``"any"``.
    op: str = "get"
    #: Substring filter on the object id (``None`` = every object).
    object_substr: str | None = None
    #: Outage window start (inclusive), in per-node op ordinals.
    first_op: int = 0
    #: Outage window end (inclusive); ``None`` = never ends.
    last_op: int | None = None
    #: For ``flaky``: how many initial reads of each object fail.
    fail_reads: int = 1
    #: For ``latency``: simulated seconds added to the operation.
    latency_s: float = 0.0
    #: Seeded-rng gate: the rule fires with this probability.
    probability: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(f"unknown fault kind {self.kind!r}")
        if self.op not in ("get", "put", "any"):
            raise ParameterError(f"unknown op {self.op!r}")
        if not 0 < self.probability <= 1:
            raise ParameterError("probability must be in (0, 1]")
        if self.kind == "latency" and self.latency_s <= 0:
            raise ParameterError("latency rules need latency_s > 0")
        if self.kind == "flaky" and self.fail_reads < 1:
            raise ParameterError("flaky rules need fail_reads >= 1")
        if self.first_op < 0 or (self.last_op is not None and self.last_op < self.first_op):
            raise ParameterError("need 0 <= first_op <= last_op")

    def matches(self, node_id: str, op: str, object_id: str) -> bool:
        if self.node_id is not None and self.node_id != node_id:
            return False
        if self.op != "any" and self.op != op:
            return False
        if self.object_substr is not None and self.object_substr not in object_id:
            return False
        return True


def transient_outage(
    node_id: str | None, first_op: int = 0, attempts: int = 1, op: str = "get"
) -> FaultRule:
    """An outage window covering *attempts* consecutive ops from *first_op*."""
    if attempts < 1:
        raise ParameterError("attempts must be >= 1")
    return FaultRule(
        kind="outage",
        node_id=node_id,
        op=op,
        first_op=first_op,
        last_op=first_op + attempts - 1,
    )


def flaky_first_reads(node_id: str | None, fail_reads: int = 1) -> FaultRule:
    """The first *fail_reads* reads of every object on the node fail."""
    return FaultRule(kind="flaky", node_id=node_id, fail_reads=fail_reads)


def silent_bitrot(node_id: str | None, object_substr: str | None = None) -> FaultRule:
    """Rot the stored bytes (digest untouched) the first time they are read."""
    return FaultRule(kind="bitrot", node_id=node_id, object_substr=object_substr)


def injected_latency(
    node_id: str | None, latency_s: float, probability: float = 1.0
) -> FaultRule:
    """Add *latency_s* of simulated wait to matching operations."""
    return FaultRule(
        kind="latency", node_id=node_id, latency_s=latency_s, probability=probability
    )


# -- the plan and the node proxy ---------------------------------------------------


class FaultPlan:
    """A seeded, deterministic schedule of faults over a node fleet.

    Wrap nodes with :meth:`wrap_fleet` *before* handing them to a system;
    afterwards every ``get``/``put`` consults the plan first.  All plan
    state (op ordinals, per-object read counts, the rng) lives here, so the
    same seed and rule list replays the same faults.
    """

    def __init__(
        self,
        rules: list[FaultRule] | tuple[FaultRule, ...] = (),
        seed: bytes | int | str = 0,
        deadline_s: float | None = None,
    ):
        self.rules: list[FaultRule] = list(rules)
        self.rng = DeterministicRandom(seed)
        #: Deadline injected latency is judged against (priced for a 1 MiB
        #: op on the Pergamum disk profile by default).
        self.deadline_s = deadline_s if deadline_s is not None else op_deadline_s(1 << 20)
        self._op_ordinal: dict[tuple[str, str], int] = {}
        self._read_attempts: dict[tuple[str, str], int] = {}
        self._rotted: set[tuple[int, str, str]] = set()
        self._pending_wait_s = 0.0

    def add_rule(self, rule: FaultRule) -> None:
        self.rules.append(rule)

    def wrap(self, node: StorageNode) -> "FaultyNode":
        return FaultyNode(node, self)

    def wrap_fleet(self, nodes: list[StorageNode]) -> list["FaultyNode"]:
        return [self.wrap(node) for node in nodes]

    def drain_wait_s(self) -> float:
        """Injected latency accumulated since the last drain (the fetch
        layer folds this into the degraded-read report)."""
        wait, self._pending_wait_s = self._pending_wait_s, 0.0
        return wait

    # -- the injection point ------------------------------------------------------

    def before_op(self, node: StorageNode, op: str, object_id: str) -> None:
        """Consult the plan before *node* executes *op* on *object_id*.

        May raise a transient error (outage, flaky, deadline-busting
        latency) or rot the stored bytes so the node's own digest gate
        raises on the delegated read.
        """
        ordinal = self._op_ordinal.get((node.node_id, op), 0)
        self._op_ordinal[(node.node_id, op)] = ordinal + 1
        attempt = 0
        if op == "get":
            # Only flaky rules read the attempt count, so only the pairs one
            # matches are counted (from the first read after such a rule
            # exists).
            for rule in self.rules:
                if rule.kind == "flaky" and rule.matches(node.node_id, op, object_id):
                    attempt = self._read_attempts.get((node.node_id, object_id), 0) + 1
                    self._read_attempts[(node.node_id, object_id)] = attempt
                    break
        for rule_index, rule in enumerate(self.rules):
            if not rule.matches(node.node_id, op, object_id):
                continue
            if rule.probability < 1.0 and self.rng.random() >= rule.probability:
                continue
            if rule.kind == "outage":
                in_window = rule.first_op <= ordinal and (
                    rule.last_op is None or ordinal <= rule.last_op
                )
                if in_window:
                    _metrics.inc("faults_injected_total", kind="outage")
                    raise NodeUnavailableError(
                        f"injected outage: node {node.node_id} unavailable "
                        f"({op} {object_id}, op #{ordinal})"
                    )
            elif rule.kind == "flaky":
                if op == "get" and attempt <= rule.fail_reads:
                    _metrics.inc("faults_injected_total", kind="flaky")
                    raise NodeUnavailableError(
                        f"injected flaky read #{attempt} of {object_id} "
                        f"on node {node.node_id}"
                    )
            elif rule.kind == "latency":
                self._pending_wait_s += rule.latency_s
                _metrics.inc("faults_injected_total", kind="latency")
                if rule.latency_s > self.deadline_s:
                    raise DeadlineExceededError(
                        f"injected latency {rule.latency_s:.3f}s exceeds "
                        f"deadline {self.deadline_s:.3f}s "
                        f"({op} {object_id} on node {node.node_id})"
                    )
            elif rule.kind == "bitrot":
                key = (rule_index, node.node_id, object_id)
                if op == "get" and key not in self._rotted and node.contains(object_id):
                    self._rotted.add(key)
                    clean = node.raw_bytes(object_id)
                    node.corrupt_object(object_id, self._rot(clean))
                    _metrics.inc("faults_injected_total", kind="bitrot")

    def _rot(self, data: bytes) -> bytes:
        """Flip one seeded bit -- the minimal silent corruption."""
        if not data:
            return b"\x01"
        position = self.rng.randrange(len(data))
        bit = 1 << self.rng.randrange(8)
        rotted = bytearray(data)
        rotted[position] ^= bit
        return bytes(rotted)


class FaultyNode:
    """A :class:`StorageNode` proxy that consults a :class:`FaultPlan`.

    Only ``get`` and ``put`` are interposed; everything else (stats,
    adversary hooks, audits via ``raw_bytes``) delegates untouched, so the
    wrapper is invisible to callers that never trip a rule.
    """

    def __init__(self, inner: StorageNode, plan: FaultPlan):
        self._inner = inner
        self.fault_plan = plan

    def get(self, object_id: str) -> bytes:
        self.fault_plan.before_op(self._inner, "get", object_id)
        return self._inner.get(object_id)

    def put(self, object_id: str, data: bytes) -> None:
        self.fault_plan.before_op(self._inner, "put", object_id)
        self._inner.put(object_id, data)

    @property
    def online(self) -> bool:
        return self._inner.online

    def set_online(self, online: bool) -> None:
        self._inner.set_online(online)

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def __repr__(self) -> str:
        return f"FaultyNode({self._inner!r}, rules={len(self.fault_plan.rules)})"


# -- retry policy ------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded attempts with exponential backoff and seeded jitter.

    All delays are *simulated*: they are handed to the ``on_retry`` callback
    (which records them in the metrics registry and the degraded-read
    report) but never slept.  ``deadline_s`` caps the total simulated
    backoff one logical operation may accumulate; once the next delay would
    exceed it, the last transient error propagates.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    #: Jitter fraction: each delay is scaled by ``1 + jitter * rng.random()``.
    jitter: float = 0.1
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.multiplier < 1 or self.jitter < 0:
            raise ParameterError(
                "need base_delay_s >= 0, multiplier >= 1, jitter >= 0"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ParameterError("deadline_s must be > 0")

    def backoff_delay(self, attempt: int, rng: DeterministicRandom) -> float:
        """Simulated delay before retry *attempt* (1-based), with jitter
        drawn from the injected rng so runs replay exactly."""
        if attempt < 1:
            raise ParameterError("attempt is 1-based")
        delay = self.base_delay_s * self.multiplier ** (attempt - 1)
        if self.jitter:
            delay *= 1.0 + self.jitter * rng.random()
        return delay

    def call(self, fn, rng: DeterministicRandom, on_retry=None):
        """Run *fn*, retrying only :data:`RETRYABLE_ERRORS`.

        Any other exception type -- missing object, integrity failure, a
        programming error -- propagates on the first raise.  On each retry,
        ``on_retry(attempt, delay_s, exc)`` is invoked with the attempt
        number just failed, the simulated backoff delay, and the transient
        exception that triggered the retry (so degraded-read reports can
        name the error being waited out).
        """
        waited = 0.0
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except RETRYABLE_ERRORS as exc:
                if attempt == self.max_attempts:
                    raise
                delay = self.backoff_delay(attempt, rng)
                if self.deadline_s is not None and waited + delay > self.deadline_s:
                    raise
                waited += delay
                if on_retry is not None:
                    on_retry(attempt, delay, exc)
        # The loop always returns or re-raises; this guard is unreachable and
        # not a failure mode callers can catch, so it stays a builtin.
        raise AssertionError("unreachable")  # pragma: no cover  # noqa: ARCH011


def default_retry_policy() -> RetryPolicy:
    """The fleet default: 3 attempts, 10 ms base backoff, and a total
    backoff deadline priced for a 1 MiB object on the Pergamum profile."""
    return RetryPolicy(deadline_s=op_deadline_s(1 << 20))


# -- degraded-read reporting -------------------------------------------------------


@dataclass
class DegradedReadReport:
    """What one degraded fetch saw, share by share.

    Deterministic by construction (no timestamps, dict keys sorted in
    :meth:`as_dict`), so two runs of the same seeded scenario compare
    byte-identical.
    """

    object_id: str
    shares_total: int
    shares_tried: int = 0
    shares_ok: int = 0
    #: share index -> loss reason ("offline" | "missing" | "corrupted" | "timeout")
    shares_failed: dict[int, str] = field(default_factory=dict)
    shares_repaired: int = 0
    retries: int = 0
    #: Transient error class name -> count of retries it caused
    #: (e.g. ``{"NodeUnavailableError": 2}``); names, not instances, so the
    #: report stays deterministic and JSON-able.
    retry_errors: dict[str, int] = field(default_factory=dict)
    simulated_wait_s: float = 0.0
    #: True when the fetch stopped at the decode quorum before trying
    #: every placed share.
    stopped_early: bool = False

    @property
    def degraded(self) -> bool:
        return bool(self.shares_failed)

    @property
    def repair_candidates(self) -> list[int]:
        """Share indices whose node is online but failed the integrity
        check or no longer holds the share: the shares repair-on-read
        rewrites, in place, once the object decodes."""
        return sorted(
            i for i, r in self.shares_failed.items() if r in ("corrupted", "missing")
        )

    def as_dict(self) -> dict:
        return {
            "object_id": self.object_id,
            "shares_total": self.shares_total,
            "shares_tried": self.shares_tried,
            "shares_ok": self.shares_ok,
            "shares_failed": {str(i): self.shares_failed[i] for i in sorted(self.shares_failed)},
            "shares_repaired": self.shares_repaired,
            "retries": self.retries,
            "retry_errors": {k: self.retry_errors[k] for k in sorted(self.retry_errors)},
            "simulated_wait_s": self.simulated_wait_s,
            "stopped_early": self.stopped_early,
        }
