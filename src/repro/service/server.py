"""The archive service front-end: queueing, admission control, quotas.

The paper sizes real archives (HPSS, MARS, EOS, Pergamum -- Section 3.2) by
sustained traffic, not by library micro-benchmarks; this module is the
*service surface* that turns :class:`repro.core.archive.SecureArchive` into
something that traffic can be offered to.  One :class:`ArchiveService`
models a thread-pooled archive server as a deterministic discrete-event
queue:

- a bounded FIFO request queue feeding *workers* parallel servers;
- admission control: a request arriving to a full queue is rejected with a
  typed :class:`repro.errors.OverloadError` (load shedding, not silent
  latency collapse);
- per-tenant token-bucket quotas (:mod:`repro.service.quota`): a tenant
  over its sustained rate gets :class:`repro.errors.QuotaExhaustedError`
  while other tenants are untouched;
- backpressure signaling: every accepted request carries the service's
  current :class:`Backpressure` level so well-behaved clients can slow
  down *before* admission control starts dropping.

Determinism contract: request *data* really flows through the wrapped
archive (stores disperse shares, retrieves decode and verify), but all
*timing* is simulated -- arrivals come from the workload generator,
service times are priced with
:func:`repro.storage.archive_model.op_service_time_s` plus seeded jitter
from an injected DRBG, and waits fall out of the queue arithmetic on a
:class:`repro.service.clock.SimulatedClock`.  Same seed, same request
stream, byte-identical latency histograms and report.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

from repro.crypto.drbg import DeterministicRandom
from repro.errors import OverloadError, ParameterError, QuotaExhaustedError
from repro.obs import metrics as _metrics
from repro.service.clock import SimulatedClock
from repro.security import redact_secret
from repro.service.quota import TenantQuota, TokenBucket
from repro.storage.archive_model import ArchiveProfile, op_service_time_s

__all__ = [
    "ArchiveService",
    "Backpressure",
    "Request",
    "RequestOutcome",
    "ServiceConfig",
    "SERVICE_LATENCY_BUCKETS",
]

#: Finer-than-default buckets for request latencies: 100 us .. ~100 s in
#: x1.2 steps, so p999 estimates resolve to ~10% while staying a pure
#: function of the bucket counts (deterministic across runs).
SERVICE_LATENCY_BUCKETS = tuple(1e-4 * 1.2**i for i in range(76))


class Backpressure(enum.Enum):
    """What the service tells clients about its queue, in band.

    ``OK``       -- queue below the soft threshold; send freely.
    ``THROTTLE`` -- queue above the soft threshold; slow down now or
                    admission control will start rejecting.
    ``SHED``     -- queue full; the next arrival gets an OverloadError.
    """

    OK = "ok"
    THROTTLE = "throttle"
    SHED = "shed"


@dataclass(frozen=True)
class Request:
    """One store/retrieve offered to the service."""

    op: str  # "store" | "retrieve"
    object_id: str
    tenant: str = "tenant-00"
    payload: bytes | None = None  # store only
    #: Simulated arrival time; arrivals must be non-decreasing.
    arrival_s: float = 0.0

    def __post_init__(self) -> None:
        if self.op not in ("store", "retrieve"):
            raise ParameterError(f"unknown service op {self.op!r}")
        if self.op == "store" and self.payload is None:
            raise ParameterError("store requests need a payload")

    def __repr__(self) -> str:
        return (
            f"Request(op={self.op!r}, object_id={self.object_id!r}, "
            f"tenant={self.tenant!r}, payload={redact_secret(self.payload)}, "
            f"arrival_s={self.arrival_s})"
        )


@dataclass(frozen=True)
class RequestOutcome:
    """What the service did with one request."""

    op: str
    object_id: str
    tenant: str
    #: "ok" | "rejected_overload" | "rejected_quota"
    outcome: str
    #: Arrival-to-completion simulated latency (0 for rejected requests).
    latency_s: float = 0.0
    #: Time spent waiting for a worker (part of latency_s).
    queue_wait_s: float = 0.0
    #: Backpressure level observed as the request left admission.
    backpressure: Backpressure = Backpressure.OK
    #: Decoded plaintext for accepted retrieves.
    data: bytes | None = field(default=None, repr=False)

    @property
    def accepted(self) -> bool:
        return self.outcome == "ok"


@dataclass(frozen=True)
class ServiceConfig:
    """Sizing of one archive service instance."""

    #: Parallel servers draining the queue (the simulated thread pool).
    workers: int = 4
    #: Bounded queue: admitted-but-not-yet-started requests.
    queue_capacity: int = 256
    #: Queue fraction at which backpressure flips to THROTTLE.
    throttle_at: float = 0.75
    #: Data-path pricing profile (None = Pergamum, the paper's disk point).
    profile: ArchiveProfile | None = None
    #: Fixed per-request overhead (handling, metadata, media latency).
    overhead_s: float = 1e-3
    #: Service-time jitter fraction, drawn from the injected DRBG.
    jitter: float = 0.1
    #: Default per-tenant quota (None disables quota enforcement).
    default_quota: TenantQuota | None = field(default_factory=TenantQuota)
    #: Per-tenant overrides of the default quota.
    tenant_quotas: dict[str, TenantQuota] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.workers < 1 or self.queue_capacity < 1:
            raise ParameterError("need workers >= 1 and queue_capacity >= 1")
        if not 0 < self.throttle_at <= 1:
            raise ParameterError("throttle_at must be in (0, 1]")
        if self.overhead_s < 0 or self.jitter < 0:
            raise ParameterError("need overhead_s >= 0 and jitter >= 0")


class ArchiveService:
    """A bounded-queue, quota-enforcing front-end over an archival system.

    *archive* is any :class:`repro.systems.base.ArchivalSystem` (normally a
    :class:`repro.core.archive.SecureArchive`); *rng* drives service-time
    jitter and must be a dedicated DRBG so the archive's own randomness
    stays aligned with non-service runs.
    """

    def __init__(
        self,
        archive,
        config: ServiceConfig | None = None,
        rng: DeterministicRandom | None = None,
        clock: SimulatedClock | None = None,
    ):
        self.archive = archive
        self.config = config or ServiceConfig()
        self.rng = rng or DeterministicRandom(b"archive-service")
        self.clock = clock or SimulatedClock()
        #: Simulated time each worker becomes free.
        self._worker_free_s = [self.clock.now_s] * self.config.workers
        #: Start times of admitted requests that have not started yet.
        self._queued_starts: deque[float] = deque()
        self._buckets: dict[str, TokenBucket] = {}
        # Aggregates for report(): all in simulated time, all deterministic.
        self._completed = {"store": 0, "retrieve": 0}
        self._rejected = {"overload": 0, "quota": 0}
        self._tenant_stats: dict[str, dict[str, int]] = {}
        self._first_arrival_s: float | None = None
        self._last_completion_s = 0.0
        self._max_queue_depth = 0
        self._busy_s = 0.0

    # -- request path ------------------------------------------------------------

    def submit(self, request: Request) -> RequestOutcome:
        """Admit, queue, execute, and account one request.

        Raises :class:`OverloadError` when the queue is full and
        :class:`QuotaExhaustedError` when the tenant's bucket is empty; both
        are also counted so :meth:`report` sees rejected traffic.
        """
        op = request.op
        now = self.clock.advance_to(request.arrival_s)
        if self._first_arrival_s is None:
            self._first_arrival_s = now
        self._drain_started(now)
        stats = self._tenant_stats.setdefault(
            request.tenant, {"admitted": 0, "rejected_quota": 0}
        )

        if not self._bucket(request.tenant).try_take(now):
            self._rejected["quota"] += 1
            stats["rejected_quota"] += 1
            _metrics.inc("service_requests_total", op=op, outcome="rejected_quota")
            self._note_rejected_demand(request)
            raise QuotaExhaustedError(
                f"tenant {request.tenant!r} is out of quota tokens "
                f"({request.op} {request.object_id})"
            )
        if len(self._queued_starts) >= self.config.queue_capacity:
            self._rejected["overload"] += 1
            _metrics.inc("service_requests_total", op=op, outcome="rejected_overload")
            self._note_rejected_demand(request)
            raise OverloadError(
                f"request queue full ({self.config.queue_capacity} waiting); "
                f"rejected {request.op} {request.object_id}"
            )

        # Dispatch: FIFO onto the earliest-free worker.
        worker = min(range(len(self._worker_free_s)), key=self._worker_free_s.__getitem__)
        start_s = max(now, self._worker_free_s[worker])
        payload_bytes = len(request.payload) if request.payload is not None else 0
        data = self._execute(request)
        if request.op == "retrieve" and data is not None:
            payload_bytes = len(data)
        service_s = self._service_time(request.op, payload_bytes)
        self._worker_free_s[worker] = start_s + service_s
        if start_s > now:
            self._queued_starts.append(start_s)
            self._max_queue_depth = max(self._max_queue_depth, len(self._queued_starts))

        latency_s = (start_s - now) + service_s
        self._completed[request.op] += 1
        stats["admitted"] += 1
        self._busy_s += service_s
        self._last_completion_s = max(self._last_completion_s, start_s + service_s)
        registry = _metrics.get_registry()
        _metrics.inc("service_requests_total", op=op, outcome="ok")
        registry.histogram(
            "service_request_seconds", bounds=SERVICE_LATENCY_BUCKETS, op=op
        ).observe(latency_s)
        registry.histogram(
            "service_queue_wait_seconds", bounds=SERVICE_LATENCY_BUCKETS, op=op
        ).observe(start_s - now)
        _metrics.set_gauge("service_queue_depth", len(self._queued_starts))
        return RequestOutcome(
            op=request.op,
            object_id=request.object_id,
            tenant=request.tenant,
            outcome="ok",
            latency_s=latency_s,
            queue_wait_s=start_s - now,
            backpressure=self.backpressure(),
            data=data,
        )

    def offer(self, request: Request) -> RequestOutcome:
        """:meth:`submit`, but rejections come back as outcomes instead of
        raising -- the shape load generators want."""
        try:
            return self.submit(request)
        except OverloadError:
            return self._rejected_outcome(request, "rejected_overload")
        except QuotaExhaustedError:
            return self._rejected_outcome(request, "rejected_quota")

    def backpressure(self) -> Backpressure:
        """The signal clients should pace themselves by."""
        depth = len(self._queued_starts)
        if depth >= self.config.queue_capacity:
            return Backpressure.SHED
        if depth >= self.config.throttle_at * self.config.queue_capacity:
            return Backpressure.THROTTLE
        return Backpressure.OK

    @property
    def queue_depth(self) -> int:
        return len(self._queued_starts)

    # -- internals ---------------------------------------------------------------

    def _rejected_outcome(self, request: Request, outcome: str) -> RequestOutcome:
        return RequestOutcome(
            op=request.op,
            object_id=request.object_id,
            tenant=request.tenant,
            outcome=outcome,
            backpressure=self.backpressure(),
        )

    def _note_rejected_demand(self, request: Request) -> None:
        """Rejected retrieves are still demand the tier migrator should see.

        Admitted requests are recorded by the placement layer on the real
        fetch, so only rejections are recorded here -- no double counting.
        A shed read is a strong promotion signal: the object was wanted
        while the archive had no capacity to serve it.
        """
        if request.op != "retrieve":
            return
        tiering = self.archive.placement_policy.tiering
        if tiering is not None:
            tiering.tracker.record(request.object_id)

    def _drain_started(self, now_s: float) -> None:
        """Drop queued entries whose service has started by *now_s*."""
        queued = self._queued_starts
        while queued and queued[0] <= now_s:
            queued.popleft()

    def _bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.config.tenant_quotas.get(tenant, self.config.default_quota)
            if quota is None:
                quota = TenantQuota(capacity=float("inf"), refill_per_s=0.0)
            bucket = self._buckets[tenant] = TokenBucket(quota, now_s=self.clock.now_s)
        return bucket

    def _service_time(self, op: str, payload_bytes: int) -> float:
        base = op_service_time_s(
            payload_bytes,
            op=op,
            profile=self.config.profile,
            overhead_s=self.config.overhead_s,
        )
        if self.config.jitter:
            base *= 1.0 + self.config.jitter * self.rng.random()
        return base

    def _execute(self, request: Request) -> bytes | None:
        """Run the real data path.  Archive errors propagate: a missing
        object or decode failure is a caller/system bug, not load."""
        if request.op == "store":
            self.archive.store(request.object_id, request.payload)
            return None
        return self.archive.retrieve(request.object_id)

    # -- reporting ---------------------------------------------------------------

    def report(self) -> dict:
        """Deterministic end-of-run summary (the BENCH_service payload).

        Latency percentiles are read back from the ``repro.obs`` histograms
        the request path records into, so the reported p50/p99/p999 are
        exactly what the observability layer measured.
        """
        registry = _metrics.get_registry()
        latency = {}
        for op in ("store", "retrieve"):
            if not self._completed[op]:
                continue
            histogram = registry.histogram(
                "service_request_seconds", bounds=SERVICE_LATENCY_BUCKETS, op=op
            )
            latency[op] = {
                "count": histogram.count,
                "mean_s": histogram.mean,
                "p50_s": histogram.quantile(0.50),
                "p99_s": histogram.quantile(0.99),
                "p999_s": histogram.quantile(0.999),
                "max_s": histogram.max,
            }
        completed = sum(self._completed.values())
        makespan_s = 0.0
        if self._first_arrival_s is not None:
            makespan_s = self._last_completion_s - self._first_arrival_s
        return {
            "config": {
                "workers": self.config.workers,
                "queue_capacity": self.config.queue_capacity,
                "throttle_at": self.config.throttle_at,
                "overhead_s": self.config.overhead_s,
                "jitter": self.config.jitter,
                "profile": (self.config.profile.name if self.config.profile else "Pergamum (hypothetical)"),
            },
            "requests_total": completed + sum(self._rejected.values()),
            "completed": dict(sorted(self._completed.items())),
            "rejected": dict(sorted(self._rejected.items())),
            "latency": {op: latency[op] for op in sorted(latency)},
            "simulated_makespan_s": makespan_s,
            "throughput_rps": (completed / makespan_s) if makespan_s > 0 else 0.0,
            "worker_utilization": (
                self._busy_s / (makespan_s * self.config.workers)
                if makespan_s > 0
                else 0.0
            ),
            "max_queue_depth": self._max_queue_depth,
            "tenants": {
                tenant: dict(sorted(stats.items()))
                for tenant, stats in sorted(self._tenant_stats.items())
            },
        }
