"""The three workloads and the closed-loop client that drives them.

Every workload does fixed work for a given ``(seed, scale)``: object counts,
not time boxes, so signer rollovers, repairs and migrations happen the same
number of times in every run.  All inputs (payload bytes, the zipfian read
order) are generated here from the seed before anything is timed; the
program under test only ever receives the generated inputs.

One client, closed loop, single thread: ``SecureArchive`` serializes its
public surface on one client lock, so extra clients would only measure lock
hand-off.  Parallelism stays inside the program (kernel and batch pools at
their defaults).
"""

from __future__ import annotations

import gc
import hashlib
import random
import sys
import time
import types
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core.archive import SecureArchive
from repro.core.policy import (
    CENTURY_SAFE,
    CENTURY_SAFE_ECONOMY,
    PRACTICAL_COMPUTATIONAL,
    ArchivePolicy,
)
from repro.crypto.drbg import DeterministicRandom
from repro.service.quota import TenantQuota
from repro.service.server import ArchiveService, Request, ServiceConfig
from repro.storage.faults import FaultPlan, flaky_first_reads, silent_bitrot
from repro.storage.node import StorageNode, make_node_fleet
from repro.storage.tiering import TIER_COLD, TIER_HOT, TIER_WARM, make_tiered_fleet
from repro.storage.workload import ZipfianPopularity

#: Zipf exponent of every read mix (the repo's service-load default).
ZIPF_S = 1.1

#: Reads per store of the workloads driven through ``ArchiveService``: the
#: mix of the repo's own service load model, whose
#: ``ServiceLoadSpec.store_fraction`` makes 3% of requests stores and the
#: rest zipfian reads.
SERVICE_READS_PER_STORE = 97 / 3

#: Simulated gap between service arrivals.  20 requests/s stays under the
#: tenant quota's 32 tokens/s refill and far below the 4 workers' capacity,
#: so every request is admitted and none queues.
ARRIVAL_GAP_S = 0.05
SERVICE_QUOTA = TenantQuota(capacity=64.0, refill_per_s=32.0)

#: Percentiles a tail latency may be reported at, highest first.
TAIL_GRID = (99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0)
TAIL_BEYOND = 10


# -- workload definitions ------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One set of inputs and the client calls that carry them.

    The calls run in rounds.  Each round stores its share of the objects,
    each store followed by its share of the zipfian reads, and then runs its
    share of the maintenance calls, so every metric samples the whole run
    rather than one stretch of it.  Counts are the work done at
    ``scale == 1``; ``scale`` (``run.py`` sets it from ``--seconds``)
    multiplies the stores, epochs and re-encryptions, and the reads follow
    the stores at ``reads_per_store``.
    """

    name: str
    why: str
    policy: ArchivePolicy
    object_bytes: int
    stores: int
    #: Zipfian reads per store; at any scale the read count follows the
    #: store count at this ratio.
    reads_per_store: float
    #: ``advance_epoch`` calls, spread evenly over the rounds.
    epochs: int = 0
    #: Objects re-encrypted (retrieve, delete, store again), oldest first.
    reencrypts: int = 0
    #: Rounds per run (fewer when a run stores fewer objects).
    rounds: int = 4
    #: Store with ``store_large`` and read with ``retrieve_large`` on the
    #: archive itself; otherwise every store and read is an
    #: ``ArchiveService.submit``.
    segmented: bool = False
    #: Hot/warm/cold fleet, ``enable_tiering`` and a seeded ``FaultPlan``.
    tiered: bool = False
    #: Seed domain, so two workloads never share input bytes.
    tag: int = 0

    def counts(self, scale: float) -> dict[str, int]:
        def scaled(n: int) -> int:
            return max(1, round(n * scale)) if n else 0

        stores = scaled(self.stores)
        return {
            "stores": stores,
            "reads": round(stores * self.reads_per_store),
            "epochs": scaled(self.epochs),
            "reencrypts": scaled(self.reencrypts),
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small-objects",
            why=(
                "4 KiB CENTURY_SAFE objects through ArchiveService: per-call "
                "fixed costs (transit ChaCha20, HKDF, metrics, signing, signer "
                "rollover) dominate"
            ),
            policy=CENTURY_SAFE,
            object_bytes=4096,
            # 264 stores cross the 2**8-key Merkle signer budget once, so
            # the rollover stall lands in store_mbps in every run.
            stores=264,
            reads_per_store=SERVICE_READS_PER_STORE,
            epochs=4,
            tag=1,
        ),
        Workload(
            name="bulk-segmented",
            why=(
                "2 MiB PRACTICAL_COMPUTATIONAL objects via store_large: per-byte "
                "work (AES-CTR in AONT, transit, RS, SHA-256, batch pool) dominates"
            ),
            policy=PRACTICAL_COMPUTATIONAL,
            object_bytes=2 << 20,
            # No load model of the repo fits a direct store_large client,
            # and here a read changes nothing a later call sees (flat
            # healthy fleet, no tiering, no renewal), so the counts only
            # set sample sizes: 40 stores, the fewest whose tail has 10
            # samples beyond it, and 3 reads per store because a
            # retrieve_large takes about a third as long as a store_large,
            # which gives both call kinds about the same seconds of calls.
            stores=40,
            reads_per_store=3.0,
            # The policy never renews, so its maintenance is re-encryption
            # (Section 3.2): a rolling pass over the older half.
            reencrypts=20,
            segmented=True,
            tag=2,
        ),
        Workload(
            name="tiered-renewal",
            why=(
                "64 KiB CENTURY_SAFE_ECONOMY objects through ArchiveService on a "
                "hot/warm/cold fleet with seeded faults: renewal, migration, retry "
                "and repair dominate"
            ),
            policy=CENTURY_SAFE_ECONOMY,
            object_bytes=64 << 10,
            stores=80,
            reads_per_store=SERVICE_READS_PER_STORE,
            # One epoch per round: reads between epochs keep a zipfian hot
            # set while idle objects cool and migrate.
            epochs=6,
            rounds=6,
            tiered=True,
            tag=3,
        ),
    )
}


# -- inputs ------------------------------------------------------------------------


def payload(workload: Workload, seed: int, index: int) -> bytes:
    """The bytes of object *index*: a pure function of (workload, seed, index),
    regenerated on demand so the client never holds a second copy of the
    archive's contents."""
    rng = np.random.default_rng([seed, workload.tag, index])
    return rng.bytes(workload.object_bytes)


def object_id(workload: Workload, index: int) -> str:
    return f"{workload.name}-{index:05d}"


def _share(total: int, parts: int, k: int) -> int:
    """Part *k* of *total* split as evenly as whole numbers allow."""
    return (k + 1) * total // parts - k * total // parts


def schedule(workload: Workload, seed: int, scale: float) -> list[tuple]:
    """The client calls of one run, in order.

    Steps are ``("store", index)``, ``("retrieve", index)``, ``("epoch",)``
    or ``("reencrypt", index)``.  Reads follow the repo's
    :class:`ZipfianPopularity` over the objects stored so far (newest most
    popular); the draw uses its own ``random.Random`` so no program code runs
    while inputs are generated.
    """
    counts = workload.counts(scale)
    rng = random.Random(f"e2ebench/{workload.name}/{seed}")
    popularity = ZipfianPopularity(s=ZIPF_S)
    index_of: dict[str, int] = {}
    steps: list[tuple] = []
    rounds = min(workload.rounds, counts["stores"])
    stored = reencrypted = 0
    for r in range(rounds):
        round_stores = _share(counts["stores"], rounds, r)
        round_reads = _share(counts["reads"], rounds, r)
        for k in range(round_stores):
            steps.append(("store", stored))
            oid = object_id(workload, stored)
            index_of[oid] = stored
            popularity.add(oid)
            stored += 1
            for _ in range(_share(round_reads, round_stores, k)):
                steps.append(("retrieve", index_of[popularity.sample(rng)]))
        steps.extend(("epoch",) for _ in range(_share(counts["epochs"], rounds, r)))
        for _ in range(_share(counts["reencrypts"], rounds, r)):
            steps.append(("reencrypt", reencrypted))
            reencrypted += 1
    return steps


# -- the ready archive ---------------------------------------------------------------


@dataclass
class Bundle:
    """A ready archive: what ``setup_s`` times building."""

    archive: SecureArchive
    service: ArchiveService | None
    #: The raw nodes (under any fault wrappers), for the content digest.
    nodes: list[StorageNode]
    plan: FaultPlan | None


def build(workload: Workload, seed: int) -> Bundle:
    """Fleet, archive (including Merkle signer keygen), tiering and service."""
    tag = f"e2ebench/{workload.name}/{seed}"
    plan = None
    if workload.tiered:
        nodes = make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6})
        # Flaky first reads on a hot node (retries) and silent bit-rot on a
        # cold one (repair-on-read): both sit on every read's fetch path.
        plan = FaultPlan(
            [
                flaky_first_reads(f"node-{TIER_HOT}-1"),
                silent_bitrot(f"node-{TIER_COLD}-2"),
            ],
            seed=f"{tag}/faults",
        )
        fleet = plan.wrap_fleet(nodes)
    else:
        nodes = make_node_fleet(8)
        fleet = nodes
    archive = SecureArchive(workload.policy, fleet, DeterministicRandom(f"{tag}/archive"))
    if workload.tiered:
        archive.enable_tiering()
    service = None
    if not workload.segmented:
        service = ArchiveService(
            archive,
            ServiceConfig(default_quota=SERVICE_QUOTA),
            rng=DeterministicRandom(f"{tag}/service"),
        )
    return Bundle(archive, service, nodes, plan)


def timed_build(workload: Workload, seed: int) -> tuple[float, Bundle]:
    gc.collect()
    start = time.perf_counter()
    bundle = build(workload, seed)
    return time.perf_counter() - start, bundle


# -- one pass ------------------------------------------------------------------------


@dataclass
class PassResult:
    """What one pass over a schedule measured."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {"store": [], "retrieve": [], "maintain": []}
    )
    #: User bytes per op kind (acknowledged, verified, or carried).
    user_bytes: dict[str, int] = field(
        default_factory=lambda: {"store": 0, "retrieve": 0, "maintain": 0}
    )
    attempted: int = 0
    failed: int = 0
    #: Failure kind -> count ("mismatch", "audit", exception class names).
    failures: dict[str, int] = field(default_factory=dict)
    #: Node bytes rewritten per maintenance call, and the user bytes carried.
    rewritten: list[int] = field(default_factory=list)
    carried: list[int] = field(default_factory=list)
    #: (renewal_bytes, migration_bytes, promoted + demoted) per epoch.
    epoch_reports: list[tuple[int, int, int]] = field(default_factory=list)
    noop_maintenance: int = 0
    #: A traced pass left other node contents than the untraced one.
    diverged: bool = False
    signer_rollovers: int = 0
    node_digest: str = ""
    overhead_x: float = 0.0
    live_bytes: int = 0

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1

    @property
    def correct(self) -> bool:
        return not (
            self.failures.get("mismatch")
            or self.failures.get("audit")
            or self.noop_maintenance
            or self.diverged
        )


class Client:
    """The closed-loop client: one call at a time, each timed alone."""

    def __init__(self, workload: Workload, seed: int, bundle: Bundle, tracer=None):
        self.workload = workload
        self.seed = seed
        self.bundle = bundle
        self.tracer = tracer
        self.result = PassResult()
        #: Acknowledged object index -> size.
        self.live: dict[int, int] = {}
        self._arrival_s = 0.0

    # -- the program's public API, one call each --------------------------------------

    def _submit(self, request_op: str, index: int, data: bytes | None = None):
        self._arrival_s += ARRIVAL_GAP_S
        return self.bundle.service.submit(
            Request(
                request_op,
                object_id(self.workload, index),
                payload=data,
                arrival_s=self._arrival_s,
            )
        )

    def _store_call(self, index: int, data: bytes) -> None:
        if self.workload.segmented:
            self.bundle.archive.store_large(object_id(self.workload, index), data)
        else:
            self._submit("store", index, data)

    def _retrieve_call(self, index: int) -> bytes:
        if self.workload.segmented:
            return self.bundle.archive.retrieve_large(object_id(self.workload, index))
        return self._submit("retrieve", index).data

    def _delete_segments(self, index: int) -> None:
        oid = object_id(self.workload, index)
        segments = -(-self.live[index] // SecureArchive.SEGMENT_BYTES)
        for k in range(segments):
            self.bundle.archive.delete(f"{oid}/seg-{k}")

    # -- timing and verification ------------------------------------------------------------

    def _op(self, kind: str):
        return self.tracer.op(kind) if self.tracer is not None else nullcontext()

    def _timed(self, kind: str, fn):
        """Run one client call; its exception counts as a failed op."""
        self.result.attempted += 1
        with self._op(kind):
            start = time.perf_counter()
            try:
                value = fn()
            except Exception as exc:  # any failure of the program is a failed op
                self.result.fail(type(exc).__name__)
                return False, None
            elapsed = time.perf_counter() - start
        self.result.latencies[kind].append(elapsed)
        return True, value

    def _verify(self, index: int, data: bytes | None) -> bool:
        if data != payload(self.workload, self.seed, index):
            self.result.fail("mismatch")
            return False
        return True

    def _node_bytes_written(self) -> int:
        return sum(node.stats.bytes_written for node in self.bundle.nodes)

    # -- steps -----------------------------------------------------------------------------

    def store(self, index: int) -> None:
        data = payload(self.workload, self.seed, index)
        ok, _ = self._timed("store", lambda: self._store_call(index, data))
        if ok:
            self.live[index] = len(data)
            self.result.user_bytes["store"] += len(data)

    def retrieve(self, index: int) -> None:
        ok, data = self._timed("retrieve", lambda: self._retrieve_call(index))
        if ok and self._verify(index, data):
            self.result.user_bytes["retrieve"] += len(data)

    def epoch(self) -> None:
        carried = sum(self.live.values())
        before = self._node_bytes_written()
        ok, report = self._timed("maintain", self.bundle.archive.advance_epoch)
        if not ok:
            return
        self._maintained(carried, before)
        moved = report.objects_promoted + report.objects_demoted
        self.result.epoch_reports.append(
            (report.renewal_bytes, report.migration_bytes, moved)
        )
        if report.renewal_bytes + report.migration_bytes == 0:
            self.result.noop_maintenance += 1

    def reencrypt(self, index: int) -> None:
        oid = object_id(self.workload, index)

        def call() -> bytes:
            data = self._retrieve_call(index)
            self._delete_segments(index)
            self.bundle.archive.store_large(oid, data)
            return data

        carried = self.live[index]
        before = self._node_bytes_written()
        ok, data = self._timed("maintain", call)
        if ok and self._verify(index, data):
            self._maintained(carried, before)
            if self._node_bytes_written() == before:
                self.result.noop_maintenance += 1

    def _maintained(self, carried: int, written_before: int) -> None:
        self.result.user_bytes["maintain"] += carried
        self.result.carried.append(carried)
        self.result.rewritten.append(self._node_bytes_written() - written_before)

    def run(self, steps: list[tuple]) -> None:
        gc.collect()
        signers = len(self.bundle.archive.signer_history)
        for step in steps:
            getattr(self, step[0])(*step[1:])
        self.result.signer_rollovers = len(self.bundle.archive.signer_history) - signers

    # -- end of run ----------------------------------------------------------------------

    def audit(self) -> None:
        """Untimed: retrieve every acknowledged object and compare bytes."""
        for index in sorted(self.live):
            self.result.attempted += 1
            try:
                data = self._retrieve_call(index)
            except Exception:  # an acknowledged object that cannot be read
                self.result.fail("audit")
                continue
            if data != payload(self.workload, self.seed, index):
                self.result.fail("audit")

    def finish(self) -> PassResult:
        self.audit()
        self.result.node_digest = node_digest(self.bundle.nodes)
        self.result.overhead_x = self.bundle.archive.storage_overhead()
        self.result.live_bytes = sum(self.live.values())
        return self.result


def warm_up(workload: Workload, seed: int) -> None:
    """Untimed: build a throwaway archive and run every call kind once on
    it, so caches fill and lazy set-up finishes before anything is timed."""
    client = Client(workload, seed + 1_000_003, build(workload, seed))
    steps = [("store", 0), ("store", 1), ("retrieve", 0), ("retrieve", 1)]
    steps += [("reencrypt", 0)] if workload.segmented else [("epoch",)]
    client.run(steps)


def node_digest(nodes: list[StorageNode]) -> str:
    """One SHA-256 over every node's objects, in node and key order."""
    digest = hashlib.sha256()
    for node in nodes:
        for key in node.object_ids():
            data = node.raw_bytes(key)
            digest.update(f"{node.node_id}\0{key}\0{len(data)}\0".encode())
            digest.update(data)
    return digest.hexdigest()


# -- measures ---------------------------------------------------------------------------


_NOT_RETAINED = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
                 types.CodeType, types.MethodType)


def retained_bytes(*roots) -> int:
    """Heap bytes reachable from *roots*: every object counted once by
    ``sys.getsizeof``, not descending into classes, modules or functions."""
    seen: set[int] = set()
    stack = list(roots)
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _NOT_RETAINED):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total


def tail_percentile(samples: int) -> float:
    """Highest percentile on the grid with at least 10 samples beyond it."""
    for pct in TAIL_GRID:
        if samples * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct
    raise ValueError(f"{samples} samples cannot support a tail percentile")


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values), pct))
