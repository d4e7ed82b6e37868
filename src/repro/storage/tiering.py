"""Tiered hot/warm/cold storage: the tier registry, access tracking, and
policy-driven migration.

The paper's Section 3.2/4 economics price archives by *medium* -- SSD/disk
for data that must come back in milliseconds, tape/glass/DNA for data that
may take hours -- but an archive only realizes those prices if objects
actually *move* to the medium their access pattern deserves.  This module
supplies the three pieces:

- :class:`TierRegistry` -- the single source of tier names.  Each tier
  binds a name (``hot``/``warm``/``cold`` by default) to a
  :class:`repro.storage.media.MediaSpec` and an
  :class:`repro.storage.archive_model.ArchiveProfile` that prices reads
  and writes on that tier with the same Section 3.2 arithmetic the service
  layer uses.  Everything else in the repo refers to tiers *through* the
  registry (enforced by archlint rule ARCH007): no hard-coded tier strings,
  no reaching into ``MEDIA_CATALOG`` behind the registry's back.
- :class:`AccessTracker` -- exponentially decayed per-object access
  counters.  Demand reaches them through one writer,
  :meth:`repro.systems.base.ArchivalSystem.record_demand`, called by every
  client read and by the service layer for rejected reads the archive never
  saw.  Maintenance reads -- renewal, migration itself -- fetch without it,
  so background traffic never masquerades as user demand.
- :class:`TierMigrator` -- the policy engine.  Bound to an archive
  (:meth:`bind` / ``SecureArchive.enable_tiering``), it assigns every
  object a tier (an object starts hottest once its store commits),
  computes the per-share tier layout placement uses (the decode quorum
  rides the object's tier, parity rides the coldest tier), and on each
  epoch tick plans which objects move:
  one tier hotter when the decayed score clears ``promote_score``, one
  tier colder when idle past ``demote_idle_epochs``.  The migrator moves
  nothing itself.  The archive's maintenance pass rewrites each object at
  most once per epoch: an object due for renewal and planned to move is
  re-split once, straight into its target tier.  Only once the new shares
  have landed does the migrator reassign the object and price the move
  with the archive I/O model (read at the source tier's rate, write at the
  target's).

Determinism contract: no wall clocks, no ambient randomness -- tier
assignments are a pure function of the operation sequence, so identically
seeded runs produce byte-identical assignments (pinned by
``tests/test_tiering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import ParameterError, StorageError
from repro.obs import metrics as _metrics
from repro.storage.archive_model import ArchiveProfile, op_service_time_s
from repro.storage.media import MEDIA_CATALOG, MediaSpec
from repro.storage.node import StorageNode

__all__ = [
    "TIER_COLD",
    "TIER_HOT",
    "TIER_NAMES",
    "TIER_WARM",
    "AccessTracker",
    "MigrationPolicy",
    "TierMigrator",
    "TierRegistry",
    "TierSpec",
    "default_tier_registry",
    "make_tiered_fleet",
]

#: The canonical tier vocabulary.  These constants are the *only* place the
#: names appear as literals (ARCH007); every other module imports them or,
#: better, walks a :class:`TierRegistry`.
TIER_HOT = "hot"
TIER_WARM = "warm"
TIER_COLD = "cold"
TIER_NAMES = (TIER_HOT, TIER_WARM, TIER_COLD)


@dataclass(frozen=True)
class TierSpec:
    """One storage tier: a name bound to a medium and an I/O price model."""

    name: str
    #: The medium backing this tier (density/cost/lifetime per Section 4).
    media: MediaSpec
    #: Archive-model profile pricing reads/writes on this tier.
    profile: ArchiveProfile

    def __post_init__(self) -> None:
        if not self.name:
            raise ParameterError("tier name must be non-empty")

    def read_seconds(self, payload_bytes: int) -> float:
        """Seconds to serve one read of *payload_bytes* from this tier."""
        return op_service_time_s(payload_bytes, op="retrieve", profile=self.profile)

    def write_seconds(self, payload_bytes: int) -> float:
        """Seconds to land one write of *payload_bytes* on this tier."""
        return op_service_time_s(payload_bytes, op="store", profile=self.profile)


def _tier_profile(name: str, media: MediaSpec, drives: int) -> ArchiveProfile:
    """Derive an archive-model profile from a medium's drive throughput."""
    if drives < 1:
        raise ParameterError("a tier needs at least one drive")
    tb_per_day = media.read_mb_per_s * drives * 86_400.0 / 1e6
    return ArchiveProfile(
        name=f"{name} tier ({media.name} x{drives})",
        capacity_tb=1_000.0,  # placement is bytes-unbounded; only rate matters
        read_throughput_tb_per_day=tb_per_day,
        medium=media.name,
        source=f"derived from MediaSpec({media.name}) at {drives} drives",
    )


class TierRegistry:
    """Ordered (hottest first) registry of tiers; the single naming source.

    All tier lookups, comparisons, and neighbor walks go through here so
    that tier names stay a closed vocabulary and every tier carries its
    media binding.  ``rank`` 0 is the hottest tier.
    """

    def __init__(self, tiers: Sequence[TierSpec]):
        if not tiers:
            raise ParameterError("a tier registry needs at least one tier")
        names = [tier.name for tier in tiers]
        if len(set(names)) != len(names):
            raise ParameterError("duplicate tier names")
        self._order: tuple[str, ...] = tuple(names)
        self._tiers: dict[str, TierSpec] = {tier.name: tier for tier in tiers}

    # -- lookups -----------------------------------------------------------------

    @property
    def names(self) -> tuple[str, ...]:
        return self._order

    def __iter__(self) -> Iterator[TierSpec]:
        return iter(self._tiers[name] for name in self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._tiers

    def __len__(self) -> int:
        return len(self._order)

    def get(self, name: str) -> TierSpec:
        try:
            return self._tiers[name]
        except KeyError:
            raise StorageError(
                f"unknown tier {name!r} (registry has {', '.join(self._order)})"
            ) from None

    def rank(self, name: str) -> int:
        """0 for the hottest tier, increasing toward cold."""
        self.get(name)
        return self._order.index(name)

    @property
    def hottest(self) -> TierSpec:
        return self._tiers[self._order[0]]

    @property
    def coldest(self) -> TierSpec:
        return self._tiers[self._order[-1]]

    def colder(self, name: str) -> TierSpec:
        """One step colder (clamped at the coldest tier)."""
        index = min(self.rank(name) + 1, len(self._order) - 1)
        return self._tiers[self._order[index]]

    def warmer(self, name: str) -> TierSpec:
        """One step warmer (clamped at the hottest tier)."""
        index = max(self.rank(name) - 1, 0)
        return self._tiers[self._order[index]]

    def fallback_order(self, name: str) -> tuple[str, ...]:
        """Placement preference when *name* has no capacity: nearest tiers
        first, colder before warmer on ties (cold overflow is cheap; hot
        overflow burns the expensive tier)."""
        want = self.rank(name)
        return tuple(
            sorted(self._order, key=lambda n: (abs(self.rank(n) - want), -self.rank(n)))
        )


def default_tier_registry(drives_per_tier: int = 8) -> TierRegistry:
    """The default three-tier economy: SSD hot, HDD warm, tape cold.

    The media bindings come straight from the Section 4 catalog; each
    tier's I/O profile assumes *drives_per_tier* parallel drives, so the
    hot:cold read-rate ratio mirrors the published per-drive throughputs.
    """
    catalog = dict(MEDIA_CATALOG)
    bindings = {TIER_HOT: "ssd", TIER_WARM: "hdd", TIER_COLD: "tape"}
    return TierRegistry(
        [
            TierSpec(
                name=name,
                media=catalog[media_key],
                profile=_tier_profile(name, catalog[media_key], drives_per_tier),
            )
            for name, media_key in bindings.items()
        ]
    )


def make_tiered_fleet(
    counts: dict[str, int],
    registry: TierRegistry | None = None,
    prefix: str = "node",
) -> list[StorageNode]:
    """Build a fleet with *counts* nodes per tier, all providers distinct.

    ``counts`` maps tier name -> node count; names are validated against
    *registry* (the default registry when omitted).  Every node gets its
    own provider so provider-independent placement is satisfiable within
    each tier, and nodes are ordered hottest tier first.
    """
    registry = registry or default_tier_registry()
    for name in registry.names:
        count = counts.get(name, 0)
        if count < 0:
            raise ParameterError(f"tier {name!r} node count must be >= 0")
    unknown = [name for name in counts if name not in registry]
    if unknown:
        raise StorageError(
            f"unknown tier(s) {', '.join(sorted(unknown))} in fleet counts"
        )
    nodes = [
        StorageNode(node_id=f"{prefix}-{name}-{k}", provider=f"provider-{name}-{k}", tier=name)
        for name in registry.names
        for k in range(counts.get(name, 0))
    ]
    if not nodes:
        raise ParameterError("tiered fleet needs at least one node")
    return nodes


# -- access tracking ---------------------------------------------------------------


@dataclass
class _AccessRecord:
    score: float = 0.0
    score_epoch: int = 0
    last_access_epoch: int | None = None


class AccessTracker:
    """Exponentially decayed per-object access counters on the epoch clock.

    ``record`` adds *weight* to the object's score after decaying it to the
    current epoch (``score <- score * decay^elapsed + weight``), so one
    number captures both frequency and recency.  The tracker carries its
    own epoch cursor (:meth:`advance_to`), advanced by the migrator, so
    feeders (the archive's client reads, the service layer) never need
    epoch plumbing.
    """

    def __init__(self, decay: float = 0.5):
        if not 0 < decay < 1:
            raise ParameterError("decay must be in (0, 1)")
        self.decay = decay
        self.epoch = 0
        self._records: dict[str, _AccessRecord] = {}

    def advance_to(self, epoch: int) -> None:
        if epoch < self.epoch:
            raise ParameterError("the epoch clock cannot run backwards")
        self.epoch = epoch

    def record(self, object_id: str, weight: float = 1.0) -> None:
        """One access of *object_id* at the current epoch."""
        if weight < 0:
            raise ParameterError("access weight must be >= 0")
        record = self._records.setdefault(object_id, _AccessRecord())
        elapsed = self.epoch - record.score_epoch
        record.score = record.score * self.decay**elapsed + weight
        record.score_epoch = self.epoch
        record.last_access_epoch = self.epoch
        _metrics.inc("tier_accesses_recorded_total")

    def score(self, object_id: str) -> float:
        """The decayed score as of the current epoch (0.0 if never seen)."""
        record = self._records.get(object_id)
        if record is None:
            return 0.0
        return record.score * self.decay ** (self.epoch - record.score_epoch)

    def idle_epochs(self, object_id: str) -> int:
        """Epochs since the last recorded access (current epoch counts as
        0); objects never accessed are idle since the epoch origin."""
        record = self._records.get(object_id)
        if record is None or record.last_access_epoch is None:
            return self.epoch
        return self.epoch - record.last_access_epoch

    def forget(self, object_id: str) -> None:
        self._records.pop(object_id, None)


# -- migration ---------------------------------------------------------------------


@dataclass(frozen=True)
class MigrationPolicy:
    """The migration knobs an archive operator turns."""

    #: Decayed score at or above which an object moves one tier hotter.
    promote_score: float = 2.0
    #: Epochs without any access after which an object moves one tier colder.
    demote_idle_epochs: int = 2
    #: Per-epoch decay of access scores.
    decay: float = 0.5
    #: Cap on migrations per tick (None = move everything that qualifies).
    max_migrations_per_tick: int | None = None

    def __post_init__(self) -> None:
        if self.promote_score <= 0:
            raise ParameterError("promote_score must be > 0")
        if self.demote_idle_epochs < 1:
            raise ParameterError("demote_idle_epochs must be >= 1")
        if not 0 < self.decay < 1:
            raise ParameterError("decay must be in (0, 1)")
        if self.max_migrations_per_tick is not None and self.max_migrations_per_tick < 1:
            raise ParameterError("max_migrations_per_tick must be >= 1")


class TierMigrator:
    """Assigns objects to tiers and plans their moves as demand shifts.

    Bind to an archive with :meth:`bind` (or, for the facade,
    ``SecureArchive.enable_tiering``); the archive's placement policy then
    reaches tiering through this migrator alone -- :meth:`layout_for` on
    every store and rewrite, the registry for fetch order and read
    pricing.  The migrator holds no reference to the archive; the archive
    reports to it: :meth:`admit` once a store commits, :meth:`forget` on
    delete, and the tracker on each client read.  Each epoch the archive
    asks :meth:`run_epoch` for a plan (object id -> target tier, one step
    per object), rewrites every due or planned object once in its own
    maintenance pass -- retrieve, re-split into the target tier's layout,
    replace -- and reports each move that landed to :meth:`record_move`.
    A move is therefore also a re-encryption under fresh randomness, and
    an object due for renewal and a move pays for one rewrite, not two.
    """

    def __init__(
        self,
        registry: TierRegistry | None = None,
        policy: MigrationPolicy | None = None,
    ):
        self.registry = registry or default_tier_registry()
        self.policy = policy or MigrationPolicy()
        self.tracker = AccessTracker(decay=self.policy.decay)
        #: object id -> tier name (the authoritative assignment map).
        self.assignments: dict[str, str] = {}
        #: The bound fleet's node id -> node map, which occupancy reads.
        self._nodes: dict[str, StorageNode] = {}
        #: Shares (the decode quorum) riding the object's own tier; set by bind.
        self._data_shares: int | None = None
        #: Moves the last plan left for a later tick (the per-tick cap).
        self._skipped = 0
        self.log: list[str] = []

    # -- wiring ------------------------------------------------------------------

    def bind(self, archive, data_shares: int) -> None:
        """Become *archive*'s placement policy's tiering handle, keeping only
        its fleet's node map.  The first *data_shares* share indices (the
        decode quorum) ride the object's tier; the rest, the parity, ride
        the coldest, which is what lets a hot object's reads stop at fast
        media while its durability margin sits on cheap media."""
        if data_shares < 1:
            raise ParameterError("bind needs data_shares >= 1 (the decode quorum)")
        self._data_shares = data_shares
        self._nodes = archive.placement_policy.nodes
        archive.placement_policy.tiering = self

    # -- placement integration ----------------------------------------------------

    def tier_of(self, object_id: str) -> str:
        """The object's current tier (hottest for objects not yet seen)."""
        return self.assignments.get(object_id, self.registry.hottest.name)

    def layout_for(self, share_indices: Sequence[int], tier: str) -> dict[int, str]:
        """Per-share tier targets: the first ``data_shares`` indices (the
        decode quorum) ride *tier*, the rest ride the coldest tier."""
        if self._data_shares is None:
            raise ParameterError("migrator is not bound (call bind/enable_tiering)")
        ordered = sorted(share_indices)
        quorum = set(ordered[: self._data_shares])
        coldest = self.registry.coldest.name
        return {
            index: (tier if index in quorum else coldest) for index in ordered
        }

    def admit(self, object_id: str) -> None:
        """The archive committed a store of *object_id*: it starts on the
        hottest tier, and its ingest counts as an access (new data is hot
        data)."""
        self.assignments[object_id] = self.registry.hottest.name
        self.tracker.record(object_id)

    def forget(self, object_id: str) -> None:
        """Drop all tiering state for a deleted object."""
        self.assignments.pop(object_id, None)
        self.tracker.forget(object_id)

    # -- the migration tick --------------------------------------------------------

    def run_epoch(self, epoch: int) -> dict[str, str]:
        """Plan one epoch's moves: object id -> target tier.

        Advances the access clock to *epoch*.  Every assigned object is one
        the archive holds: it is admitted once its store commits and
        forgotten on delete.  An object moves at most one tier per tick
        (a demotion ladder, not a cliff): warmer when its decayed score
        clears ``promote_score``, colder when idle past
        ``demote_idle_epochs``.  Objects are planned in sorted id order up
        to the per-tick cap; the rest wait for a later tick.  Nothing moves
        here: the archive rewrites each planned object and calls
        :meth:`record_move` once its new shares have landed.
        """
        if self._data_shares is None:
            raise ParameterError("migrator is not bound (call bind/enable_tiering)")
        self.tracker.advance_to(epoch)
        cap = self.policy.max_migrations_per_tick
        plan: dict[str, str] = {}
        self._skipped = 0
        for object_id, current in sorted(self.assignments.items()):
            rank = self.registry.rank(current)
            if self.tracker.score(object_id) >= self.policy.promote_score and rank > 0:
                target = self.registry.warmer(current)
            elif (
                self.tracker.idle_epochs(object_id) >= self.policy.demote_idle_epochs
                and rank < len(self.registry) - 1
            ):
                target = self.registry.colder(current)
            else:
                continue
            if cap is not None and len(plan) >= cap:
                self._skipped += 1
                continue
            plan[object_id] = target.name
        return plan

    def record_move(self, object_id: str, target: str, moved_bytes: int) -> bool:
        """The archive rewrote *object_id* into *target*'s layout: assign it
        there, count the move and price it (read at the source tier's rate
        plus write at the target's).  True for a promotion."""
        source = self.registry.get(self.assignments[object_id])
        target_spec = self.registry.get(target)
        self.assignments[object_id] = target
        promoted = self.registry.rank(target) < self.registry.rank(source.name)
        direction = "promote" if promoted else "demote"
        cost_s = source.read_seconds(moved_bytes) + target_spec.write_seconds(moved_bytes)
        _metrics.inc("tier_migrations_total", direction=direction)
        _metrics.inc("tier_migration_bytes_total", moved_bytes)
        _metrics.observe("tier_migration_seconds", cost_s)
        return promoted

    def log_epoch(self, epoch: int, promoted: int, demoted: int) -> None:
        """Close an epoch's pass: log its moves and publish occupancy."""
        self.record_occupancy()
        self.log.append(
            f"epoch {epoch}: promoted {promoted}, demoted {demoted}, skipped {self._skipped}"
        )

    # -- observability -------------------------------------------------------------

    def occupancy(self) -> dict[str, dict[str, int]]:
        """Per-tier occupancy: assigned objects and bytes on tier media."""
        objects = {name: 0 for name in self.registry.names}
        for tier in self.assignments.values():
            objects[tier] = objects.get(tier, 0) + 1
        stored = {name: 0 for name in self.registry.names}
        for node in self._nodes.values():
            tier = getattr(node, "tier", None) or self.registry.hottest.name
            if tier in stored:
                stored[tier] += node.bytes_stored
        return {
            name: {"objects": objects[name], "bytes_stored": stored[name]}
            for name in self.registry.names
        }

    def record_occupancy(self) -> None:
        """Publish per-tier occupancy gauges through ``repro.obs``."""
        for name, stats in self.occupancy().items():
            _metrics.set_gauge("tier_objects", stats["objects"], tier=name)
            _metrics.set_gauge("tier_bytes_stored", stats["bytes_stored"], tier=name)
