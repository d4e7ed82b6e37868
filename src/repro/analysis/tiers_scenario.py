"""The tiered-storage replay behind the analysis CLI's ``--tiers`` flag.

The Table-1 runs measure the systems on a flat fleet; this module replays
the full tier life-cycle on a hot/warm/cold topology: a batch of objects
lands hot, cools down the demotion ladder as epochs pass without demand,
and a working set is then reheated by repeated retrieves -- which are
served *from cold media at cold prices* until the migrator promotes the
objects back up.  Epochs are driven through the same
:class:`repro.core.scheduler.EpochScheduler` that paces obsolescence
checks and proactive renewal, so migration demonstrably rides the shared
background pipeline rather than a private clock.

Every number is deterministic in the seed (see ``tests/test_analysis.py``):
tier assignments, migration counts, priced waits, and the rendered report
are all pure functions of the operation sequence.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.archive import SecureArchive
from repro.core.policy import ArchivePolicy, ConfidentialityTarget
from repro.core.scheduler import EpochScheduler
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import IntegrityError
from repro.obs import use_registry
from repro.storage.tiering import (
    TIER_COLD,
    TIER_HOT,
    TIER_WARM,
    MigrationPolicy,
    TierMigrator,
    make_tiered_fleet,
)

#: The default seed; ``--tiers=SEED`` overrides it.
DEFAULT_SEED = 2024

#: Objects stored in the load phase and the subset reheated afterwards.
NUM_OBJECTS = 8
REHEAT_SET = 3

#: Retrieves per reheated object per epoch; with the default decay (0.5)
#: and promote threshold (2.0), five same-epoch reads clear the bar.
REHEAT_READS = 5

_POLICY = ArchivePolicy(
    target=ConfidentialityTarget.LONG_TERM, n=5, t=3, renew_every_epochs=None
)


class _ScenarioArchive(SecureArchive):
    # 2**5 one-time signature keys: plenty for this replay's stores and
    # migration renewals, and keeps the CLI snappy (Merkle keygen is
    # linear in 2**SIGNER_HEIGHT).
    SIGNER_HEIGHT = 5


@dataclass
class TiersScenarioResult:
    """One deterministic run of the tier life-cycle scenario."""

    seed: int
    round_trips_ok: bool
    promotions: int
    demotions: int
    migration_bytes: int
    #: Reads served per tier while reheating (cold > 0 proves the degraded
    #: path was exercised and priced).
    reads_by_tier: dict[str, int]
    #: Simulated wait of the first reheat read -- priced on cold media.
    cold_read_wait_s: float
    #: Final per-tier occupancy from the migrator.
    occupancy: dict[str, dict[str, int]]
    #: The migrator's per-epoch log lines.
    migration_log: list[str]
    #: Metrics registry snapshot scoped to this scenario run.
    snapshot: dict

    @property
    def healthy(self) -> bool:
        return (
            self.round_trips_ok
            and self.promotions >= 1
            and self.demotions >= 1
            and self.reads_by_tier.get(TIER_COLD, 0) >= 1
        )

    def render(self) -> str:
        reads = "  ".join(
            f"{tier}={self.reads_by_tier.get(tier, 0)}"
            for tier in (TIER_HOT, TIER_WARM, TIER_COLD)
        )
        occupancy = "  ".join(
            f"{tier}={stats['objects']}" for tier, stats in self.occupancy.items()
        )
        return "\n".join(
            [
                f"Tiered storage scenario (seed={self.seed}): "
                f"{NUM_OBJECTS} objects cool down the hot/warm/cold ladder, "
                f"{REHEAT_SET} reheat on demand",
                f"  round trips exact: {self.round_trips_ok}",
                f"  migrations: {self.promotions} promoted, "
                f"{self.demotions} demoted, {self.migration_bytes} bytes re-split",
                f"  shares read by tier: {reads}",
                f"  first reheat read waited "
                f"{self.cold_read_wait_s * 1000:.2f} ms on cold media",
                f"  final occupancy (objects): {occupancy}",
                "  migration log:",
                *[f"    {line}" for line in self.migration_log],
            ]
        )


def _tier_read_counts(snapshot: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for name, value in snapshot["counters"].items():
        if name.startswith("tier_reads_total{tier="):
            counts[name.split("=", 1)[1].rstrip("}")] = value
    return counts


def run_tiers_scenario(seed: int = DEFAULT_SEED) -> TiersScenarioResult:
    """Store hot, cool to cold, reheat through cold reads -- seeded.

    Three phases on an n=5/t=3 fleet spread over three tiers:

    1. *Load*: eight objects stored; the decode quorum lands hot, parity
       lands cold.
    2. *Cool-down*: four epochs with zero demand; everything walks the
       demotion ladder (hot -> warm -> cold, one step per tick).
    3. *Reheat*: a three-object working set is read five times per epoch
       for two epochs.  The first reads come off cold media (priced by
       the archive I/O model), the migrator sees the demand and promotes
       the set back toward hot.
    """
    rng = DeterministicRandom((seed, "tiers-payload").__repr__())
    with use_registry() as registry:
        archive = _ScenarioArchive(
            _POLICY, make_tiered_fleet({TIER_HOT: 4, TIER_WARM: 4, TIER_COLD: 6}),
            DeterministicRandom(seed),
        )
        migrator = archive.enable_tiering(
            TierMigrator(policy=MigrationPolicy(demote_idle_epochs=2))
        )
        maintenance = []
        scheduler = EpochScheduler(BreakTimeline())
        scheduler.every(
            1, "archive-epoch", lambda epoch: maintenance.append(archive.advance_epoch())
        )

        payloads = {}
        for k in range(NUM_OBJECTS):
            object_id = f"doc-{k}"
            payloads[object_id] = rng.bytes(512 + rng.randrange(1024))
            archive.store(object_id, payloads[object_id])

        scheduler.advance(4)  # cool-down: no demand, everything demotes

        cold_read_wait_s = 0.0
        for _ in range(2):  # reheat: demand pulls the working set back up
            for k in range(REHEAT_SET):
                for _ in range(REHEAT_READS):
                    data, read = archive.retrieve_with_report(f"doc-{k}")
                    if data != payloads[f"doc-{k}"]:
                        raise IntegrityError(f"wrong bytes for doc-{k}")
                    if cold_read_wait_s == 0.0:
                        cold_read_wait_s = read.simulated_wait_s
            scheduler.advance(1)

        round_trips_ok = all(
            archive.retrieve(object_id) == payload
            for object_id, payload in sorted(payloads.items())
        )
        snapshot = registry.snapshot()
    return TiersScenarioResult(
        seed=seed,
        round_trips_ok=round_trips_ok,
        promotions=sum(m.objects_promoted for m in maintenance),
        demotions=sum(m.objects_demoted for m in maintenance),
        migration_bytes=sum(m.migration_bytes for m in maintenance),
        reads_by_tier=_tier_read_counts(snapshot),
        cold_read_wait_s=cold_read_wait_s,
        occupancy=migrator.occupancy(),
        migration_log=list(migrator.log),
        snapshot=snapshot,
    )
