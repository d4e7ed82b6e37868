"""Storage substrate: nodes, media models, placement, and the I/O models.

- ``node`` -- in-memory storage nodes with fault injection (the
  "geographically dispersed storage nodes" the paper assumes throughout).
- ``media`` -- parametric models of archival media (tape, HDD, glass, DNA,
  film...) for the Section 4 media trade-off analysis.
- ``placement`` -- dispersal of shares across administratively independent
  providers (the POTSHARDS deployment assumption).
- ``archive_model`` -- the analytic re-encryption feasibility model behind
  the paper's Section 3.2 numbers (Oak Ridge, ECMWF, CERN, Pergamum).
- ``simulator`` -- a discrete-event cross-check of the analytic model with
  ingest/read contention.
- ``failures`` -- failure schedules and availability accounting.
- ``faults`` -- deterministic fault injection (seeded FaultPlans over
  wrapped nodes), retry/backoff policies, and degraded-read reports.
- ``tiering`` -- hot/warm/cold tier registry bound to the media catalog,
  decayed access tracking, and the policy-driven tier migrator.
"""

from repro.storage.node import StorageNode, StoredObject
from repro.storage.media import MediaSpec, MEDIA_CATALOG
from repro.storage.placement import PlacementPolicy, Placement
from repro.storage.archive_model import (
    ArchiveProfile,
    PAPER_ARCHIVES,
    op_deadline_s,
    reencryption_estimate,
)
from repro.storage.faults import (
    DegradedReadReport,
    FaultPlan,
    FaultRule,
    FaultyNode,
    RetryPolicy,
    default_retry_policy,
)
from repro.storage.tiering import (
    AccessTracker,
    MigrationPolicy,
    TierMigrator,
    TierRegistry,
    TierSpec,
    default_tier_registry,
    make_tiered_fleet,
)

__all__ = [
    "StorageNode",
    "StoredObject",
    "MediaSpec",
    "MEDIA_CATALOG",
    "PlacementPolicy",
    "Placement",
    "ArchiveProfile",
    "PAPER_ARCHIVES",
    "op_deadline_s",
    "reencryption_estimate",
    "DegradedReadReport",
    "FaultPlan",
    "FaultRule",
    "FaultyNode",
    "RetryPolicy",
    "default_retry_policy",
    "AccessTracker",
    "MigrationPolicy",
    "TierMigrator",
    "TierRegistry",
    "TierSpec",
    "default_tier_registry",
    "make_tiered_fleet",
]
