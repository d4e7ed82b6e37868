"""Share placement across independent providers.

POTSHARDS' deployment rule (paper Section 3.2): "each share is uploaded to
an administratively independent storage provider, thereby avoiding a single
point of trust or failure."  :class:`PlacementPolicy` enforces that rule --
no two shares of the same object may land on nodes of the same provider --
and records placements so systems can retrieve, re-place after
redistribution, and reason about what a compromised provider exposes.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from operator import attrgetter

from repro.crypto.drbg import DeterministicRandom
from repro.errors import (
    DeadlineExceededError,
    IntegrityError,
    NodeUnavailableError,
    ObjectNotFoundError,
    ParameterError,
    PlacementShortfallError,
    StorageError,
)
from repro.obs import metrics as _metrics
from repro.storage.faults import DegradedReadReport, default_retry_policy
from repro.storage.node import StorageNode
from repro.storage.tiering import TierSpec

logger = logging.getLogger("repro.storage")


@dataclass(frozen=True)
class Placement:
    """Where each share index of one object went."""

    object_id: str
    node_by_share: dict[int, str]


class PlacementPolicy:
    """Round-robin placement with a provider-independence constraint."""

    def __init__(
        self,
        nodes: list[StorageNode],
        require_distinct_providers: bool = True,
        retry_seed: bytes | int | str = b"placement-backoff",
    ):
        if not nodes:
            raise ParameterError("placement needs at least one node")
        self.nodes = {node.node_id: node for node in nodes}
        if len(self.nodes) != len(nodes):
            raise ParameterError("duplicate node ids")
        self.require_distinct_providers = require_distinct_providers
        self.retry_policy = default_retry_policy()
        # Backoff jitter comes from a seeded rng owned by the policy object,
        # so two identically-seeded runs replay the same delays.
        self._retry_rng = DeterministicRandom(retry_seed)
        self._rotation = 0
        self.tiering = None

    @property
    def tiering(self):
        """The bound tier migrator (repro.storage.tiering.TierMigrator) on a
        tiered archive, installed by its ``bind``: it gives each share its
        target tier, its registry orders fetches and prices reads, and its
        tracker counts every object fetch.  None: the fleet is untiered."""
        return self._tiering

    @tiering.setter
    def tiering(self, migrator) -> None:
        self._tiering = migrator
        # Nodes never change tier, so each node's fetch rank and read price
        # are resolved once per binding, not per share of every read.
        self._fetch_ranks: dict[str, int] = {}
        self._read_tiers: dict[str, TierSpec] = {}
        if migrator is not None:
            registry = migrator.registry
            for node_id, node in self.nodes.items():
                tier = self._tier(node)
                self._fetch_ranks[node_id] = len(registry) if tier is None else registry.rank(tier)
                if tier is not None:
                    self._read_tiers[node_id] = registry.get(tier)

    def node(self, node_id: str) -> StorageNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise StorageError(f"unknown node {node_id!r}") from None

    def _tier(self, node: StorageNode) -> str | None:
        """*node*'s tier in the bound registry; None for an untiered node."""
        if self.tiering is None or node.tier not in self.tiering.registry:
            return None
        return node.tier

    def place(
        self, object_id: str, share_indices: list[int], target_tier: str | None = None
    ) -> Placement:
        """Choose a node for every share index in one walk over the fleet.

        Online nodes form one pool per tier plus one of untiered nodes (an
        untiered fleet is that one pool); when providers must be distinct, a
        pool keeps only each provider's first node.  Every pool starts at
        the fleet rotation, which advances once per successful placement, so
        load spreads deterministically.  On a tiered fleet each share gets
        its target tier from the migrator's layout for *target_tier* (the
        object's assigned tier when None).  Shares are assigned in index
        order: each walks its target tier's fallback order (nearest tier
        first, colder before warmer), then the untiered nodes, and takes the
        first node whose provider (or, when providers may repeat, the node
        itself) holds none of the object's shares yet.  A share that finds
        no node raises :class:`PlacementShortfallError` and changes nothing.
        """
        # Providers must not repeat within an object (nodes, when they may);
        # a pool keeps the first node of each key.
        key = attrgetter("provider" if self.require_distinct_providers else "node_id")
        by_tier: dict[str | None, dict[str, StorageNode]] = {}
        for node in self.nodes.values():
            if node.online:
                by_tier.setdefault(self._tier(node), {}).setdefault(key(node), node)
        pools: dict[str | None, list[tuple[str, StorageNode]]] = {}
        for tier, firsts in by_tier.items():
            pool = list(firsts.items())
            offset = self._rotation % len(pool)
            pools[tier] = pool[offset:] + pool[:offset]
        tiering = self.tiering
        layout = (
            tiering.layout_for(share_indices, target_tier or tiering.tier_of(object_id))
            if tiering
            else {}
        )
        searches: dict[str | None, list[tuple[str | None, str, StorageNode]]] = {}
        taken: set[str] = set()
        picks: list[tuple[int, str | None, StorageNode]] = []
        for index in sorted(share_indices):
            want = layout.get(index)
            if want not in searches:
                walk = (*tiering.registry.fallback_order(want), None) if want else (None,)
                searches[want] = [
                    (tier, *entry) for tier in walk for entry in pools.get(tier, ())
                ]
            for tier, node_key, node in searches[want]:
                if node_key not in taken:
                    break
            else:
                kind = "providers" if self.require_distinct_providers else "nodes"
                raise PlacementShortfallError(
                    f"need {len(share_indices)} independent {kind}, "
                    f"only {len(picks)} available"
                )
            taken.add(node_key)
            picks.append((index, tier, node))
        self._rotation += 1
        if tiering:
            tiering.admit(object_id)
        for _, tier, _ in picks:
            if tier is not None:
                _metrics.inc("tier_shares_placed_total", tier=tier)
        return Placement(object_id, {index: node.node_id for index, _, node in picks})

    def store(self, placement: Placement, payload_by_share: dict[int, bytes]) -> None:
        for index, node_id in placement.node_by_share.items():
            if index not in payload_by_share:
                raise ParameterError(f"no payload for share index {index}")
            self.put_with_retry(
                self.node(node_id),
                share_key(placement.object_id, index),
                payload_by_share[index],
            )

    def put_with_retry(self, node: StorageNode, object_id: str, data: bytes) -> None:
        """Store one object, retrying transient unavailability with backoff."""

        def on_retry(attempt: int, delay_s: float, exc: Exception) -> None:
            _metrics.inc("store_retries_total")
            _metrics.observe("storage_backoff_delay_seconds", delay_s)

        self.retry_policy.call(
            lambda: node.put(object_id, data),
            self._retry_rng,
            on_retry=on_retry,
        )

    def fetch_degraded(
        self, placement: Placement, need: int | None = None
    ) -> tuple[dict[int, bytes], DegradedReadReport]:
        """Degraded-read-aware fetch: stop as soon as *need* shares arrived.

        Every share a node returns has passed the node's digest check.
        Transient faults (node unavailable, injected latency past the
        deadline) are retried under the placement's :class:`RetryPolicy`
        with seeded-jitter backoff; only after retries are exhausted is the
        share recorded lost.  The four *expected* archival loss modes are
        absorbed -- offline, missing, corrupted, timeout -- each recorded in
        the metrics registry with its reason and logged at WARNING.
        Anything else (a bad placement map, a programming error inside a
        node) propagates on the first raise: a typo must not masquerade as
        "share unavailable".

        On a tiered fleet the fetch order is (tier rank, share index):
        hotter shares first, so a read takes cold shares only when the
        warmer ones fall short of *need*, and every share read from a tier
        pays that tier's archive-model read time (recorded in the report's
        simulated wait and the ``tier_read_seconds`` histogram).  That is
        not a promise that a healthy read stays off cold media: the tier
        layout binds the object's tier to its first ``data_shares`` shares,
        and where a decode needs more than that (packed sharing needs t + k)
        every read takes the rest from cold.  ``enable_tiering`` binds the
        policy's t as ``data_shares``; binding the decode threshold instead
        waits for a benchmark change, because the tiered e2ebench workload
        rots a cold node that its self-check expects reads to repair.
        Untiered fleets fetch in plain index order.

        The fetch counters (attempts, shares, bytes, per-tier reads) are
        bumped once per fetch by their totals, also when an error
        propagates.

        Returns the fetched payloads plus a :class:`DegradedReadReport` of
        shares tried/failed, retries, and total simulated wait.
        """
        out: dict[int, bytes] = {}
        report = DegradedReadReport(
            object_id=placement.object_id,
            shares_total=len(placement.node_by_share),
        )
        if self.tiering is not None:
            # One record per object fetch: real demand, fed to the tier
            # migrator's decayed access counters.
            self.tiering.tracker.record(placement.object_id)

        def on_retry(attempt: int, delay_s: float, exc: Exception) -> None:
            _metrics.inc("fetch_retries_total")
            _metrics.observe("storage_backoff_delay_seconds", delay_s)
            report.retries += 1
            error_name = type(exc).__name__
            report.retry_errors[error_name] = report.retry_errors.get(error_name, 0) + 1
            report.simulated_wait_s += delay_s

        read_tiers = self._read_tiers
        fetched_bytes = 0
        tier_reads: dict[str, int] = {}
        try:
            for index in self._fetch_order(placement):
                if need is not None and len(out) >= need:
                    report.stopped_early = True
                    break
                node_id = placement.node_by_share[index]
                node = self.node(node_id)
                object_id = share_key(placement.object_id, index)
                report.shares_tried += 1
                if not node.online:
                    self._record_share_loss(node, object_id, "offline", "node offline")
                    report.shares_failed[index] = "offline"
                    continue
                try:
                    payload = self.retry_policy.call(
                        partial(node.get, object_id), self._retry_rng, on_retry=on_retry
                    )
                except NodeUnavailableError as exc:
                    self._record_share_loss(node, object_id, "offline", exc)
                    report.shares_failed[index] = "offline"
                except DeadlineExceededError as exc:
                    self._record_share_loss(node, object_id, "timeout", exc)
                    report.shares_failed[index] = "timeout"
                except ObjectNotFoundError as exc:
                    self._record_share_loss(node, object_id, "missing", exc)
                    report.shares_failed[index] = "missing"
                except IntegrityError as exc:
                    self._record_share_loss(node, object_id, "corrupted", exc)
                    report.shares_failed[index] = "corrupted"
                else:
                    out[index] = payload
                    report.shares_ok += 1
                    fetched_bytes += len(payload)
                    tier = read_tiers.get(node_id)
                    if tier is not None:
                        cost_s = tier.read_seconds(len(payload))
                        tier_reads[tier.name] = tier_reads.get(tier.name, 0) + 1
                        _metrics.observe("tier_read_seconds", cost_s, tier=tier.name)
                        report.simulated_wait_s += cost_s
                finally:
                    plan = getattr(node, "fault_plan", None)
                    if plan is not None:
                        report.simulated_wait_s += plan.drain_wait_s()
        finally:
            # One attempt per share tried, plus one per retry.
            attempts = report.shares_tried + report.retries
            if attempts:
                _metrics.inc("storage_fetch_attempts_total", attempts)
            if report.shares_ok:
                _metrics.inc("storage_shares_fetched_total", report.shares_ok)
                _metrics.inc("storage_fetch_bytes_total", fetched_bytes)
            for tier_name, reads in tier_reads.items():
                _metrics.inc("tier_reads_total", reads, tier=tier_name)
        return out, report

    def _fetch_order(self, placement: Placement) -> list[int]:
        """Share indices in fetch-preference order: plain index order when
        untiered; (tier rank, index) -- hottest media first, untiered nodes
        last -- when tiered, so cold shares are only touched when the warmer
        quorum falls short."""
        indices = sorted(placement.node_by_share)
        if self.tiering is None:
            return indices
        ranks = self._fetch_ranks

        def rank(index: int) -> int:
            node_id = placement.node_by_share[index]
            if node_id not in ranks:
                self.node(node_id)  # raises: a bad placement map
            return ranks[node_id]

        # A stable sort of index order: (rank, index) order.
        return sorted(indices, key=rank)

    @staticmethod
    def _record_share_loss(
        node: StorageNode, object_id: str, reason: str, detail: object
    ) -> None:
        _metrics.inc("storage_shares_lost_total", reason=reason)
        logger.warning(
            "share %s unavailable on node %s (provider %s): %s: %s",
            object_id,
            node.node_id,
            node.provider,
            reason,
            detail,
        )

    def delete(self, placement: Placement) -> None:
        for index, node_id in placement.node_by_share.items():
            node = self.node(node_id)
            object_id = share_key(placement.object_id, index)
            if node.online and node.contains(object_id):
                node.delete(object_id)

    def total_bytes_stored(self) -> int:
        return sum(node.bytes_stored for node in self.nodes.values())


def share_key(object_id: str, share_index: int) -> str:
    """The node key share *share_index* of *object_id* is stored under."""
    return f"{object_id}/share-{share_index}"
