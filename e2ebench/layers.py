"""Per-layer metrics from the spans and counts of one traced pass.

``_per_op`` means per client call of the workload (store, retrieve and
maintenance calls; set-up is not an op).  Times at a boundary are inclusive
(the call's whole duration) unless the name says ``self``: a span's self
time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

from collections import defaultdict

from repro.storage.tiering import TIER_COLD
from spantrace import NAMES

CLIENT_KINDS = ("store", "retrieve", "maintain")
CORE = ("core.store", "core.retrieve", "core.store_large", "core.retrieve_large",
        "core.advance_epoch", "core.store_batch", "core.retrieve_batch")
BATCH = ("core.store_batch", "core.retrieve_batch")

#: Per-layer metrics that are counts or ratios of counts: for one seed they
#: repeat exactly from run to run, so a change may cite them as counts.
EXACT = (
    "core.rewrite_bytes_per_user_byte",
    "channels.transit_calls_per_store",
    "channels.transit_bytes_per_user_byte",
    "crypto.chacha20_calls_per_op",
    "crypto.drbg_calls_per_op",
    "crypto.sha256_calls_per_op",
    "obs.metric_updates_per_op",
    "obs.metric_updates_per_setup",
    "gmath.matmul_calls_per_op",
    "storage.put_bytes_per_user_byte",
    "storage.shares_fetched_per_retrieve",
    "storage.fetch_useful_ratio",
    "storage.retries_per_op",
    "storage.repairs_per_retrieve",
    "storage.cold_reads_per_retrieve",
    "storage.sim_wait_ms_per_retrieve",
    "storage.migrations_per_epoch",
    "integrity.signer_keygens",
)


def program_counters() -> dict[str, int]:
    """Plan-cache lookups and store retries, read from the program itself."""
    from repro.gmath.kernel import plan_cache_info
    from repro.obs.metrics import get_registry

    hits = misses = 0
    for info in plan_cache_info().values():
        hits += info["hits"]
        misses += info["misses"]
    retries = get_registry().counter("store_retries_total").value
    return {"plan_hits": hits, "plan_misses": misses, "store_retries": retries}


def _union_length(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    covered = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class SpanTable:
    """Spans of one traced pass, grouped by name and op kind."""

    def __init__(self, tracer) -> None:
        self.ops = tracer.ops
        self.calls: dict[tuple[str, str], int] = defaultdict(int)
        self.seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.notes: dict[tuple[str, str], list] = defaultdict(list)
        children: dict[int, list[tuple[float, float, int]]] = defaultdict(list)
        watched = []
        for span in tracer.spans:
            span_id, name_index, start, end, parent, thread, op_id, note = span
            name = NAMES[name_index]
            kind = self.ops[op_id] if op_id is not None else "none"
            self.calls[name, kind] += 1
            self.seconds[name, kind] += end - start
            if note is not None:
                self.notes[name, kind].append(note)
            if parent is not None:
                children[parent].append((start, end, thread))
            if name in CORE or name == "service.submit":
                watched.append((name, kind, span_id, start, end, thread))
        self.self_seconds: dict[tuple[str, str], float] = defaultdict(float)
        self.batch_wait = 0.0
        for name, kind, span_id, start, end, thread in watched:
            kids = children.get(span_id, [])
            covered = _union_length([(lo, hi) for lo, hi, _ in kids], start, end)
            self.self_seconds[name, kind] += end - start - covered
            if name in BATCH:
                same_thread = [(lo, hi) for lo, hi, t in kids if t == thread]
                self.batch_wait += end - start - _union_length(same_thread, start, end)

    def total(self, table, names, kinds=CLIENT_KINDS) -> float:
        names = (names,) if isinstance(names, str) else names
        return sum(table[name, kind] for name in names for kind in kinds)

    def notes_in(self, name: str, kinds=CLIENT_KINDS) -> list:
        return [note for kind in kinds for note in self.notes.get((name, kind), [])]


def per_layer(tracer, traced, untraced, before: dict, after: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    *traced* and *untraced* are the two passes' results; *before*/*after*
    are :func:`program_counters` around the traced pass's client calls.
    """
    t = SpanTable(tracer)
    n_ops = sum(1 for kind in t.ops if kind in CLIENT_KINDS)
    n_store = t.ops.count("store")
    n_retrieve = t.ops.count("retrieve")
    n_epochs = len(traced.epoch_reports)
    store_bytes = traced.user_bytes["store"]
    ms = 1e3

    reports = t.notes_in("storage.fetch_degraded")
    retrieve_reports = t.notes_in("storage.fetch_degraded", ("retrieve",))
    counted = tracer.counts()

    def updates(kinds) -> int:
        return sum(n for (name, kind), n in counted.items() if name.startswith("obs.") and kind in kinds)

    hits = after["plan_hits"] - before["plan_hits"]
    lookups = hits + after["plan_misses"] - before["plan_misses"]
    chacha_calls = t.total(t.calls, "crypto.chacha20_keystream")
    keygens = t.total(t.calls, "integrity.signer_keygen", ("setup",) + CLIENT_KINDS)
    transit = ("channels.send", "channels.receive")

    metrics = {
        "core.self_ms_per_op": (_ratio(t.total(t.self_seconds, CORE) * ms, n_ops), "ms"),
        "core.batch_wait_ms_per_op": (_ratio(t.batch_wait * ms, n_ops), "ms"),
        "core.rewrite_bytes_per_user_byte": (
            _ratio(sum(traced.rewritten), sum(traced.carried)), "ratio"),
        "service.self_ms_per_request": (
            _ratio(t.total(t.self_seconds, "service.submit") * ms,
                   t.total(t.calls, "service.submit")), "ms"),
        "channels.transit_ms_per_store": (
            _ratio(t.total(t.seconds, transit, ("store",)) * ms, n_store), "ms"),
        "channels.transit_calls_per_store": (
            _ratio(t.total(t.calls, transit, ("store",)), n_store), "count"),
        "channels.transit_bytes_per_user_byte": (
            _ratio(sum(t.notes_in("channels.send", ("store",))), store_bytes), "ratio"),
        "crypto.chacha20_calls_per_op": (_ratio(chacha_calls, n_ops), "count"),
        "crypto.chacha20_us_per_call": (
            _ratio(t.total(t.seconds, "crypto.chacha20_keystream") * 1e6, chacha_calls), "us"),
        "crypto.drbg_calls_per_op": (_ratio(t.total(t.calls, "crypto.drbg_bytes"), n_ops), "count"),
        "crypto.drbg_ms_per_op": (_ratio(t.total(t.seconds, "crypto.drbg_bytes") * ms, n_ops), "ms"),
        "crypto.aes_ms_per_op": (
            _ratio(t.total(t.seconds, "crypto.aes_ctr_transform") * ms, n_ops), "ms"),
        "crypto.sha256_calls_per_op": (_ratio(t.total(t.calls, "crypto.sha256"), n_ops), "count"),
        "crypto.sha256_ms_per_op": (_ratio(t.total(t.seconds, "crypto.sha256") * ms, n_ops), "ms"),
        "crypto.hkdf_ms_per_op": (_ratio(t.total(t.seconds, "crypto.hkdf") * ms, n_ops), "ms"),
        "obs.metric_updates_per_op": (_ratio(updates(CLIENT_KINDS), n_ops), "count"),
        "obs.metric_updates_per_setup": (_ratio(updates(("setup",)), t.ops.count("setup")), "count"),
        "secretsharing.split_ms_per_op": (
            _ratio(t.total(t.seconds, "secretsharing.split") * ms, n_ops), "ms"),
        "secretsharing.reconstruct_ms_per_op": (
            _ratio(t.total(t.seconds, "secretsharing.reconstruct") * ms, n_ops), "ms"),
        "gmath.matmul_calls_per_op": (_ratio(t.total(t.calls, "gmath.gf256_matmul"), n_ops), "count"),
        "gmath.matmul_ms_per_op": (
            _ratio(t.total(t.seconds, "gmath.gf256_matmul") * ms, n_ops), "ms"),
        "gmath.plan_cache_hit_ratio": (_ratio(hits, lookups), "ratio"),
        "storage.place_ms_per_op": (_ratio(t.total(t.seconds, "storage.place") * ms, n_ops), "ms"),
        "storage.put_ms_per_op": (
            _ratio(t.total(t.seconds, "storage.put_with_retry") * ms, n_ops), "ms"),
        "storage.get_ms_per_op": (
            _ratio(t.total(t.seconds, "storage.fetch_degraded") * ms, n_ops), "ms"),
        "storage.put_bytes_per_user_byte": (
            _ratio(sum(t.notes_in("storage.node_put", ("store",))), store_bytes), "ratio"),
        "storage.shares_fetched_per_retrieve": (
            _ratio(sum(r.shares_ok for r in retrieve_reports), n_retrieve), "count"),
        "storage.fetch_useful_ratio": (
            _ratio(sum(r.shares_ok for r in reports),
                   sum(r.shares_tried + r.retries for r in reports)), "ratio"),
        "storage.retries_per_op": (
            _ratio(sum(r.retries for r in reports)
                   + after["store_retries"] - before["store_retries"], n_ops), "count"),
        "storage.repairs_per_retrieve": (
            _ratio(sum(r.shares_repaired for r in retrieve_reports), n_retrieve), "count"),
        "storage.cold_reads_per_retrieve": (
            _ratio(t.notes_in("storage.node_get", ("retrieve",)).count(TIER_COLD), n_retrieve), "count"),
        "storage.sim_wait_ms_per_retrieve": (
            _ratio(sum(r.simulated_wait_s for r in retrieve_reports) * ms, n_retrieve), "ms"),
        "storage.migrate_ms_per_epoch": (
            _ratio(t.total(t.seconds, "storage.run_epoch") * ms, n_epochs), "ms"),
        "storage.migrations_per_epoch": (
            _ratio(sum(moved for _, _, moved in traced.epoch_reports), n_epochs), "count"),
        "integrity.timestamp_ms_per_store": (
            _ratio(t.total(t.seconds, "integrity.timestamp_document", ("store",)) * ms, n_store), "ms"),
        "integrity.signer_keygens": (keygens, "count"),
        "integrity.keygen_ms": (
            _ratio(t.total(t.seconds, "integrity.signer_keygen", ("setup",) + CLIENT_KINDS) * ms,
                   keygens), "ms"),
        "integrity.chain_renew_ms_per_epoch": (
            _ratio(t.total(t.seconds, "integrity.renew_chain", ("maintain",)) * ms, n_epochs), "ms"),
    }
    metrics.update(trace_overhead(traced, untraced))
    return metrics


def _mbps(result, kinds) -> float:
    seconds = sum(sum(result.latencies[kind]) for kind in kinds)
    return _ratio(sum(result.user_bytes[kind] for kind in kinds), seconds)


def trace_overhead(traced, untraced) -> dict[str, tuple[float, str]]:
    """How much slower store and retrieve ran traced than untraced."""
    out = {}
    for name, kinds in (
        ("trace.overhead_frac", ("store", "retrieve")),
        ("trace.store_overhead_frac", ("store",)),
        ("trace.retrieve_overhead_frac", ("retrieve",)),
    ):
        out[name] = (1.0 - _ratio(_mbps(traced, kinds), _mbps(untraced, kinds)), "ratio")
    return out
