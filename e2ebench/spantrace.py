"""Spans at the program's layer boundaries, recorded from outside it.

The traced pass replaces each boundary function with a wrapper *where its
callers look it up*: a method on its class, a module function in every
loaded ``repro`` module that bound it by name (``from repro.crypto.sha256
import sha256`` makes ``repro.crypto.drbg.sha256`` a separate lookup
site).  The untraced pass installs nothing.

A span records its name, start, end, parent span, thread and the op id of
the client call in flight; spans on pool threads take that op id, and the
innermost span open on the client thread as their parent.  Spans stay in
memory and are written as JSON lines at the end.  ``obs`` boundaries (the
update methods of the metric classes) are counted, not timed.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Any, Callable

SMALL, BULK, TIERED = "small-objects", "bulk-segmented", "tiered-renewal"
ALL = (SMALL, BULK, TIERED)


@dataclass(frozen=True)
class Boundary:
    """One public function of one layer."""

    #: Span name, ``<layer>.<function>``.
    name: str
    #: ``module:function`` or ``module:Class.method``.
    target: str
    #: Workloads on which the self-test requires at least one call.
    fires_on: tuple[str, ...] = ALL
    #: Counted per op instead of timed.
    counted: bool = False
    #: ``note(args, result)``: a per-span value (bytes, tier, report).
    note: Callable[[tuple, Any], Any] | None = None


def _arg_len(position: int):
    return lambda args, result: len(args[position])


def _node_tier(args, result):
    return args[0].tier


def _read_report(args, result):
    return result[1]


BOUNDARIES = (
    Boundary("core.store", "repro.core.archive:SecureArchive.store", (SMALL, TIERED)),
    Boundary("core.retrieve", "repro.core.archive:SecureArchive.retrieve", (SMALL, TIERED)),
    Boundary("core.store_large", "repro.core.archive:SecureArchive.store_large", (BULK,)),
    Boundary("core.retrieve_large", "repro.core.archive:SecureArchive.retrieve_large", (BULK,)),
    Boundary("core.advance_epoch", "repro.core.archive:SecureArchive.advance_epoch", (SMALL, TIERED)),
    # store_large calls the private batch entry; both are timed so the
    # client thread's wait on the batch pool can be read off their spans.
    Boundary("core.store_batch", "repro.core.archive:SecureArchive._store_batch", (BULK,)),
    Boundary("core.retrieve_batch", "repro.core.archive:SecureArchive.retrieve_batch", (BULK,)),
    Boundary("service.submit", "repro.service.server:ArchiveService.submit", (SMALL, TIERED)),
    Boundary("channels.send", "repro.channels.tls:TlsLikeChannel.send", note=_arg_len(1)),
    Boundary("channels.receive", "repro.channels.tls:TlsLikeChannel.receive"),
    Boundary("crypto.chacha20_keystream", "repro.crypto.chacha20:chacha20_keystream"),
    Boundary("crypto.drbg_bytes", "repro.crypto.drbg:DeterministicRandom.bytes"),
    Boundary("crypto.aes_ctr_transform", "repro.crypto.aes:aes_ctr_transform", (BULK,)),
    Boundary("crypto.sha256", "repro.crypto.sha256:sha256"),
    Boundary("crypto.hkdf", "repro.crypto.kdf:hkdf"),
    # Every metric update ends in one of these methods, whichever helper or
    # registry lookup recorded it, so each update counts once.
    Boundary("obs.counter_inc", "repro.obs.metrics:Counter.inc", counted=True),
    Boundary("obs.histogram_observe", "repro.obs.metrics:Histogram.observe", counted=True),
    Boundary("obs.gauge_set", "repro.obs.metrics:Gauge.set", (SMALL, TIERED), counted=True),
    # No caller adjusts a gauge by a delta today; counted if one does.
    Boundary("obs.gauge_inc", "repro.obs.metrics:Gauge.inc", (), counted=True),
    Boundary("obs.gauge_dec", "repro.obs.metrics:Gauge.dec", (), counted=True),
    Boundary("secretsharing.split", "repro.secretsharing.shamir:ShamirSecretSharing.split", (SMALL,)),
    Boundary("secretsharing.reconstruct", "repro.secretsharing.shamir:ShamirSecretSharing.reconstruct", (SMALL,)),
    Boundary("secretsharing.split", "repro.secretsharing.aontrs:AontRsDispersal.split", (BULK,)),
    Boundary("secretsharing.reconstruct", "repro.secretsharing.aontrs:AontRsDispersal.reconstruct", (BULK,)),
    Boundary("secretsharing.split", "repro.secretsharing.packed:PackedSecretSharing.split", (TIERED,)),
    Boundary("secretsharing.reconstruct", "repro.secretsharing.packed:PackedSecretSharing.reconstruct", (TIERED,)),
    Boundary("gmath.gf256_matmul", "repro.gmath.kernel:gf256_matmul"),
    Boundary("storage.place", "repro.storage.placement:PlacementPolicy.place"),
    Boundary("storage.put_with_retry", "repro.storage.placement:PlacementPolicy.put_with_retry"),
    Boundary("storage.fetch_degraded", "repro.storage.placement:PlacementPolicy.fetch_degraded", note=_read_report),
    Boundary("storage.node_put", "repro.storage.node:StorageNode.put", note=_arg_len(2)),
    Boundary("storage.node_get", "repro.storage.node:StorageNode.get", note=_node_tier),
    Boundary("storage.run_epoch", "repro.storage.tiering:TierMigrator.run_epoch", (TIERED,)),
    Boundary("integrity.timestamp_document", "repro.integrity.timestamp:TimestampAuthority.timestamp_document"),
    Boundary("integrity.renew_chain", "repro.integrity.timestamp:TimestampAuthority.renew_chain", (SMALL, TIERED)),
    Boundary("integrity.signer_keygen", "repro.integrity.timestamp:MerkleChainSigner.__init__"),
)

#: Every distinct span name, in declaration order (span tuples hold indices).
NAMES = tuple(dict.fromkeys(b.name for b in BOUNDARIES))


def _lookup_sites(target: str) -> tuple[Any, list[tuple[Any, str]]]:
    """The original object and every (owner, attribute) a caller reads it from."""
    module_name, qualname = target.split(":")
    module = import_module(module_name)
    if "." in qualname:
        class_name, attr = qualname.split(".")
        owner = getattr(module, class_name)
        return owner.__dict__[attr], [(owner, attr)]
    original = getattr(module, qualname)
    sites = []
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                sites.append((loaded, attr))
    return original, sites


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self) -> None:
        #: (id, name index, start, end, parent id, thread, op id, note)
        self.spans: list[tuple] = []
        #: op id -> kind ("setup", "store", "retrieve", "maintain").
        self.ops: list[str] = []
        self._ids = itertools.count()
        self._threads = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        #: Per-thread ``{(name index, op id): count}`` for counted boundaries.
        self._thread_counts: list[dict] = []
        self._current_op: int | None = None
        self._client_stack: list[int] = []
        self.origin = time.perf_counter()

    # -- client calls ---------------------------------------------------------------

    @contextmanager
    def op(self, kind: str):
        """Mark one client call: every span until exit carries its op id."""
        op_id = len(self.ops)
        self.ops.append(kind)
        self._client_stack = self._thread()[0]
        self._current_op = op_id
        try:
            yield op_id
        finally:
            self._current_op = None

    # -- wrappers ---------------------------------------------------------------------

    def _thread(self) -> tuple[list[int], int, dict]:
        state = getattr(self._local, "state", None)
        if state is None:
            counts: dict = {}
            with self._lock:
                self._thread_counts.append(counts)
            state = self._local.state = ([], next(self._threads), counts)
        return state

    def _timed(self, fn, name_index: int, note):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack, thread, _ = tracer._thread()
            if stack:
                parent = stack[-1]
            else:
                client = tracer._client_stack
                parent = client[-1] if client and client is not stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            returned = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        name_index,
                        start,
                        end,
                        parent,
                        thread,
                        tracer._current_op,
                        note(args, result) if returned and note is not None else None,
                    )
                )

        wrapper.__e2ebench_wrapped__ = fn
        return wrapper

    def _counting(self, fn, name_index: int):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer._thread()[2]
            key = (name_index, tracer._current_op)
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__e2ebench_wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        patches: list[tuple[Any, str, Any]] = []
        try:
            for boundary in BOUNDARIES:
                original, sites = _lookup_sites(boundary.target)
                index = NAMES.index(boundary.name)
                if boundary.counted:
                    wrapper = self._counting(original, index)
                else:
                    wrapper = self._timed(original, index, boundary.note)
                for owner, attr in sites:
                    setattr(owner, attr, wrapper)
                    patches.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------------------

    def counts(self) -> dict[tuple[str, str], int]:
        """Counted-boundary calls per (span name, op kind)."""
        merged: dict[tuple[str, str], int] = {}
        for per_thread in self._thread_counts:
            for (name_index, op_id), n in per_thread.items():
                kind = self.ops[op_id] if op_id is not None else "none"
                key = (NAMES[name_index], kind)
                merged[key] = merged.get(key, 0) + n
        return merged

    def write_jsonl(self, path: Path) -> None:
        """One JSON object per span, ordered by span id; times in seconds
        from the start of the trace."""
        origin = self.origin
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, thread, op_id, note in sorted(self.spans):
                record = {
                    "id": span_id,
                    "name": NAMES[name],
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "thread": thread,
                    "op": op_id,
                    "op_kind": self.ops[op_id] if op_id is not None else None,
                }
                if note is not None:
                    record["note"] = note.as_dict() if hasattr(note, "as_dict") else note
                out.write(json.dumps(record, separators=(",", ":")) + "\n")
