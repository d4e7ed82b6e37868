"""Incremental lint cache keyed by file content hash.

``make lint`` on an unchanged tree should not re-parse 200 files.  The cache
(``.archlint_cache.json``, gitignored) stores, per file, the sha256 of its
source plus the per-file findings (post-noqa, pre-baseline) and the
noqa-suppressed count, produced under a given *fingerprint* -- archlint
version + active rule codes + canonicalized config -- so any change to rule
policy invalidates everything at once and warm runs report exactly what a
cold run would.  The whole-program phase is cached under a single key covering the
hash of every participating file: one edited module re-runs graph + dataflow
over the full set (they are whole-program properties), but an untouched tree
skips both phases entirely.

Corrupt or version-skewed cache files are discarded silently; the cache is
an accelerator, never a source of truth.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from archlint.core import Finding

CACHE_VERSION = 1


def content_hash(source: str) -> str:
    return hashlib.sha256(source.encode()).hexdigest()


def config_fingerprint(version: str, rule_codes: list[str], config_repr: str) -> str:
    blob = json.dumps(
        {"cache": CACHE_VERSION, "version": version, "rules": rule_codes, "config": config_repr},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def _finding_to_list(finding: Finding) -> list:
    return [
        finding.relpath,
        finding.line,
        finding.col,
        finding.code,
        finding.message,
        finding.end_line,
    ]


def _finding_from_list(raw: list) -> Finding:
    relpath, line, col, code, message, end_line = raw
    return Finding(
        relpath=relpath,
        line=line,
        col=col,
        code=code,
        message=message,
        end_line=end_line,
    )


#: Distinct fingerprints kept side by side, so ``make lint`` (all rules) and
#: a ``--select`` run don't evict each other's entries.
_MAX_BUCKETS = 8


class LintCache:
    """Load-mutate-save wrapper around the JSON cache file.

    The file holds one bucket per config fingerprint; each bucket carries
    per-file findings plus the whole-program-phase entry.
    """

    def __init__(self, path: Path, fingerprint: str) -> None:
        self.path = path
        self.fingerprint = fingerprint
        self.files: dict[str, dict] = {}
        self.program: dict | None = None
        self._other_buckets: dict[str, dict] = {}
        self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(data, dict) or data.get("version") != CACHE_VERSION:
            return  # stale format: start fresh
        buckets = data.get("buckets")
        if not isinstance(buckets, dict):
            return
        for fingerprint, bucket in buckets.items():
            if not isinstance(bucket, dict):
                continue
            if fingerprint == self.fingerprint:
                files = bucket.get("files")
                if isinstance(files, dict):
                    self.files = files
                program = bucket.get("program")
                if isinstance(program, dict):
                    self.program = program
            else:
                self._other_buckets[fingerprint] = bucket

    # -- per-file phase --------------------------------------------------------

    def get_file(self, relpath: str, digest: str) -> tuple[list[Finding], int] | None:
        """Surviving findings plus the noqa-suppressed count for *relpath*,
        or None on a miss.  The count rides along so cached runs report the
        same suppression totals as cold ones."""
        entry = self.files.get(relpath)
        if not isinstance(entry, dict) or entry.get("hash") != digest:  # noqa: ARCH004 -- public content hash, not a secret
            return None
        try:
            findings = [_finding_from_list(raw) for raw in entry["findings"]]
            return findings, int(entry.get("suppressed", 0))
        except (KeyError, TypeError, ValueError):
            return None

    def put_file(
        self, relpath: str, digest: str, findings: list[Finding], suppressed: int
    ) -> None:
        self.files[relpath] = {
            "hash": digest,
            "findings": [_finding_to_list(finding) for finding in findings],
            "suppressed": suppressed,
        }

    # -- whole-program phase ---------------------------------------------------

    @staticmethod
    def program_key(digests: dict[str, str]) -> str:
        blob = json.dumps(sorted(digests.items()))
        return hashlib.sha256(blob.encode()).hexdigest()

    def get_program(self, key: str) -> tuple[list[Finding], int] | None:
        entry = self.program
        if not isinstance(entry, dict) or entry.get("key") != key:  # noqa: ARCH004 -- public cache key, not key material
            return None
        try:
            findings = [_finding_from_list(raw) for raw in entry["findings"]]
            return findings, int(entry.get("suppressed", 0))
        except (KeyError, TypeError, ValueError):
            return None

    def put_program(self, key: str, findings: list[Finding], suppressed: int) -> None:
        self.program = {
            "key": key,
            "findings": [_finding_to_list(finding) for finding in findings],
            "suppressed": suppressed,
        }

    def save(self, known: set[str], prune: bool = True) -> None:
        """Persist; with *prune* (full-tree runs) drop entries for files no
        longer in the tree.  Subset runs pass prune=False so linting one file
        doesn't evict the rest of the tree's entries."""
        buckets = dict(list(self._other_buckets.items())[-(_MAX_BUCKETS - 1) :])
        buckets[self.fingerprint] = {
            "files": {
                relpath: entry
                for relpath, entry in sorted(self.files.items())
                if not prune or relpath in known
            },
            "program": self.program,
        }
        payload = {"version": CACHE_VERSION, "buckets": buckets}
        try:
            self.path.write_text(json.dumps(payload) + "\n")
        except OSError:
            pass  # read-only checkout: cache stays an accelerator only
