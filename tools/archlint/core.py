"""Core datatypes for archlint: findings, per-file context, rule base class,
configuration, and ``# noqa`` suppression semantics.

Everything here is stdlib-only and free of I/O so the test suite can drive
rules against inline source snippets without touching the filesystem.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``end_line`` is the last physical line of the offending construct; the
    engine honors a ``# noqa`` on either the first or the last line so
    multi-line expressions can carry their suppression where the code ends.
    It is excluded from ordering/equality so the baseline and report sort
    stay exactly as they were before it existed.
    """

    relpath: str
    line: int
    col: int
    code: str
    message: str
    end_line: int = field(default=0, compare=False)

    @property
    def key(self) -> str:
        """Line-number-free identity used by the baseline file (line numbers
        drift under unrelated edits; path+code+message is stable enough)."""
        return f"{self.relpath}:{self.code}:{self.message}"

    def render(self) -> str:
        return f"{self.relpath}:{self.line}:{self.col}: {self.code} {self.message}"

    def as_dict(self) -> dict:
        return {
            "path": self.relpath,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class RuleConfig:
    """Per-rule knobs, usually sourced from ``[tool.archlint.rules.ARCHxxx]``.

    ``scope`` limits where the rule applies (empty tuple = everywhere);
    ``allow`` carves exemptions out of that scope.  Both are fnmatch
    patterns over posix-style paths relative to the project root, so
    ``src/repro/obs/*`` covers the whole observability package.
    ``options`` carries rule-specific extras (e.g. ARCH006's
    ``assert_scope``).
    """

    enabled: bool = True
    scope: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()
    options: dict = field(default_factory=dict)


@dataclass
class LayerConfig:
    """The declared architecture layering (``[tool.archlint.layers]``).

    ``dag`` maps a layer package to the layer packages it may import
    *directly*; the transitive closure is computed by the analyzer, so the
    declaration stays minimal (``repro.core -> repro.systems`` implies
    everything systems may reach).  ``foundation`` packages are importable
    from every layer but may only import other foundation packages.
    ``facade`` modules (the top-level package ``__init__``) re-export the
    public API and may import anything.
    """

    dag: dict[str, tuple[str, ...]] = field(default_factory=dict)
    foundation: tuple[str, ...] = ()
    facade: tuple[str, ...] = ()
    #: Filesystem prefix stripped when mapping file paths to module names.
    src_root: str = "src"


@dataclass
class Config:
    """Whole-run configuration (see :mod:`archlint.config` for the loader)."""

    roots: tuple[str, ...] = ("src", "benchmarks", "tests", "examples")
    exclude: tuple[str, ...] = ()
    disable: tuple[str, ...] = ()
    baseline: str | None = None
    #: Findings/parse cache path (relative to the project root); the engine
    #: only touches it when run_lint is invoked with use_cache=True.
    cache: str = ".archlint_cache.json"
    layers: LayerConfig | None = None
    rules: dict[str, RuleConfig] = field(default_factory=dict)
    #: ``[tool.archlint.concurrency]``: the GIL-atomic allowlist consumed by
    #: ARCH012 (``atomic`` entries are ``"qualified.name -- reason"`` strings;
    #: ``lock_names`` extends what counts as a lock in ``with`` blocks).
    #: Lives on Config (not RuleConfig.options) because the racecheck harness
    #: reads the same table -- it is a program-wide concurrency contract, not
    #: a rule knob.  As a dataclass field it also feeds ``repr(config)`` and
    #: therefore the lint-cache fingerprint: editing the allowlist invalidates
    #: cached verdicts.
    concurrency: dict = field(default_factory=dict)

    def rule(self, code: str) -> RuleConfig:
        return self.rules.setdefault(code, RuleConfig())


def path_matches(relpath: str, patterns: Iterable[str]) -> bool:
    """fnmatch *relpath* against any pattern (``*`` crosses ``/``, so
    ``src/repro/*`` matches arbitrarily deep files)."""
    return any(fnmatch.fnmatch(relpath, pattern) for pattern in patterns)


class FileContext:
    """Parsed view of one file, shared by every rule that inspects it."""

    def __init__(self, path: Path, relpath: str, source: str) -> None:
        self.path = path
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree: ast.Module = ast.parse(source, filename=relpath)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


class Checker:
    """Base class for rule plugins.

    Subclasses set ``code``/``name``/``description`` and implement
    :meth:`check`, yielding findings for one parsed file.  Rules never see
    files their scope/allow config excludes, and never apply their own
    ``noqa`` filtering -- the engine owns suppression so behavior is uniform
    across rules.
    """

    code: str = "ARCH000"
    name: str = "abstract"
    description: str = ""

    def applies_to(self, relpath: str, cfg: RuleConfig) -> bool:
        if not cfg.enabled:
            return False
        if cfg.scope and not path_matches(relpath, cfg.scope):
            return False
        if cfg.allow and path_matches(relpath, cfg.allow):
            return False
        return True

    def check(self, ctx: FileContext, cfg: RuleConfig) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST | int, message: str
    ) -> Finding:
        if isinstance(node, int):
            line, col, end = node, 0, node
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
            end = getattr(node, "end_lineno", None) or line
        return Finding(
            relpath=ctx.relpath,
            line=line,
            col=col,
            code=self.code,
            message=message,
            end_line=end,
        )


class ProgramContext:
    """Whole-program view handed to :class:`ProgramChecker` rules.

    ``contexts`` maps relpath -> parsed :class:`FileContext` for every file
    the engine discovered and parsed this run.  Program rules see the whole
    set and apply their own per-file scope via :meth:`Checker.applies_to`.
    """

    def __init__(
        self, project_root: Path, config: Config, contexts: dict[str, FileContext]
    ) -> None:
        self.project_root = project_root
        self.config = config
        self.contexts = contexts

    def in_scope(self, rule: "Checker", cfg: RuleConfig) -> list[FileContext]:
        """Contexts the rule's scope/allow config admits, in sorted order."""
        return [
            self.contexts[relpath]
            for relpath in sorted(self.contexts)
            if rule.applies_to(relpath, cfg)
        ]


class ProgramChecker(Checker):
    """Base class for whole-program rules (import graph, dataflow...).

    These run in a second phase after every per-file rule, once all files
    are parsed, because their verdict on one file depends on the others
    (an import edge is only upward relative to the whole layering DAG; a
    call summary only exists once the callee's module is parsed).
    """

    def check(self, ctx: FileContext, cfg: RuleConfig) -> Iterator[Finding]:
        return iter(())

    def check_program(
        self, program: ProgramContext, cfg: RuleConfig
    ) -> Iterator[Finding]:
        raise NotImplementedError


# -- secret vocabulary ---------------------------------------------------------

#: Default identifier segments that mark a value as secret material.  The
#: pyproject ``[tool.archlint.rules.ARCH010] vocabulary`` list replaces this.
DEFAULT_SECRET_VOCABULARY = (
    "key",
    "keys",
    "secret",
    "secrets",
    "share",
    "shares",
    "plaintext",
    "seed",
    "seeds",
    "material",
    "payload",
    "payloads",
    "keystream",
    "ikm",
    "okm",
    "drbg",
)

#: Segments marking a name as structural *metadata about* a secret rather
#: than the material itself (``key_size``, ``share_index``, ``seed_path``).
METADATA_SEGMENTS = frozenset(
    {
        "size",
        "bytes",
        "len",
        "length",
        "count",
        "num",
        "bits",
        "index",
        "idx",
        "indices",
        "indexes",
        "offset",
        "max",
        "min",
        "total",
        "n",
        "id",
        "name",
        "kind",
        "type",
        "epoch",
        "path",
        "version",
        "fraction",
        "spread",
    }
)


def matches_secret_vocabulary(identifier: str, vocabulary: Iterable[str]) -> bool:
    """True when *identifier* names secret material under *vocabulary*.

    The identifier is split on underscores; it matches when any segment is a
    vocabulary word and no segment is a metadata qualifier (so ``round_keys``
    matches while ``key_size`` and ``share_index`` do not).
    """
    segments = {segment for segment in identifier.lower().split("_") if segment}
    if segments & METADATA_SEGMENTS:
        return False
    return bool(segments & set(vocabulary))


# -- suppression ---------------------------------------------------------------

#: ``# noqa`` / ``# noqa: ARCH001, ARCH004`` / legacy tag forms.
_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Za-z0-9_,\- ]+))?", re.I)

#: Pre-archlint suppression tag kept working from the fold-in of the
#: retired tools/lint_imports.py shim.
LEGACY_SUPPRESSIONS = {
    "ARCH002": frozenset({"unused-import-ok"}),
}


def is_suppressed(finding: Finding, line_text: str) -> bool:
    """True when the finding's source line carries a matching ``# noqa``.

    A bare ``# noqa`` suppresses every code on that line; a code list
    suppresses only the listed codes (plus each code's legacy aliases).
    """
    match = _NOQA_RE.search(line_text)
    if match is None:
        return False
    codes = match.group("codes")
    if codes is None:
        return True
    tokens = {token.strip().upper() for token in re.split(r"[,\s]+", codes) if token.strip()}
    if finding.code.upper() in tokens:
        return True
    legacy = LEGACY_SUPPRESSIONS.get(finding.code, frozenset())
    return any(token.lower() in legacy for token in tokens)
