"""ARCH002: dead imports (the fold-in of the old ``tools/lint_imports.py``).

Unused imports rot into silent dependencies and mask real ones; in a tree
that must stay buildable for decades-long archival claims, every import is
a liability to audit.  Semantics are identical to the retired standalone
gate:

- attribute chains count as use of their root (``np.take`` uses ``np``),
- names inside string constants count (annotations under
  ``from __future__ import annotations``, doctest-ish references),
- ``from __future__`` imports, names in a literal ``__all__``, and the
  ``import x as x`` re-export idiom are exempt,
- ``__init__.py`` files are skipped wholesale (package namespace assembly
  is all re-exports).

Suppress with ``# noqa: ARCH002``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from archlint.core import Checker, FileContext, Finding, RuleConfig


def _declared_all(tree: ast.Module) -> set[str]:
    """Names a module re-exports via a literal ``__all__`` assignment."""
    names: set[str] = set()
    for node in tree.body:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                for element in ast.walk(node.value):
                    if isinstance(element, ast.Constant) and isinstance(
                        element.value, str
                    ):
                        names.add(element.value)
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every identifier loaded anywhere in the module (attribute roots too)."""
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            root: ast.expr = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name):
                used.add(root.id)
    return used


def _string_refs(tree: ast.Module) -> set[str]:
    """Identifier-shaped tokens inside string constants ("np.ndarray" in a
    stringified annotation still counts as using ``np``)."""
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for token in node.value.replace(".", " ").split():
                if token.isidentifier():
                    refs.add(token)
    return refs


def _imported_bindings(tree: ast.Module):
    """Yield (lineno, bound_name, display) for each imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname == alias.name:
                    continue  # `import x as x` re-export idiom
                bound = alias.asname or alias.name.split(".")[0]
                yield node.lineno, bound, alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                if alias.asname == alias.name:
                    continue
                bound = alias.asname or alias.name
                yield node.lineno, bound, f"{node.module or '.'}.{alias.name}"


class DeadImportRule(Checker):
    code = "ARCH002"
    name = "dead-import"
    description = (
        "imported names must be used somewhere in the module "
        "(__all__ and `import x as x` re-exports exempt; __init__.py skipped)"
    )

    def check(self, ctx: FileContext, cfg: RuleConfig) -> Iterator[Finding]:
        if ctx.path.name == "__init__.py":
            return
        exempt = _declared_all(ctx.tree)
        used = _used_names(ctx.tree)
        string_refs = _string_refs(ctx.tree)
        for lineno, bound, display in _imported_bindings(ctx.tree):
            if bound in exempt or bound in used or bound in string_refs:
                continue
            yield self.finding(ctx, lineno, f"'{display}' imported but unused")
