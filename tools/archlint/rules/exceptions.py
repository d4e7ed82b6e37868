"""ARCH001: broad exception handlers.

The paper's first failure mode is the silent one: a catch-all ``except``
that turns a failing integrity check or a lost share into "no result" and
keeps going.  PR 1 purged those; this rule (the AST successor of the old
Makefile grep gate) keeps them out.  Unlike the grep it also catches the
tuple form ``except (ValueError, Exception):`` and ``BaseException``.

Suppress with ``# noqa: ARCH001 -- <reason>`` on handlers that re-raise or
deliberately firewall a boundary -- the reason is the justification the
next reader needs.
"""

from __future__ import annotations

import ast
from typing import Iterator

from archlint.core import Checker, FileContext, Finding, RuleConfig

_BROAD = frozenset({"Exception", "BaseException"})


def _broad_names(handler_type: ast.expr | None) -> list[str]:
    """Names in this handler's clause that are too broad to catch."""
    if handler_type is None:
        return ["<bare>"]
    exprs = handler_type.elts if isinstance(handler_type, ast.Tuple) else [handler_type]
    return [expr.id for expr in exprs if isinstance(expr, ast.Name) and expr.id in _BROAD]


class BroadExceptRule(Checker):
    code = "ARCH001"
    name = "broad-except"
    description = (
        "bare except / except Exception|BaseException (incl. tuple forms) "
        "swallow failures silently; catch specific errors or justify with noqa"
    )

    def check(self, ctx: FileContext, cfg: RuleConfig) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            for name in _broad_names(node.type):
                if name == "<bare>":
                    message = "bare 'except:' swallows every failure silently"
                else:
                    message = (
                        f"'except {name}' is too broad -- catch the specific "
                        "errors this block can actually handle"
                    )
                yield self.finding(ctx, node, message)
