"""Tests for tools/archlint: every rule fires, every suppression path works.

Each rule gets three fixture cases driven through the real engine against
inline snippets: one that triggers, one silenced by ``# noqa: ARCHxxx``,
one exempted by a config allowlist.  On top of that the suite pins the
repo-level contract (``src/repro`` lints clean with the committed
pyproject policy), the legacy suppression aliases from the pre-archlint
gates, the baseline ratchet, and the CLI/JSON surface ``make lint`` uses.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from archlint.baseline import write_baseline  # noqa: E402 - path bootstrap above
from archlint.config import load_config  # noqa: E402
from archlint.core import (  # noqa: E402
    Config,
    Finding,
    LayerConfig,
    RuleConfig,
    is_suppressed,
    matches_secret_vocabulary,
)
from archlint.engine import run_lint  # noqa: E402
from archlint.graph import ModuleGraph, module_name_for, transitive_closure  # noqa: E402
from archlint.rules import ALL_RULES, RULES_BY_CODE  # noqa: E402

ALL_CODES = (
    "ARCH001",
    "ARCH002",
    "ARCH003",
    "ARCH004",
    "ARCH005",
    "ARCH006",
    "ARCH007",
    "ARCH008",
    "ARCH009",
    "ARCH010",
    "ARCH011",
    "ARCH012",
    "ARCH013",
)


def lint_snippet(
    tmp_path: Path,
    source: str,
    code: str,
    rule_config: RuleConfig | None = None,
    filename: str = "snippet.py",
):
    """Run exactly one rule over one snippet in a scratch project."""
    target = tmp_path / filename
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    config = Config(roots=(".",))
    if rule_config is not None:
        config.rules[code] = rule_config
    return run_lint(tmp_path, config, ALL_RULES, paths=[filename], select={code})


def lint_project(
    tmp_path: Path,
    files: dict[str, str],
    config: Config | None = None,
    select: set[str] | None = None,
    use_cache: bool = False,
):
    """Run the engine over a multi-file scratch project (whole-program rules)."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_lint(
        tmp_path,
        config or Config(roots=(".",)),
        ALL_RULES,
        select=select,
        use_cache=use_cache,
    )


class TestFramework:
    def test_rule_catalogue_complete(self):
        assert tuple(sorted(RULES_BY_CODE)) == ALL_CODES
        for rule in ALL_RULES:
            assert rule.description, rule.code

    def test_bare_noqa_suppresses_any_code(self):
        finding = Finding("x.py", 1, 0, "ARCH004", "msg")
        assert is_suppressed(finding, "tag == other  # noqa")
        assert is_suppressed(finding, "tag == other  # noqa: ARCH004")
        assert is_suppressed(finding, "tag == other  # noqa: ARCH001, ARCH004")
        assert not is_suppressed(finding, "tag == other  # noqa: ARCH001")
        assert not is_suppressed(finding, "tag == other")

    def test_legacy_aliases_still_honored(self):
        broad = Finding("x.py", 1, 0, "ARCH001", "msg")
        dead = Finding("x.py", 1, 0, "ARCH002", "msg")
        assert is_suppressed(dead, "import os  # noqa: unused-import-ok")
        # The retired broad-except tag suppresses nothing, on any rule.
        assert not is_suppressed(broad, "except Exception:  # noqa: broad-except-ok")
        assert not is_suppressed(dead, "import os  # noqa: broad-except-ok")
        # Aliases are per-code: the old tags don't leak across rules.
        assert not is_suppressed(broad, "except Exception:  # noqa: unused-import-ok")

    def test_unparseable_file_is_an_error(self, tmp_path):
        (tmp_path / "broken.py").write_text("def f(:\n")
        report = run_lint(tmp_path, Config(roots=(".",)), ALL_RULES)
        assert not report.ok
        assert report.errors and "broken.py" in report.errors[0][0]

    def test_baseline_ratchet(self, tmp_path):
        (tmp_path / "old.py").write_text("def f(xs=[]):\n    return xs\n")
        config = Config(roots=(".",), baseline="baseline.json")
        first = run_lint(tmp_path, config, ALL_RULES, select={"ARCH006"})
        assert len(first.findings) == 1
        write_baseline(tmp_path, "baseline.json", first.findings)
        second = run_lint(tmp_path, config, ALL_RULES, select={"ARCH006"})
        assert second.ok and second.baselined == 1


class TestArch001BroadExcept:
    TRIGGER = """
        def f():
            try:
                return 1
            except Exception:
                return None
    """

    def test_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH001")
        assert [f.code for f in report.findings] == ["ARCH001"]

    def test_tuple_and_bare_forms(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except (ValueError, Exception):
                    return None

            def g():
                try:
                    return 1
                except:
                    return None
        """
        report = lint_snippet(tmp_path, source, "ARCH001")
        assert len(report.findings) == 2

    def test_noqa(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:  # noqa: ARCH001 - boundary firewall
                    return None
        """
        report = lint_snippet(tmp_path, source, "ARCH001")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH001", rule_config=cfg)
        assert report.ok and report.suppressed == 0

    def test_narrow_except_clean(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except (ValueError, KeyError):
                    return None
        """
        assert lint_snippet(tmp_path, source, "ARCH001").ok


class TestArch002DeadImport:
    TRIGGER = """
        import os
        import json

        def f():
            return json.dumps({})
    """

    def test_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH002")
        assert len(report.findings) == 1
        assert "'os' imported but unused" in report.findings[0].message

    def test_noqa(self, tmp_path):
        source = """
            import os  # noqa: ARCH002 - imported for its side effects
        """
        report = lint_snippet(tmp_path, source, "ARCH002")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH002", rule_config=cfg).ok

    def test_exemptions(self, tmp_path):
        source = """
            import os
            from json import dumps as dumps

            __all__ = ["os"]
        """
        assert lint_snippet(tmp_path, source, "ARCH002").ok

    def test_init_py_skipped(self, tmp_path):
        report = lint_snippet(
            tmp_path, "import os\n", "ARCH002", filename="pkg/__init__.py"
        )
        assert report.ok

    def test_attribute_root_counts_as_use(self, tmp_path):
        source = """
            import numpy as np

            def f(rows):
                return np.take(rows, 0)
        """
        assert lint_snippet(tmp_path, source, "ARCH002").ok


class TestArch003Nondeterminism:
    TRIGGER = """
        import time

        def stamp():
            return time.time()
    """

    def test_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH003")
        assert len(report.findings) == 1
        assert "time.time" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "from time import time\n\ndef f():\n    return time()\n",
            "from os import urandom\n\ndef f():\n    return urandom(8)\n",
            "import random\n\ndef f():\n    return random.random()\n",
            "import random\n\ndef f():\n    return random.Random()\n",
            "import numpy as np\n\ndef f():\n    return np.random.rand(3)\n",
            "import numpy as np\n\ndef f():\n    return np.random.default_rng()\n",
            "from datetime import datetime\n\ndef f():\n    return datetime.now()\n",
        ],
    )
    def test_resolved_import_forms_trigger(self, tmp_path, source):
        report = lint_snippet(tmp_path, source, "ARCH003")
        assert len(report.findings) == 1, source

    @pytest.mark.parametrize(
        "source",
        [
            # Seeded constructions are the sanctioned idiom.
            "import random\n\ndef f(seed):\n    return random.Random(seed)\n",
            "import numpy as np\n\ndef f(seed):\n    return np.random.default_rng(seed)\n",
            "import numpy as np\n\ndef f(s):\n    return np.random.Generator(np.random.PCG64(s))\n",
            # A local name shadowing a banned module is not resolved.
            "def f(time):\n    return time.time()\n",
        ],
    )
    def test_seeded_and_unresolved_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH003").ok, source

    def test_noqa(self, tmp_path):
        source = """
            import time

            def stamp():
                return time.time()  # noqa: ARCH003 - wall-clock label only
        """
        report = lint_snippet(tmp_path, source, "ARCH003")
        assert report.ok and report.suppressed == 1

    def test_allowlist_mirrors_entropy_boundary(self, tmp_path):
        # Same shape as pyproject's allow of crypto/drbg.py and obs/*.
        cfg = RuleConfig(allow=("entropy/*",))
        report = lint_snippet(
            tmp_path, self.TRIGGER, "ARCH003", rule_config=cfg,
            filename="entropy/boundary.py",
        )
        assert report.ok

    def test_scope_excludes_other_trees(self, tmp_path):
        cfg = RuleConfig(scope=("src/*",))
        report = lint_snippet(
            tmp_path, self.TRIGGER, "ARCH003", rule_config=cfg,
            filename="tests/helper.py",
        )
        assert report.ok


class TestArch004SecretComparison:
    TRIGGER = """
        def check(tag, expected_tag):
            return tag == expected_tag
    """

    def test_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH004")
        assert len(report.findings) == 1
        assert "constant_time_eq" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "def f(link, prev_digest):\n    return link.digest != prev_digest\n",
            "def f(data, mac, h):\n    if h(data) != mac:\n        raise ValueError\n",
            "def f(key, stored_key):\n    return key == stored_key\n",
        ],
    )
    def test_attribute_call_and_key_forms_trigger(self, tmp_path, source):
        assert len(lint_snippet(tmp_path, source, "ARCH004").findings) == 1, source

    @pytest.mark.parametrize(
        "source",
        [
            # Structural metadata about secrets is not secret material.
            "def f(key_size):\n    return key_size == 16\n",
            "def f(key, key_bytes):\n    return len(key) != key_bytes\n",
            "def f(tag):\n    return tag == None\n",
            # asserts are the test/demo oracle idiom (ARCH006 bans them in src).
            "def f(secret, recovered_secret):\n    assert recovered_secret == secret\n",
            # Routed through the constant-time helper: nothing to flag.
            "def f(cte, a_tag, b_tag):\n    return cte(a_tag, b_tag)\n",
        ],
    )
    def test_exempt_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH004").ok, source

    def test_noqa(self, tmp_path):
        source = """
            def verify(node, root):
                return node == root  # noqa: ARCH004 - public commitment
        """
        report = lint_snippet(tmp_path, source, "ARCH004")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH004", rule_config=cfg).ok


class TestArch005DynamicMetricLabel:
    TRIGGER = """
        def record(metrics, object_id):
            metrics.inc("storage_puts_total", node=f"node-{object_id}")
    """

    def test_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH005")
        assert len(report.findings) == 1
        assert "cardinality" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "def f(m, exc):\n    m.inc('errors_total', kind=type(exc))\n",
            "def f(observe, op, x):\n    observe('t_seconds', x, op='pre-' + op)\n",
            "def f(reg, shard):\n    reg.counter('ops_total', shard=str(shard))\n",
        ],
    )
    def test_call_and_concat_label_forms_trigger(self, tmp_path, source):
        assert len(lint_snippet(tmp_path, source, "ARCH005").findings) == 1, source

    @pytest.mark.parametrize(
        "source",
        [
            # Variables may carry a bounded vocabulary; construction can't.
            "def f(m, reason):\n    m.inc('lost_total', reason=reason)\n",
            "def f(m):\n    m.inc('puts_total')\n",
            # histogram bounds= is a parameter, not a label.
            "def f(reg, b):\n    reg.histogram('t_seconds', bounds=tuple(b))\n",
            # Unrelated callables named like metrics methods but positional.
            "def f(counter):\n    counter.inc(1)\n",
        ],
    )
    def test_bounded_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH005").ok, source

    def test_noqa(self, tmp_path):
        source = """
            def record(metrics, epoch):
                metrics.inc("renewals_total", epoch=f"e{epoch}")  # noqa: ARCH005
        """
        report = lint_snippet(tmp_path, source, "ARCH005")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH005", rule_config=cfg).ok


class TestArch006MutableDefaultAndAssert:
    TRIGGER = """
        def gather(shares=[]):
            return shares
    """

    def test_mutable_default_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH006")
        assert len(report.findings) == 1
        assert "mutable default" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            "def f(m={}):\n    return m\n",
            "def f(s=set()):\n    return s\n",
            "def f(*, xs=list()):\n    return xs\n",
        ],
    )
    def test_other_mutable_forms_trigger(self, tmp_path, source):
        assert len(lint_snippet(tmp_path, source, "ARCH006").findings) == 1, source

    def test_assert_flagged_only_inside_assert_scope(self, tmp_path):
        source = "def f(n):\n    assert n > 0\n    return n\n"
        in_scope = lint_snippet(tmp_path, source, "ARCH006", filename="src/mod.py")
        assert len(in_scope.findings) == 1
        assert "typed error" in in_scope.findings[0].message
        out_of_scope = lint_snippet(
            tmp_path, source, "ARCH006", filename="tests/test_mod.py"
        )
        assert out_of_scope.ok

    def test_noqa(self, tmp_path):
        source = """
            def gather(shares=[]):  # noqa: ARCH006 - never mutated, doc default
                return shares
        """
        report = lint_snippet(tmp_path, source, "ARCH006")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH006", rule_config=cfg).ok

    def test_none_default_clean(self, tmp_path):
        source = "def f(xs=None):\n    return xs or []\n"
        assert lint_snippet(tmp_path, source, "ARCH006").ok


class TestArch007TierRegistry:
    TRIGGER = """
        from repro.storage.media import MEDIA_CATALOG

        def cold_media():
            return MEDIA_CATALOG["LTO-9 tape"]
    """

    def test_catalog_subscript_triggers(self, tmp_path):
        report = lint_snippet(tmp_path, self.TRIGGER, "ARCH007")
        assert len(report.findings) == 1
        assert "tier registry" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # tier= keyword argument
            "def f(node_cls):\n    return node_cls('n', tier='hot')\n",
            # comparison against a tier-bearing expression
            "def f(node):\n    return node.tier == 'cold'\n",
            # subscript key into a tier-keyed mapping
            "def f(tiers):\n    return tiers['warm']\n",
            # literal key in a fleet spec
            "def f(make_tiered_fleet):\n    return make_tiered_fleet({'hot': 4})\n",
        ],
    )
    def test_tier_literal_positions_trigger(self, tmp_path, source):
        assert len(lint_snippet(tmp_path, source, "ARCH007").findings) == 1, source

    @pytest.mark.parametrize(
        "source",
        [
            # the constants are the sanctioned spelling
            "from repro.storage.tiering import TIER_HOT\n"
            "\n"
            "def f(node):\n"
            "    return node.tier == TIER_HOT\n",
            # the same words outside tier positions stay legal
            "def f(weather):\n    return weather == 'hot'\n",
            "def f(log):\n    log.info('cold start')\n",
            # iterating the catalog (no subscript) is how the registry
            # itself is built
            "def f(catalog):\n    return sorted(catalog)\n",
        ],
    )
    def test_registry_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH007").ok, source

    def test_noqa(self, tmp_path):
        source = """
            def f(MEDIA_CATALOG):
                return MEDIA_CATALOG["QLC SSD"]  # noqa: ARCH007
        """
        report = lint_snippet(tmp_path, source, "ARCH007")
        assert report.ok and report.suppressed == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH007", rule_config=cfg).ok


class TestArch008ZeroCopy:
    TRIGGER = """
        import numpy as np

        def keystream(words):
            return np.ascontiguousarray(words.T).tobytes()
    """

    @pytest.mark.parametrize(
        "source",
        [
            # ndarray -> bytes materialization
            "def f(arr):\n    return arr.tobytes()\n",
            # bytes() constructor round-trip
            "def f(view):\n    return bytes(view)\n",
            # bytes-literal join concatenation
            "def f(parts):\n    return b''.join(parts)\n",
        ],
    )
    def test_roundtrip_forms_trigger(self, tmp_path, source):
        report = lint_snippet(tmp_path, source, "ARCH008")
        assert len(report.findings) == 1, source
        assert "zero-copy" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # views and frombuffer are the sanctioned handoffs
            "import numpy as np\n"
            "def f(data):\n"
            "    return np.frombuffer(data, dtype=np.uint8)\n",
            # str.join is not a buffer copy
            "def f(parts):\n    return ', '.join(parts)\n",
            # .view() reinterprets without copying
            "import numpy as np\n"
            "def f(arr):\n    return arr.view(np.uint32)\n",
        ],
    )
    def test_view_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH008").ok, source

    def test_noqa(self, tmp_path):
        source = """
            def f(arr):
                return arr.tobytes()  # noqa: ARCH008 -- bytes API boundary
        """
        report = lint_snippet(tmp_path, source, "ARCH008")
        assert report.ok and report.suppressed == 1

    def test_scope_limits_the_rule_to_hot_path_modules(self, tmp_path):
        cfg = RuleConfig(scope=("hot/*",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH008", rule_config=cfg).ok
        report = lint_snippet(
            tmp_path,
            self.TRIGGER,
            "ARCH008",
            rule_config=cfg,
            filename="hot/kernel.py",
        )
        assert len(report.findings) == 1

    def test_allowlist(self, tmp_path):
        cfg = RuleConfig(allow=("snippet.py",))
        assert lint_snippet(tmp_path, self.TRIGGER, "ARCH008", rule_config=cfg).ok


def _layered_config(
    dag: dict[str, tuple[str, ...]],
    foundation: tuple[str, ...] = (),
    facade: tuple[str, ...] = ("pkg",),
) -> Config:
    config = Config(roots=("src",))
    config.layers = LayerConfig(
        dag=dag, foundation=foundation, facade=facade, src_root="src"
    )
    return config


class TestArch009ImportLayering:
    DAG = {"pkg.low": (), "pkg.high": ("pkg.low",)}

    def test_upward_import_triggers(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/low/mod.py": "from pkg.high import impl\n",
                "src/pkg/high/__init__.py": "",
                "src/pkg/high/impl.py": "",
            },
            _layered_config(self.DAG),
            select={"ARCH009"},
        )
        assert [f.code for f in report.findings] == ["ARCH009"]
        assert "'pkg.low' may not import layer 'pkg.high'" in report.findings[0].message

    def test_downward_and_transitive_imports_clean(self, tmp_path):
        dag = {"pkg.a": ("pkg.b",), "pkg.b": ("pkg.c",), "pkg.c": ()}
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/a/__init__.py": "",
                # pkg.c is reachable via the closure, not declared directly.
                "src/pkg/a/mod.py": "import pkg.b.mod\nimport pkg.c.mod\n\nuse = (pkg,)\n",
                "src/pkg/b/__init__.py": "",
                "src/pkg/b/mod.py": "",
                "src/pkg/c/__init__.py": "",
                "src/pkg/c/mod.py": "",
            },
            _layered_config(dag),
            select={"ARCH009"},
        )
        assert report.ok, [f.render() for f in report.findings]

    def test_cycle_triggers_even_within_one_layer(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/low/a.py": "from pkg.low import b\n",
                "src/pkg/low/b.py": "from pkg.low import a\n",
                "src/pkg/high/__init__.py": "",
            },
            _layered_config(self.DAG),
            select={"ARCH009"},
        )
        assert len(report.findings) == 1
        assert "import cycle: pkg.low.a -> pkg.low.b -> pkg.low.a" in report.findings[0].message

    def test_unassigned_module_is_a_finding(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/high/__init__.py": "",
                "src/pkg/rogue/__init__.py": "",
            },
            _layered_config(self.DAG),
            select={"ARCH009"},
        )
        assert len(report.findings) == 1
        assert "'pkg.rogue' is not covered by the layering DAG" in report.findings[0].message

    def test_foundation_importable_from_every_layer(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/base.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/low/mod.py": "import pkg.base\n\nuse = (pkg,)\n",
                "src/pkg/high/__init__.py": "",
                "src/pkg/high/mod.py": "import pkg.base\n\nuse = (pkg,)\n",
            },
            _layered_config(self.DAG, foundation=("pkg.base",)),
            select={"ARCH009"},
        )
        assert report.ok, [f.render() for f in report.findings]

    def test_foundation_may_not_import_upward(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/base.py": "from pkg.high import mod\n",
                "src/pkg/low/__init__.py": "",
                "src/pkg/high/__init__.py": "",
                "src/pkg/high/mod.py": "",
            },
            _layered_config(self.DAG, foundation=("pkg.base",)),
            select={"ARCH009"},
        )
        assert len(report.findings) == 1
        assert report.findings[0].relpath == "src/pkg/base.py"
        assert "base (foundation)' may not import" in report.findings[0].message

    def test_symbol_resolution_through_reexport(self, tmp_path):
        # `from pkg.high import Thing` must resolve to pkg.high.impl where
        # Thing is defined -- a package re-export cannot launder the edge.
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/low/mod.py": "from pkg.high import Thing\n",
                "src/pkg/high/__init__.py": "from pkg.high.impl import Thing\n",
                "src/pkg/high/impl.py": "class Thing:\n    pass\n",
            },
            _layered_config(self.DAG),
            select={"ARCH009"},
        )
        assert len(report.findings) == 1
        assert "pkg.low.mod -> pkg.high.impl" in report.findings[0].message

    def test_noqa_on_the_import_line(self, tmp_path):
        report = lint_project(
            tmp_path,
            {
                "src/pkg/__init__.py": "",
                "src/pkg/low/__init__.py": "",
                "src/pkg/low/mod.py": (
                    "from pkg.high import impl  # noqa: ARCH009 -- sanctioned exception\n"
                ),
                "src/pkg/high/__init__.py": "",
                "src/pkg/high/impl.py": "",
            },
            _layered_config(self.DAG),
            select={"ARCH009"},
        )
        assert report.ok and report.suppressed == 1

    def test_no_layer_config_means_no_findings(self, tmp_path):
        report = lint_project(
            tmp_path,
            {"src/pkg/__init__.py": "", "src/pkg/anything.py": "import pkg\n"},
            Config(roots=("src",)),
            select={"ARCH009"},
        )
        assert report.ok

    def test_declared_dag_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            transitive_closure({"a": ("b",), "b": ("a",)})

    def test_module_name_mapping(self):
        assert module_name_for("src/repro/gmath/kernel.py", "src") == "repro.gmath.kernel"
        assert module_name_for("src/repro/__init__.py", "src") == "repro"
        assert module_name_for("tests/test_x.py", "src") is None

    def test_relative_imports_resolve(self, tmp_path):
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/low/__init__.py": "",
            "src/pkg/low/a.py": "from . import b\nfrom .b import thing\n",
            "src/pkg/low/b.py": "thing = 1\n",
        }
        for relpath, source in files.items():
            target = tmp_path / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        config = Config(roots=("src",))
        report = run_lint(tmp_path, config, ALL_RULES, select=set())
        # Build the graph directly for edge-level assertions.
        from archlint.core import FileContext

        contexts = {
            rel: FileContext(tmp_path / rel, rel, (tmp_path / rel).read_text())
            for rel in files
        }
        graph = ModuleGraph.build(contexts, "src")
        assert {e.dst for e in graph.edges["pkg.low.a"]} == {"pkg.low.b"}
        assert report.ok


class TestArch010SecretTaint:
    def test_logging_sink_triggers(self, tmp_path):
        source = """
            def f(logger, key):
                logger.warning("issued %s", key)
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1
        assert "logging call" in report.findings[0].message

    def test_exception_message_sink_triggers(self, tmp_path):
        source = """
            def f(secret):
                raise RuntimeError(f"bad secret {secret!r}")
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1
        assert "exception" in report.findings[0].message

    def test_metric_label_sink_triggers(self, tmp_path):
        source = """
            def f(metrics, seed):
                metrics.inc("draws_total", seed=str(seed))
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1
        assert "metric label" in report.findings[0].message

    def test_file_write_sink_and_write_allow(self, tmp_path):
        source = """
            def f(path, key):
                path.write_bytes(key)
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1
        assert "storage-node boundary" in report.findings[0].message
        cfg = RuleConfig(options={"write_allow": ["snippet.py"]})
        assert lint_snippet(tmp_path, source, "ARCH010", rule_config=cfg).ok

    @pytest.mark.parametrize(
        "source",
        [
            # len() and digests are the sanctioned renderings.
            "def f(logger, key):\n    logger.warning('len=%d', len(key))\n",
            "def f(logger, sha256_hex, key):\n    logger.info(sha256_hex(key))\n",
            "def f(share):\n    raise ValueError(f'bad share length {len(share)}')\n",
            # Comparisons yield one bit, not material.
            "def f(logger, key, expected_key):\n    logger.info(key == expected_key)\n",
            # Metadata about secrets is not the secret.
            "def f(logger, key_size, share_index):\n    logger.info('%d %d', key_size, share_index)\n",
            # Assignment from a sanitizer launders the *new* name.
            "def f(logger, key):\n    digest8 = sha256(key)\n    logger.info(digest8)\n"
            "\n"
            "def sha256(data):\n    return data\n",
            # Mapping keys are structural even when values are secret.
            "def f(logger, payload_by_share):\n"
            "    for index, payload in payload_by_share.items():\n"
            "        logger.info('share %d', index)\n",
        ],
    )
    def test_sanitized_forms_clean(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH010").ok, source

    def test_assigned_taint_propagates(self, tmp_path):
        source = """
            def f(logger, key):
                copied = key
                logger.warning("k=%s", copied)
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1

    def test_attribute_projection_decides_on_field_name(self, tmp_path):
        clean = """
            def f(logger, share):
                logger.info("index %d", share.index)
        """
        assert lint_snippet(tmp_path, clean, "ARCH010").ok
        dirty = """
            def f(logger, record):
                logger.info("got %s", record.payload)
        """
        assert len(lint_snippet(tmp_path, dirty, "ARCH010").findings) == 1

    def test_one_level_call_summary(self, tmp_path):
        source = """
            def issue_key():
                key = make_bytes(32)
                return key

            def f(logger):
                logger.info("issued %s", issue_key())
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert len(report.findings) == 1

    def test_designated_source_function(self, tmp_path):
        source = """
            def f(logger, gen):
                logger.info("x=%s", gen())
        """
        assert lint_snippet(tmp_path, source, "ARCH010").ok
        cfg = RuleConfig(options={"source_functions": ["gen"]})
        report = lint_snippet(tmp_path, source, "ARCH010", rule_config=cfg)
        assert len(report.findings) == 1

    def test_dataclass_repr_channel(self, tmp_path):
        trigger = """
            from dataclasses import dataclass

            @dataclass
            class Holder:
                key: bytes
        """
        report = lint_snippet(tmp_path, trigger, "ARCH010")
        assert len(report.findings) == 1
        assert "__repr__" in report.findings[0].message

    @pytest.mark.parametrize(
        "source",
        [
            # repr=False keeps the generated repr silent.
            "from dataclasses import dataclass, field\n"
            "\n"
            "@dataclass\n"
            "class Holder:\n"
            "    key: bytes = field(repr=False, default=b'')\n",
            # A custom __repr__ takes responsibility.
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class Holder:\n"
            "    key: bytes\n"
            "\n"
            "    def __repr__(self):\n"
            "        return f'Holder(key=<{len(self.key)} bytes>)'\n",
            # Metadata fields and non-bytes fields are fine.
            "from dataclasses import dataclass\n"
            "\n"
            "@dataclass\n"
            "class Holder:\n"
            "    key_size: int\n"
            "    share_index: int\n",
        ],
    )
    def test_repr_channel_clean_forms(self, tmp_path, source):
        assert lint_snippet(tmp_path, source, "ARCH010").ok, source

    def test_noqa_with_justification(self, tmp_path):
        source = """
            def f(logger, key):
                logger.warning("k=%s", key)  # noqa: ARCH010 -- test vector, public by design
        """
        report = lint_snippet(tmp_path, source, "ARCH010")
        assert report.ok and report.suppressed == 1

    def test_custom_vocabulary(self, tmp_path):
        source = """
            def f(logger, passphrase):
                logger.info(passphrase)
        """
        assert lint_snippet(tmp_path, source, "ARCH010").ok
        cfg = RuleConfig(options={"vocabulary": ["passphrase"]})
        assert len(lint_snippet(tmp_path, source, "ARCH010", rule_config=cfg).findings) == 1

    def test_vocabulary_matcher(self):
        vocab = ("key", "share", "seed")
        assert matches_secret_vocabulary("round_keys", ("key", "keys"))
        assert matches_secret_vocabulary("seed", vocab)
        assert not matches_secret_vocabulary("key_size", vocab)
        assert not matches_secret_vocabulary("share_index", vocab)
        assert not matches_secret_vocabulary("n_shares", ("share", "shares"))
        assert not matches_secret_vocabulary("object_id", vocab)


class TestArch011ErrorTaxonomy:
    FILES = {
        "src/repro/errors.py": """
            class ReproError(Exception):
                pass

            class ParameterError(ReproError, ValueError):
                pass
        """,
    }

    def _lint(self, tmp_path, body: str, rule_config: RuleConfig | None = None):
        config = Config(roots=("src",))
        if rule_config is not None:
            config.rules["ARCH011"] = rule_config
        return lint_project(
            tmp_path,
            {**self.FILES, "src/repro/mod.py": body},
            config,
            select={"ARCH011"},
        )

    def test_stray_builtin_triggers(self, tmp_path):
        report = self._lint(
            tmp_path,
            """
            def f(n):
                if n < 0:
                    raise ValueError("negative")
            """,
        )
        assert len(report.findings) == 1
        assert "bypasses the repro.errors taxonomy" in report.findings[0].message

    def test_taxonomy_classes_clean(self, tmp_path):
        report = self._lint(
            tmp_path,
            """
            from repro.errors import ParameterError

            def f(n):
                if n < 0:
                    raise ParameterError("negative")
            """,
        )
        assert report.ok

    @pytest.mark.parametrize(
        "body",
        [
            # Bare re-raise and caught-variable re-raise are never flagged.
            "def f():\n    try:\n        g()\n    except KeyError:\n        raise\n",
            "def f():\n    try:\n        g()\n    except KeyError as err:\n        raise err\n",
            # Allowlisted builtins (abstract protocol methods).
            "def f():\n    raise NotImplementedError\n",
        ],
    )
    def test_reraise_and_allowlisted_forms_clean(self, tmp_path, body):
        assert self._lint(tmp_path, body).ok, body

    def test_allow_builtins_option(self, tmp_path):
        body = "def f():\n    raise ZeroDivisionError('no inverse of 0')\n"
        assert len(self._lint(tmp_path, body).findings) == 1
        cfg = RuleConfig(options={"allow_builtins": ["ZeroDivisionError"]})
        assert self._lint(tmp_path, body, rule_config=cfg).ok

    def test_noqa_with_justification(self, tmp_path):
        body = (
            "def f():\n"
            "    raise AssertionError('unreachable')  # noqa: ARCH011 -- defensive guard\n"
        )
        report = self._lint(tmp_path, body)
        assert report.ok and report.suppressed == 1

    def test_scope_limits_rule(self, tmp_path):
        body = "def f():\n    raise ValueError('x')\n"
        cfg = RuleConfig(scope=("src/other/*",))
        assert self._lint(tmp_path, body, rule_config=cfg).ok


class TestEngineEdgeCases:
    def test_noqa_on_decorated_def(self, tmp_path):
        source = """
            def deco(fn):
                return fn

            @deco
            def gather(shares=[]):  # noqa: ARCH006 -- never mutated
                return shares
        """
        report = lint_snippet(tmp_path, source, "ARCH006")
        assert report.ok and report.suppressed == 1

    def test_noqa_on_last_line_of_multiline_expression(self, tmp_path):
        # The flagged label expression spans two lines; the noqa sits on the
        # *last* one, which only works because findings carry end_line.
        source = """
            def record(metrics, object_id):
                metrics.inc(
                    "storage_puts_total",
                    node="node-"
                    + str(object_id),  # noqa: ARCH005 -- bounded by fixture fleet
                )
        """
        report = lint_snippet(tmp_path, source, "ARCH005")
        assert report.ok and report.suppressed == 1
        # Without the suppression the same shape is flagged, anchored on the
        # expression's first line.
        bare = source.replace("  # noqa: ARCH005 -- bounded by fixture fleet", "")
        flagged = lint_snippet(tmp_path, bare, "ARCH005")
        assert len(flagged.findings) == 1
        assert flagged.findings[0].end_line > flagged.findings[0].line

    def test_select_and_baseline_interaction(self, tmp_path):
        (tmp_path / "old.py").write_text(
            "import os\n\ndef f(xs=[]):\n    return xs\n"
        )
        config = Config(roots=(".",), baseline="baseline.json")
        full = run_lint(tmp_path, config, ALL_RULES)
        assert {f.code for f in full.findings} == {"ARCH002", "ARCH006"}
        write_baseline(tmp_path, "baseline.json", full.findings)
        # Selecting one rule replays only that rule's baseline entries; the
        # other rule's entries neither fire nor count as baselined.
        only_006 = run_lint(tmp_path, config, ALL_RULES, select={"ARCH006"})
        assert only_006.ok and only_006.baselined == 1
        only_002 = run_lint(tmp_path, config, ALL_RULES, select={"ARCH002"})
        assert only_002.ok and only_002.baselined == 1
        everything = run_lint(tmp_path, config, ALL_RULES)
        assert everything.ok and everything.baselined == 2

    def test_deterministic_report_ordering(self, tmp_path):
        files = {
            "b.py": "import os\n\ndef f(xs=[]):\n    return xs\n",
            "a.py": "import sys\n\ndef g(m={}):\n    return m\n",
        }
        for name, source in files.items():
            (tmp_path / name).write_text(source)
        config = Config(roots=(".",))
        first = run_lint(tmp_path, config, ALL_RULES)
        second = run_lint(tmp_path, config, ALL_RULES)
        rendered = [f.render() for f in first.findings]
        assert rendered == [f.render() for f in second.findings]
        assert rendered == sorted(rendered)
        assert len(rendered) == 4


class TestIncrementalCache:
    def _project(self, tmp_path):
        (tmp_path / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        (tmp_path / "good.py").write_text(
            "def g(ys=[]):  # noqa: ARCH006 -- never mutated\n    return ys\n"
        )
        return Config(roots=(".",), cache="cache.json")

    def test_cache_roundtrip_same_findings(self, tmp_path):
        config = self._project(tmp_path)
        first = run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        assert (tmp_path / "cache.json").is_file()
        second = run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        assert [f.render() for f in second.findings] == [
            f.render() for f in first.findings
        ]
        # Suppression totals replay too: warm and cold reports are identical.
        assert first.suppressed == second.suppressed == 1

    def test_cache_hit_replays_stored_findings(self, tmp_path):
        # Prove the second run reads the cache: inject a synthetic finding
        # under the file's current content hash and watch it come back.
        config = self._project(tmp_path)
        run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        cache_path = tmp_path / "cache.json"
        data = json.loads(cache_path.read_text())
        (bucket,) = data["buckets"].values()
        bucket["files"]["good.py"]["findings"].append(
            ["good.py", 1, 0, "ARCH006", "injected marker", 1]
        )
        cache_path.write_text(json.dumps(data))
        replay = run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        assert any(f.message == "injected marker" for f in replay.findings)

    def test_edited_file_invalidates_its_entry(self, tmp_path):
        config = self._project(tmp_path)
        first = run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        assert len(first.findings) == 1
        (tmp_path / "bad.py").write_text("def f(xs=None):\n    return xs\n")
        second = run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        assert second.ok

    def test_config_change_invalidates_everything(self, tmp_path):
        config = self._project(tmp_path)
        run_lint(tmp_path, config, ALL_RULES, use_cache=True)
        stricter = Config(roots=(".",), cache="cache.json")
        stricter.rules["ARCH006"] = RuleConfig(allow=("bad.py",))
        report = run_lint(tmp_path, stricter, ALL_RULES, use_cache=True)
        assert report.ok  # the allow applies: stale cache was not replayed

    def test_no_cache_runs_leave_no_file(self, tmp_path):
        config = self._project(tmp_path)
        run_lint(tmp_path, config, ALL_RULES)
        assert not (tmp_path / "cache.json").exists()

    def test_program_phase_cached_and_invalidated(self, tmp_path):
        files = {
            "src/pkg/__init__.py": "",
            "src/pkg/low/__init__.py": "",
            "src/pkg/low/mod.py": "from pkg.high import impl\n",
            "src/pkg/high/__init__.py": "",
            "src/pkg/high/impl.py": "",
        }
        config = _layered_config(TestArch009ImportLayering.DAG)
        config.cache = "cache.json"
        first = lint_project(tmp_path, files, config, select={"ARCH009"}, use_cache=True)
        assert len(first.findings) == 1
        second = run_lint(tmp_path, config, ALL_RULES, select={"ARCH009"}, use_cache=True)
        assert [f.render() for f in second.findings] == [
            f.render() for f in first.findings
        ]
        (tmp_path / "src/pkg/low/mod.py").write_text("value = 1\n")
        third = run_lint(tmp_path, config, ALL_RULES, select={"ARCH009"}, use_cache=True)
        assert third.ok


class TestRepoContract:
    """The tree itself must satisfy the policy pyproject.toml declares."""

    def test_src_repro_lints_clean(self):
        config = load_config(REPO_ROOT)
        report = run_lint(REPO_ROOT, config, ALL_RULES, paths=["src/repro"])
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        assert report.rules_run == list(ALL_CODES)
        assert report.files_checked > 50

    def test_whole_program_rules_clean_modulo_baseline(self):
        # The PR contract: the whole-program rules over src/repro surface
        # nothing beyond the committed baseline (deferred debt must shrink,
        # and any new violation fails here before it fails in CI).
        config = load_config(REPO_ROOT)
        report = run_lint(
            REPO_ROOT,
            config,
            ALL_RULES,
            paths=["src/repro"],
            select={"ARCH009", "ARCH010", "ARCH011", "ARCH012", "ARCH013"},
        )
        assert report.errors == []
        assert report.findings == [], "\n".join(
            finding.render() for finding in report.findings
        )
        # The last deferred item (integrity.audit -> storage.node) was fixed
        # by auditing through the AuditableNode protocol; the baseline is
        # empty and the ratchet only allows it to stay that way.
        assert report.baselined == 0

    def test_layering_dag_is_declared_in_pyproject(self):
        config = load_config(REPO_ROOT)
        layers = config.layers
        assert layers is not None
        assert layers.src_root == "src"
        assert "repro.errors" in layers.foundation
        assert layers.facade == ("repro",)
        closure = transitive_closure(layers.dag)
        # Spot-check the paper's dependency spine end to end.
        assert "repro.gmath" in closure["repro.crypto"]
        assert "repro.crypto" in closure["repro.secretsharing"]
        assert "repro.secretsharing" in closure["repro.storage"]
        assert "repro.storage" in closure["repro.core"]
        assert "repro.core" in closure["repro.service"]
        # And the reverse direction is never legal.
        assert "repro.service" not in closure["repro.gmath"]

    def test_entropy_boundary_is_allowlisted(self):
        config = load_config(REPO_ROOT)
        arch003 = config.rule("ARCH003")
        rule = RULES_BY_CODE["ARCH003"]
        assert not rule.applies_to("src/repro/crypto/drbg.py", arch003)
        assert not rule.applies_to("src/repro/obs/metrics.py", arch003)
        assert rule.applies_to("src/repro/storage/faults.py", arch003)
        # and the boundary is scoped to the library, not the whole repo
        assert not rule.applies_to("tests/test_faults.py", arch003)


class TestCli:
    def _make_project(self, tmp_path: Path) -> Path:
        (tmp_path / "pyproject.toml").write_text(
            '[tool.archlint]\nroots = ["pkg"]\n'
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "bad.py").write_text("def f(xs=[]):\n    return xs\n")
        (pkg / "good.py").write_text("def g():\n    return 1\n")
        return tmp_path

    def _run(self, args: list[str], cwd: Path) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "archlint", *args],
            cwd=cwd,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "tools"), "PATH": "/usr/bin:/bin"},
        )

    def test_json_report_and_exit_codes(self, tmp_path):
        project = self._make_project(tmp_path)
        result = self._run(["--format", "json", "--output", "report.json"], project)
        assert result.returncode == 1, result.stderr
        payload = json.loads(result.stdout)
        assert payload["tool"] == "archlint"
        assert payload["counts"]["findings"] == 1
        assert payload["findings"][0]["code"] == "ARCH006"
        assert payload["findings"][0]["path"] == "pkg/bad.py"
        on_disk = json.loads((project / "report.json").read_text())
        assert on_disk == payload

    def test_select_skips_other_rules(self, tmp_path):
        project = self._make_project(tmp_path)
        result = self._run(["--select", "ARCH001"], project)
        assert result.returncode == 0, result.stdout
        assert "ARCH001" in result.stdout

    def test_list_rules(self, tmp_path):
        result = self._run(["--list-rules"], tmp_path)
        assert result.returncode == 0
        for code in ALL_CODES:
            assert code in result.stdout

    def test_cyclic_layer_dag_is_a_config_error(self, tmp_path):
        project = self._make_project(tmp_path)
        (project / "pyproject.toml").write_text(
            "[tool.archlint]\n"
            'roots = ["pkg"]\n'
            "[tool.archlint.layers]\n"
            'src_root = "."\n'
            "[tool.archlint.layers.dag]\n"
            'a = ["b"]\n'
            'b = ["a"]\n'
        )
        result = self._run([], project)
        assert result.returncode == 2
        assert "config error" in result.stderr
        assert "cycle" in result.stderr

    def test_cache_written_by_default_and_suppressed_by_flag(self, tmp_path):
        project = self._make_project(tmp_path)
        (project / "pyproject.toml").write_text(
            '[tool.archlint]\nroots = ["pkg"]\ncache = ".archlint_cache.json"\n'
        )
        self._run(["--no-cache"], project)
        assert not (project / ".archlint_cache.json").exists()
        self._run([], project)
        assert (project / ".archlint_cache.json").is_file()
        # A cached re-run reports the identical findings.
        first = json.loads(self._run(["--format", "json"], project).stdout)
        second = json.loads(self._run(["--format", "json"], project).stdout)
        assert first["findings"] == second["findings"]
