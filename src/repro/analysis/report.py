"""Plain-text table rendering for benchmark output.

The benchmarks print the same rows the paper's tables report; this renderer
keeps that output aligned and diff-friendly (fixed column order, no
locale-dependent formatting).
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import ParameterError


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ParameterError("a table needs headers")
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ParameterError("row width does not match headers")
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in str_rows)) if str_rows else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


# -- observability report ------------------------------------------------------


def render_metrics_report(snapshot: dict, host: dict | None = None) -> str:
    """Render a :meth:`repro.obs.MetricsRegistry.snapshot` as aligned tables.

    Sections: counters (sorted by name), gauges, histogram summaries
    (count / mean / min / max, durations shown in milliseconds) and, given
    the registry's *host* part (``host_snapshot()``), its host-time
    histograms.  Used by ``python -m repro.analysis --metrics``.
    """
    sections = []
    counters = snapshot.get("counters", {})
    if counters:
        sections.append(
            render_table(
                headers=["Counter", "Value"],
                rows=[(name, _fmt_count(v)) for name, v in counters.items()],
                title="Counters",
            )
        )
    gauges = snapshot.get("gauges", {})
    if gauges:
        sections.append(
            render_table(
                headers=["Gauge", "Value"],
                rows=list(gauges.items()),
                title="Gauges",
            )
        )
    for title, histograms in (
        ("Histograms", snapshot.get("histograms", {})),
        ("Host-time histograms", (host or {}).get("histograms", {})),
    ):
        if not histograms:
            continue
        rows = []
        for name, summary in histograms.items():
            seconds = name.endswith("_seconds") or "_seconds{" in name
            scale, unit = (1e3, " ms") if seconds else (1, "")
            rows.append(
                (
                    name,
                    summary["count"],
                    f"{summary['mean'] * scale:.3f}{unit}",
                    f"{(summary['min'] or 0) * scale:.3f}{unit}",
                    f"{(summary['max'] or 0) * scale:.3f}{unit}",
                )
            )
        sections.append(
            render_table(
                headers=["Histogram", "Count", "Mean", "Min", "Max"],
                rows=rows,
                title=title,
            )
        )
    if not sections:
        return "Metrics\n(no metrics recorded)"
    return "\n\n".join(sections)


def _fmt_count(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.2f}"
    return str(int(value))
