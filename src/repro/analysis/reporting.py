"""Plain-text table rendering for benchmark output and EXPERIMENTS.md."""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Sequence

from repro.chase.engine import ChaseStatistics


def format_table(headers: Sequence[str], rows: Iterable[Sequence[Any]],
                 title: str = "") -> str:
    """Render a fixed-width text table (markdown-compatible pipes)."""
    rendered_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))

    def line(cells: Sequence[str]) -> str:
        padded = [cell.ljust(widths[index]) for index, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    separator = "|" + "|".join("-" * (width + 2) for width in widths) + "|"
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(line(list(headers)))
    lines.append(separator)
    for row in rendered_rows:
        lines.append(line(row))
    return "\n".join(lines)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, dict):
        return ", ".join(f"{k}={v}" for k, v in value.items())
    return str(value)


def series_report(name: str, xs: Sequence[Any], ys: Sequence[Any],
                  x_label: str = "x", y_label: str = "y") -> str:
    """Render a single (x, y) series as a two-column table."""
    return format_table(
        headers=[x_label, y_label],
        rows=list(zip(xs, ys)),
        title=name,
    )


def chase_statistics_report(statistics_by_engine: Mapping[str, ChaseStatistics],
                            title: str = "chase work accounting") -> str:
    """Side-by-side work accounting for chase runs, one column per engine.

    Renders one row per counter in ``ChaseStatistics.COUNTERS``, then the
    derived ``total_steps``, ``max_level_reached`` and ``triggers_fired``,
    so the incremental-chase benchmark can print legacy and columnar runs
    of the same workload next to each other.  The derived rows come from
    the statistics object's own properties, keeping this table truthful
    by construction.
    """
    engines = list(statistics_by_engine)
    rows = [
        [name] + [getattr(statistics_by_engine[engine], name) for engine in engines]
        for name in (*ChaseStatistics.COUNTERS,
                     "total_steps", "max_level_reached", "triggers_fired")
    ]
    return format_table(headers=["counter"] + engines, rows=rows, title=title)
