"""Plain-text table rendering for benchmark output and EXPERIMENTS.md."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
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


def chase_statistics_report(statistics_by_engine: Mapping[str, "ChaseStatistics"],
                            title: str = "chase work accounting") -> str:
    """Side-by-side work accounting for chase runs, one column per engine.

    Renders every counter a :class:`~repro.chase.engine.ChaseStatistics`
    carries — rule applications *and* the examined/fired trigger counts —
    so the incremental-chase benchmark can print legacy and columnar runs
    of the same workload next to each other.  The derived totals come
    from the statistics object's own properties, keeping this table
    truthful by construction.
    """
    counters = (
        ("fd steps", lambda s: s.fd_steps),
        ("ind steps", lambda s: s.ind_steps),
        ("redundant ind applications", lambda s: s.redundant_ind_applications),
        ("merged conjuncts", lambda s: s.merged_conjuncts),
        ("total steps", lambda s: s.total_steps),
        ("max level reached", lambda s: s.max_level_reached),
        ("triggers examined", lambda s: s.triggers_examined),
        ("triggers fired", lambda s: s.triggers_fired),
        ("index hits", lambda s: s.index_hits),
        ("delta seeded matches", lambda s: s.delta_seeded_matches),
        ("trigger cache hits", lambda s: s.trigger_cache_hits),
        ("interned terms", lambda s: s.interned_terms),
        ("union-find unions", lambda s: s.union_find_unions),
        ("union-find finds", lambda s: s.union_find_finds),
        ("column probes", lambda s: s.column_probes),
    )
    engines = list(statistics_by_engine)
    rows = [
        [label] + [reader(statistics_by_engine[engine]) for engine in engines]
        for label, reader in counters
    ]
    return format_table(headers=["counter"] + engines, rows=rows, title=title)
