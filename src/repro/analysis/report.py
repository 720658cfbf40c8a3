"""Reporting helpers: markdown tables and terminal charts.

The experiment drivers return lists of plain dicts; these helpers turn
them into markdown (for EXPERIMENTS.md-style records) and quick ASCII
charts (for the CLI), with no plotting dependencies.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple


def markdown_table(
    rows: Sequence[Mapping],
    columns: Optional[Sequence[str]] = None,
    float_digits: int = 3,
) -> str:
    """Render dict rows as a GitHub-flavoured markdown table."""
    rows = list(rows)
    if not rows:
        return "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())

    def fmt(value) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            return f"{value:.{float_digits}f}"
        return str(value)

    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(fmt(row.get(col)) for col in columns) + " |"
        )
    return "\n".join(lines)


def split_panels(rows: Iterable[Mapping]) -> Tuple[List, Dict[str, List]]:
    """(main rows, panel kind -> its rows) of a driver's rows: the rows
    ``extra_workloads`` adds carry ``"panel": <kind>`` and a shape of
    their own."""
    main: List[Mapping] = []
    panels: Dict[str, List[Mapping]] = {}
    for row in rows:
        if "panel" in row:
            panels.setdefault(row["panel"], []).append(row)
        else:
            main.append(row)
    return main, panels


def bar_chart(
    values: Mapping[str, float],
    width: int = 50,
    unit: str = "",
) -> str:
    """Horizontal ASCII bar chart, scaled to the largest value."""
    if not values:
        return "(no data)"
    peak = max(abs(v) for v in values.values()) or 1.0
    label_width = max(len(str(k)) for k in values)
    lines = []
    for key, value in values.items():
        bar = "#" * max(0, int(round(width * abs(value) / peak)))
        lines.append(f"{str(key):>{label_width}} | {bar} {value:g}{unit}")
    return "\n".join(lines)


def line_chart(
    series: Mapping[str, Sequence[float]],
    height: int = 12,
    width: Optional[int] = None,
) -> str:
    """Multi-series ASCII line chart (one glyph per series).

    Series are sampled/stretched onto a common x-grid; y is scaled to
    the global min/max.  Useful for the Figure-6-style curves in a
    terminal.
    """
    if not series:
        return "(no data)"
    glyphs = "*o+x#@%&"
    longest = max(len(points) for points in series.values())
    if longest == 0:
        return "(no data)"
    width = width or max(longest, 16)
    all_values = [v for points in series.values() for v in points
                  if v is not None]
    if not all_values:
        return "(no data)"
    lo, hi = min(all_values), max(all_values)
    span = (hi - lo) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, points) in enumerate(series.items()):
        glyph = glyphs[index % len(glyphs)]
        clean = [p for p in points if p is not None]
        if not clean:
            continue
        for x in range(width):
            source = min(
                len(clean) - 1, int(x * len(clean) / width)
            )
            value = clean[source]
            y = int((value - lo) / span * (height - 1))
            grid[height - 1 - y][x] = glyph
    lines = ["".join(row) for row in grid]
    legend = "   ".join(
        f"{glyphs[i % len(glyphs)]} {name}"
        for i, name in enumerate(series)
    )
    footer = f"y: [{lo:g} .. {hi:g}]   {legend}"
    return "\n".join(lines + [footer])


def format_experiment(name: str, result) -> str:
    """Best-effort markdown rendering for any experiment result."""
    if isinstance(result, dict):
        first = next(iter(result.values()), None)
        if isinstance(first, dict):
            # nested mapping (table4 style): scheme -> column -> value
            columns = sorted(
                {key for row in result.values() for key in row},
                reverse=True,
            )
            rows = [
                {"scheme": scheme, **{str(c): row.get(c) for c in columns}}
                for scheme, row in result.items()
            ]
            return f"### {name}\n\n" + markdown_table(
                rows, ["scheme"] + [str(c) for c in columns]
            )
        rows = [{"key": k, "value": v} for k, v in result.items()
                if not isinstance(v, (list, tuple))]
        return f"### {name}\n\n" + markdown_table(rows)
    main, panels = split_panels(result)
    sections = [f"### {name}\n\n" + markdown_table(main)]
    for kind, panel_rows in panels.items():
        sections.append(f"### panel: {kind}\n\n" + markdown_table(panel_rows))
    return "\n\n".join(sections)
