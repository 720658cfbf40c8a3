"""Unit tests for the reporting helpers."""

import pytest

from repro.analysis.report import (
    bar_chart,
    format_experiment,
    line_chart,
    markdown_table,
    split_panels,
)


class TestMarkdownTable:
    def test_basic_rendering(self):
        table = markdown_table([{"a": 1, "b": 2.5}, {"a": 3, "b": None}])
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.500 |" in lines
        assert "| 3 | - |" in lines

    def test_column_selection(self):
        table = markdown_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in table.splitlines()[0]

    def test_empty(self):
        assert markdown_table([]) == "(no rows)"


class TestBarChart:
    def test_scales_to_peak(self):
        chart = bar_chart({"x": 10.0, "y": 5.0}, width=10)
        lines = chart.splitlines()
        assert lines[0].count("#") == 10
        assert lines[1].count("#") == 5

    def test_unit_suffix(self):
        chart = bar_chart({"x": 1.0}, unit="%")
        assert "1%" in chart

    def test_empty(self):
        assert bar_chart({}) == "(no data)"


class TestLineChart:
    def test_renders_all_series(self):
        chart = line_chart(
            {"up": [0, 1, 2, 3], "down": [3, 2, 1, 0]}, height=4, width=8
        )
        assert "*" in chart and "o" in chart
        assert "up" in chart and "down" in chart

    def test_monotone_series_shape(self):
        chart = line_chart({"up": [0, 1, 2, 3]}, height=4, width=4)
        rows = chart.splitlines()[:-1]
        first_col = [row[0] for row in rows]
        last_col = [row[-1] for row in rows]
        # rising series: mark near the bottom-left, top-right
        assert first_col[-1] == "*"
        assert last_col[0] == "*"

    def test_handles_none_values(self):
        chart = line_chart({"s": [1.0, None, 3.0]})
        assert "y:" in chart

    def test_empty(self):
        assert line_chart({}) == "(no data)"


class TestFormatExperiment:
    def test_list_of_dicts(self):
        text = format_experiment("fig", [{"a": 1}])
        assert text.startswith("### fig")
        assert "| a |" in text

    def test_nested_mapping(self):
        text = format_experiment(
            "table4", {"Mithril": {50_000: 0.08, 25_000: 0.17}}
        )
        assert "Mithril" in text
        assert "50000" in text

    def test_panel_rows_get_their_own_tables(self):
        main = {"flip_th": 1500, "scheme": "graphene",
                "normal_rel_perf_pct": 99.5}
        panel = {"flip_th": 1500, "scheme": "graphene",
                 "panel": "capacity-pressure", "rel_perf_pct": 97.25}
        text = format_experiment("fig11", [main, panel])
        head, _, tail = text.partition("### panel: capacity-pressure")
        assert "| flip_th | scheme | normal_rel_perf_pct |" in head
        assert "97.25" not in head
        assert "| flip_th | scheme | panel | rel_perf_pct |" in tail
        assert "| 1500 | graphene | capacity-pressure | 97.250 |" in tail

    def test_split_panels_groups_by_kind_in_order(self):
        rows = [{"a": 1}, {"panel": "y", "b": 1}, {"a": 2},
                {"panel": "x", "b": 2}, {"panel": "y", "b": 3}]
        main, panels = split_panels(rows)
        assert main == [{"a": 1}, {"a": 2}]
        assert list(panels) == ["y", "x"]
        assert [row["b"] for row in panels["y"]] == [1, 3]

    def test_flat_mapping(self):
        text = format_experiment("fig8", {"mean_burst_length": 128.0})
        assert "mean_burst_length" in text
