"""Report rendering: tables and text bar charts for the benchmark harness."""

from .figures import BAR_WIDTH, GroupedBarChart, render_bar
from .summary import render_performance_summary
from .tables import Table, percent

__all__ = [
    "Table",
    "percent",
    "GroupedBarChart",
    "render_bar",
    "BAR_WIDTH",
    "render_performance_summary",
]
