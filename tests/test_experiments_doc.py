"""EXPERIMENTS.md quotes the committed results, number for number.

The doc says re-running the benchmarks reproduces every number in it.
For the Figure 6, Table 3 and Table 4 tables that claim is checked here:
each measured cell must equal the matching value in ``results/`` (Table
4's cells rounded to the precision they print), so a regenerated result
file and a stale table cannot both be committed.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
POLICIES = ("buddy", "restricted", "extent", "fixed")


def doc_section(title: str) -> str:
    text = (ROOT / "EXPERIMENTS.md").read_text()
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


def markdown_tables(section: str) -> list[list[list[str]]]:
    """Each table's body rows (header and rule dropped), cells stripped."""
    tables: list[list[list[str]]] = []
    current: list[list[str]] | None = None
    for line in section.splitlines():
        if not line.startswith("|"):
            current = None
            continue
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if current is None:
            current = []
            tables.append(current)
        elif not set("".join(cells)) <= set("-: "):
            current.append(cells)
    return tables


def number(cell: str) -> float:
    """The measured value of a cell: the number after ``→`` when the
    cell reads ``paper → measured``, else the cell's only number."""
    measured = cell.split("→")[-1]
    return float(re.search(r"\d+(?:\.\d+)?", measured).group())


def figure6_results() -> dict[str, dict[tuple[str, str], float]]:
    """``{"6a"|"6b": {(workload, policy): percent}}`` from the bar charts."""
    panels: dict[str, dict[tuple[str, str], float]] = {}
    panel = workload = None
    for line in (ROOT / "results" / "fig6_comparison.txt").read_text().splitlines():
        heading = re.match(r"Figure (6[ab]):", line)
        if heading:
            panel = panels.setdefault(heading.group(1), {})
        elif re.fullmatch(r"  (TS|TP|SC)", line):
            workload = line.strip()
        elif line.startswith("    "):
            label = line.split()[0]
            policy = next(p for p in POLICIES if label.startswith(p))
            panel[(workload, policy)] = float(line.rsplit(None, 1)[-1].rstrip("%"))
    return panels


def test_figure6_tables_match_results():
    tables = markdown_tables(doc_section("Figure 6"))
    assert len(tables) == 2
    results = figure6_results()
    checked = 0
    for panel, table in zip(("6a", "6b"), tables):
        for workload, *cells in table:
            for policy, cell in zip(POLICIES, cells):
                assert number(cell) == results[panel][(workload, policy)], (
                    f"Figure {panel} {workload} {policy}"
                )
                checked += 1
    assert checked == 24


def test_table3_matches_results():
    (table,) = markdown_tables(doc_section("Table 3"))
    measured = {}
    for line in (ROOT / "results" / "table3_buddy.txt").read_text().splitlines():
        fields = line.split()
        if fields and fields[0] in ("TS", "TP", "SC"):
            measured[fields[0]] = [float(f.rstrip("%")) for f in fields[1:]]
    assert sorted(row[0] for row in table) == sorted(measured)
    for workload, *cells in table:
        assert [number(cell) for cell in cells] == measured[workload], workload


def test_table4_matches_results():
    (table,) = markdown_tables(doc_section("Table 4"))
    measured = {}
    results = (ROOT / "results" / "table4_extents_per_file.txt").read_text()
    for line in results.splitlines():
        fields = line.split()
        if fields and fields[0].isdigit():
            measured[fields[0]] = [float(field) for field in fields[1:]]
    assert sorted(row[0] for row in table) == sorted(measured)
    for ranges, *cells in table:
        assert len(cells) == 3, ranges
        for workload, cell, value in zip(("SC", "TP", "TS"), cells, measured[ranges]):
            printed = re.search(r"\d+(?:\.(\d+))?", cell.split("→")[-1])
            decimals = len(printed.group(1) or "")
            assert f"{value:.{decimals}f}" == printed.group(), (
                f"Table 4 {ranges} ranges {workload}: {cell} vs {value}"
            )
