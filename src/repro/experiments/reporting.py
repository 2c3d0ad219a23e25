"""Textual reporting: the rows/series the benchmarks print.

The paper's figures are line plots; the equivalent textual artefact is one
table per figure with a row per x-value and a column per series, which is
what these formatters produce.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def format_series_table(
    title: str,
    x_label: str,
    x_values: Sequence[float],
    series: Dict[str, Sequence[Optional[float]]],
    value_format: str = "{:.4f}",
) -> str:
    """Render aligned columns: x followed by one column per named series.

    ``series`` maps a column name to values aligned with ``x_values``;
    missing values render as ``-``.
    """
    names = list(series.keys())
    for name in names:
        if len(series[name]) != len(x_values):
            raise ValueError(
                f"series {name!r} has {len(series[name])} values for "
                f"{len(x_values)} x points"
            )
    header = [x_label.rjust(8)] + [name.rjust(12) for name in names]
    lines = [title, " ".join(header), "-" * (9 + 13 * len(names))]
    for row_index, x in enumerate(x_values):
        if _is_number(x):
            cells = [f"{x:8.2f}"]
        else:
            cells = [str(x).rjust(8)]
        for name in names:
            value = series[name][row_index]
            if value is None:
                cells.append("-".rjust(12))
            else:
                cells.append(value_format.format(value).rjust(12))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def pick_x_axis(axis_names: Sequence[str], records: Sequence[Dict]) -> str:
    """The axis that should be a table's rows: the last all-numeric one.

    Numeric axes (malicious rate, uptime, α) make natural x columns;
    categorical axes (scheme) read better as series.  Falls back to the
    final axis when every axis is categorical.
    """
    if not axis_names:
        raise ValueError("pick_x_axis needs at least one axis")
    for name in reversed(axis_names):
        if all(_is_number(record["point"][name]) for record in records):
            return name
    return axis_names[-1]


def sweep_series(
    axis_names: Sequence[str],
    records: Sequence[Dict],
    value_key: str = "value",
    x_axis: Optional[str] = None,
) -> Tuple[List, Dict[str, List[Optional[float]]]]:
    """Pivot sweep-point records into (x_values, series) for a table.

    ``x_axis`` (default: :func:`pick_x_axis`) is the row dimension; every
    combination of the remaining axes becomes one named series.
    ``records`` are orchestrator records: dicts with a ``"point"`` (axis
    name → value) and a ``"result"`` (containing ``value_key``).  Grid
    order is preserved; a hole in the grid renders as a missing value.
    """
    if not axis_names:
        raise ValueError("sweep_series needs at least one axis")
    if x_axis is None:
        x_axis = pick_x_axis(axis_names, records)
    elif x_axis not in axis_names:
        raise ValueError(f"x_axis {x_axis!r} is not one of {list(axis_names)}")
    group_axes = [name for name in axis_names if name != x_axis]

    x_values: List = []
    for record in records:
        x = record["point"][x_axis]
        if x not in x_values:
            x_values.append(x)

    def label(point: Dict) -> str:
        if not group_axes:
            return value_key
        return " ".join(f"{axis}={point[axis]}" for axis in group_axes)

    series: Dict[str, List[Optional[float]]] = {}
    for record in records:
        name = label(record["point"])
        column = series.setdefault(name, [None] * len(x_values))
        value = record["result"].get(value_key)
        column[x_values.index(record["point"][x_axis])] = (
            float(value) if value is not None else None
        )
    return x_values, series


def format_sweep_table(
    title: str,
    axis_names: Sequence[str],
    records: Sequence[Dict],
    value_key: str = "value",
    value_format: str = "{:.4f}",
    x_axis: Optional[str] = None,
) -> str:
    """Render orchestrator sweep records as one aligned series table."""
    if not axis_names:
        lines = [title]
        for record in records:
            value = record["result"].get(value_key)
            lines.append(f"  {value_key} = {value}")
        return "\n".join(lines)
    if x_axis is None:
        x_axis = pick_x_axis(axis_names, records)
    x_values, series = sweep_series(
        axis_names, records, value_key=value_key, x_axis=x_axis
    )
    return format_series_table(
        title, x_axis, x_values, series, value_format=value_format
    )
