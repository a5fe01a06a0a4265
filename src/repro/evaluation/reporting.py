"""Formatting helpers that turn harness output into printable tables.

The printed tables visually mirror the paper's tables.
"""

from __future__ import annotations

__all__ = [
    "format_metric_table",
    "format_nested_results",
    "format_fig7_series",
]


def _format_value(value):
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def format_metric_table(rows, title=None):
    """Format ``{method: {metric: value}}`` as an aligned text table."""
    if not rows:
        return "(no rows)"
    metric_names = []
    for metrics in rows.values():
        for name in metrics:
            if name not in metric_names:
                metric_names.append(name)

    method_width = max(len(str(m)) for m in rows) + 2
    column_width = max(10, max(len(m) for m in metric_names) + 2)

    lines = []
    if title:
        lines.append(title)
    header = "Method".ljust(method_width) + "".join(
        name.rjust(column_width) for name in metric_names)
    lines.append(header)
    lines.append("-" * len(header))
    for method, metrics in rows.items():
        line = str(method).ljust(method_width)
        for name in metric_names:
            value = metrics.get(name, "")
            line += _format_value(value).rjust(column_width)
        lines.append(line)
    return "\n".join(lines)


def format_nested_results(results, title=None):
    """Format ``{city: {method: {task: {metric: value}}}}`` harness output."""
    blocks = []
    if title:
        blocks.append(f"== {title} ==")
    for city, methods in results.items():
        # Flatten task metrics into single rows: "travel_time.MAE" etc.
        flat_rows = {}
        for method, tasks in methods.items():
            flat = {}
            for task, metrics in tasks.items():
                if isinstance(metrics, dict):
                    for metric, value in metrics.items():
                        flat[f"{task}.{metric}"] = value
                else:
                    flat[task] = metrics
            flat_rows[method] = flat
        blocks.append(format_metric_table(flat_rows, title=f"[{city}]"))
    return "\n\n".join(blocks)


def format_fig7_series(results, title="Fig. 7 pre-training"):
    """Format the Fig. 7 pre-training series as a text table."""
    blocks = [f"== {title} =="]
    for city, series in results.items():
        rows = {}
        for mode, fractions in series.items():
            for fraction, tasks in fractions.items():
                key = f"{mode}@{fraction:.0%}"
                rows[key] = {
                    "tt.MAE": tasks["travel_time"]["MAE"],
                    "rank.MAE": tasks["ranking"]["MAE"],
                    "rank.tau": tasks["ranking"]["tau"],
                }
        blocks.append(format_metric_table(rows, title=f"[{city}]"))
    return "\n\n".join(blocks)
