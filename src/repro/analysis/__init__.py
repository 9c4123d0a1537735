"""Experiment harness and table rendering."""

from repro.analysis.experiments import (
    flow_policy_factories,
    run_flow_point,
    run_flow_sweep,
    run_ws_point,
    run_ws_sweep,
    scale_trace,
    ws_scheduler_factories,
)
from repro.analysis.baselines import (
    BaselineMismatch,
    compare_to_baseline,
    save_baseline,
)
from repro.analysis.charts import figure_svg_from_rows, line_chart_svg, save_figure_svg
from repro.analysis.replication import Replication, replicate, significantly_less
from repro.analysis.report import (
    ReportConfig,
    build_report,
    stream_report,
    stream_summary_rows,
    write_report,
)
from repro.analysis.tables import (
    ascii_plot,
    format_table,
    pivot,
    save_rows,
    series_table,
)
from repro.analysis.timeline import TimelineRecorder, occupancy, render_timeline

__all__ = [
    "flow_policy_factories",
    "run_flow_point",
    "run_flow_sweep",
    "run_ws_point",
    "run_ws_sweep",
    "scale_trace",
    "ws_scheduler_factories",
    "ascii_plot",
    "format_table",
    "pivot",
    "save_rows",
    "series_table",
    "BaselineMismatch",
    "compare_to_baseline",
    "save_baseline",
    "figure_svg_from_rows",
    "line_chart_svg",
    "save_figure_svg",
    "Replication",
    "replicate",
    "significantly_less",
    "ReportConfig",
    "build_report",
    "write_report",
    "stream_report",
    "stream_summary_rows",
    "TimelineRecorder",
    "occupancy",
    "render_timeline",
]
