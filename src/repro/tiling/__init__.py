"""Tiling layer: expressions, enumeration, schedule expansion, DAG analysis."""

from repro.tiling.dag import (
    MemoryOptReport,
    ScheduleDAG,
    dag_summary,
    dead_loops,
    memory_opt_report,
    schedule_dag,
)
from repro.tiling.enumeration import (
    all_tilings,
    bindable_spatial_loops,
    deep_tilings,
    flat_tilings,
    sub_tiling_expr,
)
from repro.tiling.expr import LoopNest, TilingExpr, parse_expr
from repro.tiling.schedule import (
    GRID,
    InvalidScheduleError,
    LoopScope,
    Schedule,
    Statement,
    build_schedule,
)

__all__ = [
    "TilingExpr",
    "LoopNest",
    "parse_expr",
    "deep_tilings",
    "flat_tilings",
    "all_tilings",
    "bindable_spatial_loops",
    "sub_tiling_expr",
    "Schedule",
    "Statement",
    "LoopScope",
    "build_schedule",
    "InvalidScheduleError",
    "GRID",
    "ScheduleDAG",
    "schedule_dag",
    "dead_loops",
    "dag_summary",
    "memory_opt_report",
    "MemoryOptReport",
]
