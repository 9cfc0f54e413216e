"""Shared utilities: deterministic RNG handling, ASCII tables, run logging."""

from repro.utils.rng import as_generator, spawn, seed_everything
from repro.utils.tables import Table, format_series
from repro.utils.log import RunLog, Timer
from repro.utils.checkpoint import (
    CheckpointCorruptError,
    CheckpointManager,
    RNGState,
    load_checkpoint,
    save_checkpoint,
)
from repro.utils.ascii_plot import line_chart, sparkline

__all__ = [
    "line_chart",
    "sparkline",
    "as_generator",
    "spawn",
    "seed_everything",
    "Table",
    "format_series",
    "RunLog",
    "Timer",
    "save_checkpoint",
    "load_checkpoint",
    "RNGState",
    "CheckpointCorruptError",
    "CheckpointManager",
]
