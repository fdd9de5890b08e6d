"""Shared utilities: deterministic seeding, timing, validation, tables."""

from repro.util.seeding import as_generator, spawn_generators
from repro.util.tables import render_table

__all__ = ["as_generator", "spawn_generators", "render_table"]
