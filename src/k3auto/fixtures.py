"""Bundled fixtures: the Weierstrass model, its three maps, and the 20-curve
incidence graph with its three actions.

Every acceptance check in the test suite runs against this bundle alone.
"""
from __future__ import annotations

import functools
from importlib import resources
from typing import NamedTuple

from .files import load_graph_text, load_surface_text
from .funfield import SurfaceMap
from .rigidity import CurveConfig, GraphAction
from .surface import WeierstrassModel


def fixture_path(name: str):
    """Filesystem path of a bundled fixture file."""
    return resources.files(__package__) / "fixtures" / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


class FixtureBundle(NamedTuple):
    model: WeierstrassModel
    maps: dict[str, SurfaceMap]
    config: CurveConfig
    actions: dict[str, GraphAction]


@functools.lru_cache(maxsize=None)
def load_bundle() -> FixtureBundle:
    model, maps = load_surface_text(fixture_text("order16_surface.txt"))
    config, actions = load_graph_text(fixture_text("order16_graph.txt"))
    return FixtureBundle(model, maps, config, actions)
