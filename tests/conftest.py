"""Shared fixtures and view-building helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.consistency import GatheredViews
from repro.core.costs import CostModel, DistanceCost
from repro.core.views import Hello, LocalView, MultiVersionView
from repro.mobility.base import Area
from removal_oracles import LocalCostGraph


@pytest.fixture
def rng():
    """A fixed-seed Generator; tests needing other seeds spawn their own."""
    return np.random.default_rng(12345)


@pytest.fixture
def area():
    """The paper's 900 x 900 m deployment area."""
    return Area(900.0, 900.0)


def make_hello(
    sender: int,
    position: tuple[float, float],
    version: int = 1,
    sent_at: float = 0.0,
    timestamp: float | None = None,
) -> Hello:
    """Build a Hello with sensible defaults."""
    return Hello(
        sender=sender,
        version=version,
        position=(float(position[0]), float(position[1])),
        sent_at=sent_at,
        timestamp=sent_at if timestamp is None else timestamp,
    )


def gather(mechanism, tables, now, positions, version=None):
    """``(views, errors)``: the views of the owners that can decide now,
    read at once, and the ViewError of every other owner by its index,
    through the mechanism's ``resolve_many`` and ``views``."""
    resolved, errors = mechanism.resolve_many(tables, positions, version)
    rows = [i for i, r in enumerate(resolved) if r is not None]
    views = mechanism.views([tables[i] for i in rows], now, [resolved[i] for i in rows])
    return GatheredViews.concat([views]), errors


def select_all(mechanism, protocol, tables, now, positions, version=None):
    """Each owner's selection through :func:`gather` and the mechanism's
    ``select``, in order; None where the owner cannot decide."""
    views, errors = gather(mechanism, tables, now, positions, version)
    selected = iter(mechanism.select(protocol, views))
    return [None if i in errors else next(selected) for i in range(len(tables))]


def select_one(mechanism, protocol, table, now, position, version=None):
    """One owner's selection through :func:`gather` and the mechanism's
    ``select``; raises the owner's ViewError when it cannot decide."""
    views, errors = gather(mechanism, [table], now, [position], version)
    if errors:
        raise errors[0]
    return mechanism.select(protocol, views)[0]


def make_view(
    owner: int,
    positions: dict[int, tuple[float, float]],
    normal_range: float = 100.0,
    sampled_at: float = 0.0,
) -> LocalView:
    """Single-version view of *owner*; *positions* maps every member
    (including the owner) to its advertised position."""
    own = make_hello(owner, positions[owner], sent_at=sampled_at)
    neighbors = {
        nid: make_hello(nid, pos, sent_at=sampled_at)
        for nid, pos in positions.items()
        if nid != owner
    }
    return LocalView(
        owner=owner,
        own_hello=own,
        neighbor_hellos=neighbors,
        normal_range=normal_range,
        sampled_at=sampled_at,
    )


def make_multi_view(
    owner: int,
    histories: dict[int, list[tuple[float, float]]],
    normal_range: float = 100.0,
    sampled_at: float = 0.0,
) -> MultiVersionView:
    """Multi-version view; *histories* maps members to position lists
    (oldest first), owner included."""
    def hellos(nid: int) -> list[Hello]:
        return [
            make_hello(nid, pos, version=i + 1, sent_at=sampled_at - (len(hist) - 1 - i))
            for i, pos in enumerate(hist)
        ]

    out = {}
    for nid, hist in histories.items():
        out[nid] = hellos(nid)
    return MultiVersionView(
        owner=owner,
        own_hellos=out[owner],
        neighbor_hellos={nid: hs for nid, hs in out.items() if nid != owner},
        normal_range=normal_range,
        sampled_at=sampled_at,
    )


def interval_graph(
    view: MultiVersionView, cost_model: CostModel | None = None
) -> LocalCostGraph:
    """The interval-cost graph the enhanced conditions run on, built from
    the view's distance bounds."""
    return LocalCostGraph.from_distance_bounds(
        *view.distance_bounds(), view.normal_range, cost_model or DistanceCost()
    )
