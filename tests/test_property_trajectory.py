"""The three position routes of a :class:`TrajectorySet` agree bit for bit.

``position(i, t)`` (one binary search in node i's leg row) gives the
position of one node; ``positions_at(t, nodes)`` evaluates the receiver
candidates, and ``positions_at(times, nodes)`` with one time per node
the senders and candidates of many Hellos at once; ``positions(t)``
every node.  The receiver oracle
and the geometry memo mix them freely, so each must equal the others bit
for bit, for every mobility model and at the awkward instants: exactly
on a leg start, on the repeated times of padded legs, below 0 and above
the horizon.  A reference built the way positions were first computed
(a 2-D fancy index of each node's last leg starting at or before ``t``)
pins all three.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mobility import (
    Area,
    GaussMarkov,
    RandomWalk,
    RandomWaypoint,
    ReferencePointGroupMobility,
    ScenarioFileMobility,
    StaticPlacement,
    export_setdest,
)

AREA = Area(400.0, 300.0)
HORIZON = 12.0
N = 9


def _models(seed: int) -> dict:
    def rng(i):
        return np.random.default_rng(seed * 10 + i)

    waypoint = RandomWaypoint(AREA, N, HORIZON, mean_speed=15.0, rng=rng(0), pause_time=1.0)
    return {
        "waypoint": waypoint,
        "walk": RandomWalk(AREA, N, HORIZON, speed=10.0, rng=rng(1), mean_epoch=2.0),
        "gauss-markov": GaussMarkov(AREA, N, HORIZON, mean_speed=12.0, rng=rng(2)),
        "rpgm": ReferencePointGroupMobility(AREA, N, HORIZON, rng=rng(3), n_groups=3),
        "static": StaticPlacement(AREA, N, HORIZON, rng=rng(4)),
        "setdest": ScenarioFileMobility(
            AREA, export_setdest(waypoint.trajectories), HORIZON
        ),
    }


def _reference(traj, t: float) -> np.ndarray:
    """All positions at *t*, computed independently of the class."""
    t = min(max(float(t), 0.0), traj.horizon)
    times = traj.leg_times
    idx = np.clip((times <= t).sum(axis=1) - 1, 0, times.shape[1] - 1)
    rows = np.arange(times.shape[0])
    return traj.leg_points[rows, idx] + traj.leg_velocities[rows, idx] * (
        t - times[rows, idx]
    )[:, np.newaxis]


def _assert_routes_agree(traj, node: int, t: float) -> None:
    want = _reference(traj, t)[node].tobytes()
    assert traj.position(node, t).tobytes() == want
    assert traj.positions(t)[node].tobytes() == want
    assert traj.positions_at(t, np.array([node]))[0].tobytes() == want
    others = np.array([node, (node + 3) % N, node], dtype=np.intp)
    assert traj.positions_at(t, others)[0].tobytes() == want


@pytest.mark.parametrize("name", sorted(_models(0)))
def test_every_leg_start_agrees(name):
    """Every leg start of every node, padded repeats included."""
    traj = _models(0)[name].trajectories
    for node in range(N):
        for t in np.unique(traj.leg_times[node]).tolist():
            _assert_routes_agree(traj, node, t)


def test_padded_legs_are_exercised():
    """The models above do pad rows with repeated leg times."""
    padded = [
        name
        for name, model in _models(0).items()
        if (np.diff(model.trajectories.leg_times, axis=1) == 0).any()
    ]
    assert padded


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    node=st.integers(0, N - 1),
    where=st.sampled_from(["leg", "padded", "below", "above", "inside"]),
    pick=st.integers(0, 2**16),
    offset=st.floats(0.0, 50.0),
)
def test_position_matches_every_route(seed, node, where, pick, offset):
    for traj in (model.trajectories for model in _models(seed).values()):
        _assert_routes_agree(traj, node, _instant(traj, node, where, pick, offset))


def _instant(traj, node: int, where: str, pick: int, offset: float) -> float:
    """An awkward instant for *node*: a leg start, a padded leg's
    repeated time, below 0, above the horizon, or anywhere inside."""
    times = traj.leg_times[node]
    if where == "leg":
        return float(times[pick % times.size])
    if where == "padded":
        repeated = times[1:][np.diff(times) == 0]
        return float(repeated[pick % repeated.size]) if repeated.size else traj.horizon
    if where == "below":
        return -offset - 1e-9
    if where == "above":
        return traj.horizon + offset + 1e-9
    return traj.horizon * (pick / 2**16)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**16),
    hellos=st.lists(
        st.tuples(
            st.integers(0, N - 1),
            st.sampled_from(["leg", "padded", "below", "above", "inside", "zero"]),
            st.integers(0, 2**16),
            st.floats(0.0, 50.0),
        ),
        min_size=1,
        max_size=12,
    ),
)
def test_per_element_times_match_scalar_routes(seed, hellos):
    """``positions_at`` with one time per node equals, row by row, the
    scalar-time ``positions_at`` and ``position`` bit for bit."""
    for traj in (model.trajectories for model in _models(seed).values()):
        nodes = np.array([node for node, *_ in hellos], dtype=np.intp)
        times = np.array([
            -0.0 if where == "zero" else _instant(traj, node, where, pick, offset)
            for node, where, pick, offset in hellos
        ])
        got = traj.positions_at(times, nodes)
        assert got.shape == (nodes.size, 2)
        for i, (node, t) in enumerate(zip(nodes.tolist(), times.tolist())):
            want = traj.position(node, t).tobytes()
            assert got[i].tobytes() == want
            assert traj.positions_at(t, nodes)[i].tobytes() == want
