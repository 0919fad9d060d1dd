"""Hello lookups answered in batches equal the full range scan.

:meth:`HelloReceiverOracle.lookup` answers many Hellos at once and
:meth:`HelloReceiverOracle.hello` answers a Hello from a batch computed
ahead of it.  Every answer is checked against the full scan
``IdealChannel.receivers`` over all positions (not against the oracle
itself), under the unit disk, log-distance and sinr models: the
receiver arrays, the sender positions, the propagation rejects, and the
grid rebuilds, which must happen at the same Hellos as when each Hello
is answered alone.  At world level, a run whose prefetch bound is 1
(every Hello answered alone) must equal the default run bit for bit.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiment import run_once
from repro.core.consistency import available_mechanisms
from repro.mobility import Area, RandomWaypoint, StaticPlacement
from repro.sim import hello_batch
from repro.sim.hello_batch import HelloReceiverOracle
from repro.sim.propagation import make_propagation
from repro.sim.radio import IdealChannel
from test_golden_digests import FAULTS, SEED, cell_spec, digest

MODELS = ["unit-disk", "log-distance", "sinr"]
RADIUS = 120.0


def _bound(model: str, seed: int = 3):
    """The named model bound to *seed* (None for the unit disk)."""
    return None if model == "unit-disk" else make_propagation(model).bind(seed)


def _oracle(mobility, model: str, seed: int = 3) -> tuple[HelloReceiverOracle, IdealChannel]:
    """An oracle and the full-scan channel under the same bound model."""
    bound = _bound(model, seed)
    oracle = HelloReceiverOracle(mobility.trajectories, RADIUS, propagation=bound)
    return oracle, IdealChannel(propagation=bound)


def _twin(oracle: HelloReceiverOracle) -> HelloReceiverOracle:
    """A fresh oracle over the same trajectories and model, for answering
    each Hello alone."""
    return HelloReceiverOracle(oracle.trajectories, oracle.radius, propagation=oracle.propagation)


def _waypoint(seed: int, n: int = 40, side: float = 500.0) -> RandomWaypoint:
    return RandomWaypoint(
        Area(side, side), n, 20.0, mean_speed=15.0, rng=np.random.default_rng(seed)
    )


class Scan:
    """The full range scan of every Hello, and a twin oracle that answers
    each alone: the references a batched answer must match."""

    def __init__(self, mobility, oracle: HelloReceiverOracle, channel: IdealChannel) -> None:
        self.mobility = mobility
        self.channel = channel
        self.twin = _twin(oracle)

    def check(self, sender: int, t: float, position: np.ndarray, hit: np.ndarray) -> None:
        traj = self.mobility.trajectories
        want = self.channel.receivers(sender, traj.positions(t), RADIUS, now=t)
        assert hit.tolist() == want.tolist()
        assert position.tobytes() == traj.position(sender, t).tobytes()
        assert self.twin.receivers(sender, t).tolist() == want.tolist()

    def check_batch(self, oracle, senders, times) -> int:
        """One lookup of the batch, checked Hello by Hello; its rejects."""
        positions, answers, rejects = oracle.lookup(senders, times)
        assert len(answers) == len(senders) == positions.shape[0] == rejects.size
        for s, t, p, hit in zip(senders, times, positions, answers):
            self.check(s, t, p, hit)
        return int(rejects.sum())


@pytest.mark.parametrize("model", MODELS)
class TestLookup:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        start=st.floats(-3.0, 2.0),
        hellos=st.lists(
            st.tuples(st.integers(0, 39), st.sampled_from([0.0, 0.05, 0.4, 1.5, 9.0])),
            min_size=1,
            max_size=40,
        ),
        cuts=st.lists(st.integers(1, 12), min_size=1, max_size=8),
    )
    def test_batches_match_the_full_scan(self, model, seed, start, hellos, cuts):
        """Repeated senders, repeated times, t < 0 and t > horizon, cut
        into batches of varying sizes, so some straddle a rebuild."""
        mobility = _waypoint(seed)
        oracle, channel = _oracle(mobility, model, seed)
        scan = Scan(mobility, oracle, channel)
        senders, times, t = [], [], start
        for sender, step in hellos:
            t += step
            senders.append(sender)
            times.append(t)
        rejects, lo, i = 0, 0, 0
        while lo < len(senders):
            hi = lo + cuts[i % len(cuts)]
            rejects += scan.check_batch(oracle, senders[lo:hi], times[lo:hi])
            lo, i = hi, i + 1
        assert rejects == channel.stats.propagation_losses == scan.twin.propagation_losses
        assert oracle.rebuilds == scan.twin.rebuilds

    def test_one_batch_straddles_rebuilds(self, model):
        """The last bit of a grid's life, the first bit after it, and a
        second rebuild, all in one batch."""
        mobility = _waypoint(11, n=60, side=600.0)
        oracle, channel = _oracle(mobility, model)
        scan = Scan(mobility, oracle, channel)
        t0 = 1.0
        vmax, slack = oracle._vmax, oracle._slack
        last = t0 + slack / vmax
        while vmax * (last - t0) > slack:
            last = np.nextafter(last, -np.inf)
        while vmax * (np.nextafter(last, np.inf) - t0) <= slack:
            last = np.nextafter(last, np.inf)
        after = float(np.nextafter(last, np.inf))
        times = [t0, t0, float(last), float(last), after, after + 2.5 * slack / vmax]
        senders = [0, 5, 5, 9, 9, 0]
        rejects = scan.check_batch(oracle, senders, times)
        assert oracle.rebuilds == scan.twin.rebuilds == 3
        assert rejects == channel.stats.propagation_losses == scan.twin.propagation_losses

    def test_senders_on_cell_edges(self, model):
        """Static nodes on the grid's cell edges, every node a sender,
        twice over, in one batch."""
        probe = StaticPlacement(Area(1.0, 1.0), 1, 5.0, positions=[[0.0, 0.0]])
        cell = _oracle(probe, model)[0]._cell
        lattice = [(i * cell, j * cell) for i in range(4) for j in range(4)]
        extra = [(RADIUS, 0.0), (cell, RADIUS), (2 * cell + RADIUS, 3 * cell)]
        points = np.array(lattice + extra)
        side = float(points.max()) + 1.0
        mobility = StaticPlacement(Area(side, side), len(points), 5.0, positions=points)
        oracle, channel = _oracle(mobility, model)
        scan = Scan(mobility, oracle, channel)
        senders = list(range(len(points))) * 2
        rejects = scan.check_batch(oracle, senders, [1.0] * len(senders))
        assert rejects == channel.stats.propagation_losses
        assert oracle.rebuilds == scan.twin.rebuilds == 1

    def test_times_must_not_decrease(self, model):
        oracle, _ = _oracle(_waypoint(0), model)
        with pytest.raises(ValueError):
            oracle.lookup([0, 1], [2.0, 1.0])


@pytest.mark.parametrize("model", MODELS)
class TestAnsweredAhead:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**16),
        hellos=st.lists(
            st.tuples(
                st.integers(0, 39),
                st.sampled_from([0.0, 0.01, 0.3, 2.0]),
                st.sampled_from(["right", "late", "early", "unknown"]),
            ),
            min_size=1,
            max_size=60,
        ),
    )
    def test_schedule_guesses_change_no_answer(self, model, seed, hellos):
        """Hellos answered through :meth:`hello` while the schedule in
        ``due`` is right, late, early or unknown: every answer is the
        full scan's at the Hello's own time, the rejects and the query
        count are those of one :meth:`receivers` call per Hello, and the
        grid is rebuilt at the same Hellos."""
        mobility = _waypoint(seed)
        oracle, channel = _oracle(mobility, model, seed)
        scan = Scan(mobility, oracle, channel)
        due = oracle.due
        rng = np.random.default_rng(seed)
        due[:] = np.sort(rng.uniform(0.0, 1.0, due.size))
        t = 0.0
        for sender, step, guess in hellos:
            t += step
            position, hit = oracle.hello(sender, t)
            scan.check(sender, t, position, hit)
            # The sender's next Hello: guessed right, too late, too early,
            # or not at all.
            nxt = t + 0.3
            due[sender] = {
                "right": nxt, "late": nxt + 0.2, "early": nxt - 0.1, "unknown": np.inf
            }[guess]
        assert oracle.queries == scan.twin.queries == len(hellos)
        assert oracle.propagation_losses == channel.stats.propagation_losses
        assert oracle.propagation_losses == scan.twin.propagation_losses
        assert oracle.rebuilds == scan.twin.rebuilds

    def test_an_answer_is_kept_only_for_its_own_time(self, model):
        """A node that moves: its Hello answered ahead at one time is not
        served at another, and a Hello due at the asked time is."""
        mobility = _waypoint(4)
        oracle, channel = _oracle(mobility, model)
        scan = Scan(mobility, oracle, channel)
        oracle.due[:] = 0.5
        oracle.due[7] = 0.7
        scan.check(0, 0.5, *oracle.hello(0, 0.5))
        assert 7 in oracle._ahead
        scan.check(3, 0.5, *oracle.hello(3, 0.5))
        for t in (0.6, 0.7):  # 7 sends before its planned time, then at it
            scan.check(7, t, *oracle.hello(7, t))
        assert oracle.rebuilds == scan.twin.rebuilds == 1

    def test_ties_fill_the_batch_in_node_order(self, model, monkeypatch):
        """Hellos due at one instant are answered ahead in node order, the
        order the engine sends Hellos scheduled in node order."""
        monkeypatch.setattr(hello_batch, "_PREFETCH", 4)
        oracle, _ = _oracle(_waypoint(2), model)
        oracle.due[:] = 1.0
        oracle.due[[5, 9]] = 0.5
        oracle.hello(9, 0.5)
        assert sorted(oracle._ahead) == [0, 1, 5]


class ReceiverDigest:
    """Wraps :meth:`HelloReceiverOracle.hello`: a digest of every Hello's
    (sender, time, position, receivers) and the oracle that answered."""

    def __init__(self, monkeypatch) -> None:
        self.sha = hashlib.sha256()
        self.oracles: list[HelloReceiverOracle] = []
        self.lookups = 0
        hello, lookup = HelloReceiverOracle.hello, HelloReceiverOracle.lookup

        def wrapped(oracle, sender, t):
            if oracle not in self.oracles:
                self.oracles.append(oracle)
            position, hit = hello(oracle, sender, t)
            self.sha.update(repr((sender, t)).encode() + position.tobytes() + hit.tobytes())
            return position, hit

        def counted(oracle, senders, times):
            self.lookups += 1
            return lookup(oracle, senders, times)

        monkeypatch.setattr(HelloReceiverOracle, "hello", wrapped)
        monkeypatch.setattr(HelloReceiverOracle, "lookup", counted)


def _run(spec, faults, monkeypatch, bound: int | None):
    with monkeypatch.context() as patch:
        if bound is not None:
            patch.setattr(hello_batch, "_PREFETCH", bound)
        seen = ReceiverDigest(patch)
        result = run_once(spec, seed=SEED, faults=faults)
    (oracle,) = seen.oracles
    return result, seen, oracle


WORLDS = [
    *(pytest.param(m, False, {}, id=f"{m}-clean") for m in available_mechanisms()),
    *(pytest.param(m, True, {}, id=f"{m}-faulted") for m in available_mechanisms()),
    pytest.param("baseline", False, {"n_nodes": 100, "spec": {"mean_speed": 60.0}},
                 id="baseline-n100-fast"),
    pytest.param("proactive", False, {"n_nodes": 100, "spec": {"mean_speed": 60.0}},
                 id="proactive-n100-fast"),
]


@pytest.mark.parametrize("mechanism, faulted, sizes", WORLDS)
def test_prefetch_changes_no_output(mechanism, faulted, sizes, monkeypatch):
    """A bound of 1 answers every Hello alone; the default answers most
    ahead.  Both runs must be bit-identical, rebuilds included."""
    spec = cell_spec("rng", mechanism, **sizes)
    faults = FAULTS if faulted else None
    alone, alone_seen, alone_oracle = _run(spec, faults, monkeypatch, 1)
    ahead, ahead_seen, ahead_oracle = _run(spec, faults, monkeypatch, None)
    assert digest(ahead) == digest(alone)
    assert ahead.stats == alone.stats
    assert ahead_seen.sha.hexdigest() == alone_seen.sha.hexdigest()
    assert ahead_oracle.rebuilds == alone_oracle.rebuilds
    assert ahead_oracle.queries == alone_oracle.queries == ahead.stats.hello_messages
    assert alone_seen.lookups == alone_oracle.queries
    # The schedule is known, so most Hellos are answered ahead.
    assert ahead_seen.lookups * 4 < ahead_oracle.queries
