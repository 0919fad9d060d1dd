"""The simulated MANET: nodes + mobility + radio + Hello protocol.

:class:`NetworkWorld` wires the discrete-event engine to everything else:

- **Hello emission** follows the consistency mechanism in force —
  jittered asynchronous timers (baseline / view-sync / weak), local-clock
  epoch boundaries with epoch-numbered versions (proactive), or
  initiator-flooded synchronized rounds (reactive);
- **Hello delivery** is one batched route: a receiver oracle finds who
  hears a Hello (the world tells it when each node sends next, so it
  answers the coming Hellos in batches), and each distinct arrival time
  is one engine event that records the Hello at all of its receivers in
  the columnar :class:`~repro.core.neighbor_state.NeighborState` with
  one splice.  An
  armed fault schedule acts on the same route: outages suppress sends and
  block receptions, loss bursts thin the receiver array, delivery delays
  split it into one event per arrival time, and an overtaken Hello is
  discarded at arrival;
- **decisions** are made right after each Hello (the paper's Fig. 3
  timing): :meth:`decide_node` gathers them into the manager's decision
  lane, which selects many together in padded blocks when a decision is
  next read, and the world adopts what it settles (one that a newer
  decision of the same node replaces before any read is never
  selected).  Packet-recomputing mechanisms decide again at packet time
  via :meth:`redecide_all`;
- **snapshots** freeze the directed effective topology at the current
  instant for the metrics layer, as CSR neighbor lists at every network
  size.

Positions come from the analytic mobility trajectories; nodes only ever see
them through Hello messages.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.manager import MobilitySensitiveTopologyControl, NodeDecision
from repro.core.neighbor_state import NeighborState
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.faults.inject import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.geometry.csr import CSRGraph
from repro.geometry.grid import GraphBackend
from repro.geometry.sparse import IncrementalNeighborhoods, neighborhood_csr
from repro.gossip import GossipEngine
from repro.mobility.base import MobilityModel
from repro.sim.clock import ClockSet
from repro.sim.config import ScenarioConfig
from repro.sim.engine import Engine, PeriodicTimer
from repro.sim.hello_batch import HelloReceiverOracle
from repro.sim.node import SimNode
from repro.sim.propagation import make_propagation
from repro.sim.radio import IdealChannel
from repro.telemetry.core import Telemetry, collector
from repro.util.errors import ConfigurationError, ViewError
from repro.util.randomness import SeedSequenceFactory

__all__ = ["NetworkWorld", "WorldSnapshot"]

# Nodes per gather in packet-time redecision (the manager settles about
# as many per pass).  Every paper-sized world redecides in one chunk.
_REDECIDE_CHUNK = 256


class WorldSnapshot:
    """Frozen view of the network at one instant.

    Adjacency lives only in CSR neighbor lists (:attr:`logical_csr`,
    :meth:`in_range_csr`, :meth:`effective_directed_csr`,
    :meth:`effective_bidirectional_csr`, :meth:`original_csr`) at every
    network size, and every metric reads those.  No member returns an
    ``(n, n)`` array: a caller that wants a matrix densifies a CSR form
    with :meth:`~repro.geometry.csr.CSRGraph.to_dense`, the one guarded
    densification.

    Attributes
    ----------
    time:
        Snapshot instant (physical seconds).
    positions:
        True ``(n, 2)`` node positions.
    logical_csr:
        Logical-selection adjacency; row u lists u's logical neighbors.
    actual_ranges / extended_ranges:
        Per-node ranges currently in force.
    normal_range:
        The scenario's normal transmission range.
    """

    __slots__ = (
        "time",
        "positions",
        "actual_ranges",
        "extended_ranges",
        "normal_range",
        "propagation",
        "logical_csr",
        "_backend",
        "_neighbor_source",
        "_cache",
    )

    def __init__(
        self,
        time: float,
        positions: np.ndarray,
        actual_ranges: np.ndarray | None = None,
        extended_ranges: np.ndarray | None = None,
        normal_range: float = 0.0,
        *,
        logical_csr: CSRGraph,
        backend: GraphBackend | None = None,
        neighbor_source=None,
        propagation=None,
    ) -> None:
        #: non-unit-disk PropagationModel in force, or None (unit disk);
        #: the in-range predicates below dispatch on this single reference.
        self.propagation = propagation
        self.time = time
        self.positions = np.asarray(positions, dtype=np.float64)
        n = self.positions.shape[0]
        self.actual_ranges = (
            np.zeros(n) if actual_ranges is None else np.asarray(actual_ranges)
        )
        self.extended_ranges = (
            np.zeros(n) if extended_ranges is None else np.asarray(extended_ranges)
        )
        self.normal_range = float(normal_range)
        self.logical_csr = logical_csr
        self._backend = backend
        #: optional callable ``radius -> CSRGraph`` (the world's
        #: incremental builder); otherwise neighborhoods build fresh.
        self._neighbor_source = neighbor_source
        self._cache: dict = {}

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the snapshot."""
        return self.positions.shape[0]

    def logical_degrees(self) -> np.ndarray:
        """Per-node logical neighbor count."""
        return self.logical_csr.degrees()

    def physical_degrees(self) -> np.ndarray:
        """Per-node count of nodes inside the *extended* range."""
        return self.in_range_csr().degrees()

    def pair_distance(self, u: int, v: int) -> float:
        """True distance between two nodes, without the full matrix.

        The same IEEE operations as
        :func:`~repro.geometry.points.pairwise_distances`, so it equals
        ``pairwise_distances(positions)[u, v]`` bit for bit.
        """
        dx = self.positions[u, 0] - self.positions[v, 0]
        dy = self.positions[u, 1] - self.positions[v, 1]
        return float(np.sqrt(dx * dx + dy * dy))

    def neighbor_csr(self, radius: float) -> CSRGraph:
        """Edge-weighted unit-disk CSR at *radius* (cached per radius)."""
        key = float(radius)
        cached = self._cache.get(key)
        if cached is None:
            if self._neighbor_source is not None:
                cached = self._neighbor_source(key)
            else:
                if self._backend is None:
                    self._backend = GraphBackend(self.positions)
                cached = neighborhood_csr(self.positions, key, backend=self._backend)
            self._cache[key] = cached
        return cached

    def in_range_csr(self) -> CSRGraph:
        """Directed in-range edges: v hears u's transmissions.

        Unit disk: v lies within u's extended range.  Non-unit-disk
        models use the superset-radius discipline: the neighborhood CSR
        is built at the model's superset radius for the largest in-force
        range, then every edge gets the model's keyed ``accept`` verdict
        (shadowed ranges for ``log-distance``; for the stochastic
        ``sinr`` model, one reception draw per directed pair at the
        snapshot instant — reproducible, since the draws are pure
        functions of the bound seed and the snapshot time).
        """
        cached = self._cache.get("in_range")
        if cached is None:
            if self.n_nodes == 0:
                cached = CSRGraph.empty(0)
            elif self.propagation is None:
                reach = self.neighbor_csr(float(self.extended_ranges.max()))
                cached = reach.filter_row_radius(self.extended_ranges)
            else:
                model = self.propagation
                reach = self.neighbor_csr(
                    model.query_radius(float(self.extended_ranges.max()))
                )
                senders = reach.rows_array()
                keep = model.accept(
                    senders,
                    reach.indices,
                    reach.data,
                    self.extended_ranges[senders],
                    self.time,
                )
                cached = reach.select(np.asarray(keep, dtype=bool))
            self._cache["in_range"] = cached
        return cached

    def effective_directed_csr(self, physical_neighbor_mode: bool = False) -> CSRGraph:
        """Directed delivery graph: in range, and accepted by the receiver.

        Without physical-neighbor mode a receiver drops packets from
        senders whose attached logical set does not list it (Section 5.1).
        """
        key = ("effective", bool(physical_neighbor_mode))
        cached = self._cache.get(key)
        if cached is None:
            cached = self.in_range_csr()
            if not physical_neighbor_mode:
                cached = cached.intersect(self.logical_csr)
            self._cache[key] = cached
        return cached

    def effective_bidirectional_csr(
        self, physical_neighbor_mode: bool = False
    ) -> CSRGraph:
        """Undirected effective topology: links usable in both directions."""
        return self.effective_directed_csr(physical_neighbor_mode).mutual()

    def original_csr(self) -> CSRGraph:
        """Undirected maintainable topology at the normal range.

        Unit disk: ``d <= normal_range``, the paper's original topology.
        Deterministic-link models (``log-distance``): the links Hello
        exchange can actually maintain — within the nominal range *and*
        accepted by the (symmetric) model, so consistency/connectivity
        arguments keep a sound reference graph.  Stochastic models
        (``sinr``) have no time-invariant link set; the nominal disk is
        returned as the documented reference and the oracles that need
        an exact one skip such worlds.
        """
        model = self.propagation
        if model is None or model.stochastic:
            return self.neighbor_csr(self.normal_range)
        cached = self._cache.get("original_model")
        if cached is None:
            reach = self.neighbor_csr(model.query_radius(self.normal_range))
            senders = reach.rows_array()
            keep = (
                np.asarray(
                    model.accept(
                        senders,
                        reach.indices,
                        reach.data,
                        self.normal_range,
                        self.time,
                    ),
                    dtype=bool,
                )
                & (reach.data <= self.normal_range)
            )
            cached = reach.select(keep).mutual()
            self._cache["original_model"] = cached
        return cached


class NetworkWorld:
    """A complete simulated MANET.

    Parameters
    ----------
    config:
        Scenario parameters.
    mobility:
        Mobility model; must cover ``config.duration`` and
        ``config.n_nodes``.
    manager:
        The mobility-sensitive topology control configuration every node
        runs (protocol + consistency mechanism + buffer policy).  Its
        decision lane holds this world's waiting decisions, so each world
        needs a manager of its own.
    seed:
        Root seed for all per-world randomness (Hello jitter, clock skew,
        reactive flood emulation).
    faults:
        Optional :class:`~repro.faults.schedule.FaultSchedule` to arm.
        The events are realised deterministically from the world seed
        (named stream ``"faults"``); when None, every injection seam is
        a single predictable ``is None`` branch — measured zero-cost.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` collector.  When
        armed, the world traces Hello traffic, decisions, range changes
        and per-phase timings (``hello_emit`` / ``decide`` / ``redecide``
        / ``snapshot`` / ``engine_run`` spans).  None stands for the
        disarmed :data:`~repro.telemetry.NULL_TELEMETRY`, whose calls do
        nothing.  The world and its components call the collector
        whether it is armed or not, and it decides nothing: an armed and
        a disarmed world select and drop the same decisions.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        mobility: MobilityModel,
        manager: MobilitySensitiveTopologyControl,
        seed: int = 0,
        faults: FaultSchedule | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if mobility.n_nodes != config.n_nodes:
            raise ConfigurationError(
                f"mobility covers {mobility.n_nodes} nodes, config wants {config.n_nodes}"
            )
        if mobility.horizon < config.duration - 1e-9:
            raise ConfigurationError(
                f"mobility horizon {mobility.horizon} s is shorter than the "
                f"simulation duration {config.duration} s"
            )
        self.config = config
        self.mobility = mobility
        self.manager = manager
        self.engine = Engine()
        #: the collector in force (never None; NullTelemetry when disarmed)
        self.telemetry = collector(telemetry)
        self.engine.set_telemetry(self.telemetry)
        self.manager.attach_telemetry(self.telemetry)
        seeds = SeedSequenceFactory(seed)
        #: PropagationModel in force (UnitDisk unless configured otherwise).
        self.propagation = make_propagation(
            config.propagation, **config.propagation_params
        )
        if self.propagation.is_unit_disk:
            # Unit disk consumes no randomness and threads as None, so
            # every seam below stays the historical bit-identical path.
            self._propagation = None
        else:
            self._propagation = self.propagation.bind(
                int(seeds.rng("propagation").integers(2**63))
            )
        self.channel = IdealChannel(
            propagation_delay=config.propagation_delay,
            hello_loss_rate=config.hello_loss_rate,
            rng=seeds.rng("channel-loss") if config.hello_loss_rate > 0 else None,
            propagation=self._propagation,
        )
        self.channel.telemetry = self.telemetry
        self.fault_injector: FaultInjector | None = None
        if faults is not None:
            for event in faults:
                node = getattr(event, "node", None)
                if node is not None and node >= config.n_nodes:
                    raise ConfigurationError(
                        f"fault event {event!r} references node {node}, but the "
                        f"scenario has only {config.n_nodes} nodes"
                    )
            self.fault_injector = FaultInjector(
                faults, seeds.rng("faults"), telemetry=self.telemetry
            )
            self.channel.fault_filter = self.fault_injector.filter_hello_receivers
        self.clocks = ClockSet(
            config.n_nodes, config.max_clock_skew, seeds.rng("clock-skew")
        )
        if self.fault_injector is not None:
            for node_id in range(config.n_nodes):
                shift = self.fault_injector.clock_offset_shift(node_id)
                if shift:
                    self.clocks.offsets[node_id] += shift
        self._jitter_rng = seeds.rng("hello-jitter")
        self._round_rng = seeds.rng("reactive-rounds")
        # Recent Hello transmissions for the optional collision model:
        # (send time, sender id, sender position at send time).  Appended
        # in event order, so expiry pruning pops from the left.
        self._recent_hellos: deque[tuple[float, int, np.ndarray]] = deque()
        self._neighbor_state = NeighborState(config.n_nodes, config.history_depth)
        self._oracle = HelloReceiverOracle(
            mobility.trajectories,
            config.normal_range,
            propagation=self._propagation,
        )
        settle = self._settle  # one bound method shared by every node
        self.nodes = [
            SimNode(
                node_id=i,
                table=NeighborTable(
                    owner=i,
                    normal_range=config.normal_range,
                    history_depth=config.history_depth,
                    expiry=config.hello_expiry,
                    state=self._neighbor_state,
                ),
                settle=settle,
            )
            for i in range(config.n_nodes)
        ]
        # One (time, positions, backend) memo: every consumer of the same
        # tick — Hello emission, packet-time redecisions, snapshots,
        # repeated observers — shares a single mobility evaluation and one
        # GraphBackend (lazy distance matrix below the grid threshold,
        # grid index at scale) instead of recomputing the geometry each.
        self._geometry_memo: tuple[float, np.ndarray, GraphBackend] | None = None
        # One incremental CSR builder per quantized radius: between Hello
        # generations only nodes whose 3x3 grid-cell neighborhood changed
        # re-enter the geometry kernel (dirty-region recomputation).
        self._neighbor_builders: dict[float, IncrementalNeighborhoods] = {}
        self._setup_hello_schedule()
        # Anti-entropy dissemination driver — armed only for the gossip
        # mechanism, so every other mechanism never touches its seed
        # stream and stays byte-identical.
        self.gossip: GossipEngine | None = None
        if manager.mechanism.name == "gossip":
            self.gossip = GossipEngine(self, seeds.rng("gossip"))

    # ------------------------------------------------------------------ #
    # positions

    def positions(self, t: float | None = None) -> np.ndarray:
        """True node positions at time *t* (default: now)."""
        return self.mobility.positions(self.engine.now if t is None else t)

    def position(self, node: int, t: float | None = None) -> np.ndarray:
        """True position of one node at time *t* (default: now)."""
        return self.mobility.position(node, self.engine.now if t is None else t)

    def _geometry(self, t: float) -> tuple[np.ndarray, GraphBackend]:
        """(positions, backend) at time *t*, memoized per tick.

        The mobility trajectories are analytic, so positions at a given
        *t* never change — the memo is exact.  The backend's distance
        matrix and grid indices are built lazily: Hello emission only pays
        for one O(n) range query (or a grid lookup at scale), while a
        snapshot at the same tick reuses the positions and the backend's
        neighborhood queries, and builds no ``(n, n)`` matrix of its own.
        """
        memo = self._geometry_memo
        if memo is None or memo[0] != t:
            positions = self.positions(t)
            memo = (t, positions, GraphBackend(positions))
            self._geometry_memo = memo
        return memo[1], memo[2]

    def _sparse_neighbors(self, t: float, radius: float) -> CSRGraph:
        """Unit-disk CSR at *radius* and time *t*; on the grid, rebuilt
        incrementally.

        The incremental builders are keyed by a radius *quantized up* to a
        multiple of the normal range: the per-generation query radius
        (``extended_ranges.max()``) drifts tick to tick, but its quantum is
        stable, so the dirty-region diff stays valid across generations.
        Filtering the quantized graph down to *radius* is exact — edge
        distances depend only on the endpoint coordinates, never on the
        build radius.
        """
        positions, backend = self._geometry(t)
        nr = self.config.normal_range
        if (
            radius <= 0
            or not np.isfinite(radius)
            or nr <= 0
            or not np.isfinite(nr)
            or not backend.use_grid(radius)
        ):
            # Off the grid every build is a full one from the tick's
            # distance matrix, so build at *radius* itself: the builder
            # would only add a quantized build and a filter.
            return neighborhood_csr(positions, radius, backend=backend)
        rq = nr * max(1.0, np.ceil(radius / nr))
        while rq < radius:  # float-quotient rounding guard
            rq += nr
        builder = self._neighbor_builders.setdefault(rq, IncrementalNeighborhoods())
        graph = builder.csr(positions, rq, backend=backend)
        if radius == rq:
            return graph
        return graph.select(graph.data <= radius)

    def neighbor_stats(self) -> dict[str, int]:
        """Aggregate incremental-rebuild counters across all builders."""
        totals = {
            "full_rebuilds": 0,
            "incremental_updates": 0,
            "reused_rows": 0,
            "recomputed_rows": 0,
        }
        for builder in self._neighbor_builders.values():
            for key in totals:
                totals[key] += getattr(builder, key)
        return totals

    # ------------------------------------------------------------------ #
    # Hello protocol

    def _setup_hello_schedule(self) -> None:
        """Schedule every node's Hellos, writing each node's next Hello
        time into the receiver oracle's ``due`` wherever a Hello is
        scheduled (the oracle answers those Hellos ahead)."""
        cfg = self.config
        due = self._oracle.due
        #: per-node Hello timers (asynchronous mechanisms only)
        self._hello_timers: list[PeriodicTimer] = []
        if self.manager.mechanism.name == "proactive":
            for node in self.nodes:
                first_epoch = (
                    self.clocks.epoch(node.node_id, 0.0, cfg.hello_interval) + 1
                )
                t0 = self.clocks.epoch_start(node.node_id, first_epoch, cfg.hello_interval)
                due[node.node_id] = max(t0, 0.0)
                self.engine.schedule_at(
                    max(t0, 0.0), self._send_hello_proactive, node.node_id, first_epoch
                )
        elif self.manager.mechanism.name == "reactive":
            self.engine.schedule_at(0.0, self._run_reactive_round, 0)
        else:
            inj = self.fault_injector
            for node in self.nodes:
                interval = float(
                    self._jitter_rng.uniform(
                        cfg.hello_interval - cfg.hello_jitter,
                        cfg.hello_interval + cfg.hello_jitter,
                    )
                )
                first = float(self._jitter_rng.uniform(0.0, interval))
                if inj is None:
                    tick_interval = interval
                else:
                    # HelloIntervalScale seam: the timer re-samples the
                    # injector each tick, so scaling windows open and
                    # close without touching the timer machinery.
                    def tick_interval(nid=node.node_id, base=interval):
                        return base * inj.interval_scale(nid, self.engine.now)
                due[node.node_id] = first
                self._hello_timers.append(
                    PeriodicTimer(
                        self.engine,
                        tick_interval,
                        lambda _tick, nid=node.node_id: self._send_hello_async(nid),
                        first_at=first,
                    )
                )

    def _emit_hello(self, node_id: int, version: int) -> Hello | None:
        """Broadcast a Hello at the normal range; deliver after the prop delay.

        Returns None (and transmits nothing) while the sender is inside a
        :class:`~repro.faults.schedule.NodeOutage` window.
        """
        tel = self.telemetry
        with tel.span("hello_emit"):
            t = self.engine.now
            inj = self.fault_injector
            if inj is not None and inj.node_down(node_id, t):
                inj.note("suppressed_sends", t, node=node_id)
                return None
            node = self.nodes[node_id]
            oracle = self._oracle
            before = oracle.propagation_losses
            pos, hit = oracle.hello(node_id, t)
            lost = oracle.propagation_losses - before
            # GPS noise perturbs what the node *advertises* (and therefore its
            # own record), never the true position the radio propagates from.
            # Its draws come before the loss-burst draws below.
            adv = pos if inj is None else inj.advertised_position(node_id, t, pos)
            hello = Hello(
                sender=node_id,
                version=version,
                position=(float(adv[0]), float(adv[1])),
                sent_at=t,
                timestamp=self.clocks.local_time(node_id, t),
            )
            node.table.record_own(hello)
            node.hellos_sent += 1
            stats = self.channel.stats
            stats.hello_messages += 1
            if lost:
                # Fold the oracle's per-query propagation rejects into the
                # channel counters.
                stats.propagation_losses += lost
                tel.count("hello_dropped", lost, reason="propagation")
                tel.event(
                    "hello_dropped", t=t, node=node_id,
                    count=lost, reason="propagation",
                )
            receivers = self.channel.surviving_hello_receivers(
                hit, sender=node_id, now=t
            )
            if self.config.hello_tx_duration > 0.0:
                receivers = self._drop_collided(
                    t, node_id, pos, receivers, oracle.positions_of(receivers, t)
                )
            tel.count("hello_sent")
            tel.event(
                "hello_sent", t=t, node=node_id, version=version,
                receivers=int(receivers.size),
            )
            stats.deliveries += int(receivers.size)
            if not receivers.size:
                return hello
            arrival = self.channel.arrival_time(t)
            if inj is None:
                self.engine.schedule_batch(
                    arrival, self._receive_hello_batch, hello, receivers
                )
                return hello
            # Delivery delay: one event per distinct arrival time, scheduled
            # in first-appearance order over the ascending receiver array.
            arrivals = arrival + np.array(
                [inj.delivery_delay(t, node_id, rid) for rid in receivers.tolist()]
            )
            _, first = np.unique(arrivals, return_index=True)
            for at in arrivals[np.sort(first)].tolist():
                self.engine.schedule_batch(
                    at, self._receive_hello_batch, hello, receivers[arrivals == at]
                )
            return hello

    def _receive_hello_batch(self, hello: Hello, receivers: np.ndarray) -> None:
        """Record one Hello at every receiver that takes it (one splice).

        Under a fault schedule a receiver that is down now hears nothing,
        and one already holding a Hello from the sender at least as new (a
        delayed Hello overtaken by a fresher one) discards it: the
        sequence-number rule that keeps each sender's versions in order
        for the audit.
        """
        now = self.engine.now
        inj = self.fault_injector
        if inj is not None:
            sender = hello.sender
            down = np.array(
                [inj.node_down(r, now) for r in receivers.tolist()], dtype=bool
            )
            for r in receivers[down].tolist():
                inj.note("blocked_receptions", now, node=r, sender=sender)
            receivers = receivers[~down]
            stale = hello.version <= self._neighbor_state.newest(receivers, sender)[0]
            for r in receivers[stale].tolist():
                inj.note("stale_discards", now, node=r, sender=sender)
            receivers = receivers[~stale]
            if not receivers.size:
                return
        self._neighbor_state.record_batch(hello, receivers)
        n = int(receivers.size)
        tel = self.telemetry
        tel.count("hello_received", n)
        tel.event_batch(
            "hello_received", n, t=now,
            sender=hello.sender, version=hello.version, count=n,
        )

    def _drop_collided(
        self,
        t: float,
        sender_id: int,
        sender_pos: np.ndarray,
        receivers: np.ndarray,
        receiver_positions: np.ndarray,
    ) -> np.ndarray:
        """Half-duplex collision model: a receiver inside the range of any
        *other* Hello still on the air loses this delivery.

        Only the newer transmission is dropped (the earlier deliveries are
        already scheduled); with sub-millisecond airtimes the asymmetry is
        a second-order effect and the model still produces the qualitative
        collision behaviour the paper's future work asks about.

        The interference test is deliberately nominal-range/unit-disk even
        when a propagation model is armed: a collision is about carrier
        energy at the receiver, not successful decoding, so the nominal
        disk is the conservative footprint.
        """
        window = self.config.hello_tx_duration
        recent = self._recent_hellos
        # Entries arrive in event-time order, so everything outside the
        # airtime window sits at the left end; an entry survives iff
        # ``t - entry[0] <= window`` (boundary-inclusive).
        while recent and t - recent[0][0] > window:
            recent.popleft()
        if recent and receivers.size:
            # One broadcast distance check of all on-air senders against all
            # receivers replaces the per-receiver Python loop; np.hypot on
            # the coordinate differences is the exact same IEEE computation
            # the scalar form ran per pair.
            on_air_ids = np.asarray([sid for (_, sid, _) in recent], dtype=np.intp)
            on_air_pos = np.asarray([spos for (_, _, spos) in recent], dtype=np.float64)
            rpos = receiver_positions
            diff = on_air_pos[:, np.newaxis, :] - rpos[np.newaxis, :, :]
            in_range = (
                np.hypot(diff[..., 0], diff[..., 1]) <= self.config.normal_range
            )
            collided = in_range.any(axis=0) | np.isin(receivers, on_air_ids)
            n_collided = int(collided.sum())
            self.channel.stats.collisions += n_collided
            if n_collided:
                tel = self.telemetry
                tel.count("hello_dropped", n_collided, reason="collision")
                tel.event(
                    "hello_dropped", t=t, node=sender_id,
                    count=n_collided, reason="collision",
                )
            surviving = receivers[~collided]
        else:
            surviving = receivers
        self._recent_hellos.append(
            (t, sender_id, np.asarray(sender_pos, dtype=float))
        )
        return np.asarray(surviving, dtype=np.intp)

    def _send_hello_async(self, node_id: int) -> None:
        # The timer has already scheduled its next tick.
        self._oracle.due[node_id] = self._hello_timers[node_id].next_time
        node = self.nodes[node_id]
        hello = self._emit_hello(node_id, node.next_version)
        if hello is None:  # node down: no Hello, no decision, version unused
            return
        node.next_version += 1
        # The paper's timing (Fig. 3): decide right after sending.
        self.decide_node(node_id, position=hello.position)

    def _send_hello_proactive(self, node_id: int, epoch: int) -> None:
        node = self.nodes[node_id]
        next_t = self.clocks.epoch_start(node_id, epoch + 1, self.config.hello_interval)
        self._oracle.due[node_id] = next_t
        hello = self._emit_hello(node_id, epoch)
        node.next_version = epoch + 1
        self.engine.schedule_at(next_t, self._send_hello_proactive, node_id, epoch + 1)
        if hello is None:  # down: epoch numbering advances, the node sleeps
            return
        # Decide on the last *complete* version: everyone's epoch-(e-1)
        # Hellos have arrived by now (skew + delay < one interval).  The
        # decision falls back to the newest older version the node has
        # advertised, so it can decide iff it advertised one before this
        # epoch; on its first advertised epoch it has nothing complete.
        if node.table.newest_advertised(epoch - 1) is not None:
            self.decide_node(node_id, version=epoch - 1, position=hello.position)

    def _run_reactive_round(self, round_index: int) -> None:
        cfg = self.config
        t = self.engine.now
        # Initiation flood: every node forwards once (the paper's overhead
        # complaint about the reactive scheme).
        self.channel.stats.sync_messages += cfg.n_nodes
        due = self._oracle.due
        for node in self.nodes:
            offset = float(
                self._round_rng.uniform(cfg.propagation_delay, cfg.reactive_flood_delay)
            )
            due[node.node_id] = t + offset
            self.engine.schedule_at(
                t + offset, self._send_hello_reactive, node.node_id, round_index
            )
        decide_at = t + cfg.reactive_flood_delay + 2.0 * cfg.propagation_delay
        # Warm the per-tick geometry memo right before the synchronized
        # round of decisions (they all share decide_at), so the per-node
        # position route degenerates to memo hits.
        self.engine.schedule_batch(decide_at, self._geometry, decide_at)
        for node in self.nodes:
            self.engine.schedule_at(
                decide_at, self._decide_reactive, node.node_id, round_index
            )
        if t + cfg.hello_interval <= cfg.duration + cfg.hello_interval:
            self.engine.schedule_at(
                t + cfg.hello_interval, self._run_reactive_round, round_index + 1
            )

    def _send_hello_reactive(self, node_id: int, round_index: int) -> None:
        node = self.nodes[node_id]
        self._emit_hello(node_id, round_index)
        node.next_version = round_index + 1

    def _decide_reactive(self, node_id: int, round_index: int) -> None:
        inj = self.fault_injector
        if inj is not None and inj.node_down(node_id, self.engine.now):
            return
        try:
            self.decide_node(node_id, version=round_index)
        except ViewError:
            pass  # node missed the round (e.g. it was down when it began)

    # ------------------------------------------------------------------ #
    # decisions

    def _node_position(self, node_id: int, t: float) -> np.ndarray:
        """True position of one node at *t*, cheapest exact route.

        Memo hit: the already-evaluated positions array.  Otherwise the
        node's own leg at *t*
        (:meth:`~repro.mobility.base.TrajectorySet.position`, bit-identical
        to ``positions(t)[node_id]``), so per-emission work never forces
        an O(n) geometry build.
        """
        memo = self._geometry_memo
        if memo is not None and memo[0] == t:
            return memo[1][node_id]
        return self._oracle.node_position(node_id, t)

    def _adopt(self, settled: list[tuple[NodeDecision, str]]) -> None:
        """Install settled decisions as their owners' standing ones, in
        order, tracing each range change at the decision's instant and
        counting each packet-phase decision in ``packet_decisions``."""
        tel = self.telemetry
        for decision, phase in settled:
            node = self.nodes[decision.owner]
            previous = node._decision
            node._decision = decision
            if phase == "packet":
                node.packet_decisions += 1
            if previous is None or previous.extended_range != decision.extended_range:
                tel.count("range_changes")
                tel.event(
                    "range_change", t=decision.decided_at, node=node.node_id,
                    old=None if previous is None else previous.extended_range,
                    new=decision.extended_range,
                )

    def decide_node(
        self,
        node_id: int,
        version: int | None = None,
        position: tuple[float, float] | None = None,
        phase: str = "hello",
    ) -> None:
        """Run topology control at one node, updating its standing decision.

        *position* is the node's current position as the decision may
        read it: the one its Hello just advertised at Hello time, else
        (None) its true position now.  *phase* is ``hello`` for a
        Hello-time or reactive-round decision and ``packet`` for a
        forwarder's.  The decision's inputs are gathered now into the
        manager's lane, and a node that cannot decide raises
        :class:`ViewError` now; the selection waits until a decision is
        read: at :meth:`snapshot` and :meth:`redecide_all`, or when any
        node's standing decision is read or assigned.  It is made at this
        instant whenever it settles.
        """
        t = self.engine.now
        if position is None:
            position = tuple(self._node_position(node_id, t).tolist())
        table = self.nodes[node_id].table
        gathered = self.manager.gather([table], t, [position], version, phase=phase)
        if gathered.errors:
            raise gathered.errors[0]

    def _settle(self) -> None:
        """Adopt every decision waiting in the manager's lane (one
        ``decide`` span)."""
        if not self.manager.waiting:
            return
        with self.telemetry.span("decide"):
            settled = self.manager.settle()
        self._adopt(settled)

    def redecide_all(self, version: int | None = None) -> None:
        """Re-decide every node *now* — packet-time recomputation.

        Used by the flood layer for mechanisms with
        ``recompute_on_packet``: under view synchronization every
        forwarding node refreshes its logical set when it sends, and under
        the proactive scheme every node decides on the packet's *version*.
        Recomputing all nodes (not only eventual forwarders) is equivalent
        for reachability and keeps the hot path vectorizable: the live
        nodes are gathered with their true positions now, 256 per
        :meth:`~repro.core.manager.MobilitySensitiveTopologyControl.gather`,
        and the world adopts everything the lane then settles.  Traced as
        one ``redecide`` span with no per-node ``decide`` spans.
        """
        with self.telemetry.span("redecide"):
            inj = self.fault_injector
            now = self.engine.now
            # Every decision below reads the tick's one vectorized mobility
            # evaluation.
            positions, _ = self._geometry(now)
            # A crashed node forwards nothing and decides nothing.
            nodes = [
                node.node_id
                for node in self.nodes
                if inj is None or not inj.node_down(node.node_id, now)
            ]
            for lo in range(0, len(nodes), _REDECIDE_CHUNK):
                ids = nodes[lo : lo + _REDECIDE_CHUNK]
                self.manager.gather(
                    [self.nodes[i].table for i in ids], now,
                    list(map(tuple, positions[ids].tolist())), version,
                )
            # A node that has never advertised cannot decide; it keeps
            # (the absence of) its standing decision.
            self._adopt(self.manager.settle())

    # ------------------------------------------------------------------ #
    # running & observing

    def run_until(self, t: float) -> None:
        """Advance the simulation to physical time *t*."""
        self.engine.run(until=t)

    def fault_stats(self) -> dict[str, int]:
        """Injected-fault counters (empty when no schedule is armed)."""
        return {} if self.fault_injector is None else self.fault_injector.as_dict()

    def gossip_stats(self) -> dict[str, int]:
        """Anti-entropy dissemination counters (empty unless gossip)."""
        return {} if self.gossip is None else self.gossip.as_dict()

    def snapshot(self, t: float | None = None) -> WorldSnapshot:
        """Freeze the effective topology at the current time.

        *t*, when given, must be the current simulation time (to within
        1e-9 s): a snapshot pairs positions with the decisions in force,
        and only the current decisions are kept, so a past *t* would mix
        positions of one instant with decisions of another.
        """
        now = self.engine.now
        if t is not None and abs(float(t) - now) > 1e-9:
            raise ConfigurationError(
                f"can only snapshot the current time: t={t}, now={now}"
            )
        self._settle()
        tel = self.telemetry
        tel.count("snapshots")
        with tel.span("snapshot"):
            n = self.config.n_nodes
            positions, backend = self._geometry(now)
            actual = np.zeros(n)
            extended = np.zeros(n)
            # (owner, count, neighbor) index arrays become the CSR logical
            # adjacency directly.
            ids: list[int] = []
            counts: list[int] = []
            cols: list[int] = []
            cols_extend = cols.extend
            for node in self.nodes:
                decision = node._decision
                if decision is None:
                    continue
                i = node.node_id
                neighbors = decision.logical_neighbors
                if neighbors:
                    ids.append(i)
                    counts.append(len(neighbors))
                    cols_extend(neighbors)
                actual[i] = decision.actual_range
                extended[i] = decision.extended_range
            # logical_neighbors is a frozenset: rows arrive grouped but
            # columns unordered, so from_edges' stable sort applies.
            logical_csr = (
                CSRGraph.from_edges(np.repeat(ids, counts), np.asarray(cols), n)
                if ids
                else CSRGraph.empty(n)
            )
            return WorldSnapshot(
                time=now,
                positions=positions,
                logical_csr=logical_csr,
                actual_ranges=actual,
                extended_ranges=extended,
                normal_range=self.config.normal_range,
                backend=backend,
                neighbor_source=lambda r, _t=now: self._sparse_neighbors(_t, r),
                propagation=self._propagation,
            )
