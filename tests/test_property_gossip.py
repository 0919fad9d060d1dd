"""Property battery for the anti-entropy gossip mechanism.

Three contracts, exercised the way the issue's acceptance criteria state
them:

1. **Merge algebra.**  :func:`merge_entries` is monotone (latest versions
   never decrease), commutative (merge order does not change the
   latest-entry state) and idempotent (re-merging is a no-op) — all on
   the *digest* state.  Full history deques are deliberately out of
   scope: ``history_depth`` truncation plus the strictly-newer rule make
   intermediate retention order-dependent, while every view the
   mechanisms build reads only the latest live entry per sender.

2. **Cache twins.**  Under gossip — including lossy Hello channels, where
   epidemic repair does real work — a decision-cache-disabled world is
   bit-identical to the cached one: same decisions, same channel
   counters, same gossip counters.  This is the PR-2 contract extended to
   the fourth mechanism, and it holds because gossip peer sampling reads
   true geometry, never decisions.

3. **Staleness oracle.**  A 25-run fuzz smoke over the gossip mechanism
   axis passes with zero failures: Theorem 5's freshness bound, widened
   by ``rounds_to_converge × interval``, absorbs epidemic propagation
   lag.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.experiment import ExperimentSpec, build_world
from repro.core.tables import NeighborTable
from repro.core.views import Hello
from repro.faults.fuzz import fuzz
from repro.gossip import merge_entries, view_digest
from repro.mobility.base import Area
from repro.sim.config import ScenarioConfig

# --------------------------------------------------------------------- #
# merge algebra


def _hello(sender: int, version: int) -> Hello:
    return Hello(
        sender=sender,
        version=version,
        position=(float(sender), float(version)),
        sent_at=0.0,
        timestamp=0.0,
    )


entries_strategy = st.lists(
    st.builds(
        _hello,
        sender=st.integers(min_value=1, max_value=5),
        version=st.integers(min_value=1, max_value=30),
    ),
    max_size=20,
)


def _digest(table: NeighborTable) -> dict[int, int]:
    # sent_at is 0.0 everywhere, so now=0.0 keeps every entry live and
    # the digest *is* the latest-entry state.
    return view_digest(table, now=0.0, removal_age=2.5)


def _merged_table(batches: list[tuple[Hello, ...]]) -> NeighborTable:
    table = NeighborTable(0, normal_range=250.0, history_depth=3, expiry=2.5)
    for batch in batches:
        merge_entries(table, batch)
    return table


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(entries=entries_strategy)
    def test_monotone(self, entries):
        table = NeighborTable(0, normal_range=250.0, history_depth=3, expiry=2.5)
        for hello in entries:
            before = _digest(table)
            merge_entries(table, (hello,))
            after = _digest(table)
            for sender, version in before.items():
                assert after[sender] >= version

    @settings(max_examples=60, deadline=None)
    @given(a=entries_strategy, b=entries_strategy)
    def test_commutative(self, a, b):
        ab = _merged_table([tuple(a), tuple(b)])
        ba = _merged_table([tuple(b), tuple(a)])
        assert _digest(ab) == _digest(ba)

    @settings(max_examples=60, deadline=None)
    @given(entries=entries_strategy)
    def test_idempotent(self, entries):
        batch = tuple(entries)
        once = _merged_table([batch])
        twice = _merged_table([batch, batch])
        assert merge_entries(once, batch) == 0
        assert _digest(once) == _digest(twice)

    @settings(max_examples=60, deadline=None)
    @given(a=entries_strategy, b=entries_strategy)
    def test_merge_union_dominates(self, a, b):
        # Merging both batches yields, per sender, the max version either
        # batch (alone) would have produced — last-writer-wins, no drops.
        both = _digest(_merged_table([tuple(a), tuple(b)]))
        only_a = _digest(_merged_table([tuple(a)]))
        only_b = _digest(_merged_table([tuple(b)]))
        want = dict(only_a)
        for sender, version in only_b.items():
            want[sender] = max(want.get(sender, 0), version)
        assert both == want


# --------------------------------------------------------------------- #
# decision-cache twin worlds


class TestCacheTwins:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        loss=st.sampled_from([0.0, 0.15, 0.4]),
    )
    def test_cache_twins_bit_identical_under_loss(self, seed, loss):
        config = ScenarioConfig(
            n_nodes=10,
            area=Area(285.0, 285.0),
            normal_range=250.0,
            duration=5.0,
            warmup=2.0,
            sample_rate=1.0,
            hello_loss_rate=loss,
        )
        spec = ExperimentSpec(
            protocol="rng", mechanism="gossip", mean_speed=10.0, config=config
        )
        cached = build_world(spec, seed)
        uncached = build_world(spec, seed)
        uncached.manager.decision_cache_enabled = False
        cached.run_until(4.0)
        uncached.run_until(4.0)
        assert cached.gossip_stats() == uncached.gossip_stats()
        assert (
            cached.channel.stats.as_dict() == uncached.channel.stats.as_dict()
        )
        for c, u in zip(cached.nodes, uncached.nodes):
            if c.decision is None:
                assert u.decision is None
                continue
            assert c.decision.logical_neighbors == u.decision.logical_neighbors
            assert c.decision.actual_range == u.decision.actual_range
            assert c.decision.extended_range == u.decision.extended_range
        # The cache may legitimately hit rarely under gossip (every merge
        # bumps the table's mutations), but it must never *create* work: the
        # disabled twin records no hits at all.
        assert uncached.manager.cache_info()["decision_cache_hits"] == 0


# --------------------------------------------------------------------- #
# staleness oracle under fuzz


class TestGossipFuzzSmoke:
    def test_25_run_smoke_zero_failures(self):
        report = fuzz(
            runs=25,
            seed=11,
            mechanisms=("gossip",),
            shrink=False,
            resume=False,
        )
        assert report.ok, [f.case for f in report.failures]
