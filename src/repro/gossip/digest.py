"""Digest and merge primitives for anti-entropy view synchronization.

The gossip mechanism disseminates Hello state epidemically instead of
relying on every node hearing every neighbor directly.  Three pure
functions implement the protocol's data plane over the existing
:class:`~repro.core.tables.NeighborTable`:

- :func:`view_digest` — the compact summary a node advertises: the latest
  Hello *version* it holds per sender (its own advertisement included),
  age-filtered so silent peers drop out of circulation;
- :func:`entries_newer_than` — the delta a node answers a digest with:
  every retained latest Hello strictly newer than what the digest claims;
- :func:`merge_entries` — the monotone last-writer-wins merge: an entry is
  recorded only when its version is strictly greater than the newest
  retained version for that sender, so per-sender version order (audit
  invariant 5) is preserved and re-merging is idempotent.

All three read the table's newest entries as arrays and build Hellos
only for the entries a delta ships.  They are deterministic and free of
side effects except for :func:`merge_entries`' one-splice table write,
which makes the merge algebra (monotone / commutative / idempotent on
the latest-entry state) directly property-testable — see
``tests/test_property_gossip.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.tables import NeighborTable
from repro.core.views import Hello

__all__ = ["view_digest", "entries_newer_than", "merge_entries"]


def _live_newest(table: NeighborTable, now: float, removal_age: float):
    """``(ids, version, sent_at, xy, timestamp)`` of every known
    neighbor's newest entry younger than *removal_age*, ascending id,
    read as one row."""
    ids, version, sent, xy, ts = table.newest_row()
    live = now - sent <= removal_age
    return ids[live], version[live], sent[live], xy[live], ts[live]


def view_digest(
    table: NeighborTable, now: float, removal_age: float
) -> dict[int, int]:
    """Latest retained Hello version per sender, age-filtered.

    The owner's own last advertisement is included (it is the entry the
    rest of the network is most interested in).  A neighbor whose newest
    retained Hello is older than *removal_age* is omitted — the epidemic
    analogue of peer removal: nobody re-advertises a silent node, so its
    state ages out of circulation everywhere at once.
    """
    digest: dict[int, int] = {}
    own = table.last_advertised
    if own is not None:
        digest[table.owner] = own.version
    ids, version, *_ = _live_newest(table, now, removal_age)
    digest.update(zip(ids.tolist(), version.tolist()))
    return digest


def entries_newer_than(
    table: NeighborTable,
    digest: dict[int, int],
    now: float,
    removal_age: float,
) -> tuple[Hello, ...]:
    """Retained latest Hellos strictly newer than *digest* claims.

    The pull half of anti-entropy: given a peer's digest, return every
    entry the peer provably lacks — its digest names an older version, or
    no version at all.  Entries older than *removal_age* are never
    relayed (an expired entry cannot influence any expiry-filtered view,
    so shipping it would be pure overhead).  The owner's advertisement
    comes first, then neighbor entries, rebuilt by ascending sender id.
    """
    out: list[Hello] = []
    own = table.last_advertised
    if own is not None and digest.get(table.owner, -1) < own.version:
        out.append(own)
    ids, version, sent, xy, ts = _live_newest(table, now, removal_age)
    claimed = [digest.get(nid, -1) for nid in ids.tolist()]
    newer = np.array(claimed, dtype=np.int64) < version
    out.extend(map(
        Hello, ids[newer].tolist(), version[newer].tolist(),
        map(tuple, xy[newer].tolist()), sent[newer].tolist(), ts[newer].tolist(),
    ))
    return tuple(out)


def merge_entries(table: NeighborTable, entries: tuple[Hello, ...]) -> int:
    """Monotone last-writer-wins merge of *entries* into *table*.

    An entry is recorded only when strictly newer than the newest
    retained version for its sender; entries about the owner itself are
    skipped (a node is the sole authority on its own advertisements).
    Returns the number of entries recorded, all in one splice.

    The strictly-newer rule gives the merge its algebraic contract on the
    latest-entry state: versions never decrease (monotone), merge order
    does not matter (commutative), and re-merging already-known entries
    is a no-op (idempotent).
    """
    senders = [hello.sender for hello in entries]
    newest = dict(zip(senders, table.newest(senders)[0].tolist()))
    accepted = []
    for hello in entries:
        if hello.sender == table.owner or hello.version <= newest[hello.sender]:
            continue
        accepted.append(hello)
        newest[hello.sender] = hello.version
    table.record_hellos(accepted)
    return len(accepted)
