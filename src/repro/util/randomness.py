"""Deterministic random-stream management.

Every stochastic component in a simulation (node placement, waypoint
choices, Hello jitter, clock skew, flood sources, ...) draws from its own
named child stream spawned from a single root seed.  Two runs with the same
root seed are bit-identical regardless of the order in which components
initialise, because child streams are derived from the *name*, not from the
draw order.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["SeedSequenceFactory", "child_rng"]


class SeedSequenceFactory:
    """Derive named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Root entropy for the whole simulation run.

    Examples
    --------
    >>> f = SeedSequenceFactory(42)
    >>> a = f.rng("placement")
    >>> b = f.rng("hello-jitter", 3)
    >>> a is not b
    True
    >>> f2 = SeedSequenceFactory(42)
    >>> float(f2.rng("placement").random()) == float(
    ...     SeedSequenceFactory(42).rng("placement").random())
    True
    """

    def __init__(self, seed: int) -> None:
        self._root_seed = int(seed)

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._root_seed

    def _spawn_key(self, *name_parts: object) -> tuple[int, ...]:
        # Hash each part into a stable 32-bit word; crc32 is deterministic
        # across processes (unlike hash()) and fast.
        return tuple(
            zlib.crc32(repr(part).encode("utf-8")) & 0xFFFFFFFF for part in name_parts
        )

    def seed_sequence(self, *name_parts: object) -> np.random.SeedSequence:
        """Return the :class:`numpy.random.SeedSequence` for a named stream."""
        return np.random.SeedSequence(
            entropy=self._root_seed, spawn_key=self._spawn_key(*name_parts)
        )

    def rng(self, *name_parts: object) -> np.random.Generator:
        """Return an independent generator identified by *name_parts*."""
        return np.random.default_rng(self.seed_sequence(*name_parts))


def child_rng(rng: np.random.Generator, *_unused: object) -> np.random.Generator:
    """Spawn an independent child generator from *rng*.

    Thin wrapper kept for call-site readability; the child inherits the
    parent's bit-generator state lineage via ``Generator.spawn``.
    """
    return rng.spawn(1)[0]
