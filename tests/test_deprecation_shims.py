"""The repro 2.0 removals stay removed, and the modern spellings are quiet.

Repro 2.0 deleted the pre-1.1 aliases ``IdealChannel(loss_rng=...)`` /
``.loss_rng`` and ``SeedSequenceFactory(root_seed=...)`` /
``.root_seed``: the old keywords are plain unknown arguments now, and
the replacements (``rng`` / ``seed``) never warn.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.sim.radio import IdealChannel
from repro.util.randomness import SeedSequenceFactory


class TestIdealChannelShims:
    def test_both_kwargs_rejected(self):
        rng = np.random.default_rng(7)
        with pytest.raises(TypeError):
            IdealChannel(rng=rng, loss_rng=rng)

    def test_modern_path_does_not_warn(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            channel = IdealChannel(rng=np.random.default_rng(7))
            channel.rng
        assert not [w for w in record if issubclass(w.category, FutureWarning)]


class TestSeedSequenceFactoryShims:
    def test_modern_path_does_not_warn(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            factory = SeedSequenceFactory(99)
            factory.seed
        assert not [w for w in record if issubclass(w.category, FutureWarning)]
