"""Pluggable propagation models: reachability beyond the unit disk.

The paper's channel is a pure unit disk — a broadcast at range *r*
reaches exactly the nodes within Euclidean distance *r*.  This module
extracts that predicate into a seam so the same simulator can run under
non-ideal radios (log-distance path loss with shadowing, probabilistic
SINR-style reception) without touching the Hello pipeline, the decision
logic, or the metrics layer.

Three models ship:

- :class:`UnitDisk` — the paper's channel and the default.  Every call
  site guards on :attr:`PropagationModel.is_unit_disk` and falls through
  to the historical code path, so default runs are *bit-identical* to the
  pre-seam simulator (proven by ``tests/test_property_propagation.py``
  and the ``benchmarks/digest_e2e.py`` trace digest).
- :class:`LogDistance` — log-distance path loss (exponent ``n``, per the
  mininet-wifi ``logDistance exp=4`` convention) with deterministic
  per-link log-normal shadowing: each unordered node pair draws one
  truncated normal ``X ~ N(0, sigma_db^2)`` that rescales the pair's
  effective range by ``10^(X / (10 n))``.  Links are symmetric and
  *time-invariant*: the same pair always gets the same verdict.
- :class:`ProbabilisticSINR` — distance-dependent reception probability
  (a sigmoid falling through ``midpoint * r``, hard zero past
  ``cutoff * r``); every *directed message* draws independently, so the
  link verdict is stochastic in time.

**Determinism contract.**  All randomness is *stateless keyed hashing*
(a vectorized splitmix64 finalizer over the pair/message key and the
model's bound seed), never sequential RNG draws.  Keyed draws are
order-independent and subset-stable: evaluating a superset of candidate
links and filtering yields bit-identical verdicts to evaluating each
link alone.  That is what lets the Hello receiver oracle, the snapshot
predicates and the channel's range scan — which examine candidate sets
of different sizes in different orders — agree under every model, and
what makes runs reproducible at any worker count.

**Superset-radius discipline.**  Candidate generation reuses the
existing grid machinery: :meth:`PropagationModel.query_radius` returns a
radius that is guaranteed to contain every potentially accepted receiver
(the shadowing truncation bound for :class:`LogDistance`, the hard
cutoff for :class:`ProbabilisticSINR`), the grid query fetches that
superset, and :meth:`PropagationModel.accept` applies the exact
per-model predicate — the same superset/subset pattern
``hello_batch.py`` uses for stale-grid receiver lookup.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ConfigurationError
from repro.util.validate import check_non_negative, check_positive, require

__all__ = [
    "PropagationModel",
    "UnitDisk",
    "LogDistance",
    "ProbabilisticSINR",
    "UNIT_DISK",
    "make_propagation",
    "available_propagation_models",
]

_U64 = np.uint64
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _mix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer — the keyed-hash primitive.

    A bijective avalanche over uint64 (wrapping arithmetic is the
    point); platform-stable and order-independent, unlike sequential
    generator draws.
    """
    z = x.astype(np.uint64) + _U64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _unit(h: np.ndarray) -> np.ndarray:
    """Map hashes to uniforms in [0, 1) (53-bit mantissa fill)."""
    return (h >> _U64(11)).astype(np.float64) * (2.0**-53)


def _normal(h: np.ndarray) -> np.ndarray:
    """Standard normal per hash via Box-Muller (one variate per key)."""
    u1 = _unit(h)
    u2 = _unit(_mix64(h ^ _U64(0xD1B54A32D192ED03)))
    # 1 - u1 lies in (0, 1], so the log is finite everywhere.
    return np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)


def _seed_key(seed: int) -> np.uint64:
    return _mix64(np.asarray([seed & _MASK64], dtype=np.uint64))[0]


def _pair_key(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unordered-pair key: symmetric in (a, b), unique below 2^32 ids."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    return (lo << _U64(32)) | hi


def _directed_key(sender: np.ndarray, receiver: np.ndarray) -> np.ndarray:
    a = np.asarray(sender, dtype=np.uint64)
    b = np.asarray(receiver, dtype=np.uint64)
    return (a << _U64(32)) | b


class PropagationModel:
    """Reachability predicate of one radio model.

    Subclasses define *who hears a broadcast*: candidate generation asks
    :meth:`query_radius` for a superset radius, the grid (or dense scan)
    fetches candidates, and :meth:`accept` gives the exact verdict per
    candidate.  A custom model implements those two methods.

    Attributes
    ----------
    name:
        Registry name (``unit-disk`` / ``log-distance`` / ``sinr``).
    is_unit_disk:
        True only for :class:`UnitDisk`; call sites use it to fall
        through to the historical (bit-identical) code paths.
    stochastic:
        True when link verdicts vary per message (time-dependent keyed
        draws).  Deterministic-link models (``False``) give every
        (pair, range) the same verdict forever, which keeps topology
        oracles that compare against a reference topology sound.
    """

    name = "abstract"
    is_unit_disk = False
    stochastic = False

    def __init__(self) -> None:
        self._key = _seed_key(0)

    def bind(self, seed: int) -> "PropagationModel":
        """Key the model's hash streams to *seed* (returns self).

        The world binds every non-unit-disk model from its own named
        seed stream, so two worlds with the same root seed draw the
        same shadowing / reception realisations.
        """
        self._key = _seed_key(int(seed))
        return self

    def query_radius(self, tx_range: float) -> float:
        """Superset radius: every accepted receiver lies within it."""
        raise NotImplementedError

    def accept(
        self,
        sender: int | np.ndarray,
        receivers: np.ndarray,
        distances: np.ndarray,
        tx_range: float | np.ndarray,
        now: float | np.ndarray,
    ) -> np.ndarray:
        """Boolean mask: which candidate receivers hear the broadcast.

        Elementwise and subset-stable — the verdict for a given
        (sender, receiver, distance, range, time) tuple never depends on
        which other candidates are evaluated alongside it.  *sender*,
        *tx_range* and *now* broadcast against *receivers*/*distances*
        (the Hello oracle answers many Hellos in one call).
        """
        raise NotImplementedError

    def staleness_allowance(self, config) -> float:
        """Extra information-age (seconds) topology oracles must allow.

        Stochastic reception has no fault window an oracle could skip —
        every Hello generation may thin independently — so stochastic
        models charge a standing allowance (see
        :func:`repro.faults.oracles.theorem5_slack`); deterministic-link
        models charge nothing.
        """
        return 0.0

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class UnitDisk(PropagationModel):
    """The paper's channel: heard iff ``d <= tx_range``, exactly.

    The default model.  Call sites special-case
    :attr:`~PropagationModel.is_unit_disk` and run the historical code
    unchanged, so the seam costs nothing and default runs stay
    byte-identical to the pre-seam simulator; the methods below are the
    reference semantics those fast paths implement.
    """

    name = "unit-disk"
    is_unit_disk = True

    def query_radius(self, tx_range: float) -> float:
        return float(tx_range)

    def accept(self, sender, receivers, distances, tx_range, now):
        return distances <= tx_range


#: Shared default instance (stateless, so one is enough).
UNIT_DISK = UnitDisk()


class LogDistance(PropagationModel):
    """Log-distance path loss with deterministic per-pair shadowing.

    Received power falls as ``10 n log10(d)`` (path-loss exponent *n*,
    the mininet-wifi ``logDistance exp=4`` convention) plus a log-normal
    shadowing term ``X ~ N(0, sigma_db^2)`` drawn *once per unordered
    node pair* from the keyed hash — the quasi-static shadowing regime,
    where obstacles between two nodes persist.  Solving the link budget
    for distance, a pair's effective range is::

        r_eff(u, v) = tx_range * 10^(X_uv / (10 n))

    so favorable shadowing stretches reach and adverse shadowing
    shrinks it, symmetrically (``X_uv = X_vu``).  *X* is truncated at
    ``±truncate_sigma`` standard deviations, which bounds the stretch
    factor and gives :meth:`query_radius` its finite superset radius.

    Links are symmetric and time-invariant (:attr:`stochastic` is
    False): verdicts depend only on the pair, the distance, and the
    bound seed.

    Parameters
    ----------
    path_loss_exponent:
        Path-loss exponent *n* (free space 2, the exemplar's urban 4).
        Must be finite and strictly positive.
    sigma_db:
        Shadowing standard deviation in dB (0 disables shadowing,
        leaving a pure — still unit-disk-equivalent — power law).
    truncate_sigma:
        Truncation of the shadowing draw, in standard deviations.
    """

    name = "log-distance"

    def __init__(
        self,
        path_loss_exponent: float = 4.0,
        sigma_db: float = 4.0,
        truncate_sigma: float = 3.0,
    ) -> None:
        super().__init__()
        # NaN and negative exponents both die here (check_non_negative
        # rejects non-finite values); zero is rejected separately since
        # the range factor divides by the exponent.
        check_non_negative("path_loss_exponent", path_loss_exponent)
        require(
            path_loss_exponent > 0.0,
            f"path_loss_exponent must be strictly positive, got {path_loss_exponent!r}",
        )
        check_non_negative("sigma_db", sigma_db)
        check_positive("truncate_sigma", truncate_sigma)
        self.path_loss_exponent = float(path_loss_exponent)
        self.sigma_db = float(sigma_db)
        self.truncate_sigma = float(truncate_sigma)

    def __repr__(self) -> str:
        return (
            f"LogDistance(path_loss_exponent={self.path_loss_exponent!r}, "
            f"sigma_db={self.sigma_db!r}, truncate_sigma={self.truncate_sigma!r})"
        )

    def _factor(self, key: np.ndarray) -> np.ndarray:
        """Per-pair range stretch ``10^(X / (10 n))``, X truncated."""
        bound = self.truncate_sigma * self.sigma_db
        shadow = np.clip(self.sigma_db * _normal(_mix64(key ^ self._key)), -bound, bound)
        return 10.0 ** (shadow / (10.0 * self.path_loss_exponent))

    @property
    def max_stretch(self) -> float:
        """Largest possible range factor (the truncation bound)."""
        return 10.0 ** (
            self.truncate_sigma * self.sigma_db / (10.0 * self.path_loss_exponent)
        )

    def query_radius(self, tx_range: float) -> float:
        return float(tx_range) * self.max_stretch

    def accept(self, sender, receivers, distances, tx_range, now):
        return distances <= tx_range * self._factor(_pair_key(sender, receivers))


class ProbabilisticSINR(PropagationModel):
    """Per-message probabilistic reception with a sigmoid distance law.

    A coarse stand-in for SINR-threshold reception under fast fading:
    the success probability falls smoothly through ``midpoint *
    tx_range`` (where it is 1/2) with slope set by *steepness*, and is
    hard zero beyond ``cutoff * tx_range``::

        p(d) = 1 / (1 + (d / (midpoint r))^steepness)   for d <= cutoff r

    Each *directed message* — (sender, receiver, send time) — draws an
    independent keyed uniform, so the same link may succeed now and fail
    an interval later (:attr:`stochastic` is True).  The draws are still
    pure functions of the bound seed, so runs replay bit-identically.

    Parameters
    ----------
    midpoint:
        Fraction of the transmit range at which reception is 50/50.
    steepness:
        Sigmoid exponent (larger = sharper edge; the unit disk is the
        ``steepness -> inf``, ``midpoint = cutoff = 1`` limit).
    cutoff:
        Hard reachability bound as a multiple of the transmit range;
        also the superset-radius factor.  Must be >= 1 so that the
        model's candidate superset covers the nominal range (keeping
        within-range drop accounting identical across pipelines).
    """

    name = "sinr"
    stochastic = True

    def __init__(
        self,
        midpoint: float = 0.85,
        steepness: float = 8.0,
        cutoff: float = 1.2,
    ) -> None:
        super().__init__()
        check_positive("midpoint", midpoint)
        check_positive("steepness", steepness)
        check_positive("cutoff", cutoff)
        require(cutoff >= 1.0, f"cutoff must be >= 1, got {cutoff!r}")
        require(
            midpoint <= cutoff,
            f"midpoint ({midpoint!r}) must not exceed cutoff ({cutoff!r})",
        )
        self.midpoint = float(midpoint)
        self.steepness = float(steepness)
        self.cutoff = float(cutoff)

    def __repr__(self) -> str:
        return (
            f"ProbabilisticSINR(midpoint={self.midpoint!r}, "
            f"steepness={self.steepness!r}, cutoff={self.cutoff!r})"
        )

    def query_radius(self, tx_range: float) -> float:
        return float(tx_range) * self.cutoff

    def success_probability(
        self, distances: np.ndarray, tx_range: float | np.ndarray
    ) -> np.ndarray:
        """Reception probability at each distance for *tx_range*."""
        d = np.asarray(distances, dtype=np.float64)
        scale = np.asarray(tx_range, dtype=np.float64) * self.midpoint
        with np.errstate(divide="ignore", over="ignore"):
            p = 1.0 / (1.0 + (d / scale) ** self.steepness)
        return np.where(d <= np.asarray(tx_range) * self.cutoff, p, 0.0)

    def _draw(self, key: np.ndarray, now: float) -> np.ndarray:
        t_bits = np.asarray(now, dtype=np.float64).view(np.uint64)
        return _unit(_mix64(_mix64(key ^ self._key) ^ t_bits))

    def accept(self, sender, receivers, distances, tx_range, now):
        p = self.success_probability(distances, tx_range)
        return self._draw(_directed_key(sender, receivers), now) < p

    def staleness_allowance(self, config) -> float:
        """One full Hello generation of extra information age.

        Per-message loss can silently thin any Hello generation — there
        is no fault window an oracle could skip — so the Theorem-5
        oracle charges one worst-case Hello interval of additional
        staleness on top of the unit-disk arithmetic.
        """
        return float(config.max_hello_interval)


_MODELS: dict[str, type[PropagationModel]] = {
    UnitDisk.name: UnitDisk,
    LogDistance.name: LogDistance,
    ProbabilisticSINR.name: ProbabilisticSINR,
}


def available_propagation_models() -> list[str]:
    """Registered model names, sorted."""
    return sorted(_MODELS)


def make_propagation(name: str, **kwargs) -> PropagationModel:
    """Instantiate a registered propagation model by name.

    ``make_propagation("unit-disk")`` returns the shared
    :data:`UNIT_DISK` instance (the model is stateless); other names
    construct fresh instances with *kwargs* forwarded to the
    constructor.
    """
    cls = _MODELS.get(name)
    if cls is None:
        raise ConfigurationError(
            f"unknown propagation model {name!r} "
            f"(available: {', '.join(available_propagation_models())})"
        )
    if cls is UnitDisk and not kwargs:
        return UNIT_DISK
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for propagation model {name!r}: {exc}"
        ) from exc
