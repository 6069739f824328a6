"""Waiting-time disorder models for stochastic measurement protocols.

Three joint laws for the vector of waiting times between measurements:

* ``Fixed``     -- every interval equals the same constant.
* ``Quenched``  -- one random draw per sequence, repeated within it.
* ``Annealed``  -- a fresh independent draw before every measurement.

Distributions are restricted to finite discrete support so that the
disorder average can be enumerated exactly; the two-atom ("bimodal")
case is the workhorse. Samplers take a caller-owned numpy Generator and
never touch global random state.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import EnumerationTooLargeError

PROB_TOL = 1e-12
DEFAULT_ENUMERATION_CAP = 10**6


@dataclass(frozen=True, eq=False)
class DiscreteWaitingDist:
    """Discrete waiting-time law: positive support values with probabilities."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        if values.ndim != 1 or probs.shape != values.shape or len(values) < 1:
            raise ValueError("values and probs must be 1-d arrays of equal length >= 1")
        if np.any(values <= 0) or not np.all(np.isfinite(values)):
            raise ValueError("waiting-time values must be finite and strictly positive")
        if len(np.unique(values)) != len(values):
            raise ValueError("waiting-time values must be distinct")
        if np.any(probs < 0) or abs(probs.sum() - 1.0) > PROB_TOL:
            raise ValueError("probabilities must be non-negative and sum to 1")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return float(self.probs @ self.values)

    def second_moment(self) -> float:
        return float(self.probs @ self.values**2)

    def variance(self) -> float:
        return self.second_moment() - self.mean() ** 2

    @classmethod
    def bimodal(cls, tau1: float, tau2: float, p1: float) -> "DiscreteWaitingDist":
        if p1 >= 1.0:
            return cls(values=np.array([tau1]), probs=np.array([1.0]))
        if p1 <= 0.0:
            return cls(values=np.array([tau2]), probs=np.array([1.0]))
        return cls(values=np.array([tau1, tau2]), probs=np.array([p1, 1.0 - p1]))

    def scaled(self, factor: float) -> "DiscreteWaitingDist":
        """Same law with every support value multiplied by ``factor``."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return DiscreteWaitingDist(values=self.values * factor, probs=self.probs.copy())


@dataclass(frozen=True)
class Fixed:
    """Deterministic intervals: every waiting time equals ``tau_bar``."""

    tau_bar: float

    def __post_init__(self):
        if not (self.tau_bar > 0 and np.isfinite(self.tau_bar)):
            raise ValueError("tau_bar must be positive and finite")


@dataclass(frozen=True, eq=False)
class Quenched:
    """One draw per sequence: the first interval is random, then repeated."""

    dist: DiscreteWaitingDist


@dataclass(frozen=True, eq=False)
class Annealed:
    """Independent draw before every measurement."""

    dist: DiscreteWaitingDist


WaitingTimeModel = Fixed | Quenched | Annealed


@dataclass(frozen=True, eq=False)
class SequenceRealization:
    """One possible waiting-time vector together with its probability."""

    taus: np.ndarray
    weight: float


def draw_table(probs) -> list[float]:
    """Table for ``draw_index`` and ``draw_indices``: one running total per entry.

    Entries that are not positive repeat the previous total, and every
    entry from the last positive one on is infinite. The number of totals
    at or below a uniform draw is then the index it selects, so entries
    without probability are never chosen and a draw at or above the true
    sum (round-off) selects the last positive entry.
    """
    totals: list[float] = []
    acc = 0.0
    last = 0
    for i, p in enumerate(probs):
        if p > 0.0:
            acc += float(p)
            last = i
        totals.append(acc)
    totals[last:] = [math.inf] * (len(totals) - last)
    return totals


def draw_index(rng: np.random.Generator, table: list[float]) -> int:
    """Sample an index from a ``draw_table`` with one uniform draw."""
    return bisect_right(table, rng.random())


def draw_indices(tables: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Array form of ``draw_index``: the index each uniform selects.

    ``tables`` is one ``draw_table`` shared by all uniforms, or one table
    per uniform along its last axis. Both branches count the totals
    ``<= u``, which is what ``bisect_right`` returns on the non-decreasing
    table, so both forms pick the same index.
    """
    if tables.ndim == 1:
        return np.searchsorted(tables, uniforms, side="right")
    return (tables <= uniforms[..., None]).sum(-1)


def uniforms_per_sequence(model: WaitingTimeModel, m_count: int) -> int:
    """Uniform draws ``sample_waiting_times`` takes per waiting-time vector."""
    if isinstance(model, Fixed):
        return 0
    if isinstance(model, Quenched):
        return 1
    if isinstance(model, Annealed):
        return m_count
    raise TypeError(f"unknown waiting-time model {model!r}")


def sample_waiting_times(
    model: WaitingTimeModel, m_count: int, uniforms: np.ndarray
) -> np.ndarray:
    """Waiting-time vectors of length ``m_count``, one per row of ``uniforms``.

    ``uniforms`` has shape ``(count, uniforms_per_sequence(model, m_count))``
    and holds draws from [0, 1); the result has shape ``(count, m_count)``.
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    uniforms = np.asarray(uniforms, dtype=float)
    if uniforms.ndim != 2 or uniforms.shape[1] != uniforms_per_sequence(model, m_count):
        raise ValueError("uniforms must have one row per sequence and one column per draw")
    if isinstance(model, Fixed):
        return np.full((len(uniforms), m_count), model.tau_bar)
    taus = model.dist.values[draw_indices(np.array(draw_table(model.dist.probs)), uniforms)]
    if isinstance(model, Quenched):
        return np.repeat(taus, m_count, axis=1)
    return taus


def enumerate_realizations(
    model: WaitingTimeModel,
    m_count: int,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[SequenceRealization]:
    """All waiting-time vectors the model can produce, with their weights.

    Weights sum to one. Fixed yields a single realization, Quenched one
    per support atom, Annealed the full product set (d_tau ** m_count
    entries, guarded by ``cap``).
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    if isinstance(model, Fixed):
        return [SequenceRealization(taus=np.full(m_count, model.tau_bar), weight=1.0)]
    if isinstance(model, Quenched):
        return [
            SequenceRealization(taus=np.full(m_count, v), weight=float(p))
            for v, p in zip(model.dist.values, model.dist.probs)
            if p > 0
        ]
    if isinstance(model, Annealed):
        n_atoms = len(model.dist)
        total = n_atoms**m_count
        if total > cap:
            raise EnumerationTooLargeError(
                f"annealed enumeration needs {total} realizations, cap is {cap}"
            )
        out = []
        for combo in itertools.product(range(n_atoms), repeat=m_count):
            idx = np.array(combo, dtype=int)
            weight = float(np.prod(model.dist.probs[idx]))
            if weight > 0:
                out.append(
                    SequenceRealization(taus=model.dist.values[idx], weight=weight)
                )
        return out
    raise TypeError(f"unknown waiting-time model {model!r}")


# Relative slack when testing whether a partial sum still fits the budget,
# so that exact divisors are kept despite float accumulation noise.
_TOTAL_TIME_REL_TOL = 1e-12
# Uniforms ``sample_until_total_time`` draws at a time. A piece grows past
# this only to hold one trajectory that does not fit in it.
RENEWAL_PIECE = 1 << 13


class RenewalDraws(NamedTuple):
    """Uniform draws of a block of fixed-total-time trajectories, one row each.

    Row ``i`` measures ``counts[i]`` times, at the waiting times
    ``taus[i, :counts[i]]`` with outcome draws ``u_steps[i, :counts[i]]``;
    both are zero past the count and at least one column wide.
    """

    intervals: int
    counts: np.ndarray
    u_open: np.ndarray
    taus: np.ndarray
    u_steps: np.ndarray
    u_close: np.ndarray


def _count_within(steps: np.ndarray, limit: float) -> int:
    """Leading partial sums of ``steps`` that are <= ``limit``.

    ``np.cumsum`` adds left to right, as a scalar ``elapsed += step`` loop
    does, so the sums and the count are the same to the bit.
    """
    return int(np.searchsorted(np.cumsum(steps), limit, side="right"))


def _ragged(first: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ``first[i] .. first[i] + lengths[i] - 1`` of every row, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(offsets[-1] + lengths[-1]) + np.repeat(first - offsets, lengths)


def _chase(jump: np.ndarray, rows: int) -> np.ndarray:
    """Positions ``0, jump[0], jump[jump[0]], ...``, ``rows + 1`` of them.

    Pointer doubling: position ``i`` applies ``jump`` composed ``2**b``
    times for every set bit ``b`` of ``i``.
    """
    starts = np.zeros(rows + 1, dtype=np.intp)
    hops = np.arange(rows + 1)
    while True:
        odd = (hops & 1).astype(bool)
        starts[odd] = jump[starts[odd]]
        hops >>= 1
        if not hops.any():
            return starts
        jump = jump[jump]


class _RenewalStream:
    """Layout of fixed-total-time trajectories in one uniform stream.

    A trajectory starting at position ``p`` takes, in order: the opening
    draw at ``p``, its waiting-time draws from ``p + 1`` (annealed: one
    per retained interval and one for the interval that overshoots;
    quenched: one; fixed: none), one outcome draw per retained interval,
    and the closing draw.
    """

    def __init__(self, model: WaitingTimeModel, total_time: float):
        self.model = model
        self.limit = total_time * (1.0 + _TOTAL_TIME_REL_TOL)
        if isinstance(model, Fixed):
            self.values = np.array([model.tau_bar])
            probs = np.ones(1)
        elif isinstance(model, (Quenched, Annealed)):
            self.values, probs = model.dist.values, model.dist.probs
        else:
            raise TypeError(f"unknown waiting-time model {model!r}")
        self.table = np.array(draw_table(probs))
        # Values without probability are never drawn, and the interval cap
        # does not bound their counts.
        self.shortest = self.values[probs > 0].min()
        if isinstance(model, Annealed):
            # About the renewal mean count.
            self.mean_length = self.length(total_time / model.dist.mean())
        else:
            # Exact count of a trajectory that repeats one waiting time.
            self.repeats = np.array(
                [
                    _count_within(np.full(int(self.limit // v) + 2, v), self.limit) if p > 0 else 0
                    for v, p in zip(self.values, probs)
                ]
            )
            self.mean_length = float(probs @ self.length(self.repeats))

    def length(self, counts: np.ndarray) -> np.ndarray:
        """Draws a trajectory with ``counts`` retained intervals takes."""
        if isinstance(self.model, Annealed):
            return 2 * counts + 3
        return counts + 2 + isinstance(self.model, Quenched)

    def counts(self, u: np.ndarray, steps: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Count of a trajectory starting at each position of ``u``, and whether it is unsure.

        A count near the end of ``u`` may be cut short; the trajectory then
        runs past the end. Annealed counts come from one running sum over
        ``u``, which rounds differently from a trajectory's own sum: they
        are upper bounds, exact unless marked unsure.
        """
        n = len(u)
        unsure = np.zeros(n, dtype=bool)
        if isinstance(self.model, Fixed):
            return np.full(n, self.repeats[0]), unsure
        if isinstance(self.model, Quenched):
            return np.append(self.repeats[draw_indices(self.table, u[1:])], 0), unsure
        # sums[q] is the running total of the waiting times drawn at
        # positions before q, so the partial sums of a trajectory whose
        # waiting times start at s are sums[s + k] - sums[s].
        sums = np.zeros(n + 1, dtype=np.longdouble)
        np.cumsum(steps, dtype=np.longdouble, out=sums[1:])
        # These differences and a trajectory's own double-precision sum
        # both round by at most a unit in the last place per interval, so
        # counts at limit - delta and limit + delta bracket the exact one.
        most = self.limit / self.shortest + 2
        delta = 4 * most * (
            np.finfo(float).eps * 2 * self.limit
            + np.finfo(np.longdouble).eps * (float(sums[-1]) + self.limit)
        )
        high = np.searchsorted(sums, sums[1:] + (self.limit + delta), side="right")
        # The two counts differ exactly when the last sum counted lies above limit - delta.
        unsure = sums[high - 1] > sums[1:] + (self.limit - delta)
        return high - np.arange(2, n + 2), unsure

    def steps(self, u: np.ndarray) -> np.ndarray:
        """The waiting time each uniform of ``u`` selects."""
        return self.values[draw_indices(self.table, u)]

    def taus(self, u: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """Retained waiting times of the trajectories at ``starts``, concatenated."""
        if isinstance(self.model, Annealed):
            return self.steps(u[_ragged(starts + 1, counts)])
        if isinstance(self.model, Quenched):
            return np.repeat(self.steps(u[starts + 1]), counts)
        return np.repeat(self.values, counts.sum())

    def parse(self, u: np.ndarray, rows: int) -> tuple[np.ndarray, np.ndarray]:
        """Starts and counts of the leading trajectories complete in ``u``, at most ``rows``."""
        n = len(u)
        steps = self.steps(u) if isinstance(self.model, Annealed) else None
        counts, unsure = self.counts(u, steps)
        # jump[p]: where the trajectory starting at p ends, or n + 1 when it
        # does not fit; n + 1 is absorbing, so the chase stops there.
        jump = np.minimum(np.arange(n + 2) + np.append(self.length(counts), [1, 0]), n + 1)
        while True:
            starts = _chase(jump, rows)
            done = int(np.count_nonzero(starts[1:] <= n))
            starts = starts[:done]
            recheck = starts[unsure[starts]]
            if not recheck.size:
                return starts, counts[starts]
            for p in recheck.tolist():
                counts[p] = _count_within(steps[p + 1 : p + 2 + counts[p]], self.limit)
            unsure[recheck] = False
            jump[recheck] = recheck + self.length(counts[recheck])


def sample_until_total_time(
    model: WaitingTimeModel, total_time: float, rng: np.random.Generator, count: int
) -> RenewalDraws:
    """Uniform draws of ``count`` fixed-total-time trajectories from ``rng``.

    A trajectory draws waiting times until the next one would overshoot
    ``total_time``: every retained partial sum is <= total_time (a draw
    landing exactly on the budget is kept). The count may be zero if the
    very first interval is already too long; the protocol then consists
    of the two energy measurements only.

    The trajectories take their uniforms one after another, each in
    protocol order: the opening level, the waiting times (annealed: one
    per retained interval and one for the interval that overshoots;
    quenched: one; fixed: none), one outcome per retained interval, and
    the closing level. The uniforms are drawn in pieces of
    ``RENEWAL_PIECE`` and parsed with array operations, with the same
    draws and the same partial sums, to the bit, as drawing each
    trajectory with scalar ``rng.random()`` calls. ``rng`` is left past
    the block's draws and should not be used again.
    """
    if not (total_time > 0 and np.isfinite(total_time)):
        raise ValueError("total_time must be positive and finite")
    if count < 1:
        raise ValueError("count must be >= 1")
    stream = _RenewalStream(model, total_time)
    parts = []
    u = np.empty(0)
    left = count
    while left:
        # About what the remaining trajectories need, within the piece size,
        # and more when one trajectory does not fit in what is held.
        need = int(1.05 * left * stream.mean_length) + 16
        u = np.concatenate([u, rng.random(max(min(need, RENEWAL_PIECE), len(u)))])
        starts, counts = stream.parse(u, left)
        if not starts.size:
            continue
        close = starts + stream.length(counts) - 1
        # The outcome draws are the ``counts`` draws just before the closing one.
        parts.append(
            (counts, u[starts], stream.taus(u, starts, counts), u[_ragged(close - counts, counts)], u[close])
        )
        u = u[close[-1] + 1 :]
        left -= len(starts)
    counts, u_open, flat_taus, flat_steps, u_close = (np.concatenate(x) for x in zip(*parts))
    width = max(int(counts.max()), 1)
    cells = _ragged(np.arange(count) * width, counts)
    taus, u_steps = np.zeros((count, width)), np.zeros((count, width))
    taus.flat[cells] = flat_taus
    u_steps.flat[cells] = flat_steps
    return RenewalDraws(len(cells), counts, u_open, taus, u_steps, u_close)

