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


def sample_until_total_time(
    model: WaitingTimeModel, total_time: float, rng: np.random.Generator
) -> tuple[int, np.ndarray]:
    """Draw waiting times until the next one would overshoot ``total_time``.

    Returns the number of retained intervals and the intervals
    themselves; every retained partial sum is <= total_time (a draw
    landing exactly on the budget is kept). The count may be zero if the
    very first interval is already too long; the protocol then consists
    of the two energy measurements only.
    """
    if not (total_time > 0 and np.isfinite(total_time)):
        raise ValueError("total_time must be positive and finite")
    limit = total_time * (1.0 + _TOTAL_TIME_REL_TOL)

    if isinstance(model, Fixed):
        draw = lambda: model.tau_bar  # noqa: E731
    elif isinstance(model, Quenched):
        tau = model.dist.values[draw_index(rng, draw_table(model.dist.probs))]
        draw = lambda: tau  # noqa: E731
    elif isinstance(model, Annealed):
        table = draw_table(model.dist.probs)
        draw = lambda: model.dist.values[draw_index(rng, table)]  # noqa: E731
    else:
        raise TypeError(f"unknown waiting-time model {model!r}")

    taus: list[float] = []
    elapsed = 0.0
    while True:
        step = draw()
        if elapsed + step > limit:
            break
        taus.append(step)
        elapsed += step
    return len(taus), np.array(taus, dtype=float)


def mean_waiting_time(model: WaitingTimeModel) -> float:
    """Expected single-interval waiting time of the model."""
    if isinstance(model, Fixed):
        return model.tau_bar
    return model.dist.mean()
