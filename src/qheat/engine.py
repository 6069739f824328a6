"""Two-point measurement engine for quantum-heat statistics.

The protocol: a projective energy measurement prepares an eigenstate,
a sequence of projective measurements of an arbitrary observable is
applied at (possibly random) waiting times, and a closing energy
measurement is taken. The heat is the energy difference between the two
energy readouts; this module computes its statistics three ways:

* Monte Carlo over measurement trajectories (``sample_heats``),
* exact enumeration over disorder realizations and outcome sequences,
  summed once per config into the outcome kernel
  ``K[m, n] = sum w |<m|V|n>|^2``, which gives the atoms
  ``(E_m - E_n, p_n K[m, n])`` (``exact_distribution``) and
  ``G(u) = sum_{m,n} exp(i*u*E_m) K[m, n] p_n exp(-i*u*E_n)``
  (``characteristic_function``), and
* moments via numerical differentiation of the characteristic function,
  cross-checked against the distribution route (``heat_moment``).

Internally everything is expressed in the energy eigenbasis, where the
free propagator is diagonal. The measurements are rank-1 projective, so
after each one the state is a known basis vector and the outcome labels
form a classical Markov chain: preparation ``|<k|n>|^2`` from the
opening level ``n``, transitions ``T(tau)[k', k] = |<k'|U(tau)|k>|^2``
between outcomes, readout ``|<m|k>|^2`` by the closing energy
measurement. Monte Carlo samples this chain from cumulative probability
tables, a whole seeded block of trajectories at a time: each step is one
array lookup over the block, no state vector is propagated, and the first
waiting time and the free evolution after the last measurement drop out.
The block takes the same uniform draws, in the same order, as sampling
its trajectories one after another would. With a fixed total time the
measurement count of each trajectory is random; ``sample_until_total_time``
parses the whole block's uniform stream into trajectories with array
operations, once per block, and the walk masks each row past its count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .disorder import (
    Fixed,
    WaitingTimeModel,
    draw_indices,
    draw_table,
    enumerate_realizations,
    sample_until_total_time,
    sample_waiting_times,
    uniforms_per_sequence,
)
from .exceptions import EnumerationTooLargeError, IntervalCapError, MomentMismatchError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    MeasurementBasis,
    energy_populations,
)

DEFAULT_TERM_CAP = 10**7
ATOM_MERGE_TOL = 1e-12
# Trajectories are seeded in fixed-size blocks so that results do not
# depend on how the run is split.
CHUNK_SIZE = 1024
# Most waiting times one fixed-total-time trajectory may draw
# (total_time / shortest waiting time); each is one draw and one stored
# interval, so a run past it would effectively hang.
MAX_INTERVALS = 10**5
# Most uniforms an m_count block draws at once (16 MB); a block of longer
# trajectories is drawn and walked in row sub-batches.
MAX_BLOCK_UNIFORMS = 2**21


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Full description of one measurement experiment.

    Exactly one of ``m_count`` (fixed number of measurements) and
    ``total_time`` (fixed protocol duration, measurement count random)
    must be given.
    """

    h: HermitianOperator
    basis: MeasurementBasis
    rho0: DensityMatrix
    model: WaitingTimeModel
    beta: float = 0.0
    seed: int = 0
    m_count: int | None = None
    total_time: float | None = None

    def __post_init__(self):
        if self.h.dim != self.basis.dim or self.h.dim != self.rho0.dim:
            raise ValueError("Hamiltonian, basis and state dimensions differ")
        if (self.m_count is None) == (self.total_time is None):
            raise ValueError("specify exactly one of m_count and total_time")
        if self.m_count is not None and self.m_count < 1:
            raise ValueError("m_count must be >= 1")
        if self.total_time is not None and not self.total_time > 0:
            raise ValueError("total_time must be positive")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True, eq=False)
class HeatDistribution:
    """Discrete distribution of the exchanged heat.

    ``kind`` is "exact" for enumerated distributions and "empirical" for
    Monte Carlo frequencies (then ``n_samples`` is set).
    """

    qs: np.ndarray
    probs: np.ndarray
    kind: str
    n_samples: int | None = None

    def __post_init__(self):
        if self.kind not in ("exact", "empirical"):
            raise ValueError("kind must be 'exact' or 'empirical'")
        if np.any(self.probs < 0):
            raise ValueError("probabilities must be non-negative")
        if self.kind == "exact" and abs(self.probs.sum() - 1.0) > 1e-10:
            raise ValueError("exact probabilities must sum to 1")

    @property
    def atoms(self) -> list[tuple[float, float]]:
        return [(float(q), float(p)) for q, p in zip(self.qs, self.probs)]

    def moment(self, order: int) -> float:
        return float(np.sum(self.probs * self.qs**order))

    def exp_average(self, beta: float) -> float:
        """Average of exp(-beta * q) over the distribution."""
        return float(np.sum(self.probs * np.exp(-beta * self.qs)))

    def char_fn(self, u: complex) -> complex:
        """Fourier sum over atoms, sum of p * exp(i*u*q)."""
        return complex(np.sum(self.probs * np.exp(1j * u * self.qs)))

    def total_variation(self, other: "HeatDistribution") -> float:
        qs = np.unique(np.concatenate([self.qs, other.qs]))
        diff = 0.0
        for q in qs:
            p1 = self.probs[np.abs(self.qs - q) <= ATOM_MERGE_TOL].sum()
            p2 = other.probs[np.abs(other.qs - q) <= ATOM_MERGE_TOL].sum()
            diff += abs(p1 - p2)
        return 0.5 * diff

    @classmethod
    def from_atoms(cls, pairs, kind="exact", n_samples=None) -> "HeatDistribution":
        qs = np.array([q for q, _ in pairs], dtype=float)
        probs = np.array([p for _, p in pairs], dtype=float)
        qs, probs = _merge_atoms(qs, probs)
        return cls(qs=qs, probs=probs, kind=kind, n_samples=n_samples)

    @classmethod
    def from_samples(cls, heats: np.ndarray) -> "HeatDistribution":
        values, counts = np.unique(np.asarray(heats, dtype=float), return_counts=True)
        n = int(counts.sum())
        return cls(qs=values, probs=counts / n, kind="empirical", n_samples=n)


def _merge_atoms(qs: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort atoms by location and coalesce values closer than the merge tolerance."""
    order = np.argsort(qs)
    merged_q: list[float] = []
    merged_p: list[float] = []
    for q, p in zip(qs[order], probs[order]):
        if merged_q and q - merged_q[-1] <= ATOM_MERGE_TOL:
            merged_p[-1] += p
        else:
            merged_q.append(float(q))
            merged_p.append(float(p))
    keep = [i for i, p in enumerate(merged_p) if p > 0.0]
    return np.array([merged_q[i] for i in keep]), np.array([merged_p[i] for i in keep])


class _EnergyFrame:
    """The sampler's per-config data in the energy eigenbasis.

    ``draw_table`` rows of the outcome chain, stacked into arrays so that a
    whole block is looked up at once.
    """

    def __init__(self, config: ProtocolConfig):
        h = config.h
        self.evals = h.eigenvalues
        self.dim = h.dim
        # Measurement vectors expressed in the energy basis, one column each.
        self.basis_cols = h.eigenvectors.conj().T @ config.basis.vectors
        self.basis_rows = np.ascontiguousarray(self.basis_cols.conj().T)
        overlaps = self.basis_cols.real**2 + self.basis_cols.imag**2  # [n, k] = |<k|n>|^2
        self.opening = np.array(draw_table(energy_populations(config.rho0, h)))
        self.first = np.array([draw_table(row) for row in overlaps])
        self.readout = np.array([draw_table(col) for col in overlaps.T])
        model = config.model
        self.support = (
            np.array([model.tau_bar]) if isinstance(model, Fixed) else np.sort(model.dist.values)
        )

    @cached_property
    def steps(self) -> np.ndarray:
        """Draw tables of ``T(tau)``: ``steps[j, k]`` follows outcome ``k`` after ``support[j]``."""
        tables = []
        for tau in self.support:
            phases = np.exp(-1j * self.evals * tau)
            for k in range(self.dim):
                amps = self.basis_rows @ (phases * self.basis_cols[:, k])
                tables.append(draw_table(amps.real**2 + amps.imag**2))
        return np.array(tables).reshape(len(self.support), self.dim, self.dim)

    def walk(self, u_open, taus, counts, u_steps, u_close) -> np.ndarray:
        """Heats of a block of trajectories sampled on the outcome chain.

        Row ``i`` measures ``counts[i]`` times at the waiting times
        ``taus[i, :counts[i]]`` and draws the opening level from
        ``u_open[i]``, the outcome of measurement ``s`` from
        ``u_steps[i, s]`` and the closing level from ``u_close[i]``.
        Entries past a row's count are ignored.
        The first waiting time drops out: the state before the first
        measurement is an energy eigenstate. A row that measures nothing
        finds level n again and has heat 0.
        """
        n = draw_indices(self.opening, u_open)
        k = draw_indices(self.first[n], u_steps[:, 0])
        j = np.searchsorted(self.support, taus)
        for i in range(1, taus.shape[1]):
            nxt = draw_indices(self.steps[j[:, i], k], u_steps[:, i])
            k = np.where(counts > i, nxt, k)
        m = draw_indices(self.readout[k], u_close)
        return np.where(counts > 0, self.evals[m] - self.evals[n], 0.0)


def _check_interval_cap(config: ProtocolConfig):
    if config.total_time is None:
        return
    model = config.model
    if isinstance(model, Fixed):
        shortest = model.tau_bar
    else:
        shortest = model.dist.values[model.dist.probs > 0].min()
    intervals = config.total_time / shortest
    if intervals > MAX_INTERVALS:
        raise IntervalCapError(
            f"total_time / shortest waiting time = {intervals:.3g} intervals per "
            f"trajectory, cap is {MAX_INTERVALS}"
        )


def chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    """Generator for one trajectory block, derived from the master seed.

    Blocks are the unit of the partition contract: block ``chunk_index``
    always produces the same trajectories, however the run is split.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk_index,)))


def sample_heats_chunk(
    config: ProtocolConfig,
    chunk_index: int,
    count: int,
    *,
    _frame: _EnergyFrame | None = None,
) -> np.ndarray:
    """Heat values of one seeded trajectory block.

    Each trajectory takes its uniform draws in protocol order: the opening
    level, the waiting times, one per measurement outcome, and the closing
    level (drawn even when nothing is measured). With an ``m_count``
    schedule every trajectory takes the same number of draws, so the block
    draws them as one matrix, one trajectory per row, in row sub-batches
    of at most ``MAX_BLOCK_UNIFORMS`` uniforms. With a ``total_time``
    schedule ``sample_until_total_time`` draws and parses the block.
    """
    _check_interval_cap(config)
    frame = _frame if _frame is not None else _EnergyFrame(config)
    rng = chunk_rng(config.seed, chunk_index)
    if config.total_time is not None:
        draws = sample_until_total_time(config.model, config.total_time, rng, count)
        return frame.walk(draws.u_open, draws.taus, draws.counts, draws.u_steps, draws.u_close)
    m_count = config.m_count
    w = uniforms_per_sequence(config.model, m_count)
    width = 2 + w + m_count
    # Row sub-batches take the same stream as one (count, width) draw.
    rows = max(1, MAX_BLOCK_UNIFORMS // width)
    heats = []
    for start in range(0, count, rows):
        u = rng.random((min(rows, count - start), width))
        taus = sample_waiting_times(config.model, m_count, u[:, 1 : 1 + w])
        counts = np.full(len(u), m_count)
        heats.append(frame.walk(u[:, 0], taus, counts, u[:, 1 + w : -1], u[:, -1]))
    return np.concatenate(heats)


def sample_heats(config: ProtocolConfig, n_traj: int) -> np.ndarray:
    """Heat values of ``n_traj`` independent trajectories.

    Trajectories are generated in fixed-size seeded blocks, so the result
    does not depend on how the blocks are split up.
    """
    if n_traj < 1:
        raise ValueError("n_traj must be >= 1")
    frame = _EnergyFrame(config)
    n_chunks = (n_traj + CHUNK_SIZE - 1) // CHUNK_SIZE
    sizes = [min(CHUNK_SIZE, n_traj - c * CHUNK_SIZE) for c in range(n_chunks)]
    return np.concatenate(
        [sample_heats_chunk(config, c, size, _frame=frame) for c, size in enumerate(sizes)]
    )


def jarzynski_estimate(config: ProtocolConfig, n_traj: int) -> tuple[float, float]:
    """Trajectory average of exp(-beta*q) with its standard error.

    For a thermal initial state the exact value is 1 regardless of the
    waiting-time model; the estimate should be consistent with that
    within a few standard errors.
    """
    if n_traj < 2:
        raise ValueError("n_traj must be >= 2")
    heats = sample_heats(config, n_traj)
    x = np.exp(-config.beta * heats)
    mean = float(x.mean())
    stderr = float(x.std(ddof=1) / math.sqrt(n_traj))
    return mean, stderr


def _require_m_count(config: ProtocolConfig) -> int:
    if config.m_count is None:
        raise ValueError(
            "exact enumeration requires an m_count schedule "
            "(fixed-total-time protocols are Monte Carlo only)"
        )
    return config.m_count


def _check_term_cap(config: ProtocolConfig) -> list:
    m = _require_m_count(config)
    realizations = enumerate_realizations(config.model, m, cap=DEFAULT_TERM_CAP)
    terms = len(realizations) * config.basis.size**m
    if terms > DEFAULT_TERM_CAP:
        raise EnumerationTooLargeError(
            f"exact enumeration needs {terms} terms, cap is {DEFAULT_TERM_CAP}"
        )
    return realizations


def _leaf_operators(config: ProtocolConfig):
    """``(w, V)`` for every disorder realization and outcome sequence.

    ``w`` is the realization's weight and ``V`` the sequence operator in
    the energy basis. Depth-first over outcome prefixes so partial products
    are shared; at depth i the running matrix is
    P_{k_i} U(tau_i) ... P_{k_1} U(tau_1).
    """
    realizations = _check_term_cap(config)
    evals = config.h.eigenvalues
    basis_cols = config.h.eigenvectors.conj().T @ config.basis.vectors

    def recurse(phase_list, depth: int, mat: np.ndarray):
        if depth == len(phase_list):
            yield mat
            return
        evolved = phase_list[depth][:, None] * mat
        for col in basis_cols.T:
            yield from recurse(phase_list, depth + 1, np.outer(col, col.conj() @ evolved))

    for real in realizations:
        phase_list = [np.exp(-1j * evals * tau) for tau in real.taus]
        for op in recurse(phase_list, 0, np.eye(config.h.dim, dtype=complex)):
            yield real.weight, op


@lru_cache(maxsize=1)
def _kernel(config: ProtocolConfig) -> np.ndarray:
    """Disorder-averaged outcome kernel ``K[m, n]`` in the energy basis.

    ``K[m, n]`` sums ``w |<m|V|n>|^2`` over every realization and outcome
    sequence: the probability that the closing energy readout is ``m``
    given the opening readout ``n``. Built once per config (configs compare
    by identity), it serves the atoms and the characteristic function.
    """
    kernel = sum(w * (op.real**2 + op.imag**2) for w, op in _leaf_operators(config))
    kernel.flags.writeable = False
    return kernel


def exact_distribution(config: ProtocolConfig) -> HeatDistribution:
    """Exact heat distribution: atoms ``(E_m - E_n, p_n K[m, n])``.

    ``p_n`` are the initial energy populations and ``K`` the enumerated
    outcome kernel; the enumeration is capped at ``DEFAULT_TERM_CAP`` terms.
    """
    kernel = _kernel(config)
    evals = config.h.eigenvalues
    populations = energy_populations(config.rho0, config.h)
    pairs = [
        (evals[m] - evals[n], populations[n] * kernel[m, n])
        for n in range(config.h.dim)
        for m in range(config.h.dim)
    ]
    return HeatDistribution.from_atoms(pairs, kind="exact")


def characteristic_function(config: ProtocolConfig, u: complex) -> complex:
    """Exact characteristic function of the heat at complex argument ``u``.

    ``G(u) = sum_{m,n} exp(i*u*E_m) K[m, n] p_n exp(-i*u*E_n)`` with the
    outcome kernel ``K`` and the initial energy populations ``p`` (the
    opening measurement erases energy coherences, so only populations
    enter). At real ``u`` this equals the Fourier sum over the atoms of
    ``exact_distribution``; at ``u = i*beta`` with a thermal state it
    equals 1 identically, because the averaged channel is unital.
    """
    u = complex(u)
    evals = config.h.eigenvalues
    populations = energy_populations(config.rho0, config.h)
    return complex(
        np.exp(1j * u * evals) @ _kernel(config) @ (populations * np.exp(-1j * u * evals))
    )


def unitality_residual(config: ProtocolConfig) -> float:
    """Frobenius distance of the averaged channel's image of identity from identity.

    Sums V V(dagger) over outcome sequences and disorder realizations;
    completeness of the projectors and unitarity of the propagators make
    this the identity exactly, so the residual is pure round-off. The
    initial state plays no role.
    """
    image = sum(w * (op @ op.conj().T) for w, op in _leaf_operators(config))
    return float(np.linalg.norm(image - np.eye(config.h.dim)))


# Central finite-difference configuration per derivative order: base step
# (scaled down by the spectral spread when it exceeds 1) and number of
# Richardson extrapolation levels. The steps grow with the order because
# round-off in a 1/h^n stencil would otherwise swamp the small default
# step; values validated against the distribution route in the tests.
_FD_PLAN = {1: (1e-2, 1), 2: (1e-2, 1), 3: (5e-2, 1), 4: (1e-1, 2)}


def _fd_derivative(g, order: int, h: float, levels: int) -> complex:
    """Richardson-extrapolated central difference of ``g`` at 0."""

    def stencil(step: float) -> complex:
        if order == 1:
            return (g(step) - g(-step)) / (2 * step)
        if order == 2:
            return (g(step) - 2 * g(0.0) + g(-step)) / step**2
        if order == 3:
            return (g(2 * step) - 2 * g(step) + 2 * g(-step) - g(-2 * step)) / (
                2 * step**3
            )
        if order == 4:
            return (
                g(2 * step) - 4 * g(step) + 6 * g(0.0) - 4 * g(-step) + g(-2 * step)
            ) / step**4
        raise ValueError("order must be in 1..4")

    estimates = [stencil(h / 2**i) for i in range(levels + 1)]
    # Each Richardson pass removes the next even error term (h^2, h^4, ...).
    power = 4.0
    while len(estimates) > 1:
        estimates = [
            (power * fine - coarse) / (power - 1.0)
            for coarse, fine in zip(estimates, estimates[1:])
        ]
        power *= 4.0
    return estimates[0]


def moment_via_distribution(config: ProtocolConfig, order: int) -> float:
    """Heat moment as a direct sum over the exact atoms."""
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in 1..4")
    return exact_distribution(config).moment(order)


def moment_via_char_fn(config: ProtocolConfig, order: int) -> float:
    """Heat moment from derivatives of the characteristic function at zero."""
    if order not in (1, 2, 3, 4):
        raise ValueError("order must be in 1..4")
    cache: dict[float, complex] = {}

    def g(x: float) -> complex:
        if x not in cache:
            cache[x] = characteristic_function(config, x)
        return cache[x]

    h0, levels = _FD_PLAN[order]
    spread = float(config.h.eigenvalues[-1] - config.h.eigenvalues[0])
    h = h0 / max(1.0, spread)
    derivative = _fd_derivative(g, order, h, levels)
    return ((-1j) ** order * derivative).real


def heat_moment(config: ProtocolConfig, order: int) -> float:
    """Heat moment computed two independent ways and cross-checked.

    The distribution route is returned; if the derivative route disagrees
    beyond 1e-6 relative to max(1, |moment|), MomentMismatchError is
    raised, which indicates a bug rather than a user error.
    """
    direct = moment_via_distribution(config, order)
    derived = moment_via_char_fn(config, order)
    tol = 1e-6 * max(1.0, abs(direct))
    if abs(direct - derived) > tol:
        raise MomentMismatchError(
            f"order-{order} moment routes disagree: {direct!r} vs {derived!r}"
        )
    return direct
