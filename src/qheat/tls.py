"""Closed-form heat statistics for a repeatedly measured two-level system.

The two energy levels sit at -E and +E. The monitored observable's
eigenvectors mix the energy levels with real weights sqrt(a_sq) and
sqrt(1 - a_sq); the initial state is diagonal in the energy basis with
population ``excited_pop`` on the upper level.

The characteristic function of the heat factorizes into a readout row
vector, a power of a 2x2 doubly stochastic matrix that tracks how
outcome populations hop between the two measurement channels, and a
preparation column vector:

    G(u) = readout(u) . T^(m-1) . preparation(u)

Disorder in the waiting times enters only through the hop probability:
a quenched average mixes powers of the matrix, an annealed average
takes the power of the mixed matrix. Matrix powers are evaluated
through the eigendecomposition (uniform and alternating channels), so
any power including the infinite-measurement limit is exact.

The hop probability per step is defined by the squared propagator
matrix element between the two measurement vectors, computed
numerically from the operator algebra; a closed form is exposed
separately and equals the matrix element to round-off (see the tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import disorder
from .disorder import Annealed, DiscreteWaitingDist, Fixed, Quenched, WaitingTimeModel
from .engine import ProtocolConfig
from .exceptions import UnreachableMeanError
from .operators import (
    DensityMatrix,
    HermitianOperator,
    MeasurementBasis,
    propagator,
    spectral_decompose,
)


@dataclass(frozen=True)
class TwoLevelParams:
    """Parameters of the two-level protocol.

    Attributes
    ----------
    energy : float
        Half the level splitting; eigenvalues are -energy and +energy.
    a_sq : float
        Squared overlap of the first measurement vector with the upper
        level, in [0, 1]. At 0 or 1 the observable commutes with the
        Hamiltonian and no heat flows.
    excited_pop : float
        Initial population of the upper level, in [0, 1].
    n_meas : int
        Number of observable measurements between the energy readouts.
    beta : float
        Inverse temperature used for exponential averages.
    """

    energy: float
    a_sq: float
    excited_pop: float
    n_meas: int
    beta: float = 0.0

    def __post_init__(self):
        if not self.energy > 0:
            raise ValueError("energy must be positive")
        if not 0.0 <= self.a_sq <= 1.0:
            raise ValueError("a_sq must lie in [0, 1]")
        if not 0.0 <= self.excited_pop <= 1.0:
            raise ValueError("excited_pop must lie in [0, 1]")
        if self.n_meas < 1:
            raise ValueError("n_meas must be >= 1")
        if self.beta < 0:
            raise ValueError("beta must be non-negative")


def thermal_excited_pop(energy: float, beta: float) -> float:
    """Upper-level population of the Gibbs state at inverse temperature beta."""
    return math.exp(-beta * energy) / (math.exp(-beta * energy) + math.exp(beta * energy))


@lru_cache(maxsize=256)
def _system(energy: float, a_sq: float) -> tuple[HermitianOperator, MeasurementBasis]:
    """Hamiltonian and measurement basis for the given splitting and mixing."""
    h = spectral_decompose(np.diag([-energy, energy]).astype(complex))
    a = math.sqrt(a_sq)
    b = math.sqrt(1.0 - a_sq)
    # Columns in the (lower, upper) energy ordering.
    vectors = np.array([[-b, a], [a, b]], dtype=complex)
    return h, MeasurementBasis.from_vectors(vectors)


def hamiltonian(p: TwoLevelParams) -> HermitianOperator:
    return _system(p.energy, p.a_sq)[0]


def measurement_basis(p: TwoLevelParams) -> MeasurementBasis:
    return _system(p.energy, p.a_sq)[1]


def initial_state(p: TwoLevelParams) -> DensityMatrix:
    return DensityMatrix(np.diag([1.0 - p.excited_pop, p.excited_pop]).astype(complex))


def to_protocol_config(
    p: TwoLevelParams,
    model: WaitingTimeModel,
    seed: int = 0,
    total_time: float | None = None,
) -> ProtocolConfig:
    """Bridge to the general engine for cross-checking the closed forms."""
    h, basis = _system(p.energy, p.a_sq)
    return ProtocolConfig(
        h=h,
        basis=basis,
        rho0=initial_state(p),
        model=model,
        beta=p.beta,
        seed=seed,
        m_count=None if total_time is not None else p.n_meas,
        total_time=total_time,
    )


def flip_probability(p: TwoLevelParams, tau: float) -> float:
    """Probability of hopping between the two measurement channels in one step.

    Defined as the squared matrix element of the free propagator over
    time ``tau`` between the two measurement vectors, evaluated
    numerically. Bounded by 4*a_sq*(1-a_sq) <= 1, and zero whenever the
    measurement basis coincides with the energy basis.
    """
    if tau < 0:
        raise ValueError("tau must be non-negative")
    h, basis = _system(p.energy, p.a_sq)
    u = propagator(h, tau)
    amp = basis.vectors[:, 1].conj() @ (u @ basis.vectors[:, 0])
    return float(abs(amp) ** 2)


def flip_probability_closed_form(p: TwoLevelParams, tau: float) -> float:
    """Closed form of the hop probability: 4*a_sq*(1-a_sq)*sin(tau*E)^2.

    Kept separate from ``flip_probability`` so the matrix element stays
    the defining route; the tests pin their agreement to round-off.
    """
    return 4.0 * p.a_sq * (1.0 - p.a_sq) * math.sin(tau * p.energy) ** 2


@dataclass(frozen=True)
class OutcomeTransitionMatrix:
    """Doubly stochastic 2x2 matrix moving population between outcome channels.

    Off-diagonal entry ``nu`` is the per-step hop probability; the
    eigenvalues are 1 (uniform channel) and 1 - 2*nu (alternating
    channel).
    """

    nu: float

    def __post_init__(self):
        if not 0.0 <= self.nu <= 1.0:
            raise ValueError("nu must lie in [0, 1]")

    @property
    def matrix(self) -> np.ndarray:
        n = self.nu
        return np.array([[1.0 - n, n], [n, 1.0 - n]])

    @property
    def eigenvalues(self) -> tuple[float, float]:
        return 1.0, 1.0 - 2.0 * self.nu

    def power(self, k: int) -> np.ndarray:
        """Exact k-th matrix power via the two eigenchannels."""
        if k < 0:
            raise ValueError("power must be non-negative")
        mu_k = (1.0 - 2.0 * self.nu) ** k
        hi = 0.5 * (1.0 + mu_k)
        lo = 0.5 * (1.0 - mu_k)
        return np.array([[hi, lo], [lo, hi]])


def _a_vector(p: TwoLevelParams, order: int, u: complex) -> np.ndarray:
    """Readout-side vector; order-0 gives the readout weights themselves."""
    a2, b2, e = p.a_sq, 1.0 - p.a_sq, p.energy
    up = e**order * np.exp(1j * u * e)
    down = (-e) ** order * np.exp(-1j * u * e)
    return (1j) ** order * np.array([a2 * up + b2 * down, b2 * up + a2 * down])


def _b_vector(p: TwoLevelParams, order: int, u: complex) -> np.ndarray:
    """Preparation-side vector; order-0 gives the preparation weights."""
    a2, b2, e = p.a_sq, 1.0 - p.a_sq, p.energy
    c1, c2 = p.excited_pop, 1.0 - p.excited_pop
    up = e**order * np.exp(-1j * u * e) * c1
    down = (-e) ** order * np.exp(1j * u * e) * c2
    return (-1j) ** order * np.array([a2 * up + b2 * down, b2 * up + a2 * down])


def readout_vector(p: TwoLevelParams, u: complex) -> np.ndarray:
    """Diagonal weights of exp(i*u*H) in the measurement basis."""
    return _a_vector(p, 0, u)


def preparation_vector(p: TwoLevelParams, u: complex) -> np.ndarray:
    """Diagonal weights of exp(-i*u*H) rho0 in the measurement basis."""
    return _b_vector(p, 0, u)


def _bilinear(left: np.ndarray, right: np.ndarray, mu: float, power: int) -> complex:
    """left . T^power . right for the transition matrix with second eigenvalue mu.

    Uses the eigenchannel form: the uniform channel passes the sums, the
    alternating channel passes the differences scaled by mu**power.
    """
    uniform = (left[0] + left[1]) * (right[0] + right[1])
    alternating = (left[0] - left[1]) * (right[0] - right[1])
    return complex(0.5 * (uniform + mu**power * alternating))


def _mu(p: TwoLevelParams, tau: float) -> float:
    return 1.0 - 2.0 * flip_probability(p, tau)


def char_fn_fixed(p: TwoLevelParams, u: complex, tau_bar: float) -> complex:
    """Characteristic function for equal waiting times ``tau_bar``."""
    f = _a_vector(p, 0, u)
    g = _b_vector(p, 0, u)
    return _bilinear(f, g, _mu(p, tau_bar), p.n_meas - 1)


def char_fn_quenched(p: TwoLevelParams, u: complex, dist: DiscreteWaitingDist) -> complex:
    """Characteristic function when one random waiting time is repeated."""
    f = _a_vector(p, 0, u)
    g = _b_vector(p, 0, u)
    return complex(
        sum(
            prob * _bilinear(f, g, _mu(p, tau), p.n_meas - 1)
            for tau, prob in zip(dist.values, dist.probs)
        )
    )


def mixed_flip_probability(p: TwoLevelParams, dist: DiscreteWaitingDist) -> float:
    """Average hop probability over the waiting-time law."""
    return float(sum(prob * flip_probability(p, tau) for tau, prob in zip(dist.values, dist.probs)))


def char_fn_annealed(p: TwoLevelParams, u: complex, dist: DiscreteWaitingDist) -> complex:
    """Characteristic function for independent waiting times each step.

    The per-step transition matrices commute, so the disorder average
    collapses to the power of the probability-mixed matrix, whose hop
    probability is the mixed one.
    """
    f = _a_vector(p, 0, u)
    g = _b_vector(p, 0, u)
    mu = 1.0 - 2.0 * mixed_flip_probability(p, dist)
    return _bilinear(f, g, mu, p.n_meas - 1)


def char_fn_annealed_binomial(
    p: TwoLevelParams, u: complex, dist: DiscreteWaitingDist
) -> complex:
    """Annealed characteristic function as an explicit binomial sum.

    Expands the mixed-matrix power over how many of the m-1 hops used
    the first support value. Supports one- and two-atom laws; exists as
    an independent route for cross-checking ``char_fn_annealed``.
    """
    if len(dist) == 1:
        return char_fn_fixed(p, u, float(dist.values[0]))
    if len(dist) != 2:
        raise ValueError("the binomial form is defined for laws with at most two atoms")
    f = _a_vector(p, 0, u)
    g = _b_vector(p, 0, u)
    mu1, mu2 = (_mu(p, float(t)) for t in dist.values)
    p1, p2 = (float(x) for x in dist.probs)
    steps = p.n_meas - 1
    total = 0.0 + 0.0j
    for k in range(steps + 1):
        weight = math.comb(steps, k) * p1**k * p2 ** (steps - k)
        # T1^k T2^(steps-k) shares the eigenchannels; alternating part
        # carries mu1^k * mu2^(steps-k).
        uniform = (f[0] + f[1]) * (g[0] + g[1])
        alternating = (f[0] - f[1]) * (g[0] - g[1]) * mu1**k * mu2 ** (steps - k)
        total += weight * 0.5 * (uniform + alternating)
    return complex(total)


def char_fn(p: TwoLevelParams, model: WaitingTimeModel, u: complex) -> complex:
    """Characteristic function for any waiting-time model."""
    if isinstance(model, Fixed):
        return char_fn_fixed(p, u, model.tau_bar)
    if isinstance(model, Quenched):
        return char_fn_quenched(p, u, model.dist)
    if isinstance(model, Annealed):
        return char_fn_annealed(p, u, model.dist)
    raise TypeError(f"unknown waiting-time model {model!r}")


def char_fn_slope_c1(p: TwoLevelParams, model: WaitingTimeModel, u: complex) -> complex:
    """Exact derivative of the characteristic function w.r.t. excited_pop.

    The preparation vector is affine in the initial upper-level
    population, so the slope is the difference of the endpoints.
    """
    hi = char_fn(replace(p, excited_pop=1.0), model, u)
    lo = char_fn(replace(p, excited_pop=0.0), model, u)
    return hi - lo


def char_fn_derivative(
    p: TwoLevelParams, model: WaitingTimeModel, n: int, u: complex
) -> complex:
    """n-th derivative of the characteristic function in its argument.

    Differentiates the readout/preparation product with the general
    Leibniz rule (binomial coefficients over how the derivatives split
    between the two factors); the transition matrix does not depend on
    the argument. Orders 1 to 4 are supported; the heat moments follow
    by evaluating at zero and multiplying by (-i)^n.
    """
    if n not in (1, 2, 3, 4):
        raise ValueError("derivative order must be in 1..4")
    steps = p.n_meas - 1

    def leibniz(mu: float) -> complex:
        return complex(
            sum(
                math.comb(n, k) * _bilinear(_a_vector(p, k, u), _b_vector(p, n - k, u), mu, steps)
                for k in range(n + 1)
            )
        )

    if isinstance(model, Fixed):
        return leibniz(_mu(p, model.tau_bar))
    if isinstance(model, Quenched):
        return complex(
            sum(
                prob * leibniz(_mu(p, float(tau)))
                for tau, prob in zip(model.dist.values, model.dist.probs)
            )
        )
    if isinstance(model, Annealed):
        return leibniz(1.0 - 2.0 * mixed_flip_probability(p, model.dist))
    raise TypeError(f"unknown waiting-time model {model!r}")


def suppression_factor(p: TwoLevelParams, model: WaitingTimeModel) -> float:
    """Disorder-averaged factor by which the mean heat is suppressed.

    Equals (1 - 2*a_sq)^2 times the disorder average of the alternating
    eigenvalue raised to the number of hops. The value 1 means no heat
    on average, 0 the maximal transfer; the annealed average never
    exceeds the quenched one on a positive-eigenvalue grid.
    """
    prefactor = (1.0 - 2.0 * p.a_sq) ** 2
    steps = p.n_meas - 1
    if isinstance(model, Fixed):
        return prefactor * _mu(p, model.tau_bar) ** steps
    if isinstance(model, Quenched):
        return prefactor * float(
            sum(
                prob * _mu(p, float(tau)) ** steps
                for tau, prob in zip(model.dist.values, model.dist.probs)
            )
        )
    if isinstance(model, Annealed):
        return prefactor * (1.0 - 2.0 * mixed_flip_probability(p, model.dist)) ** steps
    raise TypeError(f"unknown waiting-time model {model!r}")


def mean_heat(p: TwoLevelParams, model: WaitingTimeModel) -> float:
    """Disorder-averaged mean heat.

    Linear in the initial upper-level population: positive (absorption)
    below half filling, negative (emission) above, zero at one half and
    whenever the measurement commutes with the Hamiltonian.
    """
    phi = p.energy * (1.0 - suppression_factor(p, model))
    return -phi * (2.0 * p.excited_pop - 1.0)


def max_mean_heat(p: TwoLevelParams, model: WaitingTimeModel) -> float:
    """Largest mean heat over initial populations, attained at zero filling."""
    return mean_heat(replace(p, excited_pop=0.0), model)


def zeno_floor(p: TwoLevelParams) -> float:
    """Mean-heat ceiling of the frozen-dynamics regime, 4*E*a_sq*(1-a_sq).

    When every hop probability vanishes (resonant waiting times or the
    rapid-measurement limit at fixed total time), the maximal mean heat
    drops to exactly this measurement-backaction value.
    """
    return 4.0 * p.energy * p.a_sq * (1.0 - p.a_sq)


def char_fn_limit(p: TwoLevelParams, u: complex) -> complex:
    """Characteristic function in the infinite-measurement limit.

    Valid branch for mixing strictly between the energy basis cases; at
    a_sq of exactly 0 or 1 the true value is identically 1 for every
    finite count, so the limit is discontinuous there.
    """
    e = p.energy
    return complex(
        (1.0 + np.exp(2j * u * e)) / 2.0 - p.excited_pop * np.sinh(2j * u * e)
    )


def mean_heat_limit(p: TwoLevelParams) -> float:
    """Mean heat in the infinite-measurement limit: E*(1 - 2*excited_pop)."""
    return p.energy * (1.0 - 2.0 * p.excited_pop)


def suppression_gap(
    p: TwoLevelParams,
    dist: DiscreteWaitingDist,
    mean_tau_target: float,
    total_time: float,
) -> float:
    """Annealed suppression minus the fixed-protocol one at matched budgets.

    The two-atom law's first probability is fixed by the requested mean
    waiting time, the measurement count by the total duration divided by
    that mean (rounded, at least one). Negative values mean the noisy
    protocol transfers more heat than the regular one; in the
    rapid-measurement regime (mean waiting time well below the inverse
    splitting) the gap is negative because mixing the hop probability
    over a convex stretch of its time dependence only increases it.
    """
    if len(dist) != 2:
        raise ValueError("the gap comparison needs a two-atom waiting-time law")
    lo, hi = sorted(float(v) for v in dist.values)
    if not lo <= mean_tau_target <= hi:
        raise UnreachableMeanError(
            f"target mean {mean_tau_target} outside the support interval [{lo}, {hi}]"
        )
    p_lo = (hi - mean_tau_target) / (hi - lo) if hi > lo else 1.0
    matched = DiscreteWaitingDist.bimodal(lo, hi, p_lo)
    m = max(1, round(total_time / mean_tau_target))
    pm = replace(p, n_meas=m)
    return suppression_factor(pm, Annealed(matched)) - suppression_factor(
        pm, Fixed(mean_tau_target)
    )


def peak_mean_heat_annealed(
    p: TwoLevelParams,
    dist: DiscreteWaitingDist,
    mean_tau_scale: float,
    total_time: float,
) -> float:
    """Maximal annealed mean heat at a prescribed splitting-mean product.

    Rescales both support values by a common factor so that the level
    splitting times the mean waiting time equals ``mean_tau_scale``
    (probabilities untouched), then refits the measurement count to the
    total duration. Resonant scales, where every support value evolves
    through whole periods, pin the result to the frozen-dynamics floor.
    """
    if not mean_tau_scale > 0:
        raise ValueError("mean_tau_scale must be positive")
    splitting = 2.0 * p.energy
    scaled = dist.scaled(mean_tau_scale / (splitting * dist.mean()))
    m = max(1, round(total_time / scaled.mean()))
    return max_mean_heat(replace(p, n_meas=m), Annealed(scaled))


def quenched_vs_fixed_margin(p: TwoLevelParams, dist: DiscreteWaitingDist) -> float:
    """Alternating-channel margin deciding quenched versus fixed transfer.

    Positive when the regular protocol at the mean waiting time keeps
    more of the alternating channel than the quenched average does, in
    which case the quenched protocol transfers at least as much heat.
    """
    steps = p.n_meas - 1
    fixed_part = _mu(p, dist.mean()) ** steps
    quenched_part = float(
        sum(prob * _mu(p, float(t)) ** steps for t, prob in zip(dist.values, dist.probs))
    )
    return fixed_part - quenched_part


__all__ = [
    "TwoLevelParams",
    "OutcomeTransitionMatrix",
    "thermal_excited_pop",
    "hamiltonian",
    "measurement_basis",
    "initial_state",
    "to_protocol_config",
    "flip_probability",
    "flip_probability_closed_form",
    "mixed_flip_probability",
    "readout_vector",
    "preparation_vector",
    "char_fn",
    "char_fn_fixed",
    "char_fn_quenched",
    "char_fn_annealed",
    "char_fn_annealed_binomial",
    "char_fn_slope_c1",
    "char_fn_derivative",
    "char_fn_limit",
    "mean_heat",
    "mean_heat_limit",
    "max_mean_heat",
    "zeno_floor",
    "suppression_factor",
    "suppression_gap",
    "peak_mean_heat_annealed",
    "quenched_vs_fixed_margin",
    "disorder",
]
