"""Finite-dimensional operator algebra for repeated projective measurements.

Everything here is dense complex linear algebra on small Hilbert spaces
(the intended scale is dimension <= 16, all algorithms are O(d^3)).
Matrix functions of the Hamiltonian are evaluated through its spectral
decomposition rather than by series: this keeps propagators unitary to
round-off and supports complex arguments for free.

All container types are immutable after construction and safe to share
across threads; the operations are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
)

# Absolute tolerance for invariants of freshly constructed objects.
CONSTRUCTION_TOL = 1e-12
# Hermiticity tolerance accepted on input matrices.
HERMITICITY_TOL = 1e-10
# Eigenvalue gaps below this trigger DegenerateSpectrumError.
DEGENERACY_GAP = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a square complex matrix with finite entries."""
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValueError("matrix entries must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """A Hermitian matrix together with its spectral decomposition.

    Attributes
    ----------
    matrix : ndarray
        The operator itself, d x d complex.
    eigenvalues : ndarray
        Real eigenvalues sorted ascending, strictly non-degenerate.
    eigenvectors : ndarray
        Unitary matrix whose columns are the corresponding eigenvectors.
        The largest-magnitude component of each column is made real and
        positive so decompositions are deterministic across platforms.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        v = self.eigenvectors
        d = self.dim
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(d))) > CONSTRUCTION_TOL:
            raise InvalidStateError("eigenvector columns are not orthonormal")
        rebuilt = (v * self.eigenvalues) @ v.conj().T
        if np.max(np.abs(rebuilt - self.matrix)) > CONSTRUCTION_TOL:
            raise InvalidStateError("spectral decomposition does not rebuild the matrix")
        gaps = np.diff(self.eigenvalues)
        if np.any(gaps <= 0):
            raise InvalidStateError("eigenvalues must be sorted strictly ascending")
        if np.any(gaps < DEGENERACY_GAP):
            raise DegenerateSpectrumError(
                f"smallest eigenvalue gap {gaps.min():.3e} is below {DEGENERACY_GAP:.0e}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _fix_eigenvector_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        i = int(np.argmax(np.abs(col)))
        pivot = col[i]
        out[:, j] = col * (np.conj(pivot) / abs(pivot))
    return out


def spectral_decompose(m) -> HermitianOperator:
    """Diagonalize a Hermitian matrix.

    Parameters
    ----------
    m : array_like
        Square matrix, Hermitian to within 1e-10.

    Returns
    -------
    HermitianOperator
        Eigenvalues ascending; eigenvector phases fixed deterministically.

    Raises
    ------
    NotHermitianError
        If ``m`` deviates from its adjoint beyond tolerance.
    DegenerateSpectrumError
        If two eigenvalues are closer than 1e-9. The theory implemented
        here assumes a non-degenerate spectrum, so this is a hard error.
    """
    arr = as_complex_matrix(m)
    if np.max(np.abs(arr - arr.conj().T)) > HERMITICITY_TOL:
        raise NotHermitianError("matrix is not Hermitian within 1e-10")
    herm = 0.5 * (arr + arr.conj().T)
    eigenvalues, eigenvectors = np.linalg.eigh(herm)
    eigenvectors = _fix_eigenvector_phases(eigenvectors)
    return HermitianOperator(matrix=herm, eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def propagator(h: HermitianOperator, t: float) -> np.ndarray:
    """Unitary time-evolution operator exp(-i*H*t), with hbar = 1."""
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    phases = np.exp(-1j * h.eigenvalues * t)
    v = h.eigenvectors
    return (v * phases) @ v.conj().T


@dataclass(frozen=True, eq=False)
class MeasurementBasis:
    """Complete set of rank-1 orthogonal projectors for a monitored observable.

    Attributes
    ----------
    vectors : ndarray
        d x d unitary matrix; column k is the eigenvector onto which
        outcome k projects.
    outcomes : ndarray
        Real measured value attached to each projector.
    """

    vectors: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        v = self.vectors
        d = v.shape[0]
        if v.shape != (d, d):
            raise InvalidStateError("rank-1 complete bases need exactly d vectors")
        gram = v.conj().T @ v
        if np.max(np.abs(gram - np.eye(d))) > CONSTRUCTION_TOL:
            raise InvalidStateError("measurement vectors are not orthonormal")
        if self.outcomes.shape != (d,):
            raise InvalidStateError("need one outcome value per projector")
        if not np.all(np.isfinite(self.outcomes)):
            raise InvalidStateError("outcomes must be finite reals")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def size(self) -> int:
        """Number of projectors (equals the dimension for rank-1 bases)."""
        return self.vectors.shape[1]

    def projector(self, k: int) -> np.ndarray:
        """The rank-1 projector |k><k| for outcome index k."""
        col = self.vectors[:, k]
        return np.outer(col, col.conj())

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        return tuple(self.projector(k) for k in range(self.size))

    def observable(self) -> np.ndarray:
        """The measured operator, sum of outcome * projector."""
        v = self.vectors
        return (v * self.outcomes) @ v.conj().T

    @classmethod
    def from_vectors(cls, vectors, outcomes=None) -> "MeasurementBasis":
        v = np.asarray(vectors, dtype=complex)
        if outcomes is None:
            outcomes = np.arange(v.shape[1], dtype=float)
        return cls(vectors=v, outcomes=np.asarray(outcomes, dtype=float))

    @classmethod
    def energy_basis(cls, h: HermitianOperator) -> "MeasurementBasis":
        """Measurement of the Hamiltonian itself (outcomes = eigenvalues)."""
        return cls(vectors=h.eigenvectors.copy(), outcomes=h.eigenvalues.copy())


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Positive-semidefinite, unit-trace state of the system."""

    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if np.max(np.abs(m - m.conj().T)) > CONSTRUCTION_TOL:
            raise InvalidStateError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > CONSTRUCTION_TOL:
            raise InvalidStateError("density matrix must have unit trace")
        eigs = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
        if eigs.min() < -CONSTRUCTION_TOL:
            raise InvalidStateError(f"density matrix has negative eigenvalue {eigs.min():.3e}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def pure(cls, state) -> "DensityMatrix":
        vec = np.asarray(state, dtype=complex)
        vec = vec / np.linalg.norm(vec)
        return cls(matrix=np.outer(vec, vec.conj()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(matrix=np.eye(dim, dtype=complex) / dim)

    @classmethod
    def thermal(cls, h: HermitianOperator, beta: float) -> "DensityMatrix":
        """Gibbs state exp(-beta*H)/Z at inverse temperature beta >= 0."""
        if beta < 0:
            raise ValueError("beta must be non-negative")
        # Subtract the ground energy before exponentiating for stability.
        w = np.exp(-beta * (h.eigenvalues - h.eigenvalues[0]))
        w = w / w.sum()
        v = h.eigenvectors
        return cls(matrix=(v * w) @ v.conj().T)


@dataclass(frozen=True, eq=False)
class OutcomeSequence:
    """One realized history: outcome indices and the waiting times before each."""

    ks: np.ndarray
    taus: np.ndarray

    def __post_init__(self):
        ks = np.asarray(self.ks, dtype=int)
        taus = np.asarray(self.taus, dtype=float)
        if ks.ndim != 1 or taus.shape != ks.shape:
            raise ValueError("ks and taus must be 1-d arrays of equal length")
        if np.any(taus < 0) or not np.all(np.isfinite(taus)):
            raise ValueError("waiting times must be finite and non-negative")
        object.__setattr__(self, "ks", ks)
        object.__setattr__(self, "taus", taus)

    def __len__(self) -> int:
        return len(self.ks)


def measurement_sequence_operator(
    basis: MeasurementBasis, h: HermitianOperator, seq: OutcomeSequence
) -> np.ndarray:
    """Operator product realizing one measurement history.

    Composes, rightmost factor acting first,

        P_{k_M} U(tau_M) ... P_{k_1} U(tau_1)

    where P_k projects onto measurement vector k and U is the free
    propagator. Applied to a state and renormalized, this gives the
    conditional post-sequence state; its squared matrix elements between
    energy eigenvectors are the conditional transition probabilities.
    """
    if basis.dim != h.dim:
        raise ValueError("basis and Hamiltonian dimensions differ")
    if np.any(seq.ks < 0) or np.any(seq.ks >= basis.size):
        raise ValueError("outcome index out of range for this basis")
    out = np.eye(h.dim, dtype=complex)
    cache: dict[float, np.ndarray] = {}
    for k, tau in zip(seq.ks, seq.taus):
        u = cache.get(tau)
        if u is None:
            u = propagator(h, tau)
            cache[tau] = u
        col = basis.vectors[:, k]
        # P_k (U out) as a rank-1 outer product, cheaper than two matmuls.
        out = np.outer(col, col.conj() @ (u @ out))
    return out


def transition_probability(
    basis: MeasurementBasis,
    h: HermitianOperator,
    seq: OutcomeSequence,
    n: int,
    m: int,
) -> float:
    """Probability of ending in energy level m given start in level n.

    Conditioned on the outcome history ``seq``; equals the squared matrix
    element of the sequence operator between the two energy eigenvectors.
    """
    op = measurement_sequence_operator(basis, h, seq)
    amp = h.eigenvectors[:, m].conj() @ (op @ h.eigenvectors[:, n])
    return float(abs(amp) ** 2)


def energy_populations(rho0: DensityMatrix, h: HermitianOperator) -> np.ndarray:
    """Diagonal of the state in the energy eigenbasis.

    These are the probabilities of the first projective energy
    measurement; coherences between energy levels never matter because
    that measurement erases them.
    """
    if rho0.dim != h.dim:
        raise ValueError("state and Hamiltonian dimensions differ")
    v = h.eigenvectors
    p = np.real(np.einsum("in,ij,jn->n", v.conj(), rho0.matrix, v))
    p = np.clip(p, 0.0, None)
    return p / p.sum()
