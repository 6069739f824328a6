"""Tests for the dense operator algebra."""

import itertools

import numpy as np
import pytest

from qheat.exceptions import (
    DegenerateSpectrumError,
    InvalidStateError,
    NotHermitianError,
)
from qheat.operators import (
    DensityMatrix,
    MeasurementBasis,
    OutcomeSequence,
    energy_populations,
    measurement_sequence_operator,
    propagator,
    spectral_decompose,
    transition_probability,
)
from qheat.verify import random_basis, random_hermitian


class TestSpectralDecompose:
    def test_already_diagonal(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        assert np.allclose(h.eigenvalues, [-1.0, 1.0])
        assert np.allclose(h.eigenvectors, np.eye(2), atol=1e-14)

    def test_symmetric_off_diagonal(self):
        h = spectral_decompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(h.eigenvalues, [-1.0, 1.0])
        # Columns match (1, -1)/sqrt(2) and (1, 1)/sqrt(2) up to phase.
        assert np.allclose(np.abs(h.eigenvectors), 1 / np.sqrt(2))
        assert np.max(np.abs((h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T - h.matrix)) < 1e-14

    def test_random_round_trip(self):
        # Build from a known decomposition and check reconstruction.
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(x)
        lam = np.array([-1.3, -0.2, 0.9, 2.4])
        m = (q * lam) @ q.conj().T
        h = spectral_decompose(m)
        assert np.allclose(h.eigenvalues, lam, atol=1e-12)
        rebuilt = (h.eigenvectors * h.eigenvalues) @ h.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m) < 1e-12

    def test_phase_convention_is_deterministic(self):
        rng = np.random.default_rng(3)
        m = random_hermitian(3, rng).matrix
        v1 = spectral_decompose(m).eigenvectors
        v2 = spectral_decompose(m.copy()).eigenvectors
        assert np.array_equal(v1, v2)
        for j in range(3):
            pivot = v1[np.argmax(np.abs(v1[:, j])), j]
            assert pivot.imag == pytest.approx(0.0, abs=1e-14)
            assert pivot.real > 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_degenerate_spectrum(self):
        with pytest.raises(DegenerateSpectrumError):
            spectral_decompose(np.diag([1.0, 1.0 + 1e-10]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            spectral_decompose(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestPropagator:
    def test_zero_time_is_identity(self):
        h = spectral_decompose(np.diag([-1.0, 0.3, 1.0]))
        assert np.allclose(propagator(h, 0.0), np.eye(3), atol=1e-15)

    def test_diagonal_phases(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        assert np.allclose(propagator(h, np.pi), -np.eye(2), atol=1e-12)

    def test_unitarity_and_commutation(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(3, rng)
        u = propagator(h, 0.7)
        assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-12
        assert np.max(np.abs(u @ h.matrix - h.matrix @ u)) < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(11)
        h = random_hermitian(4, rng)
        for _ in range(5):
            t, s = rng.uniform(0.0, 10.0, size=2)
            left = propagator(h, t) @ propagator(h, s)
            assert np.max(np.abs(left - propagator(h, t + s))) < 1e-12

    def test_rejects_non_finite_time(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        with pytest.raises(ValueError):
            propagator(h, np.inf)


class TestMeasurementBasis:
    def test_projector_axioms(self):
        rng = np.random.default_rng(29)
        basis = random_basis(3, rng)
        projectors = basis.projectors
        for k, pk in enumerate(projectors):
            assert np.max(np.abs(pk - pk.conj().T)) < 1e-12
            assert np.max(np.abs(pk @ pk - pk)) < 1e-12
            assert np.trace(pk).real == pytest.approx(1.0, abs=1e-12)
            for l, pl in enumerate(projectors):
                expected = pl if k == l else np.zeros_like(pl)
                assert np.max(np.abs(pk @ pl - expected)) < 1e-12
        total = sum(projectors)
        assert np.max(np.abs(total - np.eye(3))) < 1e-12

    def test_rejects_non_orthonormal(self):
        with pytest.raises(InvalidStateError):
            MeasurementBasis.from_vectors(np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_energy_basis_observable(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        basis = MeasurementBasis.energy_basis(h)
        assert np.allclose(basis.observable(), h.matrix, atol=1e-14)


class TestDensityMatrix:
    def test_pure_state(self):
        rho = DensityMatrix.pure([1.0, 1.0])
        assert np.allclose(rho.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_thermal_populations(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        rho = DensityMatrix.thermal(h, 1.0)
        z = np.exp(1.0) + np.exp(-1.0)
        assert rho.matrix[0, 0].real == pytest.approx(np.exp(1.0) / z, abs=1e-14)
        assert rho.matrix[1, 1].real == pytest.approx(np.exp(-1.0) / z, abs=1e-14)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.diag([0.7, 0.7]).astype(complex))


class TestOutcomeSequence:
    def test_rejects_negative_times(self):
        with pytest.raises(ValueError):
            OutcomeSequence(ks=np.array([0]), taus=np.array([-0.1]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            OutcomeSequence(ks=np.array([0, 1]), taus=np.array([0.1]))


class TestSequenceOperator:
    def test_single_zero_time_step_is_projector(self):
        rng = np.random.default_rng(31)
        h = random_hermitian(2, rng)
        basis = random_basis(2, rng)
        seq = OutcomeSequence(ks=np.array([1]), taus=np.array([0.0]))
        op = measurement_sequence_operator(basis, h, seq)
        assert np.max(np.abs(op - basis.projector(1))) < 1e-12

    def test_idempotent_projection(self):
        rng = np.random.default_rng(37)
        h = random_hermitian(2, rng)
        basis = random_basis(2, rng)
        seq = OutcomeSequence(ks=np.array([0, 0]), taus=np.array([0.0, 0.0]))
        op = measurement_sequence_operator(basis, h, seq)
        assert np.max(np.abs(op - basis.projector(0))) < 1e-12

    def test_column_wise_application_oracle(self):
        rng = np.random.default_rng(41)
        h = random_hermitian(2, rng)
        basis = random_basis(2, rng)
        seq = OutcomeSequence(ks=np.array([1, 0, 1]), taus=np.array([0.4, 1.1, 0.2]))
        op = measurement_sequence_operator(basis, h, seq)
        for col in range(2):
            v = np.eye(2, dtype=complex)[:, col]
            for k, tau in zip(seq.ks, seq.taus):
                v = propagator(h, tau) @ v
                v = basis.projector(k) @ v
            assert np.max(np.abs(op[:, col] - v)) < 1e-12

    def test_rejects_bad_outcome_index(self):
        rng = np.random.default_rng(43)
        h = random_hermitian(2, rng)
        basis = random_basis(2, rng)
        seq = OutcomeSequence(ks=np.array([2]), taus=np.array([0.1]))
        with pytest.raises(ValueError):
            measurement_sequence_operator(basis, h, seq)


class TestTransitionProbability:
    def test_energy_basis_is_frozen(self):
        # Measuring the Hamiltonian itself never moves the level.
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        basis = MeasurementBasis.energy_basis(h)
        seq = OutcomeSequence(ks=np.array([0, 0, 0]), taus=np.array([0.3, 0.9, 0.1]))
        assert transition_probability(basis, h, seq, 0, 0) == pytest.approx(1.0, abs=1e-14)
        for ks in itertools.product(range(2), repeat=3):
            seq = OutcomeSequence(ks=np.array(ks), taus=np.array([0.3, 0.9, 0.1]))
            assert transition_probability(basis, h, seq, 0, 1) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("dim,m", [(2, 3), (3, 2)])
    def test_completeness_over_outcomes_and_levels(self, dim, m):
        rng = np.random.default_rng(47 + dim)
        h = random_hermitian(dim, rng)
        basis = random_basis(dim, rng)
        taus = rng.uniform(0.1, 2.0, size=m)
        for n in range(dim):
            total = 0.0
            for ks in itertools.product(range(dim), repeat=m):
                seq = OutcomeSequence(ks=np.array(ks), taus=taus)
                p = transition_probability(basis, h, seq, n, 0)
                assert -1e-15 <= p <= 1.0 + 1e-12
                total += sum(
                    transition_probability(basis, h, seq, n, mm) for mm in range(dim)
                )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_fixed_sequence_unitality(self):
        # Summing V V+ over all outcome histories gives the identity.
        rng = np.random.default_rng(53)
        for dim, m in ((2, 3), (3, 2)):
            h = random_hermitian(dim, rng)
            basis = random_basis(dim, rng)
            taus = rng.uniform(0.05, 2.0, size=m)
            acc = np.zeros((dim, dim), dtype=complex)
            for ks in itertools.product(range(dim), repeat=m):
                op = measurement_sequence_operator(
                    basis, h, OutcomeSequence(ks=np.array(ks), taus=taus)
                )
                acc += op @ op.conj().T
            assert np.linalg.norm(acc - np.eye(dim)) < 1e-10


class TestEnergyPopulations:
    def test_pure_eigenstate(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        rho = DensityMatrix.pure([1.0, 0.0])
        assert np.allclose(energy_populations(rho, h), [1.0, 0.0], atol=1e-14)

    def test_maximally_mixed(self):
        rng = np.random.default_rng(59)
        h = random_hermitian(3, rng)
        rho = DensityMatrix.maximally_mixed(3)
        assert np.allclose(energy_populations(rho, h), np.full(3, 1 / 3), atol=1e-12)

    def test_thermal_matches_gibbs_weights(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        rho = DensityMatrix.thermal(h, 1.0)
        z = np.exp(1.0) + np.exp(-1.0)
        expected = np.array([np.exp(1.0), np.exp(-1.0)]) / z
        assert np.allclose(energy_populations(rho, h), expected, atol=1e-12)
        assert energy_populations(rho, h).sum() == pytest.approx(1.0, abs=1e-12)
