"""Tests for the two-point measurement engine."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from qheat import disorder, engine, tls
from qheat.disorder import (
    Annealed,
    DiscreteWaitingDist,
    Fixed,
    Quenched,
    sample_waiting_times,
    uniforms_per_sequence,
)
from qheat.engine import (
    HeatDistribution,
    ProtocolConfig,
    characteristic_function,
    chunk_rng,
    exact_distribution,
    heat_moment,
    jarzynski_estimate,
    sample_heats,
    sample_heats_chunk,
    unitality_residual,
)
from qheat.exceptions import EnumerationTooLargeError
from qheat.operators import (
    DensityMatrix,
    MeasurementBasis,
    OutcomeSequence,
    energy_populations,
    measurement_sequence_operator,
    spectral_decompose,
)
from qheat.verify import random_basis, random_hermitian


def bimodal(tau1=0.01, tau2=3.0, p1=0.3):
    return DiscreteWaitingDist.bimodal(tau1, tau2, p1)


def tls_config(a_sq=0.25, c1=0.3, m=3, model=None, beta=1.0, seed=0, energy=1.0):
    p = tls.TwoLevelParams(energy=energy, a_sq=a_sq, excited_pop=c1, n_meas=m, beta=beta)
    return tls.to_protocol_config(p, model or Fixed(0.7), seed=seed)


def energy_basis_config(m=4, seed=0):
    h = spectral_decompose(np.diag([-1.0, 1.0]))
    return ProtocolConfig(
        h=h,
        basis=MeasurementBasis.energy_basis(h),
        rho0=DensityMatrix.thermal(h, 1.0),
        model=Fixed(0.9),
        beta=1.0,
        seed=seed,
        m_count=m,
    )


class TestProtocolConfig:
    def test_requires_exactly_one_schedule(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        basis = MeasurementBasis.energy_basis(h)
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            ProtocolConfig(h=h, basis=basis, rho0=rho, model=Fixed(1.0))
        with pytest.raises(ValueError):
            ProtocolConfig(
                h=h, basis=basis, rho0=rho, model=Fixed(1.0), m_count=3, total_time=2.0
            )

    def test_rejects_dimension_mismatch(self):
        h = spectral_decompose(np.diag([-1.0, 0.0, 1.0]))
        basis = MeasurementBasis.energy_basis(spectral_decompose(np.diag([-1.0, 1.0])))
        with pytest.raises(ValueError):
            ProtocolConfig(
                h=h,
                basis=basis,
                rho0=DensityMatrix.maximally_mixed(3),
                model=Fixed(1.0),
                m_count=2,
            )


def _born_draw(rng, probs):
    """Index drawn by a linear scan of the running total over positive entries."""
    r = rng.random()
    acc = 0.0
    last = 0
    for i, p in enumerate(probs):
        if p > 0.0:
            last = i
            acc += p
            if r < acc:
                return i
    return last


def renewal_taus(model, total_time, rng):
    """Waiting times drawn one at a time until the next would overshoot ``total_time``.

    The scalar loop the block sampler must reproduce: partial sums are
    added left to right and compared with the budget plus a relative
    slack of 1e-12, so a sum landing exactly on the budget is kept.
    """
    limit = total_time * (1.0 + 1e-12)
    if isinstance(model, Fixed):
        draw = lambda: model.tau_bar  # noqa: E731
    elif isinstance(model, Quenched):
        tau = model.dist.values[_born_draw(rng, model.dist.probs)]
        draw = lambda: tau  # noqa: E731
    else:
        draw = lambda: model.dist.values[_born_draw(rng, model.dist.probs)]  # noqa: E731
    taus = []
    elapsed = 0.0
    while True:
        step = draw()
        if elapsed + step > limit:
            break
        taus.append(step)
        elapsed += step
    return np.array(taus, dtype=float)


def state_vector_heats(config, chunk_index, count):
    """Reference sampler that propagates the pure state through every step.

    Same uniform stream as ``sample_heats_chunk``: opening level, waiting
    times, Born draws with collapse onto the measured vector, closing
    level after the free evolution of the remainder. Returns the heats
    and the measurement count of each trajectory. Fixed-total-time
    waiting times come from ``renewal_taus``, one trajectory at a time.
    """
    h = config.h
    evals = h.eigenvalues
    cols = h.eigenvectors.conj().T @ config.basis.vectors
    rows = cols.conj().T
    populations = energy_populations(config.rho0, h)
    rng = chunk_rng(config.seed, chunk_index)
    heats, counts = np.empty(count), np.empty(count, dtype=int)
    for i in range(count):
        n = _born_draw(rng, populations)
        if config.total_time is not None:
            taus = renewal_taus(config.model, config.total_time, rng)
            remainder = config.total_time - taus.sum()
        else:
            w = uniforms_per_sequence(config.model, config.m_count)
            taus = sample_waiting_times(config.model, config.m_count, rng.random((1, w)))[0]
            remainder = 0.0
        state = np.zeros(h.dim, dtype=complex)
        state[n] = 1.0
        for tau in taus:
            amps = rows @ (np.exp(-1j * evals * tau) * state)
            state = cols[:, _born_draw(rng, amps.real**2 + amps.imag**2)]
        state = np.exp(-1j * evals * remainder) * state
        m = _born_draw(rng, state.real**2 + state.imag**2)
        heats[i], counts[i] = evals[m] - evals[n], len(taus)
    return heats, counts


def haar_d3_config(model=None, total_time=2.0, m_count=None):
    rng = np.random.default_rng(41)
    h = random_hermitian(3, rng)
    return ProtocolConfig(
        h=h,
        basis=random_basis(3, rng),
        rho0=DensityMatrix.thermal(h, 0.6),
        model=model or Annealed(bimodal(0.4, 2.5, 0.5)),
        beta=0.6,
        seed=17,
        total_time=total_time,
        m_count=m_count,
    )


def tls_total_time_config(model, total_time, seed):
    counted = tls_config(model=model, seed=seed)
    return replace(counted, m_count=None, total_time=total_time)


def annealed(values, probs):
    return Annealed(DiscreteWaitingDist(np.array(values), np.array(probs)))


class TestStateVectorOracle:
    @pytest.mark.parametrize(
        "config, counts",
        [
            (tls_config(m=5, model=Fixed(0.7), seed=3), None),
            (tls_config(m=5, model=Quenched(bimodal()), seed=4), None),
            (tls_config(m=5, model=Annealed(bimodal()), seed=5), None),
            (haar_d3_config(), (0, 3)),
            (tls_config(m=1, model=Annealed(bimodal()), seed=6), None),
            (haar_d3_config(Quenched(bimodal(0.4, 2.5, 0.5)), total_time=2.0), (0, 3)),
            # Every waiting time overshoots the budget: only count-0 rows.
            (tls_total_time_config(Fixed(3.0), 2.0, seed=7), (0, 0)),
            (haar_d3_config(Annealed(bimodal(0.3, 1.1, 0.5)), None, m_count=4), None),
            # Energy-basis tables hold zero-probability entries.
            (energy_basis_config(m=4, seed=8), None),
            (tls_config(c1=0.0, m=5, model=Annealed(bimodal()), seed=9), None),
            (tls_total_time_config(Fixed(0.3), 2.0, seed=10), (6, 6)),
            (haar_d3_config(Quenched(bimodal(0.3, 0.7, 0.5)), total_time=2.1), (3, 7)),
            # Binary fractions: many partial sums land exactly on the budget.
            (haar_d3_config(annealed([0.5, 1.0, 2.0], [0.3, 0.4, 0.3]), total_time=4.0), (2, 7)),
            # Decimal fractions: the partial sums are not representable.
            (haar_d3_config(annealed([0.1, 0.2, 0.3], [0.3, 0.4, 0.3]), total_time=1.0), (3, 8)),
            (haar_d3_config(annealed([0.3, 0.5, 0.9], [0.5, 0.0, 0.5]), total_time=3.0), (3, 10)),
            (haar_d3_config(annealed([2.5, 3.0], [0.5, 0.5]), total_time=2.0), (0, 0)),
            # A value that is never drawn, far below the interval cap's shortest.
            (
                haar_d3_config(
                    Quenched(DiscreteWaitingDist(np.array([1e-9, 0.3, 0.7]), np.array([0.0, 0.5, 0.5]))),
                    total_time=2.1,
                ),
                (3, 7),
            ),
            # The budget plus its slack rounds to 4.0, so sums landing on 4.0
            # sit on the limit and take the sampler's exact recheck.
            (haar_d3_config(annealed([0.5, 1.0, 2.0], [0.3, 0.4, 0.3]), total_time=4.0 / (1 + 1e-12)), (2, 7)),
            # Here it rounds to one unit below 4.0: sums on 4.0 overshoot by
            # less than the sampler's error bracket, and the recheck drops them.
            (haar_d3_config(annealed([0.5, 1.0, 2.0], [0.3, 0.4, 0.3]), total_time=3.999999999995999), (1, 6)),
        ],
        ids=[
            "tls-fixed",
            "tls-quenched",
            "tls-annealed",
            "haar-d3-total-time",
            "tls-m1",
            "haar-d3-quenched-total-time",
            "tls-all-zero-counts",
            "haar-d3-annealed-m4",
            "energy-basis",
            "tls-c1-zero",
            "tls-fixed-total-time",
            "haar-d3-quenched-budget-2.1",
            "haar-d3-sums-on-budget",
            "haar-d3-sums-not-representable",
            "haar-d3-zero-probability-value",
            "haar-d3-annealed-all-zero-counts",
            "haar-d3-quenched-zero-probability-tiny-value",
            "haar-d3-sums-on-limit",
            "haar-d3-sums-just-over-limit",
        ],
    )
    def test_chain_sampler_matches_seed_for_seed(self, config, counts):
        heats, measured = state_vector_heats(config, 2, 1500)
        assert np.array_equal(sample_heats_chunk(config, 2, 1500), heats)
        if counts is not None:
            # The case has rows of exactly counts[0] and of at least counts[1] measurements.
            assert measured.min() == counts[0] and measured.max() >= counts[1]

    def test_long_trajectories_grow_the_draw_buffer(self):
        # About 4800 intervals a trajectory: one trajectory's draws do not
        # fit in a piece of RENEWAL_PIECE uniforms.
        config = haar_d3_config(annealed([0.001, 0.0011], [0.5, 0.5]), total_time=5.0)
        heats, measured = state_vector_heats(config, 2, 3)
        assert 2 * measured.min() + 3 > disorder.RENEWAL_PIECE
        assert np.array_equal(sample_heats_chunk(config, 2, 3), heats)


class TestSampling:
    def test_chunk_partition_contract(self):
        config = tls_config(m=4, model=Annealed(bimodal()), seed=11)
        whole = sample_heats(config, 2500)
        parts = [
            sample_heats_chunk(config, c, size)
            for c, size in enumerate([1024, 1024, 452])
        ]
        assert np.array_equal(whole, np.concatenate(parts))

    @pytest.mark.parametrize(
        "model", [Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())], ids=["fixed", "quenched", "annealed"]
    )
    def test_row_sub_batches_take_the_same_stream(self, monkeypatch, model):
        config = tls_config(m=5, model=model, seed=12)
        whole = sample_heats_chunk(config, 1, 1000)
        # A budget below one row still walks one row at a time.
        for budget in (1, 100, 999):
            monkeypatch.setattr(engine, "MAX_BLOCK_UNIFORMS", budget)
            assert np.array_equal(sample_heats_chunk(config, 1, 1000), whole)

    def test_energy_basis_gives_zero_heat(self):
        assert np.all(sample_heats(energy_basis_config(seed=1), 500) == 0.0)

    def test_fixed_total_time_counts(self):
        # Fixed intervals take no draws, so a duration that fits exactly
        # five of them must replay the five-measurement stream.
        counted = tls_config(m=5, model=Fixed(1.0), seed=3)
        timed = ProtocolConfig(
            h=counted.h,
            basis=counted.basis,
            rho0=counted.rho0,
            model=Fixed(1.0),
            beta=1.0,
            seed=3,
            total_time=5.0,
        )
        assert np.array_equal(sample_heats(timed, 1000), sample_heats(counted, 1000))

    def test_heat_support_is_energy_gaps(self):
        config = tls_config(m=4, model=Quenched(bimodal()), seed=4)
        gaps = {
            float(b - a)
            for a in config.h.eigenvalues
            for b in config.h.eigenvalues
        }
        assert set(np.unique(sample_heats(config, 1000)).tolist()) <= gaps

    def test_same_seed_reproduces(self):
        config = tls_config(m=3, seed=13)
        assert np.array_equal(sample_heats(config, 1000), sample_heats(config, 1000))


def sequence_operator_atoms(config) -> dict[float, float]:
    """Heat atoms ``{q: p}`` built from the public sequence-operator API.

    Every outcome sequence of every disorder realization is multiplied out
    with ``measurement_sequence_operator``; nothing is shared with the
    engine's kernel.
    """
    evals, vecs = config.h.eigenvalues, config.h.eigenvectors
    populations = np.real(np.diag(vecs.conj().T @ config.rho0.matrix @ vecs))
    acc = {}
    for real in disorder.enumerate_realizations(config.model, config.m_count):
        for ks in itertools.product(range(config.basis.size), repeat=config.m_count):
            seq = OutcomeSequence(ks=np.array(ks), taus=real.taus)
            amps = vecs.conj().T @ measurement_sequence_operator(config.basis, config.h, seq) @ vecs
            for n, m in itertools.product(range(config.h.dim), repeat=2):
                q = float(evals[m] - evals[n])
                acc[q] = acc.get(q, 0.0) + real.weight * populations[n] * abs(amps[m, n]) ** 2
    return acc


ORACLE_CASES = {
    "tls-annealed": lambda: tls_config(m=3, model=Annealed(bimodal(0.2, 1.3, 0.4))),
    "haar-d3-fixed": lambda: haar_d3_config(Fixed(0.9), None, m_count=3),
    "haar-d3-quenched": lambda: haar_d3_config(Quenched(bimodal(0.4, 2.5, 0.5)), None, m_count=3),
    # A pure state with energy coherences: only its populations enter.
    "haar-d3-annealed-coherent": lambda: replace(
        haar_d3_config(Annealed(bimodal(0.4, 2.5, 0.5)), None, m_count=3),
        rho0=DensityMatrix.pure([1.0, 0.5 + 0.5j, -0.3j]),
    ),
}


class TestExactDistribution:
    def test_energy_basis_single_zero_atom(self):
        h = spectral_decompose(np.diag([-1.0, 1.0]))
        config = ProtocolConfig(
            h=h,
            basis=MeasurementBasis.energy_basis(h),
            rho0=DensityMatrix.thermal(h, 1.0),
            model=Fixed(0.4),
            beta=1.0,
            m_count=1,
        )
        dist = exact_distribution(config)
        assert dist.atoms == [(0.0, pytest.approx(1.0, abs=1e-14))]

    def test_probabilities_sum_to_one(self):
        for model in (Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())):
            dist = exact_distribution(tls_config(m=4, model=model))
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-10)
            assert np.all(dist.probs >= 0)

    def test_thermal_jarzynski_sum(self):
        c1 = tls.thermal_excited_pop(1.0, 1.0)
        for model in (Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())):
            dist = exact_distribution(tls_config(c1=c1, m=5, model=model))
            assert dist.exp_average(1.0) == pytest.approx(1.0, abs=1e-10)

    def test_atoms_live_on_energy_gaps(self):
        config = tls_config(m=3, model=Annealed(bimodal()))
        gaps = {
            float(b - a)
            for a in config.h.eigenvalues
            for b in config.h.eigenvalues
        }
        for q, _ in exact_distribution(config).atoms:
            assert q in gaps

    def test_annealed_is_mixture_of_frozen_disorder(self):
        # Independent oracle: per-realization distributions built from the
        # public sequence-operator API, mixed with the disorder weights.
        for name, make in ORACLE_CASES.items():
            config = make()
            oracle = sequence_operator_atoms(config)
            dist = exact_distribution(config)
            assert [q for q, _ in dist.atoms] == sorted(oracle), name
            for q, p in dist.atoms:
                assert p == pytest.approx(oracle[q], abs=1e-12), name

    def test_requires_m_count_schedule(self):
        config = tls_config()
        timed = ProtocolConfig(
            h=config.h,
            basis=config.basis,
            rho0=config.rho0,
            model=Fixed(1.0),
            total_time=4.0,
        )
        with pytest.raises(ValueError):
            exact_distribution(timed)

    def test_enumeration_cap(self):
        with pytest.raises(EnumerationTooLargeError):
            exact_distribution(tls_config(m=25, model=Annealed(bimodal())))
        with pytest.raises(EnumerationTooLargeError):
            exact_distribution(tls_config(m=23, model=Quenched(bimodal())))

    def test_monte_carlo_converges_to_exact(self):
        config = tls_config(m=5, model=Fixed(0.7), seed=21)
        exact = exact_distribution(config)
        n = 100_000
        emp = HeatDistribution.from_samples(sample_heats(config, n))
        assert exact.total_variation(emp) < 0.02
        for q, p in exact.atoms:
            hit = np.flatnonzero(np.abs(emp.qs - q) <= 1e-12)
            p_emp = float(emp.probs[hit].sum()) if hit.size else 0.0
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(p_emp - p) < 4 * sigma


class TestCharacteristicFunction:
    def test_normalization_at_zero(self):
        for model in (Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())):
            g = characteristic_function(tls_config(m=4, model=model), 0.0)
            assert g == pytest.approx(1.0, abs=1e-12)

    def test_thermal_fluctuation_point(self):
        c1 = tls.thermal_excited_pop(1.0, 1.0)
        for model in (Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())):
            g = characteristic_function(tls_config(c1=c1, m=5, model=model), 1j)
            assert abs(g - 1.0) < 1e-10

    def test_fourier_consistency_with_atoms(self):
        for model in (Fixed(0.7), Quenched(bimodal()), Annealed(bimodal())):
            config = tls_config(m=4, model=model, a_sq=0.37, c1=0.8)
            dist = exact_distribution(config)
            for u in (-2.0, -1.0, 0.0, 1.0, 2.0):
                direct = characteristic_function(config, u)
                assert abs(direct - dist.char_fn(u)) < 1e-10

    def test_energy_coherences_do_not_matter(self):
        # A state with off-diagonal energy coherences gives the same
        # statistics as its dephased diagonal.
        config = tls_config(m=3)
        coherent = DensityMatrix(np.array([[0.7, 0.3], [0.3, 0.3]], dtype=complex))
        dephased = DensityMatrix(np.diag([0.7, 0.3]).astype(complex))
        a = characteristic_function(
            ProtocolConfig(
                h=config.h,
                basis=config.basis,
                rho0=coherent,
                model=config.model,
                m_count=3,
            ),
            0.9,
        )
        b = characteristic_function(
            ProtocolConfig(
                h=config.h,
                basis=config.basis,
                rho0=dephased,
                model=config.model,
                m_count=3,
            ),
            0.9,
        )
        assert abs(a - b) < 1e-13

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_sequence_operator_oracle(self, case):
        config = ORACLE_CASES[case]()
        oracle = sequence_operator_atoms(config)
        for u in (0.7, 0.8j, 0.3 + 0.2j):
            fourier = sum(p * np.exp(1j * u * q) for q, p in oracle.items())
            assert abs(characteristic_function(config, u) - fourier) < 1e-10

    def test_matches_general_dimension_oracle(self):
        # d = 3 cross-check against the Fourier sum of the exact atoms.
        rng = np.random.default_rng(31)
        h = random_hermitian(3, rng)
        config = ProtocolConfig(
            h=h,
            basis=random_basis(3, rng),
            rho0=DensityMatrix.thermal(h, 0.8),
            model=Annealed(bimodal(0.3, 1.1, 0.5)),
            beta=0.8,
            m_count=3,
        )
        dist = exact_distribution(config)
        for u in (0.7, -1.3):
            assert abs(characteristic_function(config, u) - dist.char_fn(u)) < 1e-10
        assert abs(characteristic_function(config, 0.8j) - 1.0) < 1e-10


class TestJarzynskiEstimate:
    def test_energy_basis_is_exact(self):
        est, err = jarzynski_estimate(energy_basis_config(), 200)
        assert est == 1.0
        assert err == 0.0

    def test_thermal_within_three_sigma(self):
        c1 = tls.thermal_excited_pop(1.0, 1.0)
        config = tls_config(c1=c1, m=5, model=Fixed(0.7), seed=23)
        est, err = jarzynski_estimate(config, 10_000)
        assert abs(est - 1.0) <= 3 * err

    def test_non_thermal_matches_closed_form(self):
        p = tls.TwoLevelParams(energy=1.0, a_sq=0.25, excited_pop=0.9, n_meas=5, beta=1.0)
        config = tls.to_protocol_config(p, Fixed(0.7), seed=29)
        target = tls.char_fn_fixed(p, 1j, 0.7).real
        est, err = jarzynski_estimate(config, 20_000)
        assert abs(est - target) <= 3 * err


class TestUnitality:
    def test_single_measurement_is_projector_completeness(self):
        assert unitality_residual(tls_config(m=1)) < 1e-14

    def test_annealed_five_measurements(self):
        assert unitality_residual(tls_config(m=5, model=Annealed(bimodal()))) < 1e-10

    def test_independent_of_initial_state(self):
        base = tls_config(m=3, model=Quenched(bimodal()))
        other = ProtocolConfig(
            h=base.h,
            basis=base.basis,
            rho0=DensityMatrix.maximally_mixed(2),
            model=base.model,
            m_count=3,
        )
        assert unitality_residual(base) == unitality_residual(other)


class TestMoments:
    def test_half_filling_has_zero_mean(self):
        config = tls_config(c1=0.5, m=4, model=Annealed(bimodal()))
        assert abs(exact_distribution(config).moment(1)) < 1e-12

    def test_energy_basis_moments_vanish(self):
        config = energy_basis_config()
        for order in (1, 2, 3, 4):
            assert heat_moment(config, order) == 0.0

    def test_routes_agree_on_random_configs(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            config = tls_config(
                a_sq=float(rng.uniform(0.05, 0.95)),
                c1=float(rng.uniform(0, 1)),
                m=int(rng.integers(1, 5)),
                model=Annealed(bimodal(0.2, 1.7, 0.4)),
            )
            for order in (1, 2, 3, 4):
                direct = engine.moment_via_distribution(config, order)
                derived = engine.moment_via_char_fn(config, order)
                assert abs(direct - derived) <= 1e-6 * max(1.0, abs(direct))
                heat_moment(config, order)

    def test_rejects_unsupported_order(self):
        with pytest.raises(ValueError):
            heat_moment(tls_config(), 5)


class TestHeatDistribution:
    def test_atom_merging(self):
        dist = HeatDistribution.from_atoms([(0.0, 0.3), (1e-13, 0.2), (2.0, 0.5)])
        assert len(dist.atoms) == 2
        assert dist.probs[0] == pytest.approx(0.5)

    def test_from_samples_counts(self):
        dist = HeatDistribution.from_samples(np.array([0.0, 0.0, 2.0, -2.0]))
        assert dist.kind == "empirical"
        assert dist.n_samples == 4
        assert dist.atoms == [(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)]

    def test_exp_average_and_char_fn(self):
        dist = HeatDistribution.from_atoms([(-2.0, 0.25), (0.0, 0.5), (2.0, 0.25)])
        beta = 0.7
        expected = 0.25 * math.exp(2 * beta) + 0.5 + 0.25 * math.exp(-2 * beta)
        assert dist.exp_average(beta) == pytest.approx(expected, abs=1e-14)
        assert dist.char_fn(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_exact_kind_validates_total(self):
        with pytest.raises(ValueError):
            HeatDistribution(
                qs=np.array([0.0]), probs=np.array([0.5]), kind="exact"
            )
