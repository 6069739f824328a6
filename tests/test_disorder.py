"""Tests for the waiting-time disorder models."""

import math

import numpy as np
import pytest
from scipy import stats

from qheat import disorder
from qheat.disorder import (
    Annealed,
    DiscreteWaitingDist,
    Fixed,
    Quenched,
    draw_index,
    draw_indices,
    draw_table,
    enumerate_realizations,
    sample_until_total_time,
    sample_waiting_times,
    uniforms_per_sequence,
)
from qheat.exceptions import EnumerationTooLargeError


def bimodal(tau1=0.01, tau2=3.0, p1=0.3):
    return DiscreteWaitingDist.bimodal(tau1, tau2, p1)


def one_sequence(model, m_count, rng):
    """A single waiting-time vector drawn from ``rng``."""
    w = uniforms_per_sequence(model, m_count)
    return sample_waiting_times(model, m_count, rng.random((1, w)))[0]


class TestDiscreteWaitingDist:
    def test_moments_single_atom(self):
        d = DiscreteWaitingDist(np.array([0.5]), np.array([1.0]))
        assert d.mean() == pytest.approx(0.5)
        assert d.second_moment() == pytest.approx(0.25)

    def test_moments_bimodal(self):
        d = bimodal(0.1, 1.5, 0.3)
        assert d.mean() == pytest.approx(0.3 * 0.1 + 0.7 * 1.5, abs=1e-15)
        assert d.second_moment() == pytest.approx(0.3 * 0.01 + 0.7 * 2.25, abs=1e-15)

    def test_variance_non_negative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            values = np.sort(rng.uniform(0.01, 3.0, size=3))
            probs = rng.dirichlet(np.ones(3))
            d = DiscreteWaitingDist(values, probs / probs.sum())
            assert d.variance() >= -1e-15

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            DiscreteWaitingDist(np.array([0.1, 0.2]), np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            DiscreteWaitingDist(np.array([0.1, 0.2]), np.array([1.2, -0.2]))

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            DiscreteWaitingDist(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            DiscreteWaitingDist(np.array([1.0, 1.0]), np.array([0.5, 0.5]))

    def test_scaled(self):
        d = bimodal(0.1, 0.5, 0.4).scaled(3.0)
        assert np.allclose(d.values, [0.3, 1.5])
        assert d.mean() == pytest.approx(3.0 * (0.4 * 0.1 + 0.6 * 0.5))


class FixedUniform:
    """Stands in for a Generator whose next uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestDrawTables:
    # Row sum 0.1 * 10 rounds to 0.9999999999999999.
    SHORT = [0.1] * 10
    CASES = [
        # Zero entries at the start, middle and end.
        ([0.0, 0.25, 0.0, 0.75, 0.0], [(0.0, 1), (0.2, 1), (0.25, 3), (0.5, 3), (0.99, 3)]),
        ([0.5, 0.0, 0.5], [(0.0, 0), (0.4999, 0), (0.5, 2), (0.9, 2)]),
        (SHORT + [0.0], [(0.1, 1), (0.30000000000000004, 3), (0.3, 2), (np.nextafter(1.0, 0.0), 9)]),
    ]

    @pytest.mark.parametrize("probs, picks", CASES, ids=["zeros", "middle-zero", "short-sum"])
    def test_array_lookup_matches_scalar_draw(self, probs, picks):
        table = draw_table(probs)
        uniforms = np.array([u for u, _ in picks])
        expected = [index for _, index in picks]
        assert [draw_index(FixedUniform(u), table) for u in uniforms] == expected
        # One table shared by every uniform, and one table per uniform.
        assert draw_indices(np.array(table), uniforms).tolist() == expected
        per_row = np.tile(table, (len(uniforms), 1))
        assert draw_indices(per_row, uniforms).tolist() == expected

    def test_short_row_sum_rounds_below_one(self):
        # A finite last total would leave the largest uniform below 1 unmatched.
        assert math.fsum(self.SHORT) == 1.0 and sum(self.SHORT) <= np.nextafter(1.0, 0.0)


class TestSampleWaitingTimes:
    def test_fixed(self):
        rng = np.random.default_rng(0)
        assert np.array_equal(one_sequence(Fixed(0.5), 4, rng), np.full(4, 0.5))

    def test_quenched_degenerate(self):
        rng = np.random.default_rng(0)
        model = Quenched(DiscreteWaitingDist(np.array([0.7]), np.array([1.0])))
        for _ in range(10):
            assert np.array_equal(one_sequence(model, 3, rng), np.full(3, 0.7))

    def test_quenched_is_constant_within_sequence(self):
        rng = np.random.default_rng(1)
        taus = sample_waiting_times(Quenched(bimodal()), 6, rng.random((20, 1)))
        assert np.all(taus == taus[:, :1])
        assert set(taus[:, 0].tolist()) == {0.01, 3.0}

    def test_annealed_frequency(self):
        # Binomial confidence oracle on the empirical atom frequency.
        rng = np.random.default_rng(2)
        n = 100_000
        taus = one_sequence(Annealed(bimodal(0.01, 3.0, 0.3)), n, rng)
        freq = np.mean(taus == 0.01)
        sigma = math.sqrt(0.3 * 0.7 / n)
        assert abs(freq - 0.3) < 3 * sigma

    def test_rows_are_independent_sequences(self):
        # A block of rows equals the same rows drawn one at a time.
        model = Annealed(bimodal(0.2, 1.1, 0.4))
        block = sample_waiting_times(model, 4, np.random.default_rng(8).random((50, 4)))
        rng = np.random.default_rng(8)
        assert np.array_equal(block, [one_sequence(model, 4, rng) for _ in range(50)])

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample_waiting_times(Fixed(1.0), 0, np.empty((1, 0)))

    def test_rejects_wrong_uniform_width(self):
        with pytest.raises(ValueError):
            sample_waiting_times(Annealed(bimodal()), 3, np.zeros((5, 2)))


class TestEnumerateRealizations:
    def test_fixed_single_realization(self):
        reals = enumerate_realizations(Fixed(0.4), 5)
        assert len(reals) == 1
        assert reals[0].weight == 1.0
        assert np.array_equal(reals[0].taus, np.full(5, 0.4))

    def test_quenched_collapses_to_atoms(self):
        reals = enumerate_realizations(Quenched(bimodal(0.1, 2.0, 0.3)), 3)
        assert len(reals) == 2
        assert [r.weight for r in reals] == pytest.approx([0.3, 0.7])
        for r in reals:
            assert np.all(r.taus == r.taus[0])

    def test_annealed_binomial_collapse(self):
        # Multiplicity-weighted sum over the count of the first atom
        # reproduces the binomial law.
        p1 = 0.3
        reals = enumerate_realizations(Annealed(bimodal(0.1, 2.0, p1)), 3)
        assert len(reals) == 8
        by_count = {}
        for r in reals:
            k = int(np.sum(r.taus == 0.1))
            by_count[k] = by_count.get(k, 0.0) + r.weight
        for k in range(4):
            expected = math.comb(3, k) * p1**k * (1 - p1) ** (3 - k)
            assert by_count[k] == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("model", [Fixed(0.5), Quenched(bimodal()), Annealed(bimodal())])
    @pytest.mark.parametrize("m", [1, 4, 12])
    def test_weights_sum_to_one(self, model, m):
        reals = enumerate_realizations(model, m)
        assert sum(r.weight for r in reals) == pytest.approx(1.0, abs=1e-12)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationTooLargeError):
            enumerate_realizations(Annealed(bimodal()), 25, cap=10**6)

    def test_matches_sampler_chi_square(self):
        # Empirical law of the sampler versus enumerated weights.
        rng = np.random.default_rng(3)
        model = Annealed(bimodal(0.1, 2.0, 0.35))
        m = 3
        reals = enumerate_realizations(model, m)
        keys = {tuple(r.taus): i for i, r in enumerate(reals)}
        counts = np.zeros(len(reals))
        n = 100_000
        for taus in sample_waiting_times(model, m, rng.random((n, m))):
            counts[keys[tuple(taus)]] += 1
        expected = n * np.array([r.weight for r in reals])
        assert stats.chisquare(counts, expected).pvalue > 0.01


class TestSampleUntilTotalTime:
    def test_fixed_exact_divisor_kept(self):
        draws = sample_until_total_time(Fixed(1.0), 5.0, np.random.default_rng(0), 3)
        assert draws.counts.tolist() == [5, 5, 5]
        assert np.array_equal(draws.taus, np.ones((3, 5)))

    def test_fixed_floor(self):
        draws = sample_until_total_time(Fixed(2.0), 5.0, np.random.default_rng(0), 3)
        assert draws.counts.tolist() == [2, 2, 2]

    def test_fixed_floor_matches_non_integer_ratio(self):
        rng = np.random.default_rng(0)
        for tau, total in ((0.3, 2.0), (0.7, 5.0), (1.1, 10.0)):
            draws = sample_until_total_time(Fixed(tau), total, rng, 4)
            assert np.all(draws.counts == math.floor(total / tau))

    def test_zero_count_when_first_draw_overshoots(self):
        draws = sample_until_total_time(Fixed(7.0), 5.0, np.random.default_rng(0), 3)
        assert draws.intervals == 0
        assert draws.counts.tolist() == [0, 0, 0]
        assert draws.taus.shape == draws.u_steps.shape == (3, 1)

    def test_quenched_repeats_single_draw(self):
        model = Quenched(bimodal(0.3, 0.9, 0.5))
        draws = sample_until_total_time(model, 5.0, np.random.default_rng(4), 20)
        for row, count in zip(draws.taus, draws.counts):
            assert np.all(row[:count] == row[0])
        assert set(draws.counts.tolist()) == {16, 5}

    def test_annealed_renewal_mean(self):
        # Mean count sits near total/mean-interval; the asymptotic formula
        # carries an O(1) bias, covered by the per-sample spread.
        model = Annealed(bimodal(0.1, 0.5, 0.5))
        counts = sample_until_total_time(model, 5.0, np.random.default_rng(5), 20_000).counts
        target = 5.0 / 0.3
        assert abs(counts.mean() - target) < 3 * counts.std()
        assert abs(counts.mean() - target) < 1.0

    def test_partial_sums_within_budget(self):
        model = Annealed(bimodal(0.2, 1.1, 0.4))
        draws = sample_until_total_time(model, 3.0, np.random.default_rng(6), 200)
        assert draws.intervals == draws.counts.sum()
        for row, count in zip(draws.taus, draws.counts):
            assert np.all(np.cumsum(row[:count]) <= 3.0 * (1 + 1e-12))
            assert np.all(row[count:] == 0.0)

    def test_rejects_bad_total_time(self):
        with pytest.raises(ValueError):
            sample_until_total_time(Fixed(1.0), 0.0, np.random.default_rng(0), 1)

    @pytest.mark.parametrize(
        "model",
        [
            Fixed(0.3),
            Quenched(bimodal(0.3, 0.9, 0.5)),
            Annealed(bimodal(0.2, 1.1, 0.4)),
            Annealed(DiscreteWaitingDist(np.array([0.1, 0.2, 0.3]), np.array([0.5, 0.0, 0.5]))),
        ],
        ids=["fixed", "quenched", "annealed", "annealed-zero-probability-value"],
    )
    def test_piece_size_does_not_change_draws(self, monkeypatch, model):
        # Pieces smaller than one trajectory must grow; larger ones hold
        # many trajectories and cut the last one short.
        def draws():
            return sample_until_total_time(model, 3.0, np.random.default_rng(8), 300)

        reference = draws()
        for piece in (1, 7, 64, 1000):
            monkeypatch.setattr(disorder, "RENEWAL_PIECE", piece)
            for got, want in zip(draws(), reference):
                assert np.array_equal(got, want)

