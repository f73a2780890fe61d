import math

import numpy as np
import pytest

import kemeny.population as population
from kemeny import (
    PopulationSpec,
    ValidationError,
    cardinality_gap,
    distance_distribution_moments,
    enumerate_population,
    population_variance_formula,
    table1_report,
)
from kemeny.population import (
    _MC_CHUNK,
    _member_matrix,
    _montecarlo_histogram,
    distance_histogram,
)


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 2), (3, 24), (4, 252)])
    def test_counts(self, n, count):
        members = list(enumerate_population(n))
        assert len(members) == count

    def test_n2_members(self):
        members = {tuple(int(v) for v in m) for m in enumerate_population(2)}
        assert members == {(1, 2), (2, 1)}

    def test_no_constants_no_duplicates(self):
        members = [tuple(int(v) for v in m) for m in enumerate_population(4)]
        assert len(set(members)) == len(members)
        assert all(len(set(m)) > 1 for m in members)
        assert all(all(1 <= v <= 4 for v in m) for m in members)

    def test_cap_enforced(self):
        with pytest.raises(ValidationError):
            list(enumerate_population(6))
        with pytest.raises(ValidationError):
            PopulationSpec(n=7, mode="exhaustive", exhaustive_cap=7)

    def test_n6_allowed_behind_override(self):
        # construction is legal with the explicit override; the walk itself
        # is the slow documented path and is not exercised here
        spec = PopulationSpec(n=6, mode="exhaustive", exhaustive_cap=6)
        assert spec.n == 6
        gen = enumerate_population(6, cap=6)
        assert next(gen).shape == (6,)


class TestCardinalityGap:
    @pytest.mark.parametrize(
        "n,want", [(2, 0), (3, 18), (10, 10**10 - 10 - 3628800)]
    )
    def test_values(self, n, want):
        assert cardinality_gap(n) == want

    def test_positive_from_three_on(self):
        for n in range(3, 30):
            assert cardinality_gap(n) > 0


class TestVarianceFormula:
    def test_small_n(self):
        assert population_variance_formula(2) == pytest.approx(0.5)
        assert population_variance_formula(3) == pytest.approx(140.0 / 54.0)

    def test_sleep_scale(self):
        assert math.sqrt(population_variance_formula(20)) == pytest.approx(
            30.63658, abs=5e-6
        )

    def test_domain(self):
        with pytest.raises(ValidationError):
            population_variance_formula(1)


class TestExhaustiveMoments:
    def test_n2_is_the_four_pair_set(self):
        hist = distance_histogram(PopulationSpec(n=2, mode="exhaustive"))
        # pairs (a,a),(a,b),(b,a),(b,b) give centered values -1,+1,+1,-1
        assert hist.total == 4
        assert hist.counts[0] == 2 and hist.counts[2] == 2
        summary = hist.summary()
        assert summary.mean == 0.0
        assert summary.sd == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_mean_exactly_zero_and_symmetric(self, n):
        summary = distance_distribution_moments(PopulationSpec(n=n, mode="exhaustive"))
        assert summary.mean == 0.0
        assert abs(summary.skewness) < 1e-12
        assert summary.excess_kurtosis < 0.0
        assert summary.count == (n**n - n) ** 2

    def test_histogram_matches_bruteforce_n3(self):
        vecs = _member_matrix(3)
        signs = np.sign(vecs[:, :, None] - vecs[:, None, :]).reshape(len(vecs), -1)
        ref = -(signs @ signs.T) // 2
        hist = distance_histogram(PopulationSpec(n=3, mode="exhaustive"))
        ref_counts = np.bincount((ref + 3).ravel(), minlength=7)
        assert (hist.counts == ref_counts).all()


def _bruteforce_counts(n):
    """Histogram counts from the full sign matrix of every member pair."""
    vecs = _member_matrix(n)
    signs = np.sign(vecs[:, :, None] - vecs[:, None, :]).reshape(len(vecs), -1)
    half = n * (n - 1) // 2
    counts = np.zeros(2 * half + 1, dtype=np.int64)
    for start in range(0, len(vecs), 512):
        dist = -(signs[start : start + 512] @ signs.T) // 2
        counts += np.bincount((dist + half).ravel(), minlength=2 * half + 1)
    return counts


class TestCollapsedExhaustive:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_bruteforce(self, n):
        hist = distance_histogram(PopulationSpec(n=n, mode="exhaustive"))
        assert (hist.counts == _bruteforce_counts(n)).all()

    def test_n6_exact_and_near_montecarlo(self):
        hist = distance_histogram(PopulationSpec(n=6, mode="exhaustive", exhaustive_cap=6))
        assert hist.total == (6**6 - 6) ** 2
        assert (hist.counts == hist.counts[::-1]).all()
        exact = hist.summary()
        assert exact.mean == 0.0
        count = 200_000
        mc = distance_distribution_moments(
            PopulationSpec(n=6, mode="montecarlo", sample_count=count, seed=6)
        )
        assert abs(mc.mean - exact.mean) < 3 * exact.sd / math.sqrt(count)
        se_sd = exact.sd * math.sqrt((exact.excess_kurtosis + 2.0) / (4.0 * count))
        assert abs(mc.sd - exact.sd) < 3 * se_sd


def _draw_members(n, count, rng):
    """Uniform non-constant members by rejection: the seed contract's draws."""
    rows = []
    while count:
        draw = rng.integers(1, n + 1, size=(count, n))
        draw = draw[(draw != draw[:, :1]).any(axis=1)]
        rows.append(draw)
        count -= len(draw)
    return np.concatenate(rows)


class TestMonteCarloStream:
    # 5000 samples cross the chunk boundary; n=129 is the first size
    # whose differences overflow int8
    @pytest.mark.parametrize("n,count", [(9, 5000), (129, 3)])
    def test_matches_full_sign_matrix_on_same_draws(self, n, count):
        seed = 11
        half = n * (n - 1) // 2
        want = np.zeros(2 * half + 1, dtype=np.int64)
        for chunk in range(-(-count // _MC_CHUNK)):
            take = min(_MC_CHUNK, count - chunk * _MC_CHUNK)
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
            xs = _draw_members(n, take, rng)
            ys = _draw_members(n, take, rng)
            sx = np.sign(xs[:, :, None] - xs[:, None, :])
            sy = np.sign(ys[:, :, None] - ys[:, None, :])
            dist = -(sx * sy).sum(axis=(1, 2)) // 2
            want += np.bincount(dist + half, minlength=2 * half + 1)
        spec = PopulationSpec(n=n, mode="montecarlo", sample_count=count, seed=seed)
        assert (_montecarlo_histogram(spec).counts == want).all()


class TestMonteCarloBlocks:
    # a small budget splits each chunk into several pair blocks (at n=9
    # ending in a partial one); a huge one scores each chunk in one block
    @pytest.mark.parametrize("n,count,budget", [(9, 5000, 7 * _MC_CHUNK), (129, 3, 20)])
    def test_blocks_match_unblocked(self, monkeypatch, n, count, budget):
        spec = PopulationSpec(n=n, mode="montecarlo", sample_count=count, seed=5)
        monkeypatch.setattr(population, "_MC_BLOCK", 1 << 62)
        whole = _montecarlo_histogram(spec).counts
        monkeypatch.setattr(population, "_MC_BLOCK", budget)
        assert (_montecarlo_histogram(spec).counts == whole).all()


class TestMonteCarlo:
    def test_determinism(self):
        spec = PopulationSpec(n=6, mode="montecarlo", sample_count=20_000, seed=42)
        a = distance_histogram(spec)
        b = distance_histogram(spec)
        assert (a.counts == b.counts).all()

    def test_seed_changes_stream(self):
        a = distance_histogram(
            PopulationSpec(n=6, mode="montecarlo", sample_count=20_000, seed=1)
        )
        b = distance_histogram(
            PopulationSpec(n=6, mode="montecarlo", sample_count=20_000, seed=2)
        )
        assert (a.counts != b.counts).any()

    def test_converges_to_exhaustive_n4(self):
        exact = distance_distribution_moments(PopulationSpec(n=4, mode="exhaustive"))
        count = 1_000_000
        mc = distance_distribution_moments(
            PopulationSpec(n=4, mode="montecarlo", sample_count=count, seed=3)
        )
        se_mean = exact.sd / math.sqrt(count)
        assert abs(mc.mean - exact.mean) < 3 * se_mean
        # sd standard error for a finite-kurtosis population
        se_sd = exact.sd * math.sqrt((exact.excess_kurtosis + 2.0) / (4.0 * count))
        assert abs(mc.sd - exact.sd) < 3 * se_sd

    def test_requires_sample_count(self):
        with pytest.raises(ValidationError):
            PopulationSpec(n=4, mode="montecarlo", sample_count=0)


class TestTable1Report:
    def test_columns_and_flagging(self):
        rows = table1_report([2, 3], sample_count=1000, seed=0)
        by_n = {row.n: row for row in rows}
        assert by_n[2].formula_sd == pytest.approx(0.70711, abs=5e-6)
        assert by_n[2].mode == "exhaustive"
        # exhaustive ordered-pair sd at n=2 is 1.0, far from 0.707: flagged
        assert by_n[2].empirical_sd == pytest.approx(1.0)
        assert by_n[2].flagged
        # n=3 sits at a 4.7% sd gap: inside the default 5% gate,
        # outside a tightened one
        assert not by_n[3].flagged
        tight = table1_report([3], flag_threshold=0.03)
        assert tight[0].flagged

    def test_montecarlo_rows_report_counts(self):
        rows = table1_report([9], sample_count=5000, seed=1)
        assert rows[0].mode == "montecarlo"
        assert rows[0].sample_count == 5000
        assert rows[0].ratio == pytest.approx(
            rows[0].empirical_sd / rows[0].formula_sd
        )
