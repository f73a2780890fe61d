import math

import numpy as np
import pytest
import scipy.stats as st

from kemeny import (
    DegenerateInputError,
    ValidationError,
    effect_sizes,
    kemeny_distance,
    kendall_distance,
    kendall_tau_a,
    kendall_tau_b,
    kendall_z,
    pearson_r,
    pearson_t,
    spearman_rho,
    tau_kappa,
    wilcoxon_rank_sum,
)

from conftest import random_tied_vector, random_tiefree_vector


class TestKendall:
    def test_reversal(self):
        assert kendall_tau_b([1, 2, 3], [3, 2, 1]) == -1.0

    def test_tiefree_equals_tau_kappa_exactly(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 80))
            x = random_tiefree_vector(rng, n)
            y = random_tiefree_vector(rng, n)
            tk = tau_kappa(x, y)
            assert kendall_tau_b(x, y) == tk
            assert kendall_tau_a(x, y) == tk

    def test_discordance_is_half_distance_tiefree(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 60))
            x = random_tiefree_vector(rng, n)
            y = random_tiefree_vector(rng, n)
            assert 2 * kendall_distance(x, y) == kemeny_distance(x, y)

    def test_tied_matches_scipy(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 60))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            ref = st.kendalltau(x, y).statistic
            assert kendall_tau_b(x, y) == pytest.approx(ref, abs=1e-13)

    def test_merge_equals_quadratic(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 150))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert kendall_tau_b(x, y, method="merge") == kendall_tau_b(
                x, y, method="quadratic"
            )

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            kendall_tau_b([1, 1, 1], [1, 2, 3])


class TestKendallZ:
    def test_sleep_tie_corrected(self, sleep):
        z = kendall_z(sleep.column("group"), sleep.column("extra"))
        assert z == pytest.approx(1.8542, abs=2e-4)

    def test_sleep_uncorrected_collapses_toward_kemeny_scale(self, sleep):
        z = kendall_z(sleep.column("group"), sleep.column("extra"), tie_corrected=False)
        assert z == pytest.approx(49.0 / math.sqrt(20 * 19 * 45 / 18.0), rel=1e-12)

    def test_tiefree_forms_agree(self, rng):
        x = random_tiefree_vector(rng, 30)
        y = random_tiefree_vector(rng, 30)
        assert kendall_z(x, y) == pytest.approx(
            kendall_z(x, y, tie_corrected=False), rel=1e-12
        )

    def test_two_rows(self):
        # S = +-1 over a null variance of 1; the three-member tie term is 0
        assert kendall_z([0.0, 1.0], [0.0, 1.0]) == 1.0
        assert kendall_z([0.0, 1.0], [1.0, 0.0]) == -1.0


class TestSpearman:
    def test_matches_scipy_with_ties(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 60))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            ref = st.spearmanr(x, y).statistic
            assert spearman_rho(x, y) == pytest.approx(ref, abs=1e-12)

    def test_symmetry_and_bounds(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            r = spearman_rho(x, y)
            assert -1.0 <= r <= 1.0
            assert r == pytest.approx(spearman_rho(y, x), abs=1e-15)


class TestPearson:
    def test_exact_linearity(self):
        assert pearson_r([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_infinite_entry_rejected(self):
        with pytest.raises(ValidationError):
            pearson_r([1.0, math.inf, 3.0], [1.0, 2.0, 3.0])

    def test_t_statistic(self, rng):
        x = rng.normal(size=50)
        y = 0.5 * x + rng.normal(size=50)
        r = pearson_r(x, y)
        want = r * math.sqrt(48 / (1 - r * r))
        assert pearson_t(x, y) == pytest.approx(want, rel=1e-12)

    def test_t_needs_three_rows(self):
        with pytest.raises(DegenerateInputError, match="pearson_t needs n >= 3"):
            pearson_t([0.0, 1.0], [0.0, 1.0])


class TestWilcoxon:
    def test_sleep_golden(self, sleep):
        res = wilcoxon_rank_sum(sleep.column("group"), sleep.column("extra"))
        assert res.W == 25.5
        assert res.p == pytest.approx(0.06933, abs=1e-4)

    def test_matches_scipy_normal_approximation(self, rng):
        for _ in range(100):
            n1 = int(rng.integers(4, 20))
            n2 = int(rng.integers(4, 20))
            outcome = rng.integers(0, 8, n1 + n2).astype(float)
            if len(set(outcome)) < 2:
                continue
            group = np.array([1.0] * n1 + [2.0] * n2)
            mine = wilcoxon_rank_sum(group, outcome)
            ref = st.mannwhitneyu(
                outcome[:n1], outcome[n1:], use_continuity=True,
                alternative="two-sided", method="asymptotic",
            )
            assert mine.W == pytest.approx(ref.statistic)
            assert mine.p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_identical_equal_groups(self):
        outcome = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        group = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        res = wilcoxon_rank_sum(group, outcome)
        assert res.z == 0.0
        assert res.p == pytest.approx(1.0)

    def test_label_reversal_reflects_w(self, sleep):
        g = sleep.column("group")
        e = sleep.column("extra")
        fwd = wilcoxon_rank_sum(g, e)
        rev = wilcoxon_rank_sum(3.0 - g, e)  # swaps the two labels
        assert fwd.W + rev.W == fwd.n1 * fwd.n2

    def test_group_must_be_binary(self):
        with pytest.raises(ValidationError):
            wilcoxon_rank_sum([1, 2, 3, 1], [5, 6, 7, 8])

    def test_constant_outcome_rejected(self):
        with pytest.raises(DegenerateInputError):
            wilcoxon_rank_sum([1, 1, 2, 2], [3, 3, 3, 3])


class TestEffectSizes:
    def test_zero_z_gives_zero_wilcox_r(self):
        outcome = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 3.0])
        group = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
        eff = effect_sizes(group, outcome)
        assert eff["wilcox_r"] == 0.0
        assert eff["glass_r"] == 0.0

    def test_sleep_magnitudes_reported(self, sleep):
        eff = effect_sizes(sleep.column("group"), sleep.column("extra"))
        # report-only comparison against the published n=20 summary row
        # (-0.41689, -0.50094); definitions are conventional, not pinned
        assert eff["wilcox_r"] == pytest.approx(-0.406, abs=2e-3)
        assert eff["glass_r"] == pytest.approx(-0.49, abs=0.01)
        print(f"[effects] sleep wilcox_r={eff['wilcox_r']:.5f} glass_r={eff['glass_r']:.5f}")

    def test_equal_mean_ranks_zero_glass(self):
        group = np.array([1.0, 2.0, 1.0, 2.0])
        outcome = np.array([1.0, 1.0, 2.0, 2.0])
        assert effect_sizes(group, outcome)["glass_r"] == 0.0
