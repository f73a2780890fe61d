import math

import numpy as np
import pytest

from kemeny import (
    DegenerateInputError,
    ValidationError,
    centered_distance,
    kemeny_t_one_sample,
    kemeny_t_paired,
    kemeny_t_welch,
    kemeny_variance,
    kemeny_z_test,
    point_biserial,
    population_variance_formula,
)
from kemeny.special import chi2_sf_1df

from conftest import random_tied_vector, random_tiefree_vector


class TestKemenyZ:
    def test_sleep_golden(self, sleep):
        res = kemeny_z_test(sleep.column("group"), sleep.column("extra"))
        assert res.statistic == pytest.approx(49.0 / 30.63658, abs=1e-6)
        assert res.statistic == pytest.approx(1.59940, abs=1e-4)
        assert res.p_two_sided == pytest.approx(0.1097329, abs=1e-6)
        assert res.method == "kemeny_z"
        assert res.n == 20

    def test_identical_tiefree_is_maximal(self, rng):
        x = random_tiefree_vector(rng, 11)
        res = kemeny_z_test(x, x)
        n = 11
        want = (n * n - n) / 2.0 / math.sqrt(population_variance_formula(n))
        assert res.statistic == pytest.approx(want)

    def test_zero_centered_distance(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        y = np.array([2.0, 4.0, 1.0, 3.0])  # three concordant, three discordant
        assert centered_distance(x, y).value == 0
        res = kemeny_z_test(x, y)
        assert res.statistic == 0.0
        assert res.p_two_sided == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            kemeny_z_test([1, 1, 1], [1, 2, 3])

    def test_p_two_is_twice_min_tail(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 25))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            res = kemeny_z_test(x, y)
            assert res.p_two_sided == pytest.approx(
                2.0 * min(res.p_one_sided, 1.0 - res.p_one_sided), abs=1e-15
            )


class TestOneSampleT:
    def test_tiefree_reduces_to_z(self, rng):
        x = random_tiefree_vector(rng, 15)
        y = random_tied_vector(rng, 15)
        if len(set(y)) < 2:
            y[0] += 1.0
        t = kemeny_t_one_sample(x, y)
        z = kemeny_z_test(x, y)
        assert t.statistic == pytest.approx(z.statistic, rel=1e-12)
        assert t.df == 14.0

    def test_half_concentration_shrinks_by_root_half(self):
        x = np.array([1.0, 1.0, 1.0, 2.0])  # exactly half the pairs non-tied
        assert kemeny_variance(x) == pytest.approx(0.5)
        y = np.array([4.0, 2.0, 3.0, 1.0])
        t = kemeny_t_one_sample(x, y)
        z = kemeny_z_test(x, y)
        assert t.statistic == pytest.approx(z.statistic * math.sqrt(0.5), rel=1e-12)
        assert abs(t.statistic) < abs(z.statistic)

    def test_scale_monotone_in_ties(self, rng):
        # more ties in x => smaller |t| relative to |z|
        y = random_tiefree_vector(rng, 12)
        tied = np.repeat([1.0, 2.0, 3.0], 4)
        loose = np.arange(12.0)
        t_tied = kemeny_t_one_sample(tied, y)
        z = kemeny_z_test(tied, y)
        ratio = abs(t_tied.statistic) / max(abs(z.statistic), 1e-12)
        assert ratio == pytest.approx(math.sqrt(kemeny_variance(tied)), rel=1e-9)


class TestWelchT:
    def test_both_tiefree_scales_by_root_two(self, rng):
        x = random_tiefree_vector(rng, 20)
        y = random_tiefree_vector(rng, 20)
        t = kemeny_t_welch(x, y)
        z = kemeny_z_test(x, y)
        assert t.statistic == pytest.approx(z.statistic * math.sqrt(2.0), rel=1e-12)
        assert t.df == 18.0

    def test_scale_diagnostics_exposed(self, sleep):
        res = kemeny_t_welch(sleep.column("group"), sleep.column("extra"))
        s_p = res.details["s_p"]
        s_kappa = res.details["s_kappa"]
        pop_var = population_variance_formula(20)
        assert s_kappa == pytest.approx(math.sqrt(pop_var / s_p**2), rel=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInputError):
            kemeny_t_welch([2, 2, 2], [1, 2, 3])

    def test_two_rows_have_no_df(self):
        with pytest.raises(DegenerateInputError, match="kemeny_t_welch needs n >= 3"):
            kemeny_t_welch([1, 2], [2, 1])


class TestPairedT:
    def test_sleep_golden(self, sleep):
        extra = sleep.column("extra")
        x, y = extra[:10], extra[10:]
        res = kemeny_t_paired(x, y)
        # frozen at the first verified run on the embedded data
        assert res.details["centered_distance"] == -27.0
        assert res.details["sd_diff"] == pytest.approx(0.98882646, abs=1e-8)
        assert res.statistic == pytest.approx(0.22304356, abs=1e-8)
        assert res.df == 9.0
        assert 0.0 <= res.p_two_sided <= 1.0

    def test_identical_vectors_rejected(self):
        x = np.arange(1.0, 9.0)
        with pytest.raises(DegenerateInputError):
            kemeny_t_paired(x, x.copy())

    def test_infinite_entries_rejected(self):
        with pytest.raises(ValidationError):
            kemeny_t_paired([1.0, math.inf, 3.0], [1.0, 2.0, 3.0])

    def test_positive_scaling_of_y_keeps_sign(self, sleep):
        extra = sleep.column("extra")
        x, y = extra[:10], extra[10:]
        a = kemeny_t_paired(x, y)
        b = kemeny_t_paired(x, y * 3.0)
        assert math.copysign(1, a.details["centered_distance"]) == math.copysign(
            1, b.details["centered_distance"]
        )


class TestPointBiserial:
    def test_sleep_golden(self, sleep):
        res = point_biserial(sleep.column("group"), sleep.column("extra"))
        assert res.effect == pytest.approx(0.25789, abs=5e-6)
        assert res.p_two_sided == pytest.approx(0.1097329, abs=1e-6)

    def test_group_must_be_binary(self):
        with pytest.raises(ValidationError):
            point_biserial([1, 2, 3, 1], [4, 5, 6, 7])
        with pytest.raises(ValidationError):
            point_biserial([1, 1, 1, 1], [4, 5, 6, 7])

    def test_null_simulation_keeps_z_small(self, rng):
        # same outcome distribution in both groups: average |z| stays near 0
        zs = []
        for _ in range(200):
            outcome = rng.integers(0, 5, 40).astype(float)
            group = np.repeat([1.0, 2.0], 20)
            rng.shuffle(group)
            if len(set(outcome)) < 2:
                continue
            zs.append(point_biserial(group, outcome).statistic)
        assert abs(np.mean(zs)) < 0.2
        assert np.mean(np.abs(zs)) < 2.0


class TestSharedProperties:
    def test_reversal_antisymmetry(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 20))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            fwd = kemeny_z_test(x, y)
            rev = kemeny_z_test(x, -y)  # strictly decreasing transform of y
            assert rev.statistic == pytest.approx(-fwd.statistic, abs=1e-12)

    def test_monotone_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 20))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            for fn in (kemeny_z_test, kemeny_t_one_sample, kemeny_t_welch):
                a = fn(x, y)
                b = fn(np.exp(x / 3.0), y * 7.0 + 2.0)
                assert a.statistic == pytest.approx(b.statistic, rel=1e-12)

    def test_z_squared_is_chi_square_tail(self, rng):
        for _ in range(200):
            n = int(rng.integers(3, 30))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            res = kemeny_z_test(x, y)
            assert res.p_two_sided == pytest.approx(
                chi2_sf_1df(res.statistic**2), abs=1e-10
            )
