import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.stats import kendalltau

from kemeny import (
    DataVector,
    DegenerateInputError,
    LengthMismatchError,
    ValidationError,
    as_data_vector,
    centered_distance,
    kappa_map,
    kemeny_distance,
    kemeny_rho,
    kemeny_variance,
    pair_counts,
    population_cardinality,
    prepare_pair,
    row_sum_vector,
    sin_transform,
    tau_kappa,
)
from kemeny.baselines import kendall_tau_b, spearman_rho
from kemeny.bootstrap import METHODS

from conftest import random_tied_vector, random_tiefree_vector

HALF = math.sqrt(0.5)


class TestDataVector:
    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            DataVector([1.0, float("nan")])

    def test_rejects_short(self):
        with pytest.raises(ValidationError):
            DataVector([1.0])

    def test_rejects_2d(self):
        with pytest.raises(ValidationError):
            DataVector([[1.0, 2.0]])

    def test_degenerate_predicate(self):
        assert DataVector([3, 3, 3]).is_degenerate
        assert not DataVector([3, 3, 4]).is_degenerate
        assert DataVector([math.inf, math.inf]).is_degenerate

    def test_frozen(self):
        v = DataVector([1, 2, 3])
        with pytest.raises(ValueError):
            v.values[0] = 9.0


class TestKappaMap:
    def test_two_elements(self):
        k = kappa_map([1, 2]).values
        assert k[0, 1] == pytest.approx(-HALF)
        assert k[1, 0] == pytest.approx(HALF)
        assert k[0, 0] == 0 and k[1, 1] == 0

    def test_tie_case(self):
        k = kappa_map([1, 1, 2]).values
        assert k[0, 1] == 0
        assert k[0, 2] == pytest.approx(-HALF)
        assert k[1, 2] == pytest.approx(-HALF)
        assert k[2, 0] == pytest.approx(HALF)

    def test_extended_reals_order_like_finite(self):
        a = kappa_map([-math.inf, 0.0, math.inf]).signs
        b = kappa_map([1.0, 2.0, 3.0]).signs
        assert (a == b).all()

    def test_skew_symmetry_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            s = kappa_map(random_tied_vector(rng, n)).signs
            assert (s == -s.T).all()
            assert (np.diag(s) == 0).all()


class TestKemenyDistance:
    def test_identity_tiefree(self, rng):
        x = random_tiefree_vector(rng, 17)
        assert kemeny_distance(x, x) == 0

    def test_full_reversal(self):
        n = 9
        x = np.arange(1, n + 1)
        assert kemeny_distance(x, x[::-1]) == n * n - n

    def test_degenerate_partner_sits_at_midpoint(self):
        x = np.arange(1, 7)
        assert kemeny_distance(x, np.ones(6)) == (36 - 6) // 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            kemeny_distance([1, 2], [1, 2, 3])

    def test_iris_golden_distances(self, iris):
        golden = {
            ("sepal_length", "sepal_width"): 11990,
            ("sepal_length", "petal_length"): 3410,
            ("sepal_length", "petal_width"): 4243,
            ("sepal_width", "petal_length"): 13145,
            ("sepal_width", "petal_width"): 12804,
            ("petal_length", "petal_width"): 2634,
        }
        for (a, b), want in golden.items():
            assert kemeny_distance(iris.column(a), iris.column(b)) == want

    def test_symmetry_and_bounds_random(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            d = kemeny_distance(x, y)
            assert d == kemeny_distance(y, x)
            assert 0 <= d <= n * n - n

    def test_triangle_inequality_random(self, rng):
        for _ in range(300):
            n = int(rng.integers(3, 15))
            x, y, z = (random_tied_vector(rng, n) for _ in range(3))
            assert kemeny_distance(x, z) <= kemeny_distance(x, y) + kemeny_distance(y, z)


class TestCenteredDistance:
    def test_identical_tiefree(self):
        n = 8
        x = np.arange(n, dtype=float)
        assert centered_distance(x, x).value == -(n * n - n) // 2

    def test_sleep_value(self, sleep):
        assert centered_distance(sleep.column("group"), sleep.column("extra")).value == -49

    def test_two_element_reversal(self):
        assert centered_distance([1, 2], [2, 1]).value == 1

    def test_range_validation(self):
        from kemeny import CenteredDistance

        with pytest.raises(ValidationError):
            CenteredDistance(value=10, n=3)

    def test_relates_to_distance(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            cen = centered_distance(x, y)
            assert cen.value == kemeny_distance(x, y) - n * (n - 1) // 2
            assert cen.n == n


class TestTauKappa:
    def test_self_correlation_tiefree(self, rng):
        x = random_tiefree_vector(rng, 25)
        assert tau_kappa(x, x) == 1.0

    def test_reversal(self):
        x = np.arange(1.0, 13.0)
        assert tau_kappa(x, x[::-1]) == -1.0

    def test_iris_petal_pair(self, iris):
        tau = tau_kappa(iris.column("petal_length"), iris.column("petal_width"))
        # recomputed from the exact distance 2634 on support 22350
        assert tau == pytest.approx(-2.0 / 22350.0 * (2634 - 11175), abs=1e-15)
        assert tau == pytest.approx(0.764295, abs=5e-7)

    def test_self_equals_variance(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 30))
            x = random_tied_vector(rng, n)
            assert tau_kappa(x, x) == pytest.approx(kemeny_variance(x), abs=1e-15)

    def test_degenerate_gives_zero(self):
        assert tau_kappa([1, 1, 1], [1, 2, 3]) == 0.0


class TestKemenyVariance:
    def test_tiefree_is_one(self, rng):
        assert kemeny_variance(random_tiefree_vector(rng, 31)) == 1.0

    def test_constant_is_zero(self):
        assert kemeny_variance([2, 2, 2, 2]) == 0.0

    def test_two_tie_groups(self):
        # (1,1,2,2): 8 of 12 ordered pairs non-tied
        assert kemeny_variance([1, 1, 2, 2]) == pytest.approx(2.0 / 3.0)

    def test_bounds(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 25))
            v = kemeny_variance(random_tied_vector(rng, n))
            assert 0.0 <= v <= 1.0


class TestRowSums:
    def test_centered_ladder(self):
        got = row_sum_vector([1, 2, 3]).entries
        assert got == pytest.approx(HALF * np.array([-2.0, 0.0, 2.0]))

    def test_uncentered_ladder(self):
        got = row_sum_vector([1, 2, 3], centered=False).entries
        assert got == pytest.approx(HALF * np.array([0.0, 2.0, 4.0]))

    def test_degenerate_all_zero(self):
        assert (row_sum_vector([5, 5, 5]).entries == 0).all()

    def test_matches_kappa_row_sums(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 20))
            x = random_tied_vector(rng, n)
            direct = kappa_map(x).row_sums()
            assert row_sum_vector(x).entries == pytest.approx(direct, abs=1e-12)

    def test_centered_sums_to_zero(self, rng):
        for _ in range(50):
            x = random_tied_vector(rng, int(rng.integers(2, 40)))
            assert row_sum_vector(x).entries.sum() == pytest.approx(0.0, abs=1e-9)


class TestKemenyRho:
    def test_self(self, rng):
        x = random_tiefree_vector(rng, 12)
        assert kemeny_rho(x, x) == pytest.approx(1.0, abs=1e-12)

    def test_reversal(self):
        assert kemeny_rho([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_spearman_tiefree(self, rng):
        for _ in range(100):
            n = int(rng.integers(3, 100))
            x = random_tiefree_vector(rng, n)
            y = random_tiefree_vector(rng, n)
            assert kemeny_rho(x, y) == pytest.approx(spearman_rho(x, y), abs=1e-12)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateInputError):
            kemeny_rho([1, 1, 1], [1, 2, 3])

    def test_defined_on_extended_reals(self):
        # rank row sums stay finite even when scores are infinite
        val = kemeny_rho([-math.inf, 1.0, math.inf], [2.0, 3.0, 4.0])
        assert val == pytest.approx(1.0, abs=1e-12)


class TestMonotoneInvariance:
    def test_all_statistics(self, rng):
        for _ in range(50):
            n = int(rng.integers(3, 30))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            # strictly increasing map: exp preserves every comparison
            fx = np.exp(x / 4.0)
            assert (kappa_map(fx).signs == kappa_map(x).signs).all()
            assert kemeny_distance(fx, y) == kemeny_distance(x, y)
            assert tau_kappa(fx, y) == tau_kappa(x, y)
            assert kemeny_variance(fx) == kemeny_variance(x)


class TestMergeVsQuadraticOracle:
    def test_thousand_random_inputs(self, rng):
        for _ in range(1000):
            n = int(rng.integers(2, 200))
            x = random_tied_vector(rng, n)
            y = random_tied_vector(rng, n)
            assert pair_counts(x, y, method="merge") == pair_counts(
                x, y, method="quadratic"
            )

    def test_with_infinities(self, rng):
        x = np.array([-math.inf, 1.0, 1.0, math.inf, 2.0, -math.inf])
        y = np.array([3.0, math.inf, 2.0, 2.0, -math.inf, 3.0])
        assert pair_counts(x, y, method="merge") == pair_counts(x, y, method="quadratic")


# values that stress the comparisons: both infinities and both signed zeros
_SPECIAL = (-math.inf, -0.0, 0.0, math.inf)


@st.composite
def _column(draw, n):
    """n draws from a pool of 1..n levels: constant, heavily tied or spread."""
    value = st.one_of(st.sampled_from(_SPECIAL), st.floats(allow_nan=False))
    pool = draw(st.lists(value, min_size=1, max_size=n))
    return np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))


@st.composite
def _pairs(draw):
    n = draw(st.integers(2, 80))
    return draw(_column(n)), draw(_column(n))


class TestMergeProperties:
    @given(_pairs())
    @example((np.array([1.0, 2.0]), np.array([2.0, 1.0])))
    @example((np.array([3.0, 3.0, 3.0]), np.array([1.0, 0.0, 2.0])))
    @example((np.array([-0.0, 0.0, 1.0, -0.0]), np.array([0.0, -0.0, -math.inf, 1.0])))
    @example((np.repeat([0.0, 1.0], 40), np.arange(80.0)[::-1]))
    def test_merge_equals_quadratic(self, xy):
        x, y = xy
        assert pair_counts(x, y, method="merge") == pair_counts(x, y, method="quadratic")

    @given(_pairs())
    def test_argument_swap_swaps_ties(self, xy):
        x, y = xy
        fwd = pair_counts(x, y, method="merge")
        rev = pair_counts(y, x, method="merge")
        assert rev == dataclasses.replace(fwd, ties_x=fwd.ties_y, ties_y=fwd.ties_x)

    @given(_pairs())
    def test_negating_y_swaps_concordant_and_discordant(self, xy):
        x, y = xy
        fwd = pair_counts(x, y, method="merge")
        flipped = pair_counts(x, -y, method="merge")
        assert flipped == dataclasses.replace(
            fwd, concordant=fwd.discordant, discordant=fwd.concordant
        )

    @given(_pairs(), st.data())
    def test_shared_permutation_leaves_counts(self, xy, data):
        x, y = xy
        perm = np.array(data.draw(st.permutations(range(len(x)))))
        assert pair_counts(x[perm], y[perm], method="merge") == pair_counts(
            x, y, method="merge"
        )


def _outcome(fn, *args):
    try:
        return repr(float(fn(*args)))
    except ValidationError as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def _weighted_pairs(draw):
    """A pair and a row-weight vector with zeros (rows, and often whole
    levels, left out) summing to at least 2."""
    x, y = draw(_pairs())
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=len(x), max_size=len(x))))
    if w.sum() < 2:
        w[:2] += 1
    return x, y, w


class TestPreparedPair:
    @given(_weighted_pairs())
    @example((np.array([0.0, 1.0, 2.0]), np.array([2.0, 1.0, 0.0]), np.array([0, 1, 1])))
    @example((np.array([5.0, 5.0, 7.0, 7.0]), np.array([1.0, 2.0, 2.0, 3.0]),
              np.array([2, 0, 0, 3])))
    def test_resample_counts_equal_expanded_rows(self, xyw):
        x, y, w = xyw
        rows = np.repeat(np.arange(x.size), w)
        resampled = prepare_pair(x, y).resample(rows)
        ex, ey = np.repeat(x, w), np.repeat(y, w)
        assert resampled.counts == pair_counts(ex, ey, method="quadratic")
        assert pair_counts(resampled, method="quadratic") == resampled.counts
        expanded = prepare_pair(ex, ey)
        for attr in ("x_weights", "y_weights"):
            got = getattr(resampled, attr)
            assert (got[got > 0] == getattr(expanded, attr)).all()
        assert resampled.degenerate == expanded.degenerate
        assert resampled.variances == (kemeny_variance(ex), kemeny_variance(ey))

    @given(_weighted_pairs())
    @example((np.array([0.0, 1.0, 2.0, 1.0]), np.array([3.0, 1.0, 2.0, 0.0]),
              np.array([0, 2, 1, 1])))
    def test_resample_statistics_equal_expanded_rows(self, xyw):
        # every registered statistic, or its error, bit for bit; a group
        # level of weight 0 (here x = 0.0) is absent, not the first label
        x, y, w = xyw
        resampled = prepare_pair(x, y).resample(np.repeat(np.arange(x.size), w))
        ex, ey = np.repeat(x, w), np.repeat(y, w)
        for tag, fn in METHODS.items():
            with np.errstate(all="ignore"):
                assert _outcome(fn, resampled) == _outcome(fn, ex, ey), tag

    def test_resample_keeps_cells_and_draw_order(self):
        pair = prepare_pair([3.0, 1.0, 3.0, 2.0], [0.0, 0.0, 1.0, 1.0])
        sample = pair.resample([3, 0, 0, 1])
        assert sample.cell_x is pair.cell_x and sample.cell_y is pair.cell_y
        assert list(sample.x) == [2.0, 3.0, 3.0, 1.0]
        assert list(sample.weights) == [1, 1, 2, 0]
        assert list(sample.x_weights) == [1, 1, 2] and list(sample.x_midranks) == [1.0, 2.0, 3.5]
        assert list(sample.row_x) == [1, 2, 2, 0]

    def test_level_weights_and_midranks(self):
        pair = prepare_pair([2.0, 1.0, 2.0, 2.0], [-0.0, 0.0, math.inf, 1.0])
        assert list(pair.x_weights) == [1, 3] and list(pair.y_weights) == [2, 1, 1]
        assert list(pair.x_midranks) == [1.0, 3.0]
        assert list(pair.y_midranks) == [1.5, 3.0, 4.0]
        assert not pair.degenerate and prepare_pair([1, 1], [1, 2]).degenerate

    def test_prepare_pair_arguments(self):
        pair = prepare_pair([1, 2, 3], [3, 1, 2])
        assert prepare_pair(pair) is pair
        assert tau_kappa(pair) == tau_kappa([1, 2, 3], [3, 1, 2])
        with pytest.raises(ValidationError):
            prepare_pair(pair, [1, 2, 3])
        with pytest.raises(ValidationError):
            prepare_pair([1, 2, 3])
        with pytest.raises(LengthMismatchError):
            prepare_pair([1, 2, 3], [1, 2])
        with pytest.raises(ValidationError):
            pair.resample([0])
        with pytest.raises(ValidationError, match="NaN"):
            prepare_pair([1.0, 2.0], [1.0, math.nan])


class TestLargeN:
    """n = 70,000: past the quadratic oracle, and past 2**16 distinct ranks."""

    N = 70_000

    def test_tau_b_matches_scipy(self):
        rng = np.random.default_rng(70_000)
        x = rng.standard_normal(self.N)
        y = 0.5 * x + rng.standard_normal(self.N)
        assert np.unique(y).size > 1 << 16
        for a, b in ((x, y), (np.round(x, 1), y), (np.round(x, 1), np.round(y, 1))):
            want = kendalltau(a, b).statistic
            assert kendall_tau_b(a, b) == pytest.approx(want, rel=1e-12, abs=0)

    def test_reversed_blocks(self):
        # blocks of 7 in reverse order: every pair in different blocks is
        # discordant; a pair inside one block is concordant when y ascends
        # inside the blocks and tied in y when y is constant inside them
        n, size = self.N, 7
        block = np.arange(n) // size
        inside = n // size * (size * (size - 1) // 2)
        x = np.arange(n, dtype=float)
        ascending = (block[::-1] * size + np.arange(n) % size).astype(float)
        c = pair_counts(x, ascending, method="merge")
        assert (c.discordant, c.concordant) == (c.total - inside, inside)
        c = pair_counts(x, block[::-1].astype(float), method="merge")
        assert (c.discordant, c.concordant, c.ties_y) == (c.total - inside, 0, inside)


class TestSinTransform:
    def test_fixed_points(self):
        assert sin_transform(0.0) == 0.0
        assert sin_transform(1.0) == pytest.approx(1.0)
        assert sin_transform(-1.0) == pytest.approx(-1.0)

    def test_domain(self):
        with pytest.raises(ValidationError):
            sin_transform(1.5)


class TestCardinality:
    @pytest.mark.parametrize("n,want", [(2, 2), (3, 24), (5, 3120)])
    def test_values(self, n, want):
        assert population_cardinality(n) == want

    def test_bigint(self):
        assert population_cardinality(25) == 25**25 - 25


def test_as_data_vector_passthrough():
    v = DataVector([1, 2])
    assert as_data_vector(v) is v
