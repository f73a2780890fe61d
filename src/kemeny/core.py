"""Pairwise-comparison core: the kappa map and every quantity built on it.

A data vector over the extended reals is scored pair by pair into a
skew-symmetric sign pattern (scaled by sqrt(0.5)).  Everything else in the
package -- the distance between two vectors, its centered form, the tau
correlation, the per-variable concentration, rank row sums, and the
Spearman-analogue rho -- is an affine function of the concordant /
discordant / tied pair counts, so all distances are computed in exact
integer arithmetic and only scaled to floats at the boundary.

Every pair estimator reads one `PreparedPair` (`prepare_pair`): both
columns dense-ranked once, the rows collapsed into their m distinct
(x, y) cells weighted by multiplicity.  Discordant pairs are weighted
inversions of the cells' ranks, one stable-sort pass per bit (after Knight
1966, JASA 61:436): O(n log n) ranking plus O(m log k), k the smaller
number of distinct values.  A row resample keeps the cells and changes
their weights, O(r + m log k) for r rows, sorting nothing.  The O(n^2)
sign-matrix count (`method="quadratic"`) is the oracle in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import DegenerateInputError, LengthMismatchError, ValidationError

HALF_SQRT = math.sqrt(0.5)

#: largest n counted quadratically: timed against the cell counter, the
#: quadratic count wins up to n ~ 100 on 5-level data and ~ 140 tie-free
_MERGE_CUTOFF = 100

VectorLike = Union["DataVector", Sequence[float], np.ndarray]
#: a column x, or a PreparedPair standing for both columns (y then left out)
PairLike = Union[VectorLike, "PreparedPair"]


class DataVector:
    """A length-n sample of extended-real scores.

    NaN entries are rejected at construction; +/-inf are legal and compare
    the usual way.  The array is frozen so instances can be shared freely.
    """

    __slots__ = ("values",)

    def __init__(self, values: Iterable[float]):
        arr = np.asarray(values, dtype=float)
        if arr.ndim != 1:
            raise ValidationError(f"expected a 1-d sequence, got shape {arr.shape}")
        if arr.size < 2:
            raise ValidationError(f"need at least 2 observations, got {arr.size}")
        if np.isnan(arr).any():
            raise ValidationError("NaN entries are not allowed")
        arr = arr.copy()
        arr.setflags(write=False)
        self.values = arr

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def is_degenerate(self) -> bool:
        """True iff every entry is equal (a constant vector)."""
        return bool(self.values.min() == self.values.max())

    def __len__(self) -> int:
        return self.values.size

    def __iter__(self):
        return iter(self.values)

    def __repr__(self) -> str:
        return f"DataVector(n={self.n})"


def as_data_vector(x: VectorLike) -> DataVector:
    """Coerce array-likes to DataVector; pass DataVector through unchanged."""
    return x if isinstance(x, DataVector) else DataVector(x)


class KappaMatrix:
    """Skew-symmetric pairwise-comparison image of a data vector.

    Entries are sign(x_k - x_l) * sqrt(0.5); stored as an int8 sign matrix
    with the sqrt(0.5) scalar implicit.
    """

    __slots__ = ("signs",)

    def __init__(self, signs: np.ndarray):
        signs = np.asarray(signs, dtype=np.int8)
        if signs.ndim != 2 or signs.shape[0] != signs.shape[1]:
            raise ValidationError("kappa sign matrix must be square")
        signs.setflags(write=False)
        self.signs = signs

    @property
    def order(self) -> int:
        return self.signs.shape[0]

    @property
    def values(self) -> np.ndarray:
        """The matrix with the sqrt(0.5) scalar applied."""
        return self.signs * HALF_SQRT

    def row_sums(self) -> np.ndarray:
        """Row sums of the scaled matrix (sum over l of entry kl)."""
        return self.signs.sum(axis=1, dtype=np.int64) * HALF_SQRT


@dataclass(frozen=True)
class CenteredDistance:
    """Signed distance about its expectation; integer-valued, |value| <= (n^2-n)/2."""

    value: int
    n: int

    def __post_init__(self):
        half = self.n * (self.n - 1) // 2
        if abs(self.value) > half:
            raise ValidationError(
                f"centered distance {self.value} outside +/-{half} for n={self.n}"
            )

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class RankRowVector:
    """Row sums of a kappa matrix; rank-like, entries are multiples of sqrt(0.5).

    Centered entries sum to zero; uncentered entries have the minimum
    subtracted so all are >= 0.
    """

    entries: np.ndarray
    centered: bool

    def __post_init__(self):
        self.entries.setflags(write=False)

    def __len__(self) -> int:
        return self.entries.size


@dataclass(frozen=True)
class PairCounts:
    """Exact unordered-pair tallies for a bivariate sample.

    concordant + discordant + pairs tied in x or y = n(n-1)/2.  ties_x /
    ties_y include pairs tied in both; ties_xy counts those once.
    """

    n: int
    concordant: int
    discordant: int
    ties_x: int
    ties_y: int
    ties_xy: int

    @property
    def total(self) -> int:
        return self.n * (self.n - 1) // 2


def kappa_map(x: VectorLike) -> KappaMatrix:
    """Map a data vector onto its skew-symmetric pairwise sign matrix.

    Entry (k, l) is +sqrt(0.5) when x_k > x_l, 0 on ties, -sqrt(0.5) when
    x_k < x_l; infinities compare normally.
    """
    v = as_data_vector(x).values
    gt = v[:, None] > v[None, :]
    lt = v[:, None] < v[None, :]
    return KappaMatrix(gt.astype(np.int8) - lt.astype(np.int8))


def _tied_pairs(sizes: np.ndarray) -> int:
    """Pairs inside groups of the given sizes: the sum of C(s, 2)."""
    return int(sizes @ (sizes - 1)) // 2


def _level_midranks(sizes: np.ndarray) -> np.ndarray:
    """Mid-rank of each level, (2 cum - w + 1) / 2 for level weights w."""
    upper = np.cumsum(sizes)
    return (upper - sizes + 1 + upper) / 2.0


def _count_inversions(r: np.ndarray, w: np.ndarray) -> int:
    """Weighted inversions: the sum of w[i] * w[j] over i < j with r[i] > r[j].

    r >= 0.  Pass b (high bit first) stable-sorts by r >> b.  Elements equal
    above bit b are still in input order, so each moves past exactly those
    that differ from it at b, and the moved-past weight sums to twice the
    inversions whose highest differing bit is b.
    """
    top = int(r.max())
    prefix = np.cumsum(w)
    twice = 0
    for shift in reversed(range(top.bit_length())):
        key = r >> shift
        # 16-bit keys take numpy's radix sort
        order = np.argsort(key.astype(np.uint16) if top >> shift < 1 << 16 else key,
                           kind="stable")
        r, w, moved = r[order], w[order], prefix[order]
        prefix = np.cumsum(w)
        twice += int(np.abs(moved - prefix) @ w)
    return twice // 2


class PreparedPair:
    """A bivariate sample, validated once and ranked at most once.

    Holds the columns `x`, `y` in row order.  On first use it derives, and
    caches, each row's levels `row_x`, `row_y` (dense ranks of the values),
    the level weights `x_weights`, `y_weights` (the tie-group sizes), the
    distinct (x-level, y-level) cells `cell_x`, `cell_y` with their int64
    row counts `weights`, the level mid-ranks `x_midranks`, `y_midranks`,
    the pair `counts` and `degenerate` (x or y constant); it is never
    modified otherwise.  `resample(rows)` gives the same cells new weights:
    a level of weight 0 is absent from that sample.  Mid-rank sums over the
    weighted cells add quarter-integers, exact in any order while n^3 < 2^53
    (n up to about 2e5), so there they equal the row-by-row sums bit for bit.
    """

    def __init__(self, x: VectorLike, y: VectorLike):
        xv = as_data_vector(x).values
        yv = as_data_vector(y).values
        if xv.size != yv.size:
            raise LengthMismatchError(f"length mismatch: {xv.size} vs {yv.size}")
        self.x, self.y, self.n = xv, yv, xv.size

    def __getattr__(self, name: str):
        # reached only while `name` is unset: derive it and cache it (a
        # resample sets its rows' cells, the cells and the weights up front)
        if name in ("row_x", "row_y") and "row_cells" in self.__dict__:
            self.row_x, self.row_y = self.cell_x[self.row_cells], self.cell_y[self.row_cells]
        elif name in ("row_x", "x_weights"):
            _, self.row_x, self.x_weights = np.unique(self.x, return_inverse=True,
                                                      return_counts=True)
        elif name in ("row_y", "y_weights"):
            _, self.row_y, self.y_weights = np.unique(self.y, return_inverse=True,
                                                      return_counts=True)
        elif name in ("cell_x", "cell_y", "weights", "_inversions"):
            kx, ky = self.x_weights.size, self.y_weights.size
            cells, self.weights = np.unique(self.row_x * ky + self.row_y, return_counts=True)
            self.cell_x, self.cell_y = cells // ky, cells % ky
            # discordance is symmetric in x and y: count the inversions of
            # the column with fewer levels, over the cells in the other's order
            swap = ky > kx
            order = np.lexsort((self.cell_x, self.cell_y)) if swap else None
            self._inversions = (self.cell_x[order], order) if swap else (self.cell_y, None)
        elif name == "row_cells":
            ky = self.y_weights.size
            self.row_cells = np.searchsorted(self.cell_x * ky + self.cell_y,
                                             self.row_x * ky + self.row_y)
        elif name == "counts":
            # up to 100 rows not yet collapsed to cells are cheaper to count
            # by their sign matrices; both counts are exact
            quadratic = self.n <= _MERGE_CUTOFF and "weights" not in self.__dict__
            self.counts = _pair_counts_quadratic(self.x, self.y) if quadratic else self._count()
        elif name in ("x_midranks", "y_midranks"):
            self.x_midranks, self.y_midranks = map(_level_midranks, (self.x_weights,
                                                                     self.y_weights))
        elif name == "degenerate":
            self.degenerate = bool(self.x.min() == self.x.max() or self.y.min() == self.y.max())
        else:
            raise AttributeError(f"'PreparedPair' object has no attribute {name!r}")
        return self.__dict__[name]

    def _count(self) -> PairCounts:
        """Pair tallies counted over the cells."""
        keys, order = self._inversions
        w = self.weights if order is None else self.weights[order]
        discordant = _count_inversions(keys, w)
        ties_x, ties_y = _tied_pairs(self.x_weights), _tied_pairs(self.y_weights)
        ties_xy = _tied_pairs(self.weights)
        concordant = self.n * (self.n - 1) // 2 - ties_x - ties_y + ties_xy - discordant
        return PairCounts(self.n, concordant, discordant, ties_x, ties_y, ties_xy)

    def resample(self, rows) -> "PreparedPair":
        """The pair of rows `rows` (indices, repeats allowed), in that order,
        on the same cells: the weights are the bincount of the rows' cells."""
        rows = np.asarray(rows)
        if rows.ndim != 1 or rows.size < 2:
            raise ValidationError(f"a resample needs a 1-d array of >= 2 rows, got {rows.shape}")
        sample = object.__new__(PreparedPair)
        sample.x, sample.y, sample.n = self.x[rows], self.y[rows], rows.size
        sample.row_cells = self.row_cells[rows]
        w = sample.weights = np.bincount(sample.row_cells, minlength=self.weights.size)
        sample.cell_x, sample.cell_y = self.cell_x, self.cell_y
        sample._inversions = self._inversions
        sample.x_weights = np.bincount(self.cell_x, w, self.x_weights.size).astype(np.int64)
        sample.y_weights = np.bincount(self.cell_y, w, self.y_weights.size).astype(np.int64)
        return sample

    @property
    def variances(self) -> tuple[float, float]:
        """kemeny_variance of x and of y: their non-tied pair fractions."""
        c = self.counts
        return (c.total - c.ties_x) / c.total, (c.total - c.ties_y) / c.total


def prepare_pair(x: PairLike, y: VectorLike | None = None) -> PreparedPair:
    """The PreparedPair of columns (x, y); a PreparedPair x, y left out,
    is returned as it is.  The one validation step of every pair estimator."""
    if isinstance(x, PreparedPair) and y is None:
        return x
    if isinstance(x, PreparedPair) or y is None:
        raise ValidationError("pass two columns x and y, or a PreparedPair alone")
    return PreparedPair(x, y)


def _pair_counts_quadratic(xv: np.ndarray, yv: np.ndarray) -> PairCounts:
    n = xv.size
    sx = (xv[:, None] > xv[None, :]).astype(np.int8) - (xv[:, None] < xv[None, :])
    sy = (yv[:, None] > yv[None, :]).astype(np.int8) - (yv[:, None] < yv[None, :])
    prod = sx.astype(np.int32) * sy
    concordant = int((prod > 0).sum()) // 2
    discordant = int((prod < 0).sum()) // 2
    ties_x = (int((sx == 0).sum()) - n) // 2
    ties_y = (int((sy == 0).sum()) - n) // 2
    ties_xy = (int(((sx == 0) & (sy == 0)).sum()) - n) // 2
    return PairCounts(n, concordant, discordant, ties_x, ties_y, ties_xy)


def pair_counts(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> PairCounts:
    """Exact concordant/discordant/tie tallies for the pair (x, y).

    x may be a PreparedPair, y then left out.  method: "auto" gives the
    pair's cached `counts` (by sign matrices up to n=100 if the pair is not
    yet collapsed to cells); "merge" counts over the cells (see the module
    docstring); "quadratic" is the O(n^2) sign-matrix oracle used in tests.
    """
    pair = prepare_pair(x, y)
    if method == "auto":
        return pair.counts
    if method == "merge":
        return pair._count()
    if method == "quadratic":
        return _pair_counts_quadratic(pair.x, pair.y)
    raise ValidationError(f"unknown pair-count method {method!r}")


def kemeny_distance(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> int:
    """Kemeny distance between two equal-length vectors.

    Exact integer in [0, n^2-n]; 0 iff the two orderings (with ties) agree,
    n^2-n for a full reversal.  Degenerate vectors are legal and sit at the
    midpoint (n^2-n)/2 from any tie-free vector.
    """
    c = pair_counts(x, y, method=method)
    return c.total + c.discordant - c.concordant


def centered_distance(x: PairLike, y: VectorLike | None = None,
                      method: str = "auto") -> CenteredDistance:
    """Kemeny distance minus its expectation (n^2-n)/2, as an exact integer."""
    c = pair_counts(x, y, method=method)
    return CenteredDistance(value=c.discordant - c.concordant, n=c.n)


def tau_kappa(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> float:
    """Kemeny tau correlation in [-1, 1].

    Affine rescaling of the centered distance; equals Kendall's tau on
    tie-free data.  Degenerate input gives 0.  tau_kappa(x, x) equals
    kemeny_variance(x), i.e. 1 exactly when x is tie-free.
    """
    c = pair_counts(x, y, method=method)
    return (c.concordant - c.discordant) / c.total


def kemeny_variance(x: VectorLike) -> float:
    """Per-variable concentration in [0, 1]: the non-tied pair fraction.

    1 iff tie-free, 0 iff constant.  Equals (2/(n(n-1))) * sum of squared
    kappa entries.
    """
    v = as_data_vector(x).values
    n0 = v.size * (v.size - 1) // 2
    return (n0 - _tied_pairs(np.unique(v, return_counts=True)[1])) / n0


def row_sum_vector(x: VectorLike, centered: bool = True) -> RankRowVector:
    """Row sums of the kappa matrix: sqrt(0.5) * (2*midrank - n - 1).

    Centered entries sum to 0.  With centered=False the minimum entry is
    subtracted so the vector is non-negative (the order-statistic form used
    for Beta fitting).
    """
    v = as_data_vector(x).values
    _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    entries = HALF_SQRT * (2.0 * _level_midranks(counts)[inverse] - v.size - 1)
    if not centered:
        entries = entries - entries.min()
    return RankRowVector(entries=entries, centered=centered)


def kemeny_rho(x: PairLike, y: VectorLike | None = None) -> float:
    """Product-moment correlation of the centered kappa row-sum vectors.

    The Spearman analogue on the Kemeny space: identical to mid-rank
    Spearman on any input and exactly classical Spearman when tie-free.
    Raises DegenerateInputError when either vector is constant (zero norm).
    """
    pair = prepare_pair(x, y)
    # the centered row sums, as row_sum_vector forms them
    a = HALF_SQRT * (2.0 * pair.x_midranks[pair.row_x] - pair.n - 1)
    b = HALF_SQRT * (2.0 * pair.y_midranks[pair.row_y] - pair.n - 1)
    na = float(np.dot(a, a))
    nb = float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("kemeny_rho is undefined for a constant vector")
    return float(np.dot(a, b) / math.sqrt(na * nb))


def sin_transform(tau: float) -> float:
    """sin(tau * pi/2); the duality map between the tau and rho scales."""
    if not -1.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [-1, 1], got {tau}")
    return math.sin(tau * math.pi / 2.0)
