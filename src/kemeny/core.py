"""Pairwise-comparison core: the kappa map and every quantity built on it.

A data vector over the extended reals is scored pair by pair into a
skew-symmetric sign pattern (scaled by sqrt(0.5)).  Everything else in the
package -- the distance between two vectors, its centered form, the tau
correlation, the per-variable concentration, rank row sums, and the
Spearman-analogue rho -- is an affine function of the concordant /
discordant / tied pair counts, so all distances are computed in exact
integer arithmetic and only scaled to floats at the boundary.

Two pair-counting routines are provided: an O(n^2) sign-matrix reference
(`method="quadratic"`), which is the oracle, and the default for large n
(`method="merge"`): dense-rank both columns, collapse the rows into their m
distinct (x, y) cells weighted by multiplicity, and count discordant pairs
as weighted inversions of the cells' ranks, one stable-sort pass per bit
(after Knight 1966, JASA 61:436).  It costs O(n log n) for the ranking plus
O(m log k) for the count, k the smaller number of distinct values.
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


def _check_pair(x: VectorLike, y: VectorLike) -> tuple[np.ndarray, np.ndarray]:
    xv = as_data_vector(x).values
    yv = as_data_vector(y).values
    if xv.size != yv.size:
        raise LengthMismatchError(f"length mismatch: {xv.size} vs {yv.size}")
    return xv, yv


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
    return int((sizes * (sizes - 1) // 2).sum())


def _pair_tie_count(a: np.ndarray) -> int:
    return _tied_pairs(np.unique(a, return_counts=True)[1])


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


def _pair_counts_merge(xv: np.ndarray, yv: np.ndarray) -> PairCounts:
    n = xv.size
    n0 = n * (n - 1) // 2
    _, rx, cx = np.unique(xv, return_inverse=True, return_counts=True)
    _, ry, cy = np.unique(yv, return_inverse=True, return_counts=True)
    ties_x, ties_y = _tied_pairs(cx), _tied_pairs(cy)
    # discordance is symmetric in x and y: put the column with fewer levels
    # in the low digit so the inversion count takes fewer bit passes
    ra, rb, kb = (rx, ry, cy.size) if cy.size <= cx.size else (ry, rx, cx.size)
    # the distinct (a, b) cells in (a, b) order, weighted by multiplicity;
    # a discordant pair is a b-inversion between cells of different a
    cells, w = np.unique(ra * kb + rb, return_counts=True)
    discordant = _count_inversions(cells % kb, w)
    ties_xy = _tied_pairs(w)
    concordant = n0 - ties_x - ties_y + ties_xy - discordant
    return PairCounts(n, concordant, discordant, ties_x, ties_y, ties_xy)


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


def pair_counts(x: VectorLike, y: VectorLike, method: str = "auto") -> PairCounts:
    """Exact concordant/discordant/tie tallies for the pair (x, y).

    method: "auto" picks quadratic up to n=100, merge above; "quadratic" is
    the O(n^2) reference used as the oracle in tests; "merge" is the
    O(n log n) production path, counting over the distinct (x, y) cells,
    so tied data costs O(m log k) after ranking (see the module docstring).
    """
    xv, yv = _check_pair(x, y)
    if method == "auto":
        method = "quadratic" if xv.size <= _MERGE_CUTOFF else "merge"
    if method == "merge":
        return _pair_counts_merge(xv, yv)
    if method == "quadratic":
        return _pair_counts_quadratic(xv, yv)
    raise ValidationError(f"unknown pair-count method {method!r}")


def kemeny_distance(x: VectorLike, y: VectorLike, method: str = "auto") -> int:
    """Kemeny distance between two equal-length vectors.

    Exact integer in [0, n^2-n]; 0 iff the two orderings (with ties) agree,
    n^2-n for a full reversal.  Degenerate vectors are legal and sit at the
    midpoint (n^2-n)/2 from any tie-free vector.
    """
    c = pair_counts(x, y, method=method)
    return c.total + c.discordant - c.concordant


def centered_distance(x: VectorLike, y: VectorLike, method: str = "auto") -> CenteredDistance:
    """Kemeny distance minus its expectation (n^2-n)/2, as an exact integer."""
    c = pair_counts(x, y, method=method)
    return CenteredDistance(value=c.discordant - c.concordant, n=c.n)


def tau_kappa(x: VectorLike, y: VectorLike, method: str = "auto") -> float:
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
    n = v.size
    n0 = n * (n - 1) // 2
    return (n0 - _pair_tie_count(v)) / n0


def _midranks(v: np.ndarray) -> np.ndarray:
    uniq, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    mid = (upper - counts + 1 + upper) / 2.0
    return mid[inverse]


def row_sum_vector(x: VectorLike, centered: bool = True) -> RankRowVector:
    """Row sums of the kappa matrix: sqrt(0.5) * (2*midrank - n - 1).

    Centered entries sum to 0.  With centered=False the minimum entry is
    subtracted so the vector is non-negative (the order-statistic form used
    for Beta fitting).
    """
    v = as_data_vector(x).values
    n = v.size
    entries = HALF_SQRT * (2.0 * _midranks(v) - n - 1)
    if not centered:
        entries = entries - entries.min()
    return RankRowVector(entries=entries, centered=centered)


def kemeny_rho(x: VectorLike, y: VectorLike) -> float:
    """Product-moment correlation of the centered kappa row-sum vectors.

    The Spearman analogue on the Kemeny space: identical to mid-rank
    Spearman on any input and exactly classical Spearman when tie-free.
    Raises DegenerateInputError when either vector is constant (zero norm).
    """
    xv, yv = _check_pair(x, y)
    a = row_sum_vector(xv).entries
    b = row_sum_vector(yv).entries
    na = float(np.dot(a, a))
    nb = float(np.dot(b, b))
    if na == 0.0 or nb == 0.0:
        raise DegenerateInputError("kemeny_rho is undefined for a constant vector")
    return float(np.dot(a, b) / math.sqrt(na * nb))


def rho_rowsum_diagnostic(x: VectorLike, y: VectorLike) -> float:
    """Diagnostic variant of kemeny_rho with raw non-negative row sums.

    Uses the min-subtracted (uncentered) row sums and a 1/(2(n-1))-scaled
    norm instead of centering; NOT a bounded correlation and can leave
    [-1, 1].  Exposed for comparison only; use kemeny_rho for inference.
    """
    xv, yv = _check_pair(x, y)
    n = xv.size
    a = row_sum_vector(xv, centered=False).entries
    b = row_sum_vector(yv, centered=False).entries
    # sum of squared kappa entries is 0.5 per non-tied ordered pair
    n0 = n * (n - 1) // 2
    sig_x = (n0 - _pair_tie_count(xv)) / (2 * (n - 1))
    sig_y = (n0 - _pair_tie_count(yv)) / (2 * (n - 1))
    if sig_x == 0.0 or sig_y == 0.0:
        raise DegenerateInputError("diagnostic undefined for a constant vector")
    return float((a * b).sum() / ((n - 1) * math.sqrt(sig_x * sig_y)))


def sin_transform(tau: float) -> float:
    """sin(tau * pi/2); the duality map between the tau and rho scales."""
    if not -1.0 <= tau <= 1.0:
        raise ValidationError(f"tau must lie in [-1, 1], got {tau}")
    return math.sin(tau * math.pi / 2.0)
