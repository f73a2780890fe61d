"""Classical estimators the Kemeny family is compared against.

Kendall tau-a/tau-b share the exact pair-count machinery from core (merge
counting with the quadratic oracle in tests); Spearman uses mid-ranks;
Pearson is the plain product-moment and rejects infinities.  The rank-sum
test follows the R convention: W is the U statistic of the group with the
smaller label, normal approximation with tie correction and a 0.5
continuity correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PairLike, PreparedPair, VectorLike, pair_counts, prepare_pair
from .errors import DegenerateInputError, ValidationError
from .special import std_normal_cdf, std_normal_sf


def _spread_pair(x: PairLike, y: VectorLike | None) -> PreparedPair:
    pair = prepare_pair(x, y)
    if pair.degenerate:
        raise DegenerateInputError("degenerate input vector")
    return pair


def kendall_tau_a(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> float:
    """Kendall tau-a: (C - D) / (n(n-1)/2), ties diluting the numerator."""
    c = pair_counts(_spread_pair(x, y), method=method)
    return (c.concordant - c.discordant) / c.total


def kendall_tau_b(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> float:
    """Tie-corrected Kendall tau-b: (C - D) / sqrt((n0 - Tx)(n0 - Ty))."""
    c = pair_counts(_spread_pair(x, y), method=method)
    denom = math.sqrt((c.total - c.ties_x) * (c.total - c.ties_y))
    return (c.concordant - c.discordant) / denom


def kendall_distance(x: PairLike, y: VectorLike | None = None, method: str = "auto") -> int:
    """Kendall discordance count (number of discordant unordered pairs)."""
    return pair_counts(_spread_pair(x, y), method=method).discordant


def spearman_rho(x: PairLike, y: VectorLike | None = None) -> float:
    """Spearman's rho with mid-ranks for ties, summed over the weighted
    cells (exact, see PreparedPair)."""
    pair = _spread_pair(x, y)
    # centered on the mean mid-rank, (n + 1) / 2; both columns vary
    rx = pair.x_midranks - (pair.n + 1) / 2
    ry = pair.y_midranks - (pair.n + 1) / 2
    sxy = float(pair.weights @ (rx[pair.cell_x] * ry[pair.cell_y]))
    return sxy / math.sqrt(float(pair.x_weights @ (rx * rx)) * float(pair.y_weights @ (ry * ry)))


def pearson_r(x: PairLike, y: VectorLike | None = None) -> float:
    """Pearson product-moment correlation; undefined (rejected) for infinities.

    Summed over the rows in their order (a resampled pair's draw order).
    """
    pair = _spread_pair(x, y)
    xv, yv = pair.x, pair.y
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise ValidationError("Pearson correlation requires finite entries")
    a = xv - xv.mean()
    b = yv - yv.mean()
    denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    if denom == 0.0:
        raise DegenerateInputError("zero variance input")
    return float(np.dot(a, b) / denom)


def pearson_t(x: PairLike, y: VectorLike | None = None) -> float:
    """The t statistic of the Pearson correlation, r sqrt((n-2)/(1-r^2)).

    Needs n >= 3: at n = 2 there are no degrees of freedom.
    """
    pair = prepare_pair(x, y)
    r = pearson_r(pair)
    n = pair.n
    if n < 3:
        raise DegenerateInputError(f"pearson_t needs n >= 3 for n - 2 df, got n={n}")
    if r >= 1.0 or r <= -1.0:
        return math.copysign(math.inf, r)
    return r * math.sqrt((n - 2) / (1.0 - r * r))


@dataclass(frozen=True)
class RankSumResult:
    """Rank-sum test outcome: the W statistic, its z, and the two-sided p."""

    W: float
    z: float
    p: float
    n1: int
    n2: int

    def as_dict(self) -> dict:
        return {"W": self.W, "z": self.z, "p": self.p, "n1": self.n1, "n2": self.n2}


def _group_rank_sums(pair: PreparedPair) -> tuple[list[int], list[float]]:
    """Sizes and outcome mid-rank sums of the two groups of a binary x,
    smaller label first."""
    labels = np.flatnonzero(pair.x_weights)
    if labels.size != 2:
        raise ValidationError(f"group must be binary, got {labels.size} levels")
    sums = np.bincount(pair.cell_x, pair.weights * pair.y_midranks[pair.cell_y])
    return pair.x_weights[labels].tolist(), sums[labels].tolist()


def wilcoxon_rank_sum(group: PairLike, outcome: VectorLike | None = None) -> RankSumResult:
    """Two-sample rank-sum with tie correction and continuity correction.

    W is the Mann-Whitney U of the smaller-labelled group (rank sum minus
    n1(n1+1)/2); reversing the labels maps W to n1*n2 - W.  p is two-sided
    from the normal approximation.
    """
    pair = prepare_pair(group, outcome)
    (n1, n2), (r1, _) = _group_rank_sums(pair)
    n = n1 + n2
    w = r1 - n1 * (n1 + 1) / 2.0
    counts = pair.y_weights[pair.y_weights > 0]
    tie_term = float((counts.astype(float) ** 3 - counts).sum())
    sigma2 = (n1 * n2 / 12.0) * ((n + 1) - tie_term / (n * (n - 1)))
    if sigma2 <= 0.0:
        raise DegenerateInputError("outcome is constant: rank-sum variance is zero")
    shift = w - n1 * n2 / 2.0
    correction = 0.5 * math.copysign(1.0, shift) if shift != 0.0 else 0.0
    z = (shift - correction) / math.sqrt(sigma2)
    p = 2.0 * min(std_normal_cdf(z), std_normal_sf(z))
    return RankSumResult(W=w, z=z, p=min(1.0, p), n1=n1, n2=n2)


def effect_sizes(group: PairLike, outcome: VectorLike | None = None) -> dict:
    """Common rank-sum-derived effects: wilcox_r = z / sqrt(n) and glass_r,
    the rank-biserial 2(mean rank_1 - mean rank_2)/n.  Definitions are the
    conventional ones and are report-only."""
    pair = prepare_pair(group, outcome)
    res = wilcoxon_rank_sum(pair)
    (n1, n2), (r1, r2) = _group_rank_sums(pair)
    return {
        "wilcox_r": res.z / math.sqrt(pair.n),
        "glass_r": 2.0 * (r1 / n1 - r2 / n2) / pair.n,
    }


def kendall_z(x: PairLike, y: VectorLike | None = None, tie_corrected: bool = True) -> float:
    """Normal-approximation z for Kendall's statistic S = C - D.

    tie_corrected=True (default) uses the full tie-adjusted null variance
    (the cor.test/kendalltau form), which is what reproduces the published
    comparison tables; False uses the tie-free asymptotic variance
    n(n-1)(2n+5)/18, under which the z collapses onto the Kemeny z scale.
    """
    pair = _spread_pair(x, y)
    c = pair_counts(pair)
    s = c.concordant - c.discordant
    n = c.n
    if not tie_corrected:
        return s / math.sqrt(n * (n - 1) * (2 * n + 5) / 18.0)
    tx = pair.x_weights[pair.x_weights > 0].astype(float)
    ty = pair.y_weights[pair.y_weights > 0].astype(float)
    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((tx * (tx - 1) * (2 * tx + 5)).sum())
    vu = float((ty * (ty - 1) * (2 * ty + 5)).sum())
    v1 = float((tx * (tx - 1)).sum()) * float((ty * (ty - 1)).sum()) / (
        2.0 * n * (n - 1)
    )
    # no tie group has three members below n = 3, where the divisor is 0
    v2 = 0.0 if n < 3 else (
        float((tx * (tx - 1) * (tx - 2)).sum())
        * float((ty * (ty - 1) * (ty - 2)).sum())
        / (9.0 * n * (n - 1) * (n - 2))
    )
    var = (v0 - vt - vu) / 18.0 + v1 + v2
    if var <= 0.0:
        raise DegenerateInputError("tie structure leaves no rank variance")
    return s / math.sqrt(var)
