"""Moment summaries and the accumulators behind them.

Two accumulation strategies coexist:

* ``IntHistogram`` -- exact counting over a bounded integer support.  The
  population of centered Kemeny distances is integer and bounded, so its
  mean/skewness are exact (a symmetric population really reports 0.0, not
  1e-13) and median/mad come straight off the counts.  Merging histograms
  is plain addition, so any parallel split of a stream reduces identically.
* ``MomentAccumulator`` -- single-pass central-moment updates (through the
  fourth moment) with a pairwise merge, for float streams that cannot be
  binned.  The merge is associative up to rounding.

``summarize`` computes the nine-column summary of an in-memory sample; the
bootstrap harness feeds it replicate statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ValidationError

#: median-absolute-deviation scaling for consistency with the normal sd
MAD_SCALE = 1.4826


@dataclass(frozen=True)
class MomentsSummary:
    """Nine-column distribution summary of a sample of statistics.

    skewness and excess_kurtosis are the standardized central moments
    (excess = mu4/sigma^4 - 3).  When the sample has zero spread they are
    undefined and reported as 0.0 with spread_degenerate set.
    """

    count: int
    mean: float
    sd: float
    median: float
    mad: float
    min: float
    max: float
    range: float
    skewness: float
    excess_kurtosis: float
    spread_degenerate: bool = field(default=False)

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "mean": self.mean,
            "sd": self.sd,
            "median": self.median,
            "mad": self.mad,
            "min": self.min,
            "max": self.max,
            "range": self.range,
            "skewness": self.skewness,
            "excess_kurtosis": self.excess_kurtosis,
            "spread_degenerate": self.spread_degenerate,
        }


def summarize(samples, ddof: int = 1) -> MomentsSummary:
    """Nine-column summary of an in-memory sample (ddof=1 sd by default).

    mad is the median absolute deviation scaled by 1.4826.  A constant
    sample reports sd/mad/skewness/kurtosis of 0 with the degenerate flag.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size == 0:
        raise ValidationError("cannot summarize an empty sample")
    count = int(arr.size)
    mn = float(arr.min())
    mx = float(arr.max())
    if mn == mx:
        return MomentsSummary(
            count=count, mean=mn, sd=0.0, median=mn, mad=0.0, min=mn, max=mx,
            range=0.0, skewness=0.0, excess_kurtosis=0.0, spread_degenerate=True,
        )
    mean = float(arr.mean())
    med = float(np.median(arr))
    mad = MAD_SCALE * float(np.median(np.abs(arr - med)))
    centered = arr - mean
    m2 = float((centered**2).mean())
    if m2 == 0.0 or (count <= ddof):
        return MomentsSummary(
            count=count, mean=mean, sd=0.0, median=med, mad=mad, min=mn, max=mx,
            range=mx - mn, skewness=0.0, excess_kurtosis=0.0, spread_degenerate=True,
        )
    sd = math.sqrt(float((centered**2).sum()) / (count - ddof))
    skew = float((centered**3).mean()) / m2**1.5
    exkurt = float((centered**4).mean()) / m2**2 - 3.0
    return MomentsSummary(
        count=count, mean=mean, sd=sd, median=med, mad=mad, min=mn, max=mx,
        range=mx - mn, skewness=skew, excess_kurtosis=exkurt,
    )


class IntHistogram:
    """Exact counts over the integer support [lo, hi]; mergeable and streaming."""

    __slots__ = ("lo", "hi", "counts")

    def __init__(self, lo: int, hi: int):
        if hi < lo:
            raise ValidationError(f"empty support [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        self.counts = np.zeros(hi - lo + 1, dtype=np.int64)

    def update(self, values: np.ndarray) -> None:
        v = np.asarray(values)
        if v.size == 0:
            return
        if v.min() < self.lo or v.max() > self.hi:
            raise ValidationError("value outside histogram support")
        self.counts += np.bincount(
            (v.astype(np.int64) - self.lo).ravel(), minlength=self.counts.size
        )

    def merge(self, other: "IntHistogram") -> None:
        if (other.lo, other.hi) != (self.lo, self.hi):
            raise ValidationError("cannot merge histograms with different supports")
        self.counts += other.counts

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def _quantile_value(self, counts: np.ndarray, lo: int) -> float:
        """Median over a count vector: average of the two middle order stats."""
        total = int(counts.sum())
        cum = np.cumsum(counts)
        k_low = (total + 1) // 2
        k_high = total // 2 + 1
        v_low = lo + int(np.searchsorted(cum, k_low))
        v_high = lo + int(np.searchsorted(cum, k_high))
        return (v_low + v_high) / 2.0

    def summary(self, population: bool = True) -> MomentsSummary:
        """Exact nine-column summary of the counted values.

        Moment sums are exact integer/rational arithmetic, so a symmetric
        population reports mean and skewness of exactly 0.  population=True
        uses ddof=0 (the counts ARE the population); otherwise ddof=1.
        """
        total = self.total
        if total == 0:
            raise ValidationError("histogram is empty")
        nz = np.flatnonzero(self.counts)
        # integer power sums S1..S4; the central sums follow exactly, e.g.
        # sum c*(v - S1/T)^2 = (T*S2 - S1^2)/T, one Fraction per moment
        s1 = s2 = s3 = s4 = 0
        for c, v in zip(self.counts[nz].tolist(), (self.lo + nz).tolist()):
            cv = c * v
            s1 += cv
            s2 += cv * v
            s3 += cv * v * v
            s4 += cv * v * v * v
        t = total
        mean = Fraction(s1, t)
        m2 = Fraction(t * s2 - s1**2, t)
        m3 = Fraction(t**2 * s3 - 3 * t * s1 * s2 + 2 * s1**3, t**2)
        m4 = Fraction(
            t**3 * s4 - 4 * t**2 * s1 * s3 + 6 * t * s1**2 * s2 - 3 * s1**4, t**3
        )
        mu2 = m2 / total
        mn = float(self.lo + nz[0])
        mx = float(self.lo + nz[-1])
        med = self._quantile_value(self.counts[nz[0] : nz[-1] + 1], self.lo + int(nz[0]))
        # histogram of |v - median|: dev support is integers or half-integers;
        # doubling keeps it integral
        med2 = int(round(2 * med))
        dev2 = np.abs(2 * (self.lo + nz) - med2)
        dev_hist = np.zeros(int(dev2.max()) + 1, dtype=np.int64)
        np.add.at(dev_hist, dev2.astype(np.int64), self.counts[nz])
        mad = MAD_SCALE * self._quantile_value(dev_hist, 0) / 2.0
        if mu2 == 0:
            return MomentsSummary(
                count=total, mean=float(mean), sd=0.0, median=med, mad=mad,
                min=mn, max=mx, range=mx - mn, skewness=0.0, excess_kurtosis=0.0,
                spread_degenerate=True,
            )
        denom = total if population else total - 1
        sd = math.sqrt(float(m2 / denom))
        # m3 is an exact rational: a symmetric population reports exactly 0
        skew = 0.0 if m3 == 0 else float(m3 / total) / float(mu2) ** 1.5
        exkurt = float((m4 / total) / (mu2 * mu2)) - 3.0
        return MomentsSummary(
            count=total, mean=float(mean), sd=sd, median=med, mad=mad,
            min=mn, max=mx, range=mx - mn, skewness=skew, excess_kurtosis=exkurt,
        )


class MomentAccumulator:
    """One-pass central moments through order four, with pairwise merge.

    Update formulas follow the standard single-pass scheme; merge combines
    two accumulators exactly as if their streams were concatenated (up to
    float rounding), so reduction order does not matter materially.
    """

    __slots__ = ("count", "mean", "m2", "m3", "m4", "min", "max")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.m3 = 0.0
        self.m4 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def update(self, values) -> None:
        for val in np.asarray(values, dtype=float).ravel():
            self._add(float(val))

    def _add(self, x: float) -> None:
        n1 = self.count
        self.count = n = n1 + 1
        delta = x - self.mean
        delta_n = delta / n
        delta_n2 = delta_n * delta_n
        term1 = delta * delta_n * n1
        self.mean += delta_n
        self.m4 += (
            term1 * delta_n2 * (n * n - 3 * n + 3)
            + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3
        )
        self.m3 += term1 * delta_n * (n - 2) - 3.0 * delta_n * self.m2
        self.m2 += term1
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def merge(self, other: "MomentAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            for name in self.__slots__:
                setattr(self, name, getattr(other, name))
            return
        na, nb = self.count, other.count
        n = na + nb
        delta = other.mean - self.mean
        delta2 = delta * delta
        delta3 = delta2 * delta
        delta4 = delta2 * delta2
        mean = self.mean + delta * nb / n
        m2 = self.m2 + other.m2 + delta2 * na * nb / n
        m3 = (
            self.m3 + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n
        )
        m4 = (
            self.m4 + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n**3)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n
        )
        self.count, self.mean, self.m2, self.m3, self.m4 = n, mean, m2, m3, m4
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def variance(self) -> float:
        """Population (ddof=0) variance."""
        return self.m2 / self.count if self.count else 0.0

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    @property
    def skewness(self) -> float:
        if self.m2 == 0.0:
            return 0.0
        return math.sqrt(self.count) * self.m3 / self.m2**1.5

    @property
    def excess_kurtosis(self) -> float:
        if self.m2 == 0.0:
            return 0.0
        return self.count * self.m4 / (self.m2 * self.m2) - 3.0
