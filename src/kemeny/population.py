"""Enumeration and sampling of the permutation-with-ties population.

The population for sample size n is every vector in {1..n}^n except the n
constant vectors, for n^n - n members in total.  Exhaustive mode counts the
centered distances of all M^2 ordered member pairs by weak order: a member's
ties and ranks fix every distance, and a weak order with k blocks stands for
C(n, k) members.  Permuting the positions of both members keeps the distance,
so x runs over the sorted weak orders only, the compositions a_1..a_k of n,
each also standing for its n!/prod(a_i!) permutations.  Monte Carlo mode
draws member pairs independently and uniformly (constants rejected) with
counter-based chunk seeding, so results are identical no matter how the
stream is partitioned across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ValidationError
from .moments import IntHistogram, MomentsSummary

DEFAULT_EXHAUSTIVE_CAP = 5
_HARD_EXHAUSTIVE_CAP = 6
_MC_CHUNK = 4096
#: most sign entries held at once: a chunk of m members is scored in blocks
#: of _MC_BLOCK // m position pairs, so memory stays bounded at any n
_MC_BLOCK = 1 << 20


@dataclass(frozen=True)
class PopulationSpec:
    """What to enumerate or sample: size n, mode, and (for MC) count + seed."""

    n: int
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int = 0
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"population requires n >= 2, got {self.n}")
        if self.mode not in ("exhaustive", "montecarlo"):
            raise ValidationError(f"unknown mode {self.mode!r}")
        if self.mode == "montecarlo" and self.sample_count < 1:
            raise ValidationError("montecarlo mode requires sample_count >= 1")
        if self.mode == "exhaustive":
            if self.exhaustive_cap > _HARD_EXHAUSTIVE_CAP:
                raise ValidationError(
                    f"exhaustive cap above n={_HARD_EXHAUSTIVE_CAP} is not supported"
                )
            if self.n > self.exhaustive_cap:
                raise ValidationError(
                    f"exhaustive enumeration capped at n={self.exhaustive_cap} "
                    f"(override the cap explicitly to go higher)"
                )


def population_cardinality(n: int) -> int:
    """n^n - n, exact."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return n**n - n


def cardinality_gap(n: int) -> int:
    """(n^n - n) - n!, exact; the tie-free orderings are a vanishing subset."""
    return population_cardinality(n) - math.factorial(n)


def population_variance_formula(n: int) -> float:
    """Closed-form population variance of centered distances at size n:
    (n-1)^2 (n+4) (2n-1) / (18n)."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    return (n - 1) ** 2 * (n + 4) * (2 * n - 1) / (18.0 * n)


def _member_matrix(n: int) -> np.ndarray:
    """All M = n^n - n population members as an (M, n) int array."""
    grids = np.meshgrid(*([np.arange(1, n + 1)] * n), indexing="ij")
    vecs = np.stack([g.ravel() for g in grids], axis=1)
    keep = ~np.all(vecs == vecs[:, :1], axis=1)
    return vecs[keep]


def enumerate_population(n: int, cap: int = DEFAULT_EXHAUSTIVE_CAP) -> Iterator[np.ndarray]:
    """Yield every non-constant vector in {1..n}^n; n^n - n in total."""
    PopulationSpec(n=n, mode="exhaustive", exhaustive_cap=cap)
    for row in _member_matrix(n):
        yield row


def _weak_orders(n: int) -> np.ndarray:
    """All Fubini(n) weak orders of n items as dense-rank int8 rows.  Each new
    item joins block j < k of a k-block row or opens a new block at j <= k."""
    rows = np.zeros((1, 1), dtype=np.int8)
    for m in range(1, n):
        blocks = rows.max(axis=1) + 1
        parts = []
        for j in range(m + 1):
            opened = rows[blocks >= j]
            for grown in (opened + (opened >= j), rows[blocks > j]):
                parts.append(np.column_stack([grown, np.full(len(grown), j, np.int8)]))
        rows = np.concatenate(parts)
    return rows


def _upper_signs(cols: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """sign(c_i - c_j) for the position pairs (i, j), i < j, one row per pair;
    ``cols`` holds one row per position and one column per member."""
    return np.sign(cols[i] - cols[j])


def _exhaustive_histogram(n: int) -> IntHistogram:
    # y runs over all non-constant weak orders, weighted C(n, k_y); x over the
    # sorted ones, weighted C(n, k_x) * n!/prod(a_i!); no member is enumerated
    half = n * (n - 1) // 2
    hist = IntHistogram(-half, half)
    ys = _weak_orders(n)
    blocks = ys.max(axis=1) + 1
    signs = _upper_signs(ys.T, *np.triu_indices(n, 1)).astype(np.int64)
    by_blocks = [(math.comb(n, k), signs[:, blocks == k]) for k in range(2, n + 1)]
    sorted_x = (np.diff(ys, axis=1) >= 0).all(axis=1) & (blocks > 1)
    for x, sx in zip(ys[sorted_x], signs[:, sorted_x].T):
        orbit = math.factorial(n) // math.prod(map(math.factorial, np.bincount(x)))
        x_members = orbit * math.comb(n, int(x[-1]) + 1)
        for y_members, sy in by_blocks:
            # half - sx @ sy is the bin of the distance -sum_{i<j} sx * sy
            bins = np.bincount(half - sx @ sy, minlength=2 * half + 1)
            hist.counts += x_members * y_members * bins
    assert hist.total == (n**n - n) ** 2
    return hist


def _sample_members(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the population via rejection of constant vectors."""
    out = np.empty((count, n), dtype=np.int64)
    filled = 0
    while filled < count:
        draw = rng.integers(1, n + 1, size=(count - filled, n))
        keep = ~np.all(draw == draw[:, :1], axis=1)
        kept = draw[keep]
        out[filled : filled + kept.shape[0]] = kept
        filled += kept.shape[0]
    return out


def _montecarlo_histogram(spec: PopulationSpec) -> IntHistogram:
    n = spec.n
    half = n * (n - 1) // 2
    hist = IntHistogram(-half, half)
    n_chunks = -(-spec.sample_count // _MC_CHUNK)
    # smallest dtype holding members in [1, n] and differences in [1-n, n-1]
    small = np.min_scalar_type(-n - 1)
    i, j = np.triu_indices(n, 1)
    for chunk in range(n_chunks):
        take = min(_MC_CHUNK, spec.sample_count - chunk * _MC_CHUNK)
        # fixed-size chunks with spawn-key seeding: worker-count independent
        rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(chunk,)))
        # one row per position, one column per member
        xs = _sample_members(n, take, rng).T.astype(small, order="C")
        ys = _sample_members(n, take, rng).T.astype(small, order="C")
        dist = np.zeros(take, dtype=np.int64)
        width = max(1, _MC_BLOCK // take)
        for lo in range(0, half, width):
            pi, pj = i[lo : lo + width], j[lo : lo + width]
            sx = _upper_signs(xs, pi, pj)
            sx *= _upper_signs(ys, pi, pj)
            dist -= sx.sum(axis=0, dtype=np.int64)
        hist.update(dist)
    return hist


def distance_histogram(spec: PopulationSpec) -> IntHistogram:
    """Exact histogram of centered distances over ordered member pairs."""
    if spec.mode == "exhaustive":
        return _exhaustive_histogram(spec.n)
    return _montecarlo_histogram(spec)


def distance_distribution_moments(spec: PopulationSpec) -> MomentsSummary:
    """Moment summary of centered distances under the given spec.

    Exhaustive mode covers all (n^n - n)^2 ordered pairs and reports
    population (ddof=0) moments; Monte Carlo reports sample (ddof=1)
    moments over sample_count independent pairs.
    """
    hist = distance_histogram(spec)
    return hist.summary(population=(spec.mode == "exhaustive"))


@dataclass(frozen=True)
class Table1Row:
    """One comparison row: closed-form sd next to the empirical summary."""

    n: int
    formula_sd: float
    empirical_mean: float
    empirical_sd: float
    ratio: float
    flagged: bool
    skew: float
    excess_kurtosis: float
    sample_count: int
    mode: str

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "formula_sd": self.formula_sd,
            "empirical_mean": self.empirical_mean,
            "empirical_sd": self.empirical_sd,
            "ratio": self.ratio,
            "flagged": self.flagged,
            "skew": self.skew,
            "excess_kurtosis": self.excess_kurtosis,
            "sample_count": self.sample_count,
            "mode": self.mode,
        }


def table1_report(
    n_list: Sequence[int],
    sample_count: int = 100_000,
    seed: int = 0,
    exhaustive_cap: int = DEFAULT_EXHAUSTIVE_CAP,
    flag_threshold: float = 0.05,
) -> list[Table1Row]:
    """Compare the closed-form sd against empirical moments for each n.

    This is a report, not an assertion: the two columns are NOT expected to
    agree in general (the empirical ordered-pair sd differs from the closed
    form; rows whose relative gap exceeds flag_threshold are flagged).
    Sizes within the exhaustive cap are enumerated; larger ones sampled.
    """
    rows = []
    for n in n_list:
        if n <= exhaustive_cap:
            spec = PopulationSpec(n=n, mode="exhaustive", exhaustive_cap=exhaustive_cap)
        else:
            spec = PopulationSpec(n=n, mode="montecarlo", sample_count=sample_count, seed=seed)
        summ = distance_distribution_moments(spec)
        formula_sd = math.sqrt(population_variance_formula(n))
        ratio = summ.sd / formula_sd if formula_sd else math.nan
        rows.append(
            Table1Row(
                n=n,
                formula_sd=formula_sd,
                empirical_mean=summ.mean,
                empirical_sd=summ.sd,
                ratio=ratio,
                flagged=abs(summ.sd - formula_sd) / formula_sd > flag_threshold,
                skew=summ.skewness,
                excess_kurtosis=summ.excess_kurtosis,
                sample_count=summ.count,
                mode=spec.mode,
            )
        )
    return rows
