"""Independent reference computations for the benchmark's output checks.

Nothing here imports the package.  Each function is written from the
definition of the quantity it checks, with a different algorithm from the
package's where one exists:

* bootstrap replicates on sleep are scored from the multinomial count
  vector over the 20 source rows (a 20 x 20 concordance matrix), not from
  the 750 resampled rows;
* ordinal Welch replicates are scored from the 5 x 5 contingency table;
* Monte Carlo population rows take signs of differences where the
  package compares, and halve by division where it shifts;
* large-n pair counts use a bottom-up merge counter over dense ranks.

The random draws are reproduced from the package's documented seeding
contracts (per-replicate and per-chunk ``SeedSequence(seed, spawn_key)``),
so a change that alters which rows a fixed seed draws is reported as an
output change.

Tolerance: integers, booleans and strings must match exactly; floats must
agree to ``RTOL`` relative with an ``ATOL`` absolute floor.
"""

from __future__ import annotations

import math
import numbers
from statistics import NormalDist

import numpy as np

RTOL = 1e-9
ATOL = 1e-12
MAD_SCALE = 1.4826
MC_CHUNK = 4096


# --------------------------------------------------------------------------
# comparison


def mismatches(expected, actual, path: str = "$") -> list[str]:
    """Every difference between two plain structures, one line each."""
    out: list[str] = []
    _diff(expected, actual, path, out)
    return out


def _diff(e, a, path, out):
    if isinstance(e, dict) and isinstance(a, dict):
        if set(e) != set(a):
            out.append(f"{path}: keys {sorted(e)} != {sorted(a)}")
            return
        for key in e:
            _diff(e[key], a[key], f"{path}.{key}", out)
    elif isinstance(e, (list, tuple)) and isinstance(a, (list, tuple)):
        if len(e) != len(a):
            out.append(f"{path}: length {len(e)} != {len(a)}")
            return
        for i, (x, y) in enumerate(zip(e, a)):
            _diff(x, y, f"{path}[{i}]", out)
    elif isinstance(e, bool) or isinstance(a, bool):
        if e is not a and not (isinstance(e, bool) and isinstance(a, bool) and e == a):
            out.append(f"{path}: {e!r} != {a!r}")
    elif isinstance(e, numbers.Integral) and isinstance(a, numbers.Integral):
        if int(e) != int(a):
            out.append(f"{path}: {int(e)} != {int(a)} (exact)")
    elif isinstance(e, numbers.Real) and isinstance(a, numbers.Real):
        if not close(float(e), float(a)):
            out.append(f"{path}: {float(e)!r} != {float(a)!r} (rtol {RTOL})")
    elif e != a:
        out.append(f"{path}: {e!r} != {a!r}")


def close(e: float, a: float) -> bool:
    if math.isnan(e) or math.isnan(a):
        return math.isnan(e) and math.isnan(a)
    if e == a:
        return True
    return abs(e - a) <= ATOL + RTOL * max(abs(e), abs(a))


def summary(values, ddof: int = 1) -> dict:
    """Nine-column summary: sd with ddof, skewness and excess kurtosis from
    population central moments, mad as 1.4826 * median |v - median|."""
    v = np.asarray(values, dtype=float)
    count, lo, hi = int(v.size), float(v.min()), float(v.max())
    if lo == hi:
        return dict(count=count, mean=lo, sd=0.0, median=lo, mad=0.0, min=lo,
                    max=hi, range=0.0, skewness=0.0, excess_kurtosis=0.0,
                    spread_degenerate=True)
    med = float(np.median(v))
    c = v - v.mean()
    m2 = float(np.mean(c * c))
    return dict(
        count=count,
        mean=float(v.mean()),
        sd=math.sqrt(float(np.sum(c * c)) / (count - ddof)),
        median=med,
        mad=MAD_SCALE * float(np.median(np.abs(v - med))),
        min=lo,
        max=hi,
        range=hi - lo,
        skewness=float(np.mean(c**3)) / m2**1.5,
        excess_kurtosis=float(np.mean(c**4)) / (m2 * m2) - 3.0,
        spread_degenerate=False,
    )


# --------------------------------------------------------------------------
# closed forms shared by several checks


def population_variance(n: int) -> float:
    """(n-1)^2 (n+4) (2n-1) / (18 n)."""
    return (n - 1) ** 2 * (n + 4) * (2 * n - 1) / (18.0 * n)


def pairs(counts) -> int:
    """Number of unordered pairs inside groups of the given sizes."""
    c = np.asarray(counts, dtype=np.int64)
    return int((c * (c - 1) // 2).sum())


def welch_t(s: int, n: int, ties_x: int, ties_y: int) -> float:
    """Kemeny Welch t from S = C - D and the marginal tied-pair counts."""
    n0 = n * (n - 1) // 2
    var_x = (n0 - ties_x) / n0
    var_y = (n0 - ties_y) / n0
    s_p = math.sqrt(population_variance(n) / (var_x + var_y))
    return s / s_p


def kendall_z(s: int, n: int, tx, ty) -> float:
    """Tie-corrected normal z of Kendall's S; tx, ty are all group sizes."""
    tx = np.asarray(tx, dtype=float)
    ty = np.asarray(ty, dtype=float)
    v0 = n * (n - 1) * (2 * n + 5)
    vt = float((tx * (tx - 1) * (2 * tx + 5)).sum())
    vu = float((ty * (ty - 1) * (2 * ty + 5)).sum())
    v1 = float((tx * (tx - 1)).sum()) * float((ty * (ty - 1)).sum()) / (2.0 * n * (n - 1))
    v2 = (float((tx * (tx - 1) * (tx - 2)).sum()) * float((ty * (ty - 1) * (ty - 2)).sum())
          / (9.0 * n * (n - 1) * (n - 2)))
    return s / math.sqrt((v0 - vt - vu) / 18.0 + v1 + v2)


# --------------------------------------------------------------------------
# bootstrap on sleep: weighted scoring over the source rows

def _weighted_midranks(keys: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mid-rank of each source row's value in the weighted resample."""
    uniq, inv = np.unique(keys, return_inverse=True)
    size = np.bincount(inv, weights=w, minlength=uniq.size)
    below = np.cumsum(size) - size
    return (below + (size + 1) / 2.0)[inv]


def _weighted_corr(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> float:
    n = w.sum()
    da = a - (w * a).sum() / n
    db = b - (w * b).sum() / n
    return float((w * da * db).sum() / math.sqrt((w * da * da).sum() * (w * db * db).sum()))


def sleep_replicate(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> dict:
    """All eight statistics of one resample given by row multiplicities w."""
    n = int(w.sum())
    n0 = n * (n - 1) // 2
    concord = np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :])
    wi = w.astype(np.int64)
    s = int(wi @ concord.astype(np.int64) @ wi) // 2
    _, xk = np.unique(x, return_inverse=True)
    _, yk = np.unique(y, return_inverse=True)
    gx = np.bincount(xk, weights=wi).astype(np.int64)
    gy = np.bincount(yk, weights=wi).astype(np.int64)
    tau = s / n0
    rx = _weighted_midranks(x, w)
    ry = _weighted_midranks(y, w)
    group1 = x == x.min()
    n1 = int(w[group1].sum())
    r1 = float((w * ry)[group1].sum())
    return {
        "tau_kappa": tau,
        "sin_tau_kappa": math.sin(tau * math.pi / 2.0),
        "kemeny_z": s / math.sqrt(population_variance(n)),
        "wilcoxon_w": r1 - n1 * (n1 + 1) / 2.0,
        "kendall_z": kendall_z(s, n, gx[gx > 0], gy[gy > 0]),
        "spearman_rho": _weighted_corr(rx, ry, w),
        "pearson_r": _weighted_corr(x, y, w),
        "kemeny_t_welch": welch_t(s, n, pairs(gx), pairs(gy)),
    }


def sleep_harness_report(x, y, seed: int, replicates: int, size: int,
                         tags, dataset: str) -> dict:
    """The expected ``HarnessReport.as_dict()`` of a resampling run."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = {tag: [] for tag in tags}
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        w = np.bincount(rng.integers(0, x.size, size=size), minlength=x.size).astype(float)
        stats_ = sleep_replicate(x, y, w)
        for tag in tags:
            values[tag].append(stats_[tag])
    return {
        "replicates": replicates,
        "resample_size": size,
        "seed": seed,
        "dataset": dataset,
        "fixed_sample": False,
        "methods": {
            tag: {**summary(values[tag]), "skipped": 0, "evaluated": replicates}
            for tag in tags
        },
    }


# --------------------------------------------------------------------------
# ordinal Welch sweep: 5 x 5 contingency tables

QUINTILE_CUTS = np.array([NormalDist().inv_cdf(k / 5.0) for k in (1, 2, 3, 4)])


def _below_left(t: np.ndarray) -> np.ndarray:
    """out[i, j] = sum of t[k, l] over k < i, l < j."""
    out = np.zeros_like(t)
    out[1:, 1:] = np.cumsum(np.cumsum(t, axis=0), axis=1)[:-1, :-1]
    return out


def table_pair_counts(table: np.ndarray) -> tuple[int, int, int, int]:
    """(C - D, n, tied-in-x pairs, tied-in-y pairs) of a contingency table."""
    t = table.astype(np.int64)
    # mirroring the columns turns "l > j" (discordant) into "l < j"
    s = int((t * _below_left(t)).sum() - (t * _below_left(t[:, ::-1])[:, ::-1]).sum())
    return s, int(t.sum()), pairs(t.sum(axis=1)), pairs(t.sum(axis=0))


def ordinal_welch_summary(n: int, replicates: int, seed: int, latent_corr: float) -> dict:
    """The expected ``MomentsSummary.as_dict()`` of an ordinal Welch sweep."""
    out = np.empty(replicates)
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        z1 = rng.standard_normal(n)
        z2 = latent_corr * z1 + math.sqrt(1.0 - latent_corr**2) * rng.standard_normal(n)
        xi = np.searchsorted(QUINTILE_CUTS, z1, side="right")
        yi = np.searchsorted(QUINTILE_CUTS, z2, side="right")
        table = np.bincount(5 * xi + yi, minlength=25).reshape(5, 5)
        s, nn, tx, ty = table_pair_counts(table)
        out[rep] = welch_t(s, nn, tx, ty)
    return summary(out)


# --------------------------------------------------------------------------
# population: Monte Carlo table1 rows


def _draw_members(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    rows = []
    while count > 0:
        draw = rng.integers(1, n + 1, size=(count, n))
        draw = draw[(draw != draw[:, :1]).any(axis=1)]
        rows.append(draw)
        count -= draw.shape[0]
    return np.concatenate(rows)


def montecarlo_centered(n: int, count: int, seed: int) -> np.ndarray:
    """Centered distances D - C of the sampled member pairs."""
    out = []
    for chunk in range(-(-count // MC_CHUNK)):
        take = min(MC_CHUNK, count - chunk * MC_CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chunk,)))
        xs = _draw_members(n, take, rng).astype(np.int8)
        ys = _draw_members(n, take, rng).astype(np.int8)
        sx = np.sign(xs[:, :, None] - xs[:, None, :]).reshape(take, -1)
        sy = np.sign(ys[:, :, None] - ys[:, None, :]).reshape(take, -1)
        out.append(-(sx * sy).sum(axis=1, dtype=np.int32) // 2)
    return np.concatenate(out)


def table1_row(n: int, values, mode: str, threshold: float = 0.05) -> dict:
    """The expected ``Table1Row.as_dict()`` for centered distances ``values``."""
    s = summary(values, ddof=0 if mode == "exhaustive" else 1)
    formula_sd = math.sqrt(population_variance(n))
    return {
        "n": n,
        "formula_sd": formula_sd,
        "empirical_mean": s["mean"],
        "empirical_sd": s["sd"],
        "ratio": s["sd"] / formula_sd,
        "flagged": abs(s["sd"] - formula_sd) / formula_sd > threshold,
        "skew": s["skewness"],
        "excess_kurtosis": s["excess_kurtosis"],
        "sample_count": s["count"],
        "mode": mode,
    }


# --------------------------------------------------------------------------
# large-n pair counts, ranks and the CLI payloads built from them


def inversions(a) -> int:
    """Pairs i < j with a[i] > a[j], by bottom-up merging of sorted blocks."""
    a = np.asarray(a, dtype=np.int64)
    n = a.size
    size = 1 << max(0, (n - 1).bit_length())
    a = np.concatenate([a, np.full(size - n, a.max() + 1 if n else 0, dtype=np.int64)])
    span = int(a.max()) + 2
    total = 0
    width = 1
    while width < size:
        blocks = a.reshape(-1, 2 * width)
        offset = (np.arange(blocks.shape[0], dtype=np.int64) * span)[:, None]
        left = (blocks[:, :width] + offset).ravel()
        right = (blocks[:, width:] + offset).ravel()
        at_most = np.searchsorted(left, right, side="right")
        at_most -= np.repeat(np.arange(blocks.shape[0], dtype=np.int64) * width, width)
        total += int((width - at_most).sum())
        a = np.sort(blocks, axis=1).ravel()
        width *= 2
    return total


class Column:
    """One large-n input column with its dense ranks, mid-ranks and tie
    group sizes, computed once for every check that reads them."""

    def __init__(self, values: np.ndarray):
        self.values = values
        _, self.dense, self.sizes = np.unique(values, return_inverse=True, return_counts=True)
        upper = np.cumsum(self.sizes)
        self.ranks = ((upper - self.sizes + 1 + upper) / 2.0)[self.dense]
        n0 = values.size * (values.size - 1) // 2
        self.concentration = (n0 - pairs(self.sizes)) / n0


def pair_counts(x: Column, y: Column) -> dict:
    """S = C - D and the tied-pair counts of (x, y)."""
    n = x.values.size
    order = np.lexsort((y.dense, x.dense))
    discordant = inversions(y.dense[order])
    joint = np.unique(x.dense * y.sizes.size + y.dense, return_counts=True)[1]
    tx, ty = pairs(x.sizes), pairs(y.sizes)
    concordant = n * (n - 1) // 2 - tx - ty + pairs(joint) - discordant
    return {"s": concordant - discordant, "n": n, "tx": tx, "ty": ty}


def corr(a: np.ndarray, b: np.ndarray) -> float:
    return _weighted_corr(a, b, np.ones_like(a))


def tau(pc: dict) -> float:
    return pc["s"] / (pc["n"] * (pc["n"] - 1) // 2)


def two_sided(p_upper: float) -> float:
    return 2.0 * min(p_upper, 1.0 - p_upper)


def welch_payload(x: Column, y: Column, pc: dict, baselines: bool) -> dict:
    n = pc["n"]
    var_x, var_y = x.concentration, y.concentration
    pop_var = population_variance(n)
    s_p = math.sqrt(pop_var / (var_x + var_y))
    t = pc["s"] / s_p
    from scipy import stats

    p = float(stats.t.sf(t, n - 2))
    out = {
        "statistic": t, "df": float(n - 2), "p_two_sided": two_sided(p),
        "p_one_sided": p, "method": "kemeny_t_welch", "n": n, "effect": tau(pc),
        "details": {"centered_distance": float(-pc["s"]), "s_p": s_p,
                    "s_kappa": math.sqrt(pop_var / (s_p * s_p)),
                    "variance_x": var_x, "variance_y": var_y},
    }
    if baselines:
        n0 = n * (n - 1) // 2
        out["baselines"] = {
            "kendall_tau_b": pc["s"] / math.sqrt((n0 - pc["tx"]) * (n0 - pc["ty"])),
            "spearman_rho": corr(x.ranks, y.ranks),
            "pearson_r": corr(x.values, y.values),
        }
    return out


def z_payload(pc: dict) -> dict:
    pop_sd = math.sqrt(population_variance(pc["n"]))
    z = pc["s"] / pop_sd
    from scipy import stats

    p = float(stats.norm.sf(z))
    return {
        "statistic": z, "df": None, "p_two_sided": two_sided(p), "p_one_sided": p,
        "method": "kemeny_z", "n": pc["n"], "effect": tau(pc),
        "details": {"centered_distance": float(-pc["s"]), "population_sd": pop_sd},
    }


def matrix_payload(columns: dict, pcs: dict, metric: str) -> dict:
    """columns maps names to Columns; pcs maps each name pair (i < j) to its
    pair counts."""
    names = list(columns)
    cells = [[None] * len(names) for _ in names]
    for i, a in enumerate(names):
        for j, b in enumerate(names):
            x, y = columns[a], columns[b]
            if metric == "tau_kappa":
                cells[i][j] = x.concentration if i == j else tau(pcs[tuple(sorted((a, b)))])
            else:
                cells[i][j] = corr(x.ranks, y.ranks)
    n = next(iter(columns.values())).values.size
    return {"metric": metric, "n": n, "columns": names, "cells": cells, "flags": {}}


def mom_joint(n: int, rho: float) -> tuple[float, float]:
    """Closed-form joint method-of-moments Beta shapes at (n, rho)."""
    support = n * n - n
    g = (18 * rho**2 + 2 * n**5 + n**4 - 19 * n**3 - 18 * n**2 * rho
         + 31 * n**2 + 18 * n * rho - 19 * n + 4)
    denom = n * (n - 1) ** 4 * (2 * n * n + 7 * n - 4)
    return rho * g / denom, (support - rho) * g / denom


def normalized_ranks(v: Column) -> np.ndarray:
    r = v.ranks
    return (r - r.min()) / (r.max() - r.min())


def beta_score(u: np.ndarray, a: float, b: float) -> float:
    """Largest relative residual of the Beta likelihood equations at (a, b),
    after the endpoint shrink u' = (u (m-1) + 0.5) / m."""
    from scipy import special

    m = u.size
    work = np.where((u == 0.0) | (u == 1.0), (u * (m - 1) + 0.5) / m, u)
    log_u, log_1mu = float(np.log(work).sum()), float(np.log1p(-work).sum())
    psi = special.digamma(a + b)
    g1 = m * (psi - special.digamma(a)) + log_u
    g2 = m * (psi - special.digamma(b)) + log_1mu
    return max(abs(g1) / (abs(log_u) + m * abs(psi - special.digamma(a))),
               abs(g2) / (abs(log_1mu) + m * abs(psi - special.digamma(b))))


def fit_payload_checks(names: list, x: Column, y: Column, pc: dict, payload: dict,
                       score_tol: float) -> list[str]:
    """Check a ``fit --pipeline`` payload; the MLE shapes are checked through
    the likelihood equations, everything else against closed forms."""
    n = pc["n"]
    n0 = n * (n - 1) // 2
    rho = n0 - pc["s"]
    a1, a2 = mom_joint(n, float(rho))
    ux, uy = normalized_ranks(x), normalized_ranks(y)
    pipe = payload["pipeline"]
    fx, fy = pipe["fit_x"], pipe["fit_y"]
    expected = {
        "columns": names, "n": n, "rho": float(rho), "support": n * n - n,
        "alpha1": a1, "alpha2": a2,
        "mean": a1 / (a1 + a2), "fitted_distance": a1 / (a1 + a2) * (n * n - n),
    }
    bad = mismatches(expected, {k: payload[k] for k in expected}, "$.fit")
    moments = {}
    for tag, f in (("x", fx), ("y", fy)):
        s = f["alpha1"] + f["alpha2"]
        moments[f"mu1_{tag}"] = f["alpha1"] / s
        moments[f"mu2_{tag}"] = f["alpha1"] * f["alpha2"] / (s * s * (s + 1.0))
    product_mean = float((ux * uy).mean())
    moments["product_mean"] = product_mean
    moments["reconstructed"] = ((n / (n - 1.0)) * (product_mean - moments["mu1_x"] * moments["mu1_y"])
                                / math.sqrt(moments["mu2_x"] * moments["mu2_y"]))
    moments["rho_direct"] = corr(x.ranks, y.ranks)
    bad += mismatches(moments, {k: pipe[k] for k in moments}, "$.fit.pipeline")
    for tag, u, f in (("x", ux, fx), ("y", uy, fy)):
        score = beta_score(u, f["alpha1"], f["alpha2"])
        if not score <= score_tol:
            bad.append(f"$.fit.pipeline.fit_{tag}: likelihood residual {score:.3g} > {score_tol}")
    return bad
