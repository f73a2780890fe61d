"""Test statistics on the Kemeny scale: the Wald z and its Studentised kin.

Sign convention throughout: the statistic is minus the centered distance
over a scale, so identical orderings give the maximal positive value and a
full reversal the maximal negative one.  All tests return two-sided and
upper-tail p-values; p_two = 2 * min(tail, 1 - tail).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    PairLike,
    PreparedPair,
    VectorLike,
    centered_distance,
    kemeny_variance,
    prepare_pair,
    tau_kappa,
)
from .errors import DegenerateInputError, ValidationError
from .population import population_variance_formula
from .special import std_normal_sf, student_t_sf


@dataclass(frozen=True)
class TestResult:
    """Outcome of one test: statistic, p-values, and the scales behind them."""

    statistic: float
    df: float | None
    p_two_sided: float
    p_one_sided: float
    method: str
    n: int
    effect: float | None = None
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "df": self.df,
            "p_two_sided": self.p_two_sided,
            "p_one_sided": self.p_one_sided,
            "method": self.method,
            "n": self.n,
            "effect": self.effect,
            "details": self.details,
        }


def _two_sided(p_upper: float) -> float:
    return 2.0 * min(p_upper, 1.0 - p_upper)


def _spread_pair(x: PairLike, y: VectorLike | None) -> PreparedPair:
    pair = prepare_pair(x, y)
    if pair.degenerate:
        raise DegenerateInputError("test requires non-degenerate inputs")
    return pair


def _result(method: str, pair: PreparedPair, statistic: float, df: int | None,
            p_upper: float, details: dict) -> TestResult:
    """A test's outcome, with tau as its effect size."""
    return TestResult(statistic, None if df is None else float(df), _two_sided(p_upper),
                      p_upper, method, pair.n, effect=tau_kappa(pair), details=details)


def kemeny_z_test(x: PairLike, y: VectorLike | None = None) -> TestResult:
    """Wald z: minus the centered distance over the closed-form population sd.

    Asymptotically standard normal; z^2 is a 1-df chi-square.
    """
    pair = _spread_pair(x, y)
    cen = centered_distance(pair).value
    pop_sd = math.sqrt(population_variance_formula(pair.n))
    z = -cen / pop_sd
    return _result("kemeny_z", pair, z, None, std_normal_sf(z),
                   {"centered_distance": float(cen), "population_sd": pop_sd})


def kemeny_t_one_sample(x: PairLike, y: VectorLike | None = None) -> TestResult:
    """One-sample Studentised t with n-1 df.

    The pooled scale divides the population variance by twice the per-pair
    concentration of x -- half its tie-adjusted variance, which lives in
    (0, 0.5] -- so a tie-free x reduces the statistic to the z exactly and
    ties shrink it below the z.
    """
    pair = _spread_pair(x, y)
    var_x = pair.variances[0]
    cen = centered_distance(pair).value
    s_p = math.sqrt(population_variance_formula(pair.n) / (2.0 * (var_x / 2.0)))
    t = -cen / s_p
    return _result("kemeny_t_one", pair, t, pair.n - 1, student_t_sf(t, pair.n - 1),
                   {"centered_distance": float(cen), "s_p": s_p, "variance_x": var_x})


def kemeny_t_welch(x: PairLike, y: VectorLike | None = None) -> TestResult:
    """Two-variable Studentised t with n-2 df.

    The pooled scale divides the population variance by the sum of the two
    tie-adjusted sample variances; both tie-free gives t = sqrt(2) z.  The
    companion scale s_kappa = sqrt(pop_var / s_p^2) is reported in details
    as the dispersion-adjusted population scale.
    """
    pair = _spread_pair(x, y)
    n = pair.n
    if n < 3:
        raise DegenerateInputError(f"kemeny_t_welch needs n >= 3 for n - 2 df, got n={n}")
    var_x, var_y = pair.variances
    cen = centered_distance(pair).value
    pop_var = population_variance_formula(n)
    s_p = math.sqrt(pop_var / (var_x + var_y))
    s_kappa = math.sqrt(pop_var / (s_p * s_p))
    t = -cen / s_p
    return _result("kemeny_t_welch", pair, t, n - 2, student_t_sf(t, n - 2),
                   {"centered_distance": float(cen), "s_p": s_p, "s_kappa": s_kappa,
                    "variance_x": var_x, "variance_y": var_y})


def kemeny_t_paired(x: PairLike, y: VectorLike | None = None) -> TestResult:
    """Paired t with n-1 df from the elementwise difference vector.

    t = -centered(x, y) * sd_kappa(x - y) / pop_var(n).  The denominator is
    a variance divided by a standard deviation, which has lopsided units;
    that is the published construction and it is kept literally.  Requires
    finite entries (the difference must exist) and a non-constant difference.
    """
    pair = _spread_pair(x, y)
    if not (np.isfinite(pair.x).all() and np.isfinite(pair.y).all()):
        raise ValidationError("paired test requires finite entries")
    diff = pair.x - pair.y
    if diff.min() == diff.max():
        raise DegenerateInputError("difference vector is constant")
    sd_diff = math.sqrt(kemeny_variance(diff))
    cen = centered_distance(pair).value
    t = -cen * sd_diff / population_variance_formula(pair.n)
    return _result("kemeny_t_paired", pair, t, pair.n - 1, student_t_sf(t, pair.n - 1),
                   {"centered_distance": float(cen), "sd_diff": sd_diff})


def point_biserial(group: PairLike, outcome: VectorLike | None = None) -> TestResult:
    """Two-group location test: the Wald z of a binary group against an
    outcome, with tau as the effect size."""
    pair = prepare_pair(group, outcome)
    distinct = np.count_nonzero(pair.x_weights)
    if distinct != 2:
        raise ValidationError(f"group must take exactly 2 distinct values, got {distinct}")
    return kemeny_z_test(pair)
