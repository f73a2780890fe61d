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
    VectorLike,
    as_data_vector,
    centered_distance,
    kemeny_variance,
    tau_kappa,
)
from .errors import DegenerateInputError, LengthMismatchError, ValidationError
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


def _prepare_pair(x: VectorLike, y: VectorLike, require_nondegenerate=True):
    xv = as_data_vector(x)
    yv = as_data_vector(y)
    if xv.n != yv.n:
        raise LengthMismatchError(f"length mismatch: {xv.n} vs {yv.n}")
    if require_nondegenerate and (xv.is_degenerate or yv.is_degenerate):
        raise DegenerateInputError("test requires non-degenerate inputs")
    return xv, yv


def kemeny_z_test(x: VectorLike, y: VectorLike) -> TestResult:
    """Wald z: minus the centered distance over the closed-form population sd.

    Asymptotically standard normal; z^2 is a 1-df chi-square.
    """
    xv, yv = _prepare_pair(x, y)
    n = xv.n
    cen = centered_distance(xv, yv).value
    pop_sd = math.sqrt(population_variance_formula(n))
    z = -cen / pop_sd
    p_upper = std_normal_sf(z)
    return TestResult(
        statistic=z,
        df=None,
        p_two_sided=_two_sided(p_upper),
        p_one_sided=p_upper,
        method="kemeny_z",
        n=n,
        effect=tau_kappa(xv, yv),
        details={"centered_distance": float(cen), "population_sd": pop_sd},
    )


def kemeny_t_one_sample(x: VectorLike, y: VectorLike) -> TestResult:
    """One-sample Studentised t with n-1 df.

    The pooled scale divides the population variance by twice the per-pair
    concentration of x -- half its tie-adjusted variance, which lives in
    (0, 0.5] -- so a tie-free x reduces the statistic to the z exactly and
    ties shrink it below the z.
    """
    xv, yv = _prepare_pair(x, y)
    n = xv.n
    var_x = kemeny_variance(xv)
    if var_x == 0.0:
        raise DegenerateInputError("x has zero concentration")
    cen = centered_distance(xv, yv).value
    pop_var = population_variance_formula(n)
    s_p = math.sqrt(pop_var / (2.0 * (var_x / 2.0)))
    t = -cen / s_p
    df = n - 1
    p_upper = student_t_sf(t, df)
    return TestResult(
        statistic=t,
        df=float(df),
        p_two_sided=_two_sided(p_upper),
        p_one_sided=p_upper,
        method="kemeny_t_one",
        n=n,
        effect=tau_kappa(xv, yv),
        details={"centered_distance": float(cen), "s_p": s_p, "variance_x": var_x},
    )


def kemeny_t_welch(x: VectorLike, y: VectorLike) -> TestResult:
    """Two-variable Studentised t with n-2 df.

    The pooled scale divides the population variance by the sum of the two
    tie-adjusted sample variances; both tie-free gives t = sqrt(2) z.  The
    companion scale s_kappa = sqrt(pop_var / s_p^2) is reported in details
    as the dispersion-adjusted population scale.
    """
    xv, yv = _prepare_pair(x, y)
    n = xv.n
    if n < 3:
        raise DegenerateInputError(f"kemeny_t_welch needs n >= 3 for n - 2 df, got n={n}")
    var_x = kemeny_variance(xv)
    var_y = kemeny_variance(yv)
    if var_x == 0.0 or var_y == 0.0:
        raise DegenerateInputError("zero concentration input")
    cen = centered_distance(xv, yv).value
    pop_var = population_variance_formula(n)
    s_p = math.sqrt(pop_var / (var_x + var_y))
    s_kappa = math.sqrt(pop_var / (s_p * s_p))
    t = -cen / s_p
    df = n - 2
    p_upper = student_t_sf(t, df)
    return TestResult(
        statistic=t,
        df=float(df),
        p_two_sided=_two_sided(p_upper),
        p_one_sided=p_upper,
        method="kemeny_t_welch",
        n=n,
        effect=tau_kappa(xv, yv),
        details={
            "centered_distance": float(cen),
            "s_p": s_p,
            "s_kappa": s_kappa,
            "variance_x": var_x,
            "variance_y": var_y,
        },
    )


def kemeny_t_paired(x: VectorLike, y: VectorLike) -> TestResult:
    """Paired t with n-1 df from the elementwise difference vector.

    t = -centered(x, y) * sd_kappa(x - y) / pop_var(n).  The denominator is
    a variance divided by a standard deviation, which has lopsided units;
    that is the published construction and it is kept literally.  Requires
    finite entries (the difference must exist) and a non-constant difference.
    """
    xv, yv = _prepare_pair(x, y)
    n = xv.n
    if not (np.isfinite(xv.values).all() and np.isfinite(yv.values).all()):
        raise ValidationError("paired test requires finite entries")
    diff = xv.values - yv.values
    if diff.min() == diff.max():
        raise DegenerateInputError("difference vector is constant")
    sd_diff = math.sqrt(kemeny_variance(diff))
    cen = centered_distance(xv, yv).value
    pop_var = population_variance_formula(n)
    t = -cen * sd_diff / pop_var
    df = n - 1
    p_upper = student_t_sf(t, df)
    return TestResult(
        statistic=t,
        df=float(df),
        p_two_sided=_two_sided(p_upper),
        p_one_sided=p_upper,
        method="kemeny_t_paired",
        n=n,
        effect=tau_kappa(xv, yv),
        details={"centered_distance": float(cen), "sd_diff": sd_diff},
    )


def point_biserial(group: VectorLike, outcome: VectorLike) -> TestResult:
    """Two-group location test: the Wald z of a binary group against an
    outcome, with tau as the effect size."""
    gv = as_data_vector(group)
    distinct = np.unique(gv.values)
    if distinct.size != 2:
        raise ValidationError(
            f"group must take exactly 2 distinct values, got {distinct.size}"
        )
    return kemeny_z_test(gv, outcome)
