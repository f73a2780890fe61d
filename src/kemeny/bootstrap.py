"""Seeded resampling harness: re-run the estimator family over B replicates.

Each replicate resamples rows with replacement and evaluates every
requested method tag; per-method values are reduced to MomentsSummary
tables.  Replicate r draws its generator from SeedSequence(seed,
spawn_key=(r,)), so a run is bit-identical no matter how replicates are
scheduled or partitioned.  Degenerate replicates (a constant resampled
column where the method needs spread) are skipped and counted, not fatal.

The source rows are ranked once, into a PreparedPair; a replicate weights
its cells by the drawn rows' multiplicities and sorts nothing.  The rank
statistics are exact integer or half-integer sums, bit-identical to those
of the expanded rows; Pearson reads the drawn rows in draw order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import baselines
from .core import prepare_pair, sin_transform, tau_kappa
from .errors import ConfigError, DegenerateInputError, ValidationError
from .hypotests import kemeny_t_welch, kemeny_z_test
from .moments import MomentsSummary, summarize

#: statistic registry: tag -> callable(x_column, y_column) or callable(pair)
METHODS = {
    "kemeny_z": lambda x, y=None: kemeny_z_test(x, y).statistic,
    "kemeny_t_welch": lambda x, y=None: kemeny_t_welch(x, y).statistic,
    "tau_kappa": tau_kappa,
    "sin_tau_kappa": lambda x, y=None: sin_transform(tau_kappa(x, y)),
    "wilcoxon_w": lambda x, y=None: baselines.wilcoxon_rank_sum(x, y).W,
    "kendall_z": baselines.kendall_z,
    "kendall_tau_b": baselines.kendall_tau_b,
    "spearman_rho": baselines.spearman_rho,
    "pearson_r": baselines.pearson_r,
    "pearson_t": baselines.pearson_t,
    "wilcox_r": lambda x, y=None: baselines.effect_sizes(x, y)["wilcox_r"],
    "glass_r": lambda x, y=None: baselines.effect_sizes(x, y)["glass_r"],
}

#: tags whose x column must be a binary group
_BINARY_GROUP_METHODS = {"wilcoxon_w", "wilcox_r", "glass_r"}


@dataclass(frozen=True)
class HarnessConfig:
    """Bootstrap run description.

    fixed_sample=True evaluates every replicate on the original rows (no
    resampling); it is only legal with resample_size equal to the data
    length and exists to reproduce zero-spread effect summaries.
    """

    replicates: int
    resample_size: int
    seed: int
    methods: tuple[str, ...]
    dataset: str = ""
    fixed_sample: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.resample_size < 2:
            raise ConfigError(f"resample_size must be >= 2, got {self.resample_size}")
        if not self.methods:
            raise ConfigError("at least one method tag is required")
        unknown = [m for m in self.methods if m not in METHODS]
        if unknown:
            raise ConfigError(f"unknown method tags: {unknown}")


@dataclass(frozen=True)
class HarnessReport:
    """Per-method summaries plus the skip ledger."""

    config: HarnessConfig
    summaries: dict[str, MomentsSummary]
    skipped: dict[str, int]
    evaluated: dict[str, int]

    def as_dict(self) -> dict:
        return {
            "replicates": self.config.replicates,
            "resample_size": self.config.resample_size,
            "seed": self.config.seed,
            "dataset": self.config.dataset,
            "fixed_sample": self.config.fixed_sample,
            "methods": {
                tag: {
                    **self.summaries[tag].as_dict(),
                    "skipped": self.skipped[tag],
                    "evaluated": self.evaluated[tag],
                }
                for tag in self.config.methods
            },
        }


def _validate_columns(config: HarnessConfig, x: np.ndarray, y: np.ndarray) -> None:
    if x.size != y.size:
        raise ValidationError("harness columns must have equal length")
    if config.fixed_sample and config.resample_size != x.size:
        raise ConfigError(
            "fixed_sample mode requires resample_size == data length "
            f"({config.resample_size} != {x.size})"
        )
    needs_binary = set(config.methods) & _BINARY_GROUP_METHODS
    if needs_binary and (levels := np.unique(x).size) != 2:
        raise ConfigError(
            f"methods {sorted(needs_binary)} need a binary first column, "
            f"got {levels} levels"
        )


def run_harness(config: HarnessConfig, x, y, raw_sink=None) -> HarnessReport:
    """Bootstrap the configured statistics over (x, y) row resamples.

    Returns one MomentsSummary per method tag; deterministic for a fixed
    config regardless of how replicates would be partitioned.  When
    raw_sink (a writable text stream) is given, every replicate-level
    statistic is streamed to it as CSV rows `replicate,method,value` for
    external plotting.  The source columns are validated up front: a NaN
    anywhere, or fewer than 2 rows, raises ValidationError.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    _validate_columns(config, xa, ya)
    source = prepare_pair(xa, ya)
    if raw_sink is not None:
        raw_sink.write("replicate,method,value\n")
    n_rows = xa.size
    values: dict[str, list[float]] = {tag: [] for tag in config.methods}
    skipped = {tag: 0 for tag in config.methods}
    for rep in range(config.replicates):
        if config.fixed_sample:
            sample = source
        else:
            rng = np.random.default_rng(
                np.random.SeedSequence(config.seed, spawn_key=(rep,))
            )
            sample = source.resample(rng.integers(0, n_rows, size=config.resample_size))
        for tag in config.methods:
            try:
                value = float(METHODS[tag](sample))
            except (DegenerateInputError, ValidationError):
                skipped[tag] += 1
                continue
            values[tag].append(value)
            if raw_sink is not None:
                raw_sink.write(f"{rep},{tag},{value!r}\n")
    summaries = {}
    for tag in config.methods:
        if not values[tag]:
            raise ValidationError(
                f"every replicate was degenerate for method {tag!r}"
            )
        summaries[tag] = summarize(values[tag])
    return HarnessReport(
        config=config,
        summaries=summaries,
        skipped=skipped,
        evaluated={tag: len(values[tag]) for tag in config.methods},
    )


# quintile boundaries of the standard normal, Phi^{-1}(k/5)
_QUINTILE_CUTS = (-0.8416212335729143, -0.2533471031357997,
                  0.2533471031357997, 0.8416212335729143)


def sample_correlated_ordinal(
    n: int, rng: np.random.Generator, latent_corr: float = 0.4, levels: int = 5
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a bivariate ordinal sample: Gaussian copula with the given
    latent correlation, each margin cut into equal-probability levels.

    Only the 5-level default has precomputed cuts; it is the documented
    generator for the Welch magnitude checks.
    """
    if levels != 5:
        raise ValidationError("only the 5-level generator is defined")
    z1 = rng.standard_normal(n)
    z2 = latent_corr * z1 + math.sqrt(1.0 - latent_corr**2) * rng.standard_normal(n)
    cuts = np.asarray(_QUINTILE_CUTS)
    return (
        np.digitize(z1, cuts).astype(float),
        np.digitize(z2, cuts).astype(float),
    )


def ordinal_welch_sweep(
    n: int = 2500, replicates: int = 1000, seed: int = 0, latent_corr: float = 0.4
) -> MomentsSummary:
    """Distribution of the Kemeny Welch t over fresh ordinal samples.

    Each replicate draws a new n-row sample from the documented ordinal
    generator and records the Welch statistic; seeding is per-replicate as
    in run_harness.
    """
    stats = np.empty(replicates)
    for rep in range(replicates):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rep,)))
        x, y = sample_correlated_ordinal(n, rng, latent_corr=latent_corr)
        stats[rep] = kemeny_t_welch(x, y).statistic
    return summarize(stats)
