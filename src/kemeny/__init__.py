"""Tie-robust rank correlation on the Kemeny metric.

Exact pairwise-comparison distances between orderings with ties, the tau
and rho correlation estimators built on them, their Wald and Studentised
test statistics, permutation-population enumeration, Beta shape fitting,
classical baselines, and a seeded bootstrap comparison harness.
"""

__version__ = "0.1.0"

from .core import (  # noqa: E402
    DataVector,
    KappaMatrix,
    CenteredDistance,
    RankRowVector,
    PairCounts,
    PreparedPair,
    as_data_vector,
    prepare_pair,
    kappa_map,
    pair_counts,
    kemeny_distance,
    centered_distance,
    tau_kappa,
    kemeny_variance,
    row_sum_vector,
    kemeny_rho,
    sin_transform,
)
from .errors import (  # noqa: E402
    KemenyError,
    ValidationError,
    LengthMismatchError,
    DegenerateInputError,
    ConvergenceError,
    DataError,
    ConfigError,
)
from .population import (  # noqa: E402
    PopulationSpec,
    enumerate_population,
    population_variance_formula,
    distance_distribution_moments,
    table1_report,
    cardinality_gap,
    population_cardinality,
)
from .moments import MomentsSummary, MomentAccumulator, IntHistogram, summarize  # noqa: E402
from .special import (  # noqa: E402
    lgamma,
    digamma,
    trigamma,
    reg_incomplete_beta,
    std_normal_cdf,
    std_normal_sf,
    student_t_sf,
    chi2_sf_1df,
)
from .betafit import (  # noqa: E402
    BetaParams,
    MoMJointFit,
    mom_joint_fit,
    mom_marginal_alpha,
    beta_mle_fit,
    normalize_rank_vector,
    mle_moment_pipeline,
)
from .hypotests import (  # noqa: E402
    TestResult,
    kemeny_z_test,
    kemeny_t_one_sample,
    kemeny_t_welch,
    kemeny_t_paired,
    point_biserial,
)
from .baselines import (  # noqa: E402
    kendall_tau_a,
    kendall_tau_b,
    kendall_distance,
    kendall_z,
    spearman_rho,
    pearson_r,
    pearson_t,
    wilcoxon_rank_sum,
    effect_sizes,
)
from .bootstrap import (  # noqa: E402
    HarnessConfig,
    HarnessReport,
    run_harness,
    sample_correlated_ordinal,
    ordinal_welch_sweep,
)
from .datasets import Dataset, load_csv, load_dataset, load_iris, load_sleep  # noqa: E402

__all__ = [name for name in dir() if not name.startswith("_")]
