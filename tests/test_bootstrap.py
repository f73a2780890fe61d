import io

import numpy as np
import pytest

from kemeny import (
    ConfigError,
    DegenerateInputError,
    HarnessConfig,
    ValidationError,
    run_harness,
    sample_correlated_ordinal,
    tau_kappa,
)
from kemeny.bootstrap import METHODS, ordinal_welch_sweep
from kemeny.moments import summarize


class TestHarnessConfig:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            HarnessConfig(replicates=0, resample_size=10, seed=1, methods=("tau_kappa",))
        with pytest.raises(ConfigError):
            HarnessConfig(replicates=5, resample_size=1, seed=1, methods=("tau_kappa",))

    def test_rejects_unknown_method(self):
        with pytest.raises(ConfigError):
            HarnessConfig(replicates=5, resample_size=10, seed=1, methods=("nope",))

    def test_fixed_sample_requires_full_size(self, sleep):
        config = HarnessConfig(
            replicates=3, resample_size=10, seed=1,
            methods=("tau_kappa",), fixed_sample=True,
        )
        with pytest.raises(ConfigError):
            run_harness(config, sleep.column("group"), sleep.column("extra"))


class TestRunHarness:
    def test_single_replicate_sd_zero(self, sleep):
        config = HarnessConfig(
            replicates=1, resample_size=20, seed=3, methods=("tau_kappa", "kemeny_z")
        )
        report = run_harness(config, sleep.column("group"), sleep.column("extra"))
        for tag in config.methods:
            s = report.summaries[tag]
            assert s.count == 1
            assert s.sd == 0.0
            assert s.spread_degenerate

    def test_deterministic_for_fixed_seed(self, sleep):
        config = HarnessConfig(
            replicates=100, resample_size=40, seed=7,
            methods=("tau_kappa", "spearman_rho", "wilcoxon_w"),
        )
        g, e = sleep.column("group"), sleep.column("extra")
        a = run_harness(config, g, e).as_dict()
        b = run_harness(config, g, e).as_dict()
        assert a == b

    def test_seed_matters(self, sleep):
        g, e = sleep.column("group"), sleep.column("extra")
        base = dict(replicates=50, resample_size=40, methods=("tau_kappa",))
        a = run_harness(HarnessConfig(seed=1, **base), g, e)
        b = run_harness(HarnessConfig(seed=2, **base), g, e)
        assert a.summaries["tau_kappa"].mean != b.summaries["tau_kappa"].mean

    def test_fixed_sample_reproduces_constant_effect(self, sleep):
        config = HarnessConfig(
            replicates=50, resample_size=20, seed=5,
            methods=("tau_kappa", "sin_tau_kappa"), fixed_sample=True,
        )
        g, e = sleep.column("group"), sleep.column("extra")
        report = run_harness(config, g, e)
        tau = report.summaries["tau_kappa"]
        assert tau.sd == 0.0
        assert tau.mean == pytest.approx(0.25789, abs=5e-6)
        assert report.summaries["sin_tau_kappa"].mean == pytest.approx(0.39411, abs=5e-6)

    def test_degenerate_replicates_skipped_and_counted(self):
        # two rows only: a resample is often single-valued in a column
        x = np.array([1.0, 2.0])
        y = np.array([3.0, 4.0])
        config = HarnessConfig(
            replicates=200, resample_size=2, seed=11, methods=("spearman_rho",)
        )
        report = run_harness(config, x, y)
        assert report.skipped["spearman_rho"] > 0
        assert (
            report.skipped["spearman_rho"] + report.evaluated["spearman_rho"] == 200
        )
        # the Welch t has n - 2 = 0 df on every two-row resample
        welch = HarnessConfig(
            replicates=20, resample_size=2, seed=11, methods=("kemeny_t_welch",)
        )
        with pytest.raises(ValidationError, match="degenerate for method 'kemeny_t_welch'"):
            run_harness(welch, x, y)

    def test_binary_group_validation(self, iris):
        config = HarnessConfig(
            replicates=2, resample_size=30, seed=1, methods=("wilcoxon_w",)
        )
        with pytest.raises(ConfigError):
            run_harness(config, iris.column("sepal_length"), iris.column("sepal_width"))

    def test_column_length_mismatch(self):
        config = HarnessConfig(replicates=2, resample_size=4, seed=1, methods=("tau_kappa",))
        with pytest.raises(ValidationError):
            run_harness(config, np.arange(4.0), np.arange(5.0))

    def test_every_registered_method_runs_on_sleep(self, sleep):
        config = HarnessConfig(
            replicates=5, resample_size=20, seed=9, methods=tuple(sorted(METHODS))
        )
        report = run_harness(config, sleep.column("group"), sleep.column("extra"))
        assert set(report.summaries) == set(METHODS)

    def test_z_statistic_dispersion_ordering(self, sleep):
        # directional claim from the published location-test comparison:
        # the Kemeny z replicates disperse less than the Kendall z ones
        config = HarnessConfig(
            replicates=2000, resample_size=750, seed=13,
            methods=("kemeny_z", "kendall_z"),
        )
        report = run_harness(config, sleep.column("group"), sleep.column("extra"))
        assert (
            report.summaries["kemeny_z"].sd < report.summaries["kendall_z"].sd
        )

    def test_raw_statistic_streaming(self, sleep, tmp_path):
        import io

        config = HarnessConfig(
            replicates=8, resample_size=15, seed=2,
            methods=("tau_kappa", "pearson_r"),
        )
        sink = io.StringIO()
        report = run_harness(
            config, sleep.column("group"), sleep.column("extra"), raw_sink=sink
        )
        lines = sink.getvalue().strip().splitlines()
        assert lines[0] == "replicate,method,value"
        n_values = sum(report.evaluated.values())
        assert len(lines) == 1 + n_values
        # streamed values reproduce the summary mean exactly
        taus = [float(l.split(",")[2]) for l in lines[1:] if ",tau_kappa," in l]
        assert np.mean(taus) == pytest.approx(report.summaries["tau_kappa"].mean)


class TestOrdinalGenerator:
    def test_levels_and_balance(self, rng):
        x, y = sample_correlated_ordinal(50_000, rng)
        assert set(np.unique(x)) <= {0.0, 1.0, 2.0, 3.0, 4.0}
        # equal cut probabilities: each level near 20%
        for level in range(5):
            assert (x == level).mean() == pytest.approx(0.2, abs=0.02)

    def test_association_strength(self, rng):
        x, y = sample_correlated_ordinal(20_000, rng)
        assert tau_kappa(x, y) == pytest.approx(0.227, abs=0.02)

    def test_unsupported_level_count(self, rng):
        with pytest.raises(ValidationError):
            sample_correlated_ordinal(100, rng, levels=4)


class TestOrdinalWelchSweep:
    def test_small_sweep_magnitude(self):
        summary = ordinal_welch_sweep(n=600, replicates=20, seed=4)
        assert summary.count == 20
        # z scales ~ tau * N / (2 sd): at n=600 expect roughly 10-13
        assert 7.0 < summary.mean < 16.0

    def test_deterministic(self):
        a = ordinal_welch_sweep(n=200, replicates=10, seed=8)
        b = ordinal_welch_sweep(n=200, replicates=10, seed=8)
        assert a == b


def _expanded_rows_harness(config, x, y):
    """The harness on expanded rows: every replicate builds its resampled
    columns and calls each registered method on them.  The oracle for the
    prepared-pair harness; returns the report dict (or the error) and the
    raw stream."""
    xa, ya = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    sink = io.StringIO()
    sink.write("replicate,method,value\n")
    values = {tag: [] for tag in config.methods}
    skipped = dict.fromkeys(config.methods, 0)
    for rep in range(config.replicates):
        if config.fixed_sample:
            bx, by = xa, ya
        else:
            rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(rep,)))
            idx = rng.integers(0, xa.size, size=config.resample_size)
            bx, by = xa[idx], ya[idx]
        for tag in config.methods:
            try:
                value = float(METHODS[tag](bx, by))
            except (DegenerateInputError, ValidationError):
                skipped[tag] += 1
                continue
            values[tag].append(value)
            sink.write(f"{rep},{tag},{value!r}\n")
    for tag in config.methods:
        if not values[tag]:
            return f"every replicate was degenerate for method {tag!r}", sink.getvalue()
    report = {
        "replicates": config.replicates, "resample_size": config.resample_size,
        "seed": config.seed, "dataset": config.dataset, "fixed_sample": config.fixed_sample,
        "methods": {tag: {**summarize(values[tag]).as_dict(), "skipped": skipped[tag],
                          "evaluated": len(values[tag])} for tag in config.methods},
    }
    return report, sink.getvalue()


def _prepared_harness(config, x, y):
    sink = io.StringIO()
    try:
        report = run_harness(config, x, y, raw_sink=sink).as_dict()
    except ValidationError as exc:
        report = str(exc)
    return report, sink.getvalue()


_BINARY_TAGS = ("wilcoxon_w", "wilcox_r", "glass_r")
_ALL_TAGS = tuple(sorted(METHODS))


def _columns(name, sleep, iris):
    """(x, y, tags) of each equivalence case: all 12 tags where x is binary."""
    if name == "sleep":
        return sleep.column("group"), sleep.column("extra"), _ALL_TAGS
    if name == "iris_levels":
        return (iris.column("sepal_length"), iris.column("petal_length"),
                tuple(t for t in _ALL_TAGS if t not in _BINARY_TAGS))
    if name == "iris_group":
        return ((iris.column("petal_width") > 1.0).astype(float), iris.column("sepal_width"),
                _ALL_TAGS)
    # both infinities and both signed zeros, which rank as one level
    x = np.array([-np.inf, -0.0, 0.0, 1.0, np.inf, 2.0, -0.0, np.inf, 0.0, 1.0])
    y = np.array([0.0, -0.0, np.inf, -np.inf, 3.0, 3.0, 1.0, 2.0, -0.0, 5.0])
    return x, y, tuple(t for t in _ALL_TAGS if t not in _BINARY_TAGS)


class TestPreparedHarnessEquivalence:
    """The harness scores each replicate from multiplicity weights over the
    prepared source cells; its report and raw stream must equal, byte for
    byte, those of calling every method on the expanded rows."""

    @pytest.mark.parametrize("size", [2, 3, 5, 750])
    def test_sleep_all_tags(self, sleep, size):
        x, y, tags = _columns("sleep", sleep, None)
        for tag in tags:
            config = HarnessConfig(replicates=40 if size == 750 else 120,
                                   resample_size=size, seed=size, methods=(tag,))
            assert repr(_prepared_harness(config, x, y)) == repr(
                _expanded_rows_harness(config, x, y)), (tag, size)

    def test_small_resamples_skip_alike(self, sleep):
        # levels drop out of small resamples: both harnesses skip the same
        # replicates, and some tags skip most of them
        x, y, tags = _columns("sleep", sleep, None)
        config = HarnessConfig(replicates=200, resample_size=3, seed=21, methods=tags)
        got, raw = _prepared_harness(config, x, y)
        want, want_raw = _expanded_rows_harness(config, x, y)
        assert raw == want_raw and repr(got) == repr(want)
        assert 0 < got["methods"]["spearman_rho"]["skipped"] < 200

    @pytest.mark.parametrize("case", ["iris_levels", "iris_group", "signed_zero_inf"])
    @pytest.mark.parametrize("size", [3, 9, 150])
    def test_other_columns(self, sleep, iris, case, size):
        x, y, tags = _columns(case, sleep, iris)
        config = HarnessConfig(replicates=60, resample_size=size, seed=size, methods=tags)
        assert repr(_prepared_harness(config, x, y)) == repr(
            _expanded_rows_harness(config, x, y))

    @pytest.mark.parametrize("case", ["sleep", "iris_group", "signed_zero_inf"])
    def test_fixed_sample(self, sleep, iris, case):
        x, y, tags = _columns(case, sleep, iris)
        config = HarnessConfig(replicates=3, resample_size=len(x), seed=1, methods=tags,
                               fixed_sample=True)
        report, raw = _prepared_harness(config, x, y)
        assert repr((report, raw)) == repr(_expanded_rows_harness(config, x, y))
        if case == "sleep":
            # the published rank-sum W, from the smaller label's group
            assert report["methods"]["wilcoxon_w"]["mean"] == 25.5

    def test_source_validated_up_front(self):
        config = HarnessConfig(replicates=5, resample_size=4, seed=1, methods=("tau_kappa",))
        with pytest.raises(ValidationError, match="NaN"):
            run_harness(config, [1.0, 2.0, np.nan], [1.0, 2.0, 3.0])


class TestSmallResampleBugs:
    def test_kendall_z_two_rows(self, sleep):
        config = HarnessConfig(replicates=50, resample_size=2, seed=3, methods=("kendall_z",))
        report = run_harness(config, sleep.column("group"), sleep.column("extra"))
        assert report.evaluated["kendall_z"] > 0
        assert {report.summaries["kendall_z"].min, report.summaries["kendall_z"].max} <= {
            -1.0, 1.0}

    def test_pearson_t_two_rows_skipped(self, sleep):
        config = HarnessConfig(replicates=50, resample_size=2, seed=3,
                               methods=("kendall_z", "pearson_t"))
        with pytest.raises(ValidationError, match="degenerate for method 'pearson_t'"):
            run_harness(config, sleep.column("group"), sleep.column("extra"))
