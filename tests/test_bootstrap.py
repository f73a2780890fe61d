import numpy as np
import pytest

from kemeny import (
    ConfigError,
    HarnessConfig,
    ValidationError,
    run_harness,
    sample_correlated_ordinal,
    tau_kappa,
)
from kemeny.bootstrap import METHODS, ordinal_welch_sweep


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
