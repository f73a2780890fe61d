"""The four benchmark workloads.

Each workload turns an op seed into inputs (untimed), runs one op through
the package's public entry points (timed), converts the output to plain
data, and checks it against the independent oracles in ``oracle.py`` and
the outputs recorded in ``reference.json``.  Package functions are looked
up on their modules at call time, so the tracer's wrappers are seen.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import kemeny
import kemeny.bootstrap
import kemeny.cli
import kemeny.datasets
import kemeny.population

import oracle

#: op seed of the untimed warm-up op, whose output is pinned in reference.json
REFERENCE_SEED = 20231017


class Workload:
    name = ""
    work_unit = ""
    #: exact core.pair_counts calls per op, checked by the traced run
    pair_counts_per_op: int | None = None

    def prepare(self, workdir: Path, reference: dict) -> None:
        self.reference = reference[self.name]

    def make_input(self, op_seed: int):
        return op_seed

    def release(self, inp) -> None:
        pass

    def check_reference(self, plain) -> list[str]:
        return oracle.mismatches(self.reference, plain, f"$.{self.name}.reference")


class ResampleSleep(Workload):
    """Bootstrap harness on sleep (group, extra), eight method tags."""

    name = "resample_sleep"
    work_unit = "replicates"
    TAGS = ("tau_kappa", "sin_tau_kappa", "kemeny_z", "wilcoxon_w", "kendall_z",
            "spearman_rho", "pearson_r", "kemeny_t_welch")
    REPLICATES = 20
    RESAMPLE_SIZE = 750
    # tau 1, sin_tau 1, kemeny_z 2 (centered distance + effect), kendall_z 1,
    # kemeny_t_welch 2 (centered distance + effect)
    pair_counts_per_op = 7 * REPLICATES

    def prepare(self, workdir, reference):
        super().prepare(workdir, reference)
        sleep = kemeny.datasets.load_sleep()
        self.x = np.array(sleep.column("group"))
        self.y = np.array(sleep.column("extra"))

    def make_input(self, op_seed):
        return kemeny.bootstrap.HarnessConfig(
            replicates=self.REPLICATES, resample_size=self.RESAMPLE_SIZE, seed=op_seed,
            methods=self.TAGS, dataset="sleep")

    def run(self, config):
        return kemeny.bootstrap.run_harness(config, self.x, self.y)

    def plain(self, report):
        return report.as_dict()

    def work(self, config) -> int:
        return config.replicates

    def check(self, config, plain) -> list[str]:
        want = oracle.sleep_harness_report(self.x, self.y, config.seed, config.replicates,
                                           config.resample_size, self.TAGS, "sleep")
        return oracle.mismatches(want, plain, f"$.{self.name}")

    def sizes(self) -> dict:
        return {"source_rows": int(self.x.size), "resample_size": self.RESAMPLE_SIZE,
                "replicates_per_op": self.REPLICATES, "methods": len(self.TAGS)}


class OrdinalWelch(Workload):
    """Ordinal Welch sweep at n=2500, latent correlation 0.4."""

    name = "ordinal_welch"
    work_unit = "replicates"
    N = 2500
    REPLICATES = 20
    LATENT_CORR = 0.4
    # centered distance + effect
    pair_counts_per_op = 2 * REPLICATES

    def run(self, op_seed):
        return kemeny.bootstrap.ordinal_welch_sweep(
            n=self.N, replicates=self.REPLICATES, seed=op_seed, latent_corr=self.LATENT_CORR)

    def plain(self, summary):
        return summary.as_dict()

    def work(self, op_seed) -> int:
        return self.REPLICATES

    def check(self, op_seed, plain) -> list[str]:
        want = oracle.ordinal_welch_summary(self.N, self.REPLICATES, op_seed, self.LATENT_CORR)
        return oracle.mismatches(want, plain, f"$.{self.name}")

    def sizes(self) -> dict:
        return {"n": self.N, "replicates_per_op": self.REPLICATES, "levels": 5}


class Population(Workload):
    """table1 report: exhaustive rows for n <= 5, Monte Carlo at 9 and 12."""

    name = "population"
    work_unit = "member_pairs"
    N_LIST = (2, 3, 4, 5, 9, 12)
    SAMPLES = 100_000
    EXHAUSTIVE_CAP = 5

    def run(self, op_seed):
        return kemeny.population.table1_report(
            list(self.N_LIST), sample_count=self.SAMPLES, seed=op_seed)

    def plain(self, rows):
        return [row.as_dict() for row in rows]

    def work(self, op_seed) -> int:
        return sum((n**n - n) ** 2 if n <= self.EXHAUSTIVE_CAP else self.SAMPLES
                   for n in self.N_LIST)

    def check(self, op_seed, plain) -> list[str]:
        # exhaustive rows do not depend on the seed: they must equal the
        # rows recorded at the reference commit
        want = []
        for i, n in enumerate(self.N_LIST):
            if n <= self.EXHAUSTIVE_CAP:
                want.append(self.reference[i])
            else:
                values = oracle.montecarlo_centered(n, self.SAMPLES, op_seed)
                want.append(oracle.table1_row(n, values, "montecarlo"))
        return oracle.mismatches(want, plain, f"$.{self.name}")

    def sizes(self) -> dict:
        return {"n_list": list(self.N_LIST), "montecarlo_samples": self.SAMPLES,
                "exhaustive_members": {n: n**n - n for n in self.N_LIST
                                       if n <= self.EXHAUSTIVE_CAP}}


IRIS_GOLDEN = {
    ("sepal_width", "sepal_length"): 11990,
    ("petal_length", "sepal_length"): 3410,
    ("petal_width", "sepal_length"): 4243,
    ("petal_length", "sepal_width"): 13145,
    ("petal_width", "sepal_width"): 12804,
    ("petal_width", "petal_length"): 2634,
}


def published_mismatches(outputs: list[dict]) -> list[str]:
    """The published worked examples, at the acceptance suite's tolerances."""
    bad = []
    matrix, pointbiserial, wilcoxon, fit = (o["envelope"]["payload"] for o in outputs)
    idx = {c: i for i, c in enumerate(matrix["columns"])}
    for (a, b), want in IRIS_GOLDEN.items():
        if matrix["cells"][idx[a]][idx[b]] != want:
            bad.append(f"iris distance {a}|{b}: {matrix['cells'][idx[a]][idx[b]]} != {want}")
    for name, got, want, tol in (
        ("sleep z", pointbiserial["statistic"], 1.59940, 1e-4),
        ("sleep p", pointbiserial["p_two_sided"], 0.1097329, 1e-6),
        ("sleep centered distance", pointbiserial["details"]["centered_distance"], -49, 0),
        ("sleep W", wilcoxon["W"], 25.5, 0),
        ("sleep rank-sum p", wilcoxon["p"], 0.06933, 1e-4),
        ("iris alpha1", fit["alpha1"], 0.5797333, 1e-6),
        ("iris alpha2", fit["alpha2"], 0.4059677, 1e-6),
    ):
        if not abs(got - want) <= tol:
            bad.append(f"published {name}: {got!r} != {want!r} (abs tol {tol})")
    return bad


class CliCsv(Workload):
    """A CLI session: five commands on a fresh 1e5-row CSV, then the README
    commands on the embedded iris and sleep data."""

    name = "cli_csv"
    work_unit = "rows"
    ROWS = 100_000
    EMBEDDED = (
        ["matrix", "--data", "iris", "--metric", "kemeny_distance", "--mom-fit"],
        ["test", "--data", "sleep", "--x", "group", "--y", "extra",
         "--method", "pointbiserial", "--baselines"],
        ["test", "--data", "sleep", "--x", "group", "--y", "extra", "--method", "wilcoxon"],
        ["fit", "--data", "iris", "--fit-columns", "sepal_width,petal_length"],
    )
    EMBEDDED_ROWS = 150 + 20 + 20 + 150
    #: largest relative residual of the Beta likelihood equations accepted
    #: for the MLE shapes of ``fit --pipeline``
    SCORE_TOL = 1e-6

    def prepare(self, workdir, reference):
        super().prepare(workdir, reference)
        self.workdir = workdir

    def columns(self, op_seed: int) -> dict:
        rng = np.random.default_rng(op_seed)
        a = rng.standard_normal(self.ROWS)
        b = 0.6 * a + 0.8 * rng.standard_normal(self.ROWS)
        c = np.round(0.5 * a + rng.standard_normal(self.ROWS), 1)
        return {"a": a, "b": b, "c": c}

    def make_input(self, op_seed):
        cols = self.columns(op_seed)
        path = self.workdir / f"session-{op_seed}.csv"
        with open(path, "w") as handle:
            handle.write("a,b,c\n")
            handle.writelines(f"{u!r},{v!r},{w!r}\n"
                              for u, v, w in zip(*(cols[k].tolist() for k in "abc")))
        # the columns are made again for the check, so that outputs waiting
        # for their check do not hold them in memory
        return {"path": str(path), "seed": op_seed}

    def release(self, inp):
        Path(inp["path"]).unlink()

    def commands(self, path: str) -> list[list[str]]:
        return [
            ["test", "--data", path, "--x", "a", "--y", "b", "--method", "welch", "--baselines"],
            ["test", "--data", path, "--x", "b", "--y", "c", "--method", "z"],
            ["matrix", "--data", path, "--metric", "tau_kappa"],
            ["matrix", "--data", path, "--metric", "kemeny_rho"],
            ["fit", "--data", path, "--fit-columns", "a,c", "--pipeline"],
            *self.EMBEDDED,
        ]

    def run(self, inp):
        """Run the session in-process as the console script would."""
        results = []
        saved = sys.argv
        try:
            for argv in self.commands(inp["path"]):
                out, err = io.StringIO(), io.StringIO()
                sys.argv = ["kemeny", *argv]
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = kemeny.cli.main(argv)
                results.append((inp["path"], code, out.getvalue(), err.getvalue()))
        finally:
            sys.argv = saved
        return results

    def plain(self, results):
        outputs = []
        for path, code, out, err in results:
            envelope = json.loads(out) if code == 0 else None
            if envelope is not None:
                envelope["command"] = ["<csv>" if a == path else a for a in envelope["command"]]
            outputs.append({"exit": code, "envelope": envelope, "stderr": err})
        return outputs

    def work(self, inp) -> int:
        return 5 * self.ROWS + self.EMBEDDED_ROWS

    def check(self, inp, plain) -> list[str]:
        bad = [f"$.cli_csv[{i}]: exit {o['exit']}: {o['stderr'].strip()}"
               for i, o in enumerate(plain) if o["exit"] != 0 or o["stderr"]]
        if bad:
            return bad
        cols = {name: oracle.Column(v) for name, v in self.columns(inp["seed"]).items()}
        pcs = {(p, q): oracle.pair_counts(cols[p], cols[q])
               for p, q in (("a", "b"), ("a", "c"), ("b", "c"))}
        payloads = [o["envelope"]["payload"] for o in plain]
        want = [
            oracle.welch_payload(cols["a"], cols["b"], pcs["a", "b"], baselines=True),
            oracle.z_payload(pcs["b", "c"]),
            oracle.matrix_payload(cols, pcs, "tau_kappa"),
            oracle.matrix_payload(cols, pcs, "kemeny_rho"),
        ]
        for i, expected in enumerate(want):
            bad += oracle.mismatches(expected, payloads[i], f"$.cli_csv[{i}].payload")
        bad += oracle.fit_payload_checks(["a", "c"], cols["a"], cols["c"], pcs["a", "c"],
                                         payloads[4], self.SCORE_TOL)
        embedded = plain[5:]
        bad += published_mismatches(embedded)
        bad += oracle.mismatches(self.reference[5:], embedded, "$.cli_csv.embedded")
        return bad

    def sizes(self) -> dict:
        return {"csv_rows": self.ROWS, "csv_columns": 3, "csv_commands": 5,
                "embedded_commands": len(self.EMBEDDED)}


WORKLOADS = {w.name: w for w in (ResampleSleep, OrdinalWelch, Population, CliCsv)}
