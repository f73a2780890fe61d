#!/usr/bin/env python3
"""Benchmark driver for the kemeny package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or any checkout of it).  NAME is one of
resample_sleep, ordinal_welch, population, cli_csv, or ``all`` to run the
four in turn.  A run is a closed loop with one client: it makes the next
op's inputs from the seed, times the op, and repeats until S seconds of
timed work have run; then it checks every output.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it record the environment and every metric by name and unit.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every op twice,
plain and traced, and reports the per-layer metrics; see README.md.
"""

import os

# Pin BLAS/OpenMP pools before numpy loads: OpenBLAS would otherwise start
# one thread per core for population's matmul, invisible to the tracer.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOAD_NAMES = ("resample_sleep", "ordinal_welch", "population", "cli_csv")
#: fresh-process set-ups per run; setup_s is their median
SETUP_PROBES = 3
#: calibration kernel time that setup_s is scaled to: the kernel's median
#: on the machine the benchmark was written on
CALIBRATION_REF_S = 0.0025
#: op_p90_ms is reported only with at least this many ops
P90_MIN_OPS = 100
SELF_CHECK_RTOL = 1e-9
#: largest share of traced op time allowed outside every span: each op is
#: one call of a package entry point, so more means the entry went unwrapped
UNATTRIBUTED_MAX_FRAC = 0.01


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def op_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def environment(wl) -> dict:
    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "kemeny").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".csv"):
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = res.stdout.strip() or None
    return {
        "machine": platform.node(),
        "arch": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": read("/sys/devices/system/cpu/cpu0/cache/index2/size"),
        "l3": read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "sizes": wl.sizes(),
    }


def setup(name: str, workdir: Path):
    """Import, load, and run the untimed warm-up op (the pinned reference op)."""
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())
    wl = workloads.WORKLOADS[name]()
    wl.prepare(workdir, reference)
    inp = wl.make_input(workloads.REFERENCE_SEED)
    out = wl.run(inp)
    return wl, inp, out


def probe_setups(args, data) -> tuple[list[float], list[float]]:
    """Time SETUP_PROBES fresh processes from spawn to the end of set-up.

    Returns the raw times and the times scaled by the calibration kernel
    timed just before and just after each probe (see ``calibration_s``).
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-probe"]
        before = calibration_s(data)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {line!r}")
        after = calibration_s(data)
        raw.append(elapsed)
        scaled.append(CALIBRATION_REF_S * 2.0 * elapsed / (before + after))
    return raw, scaled


def check_op(wl, inp, plain) -> list[str]:
    try:
        return wl.check(inp, plain)
    except Exception:  # a check that cannot run counts the op as failed
        return ["check raised:\n" + traceback.format_exc()]


def check_reference_op(wl, inp, plain) -> list[str]:
    """The warm-up op against reference.json and against the oracles."""
    problems = wl.check_reference(plain) + check_op(wl, inp, plain)
    wl.release(inp)
    report_failures("reference op", problems)
    return problems


def report_failures(label: str, problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"FAIL {label}: {line}", file=sys.stderr)
    if len(problems) > 20:
        print(f"FAIL {label}: ... {len(problems) - 20} more", file=sys.stderr)


def timed(fn, arg):
    start = time.perf_counter()
    try:
        out, err = fn(arg), None
    except Exception:  # the op boundary: record and keep running
        out, err = None, traceback.format_exc()
    return out, err, time.perf_counter() - start


def calibration_data():
    return np.random.default_rng(0).standard_normal(100_000)


def calibration_s(data) -> float:
    """Median of three runs of a fixed kernel that does not touch the
    package: a sort of ``data`` (100,000 floats) and a 20,000-step Python
    loop.  Times divided by it move with the package's code, not with the
    speed of a shared host."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        np.sort(data)
        acc = 0
        for i in range(20_000):
            acc += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_plain(wl, args, data, spill: Path) -> dict:
    """Timed closed loop.  The calibration kernel runs between ops, and each
    op's time is also reported relative to the mean of the kernel times just
    before and after it.  Each op's plain output goes to the ``spill`` file
    and is dropped, so the peak RSS read after the loop does not grow with
    the number of ops; the outputs are checked after that, so neither the
    checks' time nor their memory is measured."""
    durations, relative, work, k = [], [], 0, 0
    before = calibration_s(data)
    calibrations = [before]
    with open(spill, "wb") as sink:
        while sum(durations) < args.seconds:
            inp = wl.make_input(op_seed(args.seed, k))
            out, err, dt = timed(wl.run, inp)
            after = calibration_s(data)
            durations.append(dt)
            relative.append(2.0 * dt / (before + after))
            calibrations.append(after)
            before = after
            pickle.dump((inp, err or wl.plain(out)), sink)
            del out
            work += wl.work(inp)
            k += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = 0
    with open(spill, "rb") as source:
        for k in range(len(durations)):
            inp, plain = pickle.load(source)
            problems = [plain] if isinstance(plain, str) else check_op(wl, inp, plain)
            if problems:
                failed += 1
                report_failures(f"op {k}", problems)
            wl.release(inp)
    return {"durations": durations, "relative": relative, "calibrations": calibrations,
            "failed": failed, "work": work, "peak_rss_mb": peak_rss_mb}


def run_traced(wl, args) -> dict:
    """Each op runs plain and traced, in alternating order so that neither
    side always finds warmer caches; the two outputs must be identical."""
    from tracer import Tracer

    tracer = Tracer()
    plain_t, traced_t, failed, k, unwrapped = [], [], 0, 0, []
    while sum(plain_t) < args.seconds / 2:
        inp = wl.make_input(op_seed(args.seed, k))
        runs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                tracer.op = k
                tracer.install()
                if k == 0:
                    unwrapped = tracer.unwrapped_bindings()
            try:
                runs[traced] = timed(wl.run, inp)
            finally:
                if traced:
                    tracer.remove()
        (out, err, dt), (out_t, err_t, dt_t) = runs[False], runs[True]
        plain_t.append(dt)
        traced_t.append(dt_t)
        problems = [e for e in (err, err_t) if e]
        if not problems:
            plain = wl.plain(out)
            if plain != wl.plain(out_t):
                problems.append("traced output differs from untraced output")
            problems += check_op(wl, inp, plain)
        if problems:
            failed += 1
            report_failures(f"op {k}", problems)
        wl.release(inp)
        k += 1
    return {"plain": plain_t, "traced": traced_t, "failed": failed, "spans": tracer.spans,
            "unwrapped": unwrapped}


def layer_metrics(wl, traced: dict) -> tuple[dict, list[str]]:
    """Per-op layer metrics and the tracer self-check."""
    from tracer import LAYERS, OP, PARENT, START, END, analyse, work_counts

    spans, ops = traced["spans"], len(traced["traced"])
    result = analyse(spans)
    counts = work_counts(spans)
    wall = sum(traced["traced"])
    root_by_op = [0.0] * ops
    for s in spans:
        if s[PARENT] < 0:
            root_by_op[s[OP]] += s[END] - s[START]
    unattributed = [dt - root for dt, root in zip(traced["traced"], root_by_op)]
    self_total = sum(t["self_s"] for t in result["layers"].values())

    # the sum holds by construction (exclusive span times add up to the root
    # spans); the unattributed share and the unwrapped bindings below are
    # the checks that catch a function the tracer missed
    problems = [f"unwrapped cross-layer binding {b}" for b in traced["unwrapped"]]
    if abs(self_total + sum(unattributed) - wall) > SELF_CHECK_RTOL * wall:
        problems.append(f"self times {self_total} + unattributed {sum(unattributed)} != wall {wall}")
    worst = max(u / dt for u, dt in zip(unattributed, traced["traced"]))
    if worst > UNATTRIBUTED_MAX_FRAC:
        problems.append(f"unattributed time is {worst:.3g} of an op (> {UNATTRIBUTED_MAX_FRAC})")
    if min(unattributed) < 0 or result["min_exclusive_s"] < -1e-9 or result["escaped_children"]:
        problems.append("span nesting is inconsistent")
    if wl.pair_counts_per_op is not None:
        want = wl.pair_counts_per_op * ops
        if counts["core.pair_counts.calls"] != want:
            problems.append(f"core.pair_counts calls {counts['core.pair_counts.calls']} != {want}")

    metrics = {}
    for layer in LAYERS:
        t = result["layers"][layer]
        metrics[f"{layer}.calls"] = (t["calls"] / ops, "count/op")
        metrics[f"{layer}.busy_s"] = (t["busy_s"] / ops, "s/op")
        metrics[f"{layer}.self_s"] = (t["self_s"] / ops, "s/op")
        metrics[f"{layer}.errors"] = (t["errors"] / ops, "count/op")
    metrics["unattributed.self_s"] = (sum(unattributed) / ops, "s/op")
    for name, value in counts.items():
        unit = "ratio" if name.endswith("ratio") else "count/op"
        metrics[name] = (value if unit == "ratio" else value / ops, unit)
    metrics["trace_overhead_frac"] = (wall / sum(traced["plain"]) - 1.0, "ratio")
    return metrics, problems


def emit(metrics: dict, attempted: int, failed: int, correct: bool, report: dict) -> None:
    for name, (value, unit) in report.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def run_one(args) -> int:
    import workloads  # noqa: F401  (fails fast when the package is missing)

    data = None if args.setup_probe else calibration_data()
    setup_raw, setup_scaled = ([], []) if args.trace or args.setup_probe else probe_setups(args, data)
    workdir = ROOT / ".bench_build" / "perfbench" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup(args.workload, workdir)
            print("ready", flush=True)
            return 0
        wl, ref_inp, ref_out = setup(args.workload, workdir)
        ref_plain = wl.plain(ref_out)

        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print("env " + json.dumps(environment(wl), sort_keys=True))
        if args.trace:
            traced = run_traced(wl, args)
            ref_problems = check_reference_op(wl, ref_inp, ref_plain)
            metrics, problems = layer_metrics(wl, traced)
            report_failures("tracer self-check", problems)
            attempted = len(traced["traced"]) + 1
            failed = traced["failed"] + bool(ref_problems)
            correct = failed == 0 and not problems
            report = dict(metrics)
            report["wall_s.plain"] = (sum(traced["plain"]), "s")
            report["wall_s.traced"] = (sum(traced["traced"]), "s")
            emit(metrics, attempted, failed, correct, report)
            return 0 if correct else 1

        res = run_plain(wl, args, data, workdir / "outputs.pickle")
        ref_problems = check_reference_op(wl, ref_inp, ref_plain)
        durations = res["durations"]
        wall = sum(durations)
        attempted = len(durations) + 1
        failed = res["failed"] + bool(ref_problems)
        ms = sorted(d * 1e3 for d in durations)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "op_p50_rel": (statistics.median(res["relative"]), "ratio"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
        report = {
            "setup_s": metrics["setup_s"],
            "setup_raw_s": (statistics.median(setup_raw), "s"),
            "wall_s": (wall, "s"),
            f"{wl.work_unit}_per_s": (res["work"] / wall, "1/s"),
            "op_p10_ms": (ms[math.ceil(0.1 * len(ms)) - 1], "ms"),
            "op_p50_ms": (statistics.median(ms), "ms"),
        }
        if len(ms) >= P90_MIN_OPS:
            report["op_p90_ms"] = (statistics.quantiles(ms, n=10)[8], "ms")
        report["ops"] = (len(ms), "count")
        report["calibration_ms"] = (statistics.median(res["calibrations"]) * 1e3, "ms")
        report["op_p50_rel"] = metrics["op_p50_rel"]
        report["failed_frac"] = (failed / attempted, "ratio")
        report["peak_rss_mb"] = metrics["peak_rss_mb"]
        correct = failed == 0
        emit(metrics, attempted, failed, correct, report)
        return 0 if correct else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
