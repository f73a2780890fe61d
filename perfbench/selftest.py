#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and oracles, on small inputs.

    python3 perfbench/selftest.py

A plain script, not a pytest module, so the repository's test suite does
not collect it.  Exits non-zero on the first failed assertion.
"""

import sys

import numpy as np

import run  # noqa: F401  (pins the thread pools and puts the package on sys.path)

import kemeny
import kemeny.bootstrap
import kemeny.cli
import kemeny.core
import oracle
import tracer


def bindings() -> dict:
    """Identity of every function reachable from the package's namespaces."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "kemeny" or name.startswith("kemeny."):
            for attr, obj in vars(module).items():
                if callable(obj):
                    found[(name, attr)] = id(obj)
    for dname, d in (("METHODS", kemeny.bootstrap.METHODS),
                     ("_MATRIX_METRICS", kemeny.cli._MATRIX_METRICS)):
        for key, obj in d.items():
            found[(dname, key)] = id(obj)
    for cls in (kemeny.moments.IntHistogram, kemeny.datasets.Dataset):
        for attr, obj in vars(cls).items():
            found[(cls.__name__, attr)] = id(obj)
    return found


def test_tracer_restores_and_counts():
    before = bindings()
    rng = np.random.default_rng(3)
    x, y = rng.integers(0, 5, 200).astype(float), rng.standard_normal(200)
    plain = kemeny.bootstrap.METHODS["kemeny_t_welch"](x, y)
    t = tracer.Tracer()
    t.install()
    try:
        assert kemeny.bootstrap.METHODS["tau_kappa"] is not kemeny.core.tau_kappa.__wrapped__
        traced = kemeny.bootstrap.METHODS["kemeny_t_welch"](x, y)
        try:
            kemeny.core.sin_transform(2.0)
        except kemeny.ValidationError:
            pass
    finally:
        t.remove()
    assert bindings() == before, "tracer left a wrapper bound"
    assert traced == plain
    counts = tracer.work_counts(t.spans)
    assert counts["core.pair_counts.calls"] == 2
    assert counts["core.pairs_scored"] == 2 * 200 * 199 // 2
    layers = tracer.analyse(t.spans)["layers"]
    assert layers["hypotests"]["calls"] == 1 and layers["core"]["errors"] == 1
    assert layers["special"]["calls"] >= 1
    total_self = sum(v["self_s"] for v in layers.values())
    roots = sum(s[tracer.END] - s[tracer.START] for s in t.spans if s[tracer.PARENT] < 0)
    assert abs(total_self - roots) <= 1e-9 * roots


def test_unwrapped_bindings():
    t = tracer.Tracer()
    t.install()
    try:
        assert t.unwrapped_bindings() == []
        kemeny.hypotests._leak = kemeny.core._count_inversions
        assert t.unwrapped_bindings() == [
            "kemeny.hypotests._leak: kemeny.core._count_inversions"]
    finally:
        del kemeny.hypotests._leak
        t.remove()


def test_inversions_and_pair_counts():
    rng = np.random.default_rng(4)
    for n in (1, 2, 3, 7, 64, 65, 300):
        a = rng.integers(0, 6, n)
        brute = sum(int(a[i] > a[j]) for i in range(n) for j in range(i + 1, n))
        assert oracle.inversions(a) == brute, n
    x = np.round(rng.standard_normal(300), 1)
    y = rng.integers(0, 4, 300).astype(float)
    pc = oracle.pair_counts(oracle.Column(x), oracle.Column(y))
    ref = kemeny.core.pair_counts(x, y, method="quadratic")
    assert pc["s"] == ref.concordant - ref.discordant
    assert (pc["tx"], pc["ty"]) == (ref.ties_x, ref.ties_y)


def test_contingency_and_weighted_scoring():
    rng = np.random.default_rng(5)
    xi, yi = rng.integers(0, 5, 400), rng.integers(0, 5, 400)
    table = np.bincount(5 * xi + yi, minlength=25).reshape(5, 5)
    s, n, tx, ty = oracle.table_pair_counts(table)
    ref = kemeny.core.pair_counts(xi, yi, method="quadratic")
    assert (s, n, tx, ty) == (ref.concordant - ref.discordant, 400, ref.ties_x, ref.ties_y)

    sleep = kemeny.load_sleep()
    x, y = np.array(sleep.column("group")), np.array(sleep.column("extra"))
    idx = rng.integers(0, x.size, 90)
    w = np.bincount(idx, minlength=x.size).astype(float)
    got = oracle.sleep_replicate(x, y, w)
    for tag, value in got.items():
        want = float(kemeny.bootstrap.METHODS[tag](x[idx], y[idx]))
        assert oracle.close(want, value), (tag, want, value)


def test_comparison_rules():
    assert oracle.mismatches({"a": 1, "b": [0.1, True]}, {"a": 1, "b": [0.1 + 1e-12, True]}) == []
    assert oracle.mismatches(3, 4) and oracle.mismatches(True, 1) and oracle.mismatches(1.0, 1.001)
    assert oracle.mismatches({"a": 1}, {"b": 1}) and oracle.mismatches([1], [1, 2])


def main() -> int:
    tests = [obj for name, obj in globals().items() if name.startswith("test_")]
    for test in tests:
        test()
        print(f"ok {test.__name__}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
