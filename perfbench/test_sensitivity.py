"""Self-tests of the benchmark.

    python3 -m pytest perfbench/test_sensitivity.py

The sensitivity test slows ``decspace.operators.merge`` from here, never in
``src/``, runs ``drift-chain`` and ``cli-pipeline`` with and without the
slowdown and feeds both sets to the benchmark's own comparison.  It models a
regression in the large-space overlay path: a merge whose operands form more
than ``LARGE_PAIRS`` candidate pairs spins for ``SLOWDOWN`` times its own
duration afterwards.  ``drift-chain`` folds ~100-200-element spaces (about
10^4 pairs per merge), and merge is about two fifths of its round, so its
rounds take about 1.6 times as long and ``ops_per_s`` drops by about 0.38,
half as much again as the 0.25 bound; it must be flagged.  (With merge only
twice as slow, ``ops_per_s`` drops by about 0.29; on a shared 2-vCPU VM,
where identical runs differ by 20%, that came out unresolved.)
``cli-pipeline`` merges only inside ``compose``, on spaces of at most 16
elements (at most 256 pairs), and must come out unchanged or unresolved,
never regressed.
"""

import contextlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import run  # noqa: E402

run.load_library()

from decspace import operators  # noqa: E402

import tracing  # noqa: E402

SLOWDOWN = 1.5
LARGE_PAIRS = 1000
SEEDS = (11, 12, 13, 14, 15)


@contextlib.contextmanager
def slowed_merge():
    original = operators.merge

    def slow(x, y, *args, **kwargs):
        start = time.perf_counter()
        out = original(x, y, *args, **kwargs)
        if len(x.elements) * len(y.elements) <= LARGE_PAIRS:
            return out
        end = time.perf_counter() + SLOWDOWN * (time.perf_counter() - start)
        while time.perf_counter() < end:
            pass
        return out

    operators.merge = slow
    try:
        yield
    finally:
        operators.merge = original


def test_slowed_merge_regresses_drift_chain_only():
    spec = run.load_spec()
    seconds = spec["run_seconds"]
    base, slowed = [], []
    for seed in SEEDS:
        for workload in ("drift-chain", "cli-pipeline"):
            base.append(run.run(workload, seed, seconds, 0))
            with slowed_merge():
                slowed.append(run.run(workload, seed, seconds, 0))
    rows = compare.compare(base, slowed, spec)
    for r in rows:
        print(r)
    verdicts = {(r.workload, r.metric): r.verdict for r in rows}
    assert verdicts["drift-chain", "ops_per_s"] == "regressed"
    assert verdicts["drift-chain", "op_p50_ms"] == "regressed"
    for metric in ("ops_per_s", "op_p50_ms", "failed_ops_frac"):
        assert verdicts["cli-pipeline", metric] in ("unchanged", "unresolved")


def test_verdicts():
    bound = 0.1
    assert compare.verdict([10, 10.2, 9.9], [10.1, 9.8, 10], "lower", bound)[0] == "unchanged"
    assert compare.verdict([10, 10.2, 9.9], [13, 13.1, 12.9], "lower", bound)[0] == "regressed"
    assert compare.verdict([10, 10.2, 9.9], [13, 13.1, 12.9], "higher", bound)[0] == "improved"
    assert compare.verdict([5, 10, 15], [6, 11, 16], "lower", bound)[0] == "unresolved"
    assert compare.verdict([5, 6, 7], [15, 20, 25], "lower", bound)[0] == "regressed"


def test_self_time_subtracts_children():
    # (id, parent, name, start, end, op): an op running execute, which runs
    # two m-ary merges
    spans = [(2, 1, "operators.merge_nary", 1.0, 3.0, 0),
             (3, 1, "operators.merge_nary", 3.5, 4.0, 0),
             (1, 0, "schemes.execute", 0.5, 4.5, 0),
             (0, None, "op", 0.0, 5.0, 0)]
    calls, busy, self_s = tracing.span_totals(spans)
    assert calls["operators.merge_nary"] == 2
    assert busy["schemes.execute"] == 4.0
    assert self_s["schemes.execute"] == 1.5
    assert self_s["operators.merge_nary"] == busy["operators.merge_nary"] == 2.5
    assert self_s["op"] == 1.0
