"""Compare two sets of benchmark runs, workload by workload and metric by
metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds the result files ``run.py`` writes (``.bench_out`` of
two checkouts, say); traced runs are ignored.  Every end-to-end metric of
``BENCHMARK.json`` is judged against its bound.  ``op_p90_ms`` uses the bound
of ``op_p50_ms``; ``accuracy`` and ``failed_ops_frac`` are deterministic for
a seed, so any change on a shared seed counts.

A verdict is ``regressed`` or ``improved`` when the medians differ by more
than the bound, ``unchanged`` when they do not, and ``unresolved`` when the
run-to-run spread (interquartile range over median) of either side is wider
than the bound, unless every run of one side beats every run of the other.
"""

import glob
import json
import math
import os
import statistics
import sys
from dataclasses import dataclass

EXACT = {"accuracy": "higher", "failed_ops_frac": "lower"}


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: float
    change: float
    worse_frac: float  # how much worse the change's median is, as a share of the base's
    spread: float
    verdict: str


def _spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else math.inf)


def _worse(base, change, better):
    diff = change - base if better == "lower" else base - change
    if base:
        return diff / abs(base)
    return 0.0 if diff == 0 else math.copysign(math.inf, diff)


def verdict(base, change, better, bound):
    """Verdict and (worse share, spread) for two lists of one metric."""
    worse = _worse(statistics.median(base), statistics.median(change), better)
    spread = max(_spread(base), _spread(change))
    if spread > bound:
        if all(_worse(b, c, better) < 0 for b in base for c in change):
            return "improved", worse, spread
        if all(_worse(b, c, better) > 0 for b in base for c in change):
            return "regressed", worse, spread
        return "unresolved", worse, spread
    if worse > bound:
        return "regressed", worse, spread
    if worse < -bound:
        return "improved", worse, spread
    return "unchanged", worse, spread


def _exact_row(workload, base_docs, change_docs, metric, better):
    """Deterministic metrics: compare runs of the same seed."""
    def by_seed(docs):
        return {d["provenance"]["seed"]: d["end_to_end"][metric]["value"] for d in docs
                if metric in d["end_to_end"]}

    base, change = by_seed(base_docs), by_seed(change_docs)
    shared = sorted(set(base) & set(change))
    if not shared:
        return None
    worse = [_worse(base[s], change[s], better) for s in shared]
    verdict_ = ("regressed" if any(w > 0 for w in worse) else
                "improved" if any(w < 0 for w in worse) else "unchanged")
    return Row(workload, metric, statistics.median(base[s] for s in shared),
               statistics.median(change[s] for s in shared), max(worse), 0.0, verdict_)


def compare(base_docs, change_docs, spec):
    """Rows for every workload and end-to-end metric both sides measured."""
    metrics = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    metrics["op_p90_ms"] = metrics["op_p50_ms"]
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        base = [d for d in base_docs if d["workload"] == workload]
        change = [d for d in change_docs if d["workload"] == workload]
        if not base or not change:
            continue
        for metric, better in EXACT.items():
            row = _exact_row(workload, base, change, metric, better)
            if row is not None:
                rows.append(row)
        for metric, (better, bound) in metrics.items():
            b = [d["end_to_end"][metric]["value"] for d in base if metric in d["end_to_end"]]
            c = [d["end_to_end"][metric]["value"] for d in change if metric in d["end_to_end"]]
            if b and c:
                v, worse, spread = verdict(b, c, better, bound)
                rows.append(Row(workload, metric, statistics.median(b),
                                statistics.median(c), worse, spread, v))
    return rows


def load_results(directory):
    docs = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    return docs


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load_results(argv[0]), load_results(argv[1]), spec)
    for r in rows:
        print(f"{r.workload:13} {r.metric:16} base {r.base:<12.6g} change {r.change:<12.6g} "
              f"worse {r.worse_frac:+.3f} spread {r.spread:.3f} {r.verdict}")
    return 1 if any(r.verdict == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
