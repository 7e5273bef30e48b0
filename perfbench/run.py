"""Layered end-to-end benchmark of decspace.

    python3 perfbench/run.py --workload drift-chain --seed 0 --seconds 10 --trace 0

Drives the library in ``src/`` of the checkout this file sits in, from one
process and thread, as a closed loop with one caller that waits for each
result.  Workloads and metrics are named in ``BENCHMARK.json`` at the
checkout root.

Set-up is the imports, then input generation and one warm-up op, done
three times: before the timed rounds and after each third of them, each time
replacing the workload.  ``setup_s`` is the import time plus the median of
the three, and the result file keeps every part.  Timed rounds run until
the ops have taken ``--seconds``.  The first time each op runs, its output
is checked in full; later runs must reproduce it.  Checks run between ops
and are not timed.  ``--trace 0`` measures the end-to-end metrics.

Every round runs the same ops on the same inputs, so each op is timed once
per round.  On a shared host an op's runs fall into the host's usual,
contended speed and quieter spells up to twice as fast, which come and go
in phases of seconds to minutes; whether a run catches a quiet spell, and
for how long, is luck, while the contended speed is much the same from run
to run.  Each op's time is therefore the 90th percentile of its runs over
the rounds, the time nine runs in ten of it stay within: ``ops_per_s`` is
the ops of a round over the sum of these times, ``op_p50_ms`` the median op
time.  A change that makes an op slower makes every run of it slower, so it
moves them.  The whole-run figures, ops over their total time
(``wall_ops_per_s``) and the median and 90th percentile of every op run
(``wall_op_p50_ms``, ``op_p90_ms``), are in the result file.

An op *fails* when it raises, exits with an unexpected code, or returns
a result that differs from its reference, from the library or from its
own first run; a failure also makes the run incorrect.  A result that
shows a known library defect (a space that fails ``model.validate``) is a
*defect*: it is reported on every run, counted in ``failed_ops_frac`` with
the failures, and does not fail the op.

``--trace 1`` times half of ``--seconds`` untraced, then as many rounds
traced, and reports the per-layer metrics of the traced half divided by its
round count, so they describe one round whatever the run length; spans go
to ``.bench_out/``.

Every line but the last is a human-readable report (provenance, every
metric with its unit, failures).  The last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller result
file with provenance and the workload-specific metrics (``op_p90_ms``,
``accuracy``, ``failed_ops_frac``) is written to ``.bench_out/`` for
``compare.py``.
"""

import time

_START = time.perf_counter()

import argparse
import json
import os
import platform
import resource
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
MIN_P90_OPS = 100  # ten samples beyond the 90th percentile
FAILURE_KINDS = ("exception", "exit_code", "mismatch")
DEFECT_KINDS = ("invalid",)


class BenchError(Exception):
    """The benchmark cannot run here (no library, no BENCHMARK.json)."""


def load_library():
    """Import decspace from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "decspace", "__init__.py")):
        raise BenchError(f"no decspace package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import decspace

    if os.path.dirname(os.path.dirname(os.path.abspath(decspace.__file__))) != SRC:
        raise BenchError(f"decspace imported from {decspace.__file__}, not {SRC}")
    return decspace


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"missing {path}")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _round(wl, tracer, first, log, latencies, failures):
    """One round of ops.  The first time an op index runs, its output is
    checked in full and its digest kept in ``first``; after that it must
    reproduce that digest."""
    for i, (label, op) in enumerate(wl.round()):
        with tracer.op(len(failures)):
            t0 = time.perf_counter()
            try:
                result, error = op(), None
            except Exception as exc:  # a failed op is data, not a crash
                result, error = None, exc
            latencies.append(time.perf_counter() - t0)
        if error is not None:
            problems = [("exception", f"{label}: {type(error).__name__}: {error}")]
        elif i not in first:
            problems = wl.check(i, label, result)
            first[i] = (wl.digest(i, result), problems)
        elif wl.digest(i, result) == first[i][0]:
            problems = first[i][1]
        else:
            problems = [("mismatch", f"{label}: differs from its first run")]
        failures.append(problems)
        for kind, message in problems:
            log[kind].append(message)


def _set_up(cls, seed):
    """Build a workload's inputs from the seed and run one warm-up op;
    returns the workload and the time that took."""
    t0 = time.perf_counter()
    wl = cls(seed, OUT_DIR)
    try:
        wl.round()[0][1]()  # untimed warm-up op
    except Exception:  # the next timed round runs it again and records it
        pass
    return wl, time.perf_counter() - t0


def run(workload, seed, seconds, trace, import_s=0.0):
    """One benchmark run; returns the full result document.  ``import_s``
    is the import time already paid, counted into ``setup_s``."""
    load_library()
    from decspace import geometry
    import numpy
    import tracing
    import workloads

    spec = load_spec()
    os.makedirs(OUT_DIR, exist_ok=True)
    cls = workloads.WORKLOADS[workload]
    timed = seconds / 2 if trace else seconds

    wl = None
    first, log, fails = {}, {kind: [] for kind in FAILURE_KINDS + DEFECT_KINDS}, []
    tracer = None
    try:
        wl, took = _set_up(cls, seed)
        setups, per_round = [took], []
        while not per_round or sum(map(sum, per_round)) < timed:
            per_round.append([])
            _round(wl, wl.tr, first, log, per_round[-1], fails)
            # The workload is set up again after each third of the timed run,
            # so that setup_s samples the machine across the run, as the ops
            # do, rather than in one short window.  The old one is closed
            # first, so no two sets of inputs are ever held at once.
            while (len(setups) < SETUP_REPEATS
                   and sum(map(sum, per_round)) >= len(setups) * timed / SETUP_REPEATS):
                wl.close()
                wl = None
                wl, took = _set_up(cls, seed)
                setups.append(took)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        layer = {}
        if trace:
            tracer = wl.tr = tracing.Tracer()
            traced = []
            with wl.tracing():
                for _ in per_round:
                    traced.append([])
                    _round(wl, tracer, first, log, traced[-1], fails)
            layer = tracer.layer_metrics(len(traced))
            layer["trace.overhead_frac"] = (
                sum(map(sum, traced)) / sum(map(sum, per_round)) - 1.0, "ratio")
    finally:
        if wl is not None:
            wl.close()

    failed = sum(1 for f in fails if any(kind in FAILURE_KINDS for kind, _ in f))
    defective = sum(1 for f in fails if f) - failed
    lat = [x for r in per_round for x in r]
    per_op = [statistics.quantiles(times, n=10, method="inclusive")[-1]
              if len(times) > 1 else times[0] for times in zip(*per_round)]
    e2e = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "ops_per_s": (len(per_op) / sum(per_op), "1/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "wall_ops_per_s": (len(lat) / sum(lat), "1/s"),
        "wall_op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "failed_ops_frac": ((failed + defective) / len(fails), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if len(lat) >= MIN_P90_OPS:
        e2e["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1e3, "ms")
    e2e.update(wl.metrics([first[i][0] for i in sorted(first)]))
    doc = {
        "workload": workload,
        "provenance": {
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "sizes": cls.sizes,
            "kernel_backend": geometry.KERNEL_BACKEND,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        # setup_s is the median set-up; the first one also pays every
        # first-call cost (lazy imports, caches) and is kept here
        "setup_parts_s": {"import": import_s, "set_ups": setups},
        "ops": len(lat),
        "rounds": len(per_round),
        "round_latencies_ms": [[x * 1e3 for x in r] for r in per_round],
        "attempted": len(fails),
        "failed": failed,
        "defective": defective,
        "failures": {k: len(v) for k, v in log.items()},
        "failure_examples": {k: v[:3] for k, v in log.items() if v},
        "correct": not failed,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layer.items()},
    }
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = layer if trace else e2e
    doc["metrics"] = {}
    for m in listed:
        if m["name"] not in measured or measured[m["name"]][1] != m["unit"]:
            raise BenchError(f"BENCHMARK.json lists {m['name']} [{m['unit']}], "
                             f"which this run does not measure")
        doc["metrics"][m["name"]] = {"value": measured[m["name"]][0], "unit": m["unit"]}

    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    return doc


def report(doc):
    """Human-readable lines, then the one-line result the contract asks for."""
    p = doc["provenance"]
    print(f"workload {doc['workload']} seed {p['seed']} backend {p['kernel_backend']} "
          f"python {p['python']} numpy {p['numpy']} sizes {json.dumps(p['sizes'])}")
    parts = doc["setup_parts_s"]
    print(f"set-up: import {parts['import']:.4f} s, then "
          + ", ".join(f"{t:.4f}" for t in parts["set_ups"]) + " s")
    print(f"ops {doc['ops']} in {doc['rounds']} rounds, failed {doc['failed']}, "
          f"showing a library defect {doc['defective']} ({json.dumps(doc['failures'])})")
    for kind, examples in doc["failure_examples"].items():
        for message in examples:
            print(f"{'defect' if kind in DEFECT_KINDS else 'failure'} {kind}: {message}")
    for section in ("end_to_end", "per_layer"):
        for name, m in doc[section].items():
            print(f"{section} {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        load_library()
        import workloads  # noqa: F401  (imported here so set-up counts it)

        doc = run(args.workload, args.seed, args.seconds, args.trace,
                  import_s=time.perf_counter() - _START)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
