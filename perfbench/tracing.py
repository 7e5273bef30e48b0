"""Spans and per-layer counters, recorded from outside the library.

``Untraced`` calls straight through; ``Tracer`` records one span per public
call the benchmark makes (name, start, end, parent, op id) and keeps the
call's arguments and result until the op ends.  Counters are then computed
from those, outside every timed interval, so they add nothing to a span.
Where one layer calls the next (``schemes.execute`` running m-ary merges,
``decspace.cli`` running the library), ``Tracer.rebind`` traces those calls
too, by swapping a module attribute for the traced run only; nothing in
``src/`` is changed.  Spans stay in memory until ``write`` is called at exit.
"""

import contextlib
import json
import os
import time
from collections import defaultdict
from itertools import count

from decspace import operators
from decspace.model import DecisionSpace

OPERATORS = ("merge", "merge_nary", "merge_streaming", "restrict", "op_plus", "op_barodot")
CLI_COMMANDS = ("convert", "merge", "restrict", "compose", "validate", "classify", "impact")
# layer -> counters computed for it besides calls, busy_s and self_s
LAYERS = {
    "harness.induce_rules": ("cells",),
    "conversion.rules_to_space": ("rules",),
    **{f"operators.{op}": ("in_elements", "in_pairs", "out_elements", "out_boxes")
       for op in OPERATORS},
    "schemes.execute": ("internal_nodes", "max_arity"),
    "model.classify_many": ("points", "box_tests_bound"),
    "model.validate": ("box_pairs",),
    **{f"cli.{c}": () for c in CLI_COMMANDS},
}
# CLI flags whose values name files the command reads
CLI_INPUT_FLAGS = ("--in", "--rules", "--tree", "--schema", "--space", "--instances")


def n_boxes(space):
    return sum(len(e.region.boxes) for e in space.elements)


def _scheme_shape(node):
    """(internal nodes, largest arity) of a scheme tree."""
    if isinstance(node, int):
        return 0, 0
    inner = [_scheme_shape(c) for c in node]
    return 1 + sum(i for i, _ in inner), max([len(node)] + [a for _, a in inner])


def _cli_bytes(argv, out):
    read = 0
    inputs = False
    for tok in argv:
        if tok.startswith("--"):
            inputs = tok in CLI_INPUT_FLAGS
        elif inputs and os.path.isfile(tok):
            read += os.path.getsize(tok)
    written = len(out[1]) + len(out[2])
    if "--out" in argv:
        target = argv[argv.index("--out") + 1]
        if target != "-" and os.path.isfile(target):
            written += os.path.getsize(target)
    return read, written


def counters(name, args, out):
    """Counters of one traced call, as (stat, value) pairs."""
    if name.startswith("operators."):
        operands = list(args[0]) if name == "operators.merge_nary" else list(args[:2])
        sizes = [len(s.elements) for s in operands]
        pairs = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
        yield from (("in_elements", sum(sizes)), ("in_pairs", pairs),
                    ("out_elements", len(out.elements)), ("out_boxes", n_boxes(out)))
        if name == "operators.merge":
            yield "conflict_pairs", len(operators.intersection_report(*args[:2]).pairs)
    elif name == "harness.induce_rules":
        yield "cells", args[3] ** len(args[2])
    elif name == "conversion.rules_to_space":
        yield "rules", len(args[0].rules)
    elif name == "schemes.execute":
        internal, arity = _scheme_shape(args[0].root)
        yield "internal_nodes", internal
        yield "max_arity", arity
    elif name == "model.classify_many":
        yield "points", len(args[1])
        yield "box_tests_bound", len(args[1]) * n_boxes(args[0])
    elif name == "model.validate":
        per = [len(e.region.boxes) for e in args[0].elements]
        yield "box_pairs", (sum(per) ** 2 - sum(b * b for b in per)) // 2
    elif name.startswith("cli."):
        read, written = _cli_bytes(args[0], out)
        yield "bytes_read", read
        yield "bytes_written", written


def span_totals(spans):
    """Calls, busy time and self time per span name.  Self time is a span's
    duration minus that of its children (one thread: children never
    overlap)."""
    calls, busy, child = defaultdict(int), defaultdict(float), defaultdict(float)
    for _, parent, name, start, end, _ in spans:
        calls[name] += 1
        busy[name] += end - start
        child[parent] += end - start
    self_s = defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        self_s[name] += end - start - child[sid]
    return calls, busy, self_s


class Untraced:
    """Calls straight through; the mode end-to-end metrics are measured in."""

    def call(self, name, fn, *args):
        return fn(*args)

    def op(self, op_id):
        return contextlib.nullcontext()

    def rebind(self, module, attr, name):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, op id)
        self._ids = count(1)
        self._stack = [None]
        self._op = None
        self._pending = []  # (name, args, result) awaiting counters
        self.counts = defaultdict(float)

    @contextlib.contextmanager
    def _span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self._op))

    def call(self, name, fn, *args):
        with self._span(name):
            out = fn(*args)
        self._pending.append((name, args, out))
        return out

    @contextlib.contextmanager
    def op(self, op_id):
        self._op = op_id
        try:
            with self._span("op"):
                yield
        finally:
            self._op = None
            self.flush()

    @contextlib.contextmanager
    def rebind(self, module, attr, name):
        """Trace calls the library makes through ``module.attr`` for the
        duration of the block."""
        original = getattr(module, attr)
        setattr(module, attr, lambda *args: self.call(name, original, *args))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def flush(self):
        """Compute counters of the calls recorded since the last flush."""
        pending, self._pending = self._pending, []
        for name, args, out in pending:
            for stat, value in counters(name, args, out):
                self.counts[f"{name}.{stat}"] += value
            if isinstance(out, DecisionSpace):
                self.counts["received.elements"] += len(out.elements)
                self.counts["received.boxes"] += n_boxes(out)

    def layer_metrics(self, rounds):
        """Per-layer metrics per traced round: calls, busy_s and self_s of
        every layer, its counters and the derived ratios.  Dividing by the
        round count keeps them independent of how many rounds a run had time
        for; layers this workload never called read 0."""
        calls, busy, self_s = span_totals(self.spans)
        counts = defaultdict(float, {k: v / rounds for k, v in self.counts.items()})
        out = {}
        for layer, stats in LAYERS.items():
            out[f"{layer}.calls"] = (calls[layer] / rounds, "count/round")
            out[f"{layer}.busy_s"] = (busy[layer] / rounds, "s/round")
            out[f"{layer}.self_s"] = (self_s[layer] / rounds, "s/round")
            for stat in stats:
                out[f"{layer}.{stat}"] = (counts[f"{layer}.{stat}"], "count/round")
        conflicts = counts["operators.merge.conflict_pairs"]
        pairs = counts["operators.merge.in_pairs"]
        out["operators.merge.conflict_pairs"] = (conflicts, "count/round")
        out["operators.merge.useful_pair_ratio"] = (conflicts / pairs if pairs else 0.0, "ratio")
        elements = counts["received.elements"]
        out["geometry.boxes_per_element"] = (
            counts["received.boxes"] / elements if elements else 0.0, "ratio")
        for way in ("read", "written"):
            out[f"cli.bytes_{way}"] = (
                sum(counts[f"cli.{c}.bytes_{way}"] for c in CLI_COMMANDS), "B/round")
        # share of op time spent inside the public calls the op made
        op_ids = {sid for sid, _, name, _, _, _ in self.spans if name == "op"}
        in_calls = sum(end - start for _, parent, _, start, end, _ in self.spans
                       if parent in op_ids)
        out["trace.op_call_frac"] = (in_calls / busy["op"] if busy["op"] else 0.0, "ratio")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, op_id in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "op": op_id}) + "\n")
