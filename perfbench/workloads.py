"""The two workloads.

A workload builds its inputs from the seed in ``__init__`` (set-up) and
hands the runner one *round* at a time: a list of ``(label, op)`` pairs,
where each op is one caller-visible unit of work that returns
``(received spaces, payload)``.  Ops call the library through
``self.tr.call`` with module attributes looked up at call time, so a
wrapper installed on, say, ``decspace.operators.merge`` is what runs.

The runner checks every op of the first round in full (``check``) and
requires later rounds to reproduce the first round's ``digest``.  A digest
is small (a hash and a few numbers), so the runner holds no results between
ops and peak memory is the library's own.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from decspace import cli, conversion, harness, model, operators, schemes

import inputs
from tracing import Untraced

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references")
DEFAULT_SEED = 0
JSON_TOL = 1e-6  # percentages in space documents carry six decimals


def space_to_exact(space):
    """Space as JSON-ready data with every float kept exactly (``repr``)."""
    return {
        "schema": [list(a) for a in space.schema.attributes],
        "classes": list(space.class_labels),
        "elements": [
            [[list(map(list, b)) for b in e.region.boxes], list(e.value.weights), e.mass]
            for e in space.elements
        ],
    }


def space_digest(spaces):
    """Hash of spaces with every float kept exactly."""
    text = json.dumps([space_to_exact(sp) for sp in spaces])
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(name):
    with open(os.path.join(REFERENCES, name), encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    name = None
    sizes = {}

    def __init__(self, seed, workdir):
        self.seed = seed
        self.tr = Untraced()

    def tracing(self):
        """Library bindings rebound to traced wrappers during a traced run."""
        return contextlib.nullcontext()

    def close(self):
        """Remove what set-up wrote to disk."""

    def check(self, index, label, result):
        """Failures of a first-round op as (kind, message) pairs."""
        return []

    def digest(self, index, result):
        """What later runs of the op must reproduce."""
        return space_digest(result[0]), result[1]

    def metrics(self, digests):
        """Workload-specific metrics from the first round's digests."""
        return {}


def _validate_all(spaces):
    out = []
    for sp in spaces:
        problems = model.validate(sp)
        if problems:
            out.append(("invalid", f"invalid space: {problems[0]}"))
    return out


class DriftChain(Workload):
    """Recency-biased stream: each batch trains grid learners, merges them
    m-ary, folds the result into the model and scores a held-out set."""

    name = "drift-chain"
    DIMS, DOMAIN_MAX = 2, 10.0
    GRID, LEARNERS, POINTS, BATCHES, DRIFT_AT, TEST = 16, 4, 500, 8, 4, 2000
    CUTS = (0.4, 0.7)  # ground-truth threshold on x0 before / after the drift
    LABELS = ("Hot", "Cold")  # the labels harness.induce_rules learns
    sizes = dict(dims=DIMS, grid=GRID, learners=LEARNERS, points_per_learner=POINTS,
                 batches=BATCHES, drift_at=DRIFT_AT, test_points=TEST)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = inputs.rng_for(self.name, seed)
        self.schema = inputs.schema(self.DIMS, 0.0, self.DOMAIN_MAX)
        self.batches = []
        for b in range(self.BATCHES):
            pts = inputs.uniform_points(rng, self.schema, self.LEARNERS * self.POINTS)
            self.batches.append((pts, self._label(pts, b)))
        self.test_points = inputs.uniform_points(rng, self.schema, self.TEST)
        self.test_labels = self._label(self.test_points, self.BATCHES - 1)
        self._model = None

    def _label(self, points, batch):
        cut = self.CUTS[batch >= self.DRIFT_AT] * self.DOMAIN_MAX
        return np.where(points[:, 0] < cut, self.LABELS[0], self.LABELS[1])

    def round(self):
        self._model = None
        return [(f"batch{b}", lambda b=b: self._update(b)) for b in range(self.BATCHES)]

    def _update(self, b):
        call = self.tr.call
        pts, labels = self.batches[b]
        learners = []
        for i in range(self.LEARNERS):
            sel = slice(i, None, self.LEARNERS)
            rules = call("harness.induce_rules", harness.induce_rules,
                         pts[sel], labels[sel], self.schema, self.GRID)
            learners.append(call("conversion.rules_to_space", conversion.rules_to_space,
                                 rules, self.schema, self.LABELS))
        batch_model = call("operators.merge_nary", operators.merge_nary, learners)
        if self._model is None:
            self._model = batch_model
        else:
            self._model = call("operators.merge", operators.merge, self._model, batch_model)
        preds = call("model.classify_many", model.classify_many, self._model, self.test_points)
        hits = sum(1 for p, l in zip(preds, self.test_labels) if p is not None and p[1] == l)
        return learners + [batch_model, self._model], hits / len(self.test_labels)

    def check(self, index, label, result):
        spaces, accuracy = result
        out = _validate_all(spaces)
        if self.seed == DEFAULT_SEED:
            want = load_reference("drift-chain.json")["accuracies"][index]
            if accuracy != want:
                out.append(("mismatch", f"{label}: accuracy {accuracy} != reference {want}"))
        return out

    def metrics(self, digests):
        post = [acc for _, acc in digests[self.DRIFT_AT:]]
        return {"accuracy": (sum(post) / len(post), "ratio")}


class CliPipeline(Workload):
    """A JSON-document session: convert rule sets and trees, merge, restrict,
    compose, validate, classify 20k points against three results and print
    an impact table, each an in-process ``decspace.cli.main`` call on files
    in a temp directory."""

    name = "cli-pipeline"
    DIMS, DOMAIN_MAX = 2, 64
    MODELS, DEPTH, PARTIAL_KEEP, POINTS = 6, 4, 0.7, 20000
    LABELS = ("A", "B", "C")
    sizes = dict(dims=DIMS, rule_sets=MODELS, trees=MODELS, leaves=2 ** DEPTH,
                 partial_keep=PARTIAL_KEEP, instances=POINTS, classes=len(LABELS))
    # names decspace.cli calls into, traced as child spans of a cli span
    LIBRARY_CALLS = {
        "rules_to_space": "conversion.rules_to_space",
        "execute": "schemes.execute",
        "merge_streaming": "operators.merge_streaming",
        "restrict": "operators.restrict",
        "op_plus": "operators.op_plus",
        "op_barodot": "operators.op_barodot",
        "validate": "model.validate",
    }

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = inputs.rng_for(self.name, seed)
        self.dir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.schema = inputs.schema(self.DIMS, 0.0, float(self.DOMAIN_MAX))
        files = {
            "schema.json": json.dumps([{"name": a.name, "min": a.domain_min,
                                        "max": a.domain_max} for a in self.schema.attributes]),
            "points.csv": "".join(
                ",".join(f"{v:.6f}" for v in row) + "\n"
                for row in inputs.uniform_points(rng, self.schema, self.POINTS)),
        }
        for i in range(self.MODELS):  # odd rule sets cover the domain only partly
            files[f"r{i}.rules"] = self._rules_text(rng, self.PARTIAL_KEEP if i % 2 else 1.0)
            files[f"t{i}.json"] = json.dumps(self._tree_doc(rng))
        for name, text in files.items():
            with open(self.path(name), "w", encoding="utf-8") as fh:
                fh.write(text)
        p = self.path
        convert = ["--schema", p("schema.json"), "--classes", ",".join(self.LABELS)]
        rule_spaces = [p(f"r{i}.space.json") for i in range(self.MODELS)]
        tree_spaces = [p(f"t{i}.space.json") for i in range(self.MODELS)]
        # Converts are over half the ops, so they set op_p50_ms; the three
        # classify calls are over a tenth, so they set op_p90_ms.
        self.commands = (
            [["convert", "--rules", p(f"r{i}.rules"), *convert, "--out", rule_spaces[i]]
             for i in range(self.MODELS)]
            + [["convert", "--tree", p(f"t{i}.json"), *convert, "--out", tree_spaces[i]]
               for i in range(self.MODELS)]
            + [
                ["merge", "--in", *rule_spaces[:4], "--scheme", "balanced",
                 "--out", p("balanced.json")],
                ["merge", "--in", *tree_spaces[:4], "--streaming-unbiased",
                 "--out", p("streamed.json")],
                ["restrict", "--in", p("balanced.json"), rule_spaces[1],
                 "--out", p("restricted.json")],
                ["compose", "--op", "plus", "--in", rule_spaces[4], tree_spaces[4],
                 "--out", p("plus.json")],
                ["compose", "--op", "barodot", "--in", tree_spaces[5], rule_spaces[5],
                 "--out", p("barodot.json")],
                ["validate", "--in", p("balanced.json")],
            ]
            + [["classify", "--space", p(name), "--instances", p("points.csv")]
               for name in ("balanced.json", "streamed.json", "restricted.json")]
            + [["impact", "--scheme", "factored:2x2"]]
        )

    def path(self, name):
        return os.path.join(self.dir, name)

    def close(self):
        for name in os.listdir(self.dir):
            os.remove(self.path(name))
        os.rmdir(self.dir)

    def _rules_text(self, rng, keep):
        """Rule DSL over an integer k-d tiling; ``keep`` < 1 drops tiles."""
        lines = []
        boxes = inputs.kd_boxes(rng, self.schema, self.DEPTH, integer=True)
        for i, box in enumerate(boxes):
            if i and rng.random() > keep:
                continue
            conds = []
            for a, (lo, hi, _, _) in zip(self.schema.attributes, box):
                if lo > a.domain_min:
                    conds.append(f"{a.name} >= {lo:g}")
                if hi < a.domain_max:
                    conds.append(f"{a.name} < {hi:g}")
            lines.append(f"IF {' AND '.join(conds)} THEN {self._outcome(rng)}")
        return "\n".join(lines) + "\n"

    def _outcome(self, rng):
        if rng.random() < 0.5:
            return self.LABELS[int(rng.integers(0, len(self.LABELS)))]
        cuts = np.sort(rng.integers(0, 101, size=len(self.LABELS) - 1))
        shares = np.diff(np.concatenate(([0], cuts, [100])))
        return ", ".join(f"{l} = {int(s)}%" for l, s in zip(self.LABELS, shares))

    def _tree_doc(self, rng):
        """Decision tree splitting like ``inputs.kd_boxes`` with integer cuts;
        leaves carry a label or a distribution."""
        first = int(rng.integers(0, self.DIMS))

        def node(bounds, level):
            if level == self.DEPTH:
                if rng.random() < 0.5:
                    return {"label": self.LABELS[int(rng.integers(0, len(self.LABELS)))]}
                w = rng.integers(1, 100, size=len(self.LABELS))
                return {"value": [float(x) for x in 100.0 * w / w.sum()]}
            k = (first + level) % self.DIMS
            lo, hi = bounds[k]
            cut = inputs.kd_cut(rng, lo, hi, integer=True)
            left, right = list(bounds), list(bounds)
            left[k], right[k] = (lo, cut), (cut, hi)
            return {"attr": f"x{k}", "threshold": cut,
                    "left": node(left, level + 1), "right": node(right, level + 1)}

        return {"classes": list(self.LABELS),
                "tree": node([(0.0, float(self.DOMAIN_MAX))] * self.DIMS, 0)}

    def tracing(self):
        stack = contextlib.ExitStack()
        for attr, name in self.LIBRARY_CALLS.items():
            stack.enter_context(self.tr.rebind(cli, attr, name))
        # execute's own m-ary merges become child spans of schemes.execute
        stack.enter_context(self.tr.rebind(schemes, "merge_nary", "operators.merge_nary"))
        return stack

    def round(self):
        return [(argv[0], lambda argv=argv: self._run(argv)) for argv in self.commands]

    def _run(self, argv):
        return [], self.tr.call(f"cli.{argv[0]}", self._main, argv)

    @staticmethod
    def _main(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    @staticmethod
    def _out_file(argv):
        return argv[argv.index("--out") + 1] if "--out" in argv else None

    def digest(self, index, result):
        code, stdout, stderr = result[1]
        h = hashlib.sha256(f"{code}\0{stdout}\0{stderr}\0".encode())
        out_file = self._out_file(self.commands[index])
        if out_file is not None:
            with open(out_file, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()

    @staticmethod
    def _doc(path):
        with open(path, encoding="utf-8") as fh:
            return model.space_from_json(json.load(fh))

    def check(self, index, label, result):
        code, stdout, stderr = result[1]
        argv = self.commands[index]
        if code != 0:
            return [("exit_code", f"{' '.join(argv[:3])}: exit {code}: {stderr.strip()}")]
        out_file = self._out_file(argv)
        problems = []
        if out_file is not None:
            got = self._doc(out_file)
            problems += _validate_all([got])
            want = self._expected(argv)
            if not model.semantically_equal(got, want, JSON_TOL):
                problems.append(("mismatch", f"{' '.join(argv[:3])}: differs from library"))
        elif label == "classify":
            space = self._doc(argv[2])
            with open(argv[4], encoding="utf-8") as fh:
                pts = [tuple(float(v) for v in line.split(",")) for line in fh]
            want = [p[1] if p else "uncovered" for p in model.classify_many(space, pts)]
            got = [line.split("\t")[1] for line in stdout.splitlines()]
            if got != want:
                problems.append(("mismatch", f"classify {argv[2]}: labels differ"))
        elif label == "impact":
            want = [f"{i}\t{w:.6f}" for i, w in
                    enumerate(schemes.impacts(schemes.build_factored([2, 2])))]
            if stdout.splitlines() != want:
                problems.append(("mismatch", "impact table differs"))
        elif label == "validate" and stdout.strip() != "ok":
            problems.append(("mismatch", "validate did not print ok"))
        return problems

    def _expected(self, argv):
        """Library result for a command, computed from the documents the
        command read."""
        labels = self.LABELS
        if argv[0] == "convert":
            with open(argv[2], encoding="utf-8") as fh:
                text = fh.read()
            if argv[1] == "--rules":
                return conversion.rules_to_space(conversion.parse_ruleset(text),
                                                 self.schema, labels)
            tree, _ = conversion.tree_from_json(json.loads(text))
            return conversion.tree_to_space(tree, self.schema, labels)
        start = argv.index("--in") + 1
        end = next((i for i in range(start, len(argv)) if argv[i].startswith("--")), len(argv))
        ins = [self._doc(f) for f in argv[start:end]]
        if argv[0] == "merge":
            if "--streaming-unbiased" in argv:
                acc = ins[0]
                for sp in ins[1:]:
                    acc = operators.merge_streaming(acc, sp)
                return acc
            return schemes.execute(schemes.build_balanced(len(ins)), ins)
        if argv[0] == "restrict":
            return operators.restrict(*ins)
        op = operators.op_plus if argv[2] == "plus" else operators.op_barodot
        return op(*ins)


WORKLOADS = {w.name: w for w in (DriftChain, CliPipeline)}
