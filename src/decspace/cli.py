"""Command-line interface.

Exit codes: 0 on success, 1 on operational errors (I/O, parse failures,
schema mismatches, bad flags), 2 on semantic validation failures
(overlapping rules, invalid space documents, a proven law failing).
An unreadable or malformed input exits 1 with one ``error:`` line on
stderr that names the file at fault (or, for a rule or tree naming an
attribute the schema lacks, the attribute); it never ends in a traceback.
A command that runs out of memory, such as ``simulate`` on a grid too
large to allocate, exits 1 with one ``error:`` line too.
Every JSON document is read through ``_read_doc``, and ``main`` is the one
place that turns a rejected input into an exit code.
All output is deterministic given inputs and flags.
"""

import argparse
import contextlib
import json
import math
import sys
from functools import reduce
from operator import methodcaller

import numpy as np

from .conversion import (
    OverlappingRulesError,
    RuleSyntaxError,
    parse_ruleset,
    rules_to_space,
    tree_from_json,
    tree_to_space,
)
from .harness import STRATEGIES, StreamConfig, run_experiment
from .laws import report as law_report
from .laws import run_all as run_laws
from .model import (
    AttributeSchema,
    covering_elements,
    space_from_json,
    space_to_json,
    validate,
)
from .operators import merge_streaming, op_barodot, op_plus, restrict
from .schemes import (
    MergeScheme,
    build_balanced,
    build_chain,
    build_factored,
    execute,
    impacts,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVALID = 2


class CliError(Exception):
    def __init__(self, message, code=EXIT_ERROR):
        super().__init__(message)
        self.code = code


def _read_text(path):
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _write_text(path, text):
    try:
        if path == "-":
            sys.stdout.write(text)
            return
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from exc


def _read_doc(path, parse, what):
    """``parse`` of the JSON document at ``path``; a document that ``parse``
    rejects is reported as not being ``what``."""
    try:
        doc = json.loads(_read_text(path))
    # ValueError: JSONDecodeError, or an integer past int's digit limit;
    # RecursionError: arrays or objects nested past the interpreter's limit
    except (ValueError, RecursionError) as exc:
        raise CliError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return parse(doc)
    # RecursionError: a tree nested deeper than the recursive reader goes,
    # which json.loads can return on Python 3.12 and later
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CliError(f"{path}: not {what}: {exc}") from exc


def _read_space(path):
    return _read_doc(path, space_from_json, "a decision-space document")


def _write_space(path, space):
    _write_text(path, json.dumps(space_to_json(space)) + "\n")


def _read_schema(path):
    # the schema list itself, or a document holding it under "schema"
    return _read_doc(path, lambda doc: AttributeSchema.from_json(
        doc.get("schema", doc) if isinstance(doc, dict) else doc), "an attribute schema")


def _parse_scheme(text, num_models):
    for name, build in (("chain", build_chain), ("balanced", build_balanced)):
        if text == name or text.startswith(name + ":"):
            if text != name:
                try:
                    m = int(text[len(name) + 1:])
                except ValueError as exc:
                    raise CliError(f"bad scheme spec {text!r}") from exc
            elif num_models is not None:
                m = num_models
            else:
                raise CliError(f"scheme {name!r} needs a model count, e.g. {name}:4")
            if num_models is not None and m != num_models:
                raise CliError(f"scheme covers {m} models, got {num_models}")
            return build(m)
    if text.startswith("factored:"):
        try:
            factors = [int(k) for k in text[len("factored:"):].split("x")]
        except ValueError as exc:
            raise CliError(f"bad factored scheme spec {text!r}") from exc
        scheme = build_factored(factors)
    else:
        scheme = _read_doc(text, MergeScheme, "a merging scheme")
    if num_models is not None and scheme.num_leaves != num_models:
        raise CliError(
            f"scheme covers {scheme.num_leaves} models, got {num_models}"
        )
    return scheme


def _impact_lines(scheme):
    return [f"{i}\t{w:.6f}" for i, w in enumerate(impacts(scheme))]


def cmd_convert(args):
    schema = _read_schema(args.schema)
    labels = tuple(args.classes.split(",")) if args.classes else None
    try:
        if args.rules is not None:
            space = rules_to_space(parse_ruleset(_read_text(args.rules)), schema, labels)
        else:
            tree, classes = _read_doc(args.tree, tree_from_json, "a decision-tree document")
            if labels is None and classes:
                labels = tuple(classes)
            space = tree_to_space(tree, schema, labels)
    except RuleSyntaxError as exc:
        raise CliError(f"{args.rules}: not a rule set: {exc}") from exc
    except OverlappingRulesError as exc:
        for v in exc.violations:
            print(v, file=sys.stderr)
        raise CliError("rules overlap; conversion refused", EXIT_INVALID)
    except ValueError as exc:
        raise CliError(f"{args.rules or args.tree}: cannot convert: {exc}") from exc
    _write_space(args.out, space)
    return EXIT_OK


def cmd_merge(args):
    spaces = [_read_space(p) for p in args.inputs]
    lines = None
    if args.streaming_unbiased:
        merged = reduce(merge_streaming, spaces)
    else:
        scheme = _parse_scheme(args.scheme, len(spaces))
        merged = execute(scheme, spaces)
        lines = _impact_lines(scheme)
    _write_space(args.out, merged)
    if lines:  # keep stdout clean when it carries the space itself
        stream = sys.stderr if args.out == "-" else sys.stdout
        print("\n".join(lines), file=stream)
    return EXIT_OK


def cmd_restrict(args):
    x, y = _read_space(args.inputs[0]), _read_space(args.inputs[1])
    _write_space(args.out, restrict(x, y))
    return EXIT_OK


def cmd_compose(args):
    x, y = _read_space(args.inputs[0]), _read_space(args.inputs[1])
    op = op_plus if args.op == "plus" else op_barodot
    _write_space(args.out, op(x, y))
    return EXIT_OK


def _parse_instance(text, dim):
    # Python's float also reads "1_0" as 10 and non-ASCII digits as digits;
    # a coordinate is ASCII, without underscores
    if not text.isascii() or "_" in text:
        raise CliError(f"bad instance {text!r}")
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad instance {text!r}") from exc
    if len(values) != dim:
        raise CliError(f"instance {text!r} has {len(values)} values, need {dim}")
    if not all(math.isfinite(v) for v in values):
        raise CliError(f"instance {text!r} has a non-finite value")
    return values


def _parse_instances(rows, dim):
    """The instance rows as one ``(len(rows), dim)`` array, parsed in bulk.

    Converting a list of strings to a float array applies Python's
    ``float`` to each, as ``_parse_instance`` does after it has checked
    that a row is ASCII without underscores.  When a row is bad, the error
    is the one ``_parse_instance`` gives for the first bad row in file
    order, whatever makes it bad.
    """
    text = ",".join(rows)
    if (text.isascii() and "_" not in text
            and set(map(methodcaller("count", ","), rows)) <= {dim - 1}):
        fields = text.split(",") if rows else []
        with contextlib.suppress(ValueError):
            points = np.array(fields, dtype=float).reshape(len(rows), dim)
            if np.isfinite(points).all():
                return points
    # some row is bad: parsing row by row raises for the first one
    return np.array([_parse_instance(row, dim) for row in rows])


def _outcome_tail(value):
    """The part of an output line after the coordinates, for an element's
    distribution or, for an uncovered instance, None."""
    if value is None:
        return "\tuncovered\n"
    rendered = ", ".join(
        f"{l}={p:.6f}%" for l, p in zip(value.labels, value.as_percentages())
    )
    return f"\t{value.predicted_label()}\t{rendered}\n"


# rows written per formatting call, which bounds the temporary objects
_CLASSIFY_ROWS = 1 << 12


def cmd_classify(args):
    space = _read_space(args.space)
    dim = len(space.schema)
    if args.instance is not None:
        rows = [args.instance]
    else:
        rows = [
            line for line in _read_text(args.instances).splitlines() if line.strip()
        ]
    points = _parse_instances(rows, dim)
    del rows  # else the row strings stay alive through the output
    hits = covering_elements(space, points)
    # one tail per element; the last one, for index -1, is "uncovered"
    tails = np.array([_outcome_tail(e.value) for e in space.elements]
                     + [_outcome_tail(None)], dtype=object)
    # "%g" renders a float as f"{v:g}" does
    line = ",".join(["%g"] * dim) + "%s"
    table = np.empty((min(len(points), _CLASSIFY_ROWS), dim + 1), dtype=object)
    for start in range(0, len(points), _CLASSIFY_ROWS):
        chunk = table[:len(points) - start]
        chunk[:, :dim] = points[start:start + _CLASSIFY_ROWS]
        chunk[:, dim] = tails[hits[start:start + _CLASSIFY_ROWS]]
        sys.stdout.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return EXIT_OK


def cmd_impact(args):
    print("\n".join(_impact_lines(_parse_scheme(args.scheme, None))))
    return EXIT_OK


def cmd_validate(args):
    space = _read_space(args.input)
    violations = validate(space)
    for v in violations:
        print(v, file=sys.stderr)
    if violations:
        return EXIT_INVALID
    print("ok")
    return EXIT_OK


def cmd_laws(args):
    if args.trials < 1:
        raise CliError("--trials must be >= 1")
    results = run_laws(trials=args.trials, seed=args.seed)
    doc = law_report(results, args.seed, args.trials)
    for r in results:
        status = "pass" if r.passed else "FAIL"
        print(f"{status}\t{r.kind}\t{r.name}\t({r.trials} trials)", file=sys.stderr)
    print(json.dumps(doc, indent=2))
    return EXIT_OK if doc["proven_all_passed"] else EXIT_INVALID


def cmd_simulate(args):
    cfg = _read_doc(args.config, StreamConfig.from_json, "an experiment config")
    result = run_experiment(cfg, args.strategy)
    _write_text(args.out, result.as_csv())
    stream = sys.stderr if args.out == "-" else sys.stdout
    print(json.dumps(result.summary(), indent=2), file=stream)
    return EXIT_OK


def _convert_arguments(p):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--rules", help="rule DSL file ('-' for stdin)")
    src.add_argument("--tree", help="decision-tree JSON file")
    p.add_argument("--schema", required=True, help="attribute schema JSON")
    p.add_argument("--classes", help="comma-separated class label order")
    p.add_argument("--out", default="-")


def _merge_arguments(p):
    p.add_argument("--in", dest="inputs", nargs="+", required=True, metavar="FILE")
    p.add_argument(
        "--scheme", default="chain",
        help="chain | balanced | factored:K1xK2... | scheme JSON file",
    )
    p.add_argument(
        "--streaming-unbiased", action="store_true",
        help="left fold with mass-weighted (unbiased) accumulation",
    )
    p.add_argument("--out", default="-")


def _restrict_arguments(p):
    p.add_argument("--in", dest="inputs", nargs=2, required=True, metavar="FILE")
    p.add_argument("--out", default="-")


def _compose_arguments(p):
    p.add_argument("--op", choices=("plus", "barodot"), required=True)
    _restrict_arguments(p)


def _classify_arguments(p):
    p.add_argument("--space", required=True)
    pts = p.add_mutually_exclusive_group(required=True)
    pts.add_argument("--instance", help="comma-separated coordinates")
    pts.add_argument("--instances", help="CSV of instances, one per line")


def _impact_arguments(p):
    p.add_argument("--scheme", required=True)


def _validate_arguments(p):
    p.add_argument("--in", dest="input", required=True, metavar="FILE")


def _laws_arguments(p):
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)


def _simulate_arguments(p):
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--strategy", choices=STRATEGIES, default="chain")
    p.add_argument("--out", default="-", help="accuracy CSV destination")


# (name, help, argument builder, handler), in the order --help lists them
COMMANDS = (
    ("convert", "rules or tree file to a space document", _convert_arguments, cmd_convert),
    ("merge", "combine space documents per a scheme", _merge_arguments, cmd_merge),
    ("restrict", "restrict the first space by the second", _restrict_arguments, cmd_restrict),
    ("compose", "composite operators over two spaces", _compose_arguments, cmd_compose),
    ("classify", "classify instances against a space", _classify_arguments, cmd_classify),
    ("impact", "impact table of a merging scheme", _impact_arguments, cmd_impact),
    ("validate", "check a space document's invariants", _validate_arguments, cmd_validate),
    ("laws", "randomized algebraic-law report", _laws_arguments, cmd_laws),
    ("simulate", "synthetic drift-stream experiment", _simulate_arguments, cmd_simulate),
)


def build_parser(command=None):
    """The argument parser; with ``command``, one that registers only that
    subcommand's parser but prints the same usage line as the full one."""
    parser = argparse.ArgumentParser(
        prog="decspace",
        description="Decision-space algebra: convert, merge, restrict, "
        "classify, and audit rectilinear classifier models.",
    )
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        table = COMMANDS
    else:
        # a metavar in the full parser would change its "required" and
        # "invalid choice" messages
        names = ",".join(name for name, *_ in COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True, metavar=f"{{{names}}}")
        table = [row for row in COMMANDS if row[0] == command]
    for name, help_text, add_arguments, handler in table:
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # building all nine subparsers costs about as much as a small command;
    # only the invoked one is needed to parse it
    command = argv[0] if argv and argv[0] in {name for name, *_ in COMMANDS} else None
    args = build_parser(command).parse_args(argv)
    # the one place a rejected input becomes an exit code; a TypeError
    # outside a document is a bug and keeps its traceback
    try:
        return args.func(args)
    except (CliError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "code", EXIT_ERROR)
    except MemoryError as exc:
        # numpy's says how much it asked for; a bare one says nothing
        print(f"error: out of memory{': ' if str(exc) else ''}{exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
