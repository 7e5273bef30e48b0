import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import decspace
from decspace import (
    AttributeSchema,
    ClassDistribution,
    DecisionSpace,
    Element,
    classify,
    semantically_equal,
    space_from_json,
    space_to_json,
)
from decspace import cli
from decspace.cli import (
    COMMANDS,
    CliError,
    _parse_instance,
    _parse_instances,
    build_parser,
    main,
)
from decspace.geometry import Region

from conftest import RULES_TEXT, make_overlap_pair

SCHEMA_JSON = [
    {"name": "age", "min": 0, "max": 6},
    {"name": "degree", "min": 0, "max": 6},
]


# each edit puts one non-finite number into a valid space document
NON_FINITE = {
    "nan-weight": lambda doc: doc["elements"][0]["value"].__setitem__(0, float("nan")),
    "nan-mass": lambda doc: doc["elements"][0].__setitem__("mass", float("nan")),
    "nan-bound": lambda doc: doc["elements"][0]["boxes"][0]["age"].__setitem__(1, float("nan")),
    "inf-domain": lambda doc: doc["schema"][0].__setitem__("max", float("inf")),
}


@pytest.fixture
def rules_file(tmp_path):
    p = tmp_path / "rules.txt"
    p.write_text(RULES_TEXT)
    return str(p)


@pytest.fixture
def schema_file(tmp_path):
    p = tmp_path / "schema.json"
    p.write_text(json.dumps(SCHEMA_JSON))
    return str(p)


@pytest.fixture
def space_file(tmp_path, rules_file, schema_file):
    out = tmp_path / "space.json"
    assert main(["convert", "--rules", rules_file, "--schema", schema_file,
                 "--out", str(out)]) == 0
    return str(out)


class TestConvert:
    def test_five_element_space(self, space_file):
        doc = json.loads(Path(space_file).read_text())
        assert len(doc["elements"]) == 5
        assert doc["classes"] == ["A", "B", "C", "D", "E"]

    def test_output_revalidates(self, space_file, capsys):
        assert main(["validate", "--in", space_file]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_syntax_error_exit_one(self, tmp_path, schema_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("IF age THEN A")
        assert main(["convert", "--rules", str(bad), "--schema", schema_file]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_overlap_exit_two(self, tmp_path, schema_file, capsys):
        over = tmp_path / "over.txt"
        over.write_text("IF age < 4 THEN A\nIF age < 5 THEN B\n")
        assert main(["convert", "--rules", str(over), "--schema", schema_file]) == 2

    def test_tree_input(self, tmp_path, schema_file):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps({
            "classes": ["Yes", "No"],
            "tree": {
                "attr": "age", "threshold": 3.0,
                "left": {"label": "No"},
                "right": {"value": [25, 75]},
            },
        }))
        out = tmp_path / "t.json"
        assert main(["convert", "--tree", str(tree), "--schema", schema_file,
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["classes"] == ["Yes", "No"]
        assert len(doc["elements"]) == 2

    def test_missing_file_exit_one(self, schema_file, capsys):
        assert main(["convert", "--rules", "/nonexistent", "--schema",
                     schema_file]) == 1

    def test_stdin_and_stdout(self, monkeypatch, schema_file, space_file, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(RULES_TEXT))
        assert main(["convert", "--rules", "-", "--schema", schema_file, "--out", "-"]) == 0
        assert capsys.readouterr().out == Path(space_file).read_text()


class TestMergeCommand:
    def test_single_input_identity(self, tmp_path, space_file, capsys):
        out = tmp_path / "m.json"
        assert main(["merge", "--in", space_file, "--out", str(out)]) == 0
        original = space_from_json(json.loads(Path(space_file).read_text()))
        merged = space_from_json(json.loads(out.read_text()))
        assert semantically_equal(merged, original)

    def test_impact_table_on_stdout(self, tmp_path, space_file, capsys):
        out = tmp_path / "m.json"
        assert main(["merge", "--in", space_file, space_file,
                     "--scheme", "chain", "--out", str(out)]) == 0
        table = capsys.readouterr().out.strip().splitlines()
        assert table == ["0\t0.500000", "1\t0.500000"]

    def test_overlap_pair_contains_weighted_intersection(self, tmp_path, capsys):
        grey, checker = make_overlap_pair()
        from decspace import space_to_json
        fa = tmp_path / "a.json"
        fb = tmp_path / "b.json"
        fa.write_text(json.dumps(space_to_json(grey)))
        fb.write_text(json.dumps(space_to_json(checker)))
        out = tmp_path / "m.json"
        assert main(["merge", "--in", str(fa), str(fb), "--out", str(out)]) == 0
        merged = space_from_json(json.loads(out.read_text()))
        from decspace import classify
        dist, _ = classify(merged, (7.5, 5.0))
        assert dist.as_percentages()[0] == pytest.approx(21.428571, abs=1e-4)

    def test_streaming_matches_scheme_root(self, tmp_path, space_file, capsys):
        out1 = tmp_path / "s.json"
        out2 = tmp_path / "n.json"
        files = [space_file] * 3
        assert main(["merge", "--in", *files, "--streaming-unbiased",
                     "--out", str(out1)]) == 0
        scheme = tmp_path / "scheme.json"
        scheme.write_text("[0, 1, 2]")
        assert main(["merge", "--in", *files, "--scheme", str(scheme),
                     "--out", str(out2)]) == 0
        a = space_from_json(json.loads(out1.read_text()))
        b = space_from_json(json.loads(out2.read_text()))
        assert semantically_equal(a, b)

    def test_shared_face_independent_of_file_order(self, tmp_path, capsys):
        # x <= 4 and x >= 4 share the face x = 4, a conflict in either order
        schema = tmp_path / "schema.json"
        schema.write_text(json.dumps([{"name": "x", "min": 0, "max": 10},
                                      {"name": "y", "min": 0, "max": 2}]))
        for name, rule in (("a", "IF x <= 4 THEN A\n"), ("b", "IF x >= 4 THEN B\n")):
            (tmp_path / f"{name}.txt").write_text(rule)
            assert main(["convert", "--rules", str(tmp_path / f"{name}.txt"),
                         "--schema", str(schema), "--out", str(tmp_path / f"{name}.json")]) == 0
        lines = []
        for order in ("ab", "ba"):
            out = tmp_path / f"{order}-merged.json"
            assert main(["merge", "--in", *(str(tmp_path / f"{n}.json") for n in order),
                         "--out", str(out)]) == 0
            capsys.readouterr()
            assert main(["classify", "--space", str(out), "--instance", "4,1"]) == 0
            lines.append(capsys.readouterr().out)
        # weights 3 and 4
        assert lines[0] == lines[1] == "4,1\tB\tA=42.857143%, B=57.142857%\n"

    def test_labels_of_mixed_types(self, tmp_path, capsys):
        # "A", -1 and "A", "B" have no common order; the union is sorted by repr
        a, b, out = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "m.json"
        a.write_text(_space(classes=["A", -1]))
        b.write_text(_space(classes=["A", "B"]))
        assert main(["merge", "--in", str(a), str(b), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["classes"] == ["A", "B", -1]

    def test_bad_scheme_count(self, space_file, capsys):
        assert main(["merge", "--in", space_file, space_file,
                     "--scheme", "factored:3x2"]) == 1

    def test_explicit_count_must_match_inputs(self, space_file, capsys):
        assert main(["merge", "--in", space_file, space_file,
                     "--scheme", "chain:3"]) == 1
        assert capsys.readouterr().err == "error: scheme covers 3 models, got 2\n"

    def test_stdin_and_stdout(self, monkeypatch, space_file, capsys):
        # with the space on stdout, the impact table goes to stderr
        monkeypatch.setattr(sys, "stdin", io.StringIO(Path(space_file).read_text()))
        assert main(["merge", "--in", "-", "--out", "-"]) == 0
        out, err = capsys.readouterr()
        assert semantically_equal(space_from_json(json.loads(out)),
                                  space_from_json(json.loads(Path(space_file).read_text())))
        assert err == "0\t1.000000\n"


class TestRestrictCompose:
    def test_restrict_self_byte_stable(self, tmp_path, space_file):
        out = tmp_path / "r.json"
        assert main(["restrict", "--in", space_file, space_file,
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text()) == json.loads(Path(space_file).read_text())

    def test_compose_plus_disjoint_empty(self, tmp_path, schema_file, capsys):
        left = tmp_path / "l.txt"
        right = tmp_path / "r.txt"
        left.write_text("IF age < 2 THEN A\n")
        right.write_text("IF age >= 4 THEN B\n")
        fl = tmp_path / "l.json"
        fr = tmp_path / "r.json"
        assert main(["convert", "--rules", str(left), "--schema", schema_file,
                     "--out", str(fl)]) == 0
        assert main(["convert", "--rules", str(right), "--schema", schema_file,
                     "--out", str(fr)]) == 0
        out = tmp_path / "c.json"
        assert main(["compose", "--op", "plus", "--in", str(fl), str(fr),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["elements"] == []


class TestClassifyCommand:
    def test_single_instance(self, space_file, capsys):
        assert main(["classify", "--space", space_file,
                     "--instance", "3,3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("3,3\tE\t")

    def test_uncovered(self, space_file, capsys):
        assert main(["classify", "--space", space_file,
                     "--instance", "3,6"]) == 0
        assert "uncovered" in capsys.readouterr().out

    def test_csv_batch(self, tmp_path, space_file, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("3,3\n0.5,0.5\n")
        assert main(["classify", "--space", space_file,
                     "--instances", str(csv)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split("\t")[1] == "E"
        assert lines[1].split("\t")[1] == "A"

    def test_dimension_mismatch(self, space_file, capsys):
        assert main(["classify", "--space", space_file, "--instance", "3"]) == 1

    @pytest.mark.parametrize("text", ["nan,1", "3,inf"])
    def test_non_finite_instance(self, space_file, capsys, text):
        assert main(["classify", "--space", space_file, "--instance", text]) == 1
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_row(self, tmp_path, space_file, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("3,3\nnan,1\n")
        assert main(["classify", "--space", space_file,
                     "--instances", str(csv)]) == 1
        assert capsys.readouterr().out == ""


# awkward coordinates for the %g renderer and the bulk parser
COORDS = ["-0.0", "1e-7", "1e16", "123456789", "64", "0", "32", "48.5", "+16"]


@pytest.fixture
def mixed_space_file(tmp_path):
    """Closed and open faces, one-hot and fractional values, a point
    element, and uncovered parts of the domain."""
    schema = AttributeSchema((("a", 0.0, 64.0), ("b", 0.0, 64.0)))
    labels = ("A", "B", "C")
    parts = [
        (((0, 32, True, True), (0, 32, True, True)), (1.0, 0.0, 0.0)),
        (((32, 64, False, True), (0, 32, True, False)), (0.25, 0.75, 0.0)),
        (((0, 32, True, False), (32, 64, False, False)), (1 / 3, 1 / 3, 1 / 3)),
        (((64, 64, True, True), (64, 64, True, True)), (0.0, 0.0, 1.0)),
    ]
    space = DecisionSpace(schema, labels, tuple(
        Element(Region([bx]), ClassDistribution(labels, w)) for bx, w in parts
    ))
    out = tmp_path / "mixed.json"
    out.write_text(json.dumps(space_to_json(space)))
    return str(out)


def reference_output(space_path, rows):
    """The output of classifying each row on its own, rendered per row."""
    with open(space_path) as fh:
        space = space_from_json(json.load(fh))
    lines = []
    for row in rows:
        pt = tuple(float(v) for v in row.split(","))
        coords = ",".join(f"{v:g}" for v in pt)
        outcome = classify(space, pt)
        if outcome is None:
            lines.append(f"{coords}\tuncovered\n")
        else:
            dist, label = outcome
            rendered = ", ".join(
                f"{l}={p:.6f}%" for l, p in zip(dist.labels, dist.as_percentages())
            )
            lines.append(f"{coords}\t{label}\t{rendered}\n")
    return "".join(lines)


# tokens the bulk parse must read as Python's float() does, value or error
PARSE_TOKENS = [
    "1_0", "1__0", "_1", "1_", "1e5_0", "\u0661\u0662", "\u0967\u0968\u0969",
    "\uff11\uff12", "\u0661.\u0665", "nan(123)", "nan(ind)", "0x10", "0x1p3", "0o7",
    "0b1", "  1.5", "1.5  ", "\t2", "1e500", "-1e500", "1.8e308", "nan", "NaN",
    "-inf", "iNF", "infinity", "1e", "1d3", "--1", "+1", "-0", ".5", "5.",
    "1e-400", "5e-324", "1.7976931348623157e308", "1.5e+3", "0.1", "True", "",
    " ", "1 2", "3,4",
]


class TestBulkClassify:
    def test_matches_per_row_reference(self, tmp_path, mixed_space_file, capsys):
        rows = [f"{x},{y}" for x in COORDS for y in COORDS]
        csv = tmp_path / "pts.csv"
        csv.write_text("\n".join(rows) + "\n")
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 0
        out = capsys.readouterr().out
        assert out == reference_output(mixed_space_file, rows)
        assert "uncovered" in out and "C=100.000000%" in out
        assert "A=33.333333%" in out and "B=75.000000%" in out

    @pytest.mark.parametrize("rows_per_write", [1, 7])
    def test_output_written_in_blocks(self, tmp_path, mixed_space_file, capsys,
                                      monkeypatch, rows_per_write):
        monkeypatch.setattr(cli, "_CLASSIFY_ROWS", rows_per_write)
        rows = [f"{x},{y}" for x in COORDS for y in COORDS]
        csv = tmp_path / "pts.csv"
        csv.write_text("\n".join(rows) + "\n")
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 0
        assert capsys.readouterr().out == reference_output(mixed_space_file, rows)

    @pytest.mark.parametrize("v", [
        -0.0, 1e-7, 1e16, 123456789.0, 64.0, 0.1 + 0.2, 1 / 3, 5e-324,
        1.7976931348623157e308, 999999.5, 1e-5, 123456.5, -2.5e-300,
    ])
    def test_percent_g_equals_format_g(self, v):
        assert "%g,%g,%g" % (v, -v, 1.0) == ",".join(f"{x:g}" for x in (v, -v, 1.0))

    def test_blank_lines_skipped(self, tmp_path, mixed_space_file, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("\n1,1\n  \n\n64,64\n\t\n")
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 0
        out = capsys.readouterr().out
        assert out == reference_output(mixed_space_file, ["1,1", "64,64"])

    def test_empty_file_prints_nothing(self, tmp_path, mixed_space_file, capsys):
        csv = tmp_path / "pts.csv"
        csv.write_text("")
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("row", ["-0.0,1e-7", "64,64", "48.5,+16", "1e16,0"])
    def test_single_instance_same_path(self, tmp_path, mixed_space_file, capsys, row):
        assert main(["classify", "--space", mixed_space_file,
                     f"--instance={row}"]) == 0
        single = capsys.readouterr().out
        csv = tmp_path / "pts.csv"
        csv.write_text(row + "\n")
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 0
        assert single == capsys.readouterr().out
        assert single == reference_output(mixed_space_file, [row])

    @pytest.mark.parametrize("text, error", [
        ("1,1\nx,1\nnan,1\n", "bad instance 'x,1'"),
        ("1,1\ninf,1\nx,1\n", "instance 'inf,1' has a non-finite value"),
        ("1,1\n1,2,3\nnan,1\n", "instance '1,2,3' has 3 values, need 2"),
        ("1,1\nnan,1\n1\n", "instance 'nan,1' has a non-finite value"),
        # the field total fits the row count: only the per-row count sees it
        ("1,1\n1,2,3\n4\n", "instance '1,2,3' has 3 values, need 2"),
    ])
    def test_first_bad_row_gives_the_error(self, tmp_path, mixed_space_file,
                                           capsys, text, error):
        csv = tmp_path / "pts.csv"
        csv.write_text(text)
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {error}\n"


    @pytest.mark.parametrize("token", PARSE_TOKENS)
    def test_bulk_parse_matches_per_row_parse(self, tmp_path, mixed_space_file,
                                              capsys, token):
        # the token in both columns, between runs of good rows; "3,4" makes
        # rows of three fields
        rows = ["1,1"] * 40 + [f"{token},2", f"2,{token}"] + ["3,3"] * 40
        try:
            want = np.array([_parse_instance(row, 2) for row in rows])
        except CliError as exc:
            want = exc
        csv = tmp_path / "pts.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        code = main(["classify", "--space", mixed_space_file, "--instances", str(csv)])
        captured = capsys.readouterr()
        if isinstance(want, CliError):
            assert code == 1 and captured.out == ""
            assert captured.err == f"error: {want}\n"
        else:
            assert _parse_instances(rows, 2).tobytes() == want.tobytes()
            assert code == 0 and captured.err == ""
            assert captured.out == reference_output(mixed_space_file, rows)


# fields that no instance row holds: non-finite or too large for a float,
# Python-only float syntax, empty, or not ASCII (no line breaks among them)
JUNK_FIELDS = [
    "1e400", "-1e400", "nan", "-inf", "Infinity", "1_0", "_1", "", " ", "x",
    "0x10", "1e", "--1", "True", "1 2", "\u0661", "\uff11", "\u00bd", "3\u00a0",
    "\u22121", "1\u200b", "\u00e9",
]
_GOOD_FIELD = st.floats(allow_nan=False, allow_infinity=False).map(repr)


@st.composite
def _junk_row(draw):
    """A 2-D instance row with one junk field, or a wrong field count."""
    fields = [draw(_GOOD_FIELD), draw(_GOOD_FIELD)]
    how = draw(st.sampled_from(["field", "extra", "missing"]))
    if how == "field":
        fields[draw(st.integers(0, 1))] = draw(st.sampled_from(JUNK_FIELDS))
    elif how == "extra":
        fields += draw(st.lists(_GOOD_FIELD | st.sampled_from(JUNK_FIELDS),
                                min_size=1, max_size=2))
    else:
        fields.pop()
    row = ",".join(fields)
    assume(row.strip())  # a blank line is skipped, not read
    return row


class TestJunkInstances:
    """One junk row among valid rows for ``--instances``, and one junk
    string for ``--instance``: exit 1, nothing on stdout, and an error that
    names the first bad row."""

    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(good=st.lists(st.tuples(_GOOD_FIELD, _GOOD_FIELD), max_size=6),
           bad=_junk_row(), data=st.data())
    def test_instances_file(self, tmp_path, mixed_space_file, capsys, good, bad, data):
        rows = [",".join(pt) for pt in good]
        rows.insert(data.draw(st.integers(0, len(rows))), bad)
        csv = tmp_path / "pts.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        with pytest.raises(CliError) as want:
            _parse_instance(bad, 2)
        assert main(["classify", "--space", mixed_space_file,
                     "--instances", str(csv)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {want.value}\n"
        assert repr(bad) in captured.err

    @settings(derandomize=True, max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bad=_junk_row() | st.sampled_from(JUNK_FIELDS))
    def test_single_instance(self, mixed_space_file, capsys, bad):
        assert main(["classify", "--space", mixed_space_file, f"--instance={bad}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and repr(bad) in captured.err


class TestImpactValidateLaws:
    def test_impact_factored(self, capsys):
        assert main(["impact", "--scheme", "factored:3x2x2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12
        assert all(l.split("\t")[1] == "0.083333" for l in lines)

    def test_impact_needs_count_for_chain(self, capsys):
        assert main(["impact", "--scheme", "chain"]) == 1

    @pytest.mark.parametrize("spec, weights", [
        ("chain:3", ["0.250000", "0.250000", "0.500000"]),
        ("balanced:4", ["0.250000"] * 4),
    ])
    def test_impact_explicit_count(self, capsys, spec, weights):
        assert main(["impact", "--scheme", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == weights

    def test_impact_bad_count(self, capsys):
        assert main(["impact", "--scheme", "chain:abc"]) == 1
        assert capsys.readouterr().err == "error: bad scheme spec 'chain:abc'\n"

    @pytest.mark.parametrize("name", ["chain", "balanced"])
    def test_count_hint_is_a_valid_spec(self, capsys, name):
        assert main(["impact", "--scheme", name]) == 1
        hint = capsys.readouterr().err.split("e.g. ")[1].strip()
        assert main(["impact", "--scheme", hint]) == 0

    def test_validate_detects_overlap(self, tmp_path, space_file, capsys):
        doc = json.loads(Path(space_file).read_text())
        doc["elements"].append(doc["elements"][0])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["validate", "--in", str(bad)]) == 2
        assert "overlap" in capsys.readouterr().err

    def test_merge_trusts_its_inputs_validate_checks_them(self, tmp_path, space_file,
                                                           capsys):
        doc = json.loads(Path(space_file).read_text())
        value = doc["elements"][0]["value"]
        value[:] = [-50.0, 150.0] + [0.0] * (len(value) - 2)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["merge", "--in", str(bad), space_file,
                     "--out", str(tmp_path / "m.json")]) == 0
        capsys.readouterr()
        assert main(["validate", "--in", str(bad)]) == 2
        assert "weight outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["merge", "validate"])
    @pytest.mark.parametrize("defect", sorted(NON_FINITE))
    def test_non_finite_document_fails(self, tmp_path, space_file, capsys,
                                       command, defect):
        doc = json.loads(Path(space_file).read_text())
        NON_FINITE[defect](doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        args = {
            "merge": ["merge", "--in", str(bad), "--out", str(tmp_path / "m.json")],
            "validate": ["validate", "--in", str(bad)],
        }[command]
        assert main(args) in (1, 2)

    def test_laws_report(self, capsys):
        assert main(["laws", "--trials", "3", "--seed", "5"]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["seed"] == 5
        assert doc["proven_all_passed"] is True
        names = {l["name"] for l in doc["laws"]}
        assert {"merge_commutative", "plus_idempotent",
                "barodot_associative"} <= names
        assert "pass\tproven\tmerge_commutative" in captured.err

    def test_laws_needs_a_trial(self, capsys):
        assert main(["laws", "--trials", "0"]) == 1
        assert capsys.readouterr() == ("", "error: --trials must be >= 1\n")

    def test_laws_deterministic(self, capsys):
        assert main(["laws", "--trials", "3", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["laws", "--trials", "3", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first


SIMULATE_CONFIG = {
    "seed": 7, "num_learners": 1, "drift_at": 1, "batches": 2, "batch_size": 150,
    "domain": [{"name": "x", "min": 0, "max": 10}, {"name": "y", "min": 0, "max": 10}],
    "grid": 4, "test_size": 100,
}


class TestSimulate:
    def test_runs_and_emits_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CONFIG))
        out = tmp_path / "acc.csv"
        assert main(["simulate", "--config", str(cfg), "--strategy", "chain",
                     "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        summary = json.loads(capsys.readouterr().out)
        assert summary["strategy"] == "chain"

    def test_bad_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        assert main(["simulate", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 74.5 GiB for an array with shape (10000000000,)",
         "error: out of memory: Unable to allocate 74.5 GiB for an array with shape "
         "(10000000000,)"),
        ("", "error: out of memory"),
    ], ids=["numpy", "bare"])
    def test_out_of_memory_is_one_error_line(self, tmp_path, capsys, monkeypatch,
                                             message, line):
        # a grid too large to allocate ends in numpy's MemoryError, raised
        # here without allocating anything
        def run_experiment(cfg, strategy):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, "run_experiment", run_experiment)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SIMULATE_CONFIG))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "acc.csv")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [line]


SCHEME_DOCS = {"string": '"x"', "object": '{"a": 1}', "float-leaf": "[0, 1.5]",
               "bool-leaf": "[0, true]"}
SCHEME_COMMANDS = {
    "merge": ["merge", "--in", "{space}", "{space}", "--scheme", "{file}",
              "--out", "{tmp}/m.json"],
    "impact": ["impact", "--scheme", "{file}"],
}
CONVERT_TREE = ["convert", "--tree", "{file}", "--schema", "{schema}"]
CONVERT_RULES = ["convert", "--rules", "{file}", "--schema", "{schema}"]


def _tree(**node):
    return json.dumps({"classes": ["A", "B"], "tree": node})


def _space(classes=("A", "B"), mass=2):
    return json.dumps({
        "schema": [{"name": "x", "min": 0, "max": 4}], "classes": list(classes),
        "elements": [{"boxes": [{"x": [0, 2, True, False]}], "value": [100, 0], "mass": mass}],
    })


# (id, bad file, its content, argv, exit code, what the error line names:
# the bad file, or where no one file is at fault, the attribute or the overlap)
MALFORMED = [
    *((f"{command}-scheme-{name}", "scheme.json", text, argv, 1, "{file}")
      for name, text in SCHEME_DOCS.items()
      for command, argv in SCHEME_COMMANDS.items()),
    ("tree-not-an-object", "tree.json", '{"tree": 5}', CONVERT_TREE, 1, "{file}"),
    ("tree-document-a-list", "tree.json", "[]", CONVERT_TREE, 1, "{file}"),
    ("tree-label-not-a-string", "tree.json", _tree(label=5), CONVERT_TREE, 1, "{file}"),
    ("tree-classes-not-a-list", "tree.json", json.dumps({"classes": 5, "tree": {"label": "A"}}),
     CONVERT_TREE, 1, "{file}"),
    ("tree-split-without-left", "tree.json",
     _tree(attr="age", threshold=3, right={"label": "A"}), CONVERT_TREE, 1, "{file}"),
    ("tree-unknown-attribute", "tree.json",
     _tree(attr="height", threshold=3, left={"label": "A"}, right={"label": "B"}),
     CONVERT_TREE, 1, "height"),
    ("rules-unknown-attribute", "rules.txt", "IF height < 2 THEN A\n",
     CONVERT_RULES, 1, "height"),
    ("instances-not-utf8", "pts.csv", b"3,3\n\xff,1\n",
     ["classify", "--space", "{space}", "--instances", "{file}"], 1, "{file}"),
    ("schema-not-utf8", "schema.json", b'[{"name": "\xff"}]',
     ["convert", "--rules", "{rules}", "--schema", "{file}"], 1, "{file}"),
    ("simulate-test-size-0", "cfg.json", json.dumps({**SIMULATE_CONFIG, "test_size": 0}),
     ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"], 1, "{file}"),
    ("simulate-grid-0", "cfg.json", json.dumps({**SIMULATE_CONFIG, "grid": 0}),
     ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"], 1, "{file}"),
    ("simulate-domain-empty", "cfg.json", json.dumps({**SIMULATE_CONFIG, "domain": []}),
     ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"], 1, "{file}"),
    ("classes-missing-label", "rules.txt", "IF age < 2 THEN A\n",
     [*CONVERT_RULES, "--classes", "X"], 1, "'A'"),
    ("scheme-nested-too-deep", "scheme.json", "[" * 100_000 + "0" + "]" * 100_000,
     ["impact", "--scheme", "{file}"], 1, "{file}"),
    ("space-flag-not-a-boolean", "space.json", json.dumps({
        "schema": [{"name": "x", "min": 0, "max": 4}], "classes": ["A"],
        "elements": [{"boxes": [{"x": [0, 2, "false", "false"]}], "value": [100], "mass": 2}],
    }), ["validate", "--in", "{file}"], 1, "{file}"),
    ("overlapping-rules", "rules.txt", "IF age < 4 THEN A\nIF age < 5 THEN B\n",
     CONVERT_RULES, 2, "overlap"),
    ("rules-syntax-error", "rules.txt", "IF age < 4 THEN A\nIF age < 5 THEN B $\n",
     CONVERT_RULES, 1, "{file}"),
    # a JSON integer past the float range, where a document holds a number
    ("space-mass-400-digits", "space.json", _space(mass=10 ** 400),
     ["validate", "--in", "{file}"], 1, "{file}"),
    # past the digit limit of Python's int, which json.loads raises on
    ("space-mass-5000-digits", "space.json",
     _space().replace('"mass": 2', '"mass": ' + "9" * 5000),
     ["validate", "--in", "{file}"], 1, "{file}"),
    ("tree-threshold-400-digits", "tree.json",
     _tree(attr="age", threshold=10 ** 400, left={"label": "A"}, right={"label": "B"}),
     CONVERT_TREE, 1, "{file}"),
    ("simulate-seed-infinite", "cfg.json", json.dumps({**SIMULATE_CONFIG, "seed": float("inf")}),
     ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"], 1, "{file}"),
    ("space-label-an-object", "space.json", _space(classes=["A", {"k": 1}]),
     ["validate", "--in", "{file}"], 1, "{file}"),
    ("space-duplicate-classes", "space.json", _space(classes=["A", "A"]),
     ["validate", "--in", "{file}"], 1, "{file}"),
    ("rules-duplicate-label", "rules.txt", "IF age < 2 THEN A = 50%, A = 50%\n",
     CONVERT_RULES, 1, "{file}: not a rule set: line 1, column 17: duplicate class label"),
    ("rules-percent-above-100", "rules.txt", "IF age < 2 THEN A = 150%, B = -50%\n",
     CONVERT_RULES, 1, "{file}: not a rule set: line 1, column 21: percent 150"),
    ("classes-duplicate-label", "rules.txt", "IF age < 2 THEN A\n",
     [*CONVERT_RULES, "--classes", "A,A,B"], 1, "{file}"),
    ("tree-duplicate-classes", "tree.json",
     json.dumps({"classes": ["A", "A"], "tree": {"label": "A"}}), CONVERT_TREE, 1, "{file}"),
    ("tree-percent-above-100", "tree.json", _tree(value=[150, -50]), CONVERT_TREE, 1,
     "{file}"),
    *((f"simulate-{key}-{name}", "cfg.json", json.dumps({**SIMULATE_CONFIG, key: value}),
       ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"], 1, "{file}")
      for key, name, value in (("seed", "fraction", 2.9), ("num_learners", "boolean", True),
                               ("drift_at", "string", "1"))),
]


class TestMalformedInput:
    """Every rejected input leaves ``main`` as an exit code and one final
    ``error:`` line, with nothing on stdout and no traceback."""

    @pytest.mark.parametrize("name, content, argv, code, culprit",
                             [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_one_error_line(self, tmp_path, space_file, schema_file, rules_file, capsys,
                            name, content, argv, code, culprit):
        bad = tmp_path / name
        if isinstance(content, bytes):
            bad.write_bytes(content)
        else:
            bad.write_text(content)
        fill = {"file": str(bad), "space": space_file, "schema": schema_file,
                "rules": rules_file, "tmp": str(tmp_path)}
        capsys.readouterr()  # drop what the fixtures printed
        assert main([arg.format(**fill) for arg in argv]) == code
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert lines[-1].startswith("error: ")
        assert sum(line.startswith("error: ") for line in lines) == 1
        assert culprit.format(**fill) in lines[-1]


_CONTAINERS = st.one_of(
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
    st.lists(st.one_of(st.none(), st.booleans(), st.lists(st.integers(), max_size=1),
                       st.dictionaries(st.text(max_size=1), st.integers(), max_size=1)),
             min_size=1, max_size=2),
)
# per kind of slot, values that no valid document holds there
JUNK = {
    "number": st.one_of(
        st.integers(309, 400).flatmap(lambda k: st.sampled_from([10 ** k, -10 ** k])),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.text(max_size=5),
        st.floats(allow_nan=False, allow_infinity=False).map(str),
        st.booleans(),
        _CONTAINERS,
    ),
    "flag": st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3), _CONTAINERS),
    "label": st.one_of(st.none(), st.booleans(), _CONTAINERS),
    "name": st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _CONTAINERS),
}
# (path into the document, kind of slot)
SLOTS = [
    (("schema", 0, "name"), "name"),
    (("schema", 0, "min"), "number"),
    (("schema", 1, "max"), "number"),
    (("classes", 1), "label"),
    (("elements", 0, "boxes", 0, "x", 0), "number"),
    (("elements", 1, "boxes", 0, "y", 1), "number"),
    (("elements", 0, "boxes", 0, "y", 2), "flag"),
    (("elements", 1, "boxes", 0, "x", 3), "flag"),
    (("elements", 1, "value", 0), "number"),
    (("elements", 0, "mass"), "number"),
]
JUNK_COMMANDS = [
    ["validate", "--in", "{junk}"],
    ["merge", "--in", "{junk}", "{good}", "--out", "{tmp}/out.json"],
    ["restrict", "--in", "{good}", "{junk}", "--out", "{tmp}/out.json"],
    ["classify", "--space", "{junk}", "--instance", "1,1"],
]


class TestJunkDocuments:
    """One junk value in a valid space document: every command that reads
    it exits 1 or 2 with nothing on stdout, never with a traceback."""

    DOC = {
        "schema": [{"name": "x", "min": 0, "max": 4}, {"name": "y", "min": 0, "max": 4}],
        "classes": ["A", "B"],
        "elements": [
            {"boxes": [{"x": [0, 2, True, False], "y": [0, 4, True, True]}],
             "value": [100, 0], "mass": 3},
            {"boxes": [{"x": [2, 4, True, True], "y": [0, 4, True, True]}],
             "value": [25, 75], "mass": 3},
        ],
    }

    @pytest.mark.parametrize("path, kind", SLOTS, ids=["-".join(map(str, p)) for p, _ in SLOTS])
    @settings(derandomize=True, max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_one_or_two(self, tmp_path, capsys, path, kind, data):
        doc = json.loads(json.dumps(self.DOC))
        slot = doc
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = data.draw(JUNK[kind])
        fill = {"junk": str(tmp_path / "junk.json"), "good": str(tmp_path / "good.json"),
                "tmp": str(tmp_path)}
        Path(fill["junk"]).write_text(json.dumps(doc))
        Path(fill["good"]).write_text(json.dumps(self.DOC))
        for argv in JUNK_COMMANDS:
            capsys.readouterr()
            assert main([arg.format(**fill) for arg in argv]) in (1, 2), argv
            assert capsys.readouterr().out == ""


# never a JSON integer: a valid count can be one that never finishes
# ("batches": 10**30), and a valid seed runs
NOT_INTEGER = st.one_of(
    st.floats(), st.integers(-10 ** 6, 10 ** 6).map(str), st.booleans(), st.none(),
    _CONTAINERS,
)
# per input file: a valid document, the command that reads it, and its
# slots (path into the document, kind of slot)
JUNK_FILES = {
    "schema": (
        SCHEMA_JSON,
        ["convert", "--rules", "{rules}", "--schema", "{file}"],
        [((0, "name"), "name"), ((0, "min"), "number"), ((1, "max"), "number")],
    ),
    "tree": (
        {"classes": ["A", "B"],
         "tree": {"attr": "age", "threshold": 3, "left": {"label": "A"},
                  "right": {"value": [25, 75]}}},
        CONVERT_TREE,
        [(("classes", 1), "name"), (("tree", "attr"), "name"),
         (("tree", "threshold"), "number"), (("tree", "left", "label"), "name"),
         (("tree", "right", "value", 0), "number")],
    ),
    "scheme": (
        [[0, 1], 2],
        ["merge", "--in", "{space}", "{space}", "{space}", "--scheme", "{file}",
         "--out", "{tmp}/m.json"],
        [((0, 1), "integer"), ((1,), "integer")],
    ),
    "simulate": (
        SIMULATE_CONFIG,
        ["simulate", "--config", "{file}", "--out", "{tmp}/acc.csv"],
        [*(((key,), "integer") for key in ("seed", "num_learners", "drift_at", "batches",
                                           "batch_size", "grid", "test_size")),
         (("domain", 0, "name"), "name"), (("domain", 0, "min"), "number"),
         (("domain", 1, "max"), "number")],
    ),
}
FILE_SLOTS = [(name, path, kind) for name, (_, _, slots) in JUNK_FILES.items()
              for path, kind in slots]


class TestJunkFiles:
    """One junk value in a valid schema, tree, scheme file or simulate
    config: the command that reads it exits 1 or 2 with nothing on stdout,
    never with a traceback."""

    def _run(self, tmp_path, space_file, schema_file, rules_file, name, doc):
        bad = tmp_path / f"{name}.json"
        bad.write_text(json.dumps(doc))
        fill = {"file": str(bad), "space": space_file, "schema": schema_file,
                "rules": rules_file, "tmp": str(tmp_path)}
        return main([arg.format(**fill) for arg in JUNK_FILES[name][1]])

    @pytest.mark.parametrize("name", JUNK_FILES)
    def test_valid_document_runs(self, tmp_path, space_file, schema_file, rules_file,
                                 capsys, name):
        assert self._run(tmp_path, space_file, schema_file, rules_file, name,
                         JUNK_FILES[name][0]) == 0

    @pytest.mark.parametrize("name, path, kind", FILE_SLOTS,
                             ids=["-".join(map(str, (n, *p))) for n, p, _ in FILE_SLOTS])
    @settings(derandomize=True, max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_one_or_two(self, tmp_path, space_file, schema_file, rules_file, capsys,
                             name, path, kind, data):
        doc = json.loads(json.dumps(JUNK_FILES[name][0]))
        slot = doc
        for key in path[:-1]:
            slot = slot[key]
        slot[path[-1]] = data.draw(NOT_INTEGER if kind == "integer" else JUNK[kind])
        capsys.readouterr()
        assert self._run(tmp_path, space_file, schema_file, rules_file, name, doc) in (1, 2)
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err


class TestParser:
    """``main`` builds only the invoked command's parser; every help text,
    usage line and error must stay as the full ``build_parser()`` gives it."""

    ARGVS = [
        ["--help"],
        ["-h"],
        *([name, "--help"] for name, *_ in COMMANDS),
        [],
        ["frobnicate", "--in", "x.json"],
        ["convert", "--rules", "r.txt", "--schema", "s.json", "--bogus"],
        ["compose", "--op", "times", "--in", "a.json", "b.json"],
        ["convert", "--rules", "r.txt"],
        ["classify", "--space", "s.json"],
        ["merge", "--in"],
        ["laws", "--trials", "many"],
    ]

    @staticmethod
    def outcome(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        out, err = capsys.readouterr()
        return exc.value.code, out, err

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_full_parser(self, argv, capsys):
        full = self.outcome(build_parser().parse_args, argv, capsys)
        assert self.outcome(main, argv, capsys) == full
        assert full[1] or full[2]

    def test_full_parser_messages(self, capsys):
        # a subparsers metavar would stand in for "command" and the choices
        _, _, err = self.outcome(main, [], capsys)
        assert err.endswith("error: the following arguments are required: command\n")
        _, _, err = self.outcome(main, ["frobnicate"], capsys)
        assert "invalid choice: 'frobnicate' (choose from 'convert', 'merge'," in err

    def test_module_entry_point_reads_sys_argv(self, tmp_path, space_file):
        src = os.path.dirname(os.path.dirname(decspace.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        ok = subprocess.run([sys.executable, "-m", "decspace.cli", "validate", "--in", space_file],
                            capture_output=True, text=True, env=env, timeout=60)
        assert (ok.returncode, ok.stdout, ok.stderr) == (0, "ok\n", "")
        bad = subprocess.run([sys.executable, "-m", "decspace.cli", "validate"],
                             capture_output=True, text=True, env=env, timeout=60)
        assert bad.returncode == 2
        assert bad.stderr.endswith("error: the following arguments are required: --in\n")
