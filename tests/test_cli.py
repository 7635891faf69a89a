"""CLI contract: formats, round-trips, exit codes, determinism."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import treesub as ts
from treesub import checks, cli, trees
from treesub.cli import (
    EXIT_FAILURE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    build_document,
    canonical_dumps,
    fixture_document,
    main,
    parse_document,
    parse_instance,
)
from treesub.errors import DomainError, FormatError

from conftest import BadCell, canonical_document_oracle, drift_the_solve


def write_fixture(tmp_path: Path, name: str, fixture_name: str) -> Path:
    fx = ts.generate("fixture-catalog", name=fixture_name)
    path = tmp_path / name
    path.write_text(canonical_dumps(fixture_document(fx, None, "fixture-catalog")))
    return path


def corpus_paths() -> list[Path]:
    corpus = Path(ts.__file__).parent / "corpus"
    paths = sorted(corpus.glob("*.json"))
    assert paths, "shipped corpus is missing"
    return paths


# ---------------------------------------------------------------------------
# Document format


def test_corpus_roundtrip_idempotent():
    for path in corpus_paths():
        text = path.read_text(encoding="utf-8")
        domain, function, metadata = parse_instance(path)
        assert canonical_dumps(build_document(domain, function, metadata)) == text


def test_parse_print_parse_is_parse(tmp_path):
    doc = {
        "format_version": "1",
        "trees": [{"parent": [-1, 0, 1]}],
        "function": {
            "type": "table",
            "denominator": 2,
            "values": [1, {"num": 3, "den": 4}, 2],
        },
    }
    domain, function, metadata = parse_document(doc)
    printed = canonical_dumps(build_document(domain, function, metadata))
    domain2, function2, _ = parse_document(json.loads(printed))
    assert canonical_dumps(build_document(domain2, function2, {})) == printed
    # 1/2, 3/4, 1 under a common denominator 4
    assert function.denominator == 4
    assert function.values == (2, 3, 4)


def test_canonical_reduces_common_factors():
    doc = {
        "format_version": "1",
        "trees": [{"parent": [-1, 0]}],
        "function": {"type": "table", "denominator": 2, "values": [2, 4]},
    }
    _, function, _ = parse_document(doc)
    assert function.denominator == 1
    assert function.values == (1, 2)


def test_sum_document_roundtrip():
    doc = {
        "format_version": "1",
        "trees": [{"parent": [-1, 0]}, {"parent": [-1, 0, 0]}],
        "function": {
            "type": "sum",
            "terms": [
                {"scope": [0], "values": [0, 3]},
                {"scope": [0, 1], "values": [0, 1, 2, 3, 4, 5]},
            ],
        },
    }
    domain, function, _ = parse_document(doc)
    assert isinstance(function, ts.SumOfTerms)
    out = canonical_dumps(build_document(domain, function, {}))
    domain2, function2, _ = parse_document(json.loads(out))
    for x in domain.labelings():
        assert function.evaluate(x) == function2.evaluate(x)


@pytest.mark.parametrize(
    "mutate, path_hint",
    [
        (lambda d: d.update(format_version="9"), "format_version"),
        (lambda d: d.update(trees=[]), "trees"),
        (lambda d: d["trees"].append({"parent": [0, 1]}), "trees[1]"),
        (lambda d: d["function"].update(type="spline"), "function.type"),
        (lambda d: d["function"]["values"].append(1), "function.values"),
        (lambda d: d["function"]["values"].__setitem__(0, "x"), "function.values[0]"),
        (lambda d: d["function"]["values"].__setitem__(0, {"num": 1, "den": 0}), "den"),
        (lambda d: d.update(metadata=7), "metadata"),
    ],
)
def test_positioned_parse_errors(mutate, path_hint):
    doc = {
        "format_version": "1",
        "trees": [{"parent": [-1, 0, 1]}],
        "function": {"type": "table", "denominator": 1, "values": [0, 1, 2]},
    }
    mutate(doc)
    with pytest.raises(FormatError) as err:
        parse_document(doc)
    assert path_hint in str(err.value)


def _table_doc() -> dict:
    return {"format_version": "1", "trees": [{"parent": [-1, 0, 1]}],
            "function": {"type": "table", "denominator": 1, "values": [0, 1, 2]}}


def _sum_doc() -> dict:
    return {"format_version": "1", "trees": [{"parent": [-1, 0, 1]}, {"parent": [-1, 0]}],
            "function": {"type": "sum", "terms": [{"scope": [0], "values": [0, 1, 2]}]}}


def _set_term(**entry):
    return lambda d: d["function"]["terms"][0].update(entry)


_TERM_ENTRY = 'expected an object {"scope": [...], "values": [...]}'
_NOT_A_SCOPE = "function.terms[0].scope: expected a non-empty array of integers"
_REFUSALS = [
    ("top-level keys", _table_doc, lambda d: d.update(extra=1, other=2),
     "instance: unexpected keys ['extra', 'other']"),
    ("tree entry not an object", _table_doc, lambda d: d["trees"].append([-1, 0]),
     'trees[1]: expected an object {"parent": [...]}'),
    ("tree entry with another key", _table_doc, lambda d: d["trees"][0].update(children=[]),
     'trees[0]: expected an object {"parent": [...]}'),
    ("float parent", _table_doc, lambda d: d["trees"][0].update(parent=[-1, 0, 1.0]),
     "trees[0].parent: expected an array of integers"),
    ("bool parent", _table_doc, lambda d: d["trees"][0].update(parent=[-1, True, 1]),
     "trees[0].parent: expected an array of integers"),
    ("string parent", _table_doc, lambda d: d["trees"][0].update(parent="-1,0,1"),
     "trees[0].parent: expected an array of integers"),
    ("function not an object", _table_doc, lambda d: d.update(function=[0, 1, 2]),
     "function: expected an object"),
    ("true denominator", _table_doc, lambda d: d["function"].update(denominator=True),
     "function.denominator: expected a positive integer"),
    ("zero denominator", _table_doc, lambda d: d["function"].update(denominator=0),
     "function.denominator: expected a positive integer"),
    ("float denominator", _table_doc, lambda d: d["function"].update(denominator=1.5),
     "function.denominator: expected a positive integer"),
    ("function keys", _table_doc, lambda d: d["function"].update(terms=[]),
     "function: unexpected keys ['terms']"),
    ("body not an array", _table_doc, lambda d: d["function"].update(values={"0": 1}),
     "function.values: expected an array"),
    ("term not an object", _sum_doc, lambda d: d["function"].update(terms=[[[0], [0, 1, 2]]]),
     "function.terms[0]: " + _TERM_ENTRY),
    ("term with another key", _sum_doc, _set_term(weight=1), "function.terms[0]: " + _TERM_ENTRY),
    ("empty scope", _sum_doc, _set_term(scope=[]), _NOT_A_SCOPE),
    ("bool scope", _sum_doc, _set_term(scope=[True]), _NOT_A_SCOPE),
    ("scope not an array", _sum_doc, _set_term(scope=0), _NOT_A_SCOPE),
    ("term values not an array", _sum_doc, _set_term(values="012"),
     "function.terms[0].values: expected an array"),
    ("arity 4", _sum_doc, _set_term(scope=[0, 1, 0, 1]),
     "function.terms[0]: term arity 4 is not in 1..3"),
    ("repeated scope", _sum_doc, _set_term(scope=[0, 0], values=[0] * 9),
     "function.terms[0]: term scope (0, 0) repeats a variable"),
    ("scope out of range", _sum_doc, _set_term(scope=[2]),
     "function.terms: term scope index 2 is out of range"),
    ("term of wrong length", _sum_doc, _set_term(values=[0, 1]),
     "function.terms: term over scope (0,) has 2 entries, expected 3"),
]


@pytest.mark.parametrize("case, base, mutate, message", _REFUSALS, ids=[c[0] for c in _REFUSALS])
def test_parse_refusals_keep_their_text(case, base, mutate, message):
    doc = base()
    mutate(doc)
    with pytest.raises(FormatError) as err:
        parse_document(doc)
    assert str(err.value) == message


def test_a_refused_document_exits_two_with_one_error_line(tmp_path, capsys):
    doc = _table_doc()
    doc["function"]["denominator"] = True
    path = tmp_path / "true_denominator.json"
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: function.denominator: expected a positive integer\n"


@pytest.mark.parametrize("spec, message", [
    (",", "--tree-spec is empty"),
    ("chainX", "tree spec 'chainX' needs an integer suffix"),
])
def test_bad_tree_specs_keep_their_text(spec, message, tmp_path, capsys):
    out = tmp_path / "g.json"
    argv = ["generate", "--kind", "chain-separable", "--tree-spec", spec, "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_build_document_refuses_a_foreign_cost():
    class Foreign(ts.CostFunction):
        pass

    with pytest.raises(DomainError) as err:
        build_document(ts.ProductDomain([ts.chain_tree(2)]), Foreign())
    assert str(err.value) == "cannot serialize cost function of type Foreign"


_BAD_VALUES = (True, False, 2.5, "7", None, [1], {"num": 1}, {"num": 1, "den": 0},
               {"num": 1, "den": -4}, {"num": True, "den": 1}, {"num": 1, "den": 2.0},
               {"num": 1, "den": 2, "sign": -1}, {"value": 3})
_DENOMINATORS = (1, 4, 9, 10**20)


def _random_value(rng: ts.SplitMix64):
    kind = rng.below(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.below(41) - 20
    if kind == 2:
        return (2**63 + rng.below(1000)) * (1 - 2 * rng.below(2))
    return {"num": rng.below(41) - 20 if kind < 5 else 3 * 2**70 + rng.below(9),
            "den": _DENOMINATORS[rng.below(len(_DENOMINATORS))]}


def _random_document(rng: ts.SplitMix64) -> dict:
    sizes = [1 + rng.below(4) for _ in range(1 + rng.below(3))]
    trees = [{"parent": [-1] + [rng.below(v) for v in range(1, k)]} for k in sizes]
    all_zero = rng.below(8) == 0

    def values(count: int) -> list:
        return [0 if all_zero else _random_value(rng) for _ in range(count)]

    if rng.below(2):
        fn: dict = {"type": "table", "values": values(math.prod(sizes))}
        cells = [fn["values"]]
    else:
        terms = []
        for _ in range(rng.below(4)):
            scope = [v for v in range(len(sizes)) if rng.below(2)] or [rng.below(len(sizes))]
            terms.append({"scope": scope, "values": values(math.prod(sizes[v] for v in scope))})
        fn = {"type": "sum", "terms": terms}
        cells = [t["values"] for t in terms]
    if rng.below(4):
        fn["denominator"] = _DENOMINATORS[rng.below(len(_DENOMINATORS))]
    for _ in range(rng.below(3) if cells else 0):
        group = cells[rng.below(len(cells))]
        group[rng.below(len(group))] = _BAD_VALUES[rng.below(len(_BAD_VALUES))]
    doc = {"format_version": "1", "trees": trees, "function": fn}
    if rng.below(2):
        doc["metadata"] = {"seed": rng.below(100)}
    return doc


def test_parse_matches_the_canonical_form_oracle():
    rng = ts.SplitMix64(77)
    outcomes = {"ok": 0, "bad": 0}
    for case in range(600):
        doc = _random_document(rng)
        try:
            expected = canonical_document_oracle(doc)
        except BadCell as bad:
            outcomes["bad"] += 1
            with pytest.raises(FormatError) as err:
                parse_document(doc)
            assert str(err.value) == str(bad), case
            continue
        outcomes["ok"] += 1
        got = build_document(*parse_document(doc))
        assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True), case
    assert min(outcomes.values()) > 100, outcomes


def _parse_against_oracle(doc: dict) -> str | None:
    """Check parse_document against the oracle; the shared error text, or None."""
    try:
        expected = canonical_document_oracle(doc)
    except BadCell as bad:
        with pytest.raises(FormatError) as err:
            parse_document(doc)
        assert str(err.value) == str(bad)
        return str(bad)
    got = build_document(*parse_document(doc))
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
    return None


_BINTREE7 = [-1, 0, 0, 1, 1, 2, 2]
_LAST = 7**6 - 1


@pytest.fixture(scope="module")
def big_table() -> dict:
    """A 117,649-cell bintree7^6 table of even values over denominator 6."""
    rng = ts.SplitMix64(12)
    return {
        "format_version": "1",
        "trees": [{"parent": list(_BINTREE7)} for _ in range(6)],
        "function": {"type": "table", "denominator": 6,
                     "values": [2 * rng.below(2001) - 2000 for _ in range(_LAST + 1)]},
    }


def _with_cells(doc: dict, cells: dict) -> dict:
    values = list(doc["function"]["values"])
    for index, raw in cells.items():
        values[index] = raw
    return {**doc, "function": {**doc["function"], "values": values}}


def test_large_plain_table_matches_the_oracle(big_table):
    assert _parse_against_oracle(big_table) is None
    assert parse_document(big_table)[1].denominator == 3


@pytest.mark.parametrize("bad, suffix", [
    (True, ": expected an integer or {num, den} object"),
    (2.5, ": expected an integer or {num, den} object"),
    ({"num": 1}, ".den: expected a positive integer"),
])
def test_large_table_reports_a_bad_last_cell(big_table, bad, suffix):
    doc = _with_cells(big_table, {_LAST: bad})
    assert _parse_against_oracle(doc) == f"function.values[{_LAST}]{suffix}"


def test_large_table_reports_the_first_of_two_bad_cells(big_table):
    doc = _with_cells(big_table, {40_000: {"num": 1, "den": 0}, _LAST: True})
    assert _parse_against_oracle(doc) == "function.values[40000].den: expected a positive integer"


def _count_parse_value_calls(monkeypatch) -> list:
    """Record (where, index, raw) of every cli._parse_value call."""
    calls = []
    real = cli._parse_value

    def counted(raw, where, index):
        calls.append((where, index, raw))
        return real(raw, where, index)

    monkeypatch.setattr(cli, "_parse_value", counted)
    return calls


def test_plain_int_table_makes_no_per_cell_parse_call(big_table, monkeypatch):
    calls = _count_parse_value_calls(monkeypatch)
    parse_document(big_table)
    assert calls == []


@pytest.mark.parametrize("denominator, factor", [(6, 2), (1, 1)])
def test_plain_int_table_cells_are_type_scanned_once(big_table, monkeypatch, denominator, factor):
    """The parser's ``non_int_cells`` pass is the table's only type scan,
    and the table stores its own tuple, not the document's list."""
    scanned = []
    real = trees.non_int_cells

    def counted(values):
        scanned.append(len(values))
        return real(values)

    monkeypatch.setattr(cli, "non_int_cells", counted)
    monkeypatch.setattr(trees, "non_int_cells", counted)
    cells = list(big_table["function"]["values"])
    doc = {**big_table, "function": {**big_table["function"], "denominator": denominator, "values": cells}}
    f = parse_document(doc)[1]
    assert [n for n in scanned if n == _LAST + 1] == [_LAST + 1]
    assert type(f.values) is tuple
    assert f.values == tuple(c // factor for c in cells)
    assert f.denominator == denominator // factor


def test_only_the_non_int_cells_are_parsed_in_document_order(big_table, monkeypatch):
    cells = {9: {"num": 3, "den": 4}, 70_000: 2.5, 500: True, _LAST: {"num": 1, "den": 2}}
    calls = _count_parse_value_calls(monkeypatch)
    with pytest.raises(FormatError) as err:
        parse_document(_with_cells(big_table, cells))
    assert str(err.value) == "function.values[500]: expected an integer or {num, den} object"
    assert [index for _, index, _ in calls] == [9, 500]
    del calls[:]
    good = {9: {"num": 3, "den": 4}, _LAST: {"num": 1, "den": 2}}
    parse_document(_with_cells(big_table, good))
    assert calls == [("function.values", 9, good[9]), ("function.values", _LAST, good[_LAST])]


def test_declared_denominator_no_cell_uses_leaves_no_factor():
    rng = ts.SplitMix64(5)
    values = [{"num": rng.below(41) - 20, "den": (2, 4, 6, 12)[rng.below(4)]} for _ in range(7**4)]
    doc = {
        "format_version": "1",
        "trees": [{"parent": list(_BINTREE7)} for _ in range(4)],
        "function": {"type": "table", "denominator": 35, "values": values},
    }
    assert _parse_against_oracle(doc) is None
    assert parse_document(doc)[1].denominator == 12


def test_sum_mixing_plain_and_fraction_cells_matches_the_oracle():
    rng = ts.SplitMix64(9)

    def cells(count: int, kinds: str) -> list:
        """Cells drawn from kinds: "i" a plain integer, "f" a {num, den} object."""
        out = []
        for _ in range(count):
            if kinds[rng.below(len(kinds))] == "i":
                out.append((rng.below(41) - 20) * (1 if rng.below(4) else 2**64))
            else:
                out.append({"num": rng.below(41) - 20, "den": (1, 3, 4, 10)[rng.below(4)]})
        return out

    doc = {
        "format_version": "1",
        "trees": [{"parent": list(_BINTREE7)}, {"parent": [-1, 0, 1, 2, 3]}, {"parent": [-1, 0, 0]}],
        "function": {"type": "sum", "denominator": 4, "terms": [
            {"scope": [0], "values": cells(7, "i")},
            {"scope": [0, 1], "values": cells(35, "if")},
            {"scope": [1, 2], "values": cells(15, "f")},
            {"scope": [2, 0, 1], "values": cells(105, "if")},
        ]},
    }
    assert _parse_against_oracle(doc) is None
    terms = doc["function"]["terms"]
    terms[1]["values"][20] = 2.5
    terms[3]["values"][3] = {"num": 1}
    assert _parse_against_oracle(doc) == (
        "function.terms[1].values[20]: expected an integer or {num, den} object"
    )


@pytest.mark.parametrize(
    "values, value",
    [([4, -3, 0], {"num": -1, "den": 2}), ([0, 3, 9], {"num": 0, "den": 1})],
)
def test_report_values_are_reduced_fractions(tmp_path, capsys, values, value):
    doc = {
        "format_version": "1",
        "trees": [{"parent": [-1, 0, 0]}],
        "function": {"type": "table", "denominator": 6, "values": values},
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["minimize", str(path), "--solver", "brute"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["value"] == value


# ---------------------------------------------------------------------------
# Exit codes


def test_check_ok_exit_zero(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["check", str(path), "--property", "strong"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is True and record["witness"] is None


def test_check_violation_exit_one(tmp_path, capsys):
    path = write_fixture(tmp_path, "concave.json", "chain5-concave")
    assert main(["check", str(path), "--property", "strong"]) == EXIT_VIOLATION
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is False
    assert record["witness"]["x"] == [0] and record["witness"]["y"] == [2]
    assert record["witness"]["lhs"] == {"num": -4, "den": 1}


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_an_unconfirmed_flagged_pair_exits_three(mode, tmp_path, monkeypatch, capsys):
    path = write_fixture(tmp_path, "concave.json", "chain5-concave")
    monkeypatch.setattr(checks, "_first_violation", lambda *a: None)
    assert main(["check", str(path), "--mode", mode]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: strong check: the array pass flagged x = (")
    assert captured.err.count("\n") == 1 and captured.err.endswith("finds no violation\n")


def test_check_malformed_instance_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"format_version": "1", "trees": [{"parent": [0, 1]}], '
                    '"function": {"type": "table", "values": [0, 1]}}')
    assert main(["check", str(path)]) == EXIT_INPUT
    assert "trees[0]" in capsys.readouterr().err


@pytest.mark.parametrize("function", [
    {"type": "table", "values": [0.9, 0.5, 2]},
    {"type": "sum", "terms": [{"scope": [0], "values": [0, 0.5, 1]}]},
])
def test_non_integer_cost_cells_exit_two(tmp_path, capsys, function):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"format_version": "1", "trees": [{"parent": [-1, 0, 1]}],
                                "function": function}))
    for command in ("check", "minimize"):
        assert main([command, str(path)]) == EXIT_INPUT
        assert "expected an integer" in capsys.readouterr().err


def test_check_missing_file_exit_two(tmp_path):
    assert main(["check", str(tmp_path / "nope.json")]) == EXIT_INPUT


def test_check_budget_exit_three(tmp_path, monkeypatch, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    monkeypatch.setenv("TREESUB_BUDGET", "3")
    assert main(["check", str(path)]) == EXIT_FAILURE
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("raw, message", [
    ("abc", "TREESUB_BUDGET='abc' is not an integer"),
    ("0", "TREESUB_BUDGET=0 must be positive"),
    ("-3", "TREESUB_BUDGET=-3 must be positive"),
    ("1e6", "TREESUB_BUDGET='1e6' is not an integer"),
])
def test_bad_budget_variable_exits_two(raw, message, monkeypatch, capsys):
    monkeypatch.setenv("TREESUB_BUDGET", raw)
    path = next(p for p in corpus_paths() if p.name == "chain5_quadratic.json")
    assert main(["check", str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_minimize_descent_rejects_ternary_exit_two(tmp_path):
    dom = ts.ProductDomain([ts.RootedTree([-1, 0, 0, 0])])
    f = ts.DenseTable(dom, [3, 2, 1, 0])
    path = tmp_path / "ternary.json"
    path.write_text(canonical_dumps(build_document(dom, f, {})))
    assert main(["minimize", str(path), "--solver", "descent"]) == EXIT_INPUT
    assert main(["minimize", str(path), "--solver", "brute"]) == EXIT_OK


def test_generate_failure_exit_three(tmp_path, capsys):
    out = tmp_path / "x.json"
    for spec, err in ((["chain3", "--attempts", "0"], "attempt budget 0: acceptance rate 0/0"),
                      (["chain3", "--attempts", "-5"], "attempt budget -5: acceptance rate 0/0"),
                      (["bintree7", "--n", "2", "--attempts", "1"],
                       "random-verified-strong: no candidate accepted; acceptance rate 0/1")):
        code = main(["generate", "--kind", "random-verified-strong", "--tree-spec", *spec,
                     "--out", str(out)])
        assert code == EXIT_FAILURE
        assert capsys.readouterr() == ("", f"error: {err}\n")
        assert not out.exists()


def test_generate_negative_max_value_exits_two(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main([
        "generate", "--kind", "random-verified-strong", "--tree-spec", "chain3", "--n", "2",
        "--max-value", "-1", "--out", str(out),
    ])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: max_value must be non-negative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["minimize", "check", "bench", "generate"])
def test_unwritable_out_exits_two(command, target, tmp_path, capsys):
    instance = write_fixture(tmp_path, "sep.json", "chain5-separable")
    out = tmp_path / "missing" / "r.json" if target == "missing-directory" else tmp_path
    argv = {
        "minimize": ["minimize", str(instance)],
        "check": ["check", str(instance)],
        "bench": ["bench"],
        "generate": ["generate", "--kind", "fixture-catalog", "--name", "chain5-separable"],
    }[command]
    assert main(argv + ["--out", str(out)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {out}: ")


# ---------------------------------------------------------------------------
# Minimize command


def test_minimize_record_and_cross_solver(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["minimize", str(path), "--solver", "descent", "--trace"]) == EXIT_OK
    descent_record = json.loads(capsys.readouterr().out)
    assert main(["minimize", str(path), "--solver", "brute"]) == EXIT_OK
    brute_record = json.loads(capsys.readouterr().out)
    assert descent_record["value"] == brute_record["value"] == {"num": 2, "den": 1}
    assert descent_record["s1_steps"] == 0
    assert descent_record["certificate"] == {"inward_opt": True, "outward_opt": True}
    values = [v["num"] for v in descent_record["values"]]
    assert values == sorted(values, reverse=True)


def test_minimize_minnorm_engine(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["minimize", str(path), "--engine", "minnorm"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == {"num": 2, "den": 1}
    assert record["certificate"] == {"inward_opt": True, "outward_opt": True}


def test_minimize_start_flag(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["minimize", str(path), "--start", "4,4"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["s1_steps"] >= 1
    assert main(["minimize", str(path), "--start", "9,9"]) == EXIT_INPUT
    assert main(["minimize", str(path), "--start", "a,b"]) == EXIT_INPUT


def test_minimize_weak_solver(tmp_path, capsys):
    path = write_fixture(tmp_path, "weakfx.json", "fork2-weak")
    assert main(["minimize", str(path), "--solver", "weak"]) == EXIT_OK
    weak_record = json.loads(capsys.readouterr().out)
    assert main(["minimize", str(path), "--solver", "brute"]) == EXIT_OK
    brute_record = json.loads(capsys.readouterr().out)
    assert weak_record["value"] == brute_record["value"]
    assert weak_record["s1_steps"] is None


def test_minimize_weak_solver_budget_counts_labelings(tmp_path, capsys, monkeypatch):
    domain = ts.ProductDomain([ts.fork_tree(3)] * 3)
    path = tmp_path / "fork3cube.json"
    f = ts.DenseTable(domain, [v % 7 for v in range(domain.size())])
    path.write_text(canonical_dumps(build_document(domain, f)))
    monkeypatch.setenv("TREESUB_BUDGET", "100")
    assert main(["minimize", str(path), "--solver", "weak"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "216" in captured.err


def test_minnorm_corral_failure_exits_three(monkeypatch, capsys):
    drift_the_solve(monkeypatch)
    path = corpus_paths()[0]
    assert main(["minimize", str(path), "--engine", "minnorm"]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "drifted" in captured.err
    assert "Traceback" not in captured.err


def test_minimize_metadata_start_used(tmp_path, capsys):
    path = write_fixture(tmp_path, "quad.json", "chain5-quadratic")
    assert main(["minimize", str(path), "--diagnostics"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert [d["rho_minus"] for d in record["diagnostics"]] == [4, 3, 2, 1, 0]


# ---------------------------------------------------------------------------
# Generate command


def test_generate_deterministic_bytes(tmp_path, capsys):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "--kind", "random-verified-strong", "--tree-spec",
            "chain4,chain4", "--seed", "31"]
    assert main(argv + ["--out", str(out1)]) == EXIT_OK
    assert main(argv + ["--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_generated_file_passes_its_check(tmp_path, capsys):
    out = tmp_path / "weak.json"
    code = main(["generate", "--kind", "random-verified-weak", "--tree-spec",
                 "fork2", "--n", "2", "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    capsys.readouterr()
    assert main(["check", str(out), "--property", "weak"]) == EXIT_OK
    meta = json.loads(out.read_text())["metadata"]
    assert meta["seed"] == 5 and meta["properties"] == ["weak"]


def test_generate_chain_separable_passes_strong_check(tmp_path, capsys):
    out = tmp_path / "sep.json"
    assert main(["generate", "--kind", "chain-separable", "--tree-spec", "chain5",
                 "--n", "2", "--seed", "3", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["check", str(out), "--property", "strong"]) == EXIT_OK


def test_generate_catalog_and_tree_spec_validation(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["generate", "--kind", "fixture-catalog", "--name",
                 "star3-root-spike", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["generate", "--kind", "chain-separable", "--tree-spec",
                 "pyramid9", "--out", str(out)]) == EXIT_INPUT
    assert main(["generate", "--kind", "chain-separable", "--out", str(out)]) == EXIT_INPUT
    capsys.readouterr()
    assert main(["generate", "--kind", "random-verified-strong", "--tree-spec", "chain3,chain4",
                 "--n", "3", "--out", str(out)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert err.startswith("error: --n replicates a single-token --tree-spec")
    assert "'chain3,chain4' has 2 tokens" in err
    assert main(["generate", "--kind", "chain-separable", "--tree-spec", "chain3,chain4",
                 "--out", str(out)]) == EXIT_OK


@pytest.mark.parametrize("flags, flag", [
    (["--kind", "fixture-catalog", "--name", "star3-root-spike", "--tree-spec", "chain3,chain4"],
     "--tree-spec"),
    (["--kind", "fixture-catalog", "--name", "star3-root-spike", "--n", "3"], "--n"),
    (["--kind", "chain-separable", "--tree-spec", "chain3,chain3", "--name", "const-mixed"],
     "--name"),
    (["--kind", "random-verified-weak", "--tree-spec", "fork1", "--n", "2", "--name", "fork2-weak"],
     "--name"),
    (["--kind", "fixture-catalog", "--name", "const-mixed", "--seed", "9", "--attempts", "2"],
     "--seed"),
    (["--kind", "fixture-catalog", "--name", "const-mixed", "--seed", "0"], "--seed"),
    (["--kind", "fixture-catalog", "--name", "const-mixed", "--max-value", "20"], "--max-value"),
    (["--kind", "fixture-catalog", "--name", "const-mixed", "--attempts", "1000"], "--attempts"),
    (["--kind", "chain-separable", "--tree-spec", "chain3", "--attempts", "3"], "--attempts"),
])
def test_generate_refuses_a_flag_its_kind_does_not_read(flags, flag, tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["generate", *flags, "--out", str(out)]) == EXIT_INPUT
    assert capsys.readouterr().err == f"error: kind {flags[1]!r} does not read {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["minimize", "--solver", "brute", "--engine", "minnorm"],
     "solver 'brute' does not read --engine"),
    (["minimize", "--solver", "brute", "--engine", "brute"],
     "solver 'brute' does not read --engine"),
    (["minimize", "--solver", "weak", "--start", "4,4"], "solver 'weak' does not read --start"),
    (["minimize", "--solver", "brute", "--trace"], "solver 'brute' does not read --trace"),
    (["minimize", "--solver", "weak", "--diagnostics"],
     "solver 'weak' does not read --diagnostics"),
    (["minimize", "--solver", "brute", "--engine", "minnorm", "--start", "4", "--trace",
      "--diagnostics"], "solver 'brute' does not read --engine"),
    (["check", "--ops", "projections"], "property 'strong' does not read --ops"),
    (["check", "--property", "translation", "--mode", "sampled", "--ops", "meet-join"],
     "property 'translation' does not read --ops"),
    (["check", "--samples", "5"], "mode 'exhaustive' does not read --samples"),
    (["check", "--property", "weak", "--mode", "exhaustive", "--seed", "0"],
     "mode 'exhaustive' does not read --seed"),
    (["check", "--ops", "projections", "--samples", "5", "--seed", "9"],
     "property 'strong' does not read --ops"),
])
def test_minimize_and_check_refuse_a_flag_they_do_not_read(flags, message, tmp_path, capsys):
    """Refused before the instance is read: the file named does not exist."""
    out = tmp_path / "r.json"
    argv = [flags[0], str(tmp_path / "missing.json"), *flags[1:], "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("left_out, given, expect", [
    (["minimize"], ["minimize", "--engine", "brute"], {"engine": "brute"}),
    (["check", "--property", "multimorphism"],
     ["check", "--property", "multimorphism", "--ops", "meet-join"],
     {"property": "multimorphism:meet-join"}),
    (["check", "--mode", "sampled"], ["check", "--mode", "sampled", "--samples", "1000",
                                      "--seed", "0"],
     {"pairs_checked": 1000, "note": "no violation found in 1000 samples; not a proof"}),
    (["check", "--property", "multimorphism", "--mode", "sampled"],
     ["check", "--property", "multimorphism", "--mode", "sampled", "--ops", "meet-join",
      "--samples", "1000", "--seed", "0"],
     {"property": "multimorphism:meet-join", "pairs_checked": 1000}),
])
def test_minimize_and_check_left_out_flags_take_their_documented_defaults(left_out, given, expect,
                                                                         tmp_path, capsys):
    path = write_fixture(tmp_path, "quad.json", "chain5-quadratic")
    reports = []
    for argv in (left_out, given):
        assert main([argv[0], str(path), *argv[1:]]) == EXIT_OK
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]
    record = json.loads(reports[0])
    assert {k: record[k] for k in expect} == expect


@pytest.mark.parametrize("kind, spec, given", [
    ("random-verified-strong", "chain3,chain4", ["--seed", "0", "--max-value", "20",
                                                 "--attempts", "1000"]),
    ("random-verified-weak", "fork2,fork2", ["--seed", "0", "--max-value", "20",
                                             "--attempts", "1000"]),
    ("chain-separable", "chain5,chain3", ["--seed", "0", "--max-value", "20"]),
    ("chain-separable", "chain5,chain3", ["--max-value", "3"]),
])
def test_generate_left_out_flags_take_their_documented_defaults(kind, spec, given, tmp_path,
                                                                capsys):
    outputs = []
    for flags in ([], given):
        out = tmp_path / f"g{len(flags)}.json"
        assert main(["generate", "--kind", kind, "--tree-spec", spec, *flags,
                     "--out", str(out)]) == EXIT_OK
        report = capsys.readouterr().out.replace(str(out), "OUT")
        outputs.append((out.read_bytes(), report))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][1])["seed"] == 0


def test_generate_help_states_the_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in ("(default: 0)", "(default: 20)", "(default: 1000)"):
        assert default in text


@pytest.mark.parametrize("command, defaults", [
    ("check", ("(default: 1000)", "(default: 0)", "(default: meet-join)")),
    ("minimize", ("brute (default)",)),
])
def test_check_and_minimize_help_state_the_defaults(command, defaults, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for default in defaults:
        assert default in text


# ---------------------------------------------------------------------------
# Bench and encode-weak


def test_bench_corpus_ok(capsys):
    assert main(["bench"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["ok"] is True
    assert [r["instance"] for r in record["rows"]] == sorted(
        r["instance"] for r in record["rows"]
    )
    for row in record["rows"]:
        assert row["steps_within_bound"]
        assert "wall_ms" not in row  # timing excluded by default


def test_bench_empty_suite(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path)]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["rows"] == [] and record["ok"] is True


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_bench_suite_must_be_a_directory(kind, tmp_path, capsys):
    suite = tmp_path / "nonexistent"
    if kind == "file":
        suite = write_fixture(tmp_path, "quad.json", "chain5-quadratic")
    assert main(["bench", "--suite", str(suite)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(suite) in captured.err


@pytest.mark.parametrize("properties", [3, "strong", ["strong", 1]])
def test_bench_rejects_properties_that_are_not_strings(properties, tmp_path, capsys):
    fx = ts.generate("fixture-catalog", name="chain5-quadratic")
    doc = fixture_document(fx, None, "fixture-catalog")
    doc["metadata"]["properties"] = properties
    (tmp_path / "row.json").write_text(canonical_dumps(doc))
    assert main(["bench", "--suite", str(tmp_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {tmp_path / 'row.json'}: metadata.properties: expected an array of strings\n"
    )


_STAR4 = {"parent": [-1, 0, 0, 0]}


@pytest.mark.parametrize("tree, values, metadata, message", [
    ({"parent": [-1, 0, 1]}, [1, 0], {},
     "function.values: expected 3 entries for this domain, got 2"),
    (_STAR4, [1, 0, 2, 3], {}, "tree 0 is not binary: node 0 has 3 children"),
    (_STAR4, [1, 0, 2, 3], {"properties": ["weak"]}, "tree 0: node 0 has 3 children"),
])
def test_bench_row_errors_name_the_file(tree, values, metadata, message, tmp_path, capsys):
    path = tmp_path / "row.json"
    path.write_text(json.dumps({"format_version": "1", "trees": [tree], "metadata": metadata,
                                "function": {"type": "table", "values": values}}))
    assert main(["bench", "--suite", str(tmp_path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


@pytest.mark.parametrize("doc, message", [
    ({"format_version": "1", "trees": [{"parent": [-1, 0, 1]}],
      "function": {"type": "table", "values": [1, 0]}},
     "function.values: expected 3 entries for this domain, got 2"),
    ([1], "top level must be an object"),  # already names the file: no second prefix
])
@pytest.mark.parametrize("command", ["minimize", "check", "encode-weak"])
def test_parse_errors_name_the_file(command, doc, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: {message}\n"


def _quadratic_with_start(tmp_path: Path, start) -> Path:
    fx = ts.generate("fixture-catalog", name="chain5-quadratic")
    doc = fixture_document(fx, None, "fixture-catalog")
    doc["metadata"]["start"] = start
    path = tmp_path / "row.json"
    path.write_text(canonical_dumps(doc))
    return path


@pytest.mark.parametrize("start, message", [
    ([9], "node id 9 is not in 0..4"),
    ([1, 2], "labeling length 2 does not match arity 1"),
    ("4", "expected an array of integers"),
])
@pytest.mark.parametrize("command", ["minimize", "bench"])
def test_bad_metadata_start_names_the_file(command, start, message, tmp_path, capsys):
    path = _quadratic_with_start(tmp_path, start)
    argv = ["minimize", str(path)] if command == "minimize" else ["bench", "--suite", str(tmp_path)]
    assert main(argv) == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: metadata.start: {message}\n"


def test_start_flag_errors_keep_their_wording(tmp_path, capsys):
    path = _quadratic_with_start(tmp_path, [9])
    assert main(["minimize", str(path), "--start", "7"]) == EXIT_INPUT
    assert capsys.readouterr().err == "error: node id 7 is not in 0..4\n"


def test_bench_deterministic_and_jobs(capsys):
    assert main(["bench", "--diagnostics"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["bench", "--diagnostics"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    with pytest.raises(SystemExit) as refused:
        main(["bench", "--jobs", "3"])
    assert refused.value.code == EXIT_INPUT
    assert "unrecognized arguments: --jobs 3" in capsys.readouterr().err


def test_bench_diagnostics_chain_trace(capsys):
    assert main(["bench", "--diagnostics"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    quad = next(r for r in record["rows"] if r["instance"] == "chain5_quadratic.json")
    minus = quad["rho_minus"]
    assert minus == sorted(minus, reverse=True) and minus[-1] == 0
    assert all(a > b for a, b in zip(minus, minus[1:]))


def test_bench_timing_flag(capsys):
    assert main(["bench", "--timing"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert all("wall_ms" in row for row in record["rows"])


def test_encode_weak_dump(tmp_path, capsys):
    path = write_fixture(tmp_path, "weakfx.json", "fork2-weak")
    assert main(["encode-weak", str(path)]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    tree0 = record["trees"][0]
    assert tree0["K"] == 2 and tree0["fork"] is True
    mapping = {m["label"]: tuple(m["encoded"]) for m in tree0["mapping"]}
    assert mapping[3] == (1, 1, -1) and mapping[0] == (0, 0, 0)


def test_encode_weak_rejects_non_fork(tmp_path):
    dom = ts.ProductDomain([ts.complete_binary_tree(3)])
    f = ts.DenseTable(dom, [0] * 7)
    path = tmp_path / "bin.json"
    path.write_text(canonical_dumps(build_document(dom, f, {})))
    assert main(["encode-weak", str(path)]) == EXIT_INPUT


def test_check_report_deterministic_bytes(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["check", str(path), "--property", "translation"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", str(path), "--property", "translation"]) == EXIT_OK
    assert capsys.readouterr().out == first


def test_check_multimorphism_ops(tmp_path, capsys):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    assert main(["check", str(path), "--property", "multimorphism",
                 "--ops", "projections"]) == EXIT_OK
    assert main(["check", str(path), "--property", "multimorphism",
                 "--ops", "min-max"]) == EXIT_OK
    assert main(["check", str(path), "--property", "multimorphism",
                 "--ops", "wedge-vee"]) == EXIT_OK
    capsys.readouterr()
    concave = write_fixture(tmp_path, "concave.json", "chain5-concave")
    assert main(["check", str(concave), "--property", "multimorphism",
                 "--ops", "meet-join"]) == EXIT_VIOLATION


def test_sampled_check_cli(tmp_path, capsys):
    path = write_fixture(tmp_path, "concave.json", "chain5-concave")
    code = main(["check", str(path), "--mode", "sampled", "--samples", "300",
                 "--seed", "4"])
    assert code == EXIT_VIOLATION
    record = json.loads(capsys.readouterr().out)
    assert record["mode"] == "sampled"


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sampled_check_rejects_non_positive_samples(tmp_path, capsys, samples):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    code = main(["check", str(path), "--mode", "sampled", "--samples", samples])
    assert code == EXIT_INPUT
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sample" in captured.err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "treesub", "bench"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout)["ok"] is True


def test_report_out_flag(tmp_path):
    path = write_fixture(tmp_path, "sep.json", "chain5-separable")
    out = tmp_path / "report.json"
    assert main(["check", str(path), "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["ok"] is True


def test_argument_parser_is_built_once_per_process(tmp_path, capsys):
    instance = write_fixture(tmp_path, "quad.json", "chain5-quadratic")
    outputs = (tmp_path / "gen.json", tmp_path / "bench.json")
    calls = [
        ["check", str(instance)],
        ["minimize", str(instance), "--solver", "brute"],
        ["generate", "--kind", "fixture-catalog", "--name", "fork2-weak", "--out", str(outputs[0])],
        ["bench", "--out", str(outputs[1])],
        ["minimize", str(instance), "--no-such-flag"],
    ]

    def run(fresh_parser: bool) -> list:
        seen = []
        for argv in calls:
            if fresh_parser:
                cli._build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            files = {p.name: p.read_bytes() for p in outputs if p.exists()}
            for p in outputs:
                p.unlink(missing_ok=True)
            seen.append((code, captured.out, captured.err, files))
        return seen

    cli._build_parser.cache_clear()
    shared = run(fresh_parser=False)
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(calls) - 1)
    assert [code for code, *_ in shared] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_INPUT]
    assert shared[4][2].startswith("usage: treesub")
    assert shared == run(fresh_parser=True)
