"""Domains, rank/unrank, cost oracles, and verified generators."""

from __future__ import annotations

import inspect
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import treesub as ts
from treesub.errors import BudgetExceededError, DomainError, GenerationError

import treesub.functions as functions
from conftest import brute_minimum, random_terms, term_grid, term_sum, term_walk


@pytest.fixture
def c3x3():
    c3 = ts.chain_tree(3)
    return ts.ProductDomain([c3, c3])


# ---------------------------------------------------------------------------
# Rank / unrank


def test_rank_examples(c3x3):
    assert c3x3.rank((1, 2)) == 5
    assert c3x3.rank((2, 0)) == 6
    assert ts.rank(c3x3, (0, 0)) == 0


def test_unrank_first_is_all_first_nodes(c3x3):
    assert c3x3.unrank(0) == (0, 0)


def test_rank_unrank_bijection_mixed():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    assert dom.size() == 9
    seen = set()
    for k in range(9):
        x = dom.unrank(k)
        assert ts.rank(dom, x) == k
        seen.add(x)
    assert len(seen) == 9
    assert list(dom.labelings()) == [dom.unrank(k) for k in range(9)]


def test_rank_validation(c3x3):
    with pytest.raises(DomainError):
        c3x3.rank((0, 3))
    with pytest.raises(DomainError):
        c3x3.rank((0,))
    with pytest.raises(DomainError):
        c3x3.unrank(9)


def test_domain_repr_names_each_tree():
    star, chain = ts.star3_tree(), ts.chain_tree(3)
    assert repr(ts.ProductDomain([star, chain])) == (
        "ProductDomain([RootedTree(parent=[-1, 0, 0]), RootedTree(parent=[-1, 0, 1])])"
    )
    assert repr(ts.ProductDomain([star, star])) != repr(ts.ProductDomain([chain, chain]))


@given(st.integers(0, 8))
def test_unrank_rank_roundtrip(k):
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    assert dom.rank(dom.unrank(k)) == k


# ---------------------------------------------------------------------------
# Cost oracles


def test_dense_table_example(c3x3):
    f = ts.DenseTable(c3x3, list(range(9)))
    assert f.evaluate((1, 2)) == 5
    assert f.value((1, 2)) == 5


def test_dense_table_wrong_length(c3x3):
    with pytest.raises(DomainError):
        ts.DenseTable(c3x3, [0] * 8)


@pytest.mark.parametrize("values, cell", [
    ([0.5, 2.9, "7"], 0),
    ([0.9, 0.5, 2], 0),
    ([0, 2, "7"], 2),
    ([1, Fraction(1, 2), 0], 1),
    ([0, np.float64(2.0), 1], 1),
])
def test_cost_values_must_be_integers(values, cell):
    """Values are never truncated: the first non-integer cell is named."""
    dom = ts.ProductDomain([ts.chain_tree(3)])
    with pytest.raises(DomainError, match=f"cost table cell {cell} holds"):
        ts.DenseTable(dom, values)
    with pytest.raises(DomainError, match=rf"term over scope \(0,\) cell {cell} holds"):
        ts.Term((0,), tuple(values))


def test_integer_like_cost_values_become_ints():
    dom = ts.ProductDomain([ts.chain_tree(3)])
    f = ts.DenseTable(dom, np.array([4, 1, 2]))
    term = ts.Term((0,), [np.int64(4), True, 2])
    assert f.values == term.values == (4, 1, 2)
    assert all(type(v) is int for v in f.values + term.values)
    assert ts.minimize_exhaustive(f) == ((1,), 1)


def test_sum_of_terms_unary_square():
    dom = ts.ProductDomain([ts.chain_tree(5)])
    f = ts.SumOfTerms(dom, [ts.Term(scope=(0,), values=tuple(v * v for v in range(5)))])
    assert f.evaluate((3,)) == 9


def test_empty_sum_is_zero(c3x3):
    f = ts.SumOfTerms(c3x3, [])
    assert all(f.evaluate(x) == 0 for x in c3x3.labelings())
    assert f.grid([(0, 2), (1,)]).tolist() == [[0], [0]]
    assert f.grid([(), (0, 1, 2)]).shape == (0, 3)


def test_sum_matches_materialized(c3x3):
    rng = ts.SplitMix64(5)
    terms = [
        ts.Term(scope=(0,), values=tuple(rng.below(10) for _ in range(3))),
        ts.Term(scope=(1,), values=tuple(rng.below(10) for _ in range(3))),
        ts.Term(scope=(0, 1), values=tuple(rng.below(10) for _ in range(9))),
    ]
    f = ts.SumOfTerms(c3x3, terms)
    table = ts.materialize(f)
    for x in c3x3.labelings():
        assert f.evaluate(x) == table.evaluate(x)


def test_term_validation(c3x3):
    with pytest.raises(DomainError):
        ts.Term(scope=(0, 1, 2, 3), values=(0,) * 81)
    with pytest.raises(DomainError):
        ts.Term(scope=(0, 0), values=(0,) * 9)
    with pytest.raises(DomainError):
        ts.SumOfTerms(c3x3, [ts.Term(scope=(2,), values=(0, 0, 0))])
    with pytest.raises(DomainError):
        ts.SumOfTerms(c3x3, [ts.Term(scope=(0,), values=(0, 0))])


def test_denominator_validation(c3x3):
    with pytest.raises(DomainError):
        ts.DenseTable(c3x3, [0] * 9, denominator=0)
    f = ts.DenseTable(c3x3, [1] * 9, denominator=4)
    assert f.value((0, 0)) == pytest.approx(0.25)


def test_evaluate_is_referentially_transparent(c3x3):
    f = ts.DenseTable(c3x3, list(range(9)))
    assert f.evaluate((2, 1)) == f.evaluate((2, 1)) == 7


# ---------------------------------------------------------------------------
# Walks


_WALK_SHAPES = (ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree())


def _random_walk(rng, dom, length):
    """A start and ``length`` steps; variables repeat, labels may not move."""
    x = tuple(rng.below(t.node_count) for t in dom.trees)
    steps = []
    for _ in range(length):
        i = rng.below(dom.n)
        steps.append((i, rng.below(dom.trees[i].node_count)))
    return x, steps


def test_sum_walk_matches_plain_loop_oracle():
    rng = ts.SplitMix64(606)
    stepped_twice = 0
    for trial in range(60):
        dom = ts.ProductDomain([_WALK_SHAPES[rng.below(3)] for _ in range(1 + rng.below(6))])
        f = ts.SumOfTerms(dom, random_terms(rng, dom, -9, 9, rng.below(8)))
        x, steps = _random_walk(rng, dom, rng.below(12))
        values = f.walk(x, steps)
        assert values == term_walk(dom, f.terms, x, steps), trial
        assert all(type(v) is int for v in values)
        stepped_twice += len({i for i, _ in steps}) < len(steps)
    assert stepped_twice > 10


def test_sum_walk_steps_one_coordinate_twice():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.complete_binary_tree(3)])
    terms = [ts.Term((1, 0), tuple(range(28))), ts.Term((0,), (5, 1, 7, 2))]
    f = ts.SumOfTerms(dom, terms)
    steps = [(0, 3), (1, 6), (0, 1), (0, 1), (1, 0), (0, 0)]
    assert f.walk((2, 4), steps) == term_walk(dom, terms, (2, 4), steps)
    assert f.walk((2, 4), []) == [f.evaluate((2, 4))]


def test_sum_walk_is_exact_beyond_int64():
    rng = ts.SplitMix64(61)
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    big = (1 << 61) - 2
    f = ts.SumOfTerms(dom, random_terms(rng, dom, big, big + 3, 4))
    x, steps = _random_walk(rng, dom, 20)
    values = f.walk(x, steps)
    assert min(values) >= 1 << 63
    assert values == term_walk(dom, f.terms, x, steps)


def test_dense_table_walks_through_the_base_class():
    rng = ts.SplitMix64(8)
    assert ts.DenseTable.walk is ts.CostFunction.walk
    for _ in range(20):
        dom = ts.ProductDomain([_WALK_SHAPES[rng.below(3)] for _ in range(1 + rng.below(3))])
        f = ts.DenseTable(dom, [rng.below(50) - 25 for _ in range(dom.size())])
        table = SimpleNamespace(scope=tuple(range(dom.n)), values=f.values)
        x, steps = _random_walk(rng, dom, rng.below(8))
        assert f.walk(x, steps) == term_walk(dom, [table], x, steps)


def test_walk_refuses_a_bad_label_with_the_evaluate_message():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.complete_binary_tree(3)])
    rng = ts.SplitMix64(3)
    sums = ts.SumOfTerms(dom, random_terms(rng, dom, 0, 9, 2))
    table = ts.DenseTable(dom, range(28))
    for f in (sums, table):
        for bad in (7, -1, 1.0):
            with pytest.raises(DomainError) as expected:
                f.evaluate((3, bad))
            with pytest.raises(DomainError) as got:
                f.walk((1, 2), [(0, 3), (1, bad), (1, 0)])
            assert str(got.value) == str(expected.value)
        with pytest.raises(DomainError) as expected:
            f.evaluate((4, 2))
        with pytest.raises(DomainError) as got:
            f.walk((4, 2), [])
        assert str(got.value) == str(expected.value)
        for i in (2, -1):
            with pytest.raises(DomainError, match="variable"):
                f.walk((1, 2), [(0, 0), (i, 0)])


# ---------------------------------------------------------------------------
# Grids of sums


def _random_axes(rng, dom):
    """Per variable 0 to node_count + 1 labels, drawn with repetition;
    an empty axis is rare, so most grids hold cells."""
    axes = []
    for t in dom.trees:
        length = 0 if rng.below(12) == 0 else 1 + rng.below(t.node_count + 1)
        axes.append(tuple(rng.below(t.node_count) for _ in range(length)))
    return axes


def _nested_terms(rng, dom):
    """Terms whose scopes repeat (also permuted) and nest in larger ones."""
    terms = random_terms(rng, dom, -9, 9, 1 + rng.below(4))
    for t in list(terms):
        if len(t.scope) >= 2:
            scope = tuple(reversed(t.scope)) if rng.below(2) else t.scope
            inner = scope[:1 + rng.below(len(scope) - 1)]  # a proper sub-scope
            for s in (scope, inner):
                size = 1
                for i in s:
                    size *= dom.trees[i].node_count
                terms.append(ts.Term(s, tuple(rng.below(19) - 9 for _ in range(size))))
    return terms


def test_sum_grid_matches_the_term_sum_oracle():
    rng = ts.SplitMix64(909)
    seen = {"ternary": 0, "nested": 0, "empty axis": 0, "unit axis": 0, "repeated label": 0}
    for trial in range(150):
        dom = ts.ProductDomain([_WALK_SHAPES[rng.below(3)] for _ in range(1 + rng.below(5))])
        terms = _nested_terms(rng, dom)
        f = ts.SumOfTerms(dom, terms)
        for _ in range(3):
            axes = _random_axes(rng, dom)
            got = f.grid(axes)
            assert got.shape == tuple(len(a) for a in axes), trial
            assert got.dtype == np.int64
            assert got.ravel().tolist() == term_grid(dom, terms, axes), trial
            seen["empty axis"] += any(len(a) == 0 for a in axes)
            seen["unit axis"] += any(len(a) == 1 for a in axes)
            seen["repeated label"] += any(len(set(a)) < len(a) for a in axes)
        scopes = [frozenset(t.scope) for t in terms]
        seen["ternary"] += any(len(t.scope) == 3 for t in terms)
        seen["nested"] += any(a < b for a in scopes for b in scopes)
    assert min(seen.values()) > 10, seen


def test_sum_grid_over_hand_built_scopes():
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    rng = ts.SplitMix64(12)

    def term(scope):
        size = 1
        for i in scope:
            size *= dom.trees[i].node_count
        return ts.Term(scope, tuple(rng.below(41) - 20 for _ in range(size)))

    # one ternary host, repeated and permuted pairs, and unary terms inside both
    terms = [term(s) for s in [(2, 0, 1), (0, 2), (2, 0), (1, 0), (1,), (2,), (1, 0), (0,)]]
    f = ts.SumOfTerms(dom, terms)
    full = [range(t.node_count) for t in dom.trees]
    for axes in (full, [(6, 6, 0), (3,), (2, 1, 2)], [(4,), (0,), (1,)], [(), (1, 2), (0,)]):
        assert f.grid(axes).ravel().tolist() == term_grid(dom, terms, axes)
    assert ts.materialize(f).values == tuple(term_grid(dom, terms, full))


def test_sum_grid_is_exact_once_the_tables_reach_2_62():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(4)])
    big = 1 << 62
    pair = ts.Term((1, 0), tuple(range(-6, 6)))  # largest |value| 6
    for top, exact in ((big, True), (big - 7, False), (-big, True), (7 - big, False),
                       (big >> 1, False), (-(big >> 1), False), (big << 8, True), (-(big << 8), True)):
        terms = [ts.Term((0,), (0, 1, top)), pair]
        f = ts.SumOfTerms(dom, terms)
        # the cells of this grid stay small; only the tables reach the bound
        small = [(0, 1, 1), (3, 0, 2)]
        got = f.grid(small)
        assert got.dtype == (object if exact else np.int64), top
        assert got.ravel().tolist() == term_grid(dom, terms, small)
        whole = f.grid([range(3), range(4)])
        assert whole.ravel().tolist() == term_grid(dom, terms, [range(3), range(4)])
        assert all(type(v) is int for v in whole.ravel().tolist())


def test_values_at_matches_the_term_sum_oracle():
    """Rows of labelings give their exact values, in a dtype that keeps
    the sum of two exact, for sums, tables and the base class's loop."""
    rng = ts.SplitMix64(31)
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    axes = [range(t.node_count) for t in dom.trees]
    for shift, dtype in ((0, np.int64), ((1 << 60) - 30, np.int64), (1 << 62, object),
                         (-(1 << 70), object)):
        terms = random_terms(rng, dom, -9, 9, 3)
        terms[0] = ts.Term(terms[0].scope, tuple(v + shift for v in terms[0].values))
        sums = ts.SumOfTerms(dom, terms)
        table = ts.DenseTable(dom, term_grid(dom, terms, axes))
        for k in (0, 1, 40):
            rows = np.array([[rng.below(c) for c in dom.cardinalities()] for _ in range(k)],
                            dtype=np.int64).reshape(k, dom.n)
            expect = [term_sum(dom, terms, y) for y in rows.tolist()]
            for got in (sums.values_at(rows), table.values_at(rows),
                        ts.CostFunction.values_at(table, rows)):
                assert got.shape == (k,)
                assert got.tolist() == expect
                assert (got + got[::-1]).tolist() == [a + b for a, b in zip(expect, expect[::-1])]
            if k:
                assert sums.values_at(rows).dtype == table.values_at(rows).dtype == dtype


def test_values_at_refuses_a_bad_label_with_the_evaluate_message():
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    sums = ts.SumOfTerms(dom, random_terms(ts.SplitMix64(5), dom, 0, 9, 2))
    table = ts.DenseTable(dom, range(dom.size()))
    for f in (sums, table):
        for bad in (3, -1):
            with pytest.raises(DomainError) as expected:
                f.evaluate((6, 3, bad))
            with pytest.raises(DomainError) as got:
                f.values_at(np.array([[0, 1, 2], [6, 3, bad], [7, 0, 0]]))
            assert str(got.value) == str(expected.value)
        with pytest.raises(DomainError, match="arity 3"):
            f.values_at(np.zeros((2, 2), dtype=np.int64))


def test_second_grid_builds_no_table(monkeypatch):
    builds = []
    fold = functions._fold_terms
    monkeypatch.setattr(functions, "_fold_terms", lambda *args: builds.append(args) or fold(*args))
    rng = ts.SplitMix64(77)
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    terms = tuple(_nested_terms(rng, dom))
    f = ts.SumOfTerms(dom, terms)
    labelings = list(dom.labelings())
    x, steps = _random_walk(rng, dom, 15)
    values, walked = [f.evaluate(y) for y in labelings], f.walk(x, steps)
    axes = [(0, 3, 5), (1, 1), (2,)]
    first = f.grid(axes)
    f.grid([(6,), (0, 3), (0, 1, 2)])
    again = f.grid(axes)
    assert len(builds) == 1
    assert np.array_equal(first, again)
    assert f.terms is terms
    assert [f.evaluate(y) for y in labelings] == values
    assert f.walk(x, steps) == walked
    exact = ts.SumOfTerms(dom, [ts.Term((1,), (0, 1 << 62, 0, 0))])
    exact.grid(axes)
    exact.grid(axes)
    assert len(builds) == 2


# ---------------------------------------------------------------------------
# A domain passed beside the function


def _c3x3_sum():
    c3 = ts.chain_tree(3)
    dom = ts.ProductDomain([c3, c3])
    return ts.SumOfTerms(dom, random_terms(ts.SplitMix64(31), dom, 0, 5, 2))


_ENTRY_POINTS = {
    "minimize": lambda f, d: ts.minimize(f, d, (2, 1)),
    "minimize_exhaustive": lambda f, d: ts.minimize_exhaustive(f, d),
    "inward_restrict": lambda f, d: ts.sfm_brute(ts.inward_restrict(f, d, (2, 1))),
    "outward_restrict": lambda f, d: ts.bisub_brute(ts.outward_restrict(f, d, (1, 0))),
    "rho_minus": lambda f, d: ts.rho_minus(f, d, (2, 1)),
    "rho_plus": lambda f, d: ts.rho_plus(f, d, (0, 1)),
    "minimize_weak": lambda f, d: ts.minimize_weak(f, d),
    "check_strong": lambda f, d: ts.check_strong(f, d),
    "check_weak": lambda f, d: ts.check_weak(f, d),
    "check_multimorphism": lambda f, d: ts.check_multimorphism(f, d, ts.min_max_tables(f.domain)),
    "check_translation": lambda f, d: ts.check_translation(f, d),
}


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
@pytest.mark.parametrize("trees", [
    [ts.chain_tree(4), ts.chain_tree(3)],  # another size
    [ts.star3_tree(), ts.star3_tree()],  # the same sizes, other trees
    [ts.chain_tree(3)],  # another arity
])
def test_a_foreign_domain_is_refused_before_any_evaluation(name, trees, monkeypatch):
    f = _c3x3_sum()
    calls = []
    for attr in ("evaluate", "grid", "walk"):
        monkeypatch.setattr(f, attr, lambda *args, _attr=attr: calls.append(_attr))
    with pytest.raises(DomainError, match="is not the function's"):
        _ENTRY_POINTS[name](f, ts.ProductDomain(trees))
    assert calls == []


@pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
def test_an_equal_domain_is_accepted_and_compared_once(name, monkeypatch):
    f = _c3x3_sum()
    expected = repr(_ENTRY_POINTS[name](f, None))
    assert repr(_ENTRY_POINTS[name](f, f.domain)) == expected
    compared = []
    eq = ts.ProductDomain.__eq__
    monkeypatch.setattr(ts.ProductDomain, "__eq__", lambda a, b: compared.append(b) or eq(a, b))
    assert repr(_ENTRY_POINTS[name](f, f.domain)) == expected
    assert compared == []
    c3 = ts.chain_tree(3)
    assert repr(_ENTRY_POINTS[name](f, ts.ProductDomain([c3, c3]))) == expected
    assert len(compared) == 1


# ---------------------------------------------------------------------------
# splitmix64 stream


def test_splitmix64_reference_vector():
    # First outputs from seed 0; frozen so any refactor that changes the
    # stream (and silently un-reproduces every fixture) fails loudly.
    rng = ts.SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
    ]


def test_splitmix64_determinism():
    a = ts.SplitMix64(1234)
    b = ts.SplitMix64(1234)
    assert [a.below(100) for _ in range(50)] == [b.below(100) for _ in range(50)]


def test_splitmix64_below_validates():
    with pytest.raises(ValueError):
        ts.SplitMix64(0).below(0)


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 12345])
@pytest.mark.parametrize("n", [1, 7, 343, 117649, 7**22, 2**62])
def test_splitmix64_below_array_matches_below(seed, n):
    """Draw for draw, with the state carried across calls and into below()."""
    scalar, batched = ts.SplitMix64(seed), ts.SplitMix64(seed)
    for count in (5, 0, 1030):
        got = batched.below_array(n, count)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar.below(n) for _ in range(count)]
    assert batched.below(n) == scalar.below(n)


# ---------------------------------------------------------------------------
# Generators


def test_chain_separable_verified():
    dom = ts.ProductDomain([ts.chain_tree(5), ts.chain_tree(5)])
    fx = ts.generate("chain-separable", dom, seed=3)
    assert "strong" in fx.verified_properties
    assert ts.check_strong(fx.function).ok


def test_chain_separable_rejects_branching():
    dom = ts.ProductDomain([ts.star3_tree()])
    with pytest.raises(DomainError):
        ts.generate("chain-separable", dom, seed=0)


def test_random_verified_strong_seed42():
    tree = ts.RootedTree([-1, 0, 0, 1, 1])
    dom = ts.ProductDomain([tree, tree])
    fx = ts.generate("random-verified-strong", dom, seed=42)
    assert fx.verified_properties == frozenset({"strong"})
    assert ts.check_strong(fx.function).ok


def test_random_verified_weak_on_forks():
    dom = ts.ProductDomain([ts.fork_tree(2), ts.fork_tree(2)])
    fx = ts.generate("random-verified-weak", dom, seed=11)
    assert fx.verified_properties == frozenset({"weak"})
    assert ts.check_weak(fx.function).ok


def test_generate_deterministic():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(4)])
    a = ts.generate("random-verified-strong", dom, seed=9)
    b = ts.generate("random-verified-strong", dom, seed=9)
    assert ts.materialize(a.function).values == ts.materialize(b.function).values
    assert a.provenance == b.provenance


def test_generate_zero_budget_reports_acceptance():
    dom = ts.ProductDomain([ts.chain_tree(3)])
    for attempts in (0, -5):
        with pytest.raises(GenerationError) as err:
            ts.generate("random-verified-strong", dom, seed=0, attempt_budget=attempts)
        assert str(err.value) == f"attempt budget {attempts}: acceptance rate 0/0"


@pytest.mark.parametrize("kind", ["random-verified-strong", "random-verified-weak",
                                  "chain-separable"])
def test_generate_refuses_negative_max_value_before_drawing(kind, monkeypatch):
    draws = []
    monkeypatch.setattr(ts.SplitMix64, "below", _recorder(draws, "below"))
    dom = ts.ProductDomain([ts.chain_tree(3)] * 2)
    with pytest.raises(DomainError, match="max_value must be non-negative, got -1"):
        ts.generate(kind, dom, seed=0, max_value=-1)
    assert draws == []


def test_generate_unknown_kind():
    with pytest.raises(DomainError):
        ts.generate("nonsense", ts.ProductDomain([ts.chain_tree(2)]), seed=0)


def test_generate_size_guard():
    dom = ts.ProductDomain([ts.chain_tree(40), ts.chain_tree(40)])
    with pytest.raises(ts.errors.BudgetExceededError):
        ts.generate("random-verified-strong", dom, seed=0)


def _recorder(calls: list, name: str):
    return lambda *args: calls.append(name)


def _recorded_oracles(calls: list) -> dict:
    return {name: _recorder(calls, name) for name in ("evaluate", "grid", "walk")}


def _recorded_sum(calls: list) -> ts.SumOfTerms:
    """A sum over chain3 x chain2 (6 labelings) that records its oracle calls."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(2)])
    f = ts.SumOfTerms(dom, random_terms(ts.SplitMix64(3), dom, 0, 9, 2))
    for name, oracle in _recorded_oracles(calls).items():
        setattr(f, name, oracle)
    return f


# (guarded size, refusal at TREESUB_BUDGET = size - 1, call on a recorded sum)
_GUARDS = {
    "sfm_brute": (8, "2**3 subsets exceed budget 7", lambda f, calls: ts.sfm_brute(
        ts.BinaryCubeFunction(m=3, free=(0, 1, 2), **_recorded_oracles(calls)))),
    "bisub_brute": (9, "box size 9 exceeds budget 8", lambda f, calls: ts.bisub_brute(
        ts.SignBoxFunction(m=2, allowed=((-1, 0, 1),) * 2, **_recorded_oracles(calls)))),
    "materialize": (6, "materializing 6 cells exceeds budget 5",
                    lambda f, calls: ts.materialize(f)),
    "grid_minimum": (6, "domain size 6 exceeds budget 5",
                     lambda f, calls: functions.grid_minimum(f, [range(3), range(2)])),
    "distance": (6, "region of 6 labelings exceeds budget 5",
                 lambda f, calls: ts.rho_minus(f, None, (2, 1))),
    "pair_check": (36, "domain size 6: 36 pairs exceed budget 35; "
                       "raise TREESUB_BUDGET or use sampled mode",
                   lambda f, calls: ts.check_strong(f)),
    "generator": (36, "domain size 6 needs 36 verification pairs, budget 35",
                  lambda f, calls: ts.generate("random-verified-strong", f.domain, seed=0)),
}


@pytest.mark.parametrize("guard", sorted(_GUARDS))
def test_each_guard_refuses_just_above_the_budget_before_any_oracle_call(guard, monkeypatch):
    size, refusal, call = _GUARDS[guard]
    calls = []
    f = _recorded_sum(calls)
    monkeypatch.setattr(ts.SplitMix64, "below", _recorder(calls, "below"))
    monkeypatch.setenv("TREESUB_BUDGET", str(size - 1))
    with pytest.raises(BudgetExceededError) as err:
        call(f, calls)
    assert str(err.value) == refusal
    assert calls == []


def test_no_public_callable_takes_a_budget():
    """Budgets are set by the defaults and TREESUB_BUDGET alone."""
    names = [n for n in ts.__all__ if n not in ("Labeling", "errors")]  # an alias, a module
    for c in [getattr(ts, n) for n in names] + [functions.grid_minimum]:
        assert "budget" not in inspect.signature(c).parameters, c


def test_constant_passes_all_three():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    f = ts.DenseTable(dom, [7] * dom.size())
    assert ts.check_strong(f).ok
    assert ts.check_weak(f).ok
    assert ts.check_translation(f).ok


def test_catalog_names_and_reverification():
    names = ts.fixture_catalog_names()
    assert "chain5-separable" in names and "star3-root-spike" in names
    for name in names:
        fx = ts.generate("fixture-catalog", name=name)
        for prop in fx.verified_properties:
            check = {
                "strong": ts.check_strong,
                "weak": ts.check_weak,
                "translation": ts.check_translation,
            }[prop]
            assert check(fx.function).ok, (name, prop)


def test_catalog_unknown_name():
    with pytest.raises(DomainError):
        ts.generate("fixture-catalog", name="no-such-fixture")


def test_depth_square_on_star_is_not_strong():
    # Convex-of-depth with a dip, (depth-1)^2, fails on a branching tree:
    # the leaf pair meets at the root, which the spike makes expensive.
    fx = ts.generate("fixture-catalog", name="star3-root-spike")
    report = ts.check_strong(fx.function)
    assert not report.ok
    assert report.witness.x == (1,) and report.witness.y == (2,)
    assert report.witness.lhs == 0 and report.witness.rhs == 2


def test_fixture_minimum_matches_brute():
    fx = ts.generate("fixture-catalog", name="chain5-separable")
    x, value = brute_minimum(fx.function)
    assert (x, value) == ((2, 2), 2)
