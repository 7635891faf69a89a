"""Property checkers: witnesses, equivalences, modes, and budgets."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import treesub as ts
from treesub import checks
from treesub.errors import BudgetExceededError, DomainError, InternalError

from conftest import (
    chain_check,
    naive_check,
    naive_check_translation,
    random_table_function,
    random_terms,
    replay_sampled,
    sampled_steps,
    term_grid,
)


@pytest.fixture
def concave_chain():
    dom = ts.ProductDomain([ts.chain_tree(5)])
    return ts.DenseTable(dom, [-(v * v) for v in range(5)])


@pytest.fixture
def star_spike():
    dom = ts.ProductDomain([ts.star3_tree()])
    return ts.DenseTable(dom, [1, 0, 0])


def test_concave_chain_strong_witness(concave_chain):
    report = ts.check_strong(concave_chain)
    assert not report.ok
    w = report.witness
    assert (w.x, w.y) == ((0,), (2,))
    assert w.lhs == -4 and w.rhs == -2
    assert w.d is None


def test_witness_is_replayable(concave_chain):
    w = ts.check_strong(concave_chain).witness
    f = concave_chain
    m, j = ts.meet_join(f.domain.trees[0], w.x[0], w.y[0])
    assert f.evaluate(w.x) + f.evaluate(w.y) == w.lhs
    assert f.evaluate((m,)) + f.evaluate((j,)) == w.rhs
    assert w.lhs < w.rhs


def test_star_spike_weak_witness(star_spike):
    report = ts.check_weak(star_spike)
    assert not report.ok
    w = report.witness
    assert (w.x, w.y) == ((1,), (2,))
    assert w.lhs == 0 and w.rhs == 2


def test_translation_on_concave_chain(concave_chain):
    report = ts.check_translation(concave_chain)
    assert not report.ok
    w = report.witness
    assert w.d is not None and w.d >= 0
    # replay through the d-step operations
    up, down = ts.up_down(concave_chain.domain.trees[0], w.x[0], w.y[0], w.d)
    f = concave_chain
    assert f.evaluate(w.x) + f.evaluate(w.y) == w.lhs
    assert f.evaluate((up,)) + f.evaluate((down,)) == w.rhs


def test_constant_function_ok(star_spike):
    dom = star_spike.domain
    c = ts.DenseTable(dom, [3, 3, 3])
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        report = check(c)
        assert report.ok and report.witness is None


def test_verified_strong_fixture_passes_translation_and_weak():
    tree = ts.RootedTree([-1, 0, 0, 1, 1])
    dom = ts.ProductDomain([tree, tree])
    for seed in range(5):
        fx = ts.generate("random-verified-strong", dom, seed=seed)
        assert ts.check_translation(fx.function).ok
        assert ts.check_weak(fx.function).ok


def test_weak_verdict_equals_translation_d0_slice():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(17)
    for _ in range(30):
        f = random_table_function(rng, dom, max_value=8)
        weak_ok = ts.check_weak(f).ok
        tr = ts.check_translation(f)
        if tr.ok:
            assert weak_ok
        elif tr.witness.d == 0:
            assert not weak_ok


def test_strong_translation_equivalence_random_tables():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(3)])
    rng = ts.SplitMix64(23)
    agree_ok = agree_viol = 0
    for _ in range(60):
        f = random_table_function(rng, dom, max_value=10)
        s = ts.check_strong(f).ok
        t = ts.check_translation(f).ok
        assert s == t
        if s:
            agree_ok += 1
        else:
            agree_viol += 1
    assert agree_viol > 0  # both verdicts actually occur


# chain products: the first three read labels in depth order; the last
# two hold chains whose ids are not (2 -> 0 -> 1 -> 3 and 1 -> 2 -> 0)
# and a one-node chain
_CHAIN_DOMAINS = [
    [ts.chain_tree(4), ts.chain_tree(3)],
    [ts.chain_tree(2), ts.chain_tree(3), ts.chain_tree(2)],
    [ts.chain_tree(7)],
    [ts.RootedTree([2, 0, -1, 1]), ts.chain_tree(1), ts.RootedTree([2, -1, 1])],
    [ts.chain_tree(1), ts.RootedTree([2, 0, -1, 1]), ts.chain_tree(3)],
]


def _translation_agrees_with_naive(f):
    got = ts.check_translation(f)
    expected = naive_check_translation(f)
    assert _witness_key(got.witness) == _witness_key(expected)
    assert (got.ok, got.pairs_checked, got.note) == (
        expected is None, f.domain.size() ** 2,
        "d capped at rho_inf(x, y) per pair; all coordinates saturate beyond")
    return got


@pytest.mark.parametrize("trees", _CHAIN_DOMAINS, ids=repr)
def test_chain_translation_matches_naive_on_random_tables(trees):
    dom = ts.ProductDomain(trees)
    rng = ts.SplitMix64(73)
    verdicts = set()
    for _ in range(12):
        verdicts.add(_translation_agrees_with_naive(random_table_function(rng, dom, max_value=9)).ok)
    assert False in verdicts


@pytest.mark.parametrize("trees", _CHAIN_DOMAINS, ids=repr)
def test_chain_translation_holds_on_verified_fixtures_as_naive_does(trees):
    dom = ts.ProductDomain(trees)
    for seed in range(3):
        fixture = ts.generate("random-verified-strong", dom, seed=seed)
        assert _translation_agrees_with_naive(fixture.function).ok
    if all(t == ts.chain_tree(t.node_count) for t in trees):
        for seed in range(3):
            fixture = ts.generate("chain-separable", dom, seed=seed)
            assert fixture.verified_properties == frozenset({"strong"})
            assert _translation_agrees_with_naive(fixture.function).ok


@pytest.mark.parametrize("trees", _CHAIN_DOMAINS[:2] + _CHAIN_DOMAINS[3:], ids=repr)
def test_chain_translation_matches_naive_along_a_strong_cone_walk(trees):
    """A seeded walk among strong-passing tables: each step moves one cell,
    and is kept only while the strong check holds.  Both the kept tables
    and the rejected one-cell perturbations, which fail, give the naive
    translation scan's verdict and witness."""
    dom = ts.ProductDomain(trees)
    rng = ts.SplitMix64(101)
    values = list(ts.generate("random-verified-strong", dom, seed=1).function.values)
    kept = rejected = 0
    for _ in range(40):
        k = rng.below(len(values))
        step = list(values)
        step[k] += rng.below(9) - 4
        f = ts.DenseTable(dom, step)
        strong = ts.check_strong(f).ok
        assert _translation_agrees_with_naive(f).ok == strong
        if strong:
            values, kept = step, kept + 1
        else:
            rejected += 1
    assert kept and rejected


def test_chain_translation_runs_the_strong_pass_then_the_d_scan_on_one_table(monkeypatch):
    """On chains the exhaustive check materializes f once, runs the
    meet/join pass on it, and builds the d-members only when that fails."""
    dom = ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(3)])
    f = ts.generate("chain-separable", dom, seed=2).function
    materialized = []
    real = checks.materialize
    monkeypatch.setattr(checks, "materialize", lambda f: materialized.append(f) or real(f))
    up_down_calls = _count_calls(monkeypatch, "up_down_paths")
    strong_calls = _count_calls(monkeypatch, "meet_join_paths")
    assert ts.check_translation(f).ok
    assert materialized == [f] and strong_calls == [dom.trees[0], dom.trees[1]]
    assert up_down_calls == []
    bad = ts.DenseTable(dom, [0] * 5 + [9] + [0] * 6)  # a spike at (1, 2)
    materialized.clear()
    strong_calls.clear()
    got = ts.check_translation(bad)
    assert not got.ok and materialized == [bad] and strong_calls == [dom.trees[0], dom.trees[1]]
    # members d = 0..3 for the scan, then d = 0..witness.d for the replay
    assert len(up_down_calls) == 2 * (4 + got.witness.d + 1)


def test_a_failing_equivalent_pass_with_a_holding_scan_is_an_internal_error(monkeypatch):
    f = ts.generate("chain-separable", ts.ProductDomain([ts.chain_tree(3)] * 2), seed=0).function
    real = checks._candidate_pairs
    passes = []

    def first_flags(grid, domain, family):
        passes.append(family)
        return (0, 1) if len(passes) == 1 else real(grid, domain, family)

    monkeypatch.setattr(checks, "_candidate_pairs", first_flags)
    with pytest.raises(InternalError, match="equivalent family fails"):
        ts.check_translation(f)
    assert len(passes) == 2


def test_translation_on_branching_trees_scans_every_member(monkeypatch):
    """A domain with one branching tree keeps the d-scan: no meet/join
    pass, and every member up to the first that swaps every pair."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(83)
    fs = [ts.generate("random-verified-strong", dom, seed=4).function] + [
        random_table_function(rng, dom, max_value=6) for _ in range(6)]
    strong_calls = _count_calls(monkeypatch, "meet_join_paths")
    up_down_calls = _count_calls(monkeypatch, "up_down_paths")
    verdicts = set()
    for f in fs:
        strong_calls.clear()
        up_down_calls.clear()
        got = _translation_agrees_with_naive(f)
        replayed = 0 if got.ok else got.witness.d + 1
        assert strong_calls == []
        assert up_down_calls == [dom.trees[0], dom.trees[1]] * (3 + replayed)
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_sampled_translation_on_chains_keeps_the_d_scan(monkeypatch):
    """Sampled mode on chains maps every drawn block through the d-members
    and never through meet/join; its reports are the scalar replay's."""
    dom = ts.ProductDomain([ts.chain_tree(5), ts.RootedTree([2, 0, -1, 1])])
    rng = ts.SplitMix64(89)
    fs = [ts.generate("random-verified-strong", dom, seed=0).function] + [
        random_table_function(rng, dom, max_value=9) for _ in range(4)]
    strong_calls = _count_calls(monkeypatch, "meet_join_paths")
    up_down_calls = _count_calls(monkeypatch, "up_down_paths")
    for f in fs:
        for samples, seed in ((30, 5), (1500, 11)):
            up_down_calls.clear()
            got = ts.check_translation(f, mode="sampled", samples=samples, seed=seed)
            assert up_down_calls
            expected = replay_sampled(f, sampled_steps("translation", dom), samples, seed)
            assert (_witness_key(got.witness), got.pairs_checked, got.note) == expected
    assert strong_calls == []


# chain products for the square test: those above, chain3^4 and chain10^3
_SQUARE_DOMAINS = _CHAIN_DOMAINS + [[ts.chain_tree(3)] * 4, [ts.chain_tree(10)] * 3]


def _weak_agrees_with_naive_and_the_full_pass(f) -> bool:
    """The exhaustive weak report equals the naive wedge/vee scan's verdict
    and witness, and the min/max multimorphism check's, which runs the
    full pair pass; it counts |D|^2 pairs and has no note."""
    got = ts.check_weak(f)
    expected = naive_check(f, ts.wedge_vee)
    full = ts.check_multimorphism(f, op_pair=ts.min_max_tables(f.domain))
    assert (got.ok, _witness_key(got.witness), got.pairs_checked, got.note) == (
        expected is None, _witness_key(expected), f.domain.size() ** 2, "")
    assert (full.ok, _witness_key(full.witness), full.pairs_checked) == (
        got.ok, _witness_key(got.witness), got.pairs_checked)
    return got.ok


def _depth_couplings(rng: ts.SplitMix64, dom: ts.ProductDomain) -> ts.SumOfTerms:
    """A random unary term per variable plus w * |depth_i - depth_j| on
    each pair, w in 0..3: weak on every chain product."""
    terms = [ts.Term((i,), tuple(rng.below(9) for _ in range(t.node_count)))
             for i, t in enumerate(dom.trees)]
    for i in range(dom.n):
        for j in range(i + 1, dom.n):
            w = rng.below(4)
            di, dj = dom.trees[i].depth, dom.trees[j].depth
            terms.append(ts.Term((i, j), tuple(w * abs(a - b) for a in di for b in dj)))
    return ts.SumOfTerms(dom, terms)


@pytest.mark.parametrize("trees", _SQUARE_DOMAINS, ids=repr)
def test_chain_weak_matches_naive_and_the_full_pass(trees):
    """Random tables (failing), verified-weak and chain-separable fixtures
    and depth-coupling sums (holding), and one-cell bumps of the holding
    tables (either): every report is the naive scan's and the full pass's.
    chain10^3, whose naive scan of a holding table takes seconds, takes
    one depth-coupling sum and three random tables."""
    dom = ts.ProductDomain(trees)
    rng = ts.SplitMix64(61)
    small = dom.size() <= 100
    holding = [ts.materialize(_depth_couplings(rng, dom))]
    if small:
        holding += [ts.generate("random-verified-weak", dom, seed=s).function for s in range(3)]
    if small and all(t == ts.chain_tree(t.node_count) for t in trees):
        holding.append(ts.materialize(ts.generate("chain-separable", dom, seed=1).function))
    verdicts = []
    for f in holding:
        assert _weak_agrees_with_naive_and_the_full_pass(f)
    for _ in range(6 if small else 3):
        verdicts.append(_weak_agrees_with_naive_and_the_full_pass(
            random_table_function(rng, dom, max_value=9)))
    if small:
        for f in holding:
            for _ in range(4):
                values = list(f.values)
                values[rng.below(len(values))] += rng.below(7) - 3
                bumped = ts.DenseTable(dom, values)
                verdicts.append(_weak_agrees_with_naive_and_the_full_pass(bumped))
    # one chain of two or more labels has no squares, and every table holds on it
    assert (False in verdicts) == (sum(t.node_count > 1 for t in trees) > 1)


def test_chain_weak_fails_on_a_non_adjacent_coordinate_pair():
    """x_0 * x_2 on chain3^3 is modular on the coordinate pairs (0, 1) and
    (1, 2) and fails only on (0, 2)."""
    dom = ts.ProductDomain([ts.chain_tree(3)] * 3)
    f = ts.DenseTable(dom, [x[0] * x[2] for x in dom.labelings()])
    assert not _weak_agrees_with_naive_and_the_full_pass(f)


def test_chain_weak_squares_are_exact_past_int64():
    """2^70-scale tables take the square test on exact Python ints (object
    dtype), holding and failing."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.RootedTree([2, 0, -1, 1]), ts.chain_tree(2)])
    big = 1 << 70
    rng = ts.SplitMix64(67)
    base = ts.materialize(_depth_couplings(rng, dom)).values
    holding = ts.DenseTable(dom, [big * v + 1 for v in base])
    assert np.asarray(holding.values).dtype == object
    assert _weak_agrees_with_naive_and_the_full_pass(holding)
    product = ts.DenseTable(dom, [big * x[0] * x[2] for x in dom.labelings()])
    assert not _weak_agrees_with_naive_and_the_full_pass(product)
    verdicts = set()
    for _ in range(8):  # one cell bumped by up to 2^70 either way
        values = [big * v for v in base]
        values[rng.below(len(values))] += (rng.below(5) - 2) * big // 2
        verdicts.add(_weak_agrees_with_naive_and_the_full_pass(ts.DenseTable(dom, values)))
    assert verdicts == {True, False}


def _count_weak_passes(monkeypatch):
    """Record the domain size of each ``_candidate_pairs`` and each
    ``_squares_hold`` call."""
    calls = {"scanned": [], "squares": []}
    candidates, squares = checks._candidate_pairs, checks._squares_hold
    monkeypatch.setattr(checks, "_candidate_pairs", lambda grid, domain, family: (
        calls["scanned"].append(domain.size()) or candidates(grid, domain, family)))
    monkeypatch.setattr(checks, "_squares_hold", lambda grid, domain: (
        calls["squares"].append(domain.size()) or squares(grid, domain)))
    return calls


def test_chain_weak_decides_a_holding_table_from_its_squares_alone(monkeypatch):
    """A holding chain10^3 table makes no pair pass; a failing one makes
    exactly one, over the whole domain, for its witness."""
    dom = ts.ProductDomain([ts.chain_tree(10)] * 3)
    f = ts.materialize(ts.generate("chain-separable", dom, seed=2).function)
    calls = _count_weak_passes(monkeypatch)
    got = ts.check_weak(f)
    assert got.ok and got.pairs_checked == 10**6
    assert calls == {"scanned": [], "squares": [1000]}
    values = list(f.values)
    values[dom.rank((4, 5, 6))] += 50  # a spike: squares around it fail
    calls["squares"].clear()
    got = ts.check_weak(ts.DenseTable(dom, values))
    assert not got.ok and calls == {"scanned": [1000], "squares": [1000]}


def test_weak_on_branching_trees_and_sampled_weak_read_no_squares(monkeypatch):
    """chain3 x star3 keeps the pair pass for every table, and sampled mode
    on chains never reads the squares."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(71)
    fs = [ts.generate("random-verified-weak", dom, seed=0).function] + [
        random_table_function(rng, dom, max_value=6) for _ in range(4)]
    calls = _count_weak_passes(monkeypatch)
    verdicts = {ts.check_weak(f).ok for f in fs}
    assert verdicts == {True, False}
    assert calls["squares"] == [] and calls["scanned"] == [9] * len(fs)
    chains = ts.ProductDomain([ts.chain_tree(10)] * 3)
    f = ts.generate("chain-separable", chains, seed=2).function
    assert ts.check_weak(f, mode="sampled", samples=300).ok
    assert calls["squares"] == []


def test_squares_failing_a_holding_table_is_an_internal_error(monkeypatch):
    f = ts.generate("chain-separable", ts.ProductDomain([ts.chain_tree(3)] * 2), seed=0).function
    monkeypatch.setattr(checks, "_squares_hold", lambda grid, domain: False)
    with pytest.raises(InternalError, match="weak check: the equivalent family fails"):
        ts.check_weak(f)


def test_checkers_match_naive_oracle():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(31)
    for _ in range(25):
        f = random_table_function(rng, dom, max_value=6)
        got = ts.check_strong(f)
        expect = naive_check(f, ts.meet_join)
        assert got.ok == (expect is None)
        if expect is not None:
            assert (got.witness.x, got.witness.y) == (expect.x, expect.y)
            assert (got.witness.lhs, got.witness.rhs) == (expect.lhs, expect.rhs)
        got_w = ts.check_weak(f)
        expect_w = naive_check(f, ts.wedge_vee)
        assert got_w.ok == (expect_w is None)
        got_t = ts.check_translation(f)
        expect_t = naive_check_translation(f)
        assert got_t.ok == (expect_t is None)
        if expect_t is not None:
            assert (got_t.witness.x, got_t.witness.y, got_t.witness.d) == (
                expect_t.x, expect_t.y, expect_t.d,
            )


_BIG = (1 << 41, 1 << 50, 1 << 61, 1 << 62, 1 << 70)  # the first two keep the int64 pass


def test_big_value_fallback_agrees():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(3)])
    rng = ts.SplitMix64(47)
    verdicts = set()
    for big in _BIG:
        fx = ts.generate("random-verified-strong", dom, seed=rng.below(1000))
        shifted = [v + big for v in ts.materialize(fx.function).values]
        for huge in [shifted] + [
            [rng.below(10) + big * w for w in (1, -1, 2, 0, 1, -2, 1, 0, 1)] for _ in range(3)
        ]:
            f = ts.DenseTable(dom, huge)
            got = ts.check_strong(f)
            expect = naive_check(f, ts.meet_join)
            assert got.ok == (expect is None)
            assert _witness_key(got.witness) == _witness_key(expect)
            verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_big_values_replay_only_the_flagged_pair(monkeypatch):
    """Past 2^62 the exhaustive pass runs on exact ints: an ok table replays
    no pair, a violated one only its witness, and a sum's grid evaluates
    no cell."""
    dom = ts.ProductDomain([ts.chain_tree(4), ts.star3_tree(), ts.chain_tree(3)])
    fx = ts.generate("random-verified-strong", dom, seed=5)
    values = [v + (1 << 62) for v in ts.materialize(fx.function).values]
    replays = []
    replay = checks._first_violation
    monkeypatch.setattr(checks, "_first_violation", lambda *a: replays.append(a) or replay(*a))
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        assert check(ts.DenseTable(dom, values)).ok
    assert replays == []
    values[-1] -= 1 << 70
    f = ts.DenseTable(dom, values)
    for check, oracle in _CHECKS_AND_ORACLES:
        assert _witness_key(check(f).witness) == _witness_key(oracle(f))
    assert len(replays) == len(_CHECKS_AND_ORACLES)

    def no_evaluate(self, x):
        raise AssertionError("grid evaluated a cell")

    rng = ts.SplitMix64(59)
    terms = [ts.Term((1,), (0, 1 << 62, -(1 << 70))),
             ts.Term((0, 2), tuple(rng.below(9) for _ in range(12)))]
    g = ts.SumOfTerms(dom, terms)
    monkeypatch.setattr(ts.SumOfTerms, "evaluate", no_evaluate)
    axes = [range(t.node_count) for t in dom.trees]
    assert g.grid(axes).ravel().tolist() == term_grid(dom, terms, axes)


def _witness_key(w):
    return None if w is None else (w.x, w.y, w.d, w.lhs, w.rhs)


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_an_unconfirmed_flagged_pair_is_an_internal_error(mode, concave_chain, monkeypatch):
    """A pair the array pass flags but the exact replay does not confirm
    raises, naming the pair, instead of reading as "holds"."""
    w = ts.check_strong(concave_chain, mode=mode).witness
    monkeypatch.setattr(checks, "_first_violation", lambda *a: None)
    with pytest.raises(InternalError) as raised:
        ts.check_strong(concave_chain, mode=mode)
    assert str(raised.value) == (f"strong check: the array pass flagged x = {w.x}, y = {w.y}, "
                                 "but its exact replay finds no violation")


def test_chain1000_strong_and_weak_match_the_chain_oracle():
    """Exhaustive checks over all 10^6 pairs of chain1000, whose first
    strong violation lies late in rank order: a spike at label 995 breaks
    midpoint convexity only for pairs around it, first at (992, 998)."""
    dom = ts.ProductDomain([ts.chain_tree(1000)])
    values = [(v - 500) ** 2 + 10 * (v == 995) for v in range(1000)]
    f = ts.DenseTable(dom, values)
    for check, prop in ((ts.check_strong, "strong"), (ts.check_weak, "weak")):
        report = check(f)
        assert _witness_key(report.witness) == chain_check(values, prop)
        assert report.pairs_checked == 10**6
    assert chain_check(values, "strong")[:2] == ((992,), (998,))
    assert chain_check(values, "weak") is None


def test_big_value_fallback_weak_and_translation():
    """Costs of every size take the same pass, in int64 below 2^61 and as
    exact Python ints above; witnesses match the oracles."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(53)
    verdicts = set()
    for i in range(6 * len(_BIG)):
        big = _BIG[i % len(_BIG)]
        if i % 3:
            values = [rng.below(10) + big * (rng.below(3) - 1) for _ in range(dom.size())]
        else:  # a verified strong function shifted by a constant satisfies both
            fx = ts.generate("random-verified-strong", dom, seed=rng.below(1000))
            values = [v + big for v in ts.materialize(fx.function).values]
        f = ts.DenseTable(dom, values)
        for got, expect in (
            (ts.check_weak(f), naive_check(f, ts.wedge_vee)),
            (ts.check_translation(f), naive_check_translation(f)),
        ):
            assert got.ok == (expect is None)
            assert _witness_key(got.witness) == _witness_key(expect)
            assert got.pairs_checked == dom.size() ** 2
            verdicts.add(got.ok)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# Row blocks of the vectorized pass

_CHECKS_AND_ORACLES = (
    (ts.check_strong, lambda f: naive_check(f, ts.meet_join)),
    (ts.check_weak, lambda f: naive_check(f, ts.wedge_vee)),
    (ts.check_translation, naive_check_translation),
)


def _bumped_chain_table(bumped_x0, lengths=(3, 4, 5, 5)):
    """A table over chains of the given lengths violated only through
    bumps on the slices {x0 = c, x1 >= 1}, c in bumped_x0.

    The bump on a slice is prod_{i >= 1} (lengths[i] - 1 - x_i) - B, in
    [-B, 0] for the lengths used here.  The base 8B * sum(x_i^2), with
    B = 32, gives slack of at least 16B wherever an operation moves a
    coordinate strictly inside its pair, more than the bumps can take
    back (2B).  Every other operation (d = 0 translation, strong moves on pairs at distance <= 1)
    maps the pair to its componentwise min and max.  Each bump is <= 0,
    antitone and strictly supermodular, so pairs inside a slice violate.
    The top slice c = lengths[0] - 1 is an up-set, so a min/max pair with
    a side off it holds: with bumped_x0 = {2} and the default lengths,
    every violation has x0 = y0 = 2.
    """
    dom = ts.ProductDomain([ts.chain_tree(k) for k in lengths])
    bump = 32

    def bumped(x):
        return math.prod(k - 1 - v for k, v in zip(lengths[1:], x[1:])) - bump

    values = [
        8 * bump * sum(v * v for v in x) + (bumped(x) if x[0] in bumped_x0 and x[1] >= 1 else 0)
        for x in dom.labelings()
    ]
    return ts.DenseTable(dom, values)


def _row_blocks(size):
    rows = checks._BLOCK_CELLS // size
    assert 1 <= rows < size  # the pass takes more than one block
    return rows


def test_row_blocks_keep_the_first_witness(monkeypatch):
    """Violations only in the last block are found there; with violations
    in an earlier block too, the earlier block wins.

    The tables are built for blocks of 2^16 cells (218 rows of |D| = 300),
    so the late witnesses fall in the last of two blocks.
    """
    monkeypatch.setattr(checks, "_BLOCK_CELLS", 1 << 16)
    late, both = _bumped_chain_table({2}), _bumped_chain_table({1, 2})
    dom = late.domain
    rows = _row_blocks(dom.size())
    last = (dom.size() - 1) // rows * rows
    # the tables agree on x0 = 2, where every operation keeps x0 = 2
    top = [k for k, x in enumerate(dom.labelings()) if x[0] == 2]
    assert [late.values[k] for k in top] == [both.values[k] for k in top]
    for check, oracle in _CHECKS_AND_ORACLES:
        expect = oracle(late)
        assert expect.x[0] == expect.y[0] == 2 and dom.rank(expect.x) >= last
        assert _witness_key(check(late).witness) == _witness_key(expect)
        expect = oracle(both)
        assert dom.rank(expect.x) < last
        assert _witness_key(check(both).witness) == _witness_key(expect)


@pytest.mark.parametrize("block_cells", [1, 100])
def test_row_blocks_of_few_rows_match_naive(monkeypatch, block_cells):
    """One row per block, as when |D| exceeds the block, and a few rows."""
    monkeypatch.setattr(checks, "_BLOCK_CELLS", block_cells)
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(4)])
    rng = ts.SplitMix64(89)
    late = 0
    for i in range(12):
        fx = ts.generate("random-verified-strong", dom, seed=rng.below(1000))
        values = list(ts.materialize(fx.function).values)
        for _ in range(i % 3):
            values[dom.size() - 1 - rng.below(12)] -= 1 + rng.below(4)
        f = ts.DenseTable(dom, values)
        for check, oracle in _CHECKS_AND_ORACLES:
            expect = oracle(f)
            assert _witness_key(check(f).witness) == _witness_key(expect)
            late += expect is not None and dom.rank(expect.x) >= max(1, block_cells // dom.size())
    assert late > 0


def _broom(stem, arm):
    """A chain of ``stem`` nodes with two arms of ``arm`` nodes hanging
    from its deepest node; the arms' nodes come last in label order."""
    parents = [-1] + list(range(stem - 1))
    for _ in range(2):
        parents += [stem - 1] + list(range(len(parents), len(parents) + arm - 1))
    return ts.RootedTree(parents)


def _late_violations_at_arity_one(rng):
    """(check, tree op, table, first late rank) cases over one tree.

    strong: 8 v^2 on chain40, raised by 9..40 at up to three of the labels
    34..38.  A raise at z violates the pairs at distance 2..4 whose
    midpoints hit z; pairs farther apart have slack 96 or more, so every
    violation has x >= 31.  weak: random values on broom(30, 5); wedge/vee
    map comparable labels to themselves, so every violation pairs two arm
    labels, x >= 30.
    """
    values = [8 * v * v for v in range(40)]
    for _ in range(1 + rng.below(3)):
        values[34 + rng.below(5)] += 9 + rng.below(32)
    chain = ts.DenseTable(ts.ProductDomain([ts.chain_tree(40)]), values)
    yield ts.check_strong, ts.meet_join, chain, 31
    dom = ts.ProductDomain([_broom(30, 5)])
    yield ts.check_weak, ts.wedge_vee, ts.DenseTable(dom, [rng.below(20) for _ in range(40)]), 30


@pytest.mark.parametrize("rows", [3, 7])
def test_symmetric_checks_slice_many_blocks_like_the_full_scan(monkeypatch, rows):
    """Strong and weak checks over blocks of a few rows, with violations
    only in late rows, so the blocks that flag them scan from a first
    label y_0 > 0; witnesses equal the naive double loop's, and reports
    still count |D|^2 pairs.  Blocks of 7 rows also straddle a change of
    x_0 at arity 3."""
    rng = ts.SplitMix64(97)
    cases = []
    for _ in range(4):
        cases += _late_violations_at_arity_one(rng)
    # arity 3: every violation has x0 = y0 = 3 (ranks 90..119), past 12 or more blocks
    late = _bumped_chain_table({3}, (4, 5, 6))
    cases += [(ts.check_strong, ts.meet_join, late, 90), (ts.check_weak, ts.wedge_vee, late, 90)]
    for check, op, f, first_late in cases:
        size = f.domain.size()
        monkeypatch.setattr(checks, "_BLOCK_CELLS", rows * size)
        expect = naive_check(f, op)
        assert expect is not None and f.domain.rank(expect.x) >= first_late
        report = check(f)
        assert _witness_key(report.witness) == _witness_key(expect)
        assert report.pairs_checked == size * size


def test_non_symmetric_tables_scan_every_y(monkeypatch):
    """Op tables that are not symmetric take no slice: their first
    violation may have rank(x) > rank(y) with y before x's block.

    op(x, y) = (x, x) is violated exactly where f(y) < f(x); with f = 0
    below rank 20 and 1 from there, the first violation is (rank 20,
    rank 0), and a block starting at rank 20 that scanned only y_0 >= 3
    would flag rank 18 instead."""
    dom = ts.ProductDomain([ts.chain_tree(6)] * 2)
    size = dom.size()
    monkeypatch.setattr(checks, "_BLOCK_CELLS", 4 * size)
    first_twice = [[a for _ in range(6)] for a in range(6)]
    f = ts.DenseTable(dom, [0] * 20 + [1] * (size - 20))
    expect = naive_check(f, lambda t, a, b: (a, a))
    assert (dom.rank(expect.x), dom.rank(expect.y)) == (20, 0)
    report = ts.check_multimorphism(f, op_pair=([first_twice] * 2, [first_twice] * 2))
    assert _witness_key(report.witness) == _witness_key(expect)
    assert report.pairs_checked == size * size


def test_exhaustive_checks_stay_within_a_block_of_memory():
    """Peak traced memory stays near a few row-block arrays (128 KiB each)
    and the half-rank tables (|D_A|^2 + |D_B|^2 = 10,100 ranks per member
    side at chain10^3), about 0.71 MB in all and under 1 MB at |D| = 1000;
    one |D|^2 int64 array alone would take 8 MB."""
    dom = ts.ProductDomain([ts.chain_tree(10)] * 3)
    f = ts.DenseTable(dom, [sum((v - 4) ** 2 for v in x) for x in dom.labelings()])
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        tracemalloc.start()
        try:
            report = check(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.pairs_checked == 10**6
        assert peak < 2**20


def test_sampled_mode_deterministic(concave_chain):
    a = ts.check_strong(concave_chain, mode="sampled", samples=200, seed=5)
    b = ts.check_strong(concave_chain, mode="sampled", samples=200, seed=5)
    assert a == b
    assert not a.ok  # 200 samples over 25 pairs find the violation
    assert "sample" in a.note


def test_sampled_mode_honest_note(star_spike):
    c = ts.DenseTable(star_spike.domain, [0, 0, 0])
    report = ts.check_strong(c, mode="sampled", samples=50, seed=1)
    assert report.ok
    assert "not a proof" in report.note
    assert report.pairs_checked == 50


def test_sampled_translation(concave_chain):
    report = ts.check_translation(concave_chain, mode="sampled", samples=300, seed=2)
    assert not report.ok
    assert report.witness.d is not None


class _Lookup(ts.CostFunction):
    """A cost function outside the package: ``evaluate`` reads a dict."""

    def __init__(self, domain, values):
        self.domain = domain
        self.denominator = 1
        self._values = dict(zip(domain.labelings(), values))

    def evaluate(self, x):
        return self._values[tuple(x)]


def _sampled_check(prop, f, samples, seed):
    if prop == "min-max":
        return ts.check_multimorphism(f, op_pair=ts.min_max_tables(f.domain), mode="sampled",
                                      samples=samples, seed=seed, name="multimorphism:min-max")
    check = {"strong": ts.check_strong, "weak": ts.check_weak,
             "translation": ts.check_translation}[prop]
    return check(f, mode="sampled", samples=samples, seed=seed)


def _sampled_key(report):
    return _witness_key(report.witness), report.pairs_checked, report.note


@pytest.mark.parametrize("prop", ["strong", "weak", "min-max", "translation"])
def test_sampled_reports_match_the_scalar_replay(prop):
    """Witness, pair count and note equal the one-sample-at-a-time scan's,
    for tables, sums of terms, tables past 2^62 (object dtype) and a
    custom subclass."""
    rng = ts.SplitMix64(71)
    doms = [ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(3)])]
    if prop != "min-max":
        doms.append(ts.ProductDomain([ts.chain_tree(4), ts.star3_tree()]))
    verdicts = set()
    for i in range(12):
        dom = doms[i % len(doms)]
        high = 1 + 6 * (i % 2)
        values = [rng.below(high + 1) for _ in range(dom.size())]
        for f in (ts.DenseTable(dom, values),
                  ts.SumOfTerms(dom, random_terms(rng, dom, 0, high, 2)),
                  ts.DenseTable(dom, [v + (1 << 62) for v in values]),
                  _Lookup(dom, values)):
            seed = rng.below(1000)
            report = _sampled_check(prop, f, 15, seed)
            expect = replay_sampled(f, sampled_steps(prop, dom), 15, seed)
            assert _sampled_key(report) == expect
            assert report.ok == (expect[0] is None)
            verdicts.add(report.ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("prop", ["strong", "weak", "min-max", "translation"])
def test_sampled_reports_match_the_scalar_replay_past_one_block(prop):
    """A flat table with one low cell: violations are rare, so the first
    one may lie past the first block of draws, or in none."""
    dom = ts.ProductDomain([ts.chain_tree(7)] * 4)
    values = [0] * dom.size()
    values[dom.rank((3, 2, 4, 3))] = -1
    samples = 3 * checks._SAMPLE_PAIRS
    pairs = set()
    for f in (ts.DenseTable(dom, values), _Lookup(dom, values)):
        for seed in range(3):
            report = _sampled_check(prop, f, samples, seed)
            assert _sampled_key(report) == replay_sampled(f, sampled_steps(prop, dom), samples, seed)
            pairs.add(report.pairs_checked)
    assert max(p for p in pairs if p < samples) > checks._SAMPLE_PAIRS


@pytest.mark.parametrize("samples, low, seed", [
    (1023, (3, 2, 4, 3), 0),   # every property holds over a block less one pair
    (1024, (1, 2, 0, 0), 12),  # strong and translation fail at the last pair of a block
    (1025, (1, 1, 4, 0), 5),   # strong and translation fail at the first pair of a block
    (2048, (3, 2, 4, 3), 0),   # every property fails at sample 1545
    (2049, (3, 5, 6, 0), 15),  # every property fails in a last block of one pair
])
@pytest.mark.parametrize("prop", ["strong", "weak", "min-max", "translation"])
def test_sampled_reports_match_the_scalar_replay_at_block_edges(prop, samples, low, seed):
    """Sample counts one short of, at and one past a block edge, on a flat
    table with one low cell."""
    dom = ts.ProductDomain([ts.chain_tree(7)] * 4)
    values = [0] * dom.size()
    values[dom.rank(low)] = -1
    f = ts.DenseTable(dom, values)
    report = _sampled_check(prop, f, samples, seed)
    assert _sampled_key(report) == replay_sampled(f, sampled_steps(prop, dom), samples, seed)


def test_sampled_checks_stay_within_a_block_of_memory():
    """200,000 samples keep the traced peak to a few block arrays (a block
    of 4 x 2^10 labelings of arity 2 is 64 KiB as int64); the 400,000
    draws alone, held at once as int64, would take 3.2 MB."""
    dom = ts.ProductDomain([ts.chain_tree(3)] * 2)
    f = ts.DenseTable(dom, [sum((v - 1) ** 2 for v in x) for x in dom.labelings()])
    tracemalloc.start()
    try:
        report = ts.check_strong(f, mode="sampled", samples=200_000, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.pairs_checked == 200_000
    assert peak < 2**19


def test_sampled_check_violated_at_its_first_sample_allocates_no_block_list():
    """A check violated at sample 1 of 10^9 returns after its first block;
    a list of every block bound would hold about a million ints."""
    dom = ts.ProductDomain([ts.chain_tree(7)] * 2)
    f = ts.DenseTable(dom, [-sum(v * v for v in x) for x in dom.labelings()])
    tracemalloc.start()
    try:
        report = ts.check_strong(f, mode="sampled", samples=10**9, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not report.ok and report.pairs_checked == 1
    assert peak < 2**20


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_rejects_non_positive_samples(concave_chain, samples):
    dom = concave_chain.domain
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        with pytest.raises(DomainError, match="sample"):
            check(concave_chain, mode="sampled", samples=samples)
    with pytest.raises(DomainError, match="sample"):
        ts.check_multimorphism(concave_chain, dom, ts.projection_tables(dom),
                               mode="sampled", samples=samples)


def test_unknown_mode(concave_chain):
    with pytest.raises(DomainError):
        ts.check_strong(concave_chain, mode="fast")


def test_budget_refusal_reports_size():
    dom = ts.ProductDomain([ts.chain_tree(40), ts.chain_tree(40)])
    f = ts.SumOfTerms(dom, [])
    with pytest.raises(BudgetExceededError) as err:
        ts.check_strong(f)
    assert "1600" in str(err.value)


def test_budget_env_override(monkeypatch, concave_chain):
    monkeypatch.setenv("TREESUB_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        ts.check_strong(concave_chain)
    monkeypatch.setenv("TREESUB_BUDGET", "1000000")
    assert not ts.check_strong(concave_chain).ok


def test_refusals_come_before_any_path_walk(monkeypatch):
    """Mode, sample-count and budget refusals build no op tables."""
    f = ts.SumOfTerms(ts.ProductDomain([ts.chain_tree(2000)]), [])

    def walked(*args):
        raise AssertionError("a tree op ran before the check was accepted")

    for name in ("meet_join_paths", "up_down_paths"):
        monkeypatch.setattr(checks, name, walked)
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        with pytest.raises(BudgetExceededError, match="4000000 pairs"):
            check(f)
        with pytest.raises(DomainError, match="mode"):
            check(f, mode="fast")
        with pytest.raises(DomainError, match="sample"):
            check(f, mode="sampled", samples=0)


def test_sampled_translation_stops_by_rho_inf(monkeypatch):
    """Per pair, d runs to rho_inf(x, y) at most, so long chains stay cheap:
    the array op maps each drawn pair for at most that many members."""
    f = ts.SumOfTerms(ts.ProductDomain([ts.chain_tree(300)]), [])
    dom = f.domain
    calls = {"up_down": 0, "evaluate": 0}

    def counted(key, fn, pairs):
        def wrapper(*args):
            calls[key] += pairs(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(checks, "up_down_paths",
                        counted("up_down", checks.up_down_paths, lambda args: args[0].a.size))
    monkeypatch.setattr(ts.SumOfTerms, "evaluate",
                        counted("evaluate", ts.SumOfTerms.evaluate, lambda args: 1))
    report = ts.check_translation(f, mode="sampled", samples=40, seed=9)
    assert report.ok and report.pairs_checked == 40
    rng = ts.SplitMix64(9)
    steps = [ts.rho_inf(dom, dom.unrank(rng.below(300)), dom.unrank(rng.below(300))) + 1
             for _ in range(40)]
    assert calls["up_down"] <= sum(steps)
    assert calls["evaluate"] <= sum(2 + 2 * k for k in steps)


def _count_calls(monkeypatch, name):
    """Patch the paths op ``checks.<name>`` to record the tree of each call."""
    calls = []
    op = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda p, *a: calls.append(p.tree) or op(p, *a))
    return calls


def test_sampled_checks_call_the_array_op_once_per_tree_per_member_per_block(monkeypatch):
    """A sampled check maps each block of drawn pairs with one array-op
    call per distinct tree and member; a witness replays one more call per
    tree and member.  Reports match the same check on meet/join tables."""
    calls = _count_calls(monkeypatch, "meet_join_paths")
    dom = ts.ProductDomain([ts.chain_tree(300)])
    tables = ts.meet_join_tables(dom)
    verdicts = set()
    for top in (lambda v: (v - 150) ** 2, lambda v: 2500 + 100 * (v - 200) - (v - 200) ** 2):
        # convex below 200; the concave top, if used, is violated
        f = ts.DenseTable(dom, [(v - 150) ** 2 if v < 200 else top(v) for v in range(300)])
        for samples in (40, 2500):
            calls.clear()
            report = ts.check_strong(f, mode="sampled", samples=samples, seed=9)
            blocks = -(-report.pairs_checked // checks._SAMPLE_PAIRS)
            assert len(calls) == blocks + (not report.ok)
            verdicts.add(report.ok)
            assert report == ts.check_multimorphism(f, op_pair=tables, mode="sampled",
                                                    samples=samples, seed=9, name="strong")
    assert verdicts == {True, False}
    # coordinates of one tree share a call; another tree takes its own
    for trees in ([ts.chain_tree(3)] * 4, [ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(3)]):
        f = ts.SumOfTerms(ts.ProductDomain(trees), [])
        calls.clear()
        assert ts.check_strong(f, mode="sampled", samples=3000, seed=9).ok
        assert calls == list(dict.fromkeys(trees)) * 3  # 1024 + 1024 + 952 pairs


def test_exhaustive_checks_call_the_array_op_once_per_tree_per_member(monkeypatch):
    """Exhaustive op tables come from one array-op call per distinct tree
    and member, over every label pair at once, up to the first member that
    swaps every pair; reports match the same check on meet/join tables.
    A holding translation check on chains builds the meet/join tables
    alone."""
    calls = _count_calls(monkeypatch, "up_down_paths")
    strong_calls = _count_calls(monkeypatch, "meet_join_paths")
    dom = ts.ProductDomain([ts.chain_tree(10)] * 3)
    f = ts.DenseTable(dom, [sum((v - 4) ** 2 for v in x) for x in dom.labelings()])
    assert ts.check_translation(f).ok
    assert calls == [] and strong_calls == [dom.trees[0]]
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(3)])
    fixture = ts.generate("random-verified-strong", dom, seed=3)
    strong_calls.clear()
    assert ts.check_translation(fixture.function).ok
    # members d = 0, 1, 2 per distinct tree; up_down(2) swaps every pair of both
    assert calls == [dom.trees[0], dom.trees[1]] * 3 and strong_calls == []
    tables = ts.meet_join_tables(dom)
    rng = ts.SplitMix64(61)
    for _ in range(10):
        calls.clear()
        f = random_table_function(rng, dom, max_value=8)
        got = ts.check_translation(f)
        assert _witness_key(got.witness) == _witness_key(naive_check_translation(f))
        # members d = 0, 1, 2 build tables per distinct tree, then the
        # witness, if any, replays members 0..d
        replayed = 0 if got.ok else got.witness.d + 1
        assert calls == [dom.trees[0], dom.trees[1]] * (3 + replayed)
        assert ts.check_strong(f) == ts.check_multimorphism(f, dom, tables, name="strong")


# ---------------------------------------------------------------------------
# Members that swap every label pair of some trees

_B5 = ts.RootedTree([-1, 0, 0, 1, 1])  # a 5-node binary tree, diameter 3

# Each domain's d-family holds members with d at or past the diameter of
# one tree but not of all; chain1 swaps under every member.
_SPLIT_DOMAINS = [
    [ts.complete_binary_tree(3), ts.chain_tree(10)],
    [ts.chain_tree(6), ts.complete_binary_tree(3)],
    [ts.star3_tree(), ts.chain_tree(5), ts.star3_tree()],
    [_B5, ts.chain_tree(9)],
    [ts.chain_tree(1), ts.chain_tree(7)],
]


def _diameter(tree):
    n = tree.node_count
    return max(ts.rho(tree, a, b) for a in range(n) for b in range(n))


def _in_split_member(trees, d):
    """Whether the d-step member swaps every label pair of some of the
    trees but not of all: up_down swaps a pair by d = rho, so a tree's
    pairs all swap exactly when d reaches its diameter."""
    diameters = [_diameter(t) for t in trees]
    return min(diameters) <= d < max(diameters)


@pytest.mark.parametrize("trees", _SPLIT_DOMAINS, ids=repr)
def test_split_members_match_naive_on_random_tables_and_fixtures(trees):
    dom = ts.ProductDomain(trees)
    rng = ts.SplitMix64(131)
    fs = [random_table_function(rng, dom, max_value=9) for _ in range(8)] + [
        ts.generate("random-verified-strong", dom, seed=seed).function for seed in range(3)]
    verdicts = set()
    for f in fs:
        for check, oracle in _CHECKS_AND_ORACLES:
            got = check(f)
            assert _witness_key(got.witness) == _witness_key(oracle(f))
            verdicts.add(got.ok)
    assert verdicts == {True, False}


@pytest.mark.parametrize("trees", _SPLIT_DOMAINS, ids=repr)
def test_split_member_witnesses_match_naive(trees):
    """Verified fixtures with three cells moved by up to 8: some tables
    fail first in a member that swaps every pair of some trees, and each
    gives the naive scan's witness, d included."""
    dom = ts.ProductDomain(trees)
    rng = ts.SplitMix64(137)
    split = 0
    for seed in range(4):
        base = list(ts.materialize(ts.generate("random-verified-strong", dom, seed=seed).function).values)
        for _ in range(30):
            values = list(base)
            for _ in range(3):
                values[rng.below(len(values))] += rng.below(17) - 8
            f = ts.DenseTable(dom, values)
            got = _translation_agrees_with_naive(f)
            split += not got.ok and _in_split_member(trees, got.witness.d)
    assert split >= 3


def test_members_past_one_block_of_unswapped_pairs_scan_every_pair(monkeypatch):
    """On chain1 x chainN the meet/join member swaps chain1's pairs; its
    N^2 chainN pairs are decided whole while they fit one block (N = 128)
    and scanned pair by pair past it (N = 129), with the naive verdicts."""
    decided = []
    split_holds = checks._split_holds
    monkeypatch.setattr(checks, "_split_holds", lambda *a: decided.append(a) or split_holds(*a))
    for n, whole in ((128, True), (129, False)):
        dom = ts.ProductDomain([ts.chain_tree(1), ts.chain_tree(n)])
        assert (n * n <= checks._BLOCK_CELLS) == whole
        convex = [(v - 60) ** 2 for v in range(n)]
        bumped = list(convex)
        bumped[100] += 3  # violated by (99, 101) first
        for values in (convex, bumped):
            decided.clear()
            f = ts.DenseTable(dom, values)
            got = ts.check_strong(f)
            assert _witness_key(got.witness) == _witness_key(naive_check(f, ts.meet_join))
            assert got.ok == (values is convex)
            assert len(decided) == whole


def test_holding_translation_scans_only_the_members_below_the_smaller_diameter(monkeypatch):
    """On bintree7^2 x chain10 the members d = 4..8 swap every pair of
    both bintree7 coordinates; a holding table decides each of them whole
    and builds half-rank tables only for d = 0..3."""
    B7 = ts.complete_binary_tree(3)
    dom = ts.ProductDomain([B7, B7, ts.chain_tree(10)])
    f = ts.generate("random-verified-strong", dom, seed=3).function
    # f couples the trees with the chain: its chain steps vary with the bintree7 labels
    steps = np.diff(np.array(f.values).reshape(49, 10), axis=1)
    assert (steps != steps[0]).any()
    halved, decided = [], []
    half_tables, split_holds = checks._half_tables, checks._split_holds
    monkeypatch.setattr(checks, "_half_tables",
                        lambda cards, tables, h: halved.append(tables) or half_tables(cards, tables, h))
    monkeypatch.setattr(checks, "_split_holds", lambda *a: decided.append(a) or split_holds(*a))
    assert ts.check_translation(f).ok
    assert len(decided) == 5
    groups = checks._tree_groups(dom)
    expected = [side for d in range(4) for side in
                checks._build_tables(dom, checks._tree_op(groups, checks.up_down_paths, d), {})[:2]]
    assert len(halved) == len(expected) == 8
    for got, want in zip(halved, expected):
        assert all((g == w).all() for g, w in zip(got, want))


def test_split_members_sum_four_values_exactly():
    """Cells just past 2^61: twice the largest |value| fits int64, four
    times does not, so the split test runs on exact ints; in int64 the
    sum -4B of a violated pair would wrap to a positive number."""
    big = (1 << 61) + 5
    # a violated and a holding table per domain; chain3's middle node and
    # star3's root 0 lie between the other two labels
    cases = [([ts.chain_tree(1), ts.chain_tree(3)], [-big, big, -big], [big, -big, big]),
             ([ts.star3_tree(), ts.chain_tree(1)], [big, -big, -big], [-big, big, big])]
    for trees, violated, holding in cases:
        for values in (violated, holding):
            f = ts.DenseTable(ts.ProductDomain(trees), values)
            for check, oracle in _CHECKS_AND_ORACLES:
                assert _witness_key(check(f).witness) == _witness_key(oracle(f))
            assert ts.check_strong(f).ok == (values is holding)


# ---------------------------------------------------------------------------
# Half-rank tables, the mirror rule and one path walk per check

_B7 = ts.complete_binary_tree(3)

# arity 1 to 6, uneven cardinalities, no chain1 (whose pairs every member swaps)
_UNEVEN_DOMAINS = [
    [ts.chain_tree(7)],
    [ts.chain_tree(2), _B7],
    [ts.chain_tree(2), _B7, ts.star3_tree()],
    [ts.chain_tree(2), _B7, ts.star3_tree(), ts.chain_tree(5)],
    [ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(2), ts.star3_tree(), ts.chain_tree(2)],
    [ts.chain_tree(2), ts.star3_tree(), ts.chain_tree(2), ts.chain_tree(3), ts.chain_tree(2),
     ts.star3_tree()],
]


@pytest.mark.parametrize("trees", _UNEVEN_DOMAINS, ids=repr)
def test_half_tables_give_the_rank_of_op_x_y_for_every_split(trees):
    """For every split h and every first label lo, a block's ranks from
    the two half tables equal rank(op(x, y)) from the per-coordinate
    tables, for every x and every y with y_0 >= lo, in rank(y) order."""
    dom = ts.ProductDomain(trees)
    cards, size = dom.cardinalities(), dom.size()
    rng = np.random.default_rng(len(trees))
    tables = [rng.integers(0, c, (c, c)) for c in cards]
    xs = np.stack(np.unravel_index(np.arange(size), cards), axis=1)
    want = np.ravel_multi_index([t[xs[:, i, None], xs[None, :, i]] for i, t in enumerate(tables)],
                                cards)  # rank(op(x, y)), rank(x) by rank(y)
    for h in range(1, dom.n + 1):
        halves = checks._half_tables(cards, tables, h)
        assert [t.shape[1:] for t in halves] == [tuple(cards[:h]), tuple(cards[h:])]
        xa, xb = np.divmod(np.arange(size), math.prod(cards[h:]))
        for lo in range(cards[0]):
            got = checks._block_ranks(halves, xa, xb, lo)
            assert got.shape == (size, cards[0] - lo) + tuple(cards[1:])
            assert (got.reshape(size, -1) == want[:, lo * size // cards[0]:]).all()


def test_the_split_keeps_the_scan_loops_long_and_the_tables_small():
    """The split minimizes the tables' ranks plus the scan's inner loops:
    bintree7^2 x chain10 and chain10^3 split after the first tree, star3^6
    after the second, and one long tree ahead of a short one stays whole
    in the first half, since a second half of its size would not pay."""
    def split(trees):
        cards = [t.node_count for t in trees]
        return min(range(1, len(cards) + 1), key=lambda h: checks._split_cost(cards, h))

    assert split([_B7, _B7, ts.chain_tree(10)]) == 1
    assert split([ts.chain_tree(10)] * 3) == 1
    assert split([ts.star3_tree()] * 6) == 2
    assert split([ts.chain_tree(500), ts.chain_tree(2)]) == 1
    assert split([ts.chain_tree(2), ts.chain_tree(500)]) == 1


@pytest.mark.parametrize("trees", _UNEVEN_DOMAINS, ids=repr)
def test_half_table_checks_match_naive_late_in_many_blocks(monkeypatch, trees):
    """Blocks of 3 rows; a random table, a verified fixture, and the
    first of its variants with one or two cells moved by up to 4 that
    some check flags past the first block; each table also
    shifted by 2^70, so the pass runs on object arrays.  Verdicts and
    witnesses are the naive scans'."""
    dom = ts.ProductDomain(trees)
    size = dom.size()
    monkeypatch.setattr(checks, "_BLOCK_CELLS", 3 * size)
    rng = ts.SplitMix64(149 + len(trees))
    base = list(ts.materialize(ts.generate("random-verified-strong", dom, seed=1).function).values)
    tables = [list(random_table_function(rng, dom, max_value=9).values), base]
    for _ in range(50):
        moved = list(base)
        for _ in range(1 + rng.below(2)):
            moved[rng.below(size)] += rng.below(9) - 4
        f = ts.DenseTable(dom, moved)
        if any(w is not None and dom.rank(w.x) >= 3 for w in (c(f).witness for c, _ in _CHECKS_AND_ORACLES)):
            tables.append(moved)
            break
    late = 0
    for values in tables:
        for shift in (0, 1 << 70):
            f = ts.DenseTable(dom, [v + shift for v in values])
            for check, oracle in _CHECKS_AND_ORACLES:
                expect = oracle(f)
                got = check(f)
                assert _witness_key(got.witness) == _witness_key(expect)
                assert got.pairs_checked == size * size
                late += expect is not None and dom.rank(expect.x) >= 3
    assert late > 0


def _star_product(n):
    return ts.ProductDomain([ts.star3_tree()] * n)


def _star_sliced_tables(dom, rng, wanted):
    """Verified fixtures with one to three cells on the x_0 = 2 third
    lowered, kept when the pass flags a first pair with x_0 >= 1, where a
    block compares its rows only with y_0 >= x_0; at most ``wanted``."""
    size = dom.size()
    found = []
    for seed in range(6):
        base = list(ts.materialize(ts.generate("random-verified-strong", dom, seed=seed).function).values)
        for k in range(40):
            values = list(base)
            for _ in range(1 + k % 3):
                values[2 * size // 3 + rng.below(size // 3)] -= 1 + rng.below(4)
            f = ts.DenseTable(dom, values)
            w = ts.check_translation(f).witness
            if w is not None and w.x[0] >= 1:
                found.append(f)
                if len(found) == wanted:
                    return found
    return found


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_star_translation_members_slice_by_the_mirror(monkeypatch, n):
    """On star3^n the scanned d-members are d = 0, whose tables are
    symmetric, and d = 1, whose first table is the transpose of its
    second; both are mirror-closed, so each block scans only the y with
    y_0 >= x_0.  Over blocks of 1 row, random tables and, up to arity
    5, fixtures whose first violation has x_0 >= 1 give the naive
    witness."""
    dom = _star_product(n)
    groups = checks._tree_groups(dom)
    for d in (0, 1):
        first, second, swapped = checks._build_tables(
            dom, checks._tree_op(groups, checks.up_down_paths, d), {})
        assert checks._mirror_closed(first, second) and not any(swapped)
    monkeypatch.setattr(checks, "_BLOCK_CELLS", dom.size())
    lows = []
    block_ranks = checks._block_ranks
    monkeypatch.setattr(checks, "_block_ranks",
                        lambda halves, xa, xb, lo: lows.append(lo) or block_ranks(halves, xa, xb, lo))
    rng = ts.SplitMix64(151 + n)
    fs = [random_table_function(rng, dom, max_value=9) for _ in range(4)]
    sliced = _star_sliced_tables(dom, rng, 2) if n <= 5 else []
    assert len(sliced) == (2 if n <= 5 else 0)
    for f, late in [(f, False) for f in fs] + [(f, True) for f in sliced]:
        lows.clear()
        got = _translation_agrees_with_naive(f)
        assert not got.ok
        assert max(lows) == got.witness.x[0]  # the flagging block scanned from y_0 = x_0
        assert got.witness.x[0] >= 1 or not late


def test_swap_symmetric_op_tables_slice_by_the_mirror(monkeypatch):
    """A member whose every coordinate has first.T == second, as the
    projections and (g, g.T) for any table g have, is mirror-closed and
    sliced; its witnesses are the naive scan's, over blocks of 1 row."""
    trees = [ts.chain_tree(4), ts.star3_tree(), ts.chain_tree(3)]
    dom = ts.ProductDomain(trees)
    monkeypatch.setattr(checks, "_BLOCK_CELLS", dom.size())
    rng = ts.SplitMix64(157)
    pr = ts.projection_tables(dom)
    assert checks._mirror_closed(*(list(map(np.asarray, side)) for side in pr))
    verdicts = set()
    for _ in range(12):
        f = random_table_function(rng, dom, max_value=9)
        assert ts.check_multimorphism(f, dom, pr).ok and naive_check(f, lambda t, a, b: (a, b)) is None
        g = {t: [[rng.below(t.node_count) for _ in range(t.node_count)] for _ in range(t.node_count)]
             for t in trees}
        op1 = [g[t] for t in trees]
        op2 = [[list(row) for row in zip(*g[t])] for t in trees]
        assert checks._mirror_closed(list(map(np.asarray, op1)), list(map(np.asarray, op2)))
        got = ts.check_multimorphism(f, dom, (op1, op2))
        expect = naive_check(f, lambda t, a, b: (g[t][a][b], g[t][b][a]))
        assert _witness_key(got.witness) == _witness_key(expect)
        verdicts.add(got.ok)
    assert False in verdicts


def test_a_member_mixing_symmetric_and_swap_symmetric_coordinates_scans_every_y(monkeypatch):
    """Meet/join on the star3 coordinate (symmetric) and projections on the
    chain4 one (first.T == second) make a member that is not mirror-closed:
    its first violation may have rank(x) > rank(y), with y_0 < x_0, which
    a block scanning from y_0 = x_0 would miss.  Witnesses are the naive
    scan's, over blocks of 1 row."""
    star, chain = ts.star3_tree(), ts.chain_tree(4)
    dom = ts.ProductDomain([star, chain])
    monkeypatch.setattr(checks, "_BLOCK_CELLS", dom.size())
    mj, pr = ts.meet_join_tables(dom), ts.projection_tables(dom)
    op1, op2 = [mj[0][0], pr[0][1]], [mj[1][0], pr[1][1]]
    assert not checks._mirror_closed(list(map(np.asarray, op1)), list(map(np.asarray, op2)))

    def op(t, a, b):
        return ts.meet_join(t, a, b) if t == star else (a, b)

    rng = ts.SplitMix64(163)
    backwards = 0
    for _ in range(40):
        f = random_table_function(rng, dom, max_value=9)
        expect = naive_check(f, op)
        got = ts.check_multimorphism(f, dom, (op1, op2))
        assert _witness_key(got.witness) == _witness_key(expect)
        backwards += expect is not None and expect.x[0] > expect.y[0]
    assert backwards >= 3


def _count_walks(monkeypatch):
    """Patch ``trees.Paths`` to record the tree of each path walk it runs."""
    walks = []
    walk = ts.trees.Paths._walk
    monkeypatch.setattr(ts.trees.Paths, "_walk",
                        lambda p: (p._walked is None and walks.append(p.tree)) or walk(p))
    return walks


def test_exhaustive_translation_walks_each_trees_paths_once(monkeypatch):
    """A holding bintree7^2 x chain10 check walks the index-grid paths of
    each distinct tree once for all ten members; up/down at d >= 4, past
    bintree7's diameter, maps its label pairs with no node lookup."""
    dom = ts.ProductDomain([_B7, _B7, ts.chain_tree(10)])
    f = ts.generate("random-verified-strong", dom, seed=3).function
    walks = _count_walks(monkeypatch)
    lookups = []
    node_at = ts.trees.Paths.node_at
    monkeypatch.setattr(ts.trees.Paths, "node_at", lambda p, q: lookups.append(p.tree) or node_at(p, q))
    assert ts.check_translation(f).ok
    assert walks == [_B7, ts.chain_tree(10)]
    assert lookups.count(_B7) == 4 and lookups.count(ts.chain_tree(10)) == 9


def test_sampled_translation_walks_each_blocks_paths_once(monkeypatch):
    """Sampled mode walks the paths of each drawn block once per distinct
    tree and steps every d over them, keeping them for the pairs still
    live; its reports are the scalar replay's."""
    dom = ts.ProductDomain([ts.star3_tree(), ts.chain_tree(6), ts.star3_tree(), _B7])
    rng = ts.SplitMix64(167)
    fs = [ts.generate("random-verified-strong", dom, seed=0).function] + [
        random_table_function(rng, dom, max_value=9) for _ in range(3)]
    walks = _count_walks(monkeypatch)
    for f in fs:
        for samples, seed in ((30, 5), (2500, 11)):
            walks.clear()
            got = ts.check_translation(f, mode="sampled", samples=samples, seed=seed)
            expected = replay_sampled(f, sampled_steps("translation", dom), samples, seed)
            assert (_witness_key(got.witness), got.pairs_checked, got.note) == expected
            blocks = -(-got.pairs_checked // checks._SAMPLE_PAIRS)
            # three distinct trees per block, and the witness's replay walks them again
            assert len(walks) == 3 * (blocks + (not got.ok))


# ---------------------------------------------------------------------------
# Generic multimorphism check


def test_multimorphism_tables_stay_per_coordinate():
    """Equal trees may carry different tables; each coordinate uses its own.

    With projections on x0 and meet/join on x1, g(x0) + h(x1) is a
    multimorphism exactly when h is midpoint convex.
    """
    dom = ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(3)])
    mj, pr = ts.meet_join_tables(dom), ts.projection_tables(dom)
    op1, op2 = [pr[0][0], mj[0][1]], [pr[1][0], mj[1][1]]
    rng = ts.SplitMix64(67)
    verdicts = set()
    for _ in range(20):
        g = [rng.below(9) for _ in range(3)]
        h = [rng.below(9) for _ in range(3)]
        f = ts.DenseTable(dom, [g[a] + h[b] for a, b in dom.labelings()])
        expect = None
        for x in dom.labelings():
            for y in dom.labelings():
                first = tuple(op1[i][a][b] for i, (a, b) in enumerate(zip(x, y)))
                second = tuple(op2[i][a][b] for i, (a, b) in enumerate(zip(x, y)))
                lhs, rhs = f.evaluate(x) + f.evaluate(y), f.evaluate(first) + f.evaluate(second)
                if expect is None and lhs < rhs:
                    expect = (x, y, None, lhs, rhs)
        got = ts.check_multimorphism(f, dom, (op1, op2))
        assert _witness_key(got.witness) == expect
        verdicts.add(got.ok)
    assert verdicts == {True, False}


def test_multimorphism_meet_join_matches_strong():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()])
    rng = ts.SplitMix64(3)
    tables = ts.meet_join_tables(dom)
    for _ in range(50):
        f = random_table_function(rng, dom, max_value=8)
        direct = ts.check_strong(f)
        generic = ts.check_multimorphism(f, dom, tables)
        assert direct.ok == generic.ok
        if not direct.ok:
            assert (direct.witness.x, direct.witness.y) == (
                generic.witness.x, generic.witness.y,
            )


def test_multimorphism_projections_always_ok():
    dom = ts.ProductDomain([ts.chain_tree(4)])
    rng = ts.SplitMix64(8)
    tables = ts.projection_tables(dom)
    for _ in range(10):
        f = random_table_function(rng, dom)
        assert ts.check_multimorphism(f, dom, tables).ok


def test_multimorphism_min_max_on_chains_is_weak():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(3)])
    rng = ts.SplitMix64(13)
    mm = ts.min_max_tables(dom)
    for _ in range(30):
        f = random_table_function(rng, dom, max_value=10)
        assert ts.check_multimorphism(f, dom, mm).ok == ts.check_weak(f).ok


def test_min_max_tables_reject_branching():
    with pytest.raises(DomainError):
        ts.min_max_tables(ts.ProductDomain([ts.star3_tree()]))


def test_multimorphism_malformed_table():
    dom = ts.ProductDomain([ts.chain_tree(3)])
    f = ts.DenseTable(dom, [0, 1, 2])
    good = [[[0] * 3 for _ in range(3)]]
    bad_shape = [[[0] * 2 for _ in range(3)]]
    bad_label = [[[7] * 3 for _ in range(3)]]
    with pytest.raises(DomainError):
        ts.check_multimorphism(f, dom, (bad_shape, good))
    with pytest.raises(DomainError):
        ts.check_multimorphism(f, dom, (good, bad_label))
    with pytest.raises(DomainError):
        ts.check_multimorphism(f, dom, None)


def test_multimorphism_table_labels_of_any_integer_type():
    """Numpy tables and numpy or bool labels read as their plain ints; a
    float label is refused, not truncated."""
    dom = ts.ProductDomain([ts.chain_tree(2), ts.chain_tree(3)])
    f = random_table_function(ts.SplitMix64(29), dom, max_value=8)
    op1, op2 = ts.meet_join_tables(dom)
    expected = ts.check_multimorphism(f, dom, (op1, op2))
    as_numpy = [np.array(t) for t in op1], [np.array(t) for t in op2]
    as_bool = [[[bool(v) for v in row] for row in op1[0]], op1[1]], op2
    assert ts.check_multimorphism(f, dom, as_numpy) == expected
    assert ts.check_multimorphism(f, dom, as_bool) == expected
    floats = [[[float(v) for v in row] for row in op1[0]], op1[1]]
    with pytest.raises(DomainError) as err:
        ts.check_multimorphism(f, dom, (floats, op2))
    assert str(err.value) == "op1: table 0 holds invalid label 0.0"


# ---------------------------------------------------------------------------
# Sums of terms checked one host table at a time

_SUM_TREE_POOL = (ts.chain_tree(2), ts.chain_tree(3), ts.chain_tree(4), ts.star3_tree(),
                  ts.complete_binary_tree(3), ts.fork_tree(2))


def _random_sum_domain(rng: ts.SplitMix64, arity: int) -> ts.ProductDomain:
    """A product of ``arity`` trees from the pool with at most 100 labelings."""
    while True:
        dom = ts.ProductDomain([_SUM_TREE_POOL[rng.below(len(_SUM_TREE_POOL))] for _ in range(arity)])
        if dom.size() <= 100:
            return dom


def _random_scope(rng: ts.SplitMix64, n: int) -> tuple[int, ...]:
    """1-3 distinct variables in a random order."""
    scope = list(range(n))
    for j in range(n - 1, 0, -1):
        r = rng.below(j + 1)
        scope[j], scope[r] = scope[r], scope[j]
    return tuple(scope[:1 + rng.below(min(3, n))])


def _random_sum(rng: ts.SplitMix64, dom: ts.ProductDomain, verified: bool) -> ts.SumOfTerms:
    """0-4 terms over random scopes.  A term's table is strongly verified
    on its scope's product when ``verified`` (and otherwise on a coin
    flip), else small random values."""
    terms = []
    for _ in range(rng.below(5)):
        scope = _random_scope(rng, dom.n)
        sub = ts.ProductDomain([dom.trees[i] for i in scope])
        if verified or rng.below(2):
            values = ts.generate("random-verified-strong", sub, seed=rng.below(1000), max_value=6).function.values
        else:
            values = tuple(rng.below(7) for _ in range(sub.size()))
        terms.append(ts.Term(scope, values))
    return ts.SumOfTerms(dom, terms)


def _assert_sum_matches_full_pass_and_naive(f) -> dict[str, bool]:
    """Each exhaustive report on the sum equals the full pass's on its
    table, and its verdict and witness equal the naive oracle's."""
    size = f.domain.size()
    table = ts.materialize(f)
    verdicts = {}
    for check, oracle in _CHECKS_AND_ORACLES:
        got = check(f)
        assert got == check(table)
        expect = oracle(f)
        assert (got.ok, _witness_key(got.witness), got.pairs_checked) == (
            expect is None, _witness_key(expect), size * size)
        verdicts[check.__name__] = got.ok
    return verdicts


def test_sum_reports_match_the_full_pass_and_naive_on_random_sums():
    """Random sums over chains, star3, bintree7 and fork2 at arity 1-4,
    with terms of 1-3 variables over scopes in random order, and sums of
    no terms: the host pass changes no report."""
    rng = ts.SplitMix64(83)
    seen = {name: set() for name in ("check_strong", "check_weak", "check_translation")}
    for k in range(40):
        dom = _random_sum_domain(rng, 1 + k % 4)
        for name, ok in _assert_sum_matches_full_pass_and_naive(_random_sum(rng, dom, k % 3 != 0)).items():
            seen[name].add(ok)
    assert all(verdicts == {True, False} for verdicts in seen.values())
    for arity in (1, 3):
        dom = _random_sum_domain(rng, arity)
        assert all(_assert_sum_matches_full_pass_and_naive(ts.SumOfTerms(dom, [])).values())


def test_sum_reports_match_the_full_pass_and_naive_past_int64():
    """A sum whose tables hold 2^70-sized values (object dtype) takes the
    same host pass on exact ints, holding and failing."""
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(4)])
    big = 1 << 70
    convex = ts.Term((2,), (big, 0, 0, big))
    coupled = ts.Term((1, 0), ts.generate("random-verified-strong", ts.ProductDomain(
        [dom.trees[1], dom.trees[0]]), seed=4).function.values)
    holding = ts.SumOfTerms(dom, [convex, coupled])
    assert all(table.dtype == object for _, table, _ in holding._reads())
    assert all(_assert_sum_matches_full_pass_and_naive(holding).values())
    spike = ts.Term((1,), (big, 0, 0))  # star3's root above both leaves
    assert not any(_assert_sum_matches_full_pass_and_naive(
        ts.SumOfTerms(dom, [convex, coupled, spike])).values())


def _two_host_sum(rng: ts.SplitMix64, trees):
    """Terms A over (0, 1) and B over (2, 1), both strongly verified, plus
    a unary p(x_1) added into A and taken out of B, plus on a coin flip a
    little noise in B; and the two host tables, on (0, 1) and (1, 2)."""
    dom = ts.ProductDomain(trees)
    c0, c1, c2 = (t.node_count for t in trees)
    va = ts.generate("random-verified-strong", ts.ProductDomain([trees[0], trees[1]]),
                     seed=rng.below(1000), max_value=4).function.values
    vb = ts.generate("random-verified-strong", ts.ProductDomain([trees[2], trees[1]]),
                     seed=rng.below(1000), max_value=4).function.values
    p = [rng.below(9) - 4 for _ in range(c1)]
    noisy = rng.below(2)
    a = [va[x0 * c1 + x1] + p[x1] for x0 in range(c0) for x1 in range(c1)]
    b = [vb[x2 * c1 + x1] - p[x1] + noisy * rng.below(2) for x2 in range(c2) for x1 in range(c1)]
    f = ts.SumOfTerms(dom, [ts.Term((0, 1), a), ts.Term((2, 1), b)])
    hosts = [ts.DenseTable(ts.ProductDomain([trees[0], trees[1]]), a),
             ts.DenseTable(ts.ProductDomain([trees[1], trees[2]]),
                           [b[x2 * c1 + x1] for x1 in range(c1) for x2 in range(c2)])]
    return f, hosts


@pytest.mark.parametrize("check, oracle", _CHECKS_AND_ORACLES, ids=["strong", "weak", "translation"])
def test_a_failing_host_falls_back_to_the_full_pass(check, oracle):
    """A seeded search finds sums that hold while one of their host tables
    fails, and sums that fail: each report equals the full pass's on the
    materialized table and the naive oracle's verdict and witness."""
    rng = ts.SplitMix64(97)
    trees_of = [[ts.chain_tree(3), ts.chain_tree(4), ts.chain_tree(3)],
                [ts.star3_tree(), ts.chain_tree(3), ts.fork_tree(2)],
                [ts.complete_binary_tree(3), ts.star3_tree(), ts.chain_tree(2)]]
    found = {True: 0, False: 0}
    for k in range(60):
        f, hosts = _two_host_sum(rng, trees_of[k % 3])
        expect = oracle(f)
        if expect is None and all(oracle(h) is None for h in hosts):
            continue  # the host pass decides these alone
        got = check(f)
        assert got == check(ts.materialize(f))
        assert (got.ok, _witness_key(got.witness)) == (expect is None, _witness_key(expect))
        found[got.ok] += 1
    assert found[True] >= 5 and found[False] >= 5


def _chain10_cubed_sum(w: int) -> ts.SumOfTerms:
    """(v - 4)^2 on each chain10 variable plus w * |x_i - x_j| on each
    pair: it holds every property for w >= 0 and fails each for w < 0."""
    dom = ts.ProductDomain([ts.chain_tree(10)] * 3)
    coupling = tuple(w * abs(a - b) for a in range(10) for b in range(10))
    return ts.SumOfTerms(dom, [ts.Term((i,), tuple((v - 4) ** 2 for v in range(10))) for i in range(3)]
                         + [ts.Term(s, coupling) for s in ((1, 0), (0, 2), (2, 1))])


def _count_sum_passes(monkeypatch):
    """Record the argument of each ``checks.materialize`` call, the domain
    size of each ``_candidate_pairs`` call, the domain size of each grid
    that ``_flagged_pair`` decides (a host table's, or the materialized
    sum's), and the pair of each witness replay."""
    calls = {"materialize": [], "scanned": [], "passes": [], "replays": []}
    materialize, candidates = checks.materialize, checks._candidate_pairs
    flagged, replay = checks._flagged_pair, checks._replay
    monkeypatch.setattr(checks, "materialize", lambda g: calls["materialize"].append(g) or materialize(g))
    monkeypatch.setattr(checks, "_candidate_pairs", lambda grid, domain, family: (
        calls["scanned"].append(domain.size()) or candidates(grid, domain, family)))
    monkeypatch.setattr(checks, "_flagged_pair", lambda grid, domain, spec, name: (
        calls["passes"].append(domain.size()) or flagged(grid, domain, spec, name)))
    monkeypatch.setattr(checks, "_replay", lambda g, family, x, y, name: (
        calls["replays"].append((x, y)) or replay(g, family, x, y, name)))
    return calls


@pytest.mark.parametrize("check", [ts.check_strong, ts.check_weak, ts.check_translation],
                         ids=lambda c: c.__name__)
def test_a_holding_sum_is_decided_by_its_host_tables_alone(monkeypatch, check):
    """On a holding chain10^3 sum the array pass runs once per host
    table, on its own 100 labelings, and never materializes the sum or
    scans its 10^6 pairs; the report is the full pass's."""
    f = _chain10_cubed_sum(1)
    expected = check(ts.materialize(f))
    calls = _count_sum_passes(monkeypatch)
    assert check(f) == expected and expected.ok and expected.pairs_checked == 10**6
    assert calls["passes"] == [100] * 3
    assert f not in calls["materialize"] and 1000 not in calls["scanned"]
    # a sampled check reads no host table
    calls["passes"].clear()
    assert check(f, mode="sampled").ok and calls["passes"] == []


@pytest.mark.parametrize("check", [ts.check_strong, ts.check_weak, ts.check_translation],
                         ids=lambda c: c.__name__)
def test_a_failing_sum_materializes_once_after_its_first_failing_host(monkeypatch, check):
    """A negative coupling fails the first host table and the sum: the
    host pass stops there without replaying a witness, and the sum is
    materialized once for the full pass, whose report it returns."""
    f = _chain10_cubed_sum(-1)
    expected = check(ts.materialize(f))
    calls = _count_sum_passes(monkeypatch)
    got = check(f)
    assert got == expected and not expected.ok
    assert calls["passes"] == [100, 1000]
    assert [g for g in calls["materialize"] if g is f] == [f]
    assert 1000 in calls["scanned"]
    assert calls["replays"] == [(got.witness.x, got.witness.y)]


def test_a_sum_with_one_host_over_every_variable_runs_the_full_pass_once(monkeypatch):
    """A host over every variable is the sum itself: no host pass runs,
    and the full pass scans the domain once.  Neither does
    ``check_multimorphism`` run one, nor a refused sum."""
    dom = ts.ProductDomain([ts.chain_tree(4), ts.star3_tree(), ts.chain_tree(3)])
    whole = ts.generate("random-verified-strong", ts.ProductDomain(
        [dom.trees[2], dom.trees[0], dom.trees[1]]), seed=1).function.values
    f = ts.SumOfTerms(dom, [ts.Term((2, 0, 1), whole), ts.Term((1,), (0, 1, 1))])
    calls = _count_sum_passes(monkeypatch)
    assert ts.check_strong(f).ok
    assert calls == {"materialize": [f], "scanned": [36], "passes": [36], "replays": []}
    g = _chain10_cubed_sum(1)
    calls["materialize"].clear()
    calls["scanned"].clear()
    calls["passes"].clear()
    assert ts.check_multimorphism(g, op_pair=ts.meet_join_tables(g.domain)).ok
    assert calls == {"materialize": [g], "scanned": [1000], "passes": [1000], "replays": []}
    big = ts.SumOfTerms(ts.ProductDomain([ts.chain_tree(40)] * 2), [ts.Term((0,), tuple(range(40)))])
    calls["passes"].clear()
    with pytest.raises(BudgetExceededError, match="2560000 pairs"):
        ts.check_strong(big)
    assert calls["passes"] == []


@pytest.mark.parametrize("check", [ts.check_strong, ts.check_weak, ts.check_translation],
                         ids=lambda c: c.__name__)
def test_the_host_pass_builds_no_table(monkeypatch, check):
    """Each host reaches the array pass as the array the sum folded: with
    no ``DenseTable`` to be built, a holding chain10^3 sum still gets the
    full pass's report."""
    f = _chain10_cubed_sum(1)
    expected = check(ts.materialize(f))

    def refuse(*args, **kwargs):
        raise AssertionError("the host pass built a DenseTable")

    monkeypatch.setattr(ts.DenseTable, "__init__", refuse)
    monkeypatch.setattr(ts.DenseTable, "_of_plain_ints", refuse)
    assert check(f) == expected and expected.ok


@pytest.mark.parametrize("w", [1, -1])
def test_an_object_host_and_an_int64_host_keep_the_widening_rule(monkeypatch, w):
    """In a sum folded to object tables, a host of cells past 2^62 stays
    object and a host of small cells is read as int64, as when each was a
    table of its own; the reports equal the materialized sum's."""
    dom = ts.ProductDomain([ts.chain_tree(4)] * 3)
    big = 1 << 70
    far = ts.Term((1, 0), tuple(big * abs(a - b) + (a - 2) ** 2 for a in range(4) for b in range(4)))
    near = ts.Term((1, 2), tuple(w * abs(a - b) for a in range(4) for b in range(4)))
    f = ts.SumOfTerms(dom, [far, near])
    assert all(table.dtype == object for _, table, _ in f._reads())
    dtypes = []
    flagged = checks._flagged_pair
    monkeypatch.setattr(checks, "_flagged_pair", lambda grid, domain, spec, name: (
        dtypes.append((domain.n, grid.dtype)) or flagged(grid, domain, spec, name)))
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        dtypes.clear()
        got = check(f)
        assert got == check(ts.materialize(f)) and got.ok == (w > 0)
        # the last host table first; a failing host stops the host pass
        hosts = [dtype for n, dtype in dtypes if n == 2]
        assert hosts == [np.dtype(np.int64), np.dtype(object)][:2 if w > 0 else 1]
