"""Property checkers: witnesses, equivalences, modes, and budgets."""

from __future__ import annotations

import tracemalloc

import pytest

import treesub as ts
from treesub import checks
from treesub.errors import BudgetExceededError, DomainError
from treesub.solvers import BinaryCubeFunction, SignBoxFunction

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


def _bumped_chain_table(bumped_x0):
    """A chain-product table violated only through bumps on the slices
    {x0 = c, x1 >= 1}, c in bumped_x0.

    The base 8B * sum(x_i^2), with B = 32 >= |bump|, gives slack of at
    least 16B wherever an operation moves a coordinate strictly inside
    its pair, more than the bumps can take back (2B).  Every other
    operation (d = 0 translation, strong moves on pairs at distance <= 1)
    maps the pair to its componentwise min and max.  Each bump is <= 0,
    antitone and strictly supermodular, so pairs inside a slice violate.
    The top slice c = 2 is an up-set, so a min/max pair with a side off
    it holds: with bumped_x0 = {2}, every violation has x0 = y0 = 2.
    """
    dom = ts.ProductDomain([ts.chain_tree(k) for k in (3, 4, 5, 5)])
    bump = 32
    values = [
        8 * bump * sum(v * v for v in x)
        + ((3 - x[1]) * (4 - x[2]) * (4 - x[3]) - bump if x[0] in bumped_x0 and x[1] >= 1 else 0)
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


def test_exhaustive_checks_stay_within_a_block_of_memory():
    """Peak traced memory stays near a few row-block arrays (128 KiB each)
    and the O(|D|) values and digits, under 1 MB at |D| = 1000; one
    |D|^2 int64 array alone would take 8 MB."""
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

    for name in ("meet_join_array", "wedge_vee_array", "up_down_array"):
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

    monkeypatch.setattr(checks, "up_down_array",
                        counted("up_down", checks.up_down_array, lambda args: args[1].size))
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
    """Patch the array op ``checks.<name>`` to record the tree of each call."""
    calls = []
    op = getattr(checks, name)
    monkeypatch.setattr(checks, name, lambda tree, *a: calls.append(tree) or op(tree, *a))
    return calls


def test_sampled_checks_call_the_array_op_once_per_tree_per_member_per_block(monkeypatch):
    """A sampled check maps each block of drawn pairs with one array-op
    call per distinct tree and member; a witness replays one more call per
    tree and member.  Reports match the same check on meet/join tables."""
    calls = _count_calls(monkeypatch, "meet_join_array")
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
        assert calls == list(dict.fromkeys(trees)) * 3


def test_exhaustive_checks_call_the_array_op_once_per_tree_per_member(monkeypatch):
    """Exhaustive op tables come from one array-op call per distinct tree
    and member, over every label pair at once, up to the first member that
    swaps every pair; reports match the same check on meet/join tables."""
    calls = _count_calls(monkeypatch, "up_down_array")
    dom = ts.ProductDomain([ts.chain_tree(10)] * 3)
    f = ts.DenseTable(dom, [sum((v - 4) ** 2 for v in x) for x in dom.labelings()])
    assert ts.check_translation(f).ok
    # members d = 0..9; up_down(9) swaps every pair of chain10
    assert calls == [dom.trees[0]] * 10
    dom = ts.ProductDomain([ts.chain_tree(3), ts.star3_tree(), ts.chain_tree(3)])
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


# ---------------------------------------------------------------------------
# Cube / sign-box restriction checks


def test_cube_check_flags_supermodular():
    good = BinaryCubeFunction(m=3, free=(0, 1, 2), evaluate=lambda A: len(A) * (3 - len(A)))
    assert ts.check_cube_submodular(good).ok
    # convex of cardinality is strictly supermodular: g({0})+g({1}) < g(both)+g(none)
    bad = BinaryCubeFunction(m=2, free=(0, 1), evaluate=lambda A: len(A) * len(A))
    report = ts.check_cube_submodular(bad)
    assert not report.ok
    # first violating pair in rank order: subsets {1} and {0}
    assert report.witness.x == (1,) and report.witness.y == (0,)
    assert report.witness.lhs == 2 and report.witness.rhs == 4


def test_cube_check_empty_free():
    g = BinaryCubeFunction(m=2, free=(), evaluate=lambda A: 5)
    assert ts.check_cube_submodular(g).ok
    report = ts.check_cube_submodular(BinaryCubeFunction(m=0, free=(), evaluate=lambda A: 5))
    assert report.ok and report.witness is None and report.pairs_checked == 1


def test_restriction_checks_refuse_before_any_evaluation(monkeypatch):
    monkeypatch.setenv("TREESUB_BUDGET", "10")
    calls = []

    def counted(arg):
        calls.append(arg)
        return 0

    cube = BinaryCubeFunction(m=16, free=tuple(range(16)), evaluate=counted)
    with pytest.raises(BudgetExceededError) as cube_err:
        ts.check_cube_submodular(cube)
    box = SignBoxFunction(m=8, allowed=((-1, 0, 1),) * 8, evaluate=counted)
    with pytest.raises(BudgetExceededError) as box_err:
        ts.check_sign_box_bisubmodular(box)
    assert calls == []
    assert str(cube_err.value) == (
        "domain size 65536: 4294967296 pairs exceed budget 10; "
        "raise TREESUB_BUDGET or use sampled mode"
    )
    assert "domain size 6561: 43046721 pairs exceed budget 10" in str(box_err.value)


def test_sign_box_check():
    ok_fn = SignBoxFunction(m=2, allowed=((-1, 0, 1), (-1, 0)), evaluate=lambda s: sum(s))
    assert ts.check_sign_box_bisubmodular(ok_fn).ok
    # root spike on one ternary coordinate: h(0) = 1, h(+-1) = 0
    bad = SignBoxFunction(m=1, allowed=((-1, 0, 1),), evaluate=lambda s: int(s[0] == 0))
    report = ts.check_sign_box_bisubmodular(bad)
    assert not report.ok
    assert set(report.witness.x + report.witness.y) == {-1, 1}
    # the empty box has no coordinates, like a cube with no free ones
    empty = SignBoxFunction(m=0, allowed=(), evaluate=lambda s: 5)
    assert ts.bisub_brute(empty) == ((), 5)
    report = ts.check_sign_box_bisubmodular(empty)
    assert report.ok and report.witness is None and report.pairs_checked == 1
