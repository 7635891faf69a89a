"""Neighborhood restrictions, the two-stage descent, and its diagnostics."""

from __future__ import annotations

import dataclasses

import pytest

import treesub as ts
from treesub import descent, functions, solvers
from treesub.descent import apply_inward, apply_outward
from treesub.trees import rho
from treesub.errors import (
    BudgetExceededError,
    DomainError,
    IterationBoundError,
    UnsupportedStructureError,
)

from conftest import (
    bfs_path,
    brute_minimum,
    forest_minimum,
    naive_box_violation,
    naive_cube_violation,
    random_terms,
    root_walk,
)


@pytest.fixture
def c5sq():
    dom = ts.ProductDomain([ts.chain_tree(5), ts.chain_tree(5)])
    f = ts.SumOfTerms(
        dom,
        [
            ts.Term(scope=(0,), values=tuple((v - 3) ** 2 for v in range(5))),
            ts.Term(scope=(1,), values=tuple((v - 1) ** 2 for v in range(5))),
            ts.Term(scope=(0, 1), values=tuple(2 * abs(a - b) for a in range(5) for b in range(5))),
        ],
    )
    return f


def _strong_fixture(seed):
    tree = ts.RootedTree([-1, 0, 0, 1, 1])
    dom = ts.ProductDomain([tree, tree])
    return ts.generate("random-verified-strong", dom, seed=seed)


# ---------------------------------------------------------------------------
# inward_restrict


def test_inward_at_roots_has_empty_free(c5sq):
    dom = c5sq.domain
    cube = ts.inward_restrict(c5sq, dom, dom.all_roots())
    assert cube.free == ()
    assert cube.evaluate(frozenset()) == c5sq.evaluate(dom.all_roots())


def test_inward_example(c5sq):
    dom = c5sq.domain
    cube = ts.inward_restrict(c5sq, dom, (2, 0))
    assert cube.free == (0,)
    assert cube.evaluate(frozenset({0})) == c5sq.evaluate((1, 0))
    assert cube.evaluate(frozenset()) == c5sq.evaluate((2, 0))
    with pytest.raises(DomainError):
        cube.evaluate(frozenset({1}))


def test_inward_restriction_is_submodular_on_fixtures():
    for seed in (0, 1, 2):
        fx = _strong_fixture(seed)
        rng = ts.SplitMix64(seed + 100)
        for _ in range(5):
            x = fx.domain.unrank(rng.below(fx.domain.size()))
            cube = ts.inward_restrict(fx.function, fx.domain, x)
            assert naive_cube_violation(cube) is None


def test_cube_oracle_refutes_a_supermodular_cube():
    good = ts.BinaryCubeFunction(m=3, free=(0, 1, 2), evaluate=lambda A: len(A) * (3 - len(A)))
    assert naive_cube_violation(good) is None
    # |A|^2 is strictly supermodular: g({0}) + g({1}) < g({}) + g({0, 1})
    bad = ts.BinaryCubeFunction(m=2, free=(0, 1), evaluate=lambda A: len(A) * len(A))
    assert naive_cube_violation(bad) == (frozenset({0}), frozenset({1}), 2, 4)
    # no free coordinates: the empty set is the only cell
    assert naive_cube_violation(ts.BinaryCubeFunction(m=0, free=(), evaluate=lambda A: 5)) is None


def test_apply_inward(c5sq):
    assert apply_inward(c5sq.domain, (2, 4), frozenset({0, 1})) == (1, 3)


# ---------------------------------------------------------------------------
# outward_restrict


def test_outward_at_leaves_is_all_fixed(c5sq):
    dom = c5sq.domain
    box = ts.outward_restrict(c5sq, dom, (4, 4))
    assert box.allowed == ((0,), (0,))
    assert box.evaluate((0, 0)) == c5sq.evaluate((4, 4))


def test_outward_full_box_at_star_roots():
    dom = ts.ProductDomain([ts.star3_tree(), ts.star3_tree()])
    f = ts.DenseTable(dom, list(range(9)))
    box = ts.outward_restrict(f, dom, dom.all_roots())
    assert box.allowed == ((-1, 0, 1), (-1, 0, 1))
    # sign -1 moves to the first child, +1 to the second
    assert box.evaluate((-1, 1)) == f.evaluate((1, 2))


def test_outward_single_child_allows_minus_only(c5sq):
    dom = c5sq.domain
    box = ts.outward_restrict(c5sq, dom, (2, 4))
    assert box.allowed == ((-1, 0), (0,))
    assert box.evaluate((-1, 0)) == c5sq.evaluate((3, 4))
    with pytest.raises(DomainError):
        box.evaluate((1, 0))


def test_outward_rejects_ternary_tree():
    ternary = ts.RootedTree([-1, 0, 0, 0])
    dom = ts.ProductDomain([ternary])
    f = ts.DenseTable(dom, [0, 1, 2, 3])
    with pytest.raises(UnsupportedStructureError) as err:
        ts.outward_restrict(f, dom, (0,))
    assert str(err.value) == "tree 0 is not binary: node 0 has 3 children"


def test_outward_guards_only_the_nodes_it_moves():
    # a leaf of a ternary tree has a sign box; only a node with three children has none
    dom = ts.ProductDomain([ts.RootedTree([-1, 0, 0, 0]), ts.chain_tree(3)])
    f = ts.DenseTable(dom, range(12))
    box = ts.outward_restrict(f, dom, (1, 0))
    assert box.allowed == ((0,), (-1, 0))
    assert ts.bisub_brute(box) == ((0, 0), f.evaluate((1, 0)))
    with pytest.raises(UnsupportedStructureError, match="node 0 has 3 children"):
        ts.outward_restrict(f, dom, (0, 0))


def test_outward_restriction_is_bisubmodular_on_fixtures():
    for seed in (0, 1, 2):
        fx = _strong_fixture(seed)
        rng = ts.SplitMix64(seed + 200)
        for _ in range(5):
            x = fx.domain.unrank(rng.below(fx.domain.size()))
            box = ts.outward_restrict(fx.function, fx.domain, x)
            assert naive_box_violation(box) is None


def test_box_oracle_refutes_a_root_spike():
    ok_fn = ts.SignBoxFunction(m=2, allowed=((-1, 0, 1), (-1, 0)), evaluate=lambda s: sum(s))
    assert naive_box_violation(ok_fn) is None
    # root spike on one ternary coordinate: h(0) = 1, h(+-1) = 0, and
    # h(-1) + h(+1) < h(-1 meet +1) + h(-1 join +1) = 2 h(0)
    bad = ts.SignBoxFunction(m=1, allowed=((-1, 0, 1),), evaluate=lambda s: int(s[0] == 0))
    assert naive_box_violation(bad) == ((-1,), (1,), 0, 2)
    # no coordinates: the empty vector is the only cell
    assert naive_box_violation(ts.SignBoxFunction(m=0, allowed=(), evaluate=lambda s: 5)) is None


def test_apply_outward():
    dom = ts.ProductDomain([ts.star3_tree(), ts.chain_tree(3)])
    assert apply_outward(dom, (0, 1), (1, -1)) == (2, 2)
    assert apply_outward(dom, (0, 1), (0, 0)) == (0, 1)


def _restriction_instances():
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree(),
                            ts.complete_binary_tree(3)])
    rng = ts.SplitMix64(31)
    sums = ts.SumOfTerms(dom, random_terms(rng, dom, -6, 6, 5))
    table = ts.DenseTable(dom, [rng.below(30) for _ in range(dom.size())])
    return dom, rng, (sums, table)


def test_restriction_walks_match_evaluate_along_the_prefixes():
    dom, rng, costs = _restriction_instances()
    for f in costs:
        for _ in range(15):
            x = tuple(rng.below(t.node_count) for t in dom.trees)
            cube = ts.inward_restrict(f, dom, x)
            coords = [cube.free[rng.below(len(cube.free))] for _ in range(5)] if cube.free else []
            prefixes = [frozenset(coords[:j]) for j in range(len(coords) + 1)]
            assert cube.walk(coords) == [cube.evaluate(A) for A in prefixes]
            box = ts.outward_restrict(f, dom, x)
            steps = []
            for _ in range(5):
                i = rng.below(dom.n)
                steps.append((i, box.allowed[i][rng.below(len(box.allowed[i]))]))
            vec, points = [0] * dom.n, [box.zeros()]
            for i, s in steps:
                vec[i] = s
                points.append(tuple(vec))
            assert box.walk(steps) == [box.evaluate(v) for v in points]


def test_restriction_walks_refuse_moves_outside_the_neighborhood():
    dom, _, (f, _) = _restriction_instances()
    x = (1, 3, 0, 0)  # chain coordinate at its leaf, star3 at its root
    box = ts.outward_restrict(f, dom, x)
    assert box.allowed == ((-1, 0, 1), (0,), (-1, 0, 1), (-1, 0, 1))
    with pytest.raises(DomainError) as expected:
        box.evaluate((0, 1, 0, 0))
    with pytest.raises(DomainError) as got:
        box.walk([(0, 1), (1, 1), (2, -1)])
    assert str(got.value) == str(expected.value)
    for i in (4, -1):
        with pytest.raises(DomainError, match=f"coordinate {i} is not in 0..3"):
            box.walk([(i, 1)])
    cube = ts.inward_restrict(f, dom, x)
    assert cube.free == (0, 1)
    with pytest.raises(DomainError, match="free set"):
        cube.walk([0, 2])


def test_restriction_moves_are_built_once_per_restriction(monkeypatch):
    dom, _, (f, _) = _restriction_instances()
    calls = []
    for name in ("apply_inward", "apply_outward"):
        inner = getattr(descent, name)
        monkeypatch.setattr(
            descent, name, lambda *args, _inner=inner, _name=name: calls.append(_name) or _inner(*args)
        )
    x = (1, 1, 0, 2)  # the star3 coordinate sits at its root, so it is not free inward
    cube = ts.inward_restrict(f, dom, x)
    box = ts.outward_restrict(f, dom, x)
    built = len(calls)
    for _ in range(10):
        cube.walk([0, 1, 3])
        box.walk([(0, 1), (1, -1), (2, 1)])
    cube.grid()
    box.grid()
    assert len(calls) == built


def test_restriction_walks_check_no_label_after_the_first(monkeypatch):
    """The restriction checks x and each step; its walker trusts them."""
    b7 = ts.complete_binary_tree(3)
    dom = ts.ProductDomain([b7, b7, b7])
    f = ts.SumOfTerms(dom, random_terms(ts.SplitMix64(37), dom, -6, 6, 4))
    x = (1, 2, 4)  # every coordinate moves inward; 4 is a leaf, so coordinate 2 stays outward
    cube = ts.inward_restrict(f, dom, x)
    box = ts.outward_restrict(f, dom, x)
    coords, steps = [0, 2, 1], [(0, -1), (1, 1), (0, 1)]
    first = cube.walk(coords), box.walk(steps)
    checks = []
    check_node = ts.RootedTree.check_node
    monkeypatch.setattr(ts.RootedTree, "check_node", lambda t, v: checks.append(v) or check_node(t, v))
    for _ in range(10):
        assert (cube.walk(coords), box.walk(steps)) == first
    assert checks == []


def _count_walkers(monkeypatch) -> list:
    """Record the start of every ``SumOfTerms._walker`` built from now on."""
    built = []
    walker = ts.SumOfTerms._walker
    monkeypatch.setattr(ts.SumOfTerms, "_walker", lambda f, x: built.append(x) or walker(f, x))
    return built


def _count_walked_restrictions(monkeypatch) -> list:
    """Record, for every restriction ``minimize`` builds, one entry per walk."""
    walks = []
    for name in ("inward_restrict", "outward_restrict"):
        restrict = getattr(descent, name)

        def counted(*args, _restrict=restrict):
            g = _restrict(*args)
            key = len(walks)
            walks.append(0)

            def walk(steps):
                walks[key] += 1
                return g.walk(steps)

            return dataclasses.replace(g, walk=walk)

        monkeypatch.setattr(descent, name, counted)
    return walks


def _seeded_sums(seed, count):
    rng = ts.SplitMix64(seed)
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.complete_binary_tree(7),
                            ts.chain_tree(3), ts.complete_binary_tree(3)])
    return rng, [ts.SumOfTerms(dom, random_terms(rng, dom, -5, 9, 5)) for _ in range(count)]


def test_brute_minimize_builds_no_walker(monkeypatch):
    built = _count_walkers(monkeypatch)
    rng, sums = _seeded_sums(41, 6)
    for f in sums:
        start = tuple(rng.below(t.node_count) for t in f.domain.trees)
        ts.minimize(f, None, start)
        ts.minimize(f, None, start, diagnostics=True)
    assert built == []


def test_min_norm_minimize_builds_one_walker_per_walked_restriction(monkeypatch):
    built = _count_walkers(monkeypatch)
    walks = _count_walked_restrictions(monkeypatch)
    rng, sums = _seeded_sums(42, 8)
    for f in sums:
        start = tuple(rng.below(t.node_count) for t in f.domain.trees)
        for engines in ({"inward_engine": "wolfe", "outward_engine": "minnorm"},
                        {"inward_engine": "wolfe"}, {"outward_engine": "minnorm"}):
            del built[:], walks[:]
            ts.minimize(f, None, start, **engines)
            walked = sum(1 for count in walks if count)
            assert 0 < len(built) <= walked
            assert sum(walks) > walked  # the walker of a restriction serves several walks


def test_min_norm_solves_on_one_walker_match_the_evaluate_path(monkeypatch):
    built = _count_walkers(monkeypatch)
    rounds = [0]
    min_norm_point = solvers._min_norm_point

    def counted(*args):
        rounds[0] += 1
        return min_norm_point(*args)

    monkeypatch.setattr(solvers, "_min_norm_point", counted)
    rng, sums = _seeded_sums(43, 6)
    box_rounds = []
    for f in sums:
        for _ in range(4):
            x = tuple(rng.below(t.node_count) for t in f.domain.trees)
            for restrict, solve in ((ts.inward_restrict, ts.sfm_wolfe),
                                    (ts.outward_restrict, ts.bisub_minnorm)):
                g = restrict(f, None, x)
                del built[:]
                rounds[0] = 0
                result = solve(g)
                if solve is ts.bisub_minnorm:
                    box_rounds.append(rounds[0])
                assert solve(g) == result
                assert len(built) <= 1
                assert solve(dataclasses.replace(g, walk=None)) == result
    # restricted boxes ran more than one penalty round on the same walker
    assert max(box_rounds) >= 2


# ---------------------------------------------------------------------------
# minimize


def test_constant_terminates_immediately():
    dom = ts.ProductDomain([ts.star3_tree(), ts.chain_tree(3)])
    f = ts.DenseTable(dom, [4] * dom.size())
    x, value, trace = ts.minimize(f, dom, (1, 2))
    assert x == (1, 2) and value == 4
    assert trace.s1_steps == 0 and trace.s2_steps == 0
    assert trace.certificate.holds()
    assert trace.values == [4]


def test_c5sq_fixture_matches_brute(c5sq):
    x, value, trace = ts.minimize(c5sq)
    bx, bvalue = brute_minimum(c5sq)
    assert value == bvalue == 2
    assert x == bx == (2, 2)
    assert trace.s1_steps == 0  # all-roots start makes stage one vacuous
    assert trace.s2_steps <= 4
    assert trace.certificate.holds()


def test_values_strictly_decrease(c5sq):
    _, _, trace = ts.minimize(c5sq)
    assert all(a > b for a, b in zip(trace.values, trace.values[1:]))


def test_nonroot_start_exercises_stage_one(c5sq):
    x, value, trace = ts.minimize(c5sq, x0=(4, 4))
    assert value == 2
    assert trace.s1_steps >= 1
    assert trace.s1_steps <= trace.K and trace.s2_steps <= trace.K


def test_fixture_harness_matches_brute():
    for seed in range(20):
        fx = _strong_fixture(seed)
        x, value, trace = ts.minimize(fx.function)
        _, bvalue = brute_minimum(fx.function)
        assert value == bvalue, seed
        assert trace.s1_steps <= trace.K and trace.s2_steps <= trace.K
        assert trace.certificate.holds()


def test_minnorm_engines_agree(c5sq):
    x1, v1, _ = ts.minimize(c5sq)
    x2, v2, _ = ts.minimize(c5sq, inward_engine="wolfe", outward_engine="minnorm")
    assert v1 == v2 == 2
    for seed in (3, 4):
        fx = _strong_fixture(seed)
        _, v1, _ = ts.minimize(fx.function)
        _, v2, _ = ts.minimize(fx.function, inward_engine="wolfe", outward_engine="minnorm")
        assert v1 == v2
    # bintree7^4 from all roots: the first inward cube is empty, and at the
    # all-leaves minimum every outward sign is fixed
    tree = ts.complete_binary_tree(3)
    dom = ts.ProductDomain([tree] * 4)
    unary = [tuple(2 * ts.rho(tree, v, t) + tree.depth[v] for v in range(7)) for t in (3, 4, 5, 6)]
    f = ts.SumOfTerms(dom, [ts.Term((i,), u) for i, u in enumerate(unary)])
    brute = ts.minimize(f)
    assert brute[:2] == ((3, 4, 5, 6), 8)
    assert ts.minimize(f, inward_engine="wolfe", outward_engine="minnorm") == brute


def test_unknown_engines(c5sq, monkeypatch):
    calls = []
    monkeypatch.setattr(c5sq, "evaluate", calls.append)
    # refused before the first oracle call, diagnostics or not
    for engines in ({"inward_engine": "magic"}, {"outward_engine": "magic"}):
        for diagnostics in (False, True):
            with pytest.raises(DomainError, match="unknown"):
                ts.minimize(c5sq, x0=(4, 4), diagnostics=diagnostics, **engines)
    assert calls == []


def test_min_norm_descent_from_deep_start():
    tree = ts.complete_binary_tree(3)
    dom = ts.ProductDomain([tree] * 3)
    unary = tuple(2 * ts.rho(tree, v, 3) + tree.depth[v] for v in range(7))
    f = ts.SumOfTerms(dom, [ts.Term((i,), unary) for i in range(3)])
    engines = {"inward_engine": "wolfe", "outward_engine": "minnorm"}
    assert ts.minimize(f, dom, (4, 5, 6), **engines)[:2] == ((3, 3, 3), 6)


def _false_certificate_instance():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(3)])
    return ts.DenseTable(dom, [4, 4, 0, 3, 3, 2, 2, 4, 4])


def test_false_inward_certificate_after_outward_moves():
    # not tree-submodular: the outward stage walks away from the global
    # minimum and ends where an inward move would improve again
    f = _false_certificate_instance()
    x, value, trace = ts.minimize(f)
    assert (x, value) == ((1, 2), 2)
    assert trace.s1_steps == 0 and trace.s2_steps == 2
    assert trace.certificate == ts.Certificate(inward_opt=False, outward_opt=True)
    assert not trace.certificate.holds()
    assert ts.minimize_exhaustive(f) == ((0, 2), 0)


def test_one_solve_per_stage_end_and_one_inward_resolve_after_outward_moves(c5sq, monkeypatch):
    from treesub import descent

    solves = {"inward": 0, "outward": 0}

    def counted(kind, solver):
        def wrapper(*args, **kwargs):
            solves[kind] += 1
            return solver(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(descent, "sfm_brute", counted("inward", descent.sfm_brute))
    monkeypatch.setattr(descent, "bisub_brute", counted("outward", descent.bisub_brute))
    constant = ts.DenseTable(c5sq.domain, [4] * c5sq.domain.size())
    runs = [(c5sq, None), (c5sq, (4, 4)), (c5sq, (2, 2)), (constant, (3, 1)),
            (_false_certificate_instance(), None)]
    runs += [(_strong_fixture(seed).function, None) for seed in range(5)]
    seen = set()
    for f, x0 in runs:
        solves.update(inward=0, outward=0)
        _, _, trace = ts.minimize(f, x0=x0)
        s1, s2 = trace.s1_steps, trace.s2_steps
        assert solves["outward"] == s2 + 1
        assert solves["inward"] == s1 + 1 + (s2 > 0)
        seen.add((s1 > 0, s2 > 0))
    assert {(False, False), (False, True), (True, False)} <= seen


# ---------------------------------------------------------------------------
# brute descent on host-table grids, against the evaluate path and the full scan

_PARITY_TREES = (ts.complete_binary_tree(3), ts.chain_tree(1), ts.chain_tree(2), ts.chain_tree(4),
                 ts.star3_tree())


def _parity_domain(rng: ts.SplitMix64) -> ts.ProductDomain:
    """A product of 1-4 binary trees from the pool with at most 400 labelings."""
    while True:
        dom = ts.ProductDomain([_PARITY_TREES[rng.below(len(_PARITY_TREES))]
                                for _ in range(1 + rng.below(4))])
        if dom.size() <= 400:
            return dom


def _strong_terms(rng: ts.SplitMix64, dom: ts.ProductDomain, scale: int = 1) -> list:
    """Terms over 1-3 variables in a random order, the first scope twice
    and a nested one inside it, each table strongly verified on its
    scope's product and scaled by ``scale``; their sum is strong."""
    scopes = [tuple(random_terms(rng, dom, 0, 0, 1)[-1].scope) for _ in range(3)]
    scopes += [scopes[0], scopes[0][::-1][:1]]
    terms = []
    for scope in scopes:
        sub = ts.ProductDomain([dom.trees[i] for i in scope])
        values = ts.generate("random-verified-strong", sub, seed=rng.below(1000), max_value=5).function.values
        terms.append(ts.Term(scope, tuple(scale * v for v in values)))
    return terms


def _parity_runs(rng: ts.SplitMix64):
    """(f, start, strong) runs: random sums of arity-1 to 3 terms over
    permuted scopes, strong sums with a repeated and a nested scope, the
    same scaled past 2^62, sums of 0/1 values full of ties, and sums of
    no terms; each from a random start and from the roots."""
    for k in range(36):
        dom = _parity_domain(rng)
        kind = k % 4
        if kind == 0:
            f, strong = ts.SumOfTerms(dom, random_terms(rng, dom, -5, 9, 4)), False
        elif kind == 1:
            f, strong = ts.SumOfTerms(dom, _strong_terms(rng, dom)), True
        elif kind == 2:
            f, strong = ts.SumOfTerms(dom, _strong_terms(rng, dom, scale=(1 << 63) + 1)), True
            assert all(table.dtype == object for _, table, _ in f._reads())
        else:
            f, strong = ts.SumOfTerms(dom, random_terms(rng, dom, 0, 1, 3)), False
        for start in (tuple(rng.below(t.node_count) for t in dom.trees), None):
            yield f, start, strong
    for arity in (1, 3):
        dom = ts.ProductDomain([_PARITY_TREES[rng.below(len(_PARITY_TREES))] for _ in range(arity)])
        yield ts.SumOfTerms(dom, []), None, True


def _grid_free_restrictions(monkeypatch) -> None:
    """``minimize``'s restrictions without a grid: both brute engines then
    read one restricted ``evaluate`` per cell, in rank order."""
    for name in ("inward_restrict", "outward_restrict"):
        restrict = getattr(descent, name)
        monkeypatch.setattr(descent, name, lambda *args, _restrict=restrict: dataclasses.replace(
            _restrict(*args), grid=None))


def test_brute_descent_matches_the_evaluate_path_and_the_full_scan(monkeypatch):
    """Every brute run on host-table grids returns the minimizer,
    value and trace (every field, diagnostics included) of the same run
    on one ``evaluate`` per cell; its value is f at its minimizer, at or
    above the full scan's minimum, and equal to it on strong sums."""
    ties = {"cube": 0, "box": 0}

    def tie_counted(kind, solver):
        def solve(g):
            if g.grid is not None:
                values = g.grid()
                ties[kind] += int((values == values.min()).sum()) > 1
            return solver(g)
        return solve

    monkeypatch.setattr(descent, "sfm_brute", tie_counted("cube", descent.sfm_brute))
    monkeypatch.setattr(descent, "bisub_brute", tie_counted("box", descent.bisub_brute))
    rng = ts.SplitMix64(2026)
    shapes = set()
    for f, start, strong in _parity_runs(rng):
        shapes.update(table.shape for _, table, _ in f._reads())
        x, value, trace = ts.minimize(f, None, start, diagnostics=True)
        with monkeypatch.context() as m:
            _grid_free_restrictions(m)
            want = ts.minimize(f, None, start, diagnostics=True)
        assert (x, value) == want[:2]
        for field in dataclasses.fields(ts.DescentTrace):
            assert getattr(trace, field.name) == getattr(want[2], field.name), field.name
        best = ts.minimize_exhaustive(f)[1]
        assert f.evaluate(x) == value >= best
        if strong:
            assert value == best and trace.certificate.holds()
    assert ties["cube"] > 10 and ties["box"] > 10, ties
    assert len({len(s) for s in shapes}) == 3 and len(shapes) > 10, shapes


def _arity8_descent_sum():
    """An arity-8 sum over bintree7 as the benchmark's descent family
    builds it (unary s * rho(v, t) + depth(v) and path couplings
    w * rho(x_i, x_i+1)), and a non-root start from which both stages
    move."""
    tree = ts.complete_binary_tree(3)
    rng = ts.SplitMix64(11)
    terms = []
    for i in range(8):
        s, t = 1 + rng.below(2), 3 + rng.below(4)
        terms.append(ts.Term((i,), tuple(s * rho(tree, v, t) + tree.depth[v] for v in range(7))))
    for i in range(7):
        w = 1 + rng.below(2)
        terms.append(ts.Term((i, i + 1), tuple(w * rho(tree, a, b) for a in range(7) for b in range(7))))
    return ts.SumOfTerms(ts.ProductDomain([tree] * 8), terms), (4, 2, 4, 3, 3, 5, 1, 3)


def test_brute_minimize_checks_each_label_once_per_solve(monkeypatch):
    """On the arity-8 descent sum, a brute minimize from a non-root start
    calls ``check_node`` once per coordinate for the start and for each
    restriction's center: at most arity x (solves + 1) calls.  The labels
    each grid reads are parents and children of a checked center and are
    not checked again."""
    f, start = _arity8_descent_sum()
    expected = ts.minimize(f, None, start)
    counts = {"check_node": 0, "solves": 0}
    check_node = ts.RootedTree.check_node

    def counted_check(tree, v):
        counts["check_node"] += 1
        return check_node(tree, v)

    def counted_solve(solver):
        def solve(g):
            counts["solves"] += 1
            return solver(g)
        return solve

    monkeypatch.setattr(ts.RootedTree, "check_node", counted_check)
    monkeypatch.setattr(descent, "sfm_brute", counted_solve(descent.sfm_brute))
    monkeypatch.setattr(descent, "bisub_brute", counted_solve(descent.bisub_brute))
    x, value, trace = ts.minimize(f, None, start)
    assert (x, value, trace) == expected
    assert trace.s1_steps > 0 and trace.s2_steps > 0
    assert counts["solves"] == trace.s1_steps + trace.s2_steps + 3
    assert counts["check_node"] <= 8 * (counts["solves"] + 1)


def test_brute_minimize_builds_each_axis_index_once(monkeypatch):
    """On the arity-8 descent sum, the first brute minimize builds at
    most one index array per distinct (labels, position) its grids read,
    and a second minimize builds none: every neighborhood axis of two or
    three labels is kept, and one of a single label is read as an int."""
    f, start = _arity8_descent_sum()
    built = []
    index_array = functions._index_array
    functions._kept_index.cache_clear()
    monkeypatch.setattr(functions, "_index_array",
                        lambda labels, trailing: built.append((labels, trailing))
                        or index_array(labels, trailing))
    first = ts.minimize(f, None, start)
    assert first[2].s1_steps > 0 and first[2].s2_steps > 0
    assert built and len(built) == len(set(built))
    assert all(2 <= len(labels) <= 3 for labels, _ in built)
    del built[:]
    assert ts.minimize(f, None, start) == first
    assert built == []


def test_minimize_rejects_ternary_tree():
    ternary = ts.RootedTree([-1, 0, 0, 0])
    dom = ts.ProductDomain([ternary])
    f = ts.DenseTable(dom, [3, 2, 1, 0])
    with pytest.raises(UnsupportedStructureError):
        ts.minimize(f, dom)
    # the exhaustive scan covers non-binary shapes
    assert ts.minimize_exhaustive(f, dom) == ((3,), 0)


class _NoOracle(ts.CostFunction):
    """A cost whose every oracle call fails the test."""

    def __init__(self, domain):
        self.domain = domain
        self.denominator = 1

    def evaluate(self, x):
        raise AssertionError(f"oracle called at {x}")

    grid = values_at = _walker = evaluate


def test_minimize_refuses_a_wider_tree_before_any_oracle_call():
    # the start's nodes all have a sign box, but the domain holds a node with three children
    dom = ts.ProductDomain([ts.RootedTree([-1, 0, 0, 0]), ts.chain_tree(3)])
    with pytest.raises(UnsupportedStructureError, match="tree 0 is not binary: node 0 has 3 children"):
        ts.minimize(_NoOracle(dom), dom, (1, 0))


def test_a_node_past_two_children_is_refused_where_it_is_moved_and_before_minimize_reads_f():
    """The tree tables leave each refusal where it was: ``outward_restrict``
    refuses a center at a node with three children, and only there, and
    ``minimize`` refuses the domain before its first oracle call, with
    the first such tree and node in the message, each time it is asked."""
    wide = ts.RootedTree([-1, 0, 1, 1, 1, 0, 5, 5, 5, 5])  # nodes 1 and 5 have 3 and 4 children
    dom = ts.ProductDomain([ts.chain_tree(2), wide])
    f = ts.DenseTable(dom, range(20))
    for v in (0, 2, 9):
        box = ts.outward_restrict(f, dom, (0, v))
        assert box.allowed == ((-1, 0), wide._neighborhoods().outward[v][0])
    assert ts.inward_restrict(f, dom, (1, 2)).free == (0, 1)
    for _ in range(2):
        for x, message in (((1, 1), "node 1 has 3 children"), ((0, 5), "node 5 has 4 children")):
            with pytest.raises(UnsupportedStructureError) as err:
                ts.outward_restrict(f, dom, x)
            assert str(err.value) == f"tree 1 is not binary: {message}"
        with pytest.raises(UnsupportedStructureError) as err:
            ts.minimize(_NoOracle(dom), dom, (0, 2))
        assert str(err.value) == "tree 1 is not binary: node 1 has 3 children"


def test_minimize_exhaustive_tie_breaks_by_rank():
    dom = ts.ProductDomain([ts.chain_tree(3)])
    f = ts.DenseTable(dom, [5, 0, 0])
    assert ts.minimize_exhaustive(f, dom) == ((1,), 0)


def test_minimize_exhaustive_budget():
    dom = ts.ProductDomain([ts.chain_tree(2)] * 25)
    f = ts.SumOfTerms(dom, [])
    with pytest.raises(BudgetExceededError):
        ts.minimize_exhaustive(f, dom)


class _ShiftingCost(ts.CostFunction):
    """Impure oracle whose values sink each time a point is re-read.

    Simulates a broken inner solver / non-submodular input: every
    neighborhood re-solve finds a fresh "improvement", so the stage cap
    must fire.
    """

    def __init__(self, domain):
        self.domain = domain
        self.denominator = 1
        self.visits: dict[tuple, int] = {}

    def evaluate(self, x):
        x = self.domain.validate(x)
        n = self.visits[x] = self.visits.get(x, 0) + 1
        return -100 * n


def test_iteration_cap_raises():
    dom = ts.ProductDomain([ts.chain_tree(2)])
    f = _ShiftingCost(dom)
    with pytest.raises(IterationBoundError):
        ts.minimize(f, dom)


# ---------------------------------------------------------------------------
# Sums past 2^62 labelings, against the forest DP


def _random_forest_sum(rng: ts.SplitMix64, arity: int, edges) -> ts.SumOfTerms:
    """Random unary terms on every variable and random pairwise terms on
    ``edges``, scopes taken in either order, over drawn small trees."""
    trees = [ts.chain_tree(3), ts.star3_tree(), ts.complete_binary_tree(2), ts.fork_tree(1)]
    dom = ts.ProductDomain([trees[rng.below(len(trees))] for _ in range(arity)])
    cards = dom.cardinalities()
    terms = [ts.Term((i,), tuple(rng.below(15) - 5 for _ in range(c))) for i, c in enumerate(cards)]
    for i, j in edges:
        scope = (i, j) if rng.below(2) else (j, i)
        terms.append(ts.Term(scope, tuple(rng.below(15) - 5 for _ in range(cards[i] * cards[j]))))
    return ts.SumOfTerms(dom, terms)


@pytest.mark.parametrize("edges", [
    [], [(0, 1)], [(0, 1), (1, 2), (2, 3)], [(0, 1), (0, 2), (0, 3)],
    [(2, 0), (1, 3)], [(0, 2), (2, 1), (0, 2)],
], ids=["unary", "edge", "path", "star", "two-components", "repeated-pair"])
def test_forest_minimum_matches_the_full_scan(edges):
    rng = ts.SplitMix64(61)
    arity = 1 + max((max(e) for e in edges), default=0)
    for _ in range(8):
        f = _random_forest_sum(rng, arity, edges)
        assert forest_minimum(f.domain, f.terms) == ts.minimize_exhaustive(f)[1]


def test_forest_minimum_refuses_a_cycle():
    f = _random_forest_sum(ts.SplitMix64(5), 3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="cycle"):
        forest_minimum(f.domain, f.terms)


def _tree_distance(tree: ts.RootedTree, a: int, b: int) -> int:
    return len(bfs_path(tree, a, b)) - 1


def _bintree7_path_sum(arity: int, seed: int) -> ts.SumOfTerms:
    """s * rho(v, t) + depth(v) on each bintree7 variable and
    w * rho(x_i, x_{i+1}) on each neighbour pair, every term checked
    strong on its own scope."""
    rng = ts.SplitMix64(seed)
    tree = ts.complete_binary_tree(3)
    nodes = range(tree.node_count)
    terms = []
    for i in range(arity):
        s, t = 1 + rng.below(3), rng.below(tree.node_count)
        terms.append(ts.Term((i,), tuple(s * _tree_distance(tree, v, t) + len(root_walk(tree, v)) - 1
                                         for v in nodes)))
    for i in range(arity - 1):
        w = 1 + rng.below(2)
        terms.append(ts.Term((i, i + 1), tuple(w * _tree_distance(tree, a, b) for a in nodes for b in nodes)))
    for k, values in {(len(t.scope), t.values) for t in terms}:
        assert ts.check_strong(ts.DenseTable(ts.ProductDomain([tree] * k), values)).ok
    return ts.SumOfTerms(ts.ProductDomain([tree] * arity), terms)


@pytest.mark.parametrize("arity", [23, 40, 64])
def test_min_norm_descent_past_2_62_labelings_matches_the_forest_dp(arity):
    f = _bintree7_path_sum(arity, seed=arity)
    assert f.domain.size() == 7**arity > 2**62
    want = forest_minimum(f.domain, f.terms)
    rng = ts.SplitMix64(arity)
    for start in (None, tuple(rng.below(7) for _ in range(arity))):
        x, value, trace = ts.minimize(f, None, start, inward_engine="wolfe", outward_engine="minnorm")
        assert value == want == f.evaluate(x)
        assert trace.certificate.holds()


@pytest.mark.parametrize("arity", [23, 40, 64])
def test_sums_past_2_62_labelings_are_refused_by_budgets(arity, monkeypatch):
    """The brute descent and the exhaustive check refuse by their budgets,
    naming the size; sampled mode refuses by its 2**62 guard, which no
    budget raises."""
    f = _bintree7_path_sum(arity, seed=arity)
    size = 7**arity
    with pytest.raises(BudgetExceededError, match=f"^box size {3**arity} exceeds budget"):
        ts.minimize(f)
    with pytest.raises(BudgetExceededError, match=f"^domain size {size}: {size * size} pairs exceed"):
        ts.check_strong(f)
    monkeypatch.setenv("TREESUB_BUDGET", str(10**40))
    for check in (ts.check_strong, ts.check_weak, ts.check_translation):
        with pytest.raises(BudgetExceededError) as err:
            check(f, mode="sampled")
        assert str(err.value) == f"domain size {size} exceeds the 2**62 guard of sampled mode"


def test_sampled_checks_draw_from_exactly_2_62_labelings():
    """2**62 labelings are drawn from; one more chain label past them is refused."""
    unary = ts.Term((0,), (0, 1))
    f = ts.SumOfTerms(ts.ProductDomain([ts.chain_tree(2)] * 62), [unary])
    assert ts.check_strong(f, mode="sampled", samples=50).ok
    g = ts.SumOfTerms(ts.ProductDomain([ts.chain_tree(2)] * 61 + [ts.chain_tree(3)]), [unary])
    with pytest.raises(BudgetExceededError, match="the 2\\*\\*62 guard"):
        ts.check_strong(g, mode="sampled", samples=50)


# ---------------------------------------------------------------------------
# rho diagnostics


def test_rho_at_all_roots_is_zero(c5sq):
    dom = c5sq.domain
    assert ts.rho_minus(c5sq, dom, dom.all_roots()) == 0


def test_rho_examples_on_chain():
    dom = ts.ProductDomain([ts.chain_tree(5)])
    f = ts.DenseTable(dom, [v * v for v in range(5)])  # min at the root
    assert ts.rho_minus(f, dom, (4,)) == 4
    assert ts.rho_plus(f, dom, (4,)) == 0
    assert ts.rho_plus(f, dom, (0,)) == 0  # x itself is optimal below
    g = ts.DenseTable(dom, [(v - 4) ** 2 for v in range(5)])  # min at the leaf
    assert ts.rho_plus(g, dom, (0,)) == 4
    assert ts.rho_minus(g, dom, (4,)) == 0


def test_rho_minus_zero_iff_inward_optimal():
    fx = _strong_fixture(5)
    f, dom = fx.function, fx.domain
    for k in range(dom.size()):
        x = dom.unrank(k)
        _, inward_best = ts.sfm_brute(ts.inward_restrict(f, dom, x))
        assert (ts.rho_minus(f, dom, x) == 0) == (inward_best == f.evaluate(x))


def test_rho_budget():
    dom = ts.ProductDomain([ts.chain_tree(40)] * 4)
    f = ts.SumOfTerms(dom, [])
    with pytest.raises(BudgetExceededError):
        ts.rho_minus(f, dom, (39, 39, 39, 39))


def test_chain_s1_step_decrements_rho_minus():
    dom = ts.ProductDomain([ts.chain_tree(5)])
    f = ts.DenseTable(dom, [v * v for v in range(5)])
    x = (4,)
    while True:
        before = ts.rho_minus(f, dom, x)
        subset, val = ts.sfm_brute(ts.inward_restrict(f, dom, x))
        if val >= f.evaluate(x):
            break
        x = apply_inward(dom, x, subset)
        assert ts.rho_minus(f, dom, x) == before - 1
    assert ts.rho_minus(f, dom, x) == 0


def test_diagnostics_trace_on_chain():
    fx = ts.generate("fixture-catalog", name="chain5-quadratic")
    x, value, trace = ts.minimize(fx.function, x0=fx.start, diagnostics=True)
    assert value == 0 and x == (0,)
    diag = trace.diagnostics
    assert diag is not None and diag[0].stage == "start"
    minus = [d.rho_minus for d in diag]
    plus = [d.rho_plus for d in diag]
    assert minus == [4, 3, 2, 1, 0]
    assert all(a >= b for a, b in zip(minus, minus[1:]))
    assert all(a >= b for a, b in zip(plus, plus[1:]))


def test_diagnostics_s2_preserves_inward_optimality():
    for seed in (0, 3, 7):
        fx = _strong_fixture(seed)
        _, _, trace = ts.minimize(fx.function, diagnostics=True)
        for record in trace.diagnostics:
            if record.stage == "s2":
                assert record.inward_still_optimal is True
                assert record.rho_minus == 0


def test_diagnostics_off_by_default(c5sq):
    _, _, trace = ts.minimize(c5sq)
    assert trace.diagnostics is None
