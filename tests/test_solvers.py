"""Inner engines: brute enumeration and min-norm-point solvers."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

import treesub as ts
from treesub import solvers
from treesub.errors import BudgetExceededError, DomainError, SolverFailureError
from treesub.solvers import BinaryCubeFunction, SignBoxFunction

from conftest import (
    drift_the_solve,
    naive_box_violation,
    random_bisubmodular_box,
    random_cut_plus_modular,
    random_sign_box,
    random_terms,
    reference_min_norm_point,
    term_sum_minimum,
)


def cube(weights=None, fn=None, m=None):
    if fn is None:
        w = dict(enumerate(weights))
        fn = lambda A: sum(w[i] for i in A)
        m = len(weights)
    return BinaryCubeFunction(m=m, free=tuple(range(m)), evaluate=fn)


# ---------------------------------------------------------------------------
# sfm_brute


def test_brute_hump():
    g = cube(fn=lambda A: len(A) * (3 - len(A)), m=3)
    assert ts.sfm_brute(g) == (frozenset(), 0)


def test_brute_cardinality():
    g = cube(fn=len, m=3)
    assert ts.sfm_brute(g) == (frozenset(), 0)


def test_brute_triangle_cut_tie_break():
    edges = [(0, 1), (1, 2), (0, 2)]
    g = cube(fn=lambda A: sum(1 for u, v in edges if (u in A) != (v in A)), m=3)
    # empty set and the full set are tied at 0; lowest subset rank wins
    assert ts.sfm_brute(g) == (frozenset(), 0)


def test_brute_modular():
    g = cube(weights=(-1, 2, -3))
    assert ts.sfm_brute(g) == (frozenset({0, 2}), -4)


def test_brute_respects_free_set():
    g = BinaryCubeFunction(m=4, free=(1, 3), evaluate=lambda A: -len(A))
    subset, value = ts.sfm_brute(g)
    assert subset == frozenset({1, 3}) and value == -2


def test_brute_size_guard():
    g = BinaryCubeFunction(m=25, free=tuple(range(25)), evaluate=len)
    with pytest.raises(BudgetExceededError):
        ts.sfm_brute(g)


def test_cube_validates_free():
    with pytest.raises(DomainError):
        BinaryCubeFunction(m=2, free=(0, 0), evaluate=len)
    with pytest.raises(DomainError):
        BinaryCubeFunction(m=2, free=(5,), evaluate=len)


# ---------------------------------------------------------------------------
# sfm_wolfe


def test_wolfe_modular():
    g = cube(weights=(-1, 2, -3))
    assert ts.sfm_wolfe(g) == (frozenset({0, 2}), -4)


def test_wolfe_cardinality():
    g = cube(fn=len, m=3)
    assert ts.sfm_wolfe(g) == (frozenset(), 0)


def test_wolfe_empty_free():
    g = BinaryCubeFunction(m=3, free=(), evaluate=lambda A: 9)
    assert ts.sfm_wolfe(g) == (frozenset(), 9)


def test_wolfe_matches_brute_on_random_submodular():
    rng = ts.SplitMix64(2024)
    for trial in range(50):
        m = 2 + rng.below(7)  # up to 8
        g = random_cut_plus_modular(rng, m)
        _, expected = ts.sfm_brute(g)
        subset, value = ts.sfm_wolfe(g)
        assert value == expected, (trial, m)
        assert subset <= frozenset(range(m))


def test_wolfe_deterministic():
    rng = ts.SplitMix64(77)
    g = random_cut_plus_modular(rng, 6)
    assert ts.sfm_wolfe(g) == ts.sfm_wolfe(g)


def test_wolfe_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(solvers, "_MAX_MAJOR_CYCLES", 0)
    g = cube(weights=(-1, 2, -3))
    with pytest.raises(SolverFailureError, match="0 major cycles"):
        ts.sfm_wolfe(g)


# ---------------------------------------------------------------------------
# bisub_brute


def test_bisub_zero_function_first_enumerated():
    h = SignBoxFunction(m=2, allowed=((-1, 0, 1), (-1, 0, 1)), evaluate=lambda s: 0)
    assert ts.bisub_brute(h) == ((-1, -1), 0)
    h2 = SignBoxFunction(m=2, allowed=((0, 1), (0,)), evaluate=lambda s: 0)
    assert ts.bisub_brute(h2) == ((0, 0), 0)


def test_bisub_sum():
    h = SignBoxFunction(m=2, allowed=((-1, 0, 1), (-1, 0, 1)), evaluate=lambda s: sum(s))
    assert ts.bisub_brute(h) == ((-1, -1), -2)
    # the box of no coordinates holds one cell, the empty sign vector
    empty = SignBoxFunction(m=0, allowed=(), evaluate=lambda s: sum(s) + 5)
    assert ts.bisub_brute(empty) == ((), 5)


def test_bisub_box_guard():
    h = SignBoxFunction(m=14, allowed=((-1, 0, 1),) * 14, evaluate=lambda s: 0)
    with pytest.raises(BudgetExceededError):
        ts.bisub_brute(h)


def test_sign_box_validates_allowed():
    with pytest.raises(DomainError):
        SignBoxFunction(m=1, allowed=((1, 0),), evaluate=lambda s: 0)
    with pytest.raises(DomainError):
        SignBoxFunction(m=1, allowed=((-1, 1),), evaluate=lambda s: 0)
    with pytest.raises(DomainError):
        SignBoxFunction(m=2, allowed=((0,),), evaluate=lambda s: 0)


# ---------------------------------------------------------------------------
# bisub_minnorm


def test_minnorm_zero_function():
    h = SignBoxFunction(m=2, allowed=((-1, 0, 1), (0, 1)), evaluate=lambda s: 0)
    # every vector ties, so only the values must agree
    assert ts.bisub_minnorm(h)[1] == ts.bisub_brute(h)[1] == 0


def test_minnorm_modular_clipped():
    # minimizer is -sign(w) where allowed, else 0
    w = (2, -3, 4)
    allowed = ((-1, 0, 1), (-1, 0), (0, 1))
    h = SignBoxFunction(m=3, allowed=allowed, evaluate=lambda s: sum(wi * si for wi, si in zip(w, s)))
    assert ts.bisub_minnorm(h) == ts.bisub_brute(h) == ((-1, 0, 0), -2)


def test_minnorm_all_fixed():
    h = SignBoxFunction(m=2, allowed=((0,), (0,)), evaluate=lambda s: 4)
    assert ts.bisub_minnorm(h) == ((0, 0), 4)


def test_minnorm_matches_brute_on_random_bisubmodular():
    rng = ts.SplitMix64(515)
    for trial in range(12):
        m = 2 + rng.below(4)  # up to 5 here; the acceptance suite pushes to 6
        h = random_sign_box(rng, m)
        assert naive_box_violation(h) is None
        _, expected = ts.bisub_brute(h)
        vec, value = ts.bisub_minnorm(h)
        assert value == expected, (trial, m)
        assert all(s in h.allowed[i] for i, s in enumerate(vec))


def test_minnorm_deterministic():
    rng = ts.SplitMix64(99)
    h = random_sign_box(rng, 3)
    assert ts.bisub_minnorm(h) == ts.bisub_minnorm(h)


def test_inconsistent_corral_is_a_solver_failure(monkeypatch):
    # a raise, not an assert, so the check also runs under python -O
    rng = ts.SplitMix64(5)
    g, h = random_cut_plus_modular(rng, 4), random_sign_box(rng, 3, full_box=True)
    drift_the_solve(monkeypatch)
    with pytest.raises(SolverFailureError, match="drifted"):
        ts.sfm_wolfe(g)
    with pytest.raises(SolverFailureError, match="drifted"):
        ts.bisub_minnorm(h)


def test_the_lstsq_fallback_gives_the_solve_results(monkeypatch):
    rng = ts.SplitMix64(31)
    cubes = [random_cut_plus_modular(rng, m) for m in range(1, 9)]
    boxes = [random_bisubmodular_box(rng, m, full_box) for m in range(1, 7) for full_box in (True, False)]
    expected = [ts.sfm_wolfe(g) for g in cubes], [ts.bisub_minnorm(h) for h in boxes]
    calls = []

    def singular(a, b):
        calls.append(len(b))
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    assert ([ts.sfm_wolfe(g) for g in cubes], [ts.bisub_minnorm(h) for h in boxes]) == expected
    assert calls  # every corral system went through lstsq


# ---------------------------------------------------------------------------
# Wolfe's nearest-point loop


def _vertex_minimizer(vertices):
    """Linear minimizer over the hull of ``vertices``: the first vertex minimizing <x, v>."""
    V = np.array(vertices, dtype=float)
    return lambda x: V[int(np.argmin(V @ x))].copy()


def _recording(linear_minimizer):
    """The minimizer, and the list of the points it is called at, one per major cycle."""
    points = []

    def recorded(x):
        points.append(x.copy())
        return linear_minimizer(x)

    return recorded, points


def test_min_norm_point_of_the_unit_simplex_is_its_centroid():
    # the centroid needs every vertex, so n above the initial capacity grows the buffers twice
    for n in (1, 2, 5, solvers._CORRAL_ROWS, 2 * solvers._CORRAL_ROWS + 1):
        minimizer, points = _recording(_vertex_minimizer(np.eye(n)))
        point = solvers._min_norm_point(n, minimizer)
        assert np.allclose(point, 1.0 / n, rtol=0.0, atol=1e-12)
        # call j is at the centroid of the first j unit vectors: the corral grows by one each cycle
        assert len(points) == n + 1
        for j, x in enumerate(points):
            centroid = np.zeros(n)
            centroid[:j] = 1.0 / max(j, 1)
            assert np.allclose(x, centroid, rtol=0.0, atol=1e-12), (n, j)


def test_min_norm_point_interior_to_a_segment():
    point = solvers._min_norm_point(2, _vertex_minimizer([(-1, 2), (3, 2)]))
    assert np.allclose(point, (0.0, 2.0), rtol=0.0, atol=1e-12)


def test_min_norm_point_drops_the_first_vertex_from_the_corral():
    # Wolfe's triangle: the corral {p1, p2, p3} has the origin in its affine
    # hull with a negative weight on p1, which a minor cycle removes; the
    # last call is at the nearest point of the segment [p2, p3]
    minimizer, points = _recording(_vertex_minimizer([(0, 2), (3, 0), (-2, 1)]))
    point = solvers._min_norm_point(2, minimizer)
    assert np.allclose(point, (3 / 26, 15 / 26), rtol=0.0, atol=1e-12)
    expected = [(0, 0), (0, 2), (12 / 13, 18 / 13), (3 / 26, 15 / 26)]
    assert len(points) == len(expected)
    for x, y in zip(points, expected):
        assert np.allclose(x, y, rtol=0.0, atol=1e-12)


def test_min_norm_point_matches_the_textbook_loop(monkeypatch):
    min_norm_point = solvers._min_norm_point
    totals = {"solves": 0, "dropped": 0, "grown": 0}

    def twin(dim, linear_minimizer):
        textbook, textbook_points = _recording(linear_minimizer)
        kept, kept_points = _recording(linear_minimizer)
        expected, dropped, largest = reference_min_norm_point(dim, textbook)
        point = min_norm_point(dim, kept)
        assert np.array_equal(point, expected), dim
        assert len(kept_points) == len(textbook_points), dim
        assert all(np.array_equal(x, y) for x, y in zip(kept_points, textbook_points)), dim
        totals["solves"] += 1
        totals["dropped"] += dropped
        totals["grown"] += largest > solvers._CORRAL_ROWS
        return point

    monkeypatch.setattr(solvers, "_min_norm_point", twin)
    rng = ts.SplitMix64(1618)
    rounds = []
    for m in range(1, 17):
        for _ in range(2):
            g = random_cut_plus_modular(rng, m)
            value = ts.sfm_wolfe(g)[1]
            if m <= 8:
                assert value == ts.sfm_brute(g)[1]
        for full_box in (True, False):
            h = random_bisubmodular_box(rng, m, full_box)
            before = totals["solves"]
            value = ts.bisub_minnorm(h)[1]
            rounds.append(totals["solves"] - before)
            if m <= 6:
                assert value == ts.bisub_brute(h)[1]
    assert totals["dropped"] > 0 and totals["grown"] > 0
    assert max(rounds) >= 2  # restricted boxes ran penalty rounds through the loop


def test_random_bisubmodular_boxes_are_bisubmodular():
    rng = ts.SplitMix64(2718)
    for m in range(1, 6):
        for full_box in (True, False):
            assert naive_box_violation(random_bisubmodular_box(rng, m, full_box)) is None


# ---------------------------------------------------------------------------
# Brute engines on descent restrictions (whole-neighborhood grids)


def _inward_cells(dom, x, free):
    for mask in range(1 << len(free)):
        y = list(x)
        for j, i in enumerate(free):
            if mask >> j & 1:
                y[i] = dom.trees[i].parent[x[i]]
        yield tuple(y)


def _outward_cells(dom, x, allowed):
    for signs in itertools.product(*allowed):
        y = list(x)
        for i, s in enumerate(signs):
            if s:
                y[i] = dom.trees[i].children[x[i]][0 if s == -1 else 1]
        yield tuple(y)


def _assert_brute_matches_term_oracle(f, x):
    dom = f.domain
    cube = ts.inward_restrict(f, dom, x)
    k, expected = term_sum_minimum(dom, f.terms, _inward_cells(dom, x, cube.free))
    subset, value = ts.sfm_brute(cube)
    assert subset == frozenset(i for j, i in enumerate(cube.free) if k >> j & 1)
    assert value == expected and type(value) is int
    box = ts.outward_restrict(f, dom, x)
    k, expected = term_sum_minimum(dom, f.terms, _outward_cells(dom, x, box.allowed))
    vec, value = ts.bisub_brute(box)
    assert vec == list(itertools.product(*box.allowed))[k]
    assert all(type(s) is int for s in vec)
    assert value == expected and type(value) is int


def test_brute_restrictions_match_term_oracle_on_tie_heavy_sums():
    rng = ts.SplitMix64(4141)
    shapes = (ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree())
    for trial in range(40):
        dom = ts.ProductDomain([shapes[rng.below(3)] for _ in range(2 + rng.below(4))])
        # values 0..2 tie everywhere; random tables are mostly not submodular
        f = ts.SumOfTerms(dom, random_terms(rng, dom, 0, 2, 1 + rng.below(6)))
        for _ in range(3):
            _assert_brute_matches_term_oracle(f, tuple(rng.below(t.node_count) for t in dom.trees))


def test_brute_restrictions_on_mixed_domain():
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree(),
                            ts.chain_tree(4), ts.complete_binary_tree(3)])
    rng = ts.SplitMix64(77)
    f = ts.SumOfTerms(dom, random_terms(rng, dom, -5, 5, 8))
    assert any(len(t.scope) == 3 and list(t.scope) != sorted(t.scope) for t in f.terms)
    for x in ((1, 2, 0, 3, 6), (0, 0, 0, 0, 0), (2, 3, 1, 1, 1), (6, 1, 2, 0, 2)):
        _assert_brute_matches_term_oracle(f, x)


def test_brute_restrictions_exact_beyond_int64():
    rng = ts.SplitMix64(9)
    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.star3_tree()])
    big = (1 << 61) - 2
    f = ts.SumOfTerms(dom, random_terms(rng, dom, big, big + 3, 3))
    # the largest cell sums far past int64, so the exact loop must answer
    assert sum(max(t.values) for t in f.terms) >= 1 << 63
    for x in ((1, 2, 0), (4, 3, 1), (0, 1, 2)):
        _assert_brute_matches_term_oracle(f, x)


def _wrap_counting(evaluate, calls):
    def wrapper(arg):
        calls.append(arg)
        return evaluate(arg)
    return wrapper


def test_restriction_grid_survives_evaluate_wrapper():
    dom = ts.ProductDomain([ts.complete_binary_tree(3)] * 3)
    rng = ts.SplitMix64(5)
    f = ts.SumOfTerms(dom, random_terms(rng, dom, 0, 9, 3))
    calls = []
    x = (3, 1, 5)
    for restrict, solve in ((ts.inward_restrict, ts.sfm_brute), (ts.outward_restrict, ts.bisub_brute)):
        g = restrict(f, dom, x)
        wrapped = dataclasses.replace(g, evaluate=_wrap_counting(g.evaluate, calls))
        assert wrapped.grid is g.grid and wrapped.walk is g.walk
        assert solve(wrapped) == solve(dataclasses.replace(g, grid=None))
    assert calls == []


def test_restriction_walk_survives_evaluate_wrapper(monkeypatch):
    from treesub import solvers

    dom = ts.ProductDomain([ts.complete_binary_tree(3), ts.chain_tree(4), ts.complete_binary_tree(3),
                            ts.chain_tree(3)])
    rng = ts.SplitMix64(12)
    rounds = [0]
    min_norm_point = solvers._min_norm_point

    def counted(*args):
        rounds[0] += 1
        return min_norm_point(*args)

    monkeypatch.setattr(solvers, "_min_norm_point", counted)
    costs = [ts.SumOfTerms(dom, random_terms(rng, dom, -4, 9, 4)) for _ in range(6)]
    costs.append(ts.DenseTable(dom, [rng.below(9) for _ in range(dom.size())]))
    box_rounds = []
    for f in costs:
        for _ in range(4):
            x = tuple(rng.below(t.node_count) for t in dom.trees)
            for restrict, solve in ((ts.inward_restrict, ts.sfm_wolfe),
                                    (ts.outward_restrict, ts.bisub_minnorm)):
                g = restrict(f, dom, x)
                calls = []
                wrapped = dataclasses.replace(g, evaluate=_wrap_counting(g.evaluate, calls))
                assert wrapped.walk is g.walk
                rounds[0] = 0
                result = solve(wrapped)
                if solve is ts.bisub_minnorm:
                    box_rounds.append(rounds[0])
                # the greedy steps read walks; only the returned value is evaluated
                assert len(calls) == 1
                assert solve(dataclasses.replace(g, walk=None)) == result
    # the penalty loop of restricted boxes ran more than one round
    assert max(box_rounds) >= 2


def _descent_family_at_arity_22():
    tree = ts.complete_binary_tree(3)
    dom = ts.ProductDomain([tree] * 22)
    rng = ts.SplitMix64(22)
    terms = []
    for i in range(22):
        target = rng.below(7)
        terms.append(ts.Term((i,), tuple(2 * ts.rho(tree, v, target) + tree.depth[v] for v in range(7))))
    for i in range(21):
        terms.append(ts.Term((i, i + 1), tuple(ts.rho(tree, a, b) for a in range(7) for b in range(7))))
    x0 = tuple(3 + rng.below(4) for _ in range(22))
    return ts.SumOfTerms(dom, terms), dom, x0


def test_min_norm_descent_never_builds_a_grid(monkeypatch):
    f, dom, x0 = _descent_family_at_arity_22()

    def refuse(self, axes):
        raise AssertionError("min-norm engines must not build a grid")

    monkeypatch.setattr(ts.SumOfTerms, "grid", refuse)
    assert ts.outward_restrict(f, dom, dom.all_roots()).box_size() == 3**22
    x, value, trace = ts.minimize(f, dom, x0, inward_engine="wolfe", outward_engine="minnorm")
    assert trace.s1_steps > 0 and trace.certificate.holds()
    assert value == f.evaluate(x)


def test_min_norm_descent_evaluates_once_per_greedy_call_at_most(monkeypatch):
    from treesub import descent, solvers

    f, dom, x0 = _descent_family_at_arity_22()
    count = {"evaluate": 0, "greedy": 0, "solve": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            count[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    min_norm_point = solvers._min_norm_point

    def greedy_counted(dim, linear_minimizer, *args):
        return min_norm_point(dim, counted("greedy", linear_minimizer), *args)

    monkeypatch.setattr(ts.SumOfTerms, "evaluate", counted("evaluate", ts.SumOfTerms.evaluate))
    monkeypatch.setattr(solvers, "_min_norm_point", greedy_counted)
    for name in ("sfm_wolfe", "bisub_minnorm"):
        monkeypatch.setattr(descent, name, counted("solve", getattr(descent, name)))
    _, _, trace = ts.minimize(f, dom, x0, inward_engine="wolfe", outward_engine="minnorm")
    assert trace.s1_steps > 0 and trace.s2_steps > 0
    assert count["greedy"] > count["solve"] > 0
    # one more for the start value
    assert count["evaluate"] <= count["greedy"] + count["solve"] + 1, count
