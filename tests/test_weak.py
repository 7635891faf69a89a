"""Fork recognition, the prefix encoding, and weak minimization."""

from __future__ import annotations

import itertools

import pytest

import treesub as ts
from treesub.errors import BudgetExceededError, DomainError, NotInImageError, UnsupportedStructureError
from treesub.weak import NotFork, encoded_wedge_vee, recognize_domain

from conftest import brute_minimum, encoded_first_minimum, fork_encodings


def _forks_up_to_k3():
    for k in range(4):
        yield ts.recognize(ts.fork_tree(k))      # with fork leaves
        yield ts.recognize(ts.chain_tree(k + 1))  # plain chain, same K


# ---------------------------------------------------------------------------
# Recognition


def test_recognize_chain():
    fork = ts.recognize(ts.chain_tree(5))
    assert fork.K == 4 and fork.chain == (0, 1, 2, 3, 4)
    assert fork.minus is None and fork.plus is None and not fork.has_fork


def test_recognize_fork2():
    fork = ts.recognize(ts.fork_tree(2))
    assert fork.K == 2 and fork.chain == (0, 1, 2)
    assert (fork.minus, fork.plus) == (3, 4) and fork.has_fork


def test_recognize_star3_is_k0_fork():
    fork = ts.recognize(ts.star3_tree())
    assert fork.K == 0 and (fork.minus, fork.plus) == (1, 2)


def test_recognize_single_node():
    fork = ts.recognize(ts.RootedTree([-1]))
    assert fork.K == 0 and not fork.has_fork


def test_recognize_rejects_bintree7():
    verdict = ts.recognize(ts.complete_binary_tree(3))
    assert isinstance(verdict, NotFork)
    assert "non-leaf" in verdict.reason


def test_recognize_rejects_ternary():
    verdict = ts.recognize(ts.RootedTree([-1, 0, 0, 0]))
    assert isinstance(verdict, NotFork)
    assert "3 children" in verdict.reason


def test_recognize_rejects_mid_chain_fork():
    # chain 0-1 with a fork at node 0 whose children are 1 (non-leaf) and 2
    verdict = ts.recognize(ts.RootedTree([-1, 0, 0, 1]))
    assert isinstance(verdict, NotFork)


# ---------------------------------------------------------------------------
# Encoding


def test_psi_frozen_rows_fork2():
    fork = ts.recognize(ts.fork_tree(2))
    assert ts.psi(fork, 0) == (0, 0, 0)
    assert ts.psi(fork, 1) == (1, 0, 0)
    assert ts.psi(fork, 2) == (1, 1, 0)
    assert ts.psi(fork, 3) == (1, 1, -1)
    assert ts.psi(fork, 4) == (1, 1, 1)


def test_psi_injective_and_invertible():
    for fork in _forks_up_to_k3():
        seen = set()
        for x in range(fork.tree.node_count):
            enc = ts.psi(fork, x)
            assert enc not in seen
            seen.add(enc)
            assert ts.in_image(fork, enc)
            assert ts.psi_inverse(fork, enc) == x


def test_psi_inverse_rejects_non_image():
    fork = ts.recognize(ts.fork_tree(2))
    for bad in [(0, 1, 0), (1, 0, -1), (0, 0, 1), (1, 1), (1, 1, 2)]:
        assert not ts.in_image(fork, bad)
        with pytest.raises(NotInImageError):
            ts.psi_inverse(fork, bad)
    chain = ts.recognize(ts.chain_tree(3))
    assert not ts.in_image(chain, (1, 1, -1))  # no fork leaves to encode


def test_star_ops_match_tree_ops():
    # the per-coordinate star operations are wedge/vee on explicit star trees
    binary = ts.RootedTree([-1, 0])
    ternary = ts.star3_tree()
    for a, b in itertools.product((0, 1), repeat=2):
        w, v = ts.wedge_vee(binary, a, b)
        assert encoded_wedge_vee((a,), (b,)) == ((w,), (v,))
    node = {0: 0, -1: 1, 1: 2}
    back = {v: k for k, v in node.items()}
    for a, b in itertools.product((-1, 0, 1), repeat=2):
        w, v = ts.wedge_vee(ternary, node[a], node[b])
        assert encoded_wedge_vee((a,), (b,)) == ((back[w],), (back[v],))


def test_encoded_ops_refuse_values_off_the_star():
    for y1, y2 in [((2,), (0,)), ((0,), (-2,)), ((1, 0), (1, 3))]:
        with pytest.raises(DomainError, match="is not in"):
            encoded_wedge_vee(y1, y2)


def test_psi_preserves_wedge_and_vee():
    for fork in _forks_up_to_k3():
        tree = fork.tree
        for a in range(tree.node_count):
            for b in range(tree.node_count):
                w, v = ts.wedge_vee(tree, a, b)
                ew, ev = encoded_wedge_vee(ts.psi(fork, a), ts.psi(fork, b))
                assert ew == ts.psi(fork, w)
                assert ev == ts.psi(fork, v)


def test_image_closed_under_encoded_ops():
    for fork in _forks_up_to_k3():
        image = [ts.psi(fork, x) for x in range(fork.tree.node_count)]
        for y1, y2 in itertools.product(image, repeat=2):
            ew, ev = encoded_wedge_vee(y1, y2)
            assert ts.in_image(fork, ew)
            assert ts.in_image(fork, ev)


def test_encoding_table():
    fork = ts.recognize(ts.star3_tree())
    assert ts.encoding_table(fork) == [(0, (0,)), (1, (-1,)), (2, (1,))]


# ---------------------------------------------------------------------------
# Weak minimization


def test_constant_minimizes_to_zero_cost():
    dom = ts.ProductDomain([ts.fork_tree(1), ts.fork_tree(2)])
    f = ts.SumOfTerms(dom, [])
    x, value = ts.minimize_weak(f, dom)
    assert value == 0
    dom.validate(x)


def test_weak_fixtures_match_brute():
    dom = ts.ProductDomain([ts.fork_tree(2), ts.fork_tree(2)])
    for seed in range(10):
        fx = ts.generate("random-verified-weak", dom, seed=seed)
        x, value = ts.minimize_weak(fx.function)
        _, bvalue = brute_minimum(fx.function)
        assert value == bvalue, seed


def test_weak_agrees_with_descent_on_chain_instances():
    dom = ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(4)])
    for seed in range(5):
        fx = ts.generate("chain-separable", dom, seed=seed)
        wx, wvalue = ts.minimize_weak(fx.function)
        dx, dvalue, _ = ts.minimize(fx.function)
        assert wvalue == dvalue, seed


def test_weak_rejects_non_fork_domain():
    dom = ts.ProductDomain([ts.complete_binary_tree(3)])
    f = ts.DenseTable(dom, [0] * 7)
    with pytest.raises(UnsupportedStructureError) as err:
        ts.minimize_weak(f, dom)
    assert "tree 0" in str(err.value)
    with pytest.raises(UnsupportedStructureError):
        recognize_domain(dom)


def test_weak_on_mixed_chain_and_fork():
    dom = ts.ProductDomain([ts.chain_tree(3), ts.fork_tree(0)])
    values = list(range(dom.size()))
    values[dom.rank((2, 1))] = -5
    f = ts.DenseTable(dom, values)
    x, value = ts.minimize_weak(f, dom)
    assert (x, value) == ((2, 1), -5)


# ---------------------------------------------------------------------------
# Weak minimization against the encoded-order oracle


def _mixed_fork_domain(rng: ts.SplitMix64):
    specs = []
    for _ in range(1 + rng.below(3)):
        if rng.below(2):
            specs.append(("fork", rng.below(4)))
        else:
            specs.append(("chain", 1 + rng.below(5)))
    build = {"fork": ts.fork_tree, "chain": ts.chain_tree}
    domain = ts.ProductDomain([build[kind](k) for kind, k in specs])
    return domain, [fork_encodings(kind, k) for kind, k in specs]


def _random_terms(rng: ts.SplitMix64, domain: ts.ProductDomain, max_value: int):
    terms = []
    for _ in range(1 + rng.below(4)):
        scope = [i for i in range(domain.n) if rng.below(2)] or [rng.below(domain.n)]
        scope = scope[:3]
        if rng.below(2):
            scope.reverse()  # unsorted scopes take the transposed sub-table
        size = 1
        for i in scope:
            size *= domain.trees[i].node_count
        terms.append(ts.Term(tuple(scope), tuple(rng.below(max_value + 1) for _ in range(size))))
    return terms


def test_weak_ties_follow_encoded_order_on_tables():
    rng = ts.SplitMix64(11)
    for case in range(60):
        domain, encodings = _mixed_fork_domain(rng)
        f = ts.DenseTable(domain, [rng.below(2) for _ in range(domain.size())])
        assert ts.minimize_weak(f, domain) == encoded_first_minimum(f, encodings), case


def test_weak_ties_follow_encoded_order_on_sums():
    rng = ts.SplitMix64(12)
    for case in range(60):
        domain, encodings = _mixed_fork_domain(rng)
        f = ts.SumOfTerms(domain, _random_terms(rng, domain, 1 + case % 3))
        assert ts.minimize_weak(f, domain) == encoded_first_minimum(f, encodings), case


def test_weak_tie_prefers_fork_leaf_encoded_before_chain_end():
    # psi(3) = (1, 1, -1) precedes psi(2) = (1, 1, 0) in the encoded box,
    # while the rank scan meets label 2 first
    dom = ts.ProductDomain([ts.fork_tree(2)])
    f = ts.DenseTable(dom, [5, 4, 1, 1, 3])
    assert ts.minimize_weak(f, dom) == ((3,), 1)
    assert ts.minimize_exhaustive(f, dom) == ((2,), 1)
    assert encoded_first_minimum(f, [fork_encodings("fork", 2)]) == ((3,), 1)


# ---------------------------------------------------------------------------
# Budgets count labelings


def test_weak_solves_fork5_cube_beyond_the_old_box_budget():
    # the flattened sign box of fork5^3 has 96^3 > 3^12 cells; the domain has 512
    dom = ts.ProductDomain([ts.fork_tree(5)] * 3)
    rng = ts.SplitMix64(5)
    f = ts.SumOfTerms(dom, _random_terms(rng, dom, 9))
    x, value = ts.minimize_weak(f, dom)
    assert value == ts.minimize_exhaustive(f, dom)[1]
    assert (x, value) == encoded_first_minimum(f, [fork_encodings("fork", 5)] * 3)


@pytest.mark.parametrize("solver", [ts.minimize_weak, ts.minimize_exhaustive])
def test_budget_below_domain_size_refuses_before_any_oracle_call(solver, monkeypatch):
    dom = ts.ProductDomain([ts.fork_tree(1), ts.chain_tree(3)])
    f = ts.DenseTable(dom, list(range(dom.size())))
    monkeypatch.setenv("TREESUB_BUDGET", "12")
    assert solver(f, dom) == ((0, 0), 0)
    calls = []
    monkeypatch.setattr(f, "evaluate", calls.append)
    monkeypatch.setattr(f, "grid", calls.append)
    monkeypatch.setenv("TREESUB_BUDGET", "11")
    with pytest.raises(BudgetExceededError, match="domain size 12 exceeds budget 11"):
        solver(f, dom)
    assert calls == []
