"""Tree construction, paths, and the six pairwise label operations."""

from __future__ import annotations

import enum
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import treesub as ts
from treesub.errors import DomainError
from treesub.trees import Paths, meet_join_paths, up_down_paths

from conftest import bfs_path, is_ancestor_oracle, root_walk


# ---------------------------------------------------------------------------
# Construction and validation


def test_chain_structure(chain5):
    assert chain5.root == 0
    assert chain5.parent == (-1, 0, 1, 2, 3)
    assert chain5.depth == (0, 1, 2, 3, 4)
    assert chain5.is_binary() and chain5.is_chain()


def test_bintree7_structure(bintree7):
    assert bintree7.children[0] == (1, 2)
    assert bintree7.children[1] == (3, 4)
    assert bintree7.children[2] == (5, 6)
    assert bintree7.depth == (0, 1, 1, 2, 2, 2, 2)
    assert bintree7.is_binary() and not bintree7.is_chain()


def test_rejects_two_roots():
    with pytest.raises(DomainError):
        ts.RootedTree([-1, -1, 0])


def test_rejects_no_root():
    with pytest.raises(DomainError):
        ts.RootedTree([1, 0])


def test_rejects_cycle():
    with pytest.raises(DomainError):
        ts.RootedTree([-1, 2, 1])


def test_depths_and_cycle_refusal_match_the_root_walk():
    rng = ts.SplitMix64(23)
    outcomes = {"tree": 0, "cycle": 0}
    for _ in range(400):
        n = 1 + rng.below(12)
        labels = list(range(n))
        for k in range(n - 1, 0, -1):
            j = rng.below(k + 1)
            labels[k], labels[j] = labels[j], labels[k]
        parent = [-1] * n
        for k in range(1, n):
            parent[labels[k]] = labels[rng.below(k)]
        if n > 1 and rng.below(2):
            # re-point one parent; it plants a cycle when the new parent lies below it
            parent[labels[1 + rng.below(n - 1)]] = labels[1 + rng.below(n - 1)]
        shape = SimpleNamespace(parent=parent, root=labels[0])
        try:
            want = tuple(len(root_walk(shape, v)) - 1 for v in range(n))
        except ValueError:
            outcomes["cycle"] += 1
            with pytest.raises(DomainError, match="^parent array contains a cycle$"):
                ts.RootedTree(parent)
        else:
            outcomes["tree"] += 1
            assert ts.RootedTree(parent).depth == want
    assert min(outcomes.values()) >= 50, outcomes


def test_rejects_out_of_range_parent():
    with pytest.raises(DomainError):
        ts.RootedTree([-1, 7])


def test_rejects_empty():
    with pytest.raises(DomainError):
        ts.RootedTree([])


def test_parents_must_be_integers():
    with pytest.raises(DomainError, match=r"^parent\[1\] = 0\.9 is not an integer$"):
        ts.RootedTree([-1, 0.9, "1", True])
    with pytest.raises(DomainError, match=r"^parent\[2\] = '1' is not an integer$"):
        ts.RootedTree([-1, 0, "1"])
    with pytest.raises(DomainError, match=r"^parent\[1\] = .* is not an integer$"):
        ts.RootedTree([-1, np.float64(0.0)])
    with pytest.raises(DomainError, match=r"^parent\[2\] = 0\.5 is not an integer$"):
        ts.RootedTree(p for p in [-1, 0, 0.5])
    tree = ts.RootedTree(np.array([-1, 0, 0, 1]))  # numpy integers pass, stored as ints
    assert tree.parent == (-1, 0, 0, 1)
    assert all(type(p) is int for p in tree.parent)


class _Node(enum.IntEnum):
    ROOT = 0
    CHILD = 1


_PARENT_SETS = [
    [-1],
    [-1, 0, 1],
    [1, -1, 0],
    [True, -1, False],
    [-1, _Node.ROOT, _Node.CHILD],
    [np.int64(-1), np.uint8(0), 0],
    [-1, 0, 0.5],
    [-1, "0", 0.5],
    [-1, None],
    [-1, Fraction(0)],
    [-1, 0, 1.0],
    [],
    [-1, 5],
    [-1, -1],
    [-1, 2, 1],
]

_CONTAINERS = {
    "list": list,
    "tuple": tuple,
    "generator": lambda parents: (p for p in parents),
    "map": lambda parents: map(lambda p: p, parents),
    "numpy object array": lambda parents: np.array(parents, dtype=object),
}


def _tree_outcome(parents):
    try:
        tree = ts.RootedTree(parents)
    except DomainError as exc:
        return "error", str(exc)
    return "ok", tree.parent, [type(p) for p in tree.parent]


@pytest.mark.parametrize("container", sorted(_CONTAINERS))
@pytest.mark.parametrize("parents", _PARENT_SETS, ids=repr)
def test_parents_read_alike_from_every_container(parents, container):
    """Every container gives the list form's tuple of plain ints or its
    DomainError; an iterator is read once, so a bad parent in a generator
    is named as in a list."""
    expected = _tree_outcome(list(parents))
    assert _tree_outcome(_CONTAINERS[container](parents)) == expected
    if expected[0] == "ok":
        assert set(expected[2]) == {int}


def test_invalid_node_id(chain5):
    with pytest.raises(DomainError):
        ts.path(chain5, 0, 5)
    with pytest.raises(DomainError):
        ts.path(chain5, -1, 0)


def test_is_ancestor(bintree7):
    assert bintree7.is_ancestor(0, 5)
    assert bintree7.is_ancestor(2, 6)
    assert not bintree7.is_ancestor(1, 5)
    assert bintree7.is_ancestor(3, 3)


# ---------------------------------------------------------------------------
# Frozen path and operation examples


def test_path_chain(chain5):
    p = ts.path(chain5, 1, 4)
    assert p.nodes == (1, 2, 3, 4)
    assert p.apex == 1
    assert p.length == 3


def test_path_bintree(bintree7):
    p = ts.path(bintree7, 3, 5)
    assert p.nodes == (3, 1, 0, 2, 5)
    assert p.apex == 0
    assert p.length == 4
    assert p.apex_index == 2


def test_path_identity(chain5, bintree7):
    for tree in (chain5, bintree7):
        for a in range(tree.node_count):
            p = ts.path(tree, a, a)
            assert p.nodes == (a,)
            assert p.apex == a
            assert p.length == 0


def test_path_view_node_at(bintree7, chain5):
    assert ts.path(bintree7, 3, 5).node_at(2) == 0
    assert ts.path(bintree7, 3, 5).node_at(0) == 3
    assert ts.path(chain5, 1, 4).node_at(99) == 4  # saturation past the end
    with pytest.raises(DomainError):
        ts.path(chain5, 1, 4).node_at(-1)


def test_meet_join_chain(chain5):
    assert ts.meet_join(chain5, 1, 4) == (2, 3)
    for a in range(5):
        for b in range(5):
            m, j = ts.meet_join(chain5, a, b)
            assert m == (a + b) // 2
            assert j == (a + b + 1) // 2


_SIGN = {0: 0, 1: -1, 2: 1}
_NODE = {0: 0, -1: 1, 1: 2}


def _sign_sum(a: int, b: int) -> int:
    s = a + b
    return (s > 0) - (s < 0)


def test_meet_join_star3_sign_formulas(star3):
    for a in range(3):
        for b in range(3):
            m, j = ts.meet_join(star3, a, b)
            sa, sb = _SIGN[a], _SIGN[b]
            assert j == _NODE[_sign_sum(sa, sb)]
            assert m == _NODE[abs(sa * sb) * _sign_sum(sa, sb)]


def test_meet_join_bintree(bintree7):
    assert ts.meet_join(bintree7, 3, 5) == (0, 0)
    assert ts.meet_join(bintree7, 3, 1) == (1, 3)


def test_wedge_vee_examples(chain5, star3, bintree7):
    assert ts.wedge_vee(chain5, 1, 4) == (1, 4)  # min and max on a chain
    assert ts.wedge_vee(star3, 1, 2) == (0, 0)   # coincides with meet/join here
    assert ts.wedge_vee(bintree7, 3, 5) == (0, 0)


def test_up_down_examples(bintree7):
    assert ts.up_down(bintree7, 3, 5, 1) == (0, 0)
    assert ts.up_down(bintree7, 3, 5, 9) == (5, 3)  # saturation
    with pytest.raises(DomainError):
        ts.up_down(bintree7, 3, 5, -2)


def test_rho_examples(chain5, bintree7):
    assert ts.rho(bintree7, 3, 5) == 4
    assert ts.rho(chain5, 2, 2) == 0
    dom = ts.ProductDomain([chain5, chain5])
    assert ts.rho_inf(dom, (0, 1), (2, 2)) == 2


def test_rho_inf_length_mismatch(chain5):
    dom = ts.ProductDomain([chain5, chain5])
    with pytest.raises(DomainError):
        ts.rho_inf(dom, (0,), (1, 2))


# ---------------------------------------------------------------------------
# Law bundle over random trees


@st.composite
def random_trees(draw):
    n = draw(st.integers(min_value=1, max_value=15))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return ts.random_tree(ts.SplitMix64(seed), n)


@given(random_trees(), st.data())
def test_path_matches_bfs_oracle(tree, data):
    a = data.draw(st.integers(0, tree.node_count - 1))
    b = data.draw(st.integers(0, tree.node_count - 1))
    p = ts.path(tree, a, b)
    assert list(p.nodes) == bfs_path(tree, a, b)
    assert p.nodes[0] == a and p.nodes[-1] == b
    assert is_ancestor_oracle(tree, p.apex, a)
    assert is_ancestor_oracle(tree, p.apex, b)
    assert p.nodes.count(p.apex) == 1
    # apex renames to 0, a to a non-positive integer
    assert p.renamed(p.apex_index) == 0
    assert p.renamed(0) <= 0


@given(random_trees(), st.data())
def test_operation_laws(tree, data):
    a = data.draw(st.integers(0, tree.node_count - 1))
    b = data.draw(st.integers(0, tree.node_count - 1))
    d = data.draw(st.integers(0, 2 * tree.node_count))
    p = ts.path(tree, a, b)
    dist = p.length

    m, j = ts.meet_join(tree, a, b)
    assert (m, j) == ts.meet_join(tree, b, a)
    assert {m, j} == {p.node_at(dist // 2), p.node_at((dist + 1) // 2)}
    assert tree.is_ancestor(m, j)
    assert dist // 2 + (dist + 1) // 2 == dist

    w, v = ts.wedge_vee(tree, a, b)
    assert (w, v) == ts.wedge_vee(tree, b, a)
    assert w == p.apex and v in p.nodes
    assert ts.rho(tree, a, v) == ts.rho(tree, w, b)

    up, down = ts.up_down(tree, a, b, d)
    assert up in p.nodes and down in p.nodes
    assert ts.rho(tree, a, down) == ts.rho(tree, up, b)
    assert ts.rho(tree, a, up) == ts.rho(tree, down, b)
    assert ts.up_down(tree, a, b, 0) == (w, v)
    if d >= dist:
        assert (up, down) == (b, a)


@given(random_trees(), st.data())
def test_ancestor_predicate_matches_oracle(tree, data):
    a = data.draw(st.integers(0, tree.node_count - 1))
    b = data.draw(st.integers(0, tree.node_count - 1))
    assert tree.is_ancestor(a, b) == is_ancestor_oracle(tree, a, b)


# ---------------------------------------------------------------------------
# The descent's neighborhood tables


_NEIGHBORHOOD_TREES = {
    **{f"chain{n}": ts.chain_tree(n) for n in (1, 2, 5)},
    "star3": ts.star3_tree(),
    "bintree7": ts.complete_binary_tree(3),
    **{f"random{n}-{seed}": ts.random_tree(ts.SplitMix64(seed), n)
       for seed, n in enumerate((2, 9, 23, 40))},
    "wide": ts.RootedTree([4, 0, 0, 0, -1, 3, 3, 3, 3, 4]),  # nodes 0 and 3 have 3 and 4 children
}


@pytest.mark.parametrize("tree", _NEIGHBORHOOD_TREES.values(), ids=_NEIGHBORHOOD_TREES.keys())
def test_neighborhood_tables_follow_parent_and_children(tree):
    """Each node's inward axis is (v,) at the root and (v, parent)
    elsewhere; its outward move is (allowed signs by child count, the
    axis ``children[:1] + (v,) + children[1:]``), or None past two
    children; ``wide`` is the first node past two children.  The tables
    are built once and take no part in equality, hashing or the repr."""
    fresh = ts.RootedTree(tree.parent)
    tables = tree._neighborhoods()
    assert tree._neighborhoods() is tables
    signs = {0: (0,), 1: (-1, 0), 2: (-1, 0, 1)}
    for v in range(tree.node_count):
        kids = tree.children[v]
        assert tables.inward[v] == ((v,) if v == tree.root else (v, tree.parent[v]))
        if len(kids) > 2:
            assert tables.outward[v] is None
        else:
            assert tables.outward[v] == (signs[len(kids)], kids[:1] + (v,) + kids[1:])
    wide = [v for v, kids in enumerate(tree.children) if len(kids) > 2]
    assert tables.wide == (wide[0] if wide else None)
    assert (tables.wide is None) == tree.is_binary()
    assert tree == fresh and fresh == tree and hash(tree) == hash(fresh)
    assert repr(tree) == repr(fresh) == f"RootedTree(parent={list(tree.parent)!r})"
    assert {tree: 1}[fresh] == 1
    assert fresh._nbhd is None


def test_building_a_tree_builds_none_of_its_tables():
    tree = ts.chain_tree(16000)
    assert tree._lift is None and tree._nbhd is None
    assert tree == ts.chain_tree(16000) and repr(tree).startswith("RootedTree(parent=[-1, 0, 1")
    assert tree._lift is None and tree._nbhd is None


def test_random_tree_respects_child_cap():
    rng = ts.SplitMix64(99)
    for _ in range(25):
        tree = ts.random_tree(rng, 15)
        assert tree.is_binary()
        assert tree.node_count == 15


# ---------------------------------------------------------------------------
# Array forms of the operations


# Heights 0-63 across the bit-length steps of the lifting table, plus
# wide, forked, binary and random shapes.
_ARRAY_TREES = {
    **{f"chain{n}": ts.chain_tree(n) for n in (1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64)},
    **{f"star{k}": ts.RootedTree([-1] + [0] * k) for k in (2, 5, 63)},
    **{f"fork{k}": ts.fork_tree(k) for k in (0, 1, 4, 30, 61)},
    **{f"bintree{k}": ts.complete_binary_tree(k) for k in (2, 4, 6)},
    "mixed11": ts.RootedTree([-1, 0, 0, 1, 1, 1, 2, 6, 6, 6, 9]),
    **{f"random{n}-{seed}": ts.random_tree(ts.SplitMix64(seed), n)
       for seed, n in enumerate((5, 12, 29, 40, 64, 64))},
}


def _bfs_ops(tree: ts.RootedTree, a: np.ndarray, b: np.ndarray):
    """The ops of the label pairs (a, b) read off their BFS paths by
    position: meet/join, wedge/vee and a function of d giving up_down(d)."""
    paths = np.zeros(a.shape + (tree.node_count,), np.int64)
    apex, length = np.zeros(a.shape, np.int64), np.zeros(a.shape, np.int64)
    for k in np.ndindex(a.shape):
        p = bfs_path(tree, int(a[k]), int(b[k]))
        paths[k][:len(p)] = p
        length[k] = len(p) - 1
        apex[k] = min(range(len(p)), key=lambda i: tree.depth[p[i]])

    def at(position):
        return np.take_along_axis(paths, position[..., None], axis=-1)[..., 0]

    low, high = at(length // 2), at((length + 1) // 2)
    shallow = np.array(tree.depth)[low] <= np.array(tree.depth)[high]
    meet_join = np.where(shallow, low, high), np.where(shallow, high, low)
    wedge_vee = at(apex), at(length - apex)

    def up_down(d):
        step = np.clip(d - apex, 0, length - apex)
        return at(apex + step), at(length - apex - step)

    return meet_join, wedge_vee, up_down


@pytest.mark.parametrize("tree", _ARRAY_TREES.values(), ids=_ARRAY_TREES.keys())
def test_array_ops_match_scalar_ops_and_bfs_paths(tree):
    """Every label pair, and for up_down every d below n.  Trees up to
    16 nodes compare every d with the scalar op too, larger ones d = 0,
    1, n/2 and n-1."""
    n = tree.node_count
    a, b = np.indices((n, n))
    meet_join, wedge_vee, up_down = _bfs_ops(tree, a, b)
    pairs = [(x, y) for x in range(n) for y in range(n)]
    scalar_steps = range(n) if n <= 16 else sorted({0, 1, n // 2, n - 1})
    paths = Paths(tree, a, b)
    for got, scalar_op, want in ((meet_join_paths(paths), ts.meet_join, meet_join),
                                 (up_down_paths(paths, 0), ts.wedge_vee, wedge_vee)):
        assert all((g == w).all() for g, w in zip(got, want))
        assert [(got[0][p], got[1][p]) for p in pairs] == [scalar_op(tree, *p) for p in pairs]
    for d in range(n):
        got = up_down_paths(paths, d)
        assert all((g == w).all() for g, w in zip(got, up_down(d)))
        if d in scalar_steps:
            assert [(got[0][p], got[1][p]) for p in pairs] == [ts.up_down(tree, *p, d) for p in pairs]


@pytest.mark.parametrize("tree", [ts.chain_tree(1000), ts.complete_binary_tree(10)],
                         ids=["chain1000", "bintree10"])
def test_array_ops_match_scalar_ops_on_random_pairs(tree):
    """2,000 random pairs of a deep and a wide tree; the first 100 also
    against their BFS paths."""
    rng = ts.SplitMix64(tree.node_count)
    a, b = rng.below_array(tree.node_count, 2000), rng.below_array(tree.node_count, 2000)
    pairs = list(zip(a.tolist(), b.tolist()))
    meet_join, wedge_vee, up_down = _bfs_ops(tree, a[:100], b[:100])
    paths = Paths(tree, a, b)
    for got, scalar_op, want in ((meet_join_paths(paths), ts.meet_join, meet_join),
                                 (up_down_paths(paths, 0), ts.wedge_vee, wedge_vee)):
        assert list(zip(*(g.tolist() for g in got))) == [scalar_op(tree, *p) for p in pairs]
        assert all((g[:100] == w).all() for g, w in zip(got, want))
    for d in (0, 1, 5, 17, 500, 999, 5000):
        got = up_down_paths(paths, d)
        assert list(zip(*(g.tolist() for g in got))) == [ts.up_down(tree, *p, d) for p in pairs]
        assert all((g[:100] == w).all() for g, w in zip(got, up_down(d)))
