"""Rooted-tree label domains and the path operations built on them.

The labels of one variable are the nodes of a rooted tree, identified by
the dense integers 0..node_count-1.  Trees are constructed from a parent
array in which the root carries the sentinel -1.  Children keep the order
in which they appear in the parent array; wherever a sign encoding is
needed, the first child of a binary node plays the "-1" role and the
second child the "+1" role.

The partial order ``a`` precedes ``b`` means "a is an ancestor of b", so
the root is the minimum.  Six pairwise operations are defined through the
unique path between two labels:

* ``meet_join``   -- the midpoint pair of the path, ancestor first;
* ``wedge_vee``   -- the highest common ancestor, and the label on the
                     path whose distance from ``a`` mirrors the wedge's
                     distance from ``b``;
* ``up_down``     -- the directed d-step variants that interpolate
                     between the pair itself (large d) and wedge/vee
                     (d = 0).

On a chain rooted at an endpoint, meet/join are the floor/ceil midpoints
of the label interval and wedge/vee are min/max.  On the 3-node star read
as signs {-1, 0, +1}, join is sign(a+b) and meet is |ab|*sign(a+b).

Each operation also has an array form (``meet_join_array`` and so on)
that maps label arrays in O(log height) numpy gathers on an ancestor
table built on first use.  Trees and path views are otherwise immutable;
every function in this module is pure, so concurrent reads are safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

ROOT_SENTINEL = -1


class RootedTree:
    """A rooted tree over dense integer node ids.

    Built from a parent array with -1 at the root.  Exposes parent,
    ordered children, depth, and the ancestor predicate.
    """

    __slots__ = ("node_count", "parent", "children", "depth", "root", "_lift")

    def __init__(self, parent: Sequence[int]):
        parents = tuple(int(p) for p in parent)
        n = len(parents)
        if n == 0:
            raise DomainError("a tree needs at least one node")
        roots = [v for v, p in enumerate(parents) if p == ROOT_SENTINEL]
        if len(roots) != 1:
            raise DomainError(
                f"expected exactly one root sentinel -1, found {len(roots)}"
            )
        root = roots[0]
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(parents):
            if v == root:
                continue
            if not 0 <= p < n:
                raise DomainError(f"parent[{v}] = {p} is out of range")
            children[p].append(v)

        # Depths via memoized walks to the root; a walk longer than n
        # nodes means the parent array contains a cycle.
        depth = [-1] * n
        depth[root] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            trail = []
            u = v
            while depth[u] < 0:
                trail.append(u)
                u = parents[u]
                if len(trail) > n:
                    raise DomainError("parent array contains a cycle")
            base = depth[u]
            for offset, w in enumerate(reversed(trail), start=1):
                depth[w] = base + offset

        self.node_count = n
        self.parent = parents
        self.children = tuple(tuple(c) for c in children)
        self.depth = tuple(depth)
        self.root = root
        self._lift = None

    def _lifting(self) -> tuple[np.ndarray, np.ndarray]:
        """(up, depth) arrays, ``up[j, v]`` being the 2^j-th ancestor of v
        (the root past it): O(n log height) cells, built on first use."""
        if self._lift is None:
            up = [np.array([v if p < 0 else p for v, p in enumerate(self.parent)])]
            while len(up) < max(self.depth).bit_length():
                up.append(up[-1][up[-1]])
            self._lift = np.array(up), np.array(self.depth)
        return self._lift

    def check_node(self, v: int) -> int:
        if not isinstance(v, int) or not 0 <= v < self.node_count:
            raise DomainError(f"node id {v!r} is not in 0..{self.node_count - 1}")
        return v

    def is_binary(self) -> bool:
        return all(len(c) <= 2 for c in self.children)

    def is_chain(self) -> bool:
        return all(len(c) <= 1 for c in self.children)

    def is_ancestor(self, a: int, b: int) -> bool:
        """True iff a lies on the path from b to the root (a precedes b)."""
        self.check_node(a)
        v = self.check_node(b)
        while self.depth[v] > self.depth[a]:
            v = self.parent[v]
        return v == a

    def __eq__(self, other) -> bool:
        return isinstance(other, RootedTree) and self.parent == other.parent

    def __hash__(self) -> int:
        return hash(self.parent)

    def __repr__(self) -> str:
        return f"RootedTree(parent={list(self.parent)!r})"


@dataclass(frozen=True)
class PathView:
    """The unique path between two labels, with renamed coordinates.

    ``nodes[0] == a`` and ``nodes[-1] == b``; the apex (highest common
    ancestor) sits at ``apex_index``.  Positions along the path rename to
    consecutive integers with the apex at 0, so ``a`` renames to
    ``-apex_index`` (non-positive) and ``b`` to ``length - apex_index``.
    """

    a: int
    b: int
    apex: int
    nodes: tuple[int, ...]
    apex_index: int

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def node_at(self, d: int) -> int:
        """The d-th node from a, saturating at b for d past the end."""
        if d < 0:
            raise DomainError(f"path position {d} is negative")
        return self.nodes[min(d, self.length)]

    def renamed(self, position: int) -> int:
        return position - self.apex_index

    def position(self, renamed: int) -> int:
        return renamed + self.apex_index


def path(tree: RootedTree, a: int, b: int) -> PathView:
    """The unique path from a to b, found by the two-pointer walk."""
    tree.check_node(a)
    tree.check_node(b)
    left: list[int] = []
    right: list[int] = []
    x, y = a, b
    while tree.depth[x] > tree.depth[y]:
        left.append(x)
        x = tree.parent[x]
    while tree.depth[y] > tree.depth[x]:
        right.append(y)
        y = tree.parent[y]
    while x != y:
        left.append(x)
        x = tree.parent[x]
        right.append(y)
        y = tree.parent[y]
    nodes = tuple(left) + (x,) + tuple(reversed(right))
    return PathView(a=a, b=b, apex=x, nodes=nodes, apex_index=len(left))


def rho(tree: RootedTree, a: int, b: int) -> int:
    """Number of edges on the path from a to b."""
    return path(tree, a, b).length


def path_node(tree: RootedTree, a: int, b: int, d: int) -> int:
    """The d-th node of the path from a to b; returns b once d passes it."""
    return path(tree, a, b).node_at(d)


def meet_join(tree: RootedTree, a: int, b: int) -> tuple[int, int]:
    """The midpoint pair of the path, returned as (ancestor, descendant).

    The two labels are the floor- and ceiling-midpoint nodes of the path;
    they are equal when the path length is even and adjacent otherwise,
    so the shallower one is the ancestor and is returned first.
    Commutative in (a, b).
    """
    p = path(tree, a, b)
    d = p.length
    u = p.nodes[d // 2]
    v = p.nodes[(d + 1) // 2]
    if tree.depth[u] <= tree.depth[v]:
        return u, v
    return v, u


def wedge_vee(tree: RootedTree, a: int, b: int) -> tuple[int, int]:
    """The highest common ancestor and its mirror on the path.

    The second label is the node on the path whose distance from ``a``
    equals the distance from the apex to ``b``.  Commutative in (a, b).
    """
    p = path(tree, a, b)
    return p.apex, p.nodes[p.length - p.apex_index]


def up_down(tree: RootedTree, a: int, b: int, d: int) -> tuple[int, int]:
    """Directed d-step operations along the path from a to b.

    In renamed path coordinates (apex = 0, a <= 0 <= b) the first result
    is max(0, min(a + d, b)): walk d steps from a towards b, then keep
    walking until the label is an ancestor of b.  The second result is
    a + b minus the first, which mirrors the distances: the distance from
    a to it equals the distance from the first result to b, and vice
    versa.  d = 0 reduces to wedge_vee; d >= rho(a, b) yields (b, a).
    Not commutative in general.
    """
    if d < 0:
        raise DomainError(f"step count {d} is negative")
    p = path(tree, a, b)
    ra = -p.apex_index
    rb = p.length - p.apex_index
    up = max(0, min(ra + d, rb))
    down = ra + rb - up
    return p.nodes[p.position(up)], p.nodes[p.position(down)]


def _paths(tree: RootedTree, a, b):
    """The paths from a to b for label arrays a and b: the apex, its
    index and the length of each, and the map from path positions p to
    nodes.  The node at p is an ancestor of a up to the apex, else of b."""
    up, depth = tree._lifting()

    def lift(v, k):  # the ancestor k levels above v, for 0 <= k <= depth(v)
        for j in range(int(np.max(k, initial=0)).bit_length()):
            v = np.where(k >> j & 1, up[j, v], v)
        return v
    gap = depth[a] - depth[b]
    u = lift(np.where(gap > 0, a, b), np.abs(gap))
    w = np.where(gap > 0, b, a)
    for j in range(len(up) - 1, -1, -1):
        pu, pw = up[j, u], up[j, w]
        differ = pu != pw
        u, w = np.where(differ, pu, u), np.where(differ, pw, w)
    apex = np.where(u == w, u, up[0, u])
    index = depth[a] - depth[apex]
    length = index + depth[b] - depth[apex]

    def node_at(p):
        left = p <= index
        return lift(np.where(left, a, b), np.where(left, p, length - p))

    return apex, index, length, node_at


def meet_join_array(tree: RootedTree, a, b) -> tuple[np.ndarray, np.ndarray]:
    """``meet_join`` of every label pair (a, b) of the arrays a and b."""
    _, index, length, node_at = _paths(tree, a, b)
    low, high = length // 2, (length + 1) // 2
    # the midpoint nearer the apex is the ancestor
    return node_at(np.where(low >= index, low, high)), node_at(np.where(low >= index, high, low))


def wedge_vee_array(tree: RootedTree, a, b) -> tuple[np.ndarray, np.ndarray]:
    """``wedge_vee`` of every label pair (a, b) of the arrays a and b."""
    apex, index, length, node_at = _paths(tree, a, b)
    return apex, node_at(length - index)


def up_down_array(tree: RootedTree, a, b, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``up_down`` of every label pair (a, b) of the arrays a and b, for d >= 0."""
    _, index, length, node_at = _paths(tree, a, b)
    step = np.minimum(np.maximum(d - index, 0), length - index)
    return node_at(index + step), node_at(length - index - step)


def rho_inf(domain, x: Sequence[int], y: Sequence[int]) -> int:
    """Coordinatewise maximum of per-tree path distances.

    ``domain`` is anything with a ``trees`` attribute (or a plain
    sequence of trees).
    """
    trees = getattr(domain, "trees", domain)
    if len(x) != len(trees) or len(y) != len(trees):
        raise DomainError(
            f"labeling lengths {len(x)}/{len(y)} do not match arity {len(trees)}"
        )
    return max(rho(t, xi, yi) for t, xi, yi in zip(trees, x, y))


def signed_children(tree: RootedTree, v: int) -> tuple[int | None, int | None]:
    """Children of v under the sign convention: (minus child, plus child).

    The first child maps to sign -1 and the second to +1; missing
    children are None.  Only meaningful on binary trees.
    """
    c = tree.children[tree.check_node(v)]
    if len(c) > 2:
        raise DomainError(f"node {v} has {len(c)} children; sign reading needs <= 2")
    minus = c[0] if len(c) >= 1 else None
    plus = c[1] if len(c) >= 2 else None
    return minus, plus
