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

``meet_join`` and ``up_down`` also have array forms on ``Paths``, the
paths of equal-shape label arrays (``meet_join_paths``,
``up_down_paths``; wedge/vee's is ``up_down_paths`` at d = 0).  They map
label arrays in O(log height) numpy gathers on an ancestor table built
on first use, and ``Paths`` walks the pairs once and keeps the walk, so
up/down at many d share it.  Trees and path views are otherwise
immutable; every function in this module is pure, so concurrent reads
are safe.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError

ROOT_SENTINEL = -1


def non_int_cells(values: Sequence) -> list[int]:
    """Positions of the cells whose type is not exactly ``int``, in order.

    One C-level pass over the cells' types answers for a sequence of
    plain ints, as every canonical file holds; only otherwise are the
    positions gathered.  A bool, an ``IntEnum`` member
    or a numpy integer is not a plain int and is returned.
    """
    types = list(map(type, values))
    if types.count(int) == len(types):
        return []
    not_int = map(operator.is_not, types, itertools.repeat(int))
    return list(itertools.compress(itertools.count(), not_int))


def _index(v) -> int:
    """v by ``operator.index``, a numpy bool as the 0/1 of a Python bool.

    numpy 2 gives ``np.bool_`` no ``__index__`` and numpy 1.x warns on
    it, so it is tested for before ``operator.index`` is called."""
    return int(v) if isinstance(v, np.bool_) else operator.index(v)


def plain_int(v, otherwise: int | None) -> int | None:
    """v as a plain int by the rule of ``plain_ints``, for one value (a
    node label, a denominator, an op-table label), or ``otherwise`` when
    v is not an integer."""
    try:
        return _index(v)
    except TypeError:
        return otherwise


def int_argument(v, name: str) -> int:
    """v as a plain int by ``plain_int``; a value that is not an integer
    raises DomainError naming the parameter."""
    value = plain_int(v, None)
    if value is None:
        raise DomainError(f"{name} = {v!r} is not an integer")
    return value


def plain_ints(values: Iterable, name: str,
               refusal: Callable[[int, object], str]) -> tuple[int, ...]:
    """The values as a tuple of plain ints, read by ``operator.index``.

    The package's one rule for a sequence of integers (parents, cost
    cells, term scopes): an integer of any type (a bool, an ``IntEnum``
    member, a numpy integer) becomes a plain int, a numpy bool 0 or 1 as
    a Python bool does, and the first item without ``__index__`` (a
    float, a string, a Fraction, None) raises DomainError with the
    message ``refusal(k, v)`` for the item v at position k, built only
    then.  Values that cannot be iterated raise DomainError naming the
    argument as ``name``.  An iterator is read once, before any check.
    A tuple of plain ints is kept, so a caller's tuple is not stored
    twice; a list or range of them becomes a tuple with no call per item.
    """
    try:
        iterator = iter(values)
    except TypeError:
        raise DomainError(f"{name} = {values!r} is not a sequence of integers") from None
    if iterator is values:
        values = tuple(values)
    if type(values) in (tuple, list, range) and not non_int_cells(values):
        return values if type(values) is tuple else tuple(values)
    try:
        return tuple(map(_index, values))
    except TypeError:
        for k, v in enumerate(values):
            if plain_int(v, None) is None:
                raise DomainError(refusal(k, v)) from None
        raise


class Neighborhoods(NamedTuple):
    """The descent's per-node tables of one tree (``RootedTree._neighborhoods``).

    ``inward[v]`` is v's inward axis: ``(v,)`` at the root, else ``(v,
    parent)``.  ``outward[v]`` is the pair (allowed signs, axis) of v's
    outward move: ``(0,)``, ``(-1, 0)`` or ``(-1, 0, 1)`` by its child
    count, and the axis ``children[:1] + (v,) + children[1:]``, the label
    each allowed sign moves to (-1 the first child, +1 the second); it
    is None at a node with more than two children, which has no sign
    reading.  ``wide`` is the first such node, or None when the tree is
    binary.
    """

    inward: tuple[tuple[int, ...], ...]
    outward: tuple[tuple[tuple[int, ...], tuple[int, ...]] | None, ...]
    wide: int | None


_SIGNS = ((0,), (-1, 0), (-1, 0, 1))  # the allowed signs of a node with 0, 1 or 2 children


class RootedTree:
    """A rooted tree over dense integer node ids.

    Built from a parent array with -1 at the root.  Exposes parent,
    ordered children, depth, and the ancestor predicate.  Two tables are
    built on first use and kept: the ancestor table of the array path
    operations and the descent's ``Neighborhoods``.  Neither takes part
    in equality, hashing or the repr.
    """

    __slots__ = ("node_count", "parent", "children", "depth", "root", "_lift", "_nbhd")

    def __init__(self, parent: Iterable[int]):
        parents = plain_ints(parent, "parent",
                             lambda k, p: f"parent[{k}] = {p!r} is not an integer")
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

        # Depths by one BFS from the root; a node it never reaches lies
        # on, or below, a cycle of the parent array.
        depth = [-1] * n
        depth[root] = 0
        order = [root]
        for u in order:
            for w in children[u]:
                depth[w] = depth[u] + 1
                order.append(w)
        if len(order) < n:
            raise DomainError("parent array contains a cycle")

        self.node_count = n
        self.parent = parents
        self.children = tuple(tuple(c) for c in children)
        self.depth = tuple(depth)
        self.root = root
        self._lift = None
        self._nbhd = None

    def _lifting(self) -> tuple[np.ndarray, np.ndarray]:
        """(up, depth) arrays, ``up[j, v]`` being the 2^j-th ancestor of v
        (the root past it): O(n log height) cells, built on first use."""
        if self._lift is None:
            up = [np.array([v if p < 0 else p for v, p in enumerate(self.parent)])]
            while len(up) < max(self.depth).bit_length():
                up.append(up[-1][up[-1]])
            self._lift = np.array(up), np.array(self.depth)
        return self._lift

    def _neighborhoods(self) -> Neighborhoods:
        """Each node's inward axis and outward move, built on first use."""
        if self._nbhd is None:
            inward = tuple((v,) if p < 0 else (v, p) for v, p in enumerate(self.parent))
            outward = tuple(
                None if len(kids) > 2 else (_SIGNS[len(kids)], kids[:1] + (v,) + kids[1:])
                for v, kids in enumerate(self.children))
            wide = outward.index(None) if None in outward else None
            self._nbhd = Neighborhoods(inward, outward, wide)
        return self._nbhd

    def check_node(self, v: int) -> int:
        """v as a plain int, read by ``plain_int``: a bool, an ``IntEnum``
        member or a numpy integer label comes back as a plain int."""
        if type(v) is int and 0 <= v < self.node_count:
            return v
        label = plain_int(v, -1)
        if not 0 <= label < self.node_count:
            raise DomainError(f"node id {v!r} is not in 0..{self.node_count - 1}")
        return label

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
    a = tree.check_node(a)
    b = tree.check_node(b)
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


class Paths:
    """The paths from a to b for equal-shape label arrays a and b of one
    tree: the apex's index and the length of each, and the map from path
    positions p to nodes (the node at p is an ancestor of a up to the
    apex, else of b).

    The walk runs on first use and is kept, and ``take`` keeps it for a
    subset of the pairs, so ops at several step counts share one walk.
    """

    __slots__ = ("tree", "a", "b", "_walked")

    def __init__(self, tree: RootedTree, a, b, walked=None):
        self.tree, self.a, self.b, self._walked = tree, a, b, walked

    def _walk(self) -> tuple[np.ndarray, np.ndarray]:
        if self._walked is None:
            up, depth = self.tree._lifting()
            a, b = self.a, self.b
            gap = depth[a] - depth[b]
            u = _lift(up, np.where(gap > 0, a, b), np.abs(gap))
            w = np.where(gap > 0, b, a)
            for j in range(len(up) - 1, -1, -1):
                pu, pw = up[j, u], up[j, w]
                differ = pu != pw
                u, w = np.where(differ, pu, u), np.where(differ, pw, w)
            apex = np.where(u == w, u, up[0, u])
            index = depth[a] - depth[apex]
            self._walked = index, index + depth[b] - depth[apex]
        return self._walked

    @property
    def index(self) -> np.ndarray:
        return self._walk()[0]

    @property
    def length(self) -> np.ndarray:
        return self._walk()[1]

    def node_at(self, p) -> np.ndarray:
        index, length = self._walk()
        left = p <= index
        return _lift(self.tree._lifting()[0], np.where(left, self.a, self.b),
                     np.where(left, p, length - p))

    def take(self, rows) -> Paths:
        """The paths of the pairs in ``rows`` (an index or mask along the
        first axis), with the walk kept if it ran."""
        walked = None if self._walked is None else tuple(t[rows] for t in self._walked)
        return Paths(self.tree, self.a[rows], self.b[rows], walked)


def _lift(up: np.ndarray, v, k):
    """The ancestor k levels above v, for 0 <= k <= depth(v)."""
    for j in range(int(k.max(initial=0)).bit_length()):
        v = np.where(k >> j & 1, up[j, v], v)
    return v


def meet_join_paths(p: Paths) -> tuple[np.ndarray, np.ndarray]:
    """``meet_join`` of every label pair of the paths p."""
    index, length = p.index, p.length
    low, high = length // 2, (length + 1) // 2
    # the midpoint nearer the apex is the ancestor
    return tuple(p.node_at(np.where(low >= index, [low, high], [high, low])))


def up_down_paths(p: Paths, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``up_down`` of every label pair of the paths p, for d >= 0.

    Once d reaches every path's length, up_down maps each pair (a, b) to
    (b, a), and the label arrays b and a themselves are returned."""
    index, length = p.index, p.length
    if d >= length.max(initial=0):
        return p.b, p.a
    step = np.minimum(np.maximum(d - index, 0), length - index)
    return tuple(p.node_at(np.stack((index + step, length - index - step))))


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

