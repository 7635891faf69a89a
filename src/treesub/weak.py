"""Chain-plus-fork domains and the prefix encoding into sign vectors.

A fork tree is a chain 0..K (node k's parent is k-1, node 0 the root)
with optionally two extra leaves attached at node K; a plain chain is the
degenerate fork without the two leaves.  Weakly tree-submodular costs on
products of fork trees can be minimized through an encoding psi that maps
each label to K binary coordinates plus one ternary coordinate:

    label k in 0..K      ->  1 repeated k times, then zeros
    the first fork leaf  ->  1 repeated K times, then -1
    the second fork leaf ->  1 repeated K times, then +1

Each encoded coordinate lives on a star (root 0, other values its
children), and psi is injective and preserves the wedge/vee operations
computed coordinatewise on those stars, so the image of psi is closed
under them (a signed ring family).  Because psi is a bijection onto its
image, the minimization scans the domain itself, in the encoded box's
order, and never builds the box; the point of the module is to validate
the reduction, not to be fast.  For plain chains the ternary coordinate
is constantly 0 and the encoding degenerates to the classic binary chain
representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .errors import DomainError, NotInImageError, UnsupportedStructureError
from .functions import CostFunction, Labeling, ProductDomain, grid_minimum, own_domain, star3_tree
from .solvers import bisub_brute  # noqa: F401  the benchmark's tracer patches weak.bisub_brute
from .trees import RootedTree, wedge_vee

EncodedPoint = tuple[int, ...]


@dataclass(frozen=True)
class ForkTree:
    """Recognized chain-plus-fork shape of a rooted tree.

    ``chain[k]`` is the node id at chain depth k; ``minus`` and ``plus``
    are the two fork-leaf ids (first and second child of chain[K]) or
    None for a plain chain.
    """

    tree: RootedTree
    K: int
    chain: tuple[int, ...]
    minus: int | None
    plus: int | None

    @property
    def has_fork(self) -> bool:
        return self.minus is not None


@dataclass(frozen=True)
class NotFork:
    """Negative recognition verdict with the offending structure."""

    reason: str


def recognize(tree: RootedTree) -> ForkTree | NotFork:
    """Classify a tree as a fork (or plain chain) or report why not."""
    chain = [tree.root]
    v = tree.root
    while True:
        kids = tree.children[v]
        if len(kids) == 0:
            return ForkTree(tree, K=len(chain) - 1, chain=tuple(chain), minus=None, plus=None)
        if len(kids) == 1:
            chain.append(kids[0])
            v = kids[0]
            continue
        if len(kids) == 2:
            lo, hi = kids
            if tree.children[lo] or tree.children[hi]:
                return NotFork(f"node {v} branches into non-leaf children")
            return ForkTree(tree, K=len(chain) - 1, chain=tuple(chain), minus=lo, plus=hi)
        return NotFork(f"node {v} has {len(kids)} children")


def psi(fork: ForkTree, x: int) -> EncodedPoint:
    """Encode one label into K binary coordinates plus a ternary one."""
    fork.tree.check_node(x)
    K = fork.K
    if x == fork.minus and fork.minus is not None:
        return (1,) * K + (-1,)
    if x == fork.plus and fork.plus is not None:
        return (1,) * K + (1,)
    k = fork.tree.depth[x]
    if k > K or fork.chain[k] != x:
        raise DomainError(f"label {x} is not on the recognized chain")
    return (1,) * k + (0,) * (K + 1 - k)


def in_image(fork: ForkTree, y: EncodedPoint) -> bool:
    """Membership of an encoded vector in the image of psi."""
    return tuple(y) in {enc for _, enc in encoding_table(fork)}


def psi_inverse(fork: ForkTree, y: EncodedPoint) -> int:
    """Decode an encoded vector; total exactly on the image of psi."""
    label = {enc: x for x, enc in encoding_table(fork)}.get(tuple(y))
    if label is None:
        raise NotInImageError(f"vector {y!r} is not an encoding for K={fork.K}")
    return label


_STAR = star3_tree()
_STAR_NODE = {0: 0, -1: 1, 1: 2}  # encoded value -> node of _STAR
_STAR_SIGN = (0, -1, 1)  # node of _STAR -> encoded value


def encoded_wedge_vee(y1: EncodedPoint, y2: EncodedPoint) -> tuple[EncodedPoint, EncodedPoint]:
    """Coordinatewise wedge/vee of two encoded vectors on the 3-node star."""
    if len(y1) != len(y2):
        raise DomainError("encoded vectors of different lengths")
    try:
        pairs = [wedge_vee(_STAR, _STAR_NODE[a], _STAR_NODE[b]) for a, b in zip(y1, y2)]
    except KeyError as exc:
        raise DomainError(f"encoded value {exc.args[0]!r} is not in {{-1, 0, 1}}") from None
    return tuple(_STAR_SIGN[w] for w, _ in pairs), tuple(_STAR_SIGN[v] for _, v in pairs)


def encoding_table(fork: ForkTree) -> list[tuple[int, EncodedPoint]]:
    """The full label -> encoding mapping, in label id order."""
    return [(x, psi(fork, x)) for x in range(fork.tree.node_count)]


def recognize_domain(domain: ProductDomain) -> list[ForkTree]:
    forks = []
    for i, tree in enumerate(domain.trees):
        verdict = recognize(tree)
        if isinstance(verdict, NotFork):
            raise UnsupportedStructureError(f"tree {i}: {verdict.reason}")
        forks.append(verdict)
    return forks


def minimize_weak(
    f: CostFunction, domain: ProductDomain | None = None
) -> tuple[Labeling, int]:
    """Minimize a (weakly tree-submodular) cost over a product of forks.

    psi is a bijection onto its image, so scanning the image of the
    flattened sign box is scanning the domain: each variable's labels
    are listed in the order of their encodings and the first minimum over
    the product is taken, which is the encoded box's first minimum in its
    mixed-radix order.  The cell budget counts labelings.  Exact for any
    cost; the weak tree-submodularity premise is what makes the encoded
    family a signed ring family rather than what this routine relies on.
    """
    domain = own_domain(f, domain)
    forks = recognize_domain(domain)
    axes = [sorted(range(fork.tree.node_count), key=partial(psi, fork)) for fork in forks]
    return grid_minimum(f, axes)
