"""Exhaustive and sampled verification of tree-submodularity inequalities.

Each checker tests inequalities of the shape

    f(x) + f(y) >= f(op1(x, y)) + f(op2(x, y))

over pairs of labelings, for a family of componentwise operation pairs.
A family is a list of (d, op) members, op giving both labels per
coordinate; a pair violates the property when it violates any member:

* ``check_strong``       -- one member, midpoint meet/join;
* ``check_weak``         -- one member, wedge/vee (highest common
                            ancestor pair), the d = 0 up/down member;
                            on chain products an exhaustive check reads
                            the table's 2x2 squares first;
* ``check_translation``  -- the directed d-step family, one member per
                            d >= 0 (a pair's scan ends once every
                            coordinate saturates, by d = rho_inf(x, y));
                            on chain products an exhaustive check runs
                            the strong pass first;
* ``check_multimorphism``-- one member of arbitrary per-tree tables.

All four run through one pair checker.  Exhaustive mode enumerates pairs
in (rank(x), rank(y)) lexicographic order and reports the first
violation, with the members tried in list order, so witnesses are stable
across runs and implementations.  Sampled mode draws pairs i.i.d.
uniform by rank from a seeded stream; it proves nothing and its report
says so.

On a chain, rooted at an endpoint, wedge/vee are the shallower and the
deeper label, so on a product of chains weak is lattice submodularity
with each axis read in depth order.  That holds exactly when every 2x2
square f(z + e_i) + f(z + e_j) >= f(z) + f(z + e_i + e_j) does, for
every coordinate pair i < j (Topkis 1978; the proof is in
``_squares_hold``): under |D| * n(n-1)/2 squares in place of |D|^2
pairs, 2,430 against 10^6 on chain10^3.  An exhaustive weak check on
chains decides a holding table from its squares alone.  Each square is
a pair of the weak family, so a failing one is a real violation; the
pair pass then runs as before for the first witness, and reports do not
change.

An exhaustive strong, weak or translation check of a ``SumOfTerms``
first decides each of the sum's host tables (``SumOfTerms._reads``), an
array over its own scope's trees, by the same array pass the full check
makes, without replaying a witness.  The inequality is linear in f and
every op acts one coordinate at a time, so for each pair f's side f(x) +
f(y) - f(op1) - f(op2) is the sum of the same difference of each host at
the pair's labels on its scope: when every host holds, so does f, and
the report is the one the full pass gives, counting all |D|^2 pairs,
without f being materialized.  A failing host proves nothing about the
sum; the host pass stops at it and the full pass runs on the
materialized f, so reports and witnesses do not change.  The pair budget
of f's domain is enforced first either way.  A sum with a host over
every variable is that host and takes the full pass alone; sampled mode
and ``check_multimorphism`` read no host.

Ops map label pairs.  A coordinate op is a list of groups (tree, map,
columns), one per distinct tree (per coordinate for op tables); a map
reads the pairs of its columns as ``trees.Paths``, whose path walk runs
once and is kept for every member of the family, so the d-step members
share one walk per tree.  ``_apply`` runs each group once over its
columns of a block of label rows: drawn pairs in sampled mode, or one
flagged pair for its exact replay.  Exhaustive op tables come from each
group's map on its tree's index grid, walked once per check.

Costs are integers, so verdicts are exact.  An exhaustive check takes a
vectorized pass that walks rank(x) in row blocks of at most
``_BLOCK_CELLS`` pairs and stops at the first block holding a
violation.  Each side of a member gets two half-rank tables, built once
per check: split the coordinates into A, the first h, and B, the rest;
TA[rank(x_A)] holds the A part of rank(op(x, y)) for every y_A, and
TB[rank(x_B)] the B part for every y_B, so a block's op ranks are two
row gathers and one add.  The pass's arrays hold the blocks and
|D_A|^2 + |D_B|^2 ranks per side (10,100 at chain10^3, 6,642 at
star3^6), besides the op tables: about 0.7 MB of traced memory at
|D| = 1000.  When each member's violating pairs are closed under the
mirror (x, y) -> (y, x), the first violating pair has rank(x) <= rank(y),
and each block compares its rows only with the y whose first label is
at least that of its first row, about half of all pairs, flagging the
same first pair as the full scan.  A member is mirror-closed when every
coordinate's tables are symmetric, so op(y, x) = op(x, y) (meet/join,
wedge/vee), or when every coordinate's first table is the transpose of
its second, so op(y, x) is op(x, y) with its two labelings swapped
(up/down at d = 1 on star3, the projections); either way the pair and
its mirror compare the same two sums.  Reports still count the |D|^2
ordered pairs.  The values' size picks the arrays' dtype: int64 when
every sum of two costs fits, else object, whose cells are exact Python
ints; the pass is the same code on either.  The pass only flags the
first violating pair, and its witness comes from the exact replay.

A member that maps every label pair (a, b) of some coordinates S to
(b, a), but not of the rest R, is decided whole before the pass.  With
(u, v) its labels on R, f(x) + f(y) >= f(y_S, u) + f(x_S, v) splits into
a term in x_S and one in y_S, so the member holds for every pair exactly
when M[x_R, v] + M[y_R, u] >= 0 for every R pair, where M[p, q] is the
minimum over z_S of f(z_S, p) - f(z_S, q).  That takes |D| * |R|
differences and |R|^2 comparisons in place of |D|^2 pairs, and is done
while the |R|^2 cells fit one block; its sums span four values, so four
times the largest |value| picks its dtype.  A member proven to hold
leaves the pass, and one that fails stays in it, so the pass flags the
same first pair.  In the d-step family these are the members with d at
or past the diameter of some trees but not all: d = 4..8 on
bintree7^2 x chain10, where 4 of 9 members are left to scan.

Sampled mode builds no tables.  It draws its pairs in blocks of 2^10
and takes each block through the family as arrays, one call per group
and member, over one path walk per group and block.  A pair leaves the
pass at the first member that swaps it or that it violates, its walk
leaving with it, and both sides of every comparison come from one
batched oracle call (``CostFunction.values_at``).  The pass stops at the
first block holding a violation, so its arrays hold O(2^10 * n) labels
whatever the sample count; the first violating sample is replayed
exactly for its witness.  Its ranks are 64-bit ints, so it is the one
layer that bounds the domain: above 2^62 labelings it refuses (exit 3),
whatever the budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BudgetExceededError, DomainError, InternalError
from .functions import (
    DEFAULT_PAIR_BUDGET,
    CostFunction,
    Labeling,
    ProductDomain,
    SumOfTerms,
    materialize,
    own_domain,
    require_budget,
    sum_dtype,
)
from .rng import SplitMix64
from .trees import Paths, RootedTree, int_argument, meet_join_paths, plain_int, up_down_paths
# These four scalar names stay only for perfbench/tracer.py, which patches them here.
from .trees import meet_join, rho, up_down, wedge_vee  # noqa: F401

# Pairs per row block of the vectorized path.  2^14 8-byte cells are
# 128 KiB, glibc's default mmap threshold, so the allocator reuses heap
# memory for a block.  Larger block temporaries are mapped or trimmed
# and faulted in afresh on every allocation, and those page faults cost
# more than the numpy work of the block.  A row longer than 2^14 cells
# (|D| > 16,384, within reach only under a raised TREESUB_BUDGET) is
# still larger than the threshold.
_BLOCK_CELLS = 1 << 14

# Drawn pairs per block of a sampled check: each block takes a fixed
# amount of memory, and 1,000 samples, the default, take one block.
_SAMPLE_PAIRS = 1 << 10


@dataclass(frozen=True)
class ViolationWitness:
    """A pair (and step count, where applicable) violating an inequality.

    ``lhs`` and ``rhs`` are integers in units of the function's
    denominator, with lhs < rhs exactly: lhs = f(x) + f(y) and
    rhs = f(op1) + f(op2).
    """

    property_name: str
    x: Labeling
    y: Labeling
    d: int | None
    lhs: int
    rhs: int


@dataclass(frozen=True)
class CheckReport:
    """Structured verdict of one checker run."""

    property_name: str
    mode: str
    ok: bool
    witness: ViolationWitness | None
    pairs_checked: int
    note: str = ""


OpTable = list[list[int]]
# A coordinate op is a list of groups (tree, map, columns): the map takes
# the label pairs (a, b) of those columns, as ``trees.Paths`` on their
# tree, to (op1(a, b), op2(a, b)).  The members of a family share each
# group's Paths, so a tree's paths are walked once for every d.
CoordOp = list[tuple[RootedTree, Callable[[Paths], tuple[np.ndarray, np.ndarray]], list[int]]]
# Members (d, op); d is None outside the d-step family.  Members are
# ordered so that once one maps a pair (x, y) to (y, x), every later
# member does too: the rest of the family holds with equality there.
OpFamily = list[tuple[int | None, CoordOp]]
# a property's family on a domain: its builder, and the predicate on the
# array pass's grid (``_flagged_pair``) that is true exactly when the
# family holds, or None
FamilySpec = Callable[[ProductDomain], tuple[Callable[[], OpFamily], Callable[[np.ndarray], bool] | None]]


def _tree_groups(domain: ProductDomain) -> list[tuple[RootedTree, list[int]]]:
    """Each distinct tree and the coordinates holding it."""
    return [(t, [i for i, u in enumerate(domain.trees) if u == t]) for t in dict.fromkeys(domain.trees)]


def _tree_op(groups: list[tuple[RootedTree, list[int]]], op, *args) -> CoordOp:
    """The paths op on each distinct tree of ``_tree_groups``."""
    return [(t, lambda p: op(p, *args), cols) for t, cols in groups]


def _table_op(domain: ProductDomain, first: list[OpTable], second: list[OpTable]) -> CoordOp:
    tables = [(np.asarray(f), np.asarray(s)) for f, s in zip(first, second)]
    return [(domain.trees[i], lambda p, f=f, s=s: (f[p.a, p.b], s[p.a, p.b]), [i])
            for i, (f, s) in enumerate(tables)]


class _PairRows:
    """Rows of label pairs (x, y), and the paths of each group's columns,
    walked on first use and kept for every member that reads them."""

    def __init__(self, x: np.ndarray, y: np.ndarray, paths: dict | None = None):
        self.x, self.y = x, y
        self._paths = {} if paths is None else paths

    def paths(self, tree: RootedTree, cols: list[int]) -> Paths:
        key = tuple(cols)
        if key not in self._paths:
            self._paths[key] = Paths(tree, self.x[:, cols], self.y[:, cols])
        return self._paths[key]

    def take(self, rows: np.ndarray) -> _PairRows:
        """The rows ``rows``, with the paths walked so far."""
        return _PairRows(self.x[rows], self.y[rows], {k: p.take(rows) for k, p in self._paths.items()})


def _apply(op: CoordOp, pairs: _PairRows) -> tuple[np.ndarray, np.ndarray]:
    """Both labelings of op(x, y) for each row of the pairs, from one call
    per group."""
    first, second = np.empty_like(pairs.x), np.empty_like(pairs.x)
    for tree, m, cols in op:
        first[:, cols], second[:, cols] = m(pairs.paths(tree, cols))
    return first, second


def _build_tables(domain: ProductDomain, op: CoordOp, grids: dict[RootedTree, Paths]):
    """Both op tables per coordinate, and whether they map every label pair
    (a, b) to (b, a), from one call per group on its tree's index grid.

    ``grids`` keeps each tree's grid paths, so the members of a family walk
    them once.  An up/down at or past a tree's diameter hands back the
    grids themselves, which needs no comparison to be known as swapping.
    """
    tables = {}
    for tree, m, cols in op:
        if tree not in grids:
            grids[tree] = Paths(tree, *np.indices((tree.node_count,) * 2))
        p = grids[tree]
        first, second = m(p)
        swapped = ((first is p.b and second is p.a)
                   or (np.array_equal(first, p.b) and np.array_equal(second, p.a)))
        tables.update(dict.fromkeys(cols, (first, second, swapped)))
    first, second, swapped = zip(*(tables[i] for i in range(domain.n)))
    return list(first), list(second), list(swapped)


def _listed_tables(domain: ProductDomain, op, *args) -> tuple[list[OpTable], list[OpTable]]:
    first, second, _ = _build_tables(domain, _tree_op(_tree_groups(domain), op, *args), {})
    return [t.tolist() for t in first], [t.tolist() for t in second]


def meet_join_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, meet_join_paths)


def wedge_vee_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, up_down_paths, 0)


def projection_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    """op1 returns the first argument, op2 the second; always a multimorphism."""
    return _listed_tables(domain, lambda p: (p.a, p.b))


def min_max_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    """Depth-wise min/max tables; only chains order their labels totally."""
    for i, t in enumerate(domain.trees):
        if not t.is_chain():
            raise DomainError(f"min/max tables need chain trees; tree {i} is not")
    # on a chain the wedge is the shallower label and the vee the deeper
    return wedge_vee_tables(domain)


def _validate_tables(domain: ProductDomain, tables: list[OpTable], which: str) -> None:
    if len(tables) != domain.n:
        raise DomainError(f"{which}: got {len(tables)} tables for {domain.n} trees")
    for i, (t, table) in enumerate(zip(domain.trees, tables)):
        n = t.node_count
        if len(table) != n or any(len(row) != n for row in table):
            raise DomainError(f"{which}: table {i} is not {n}x{n}")
        for row in table:
            for v in row:
                if not 0 <= plain_int(v, -1) < n:
                    raise DomainError(f"{which}: table {i} holds invalid label {v!r}")


def _require_exhaustible(size: int) -> None:
    require_budget(size * size, DEFAULT_PAIR_BUDGET,
                   f"domain size {size}: {size * size} pairs exceed budget {{limit}}; "
                   "raise TREESUB_BUDGET or use sampled mode")


def _digits(domain: ProductDomain, ranks: np.ndarray) -> np.ndarray:
    """The labeling of each rank, one row per rank."""
    return np.stack(np.unravel_index(ranks, domain.cardinalities()), axis=1)


def _first_violation(
    f: CostFunction, family: OpFamily, x: Labeling, y: Labeling, name: str
) -> ViolationWitness | None:
    """Exact scan of one pair through the family's members, in list order.

    The scan stops at the first member that maps the pair to (y, x): that
    member and every later one hold with equality.
    """
    lhs = f.evaluate(x) + f.evaluate(y)
    pairs = _PairRows(np.array([x]), np.array([y]))
    for d, op in family:
        first, second = (tuple(z[0].tolist()) for z in _apply(op, pairs))
        if first == y and second == x:
            break
        rhs = f.evaluate(first) + f.evaluate(second)
        if lhs < rhs:
            return ViolationWitness(name, x, y, d, lhs, rhs)
    return None


def _half_tables(cards: list[int], tables: list[np.ndarray], h: int) -> list[np.ndarray]:
    """The two half-rank tables of one side of a member, split before
    coordinate h.

    ``ta[rank(x_A)]`` holds, for every y_A, the rank of the labeling that
    holds op(x, y) on the coordinates A below h and 0 elsewhere, shaped
    (c_0, ..., c_{h-1}); ``tb[rank(x_B)]`` holds the same for the other
    coordinates B, shaped (c_h, ..., c_{n-1}).  So rank(op(x, y)) is
    ta[rank(x_A)][y_A] + tb[rank(x_B)][y_B].  A side with no coordinates
    is one rank, 0.
    """
    halves = []
    for part in (range(h), range(h, len(cards))):
        k = len(part)
        half = np.zeros((1,) * 2 * k, dtype=np.intp)
        for j, i in enumerate(part):
            # x_i on axis j and y_i on axis k + j, scaled by i's rank stride
            axes = [1] * 2 * k
            axes[j] = axes[k + j] = cards[i]
            half = half + tables[i].reshape(axes) * math.prod(cards[i + 1:])
        halves.append(half.reshape([-1] + [cards[i] for i in part]))
    return halves


def _split_cost(cards: list[int], h: int) -> int:
    """The half tables' ranks, |D_A|^2 + |D_B|^2, plus the inner loops of
    a scan's rank adds, |D| * |D_A|: a block's add runs one loop over the
    y_B per row and y_A, and numpy's cost per loop outweighs its cost per
    cell while the loops are short."""
    a, b = math.prod(cards[:h]), math.prod(cards[h:])
    return a * a + b * b + a * a * b


def _block_ranks(halves: list[np.ndarray], xa: np.ndarray, xb: np.ndarray, lo: int) -> np.ndarray:
    """Ranks of op(x, y) for the block's rows x, given as rank(x_A) and
    rank(x_B), and every y whose first label is at least lo, as a
    ``(rows, c_0 - lo, c_1, ..., c_{n-1})`` array whose C order is rank(y)
    order: two row gathers and one add."""
    ta, tb = halves
    return (ta[xa, lo:][(...,) + (None,) * (tb.ndim - 1)]
            + tb[xb][(slice(None),) + (None,) * (ta.ndim - 1)])


def _mirror_closed(first: list[np.ndarray], second: list[np.ndarray]) -> bool:
    """Whether a member's violating pairs are closed under the mirror
    (x, y) -> (y, x).

    When every coordinate's tables are symmetric, op(y, x) = op(x, y); when
    every coordinate has first.T == second, op(y, x) is op(x, y) with its
    two labelings swapped.  Either way f(op1) + f(op2) is the same sum for
    (x, y) and (y, x), and so is f(x) + f(y).  A mix of the two kinds over
    the coordinates is neither.
    """
    tables = {(id(f), id(s)): (f, s) for f, s in zip(first, second)}.values()
    return (all((f == f.T).all() and (s == s.T).all() for f, s in tables)
            or all((f.T == s).all() for f, s in tables))


def _split_holds(grid: np.ndarray, first: list[np.ndarray], second: list[np.ndarray],
                 swapped: list[bool]) -> bool:
    """Whether a member holds for every pair, decided over its unswapped
    coordinates alone.

    With S the swapped coordinates, R the rest and (u, v) the member's
    labels on R, the inequality f(x) + f(y) >= f(y_S, u) + f(x_S, v)
    splits into a term in x_S and one in y_S, so it holds for every pair
    exactly when M[x_R, v] + M[y_R, u] >= 0 for every R pair, where
    M[p, q] is the minimum over z_S of f(z_S, p) - f(z_S, q).  M is a
    running minimum over blocks of z_S rows of at most ``_BLOCK_CELLS``
    differences; its sums span four values, so four times the largest
    |value| picks their dtype (``sum_dtype``).
    """
    keep = [i for i, s in enumerate(swapped) if not s]
    cards = [grid.shape[i] for i in keep]
    r = math.prod(cards)
    grid = grid.astype(sum_dtype(4 * int(abs(grid).max())), copy=False)
    g = grid.transpose([i for i, s in enumerate(swapped) if s] + keep).reshape(-1, r)
    rows = max(1, _BLOCK_CELLS // (r * r))
    m = None
    for start in range(0, len(g), rows):
        block = g[start:start + rows]
        least = (block[:, :, None] - block[:, None, :]).min(axis=0)
        m = least if m is None else np.minimum(m, least, out=m)
    # the R ranks of u and v for every R pair, rank(x_R) by rank(y_R)
    pairs = [(a[:, None], a[None, :]) for a in np.unravel_index(np.arange(r), cards)]
    u = np.ravel_multi_index([first[i][a, b] for i, (a, b) in zip(keep, pairs)], cards)
    v = np.ravel_multi_index([second[i][a, b] for i, (a, b) in zip(keep, pairs)], cards)
    ranks = np.arange(r)
    return bool((m[ranks[:, None], v] + m[ranks[None, :], u] >= 0).all())


def _candidate_pairs(grid: np.ndarray, domain: ProductDomain, family: OpFamily):
    """The first flagged rank pair (xr, yr) in (rank(x), rank(y)) order, or None.

    ``grid`` is f over the domain, as ``_flagged_pair`` takes it.  A
    vectorized pass walks rank(x) in row blocks of at most
    ``_BLOCK_CELLS`` pairs (one row when |D| exceeds it).  A block ORs
    every member's violations, up to the first member that swaps every
    pair, and the pass returns only the first flagged pair of the first
    block holding one: blocks run in rank(x) order and argmax scans a
    block in C order.

    The op tables come from one walk of each tree's paths
    (``_build_tables``), and each side of a scanned member from two
    half-rank tables built once, before the first block
    (``_half_tables``).  They split before the coordinate h, D_A being
    the product of the first h trees and D_B of the rest, that makes
    ``_split_cost`` least: the tables' |D_A|^2 + |D_B|^2 ranks plus the
    |D| * |D_A| inner loops of the scan's rank adds.  That is 10,100
    ranks on chain10^3 and 4,949 on bintree7^2 x chain10 (h = 1), and
    6,642 on star3^6 (h = 2).  A block's op ranks are then two row
    gathers and one add (``_block_ranks``).

    A member that swaps every label pair on some coordinates S but not
    on the rest R is first decided whole by ``_split_holds``, when the
    |R|^2 cells of its R pairs fit one block: |D| * |R| differences and
    |R|^2 comparisons in place of |D|^2 pairs.  A member proven to hold
    flags no pair, so the pass leaves it out and builds no half tables
    for it; one that fails stays, and the pass finds the same first pair
    as a scan of every member.  In the d-step family these are the
    members with d at or past the diameter of some trees but not all,
    such as d = 4..8 on bintree7^2 x chain10.

    When every scanned member's violating pairs are closed under the
    mirror (x, y) -> (y, x), the first violating pair has
    rank(x) <= rank(y), else its mirror would come first.  The rule is
    per member (``_mirror_closed``): every coordinate's tables symmetric,
    as meet/join and wedge/vee are, so op(y, x) = op(x, y); or every
    coordinate's first table the transpose of its second, as up/down at
    d = 1 on star3 and the projections are, so op(y, x) is op(x, y) with
    its labelings swapped; either way (y, x) compares the same two sums
    as (x, y).  A member mixing the two kinds over its coordinates is
    neither.  Then x_0 <= y_0, and a block scans only the y with y_0 at
    least the x_0 of its first row: about half the pairs.  The slice
    keeps rank(y) order, so the flagged pair is the full scan's.  Other
    families scan from y_0 = 0.  The report still counts all |D|^2
    ordered pairs.
    """
    size = domain.size()
    values = grid.reshape(-1)
    cards = domain.cardinalities()
    grids = {}
    members = []
    for _, op in family:
        first, second, swapped = _build_tables(domain, op, grids)
        if all(swapped):
            break  # the member maps every pair (x, y) to (y, x)
        free = math.prod(c for c, s in zip(cards, swapped) if not s)
        if any(swapped) and free * free <= _BLOCK_CELLS and _split_holds(grid, first, second, swapped):
            continue  # the member holds for every pair
        members.append((first, second))
    if not members:
        return None
    mirrored = all(_mirror_closed(first, second) for first, second in members)
    h = min(range(1, domain.n + 1), key=lambda h: _split_cost(cards, h))
    halves = [[_half_tables(cards, side, h) for side in member] for member in members]
    xa, xb = np.divmod(np.arange(size), math.prod(cards[h:]))
    rows = max(1, _BLOCK_CELLS // size)
    for start in range(0, size, rows):
        stop = min(start + rows, size)
        lo = start // (size // cards[0]) if mirrored else 0
        lhs = values[start:stop].reshape((-1,) + (1,) * domain.n) + grid[lo:]
        viol = None
        for first, second in halves:
            member = lhs < (values[_block_ranks(first, xa[start:stop], xb[start:stop], lo)]
                            + values[_block_ranks(second, xa[start:stop], xb[start:stop], lo)])
            viol = member if viol is None else np.logical_or(viol, member, out=viol)
        if viol.any():
            # the block scanned the last viol[0].size ranks of y
            row, col = divmod(int(np.argmax(viol)), viol[0].size)
            return start + row, size - viol[0].size + col
    return None


def _flagged_sample(f: CostFunction, domain: ProductDomain, family: OpFamily,
                    samples: int, seed: int):
    """The first drawn pair that violates a member, as (s, x, y) for
    sample index s, or None.

    Pairs are drawn as rank(x) then rank(y) per sample from
    ``SplitMix64(seed)``, in blocks of ``_SAMPLE_PAIRS``; the draws are
    the same whatever the blocks.  A block walks the members in list
    order; a pair leaves at the first member that maps it to (y, x),
    where ``_first_violation`` stops, or that it violates.  Pairs after a
    flagged one leave too, since only the first counts.  The first member
    reads f(x) and f(y) in the same oracle call as its own two labelings.
    """
    size = domain.size()
    rng = SplitMix64(seed)
    for start in range(0, samples, _SAMPLE_PAIRS):
        count = min(_SAMPLE_PAIRS, samples - start)
        digs = _digits(domain, rng.below_array(size, 2 * count))
        x, y = digs[0::2], digs[1::2]
        rows = np.arange(count)
        live = _PairRows(x, y)
        lhs = None
        flagged = count
        for _, op in family:
            if not len(rows):
                break
            xs, ys = live.x, live.y
            first, second = _apply(op, live)
            unswapped = ~((first == ys).all(axis=1) & (second == xs).all(axis=1))
            rows, first, second = rows[unswapped], first[unswapped], second[unswapped]
            k = len(rows)
            if lhs is None:
                vals = f.values_at(np.concatenate((xs[unswapped], ys[unswapped], first, second)))
                lhs, vals = vals[:k] + vals[k:2 * k], vals[2 * k:]
            else:
                lhs = lhs[unswapped]
                vals = f.values_at(np.concatenate((first, second)))
            viol = lhs < vals[:k] + vals[k:]
            if viol.any():
                flagged = int(rows[np.argmax(viol)])
            keep = ~viol & (rows < flagged)
            rows, lhs = rows[keep], lhs[keep]
            live = live.take(np.flatnonzero(unswapped)[keep])
        if flagged < count:
            return start + flagged, tuple(x[flagged].tolist()), tuple(y[flagged].tolist())
    return None


def _squares_hold(grid: np.ndarray, domain: ProductDomain) -> bool:
    """Whether every 2x2 square of f's grid, each axis read in depth
    order, is submodular: on a product of chains, whether weak holds.

    A chain is rooted at an endpoint, so its wedge and vee are the
    shallower and the deeper label, and read by depth the weak inequality
    is lattice submodularity on a product of chains.  For every pair of
    coordinates i < j, neighbours or not, and every z with z + e_i + e_j
    in the box, the square asks f(z + e_i) + f(z + e_j) >= f(z) +
    f(z + e_i + e_j): one slice expression over all z.

    Each square is a pair of the weak family, (z + e_i, z + e_j) having
    wedge z and vee z + e_i + e_j, so a failing square is a violation.
    Conversely, let every square hold, and take x and y with
    I = {i : x_i > y_i} and J = {j : x_j < y_j}.  With m = x ^ y, write
    F(u, v) = f(m + u + v) for u between 0 and x - m (nonzero on I only)
    and v between 0 and y - m (on J only), so m + u + v stays in the box.
    The square on i in I and j in J (so i != j) at z = m + u + v says a
    unit step u -> u + e_i gains no more at v + e_j than at v; chained
    along a path raising v from 0 to y - m, the step gains no more at
    v = y - m than at v = 0.  Summing the steps of a path raising u from
    0 to x - m gives F(x - m, y - m) - F(0, y - m) <= F(x - m, 0) - F(0, 0),
    that is f(x v y) - f(y) <= f(x) - f(m), the weak inequality for (x, y)
    (Topkis, "Minimizing a submodular function on a lattice", Operations
    Research 26(2), 1978).  A domain with at most one chain of two or more
    labels, arity 1 among them, has no squares, and every table holds.
    """
    grid = grid[np.ix_(*(np.argsort(t.depth) for t in domain.trees))]
    for i in range(domain.n):
        for j in range(i + 1, domain.n):
            g = np.moveaxis(grid, (i, j), (0, 1))  # z_i and z_j on the first two axes
            if (g[:-1, :-1] + g[1:, 1:] > g[1:, :-1] + g[:-1, 1:]).any():
                return False
    return True


def _hosts_hold(f: CostFunction, spec: FamilySpec, name: str) -> bool:
    """Whether f is a ``SumOfTerms`` whose every host table holds the
    family that ``spec`` builds on the product of its scope's trees.

    Each host of ``SumOfTerms._reads``, already an exact array, is
    widened as ``_flagged_pair`` asks and decided by it alone; no witness
    is replayed, and ``all`` stops at the first host that fails.  A sum
    with a host over every variable is that host, so it is refused
    unchecked: its check would be the full pass.
    """
    if not isinstance(f, SumOfTerms):
        return False
    reads = f._reads()
    if any(len(scope) == f.domain.n for _, _, scope in reads):
        return False
    trees = f.domain.trees
    return all(_flagged_pair(np.asarray(table, dtype=sum_dtype(2 * int(abs(table).max()))),
                             ProductDomain([trees[i] for i in scope]), spec, name) is None
               for _, table, scope in reads)


def _flagged_pair(grid: np.ndarray, domain: ProductDomain, spec: FamilySpec, name: str):
    """The first pair of ranks the array pass flags on ``grid``, with the
    family it ran, or None when the family holds there.

    ``grid`` is f over ``domain``, shaped by its node counts, in the
    dtype that holds a sum of two of its values (``sum_dtype``).

    ``spec(domain)`` gives the family's builder and its ``equivalent``
    predicate, or None.  The predicate is asked first and decides a
    holding grid alone; when it says no, the family's own pass
    (``_candidate_pairs``) finds the pair, and a family that holds there
    is a fault.
    """
    build_family, equivalent = spec(domain)
    if equivalent is not None and equivalent(grid):
        return None
    family = build_family()
    pair = _candidate_pairs(grid, domain, family)
    if pair is None:
        if equivalent is not None:
            raise InternalError(f"{name} check: the equivalent family fails, "
                                "but the family itself holds")
        return None
    return family, pair


def _pair_check(
    f: CostFunction,
    domain: ProductDomain,
    spec: FamilySpec,
    name: str,
    mode: str,
    samples: int,
    seed: int,
    note: str = "",
    hosts: bool = False,
) -> CheckReport:
    """Check f(x)+f(y) >= f(op1)+f(op2) for every member of the family.

    ``spec(domain)`` gives ``(build_family, equivalent)``; it runs only
    once the mode, sample count and pair budget (in sampled mode, at
    most 2**62 labelings) are accepted, and ``build_family`` only when a
    pass needs the family.  ``note`` is attached to exhaustive reports;
    sampled reports carry their own note saying how far the search went.  Both modes find the first violating
    pair with an array pass and replay it through ``_first_violation``
    for its witness: exhaustive mode over every pair in rank order
    (``_flagged_pair``), sampled mode over the drawn pairs in draw order
    (``_flagged_sample``).

    ``equivalent`` is a predicate on the materialized grid, true exactly
    when the family holds on it: on chain products, the strong pass for
    the translation family (``check_translation``) and the 2x2 squares
    for weak (``_squares_hold``).  Exhaustive mode asks it first and
    reports a holding family from its answer alone; when it says no, the
    family's own pass finds the witness, and a family that holds there is
    a fault.  Sampled mode never asks it.

    With ``hosts``, when f is a ``SumOfTerms``, exhaustive mode first
    decides each host table by the same array pass (``_hosts_hold``) and,
    when every host holds, reports the sum as holding without
    materializing it.  That is sound because the inequality is linear in
    f and every member's ops act one coordinate at a time: for each
    pair, f's side f(x) + f(y) - f(op1) - f(op2) is the sum over hosts of
    the same difference on the host's coordinates, each of them a pair of
    the host's own domain.  A d-step member past a host's diameter swaps
    every pair of its coordinates, where the host's difference is 0.  A
    failing host proves nothing about the sum, so the pass below then
    runs on the materialized f as it would without the host pass, and
    the report and witness are the same.  The pair budget is enforced
    first either way, and a holding report still counts the |D|^2
    ordered pairs of f's domain.
    """
    size = domain.size()
    if mode == "exhaustive":
        _require_exhaustible(size)
        if hosts and _hosts_hold(f, spec, name):
            return CheckReport(name, "exhaustive", True, None, size * size, note)
        table = materialize(f)
        largest = max(map(abs, table.values))
        grid = np.asarray(table.values, dtype=sum_dtype(2 * largest)).reshape(domain.cardinalities())
        flagged = _flagged_pair(grid, domain, spec, name)
        if flagged is None:
            return CheckReport(name, "exhaustive", True, None, size * size, note)
        family, pair = flagged
        witness = _replay(table, family, *map(domain.unrank, pair), name)
        return CheckReport(name, "exhaustive", False, witness, size * size, note)
    if mode != "sampled":
        raise DomainError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")
    samples, seed = int_argument(samples, "samples"), int_argument(seed, "seed")
    if samples < 1:
        raise DomainError(f"sampled mode needs at least 1 sample, got {samples}")
    if size > 1 << 62:  # SplitMix64 draws ranks as uint64, and _digits decodes them as int64
        raise BudgetExceededError(f"domain size {size} exceeds the 2**62 guard of sampled mode")
    family = spec(domain)[0]()
    flagged = _flagged_sample(f, domain, family, samples, seed)
    if flagged is None:
        return CheckReport(
            name, "sampled", True, None, samples,
            note=f"no violation found in {samples} samples; not a proof",
        )
    s, x, y = flagged
    return CheckReport(
        name, "sampled", False, _replay(f, family, x, y, name), s + 1,
        note=f"violation found at sample {s + 1} of {samples}",
    )


def _replay(
    f: CostFunction, family: OpFamily, x: Labeling, y: Labeling, name: str
) -> ViolationWitness:
    """The witness of a pair the array pass flagged, from its exact replay;
    a replay that finds no violation is a fault of one of the two paths."""
    witness = _first_violation(f, family, x, y, name)
    if witness is None:
        raise InternalError(f"{name} check: the array pass flagged x = {x}, y = {y}, "
                            "but its exact replay finds no violation")
    return witness


def _strong_family(domain: ProductDomain) -> OpFamily:
    return [(None, _tree_op(_tree_groups(domain), meet_join_paths))]


def _strong_spec(domain: ProductDomain):
    return (lambda: _strong_family(domain)), None


def check_strong(
    f: CostFunction,
    domain: ProductDomain | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Verify f(x)+f(y) >= f(meet)+f(join) for componentwise midpoints."""
    domain = own_domain(f, domain)
    return _pair_check(f, domain, _strong_spec, "strong", mode, samples, seed, hosts=True)


def _weak_spec(domain: ProductDomain):
    chains = all(t.is_chain() for t in domain.trees)
    return ((lambda: [(None, _tree_op(_tree_groups(domain), up_down_paths, 0))]),
            (lambda t: _squares_hold(t, domain)) if chains else None)


def check_weak(
    f: CostFunction,
    domain: ProductDomain | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Verify f(x)+f(y) >= f(wedge)+f(vee), wedge/vee being up/down at d = 0.

    On a product of chains an exhaustive check reads the materialized
    table's 2x2 squares first (``_squares_hold``): read by depth, weak is
    lattice submodularity there, which holds exactly when every square
    does, so a holding table gets the report the pair pass would give
    from under |D| * n(n-1)/2 squares in place of |D|^2 pairs.  After a
    failing square the pair pass runs as before for the first witness.
    Branching trees, and sampled mode on any domain, take the pair pass
    alone.
    """
    domain = own_domain(f, domain)
    return _pair_check(f, domain, _weak_spec, "weak", mode, samples, seed, hosts=True)


def check_multimorphism(
    f: CostFunction,
    domain: ProductDomain | None = None,
    op_pair: tuple[list[OpTable], list[OpTable]] | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
    name: str = "multimorphism",
) -> CheckReport:
    """Verify the binary multimorphism inequality for arbitrary op tables."""
    domain = own_domain(f, domain)
    if op_pair is None:
        raise DomainError("check_multimorphism needs an op_pair of per-tree tables")
    try:
        op1, op2 = op_pair
    except (TypeError, ValueError):
        raise DomainError(f"op_pair = {op_pair!r} is not a pair of per-tree table lists") from None
    _validate_tables(domain, op1, "op1")
    _validate_tables(domain, op2, "op2")
    return _pair_check(f, domain, lambda d: ((lambda: [(None, _table_op(d, op1, op2))]), None),
                       name, mode, samples, seed)


def check_translation(
    f: CostFunction,
    domain: ProductDomain | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Verify the d-step inequality for every pair and every relevant d.

    The family holds one up/down member per d, ascending, up to the
    largest node count less one, which bounds every path length.  No
    per-pair cap on d is needed: once up_down maps a pair to (y, x) it
    does so for every larger d, and it does by d = rho_inf(x, y), so the
    shared scan of the pair ends there.  The witness carries the smallest
    violating d, which is below rho_inf(x, y), as a capped scan reports.

    On a product of chains an exhaustive check runs the strong pass
    first, on the materialized table: a holding one gives the report the
    d-scan would give, and after a failing one the d-scan runs as before
    for the first witness.  Branching trees, and sampled mode on any
    domain, scan the d-family alone.
    """
    domain = own_domain(f, domain)
    note = "d capped at rho_inf(x, y) per pair; all coordinates saturate beyond"
    return _pair_check(f, domain, _translation_spec, "translation", mode, samples, seed, note,
                       hosts=True)


def _translation_spec(domain: ProductDomain):
    steps = range(max(t.node_count for t in domain.trees))
    # Read by depth, a chain's labels are 0..n-1, meet_join(x, y) is
    # (floor((x+y)/2), ceil((x+y)/2)) and up_down(x, y, d) is
    # (min(y, x + d), max(y - d, x)).  So on a product of chains strong is
    # discrete midpoint convexity and the d-family is translation
    # submodularity with p = y, q = x, alpha = d, both over a box (f is
    # +inf outside it, and both ops map two box points into the box); the
    # two are equivalent (Murota, *Discrete Convex Analysis*, SIAM 2003,
    # Thm 7.7).  On a branching tree strong implies translation only by
    # experiment.
    chains = all(t.is_chain() for t in domain.trees)
    strong = (lambda t: _candidate_pairs(t, domain, _strong_family(domain)) is None) if chains else None
    return (lambda: _translation_family(domain, steps)), strong


def _translation_family(domain: ProductDomain, steps: range) -> OpFamily:
    groups = _tree_groups(domain)
    return [(d, _tree_op(groups, up_down_paths, d)) for d in steps]


def _property_checks() -> dict[str, Callable[..., CheckReport]]:
    """The checker of each property the CLI and the generators name, read
    from this module's attributes at each call, so a patched ``check_*``
    is the one that runs."""
    return {"strong": check_strong, "weak": check_weak, "translation": check_translation}

