"""Exhaustive and sampled verification of tree-submodularity inequalities.

Each checker tests inequalities of the shape

    f(x) + f(y) >= f(op1(x, y)) + f(op2(x, y))

over pairs of labelings, for a family of componentwise operation pairs.
A family is a list of (d, op) members, op giving both labels per
coordinate; a pair violates the property when it violates any member:

* ``check_strong``       -- one member, midpoint meet/join;
* ``check_weak``         -- one member, wedge/vee (highest common
                            ancestor pair), the d = 0 up/down member;
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

Ops map label arrays.  A coordinate op is a list of groups (map, columns),
one per distinct tree (per coordinate for op tables), and ``_apply`` runs
each group once over its columns of a block of label rows: drawn pairs
in sampled mode, or one flagged pair for its exact replay.  Exhaustive
op tables come from each group's map on its tree's index grid.

Costs are integers, so verdicts are exact.  An exhaustive check takes a
vectorized pass that walks rank(x) in row blocks of at most
``_BLOCK_CELLS`` pairs, building the ranks of op(x, y) by broadcasting
per-coordinate op table rows, and stops at the first block holding a
violation.  When every member's op tables are symmetric, as meet/join
and wedge/vee are, a pair and its mirror (y, x) violate together, so
the first violating pair has rank(x) <= rank(y); each block then
compares its rows only with the y whose first label is at least that of
its first row, about half of all pairs, and flags the same first pair
as the full scan.  Reports still count the |D|^2 ordered pairs.  The
values' size picks the arrays' dtype: int64 when every sum of two costs
fits, else object, whose cells are exact Python ints; the pass is the
same code on either.  Besides the op tables, its arrays hold
O(2^14 + |D|) elements whatever |D|, about 0.6 MB of traced memory at
|D| = 1000.  The pass only flags the first violating pair, and its
witness comes from the exact replay.

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
and member.  A pair leaves the pass at the first member that swaps it
or that it violates, and both sides of every comparison come from one
batched oracle call (``CostFunction.values_at``).  The pass stops at the
first block holding a violation, so its arrays hold O(2^10 * n) labels
whatever the sample count; the first violating sample is replayed
exactly for its witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, InternalError
from .functions import (
    DEFAULT_PAIR_BUDGET,
    CostFunction,
    Labeling,
    ProductDomain,
    DenseTable,
    materialize,
    own_domain,
    require_budget,
    sum_dtype,
)
from .rng import SplitMix64
from .trees import meet_join_array, plain_int, up_down_array
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
# A coordinate op is a list of groups (map, columns): the map takes label
# arrays a, b of one tree to (op1(a, b), op2(a, b)) for those columns.
CoordOp = list[tuple[Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]], list[int]]]
# Members (d, op); d is None outside the d-step family.  Members are
# ordered so that once one maps a pair (x, y) to (y, x), every later
# member does too: the rest of the family holds with equality there.
OpFamily = list[tuple[int | None, CoordOp]]


def _tree_op(domain: ProductDomain, op, *args) -> CoordOp:
    """The array op on each distinct tree, for the coordinates holding it."""
    return [(lambda a, b, t=t: op(t, a, b, *args), [i for i, u in enumerate(domain.trees) if u == t])
            for t in dict.fromkeys(domain.trees)]


def _table_op(first: list[OpTable], second: list[OpTable]) -> CoordOp:
    tables = [(np.asarray(f), np.asarray(s)) for f, s in zip(first, second)]
    return [(lambda a, b, f=f, s=s: (f[a, b], s[a, b]), [i]) for i, (f, s) in enumerate(tables)]


def _apply(op: CoordOp, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Both labelings of op(x, y) for each row of the label arrays x and y,
    from one call per group."""
    first, second = np.empty_like(x), np.empty_like(x)
    for m, cols in op:
        first[:, cols], second[:, cols] = m(x[:, cols], y[:, cols])
    return first, second


def _build_tables(domain: ProductDomain, op: CoordOp) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Both op tables per coordinate, from one call per group on its index grid."""
    tables = {}
    for m, cols in op:
        n = domain.trees[cols[0]].node_count
        tables.update(dict.fromkeys(cols, m(*np.indices((n, n)))))
    return [tables[i][0] for i in range(domain.n)], [tables[i][1] for i in range(domain.n)]


def _listed_tables(domain: ProductDomain, op, *args) -> tuple[list[OpTable], list[OpTable]]:
    tables = _build_tables(domain, _tree_op(domain, op, *args))
    return tuple([t.tolist() for t in side] for side in tables)


def meet_join_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, meet_join_array)


def wedge_vee_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, up_down_array, 0)


def projection_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    """op1 returns the first argument, op2 the second; always a multimorphism."""
    return _listed_tables(domain, lambda t, a, b: (a, b))


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
    for d, op in family:
        first, second = (tuple(z[0].tolist()) for z in _apply(op, np.array([x]), np.array([y])))
        if first == y and second == x:
            break
        rhs = f.evaluate(first) + f.evaluate(second)
        if lhs < rhs:
            return ViolationWitness(name, x, y, d, lhs, rhs)
    return None


def _scaled_tables(domain: ProductDomain, tables: list[np.ndarray]) -> list[np.ndarray]:
    """Per coordinate i, the rank of the labeling that holds the op table's
    label at i and 0 elsewhere, shaped so that ``t[x_i]`` broadcasts along
    the y axis of coordinate i."""
    cards = domain.cardinalities()
    out = []
    for i, tbl in enumerate(tables):
        axes = tuple(c if j == i else 1 for j, c in enumerate(cards))
        index = [0] * domain.n
        index[i] = tbl
        out.append(np.ravel_multi_index(index, cards).reshape((cards[i],) + axes))
    return out


def _block_ranks(scaled: list[np.ndarray], xdigs: np.ndarray, lo: int) -> np.ndarray:
    """Ranks of op(x, y) for the block's rows x and every y whose first
    label is at least lo, as a ``(rows, c_1 - lo, c_2, ..., c_n)`` array
    whose C order is rank(y) order."""
    # Last coordinate first, so every sum runs over long contiguous inner axes.
    ranks = None
    for i in range(len(scaled) - 1, -1, -1):
        term = scaled[i][xdigs[:, i]]
        if i == 0:
            term = term[:, lo:]
        ranks = term if ranks is None else term + ranks
    return ranks


def _swapped_coordinates(first: list[np.ndarray], second: list[np.ndarray]) -> list[bool]:
    """Per coordinate, whether the member's tables map every label pair
    (a, b) to (b, a)."""
    return [bool((f == np.arange(len(f))).all() and (s.T == np.arange(len(s))).all())
            for f, s in zip(first, second)]


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
    differences; ``grid``'s dtype must hold sums of four values.
    """
    keep = [i for i, s in enumerate(swapped) if not s]
    cards = [grid.shape[i] for i in keep]
    r = math.prod(cards)
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


def _candidate_pairs(table: DenseTable, domain: ProductDomain, family: OpFamily):
    """The first flagged rank pair (xr, yr) in (rank(x), rank(y)) order, or None.

    A vectorized pass walks rank(x) in row blocks of at most
    ``_BLOCK_CELLS`` pairs (one row when |D| exceeds it).  A block ORs
    every member's violations, up to the first member that swaps every
    pair, and the pass returns only the first flagged pair of the first
    block holding one: blocks run in rank(x) order and argmax scans a
    block in C order.  Both sides of a comparison are sums of two
    values, so twice the largest |value| picks the dtype (``sum_dtype``).

    A member that swaps every label pair on some coordinates S but not
    on the rest R is first decided whole by ``_split_holds``, when the
    |R|^2 cells of its R pairs fit one block: |D| * |R| differences and
    |R|^2 comparisons in place of |D|^2 pairs.  Its sums span four
    values, so four times the largest |value| picks that dtype.  A
    member proven to hold flags no pair, so the pass leaves it out and
    builds no scaled tables for it; one that fails stays, and the pass
    finds the same first pair as a scan of every member.  In the d-step
    family these are the members with d at or past the diameter of some
    trees but not all, such as d = 4..8 on bintree7^2 x chain10.

    When every scanned member's tables are symmetric, op(x, y) = op(y, x)
    and the violating pairs are closed under the mirror (x, y) -> (y, x).
    The first violating pair then has rank(x) <= rank(y), else its mirror
    would come first, so x_0 <= y_0, and a block scans only the y with
    y_0 at least the x_0 of its first row: about half the pairs.  The
    slice keeps rank(y) order, so the flagged pair is the full scan's.
    Other families (translation, whose up_down is not symmetric) scan
    from y_0 = 0.  The report still counts all |D|^2 ordered pairs.
    """
    size = domain.size()
    largest = max(map(abs, table.values))
    values = np.asarray(table.values, dtype=sum_dtype(2 * largest))
    cards = domain.cardinalities()
    grid = values.reshape(cards)
    wide = grid.astype(sum_dtype(4 * largest), copy=False)
    tables = []
    for _, op in family:
        first, second = _build_tables(domain, op)
        swapped = _swapped_coordinates(first, second)
        if all(swapped):
            break  # the member maps every pair (x, y) to (y, x)
        free = math.prod(c for c, s in zip(cards, swapped) if not s)
        if any(swapped) and free * free <= _BLOCK_CELLS and _split_holds(wide, first, second, swapped):
            continue  # the member holds for every pair
        tables.append((first, second))
    if not tables:
        return None
    symmetric = all((f == f.T).all() and (s == s.T).all()
                    for first, second in tables for f, s in zip(first, second))
    members = [(_scaled_tables(domain, first), _scaled_tables(domain, second))
               for first, second in tables]
    digs = _digits(domain, np.arange(size, dtype=np.int64))
    rows = max(1, _BLOCK_CELLS // size)
    for start in range(0, size, rows):
        xdigs = digs[start:start + rows]
        lo = int(xdigs[0, 0]) if symmetric else 0
        lhs = values[start:start + rows].reshape((-1,) + (1,) * domain.n) + grid[lo:]
        viol = None
        for first, second in members:
            member = lhs < (values[_block_ranks(first, xdigs, lo)]
                            + values[_block_ranks(second, xdigs, lo)])
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
        lhs = None
        flagged = count
        for _, op in family:
            if not len(rows):
                break
            xs, ys = x[rows], y[rows]
            first, second = _apply(op, xs, ys)
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
        if flagged < count:
            return start + flagged, tuple(x[flagged].tolist()), tuple(y[flagged].tolist())
    return None


def _pair_check(
    f: CostFunction,
    domain: ProductDomain,
    build_family: Callable[[], OpFamily],
    name: str,
    mode: str,
    samples: int,
    seed: int,
    note: str = "",
    equivalent: Callable[[], OpFamily] | None = None,
) -> CheckReport:
    """Check f(x)+f(y) >= f(op1)+f(op2) for every member of the family.

    ``build_family`` runs only once the mode, sample count and pair
    budget are accepted.  ``note`` is attached to exhaustive reports;
    sampled reports carry their own note saying how far the search went.
    Both modes find the first violating pair with an array pass and
    replay it through ``_first_violation`` for its witness: exhaustive
    mode over every pair in rank order (``_candidate_pairs``), sampled
    mode over the drawn pairs in draw order (``_flagged_sample``).

    ``equivalent`` builds a family that every f on this domain satisfies
    exactly when it satisfies the family itself.  Exhaustive mode then
    passes the materialized table through it first and reports a holding
    family from that pass alone; when it fails, the family's own pass
    finds the witness, and a family that holds there is a fault.
    Sampled mode never reads it.
    """
    size = domain.size()
    if mode == "exhaustive":
        _require_exhaustible(size)
        table = materialize(f)
        if equivalent is not None and _candidate_pairs(table, domain, equivalent()) is None:
            return CheckReport(name, "exhaustive", True, None, size * size, note)
        family = build_family()
        pair = _candidate_pairs(table, domain, family)
        if pair is None:
            if equivalent is not None:
                raise InternalError(f"{name} check: the equivalent family fails, "
                                    "but the family itself holds")
            return CheckReport(name, "exhaustive", True, None, size * size, note)
        witness = _replay(table, family, *map(domain.unrank, pair), name)
        return CheckReport(name, "exhaustive", False, witness, size * size, note)
    if mode != "sampled":
        raise DomainError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")
    if samples < 1:
        raise DomainError(f"sampled mode needs at least 1 sample, got {samples}")
    family = build_family()
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
    return [(None, _tree_op(domain, meet_join_array))]


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
    return _pair_check(f, domain, lambda: _strong_family(domain), "strong", mode, samples, seed)


def check_weak(
    f: CostFunction,
    domain: ProductDomain | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Verify f(x)+f(y) >= f(wedge)+f(vee), wedge/vee being up/down at d = 0."""
    domain = own_domain(f, domain)
    return _pair_check(f, domain, lambda: [(None, _tree_op(domain, up_down_array, 0))],
                       "weak", mode, samples, seed)


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
    op1, op2 = op_pair
    _validate_tables(domain, op1, "op1")
    _validate_tables(domain, op2, "op2")
    return _pair_check(f, domain, lambda: [(None, _table_op(op1, op2))],
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
    steps = range(max(t.node_count for t in domain.trees))
    note = "d capped at rho_inf(x, y) per pair; all coordinates saturate beyond"
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
    return _pair_check(f, domain, lambda: [(d, _tree_op(domain, up_down_array, d)) for d in steps],
                       "translation", mode, samples, seed, note,
                       equivalent=(lambda: _strong_family(domain)) if chains else None)


def _property_checks() -> dict[str, Callable[..., CheckReport]]:
    """The checker of each property the CLI and the generators name, read
    from this module's attributes at each call, so a patched ``check_*``
    is the one that runs."""
    return {"strong": check_strong, "weak": check_weak, "translation": check_translation}

