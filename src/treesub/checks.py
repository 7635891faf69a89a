"""Exhaustive and sampled verification of tree-submodularity inequalities.

Each checker tests inequalities of the shape

    f(x) + f(y) >= f(op1(x, y)) + f(op2(x, y))

over pairs of labelings, for a family of componentwise operation pairs.
A family is a list of (d, op) members, op giving both labels per
coordinate; a pair violates the property when it violates any member:

* ``check_strong``       -- one member, midpoint meet/join;
* ``check_weak``         -- one member, wedge/vee (highest common
                            ancestor pair);
* ``check_translation``  -- the directed d-step family, one member per
                            d >= 0 (a pair's scan ends once every
                            coordinate saturates, by d = rho_inf(x, y));
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
vectorized pass that walks rank(x) in row blocks of at most 2^14 pairs,
building the ranks of op(x, y) by broadcasting per-coordinate op table
rows, and stops at the first block holding a violation.  The values'
size picks the arrays' dtype: int64 when every sum of two costs fits,
else object, whose cells are exact Python ints; the pass is the same
code on either.  Besides the op tables, its arrays hold O(2^14 + |D|)
elements whatever |D|, about 0.6 MB of traced memory at |D| = 1000.  A
block array of 2^14 8-byte cells is 128 KiB, glibc's default mmap
threshold, so the allocator reuses heap memory for it; larger arrays
were mapped or trimmed and faulted in afresh on every allocation.  A row
longer than 2^14 cells (|D| > 16,384, within reach only under a raised
TREESUB_BUDGET) is still larger than the threshold.  The pass only flags
the first violating pair, and its witness comes from the exact replay.

Sampled mode builds no tables.  It draws its pairs in blocks of at most
2^10 and takes each block through the family as arrays, one call per
group and member.  A pair leaves the pass at the first member that swaps
it or that it violates, and both sides of every comparison come from one
batched oracle call (``CostFunction.values_at``).  The pass stops at the
first block holding a violation, so its arrays hold O(2^10 * n) labels
whatever the sample count; the first violating sample is replayed
exactly for its witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
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
from .solvers import BinaryCubeFunction, SignBoxFunction
from .trees import RootedTree, meet_join_array, up_down_array, wedge_vee_array
# These four scalar names stay only for perfbench/tracer.py, which patches them here.
from .trees import meet_join, rho, up_down, wedge_vee  # noqa: F401

# Pairs per row block of the vectorized path.  2^14 8-byte cells are
# 128 KiB, glibc's default mmap threshold.  Larger block temporaries
# are mapped or trimmed and faulted in afresh on every allocation, and
# those page faults cost more than the numpy work of the block.
_BLOCK_CELLS = 1 << 14

# Drawn pairs per block of a sampled check: 1,000 samples, the default,
# take one block, and more take a fixed amount of memory per block.
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


def _listed_tables(domain: ProductDomain, op) -> tuple[list[OpTable], list[OpTable]]:
    return tuple([t.tolist() for t in tables] for tables in _build_tables(domain, _tree_op(domain, op)))


def meet_join_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, meet_join_array)


def wedge_vee_tables(domain: ProductDomain) -> tuple[list[OpTable], list[OpTable]]:
    return _listed_tables(domain, wedge_vee_array)


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
                if not isinstance(v, int) or not 0 <= v < n:
                    raise DomainError(f"{which}: table {i} holds invalid label {v!r}")


def _require_exhaustible(size: int) -> None:
    require_budget(size * size, DEFAULT_PAIR_BUDGET,
                   f"domain size {size}: {size * size} pairs exceed budget {{limit}}; "
                   "raise TREESUB_BUDGET or use sampled mode")


def _digits(domain: ProductDomain, ranks: np.ndarray) -> np.ndarray:
    """The labeling of each rank, one row per rank."""
    cards = domain.cardinalities()
    digs = np.empty((len(ranks), domain.n), dtype=np.int64)
    for i in range(domain.n - 1, -1, -1):
        ranks, digs[:, i] = np.divmod(ranks, cards[i])
    return digs


def _strides(domain: ProductDomain) -> list[int]:
    strides = [1] * domain.n
    for i in range(domain.n - 2, -1, -1):
        strides[i] = strides[i + 1] * domain.trees[i + 1].node_count
    return strides


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
    """Per coordinate i, the op table times rank stride i, shaped so that
    ``t[x_i]`` broadcasts along the y axis of coordinate i."""
    cards = domain.cardinalities()
    out = []
    for i, (tbl, stride) in enumerate(zip(tables, _strides(domain))):
        axes = tuple(c if j == i else 1 for j, c in enumerate(cards))
        out.append((tbl * stride).reshape((cards[i],) + axes))
    return out


def _block_ranks(scaled: list[np.ndarray], xdigs: np.ndarray) -> np.ndarray:
    """Ranks of op(x, y) for the block's rows x and every y, as a
    ``(rows, c_1, ..., c_n)`` array whose C order is rank(y) order."""
    # Last coordinate first, so every sum runs over long contiguous inner axes.
    ranks = scaled[-1][xdigs[:, -1]]
    for i in range(len(scaled) - 2, -1, -1):
        ranks = scaled[i][xdigs[:, i]] + ranks
    return ranks


def _candidate_pairs(table: DenseTable, domain: ProductDomain, family: OpFamily):
    """Rank pairs (xr, yr) to replay exactly, in (rank(x), rank(y)) order.

    A vectorized pass walks rank(x) in row blocks of at most
    ``_BLOCK_CELLS`` = 2^14 pairs (one row when |D| exceeds it), so
    every block-sized array stays within glibc's 128 KiB mmap threshold
    unless one row alone outgrows it.  A block ORs
    every member's violations, up to the first member that swaps every
    pair, and the pass yields only the first flagged pair of the first
    block holding one: blocks run in rank(x) order and argmax scans a
    block in C order.  Both sides of a comparison are sums of two
    values, so twice the largest |value| picks the dtype (``sum_dtype``).
    """
    size = domain.size()
    members = []
    for _, op in family:
        first, second = _build_tables(domain, op)
        if all((f == np.arange(len(f))).all() and (s.T == np.arange(len(s))).all()
               for f, s in zip(first, second)):
            break  # the member maps every pair (x, y) to (y, x)
        members.append((_scaled_tables(domain, first), _scaled_tables(domain, second)))
    if not members:
        return ()
    values = np.asarray(table.values, dtype=sum_dtype(2 * max(map(abs, table.values))))
    grid = values.reshape(domain.cardinalities())
    digs = _digits(domain, np.arange(size, dtype=np.int64))
    rows = max(1, _BLOCK_CELLS // size)
    for start in range(0, size, rows):
        xdigs = digs[start:start + rows]
        lhs = values[start:start + rows].reshape((-1,) + (1,) * domain.n) + grid
        viol = None
        for first, second in members:
            member = lhs < values[_block_ranks(first, xdigs)] + values[_block_ranks(second, xdigs)]
            viol = member if viol is None else np.logical_or(viol, member, out=viol)
        if viol.any():
            return (divmod(start * size + int(np.argmax(viol)), size),)
    return ()


def _flagged_sample(f: CostFunction, domain: ProductDomain, family: OpFamily,
                    samples: int, seed: int):
    """The first drawn pair that violates a member, as (s, x, y) for
    sample index s, or nothing.

    Pairs are drawn as rank(x) then rank(y) per sample from
    ``SplitMix64(seed)``, in blocks of at most ``_SAMPLE_PAIRS``.  A
    block walks the members in list order; a pair leaves at the first
    member that maps it to (y, x), where ``_first_violation`` stops, or
    that it violates.  Pairs after a flagged one leave too, since only
    the first counts.  The first member reads f(x) and f(y) in the same
    oracle call as its own two labelings.
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
            return ((start + flagged, tuple(x[flagged].tolist()), tuple(y[flagged].tolist())),)
    return ()


def _pair_check(
    f: CostFunction,
    domain: ProductDomain,
    build_family: Callable[[], OpFamily],
    name: str,
    mode: str,
    samples: int,
    seed: int,
    note: str = "",
) -> CheckReport:
    """Check f(x)+f(y) >= f(op1)+f(op2) for every member of the family.

    ``build_family`` runs only once the mode, sample count and pair
    budget are accepted.  ``note`` is attached to exhaustive reports;
    sampled reports carry their own note saying how far the search went.
    Both modes find the first violating pair with an array pass and
    replay it through ``_first_violation`` for its witness: exhaustive
    mode over every pair in rank order (``_candidate_pairs``), sampled
    mode over the drawn pairs in draw order (``_flagged_sample``).
    """
    size = domain.size()
    if mode == "exhaustive":
        _require_exhaustible(size)
        table = materialize(f)
        family = build_family()
        for xr, yr in _candidate_pairs(table, domain, family):
            witness = _first_violation(table, family, domain.unrank(xr), domain.unrank(yr), name)
            if witness is not None:
                return CheckReport(name, "exhaustive", False, witness, size * size, note)
        return CheckReport(name, "exhaustive", True, None, size * size, note)
    if mode != "sampled":
        raise DomainError(f"unknown mode {mode!r}; use 'exhaustive' or 'sampled'")
    if samples < 1:
        raise DomainError(f"sampled mode needs at least 1 sample, got {samples}")
    family = build_family()
    for s, x, y in _flagged_sample(f, domain, family, samples, seed):
        witness = _first_violation(f, family, x, y, name)
        if witness is not None:
            return CheckReport(
                name, "sampled", False, witness, s + 1,
                note=f"violation found at sample {s + 1} of {samples}",
            )
    return CheckReport(
        name, "sampled", True, None, samples,
        note=f"no violation found in {samples} samples; not a proof",
    )


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
    return _pair_check(f, domain, lambda: [(None, _tree_op(domain, meet_join_array))],
                       "strong", mode, samples, seed)


def check_weak(
    f: CostFunction,
    domain: ProductDomain | None = None,
    mode: str = "exhaustive",
    *,
    samples: int = 1000,
    seed: int = 0,
) -> CheckReport:
    """Verify f(x)+f(y) >= f(wedge)+f(vee)."""
    domain = own_domain(f, domain)
    return _pair_check(f, domain, lambda: [(None, _tree_op(domain, wedge_vee_array))],
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
    """
    domain = own_domain(f, domain)
    steps = range(max(t.node_count for t in domain.trees))
    note = "d capped at rho_inf(x, y) per pair; all coordinates saturate beyond"
    return _pair_check(f, domain, lambda: [(d, _tree_op(domain, up_down_array, d)) for d in steps],
                       "translation", mode, samples, seed, note)


# ---------------------------------------------------------------------------
# Restriction checks used by the descent neighborhoods


def check_cube_submodular(g: BinaryCubeFunction) -> CheckReport:
    """Exhaustive submodularity check of a binary-cube restriction.

    The cube over the free coordinates is a product of 2-node chains, on
    which the midpoint pair coincides with set intersection/union, so the
    generic strong check applies.  Witness labelings are reported as
    sorted tuples of the free coordinate ids in each subset.
    """
    free = g.free

    def to_subset(bits):
        return frozenset(i for i, b in zip(free, bits) if b)

    return _restriction_check("submodular-cube", [RootedTree([-1, 0]) for _ in free],
                              g.evaluate, to_subset, lambda bits: tuple(sorted(to_subset(bits))))


_SIGN_TREES = {
    (0,): RootedTree([-1]),
    (-1, 0): RootedTree([-1, 0]),
    (0, 1): RootedTree([-1, 0]),
    (-1, 0, 1): RootedTree([-1, 0, 0]),
}

_SIGN_OF_NODE = {
    (0,): (0,),
    (-1, 0): (0, -1),
    (0, 1): (0, 1),
    (-1, 0, 1): (0, -1, 1),
}


def check_sign_box_bisubmodular(h: SignBoxFunction) -> CheckReport:
    """Exhaustive bisubmodularity check of a sign-box restriction.

    Each coordinate's allowed signs embed into a 1-3 node rooted tree on
    which the midpoint pair realizes join = sign(a+b) and
    meet = |ab| * sign(a+b), so the generic strong check applies.
    Witnesses are reported as sign vectors.
    """
    sign_maps = [_SIGN_OF_NODE[allowed] for allowed in h.allowed]

    def to_signs(labels):
        return tuple(sign_maps[i][v] for i, v in enumerate(labels))

    return _restriction_check("bisubmodular-box", [_SIGN_TREES[a] for a in h.allowed],
                              h.evaluate, to_signs, to_signs)


def _restriction_check(name, trees, evaluate, to_arg, to_witness) -> CheckReport:
    """Strong check of a restriction embedded into a product of small trees.

    ``to_arg`` maps a labeling of the trees to the restriction's argument
    and ``to_witness`` to the form its witnesses are reported in.
    """
    if not trees:
        return CheckReport(name, "exhaustive", True, None, 1, note="no free coordinates")
    domain = ProductDomain(trees)
    _require_exhaustible(domain.size())  # refuse before any evaluation
    values = [evaluate(to_arg(labels)) for labels in domain.labelings()]
    report = check_strong(DenseTable(domain, values))
    w = report.witness
    if w is not None:
        w = ViolationWitness(name, to_witness(w.x), to_witness(w.y), None, w.lhs, w.rhs)
    return CheckReport(name, report.mode, report.ok, w, report.pairs_checked, report.note)
