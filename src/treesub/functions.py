"""Product label domains, exact cost functions, and verified generators.

Costs are exact rationals stored as integers in units of 1/denominator,
with one denominator per function.  Every comparison made anywhere in the
package is therefore an exact integer comparison; floating point appears
only inside the optional min-norm solvers.

Generators never assume a construction is tree-submodular: every emitted
fixture is re-verified by the property checker before it is returned, and
rejection sampling fails loudly with its acceptance rate when a parameter
choice is infeasible.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, DomainError, GenerationError
from .rng import SplitMix64
from .trees import (Paths, RootedTree, int_argument, meet_join_paths, plain_int, plain_ints, rho,
                    up_down_paths)
# These two scalar names stay only for perfbench/tracer.py, which patches them here.
from .trees import meet_join, wedge_vee  # noqa: F401

Labeling = tuple[int, ...]

_INT64_SUM_BOUND = 1 << 62  # sums whose |value| stays below this fit int64

DEFAULT_PAIR_BUDGET = 10**6
DEFAULT_CELL_BUDGET = 10**6
DEFAULT_BOX_BUDGET = 3**12
DEFAULT_CUBE_BUDGET = 1 << 20


def sum_dtype(largest: int) -> type:
    """The array dtype for exact sums whose |value| is at most ``largest``.

    ``np.int64`` below 2**62, else ``object``, whose cells are Python ints;
    the arithmetic on either is the same numpy code and exact.
    """
    return np.int64 if largest < _INT64_SUM_BOUND else object


def require_budget(size: int, default: int, refusal: str) -> None:
    """Refuse an enumeration of ``size`` items above its budget.

    The budget is ``default`` unless the TREESUB_BUDGET variable sets
    one for every guard.  A refusal, made before any evaluation, raises
    BudgetExceededError with ``refusal``, in which ``{limit}`` stands
    for the budget.
    """
    limit = default
    raw = os.environ.get("TREESUB_BUDGET")
    if raw is not None:
        try:
            limit = int(raw)
        except ValueError as exc:
            raise DomainError(f"TREESUB_BUDGET={raw!r} is not an integer") from exc
        if limit <= 0:
            raise DomainError(f"TREESUB_BUDGET={limit} must be positive")
    if size > limit:
        raise BudgetExceededError(refusal.format(limit=limit))


def _sequence_of(items: Iterable, kind: type, name: str) -> tuple:
    """items as a tuple; an argument that cannot be iterated, or an item
    that is not a ``kind``, raises DomainError naming the argument."""
    try:
        items = tuple(items)
    except TypeError:
        raise DomainError(f"{name} = {items!r} is not a sequence") from None
    for k, item in enumerate(items):
        if not isinstance(item, kind):
            raise DomainError(f"{name}[{k}] = {item!r} is not a {kind.__name__}")
    return items


class ProductDomain:
    """Ordered product of rooted-tree label domains.

    A labeling is a tuple of node ids, one per tree.  Labelings are
    ranked in mixed radix with variable 0 most significant.  Ranks and
    the size are Python ints, so the product may be of any size; only
    sampled checks, which draw ranks as 64-bit ints, bound it.
    """

    __slots__ = ("trees", "_size")

    def __init__(self, trees: Sequence[RootedTree]):
        trees = _sequence_of(trees, RootedTree, "trees")
        if not trees:
            raise DomainError("a domain needs at least one variable")
        self.trees = trees
        self._size = math.prod(t.node_count for t in trees)

    @property
    def n(self) -> int:
        return len(self.trees)

    def size(self) -> int:
        return self._size

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(t.node_count for t in self.trees)

    def all_roots(self) -> Labeling:
        return tuple(t.root for t in self.trees)

    def validate(self, x: Sequence[int]) -> Labeling:
        """x as a tuple of plain ints, each checked against its tree."""
        try:
            length = len(x)
        except TypeError:
            raise DomainError(f"labeling {x!r} is not a sequence of node ids") from None
        if length != len(self.trees):
            raise DomainError(f"labeling length {length} does not match arity {len(self.trees)}")
        return tuple(map(RootedTree.check_node, self.trees, x))

    def rank(self, x: Sequence[int]) -> int:
        # checks x as validate does, without building the tuple
        try:
            length = len(x)
        except TypeError:
            raise DomainError(f"labeling {x!r} is not a sequence of node ids") from None
        if length != len(self.trees):
            raise DomainError(f"labeling length {length} does not match arity {len(self.trees)}")
        r = 0
        for t, v in zip(self.trees, x):
            r = r * t.node_count + t.check_node(v)
        return r

    def unrank(self, k: int) -> Labeling:
        size = self.size()
        if not 0 <= k < size:
            raise DomainError(f"rank {k} is not in 0..{size - 1}")
        out = [0] * len(self.trees)
        for i in range(len(self.trees) - 1, -1, -1):
            k, out[i] = divmod(k, self.trees[i].node_count)
        return tuple(out)

    def labelings(self) -> Iterator[Labeling]:
        """All labelings in rank order."""
        return itertools.product(*(range(t.node_count) for t in self.trees))

    def __eq__(self, other) -> bool:
        return isinstance(other, ProductDomain) and self.trees == other.trees

    def __hash__(self) -> int:
        return hash(self.trees)

    def __repr__(self) -> str:
        return f"ProductDomain({list(self.trees)!r})"


class CostFunction:
    """Exact cost oracle over a ProductDomain.

    ``evaluate`` returns an integer in units of 1/denominator; ``value``
    returns the same cost as a Fraction.  Instances are immutable and the
    oracles are pure, so concurrent evaluation is safe.
    """

    domain: ProductDomain
    denominator: int

    def evaluate(self, x: Sequence[int]) -> int:
        raise NotImplementedError

    def value(self, x: Sequence[int]) -> Fraction:
        return Fraction(self.evaluate(x), self.denominator)

    def grid(self, axes: Sequence[Sequence[int]]) -> np.ndarray:
        """f on every labeling of ``itertools.product(*axes)``, as an array.

        ``axes[i]`` lists labels of variable i; the result has shape
        ``(len(axes[0]), ..., len(axes[n-1]))`` in C order, so axis 0 is
        the most significant.  This version calls ``evaluate`` once per
        cell and keeps its exact integers in an object array.
        """
        axes = [tuple(a) for a in axes]
        values = [self.evaluate(y) for y in itertools.product(*axes)]
        return np.array(values, dtype=object).reshape(tuple(len(a) for a in axes))

    def _evaluate(self, x: Labeling) -> int:
        """``evaluate`` at a labeling the caller has validated; a subclass
        whose ``evaluate`` checks x may skip that check here.  This
        version is ``evaluate``."""
        return self.evaluate(x)

    def _grid(self, axes: Sequence[tuple[int, ...]]) -> np.ndarray:
        """``grid`` on one tuple of labels per variable, each label read
        from a validated labeling or from the ``parent`` or ``children``
        of one of its labels; a subclass whose ``grid`` checks each label
        may skip that check here.  This version is ``grid``."""
        return self.grid(axes)

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row of a ``(k, n)`` integer array of labelings.

        Returns the k exact values as one array: int64 only while the sum
        of any two of them fits, else object (exact Python ints), so the
        sum of two results is exact on either.  This version calls
        ``evaluate`` once per row and keeps its exact integers in an
        object array.
        """
        return np.array([self.evaluate(tuple(x)) for x in labels.tolist()], dtype=object)

    def _walker(self, x: Labeling) -> Callable[[Iterable[tuple[int, int]]], list[int]]:
        """The walks from x: a callable ``steps -> values`` giving f at x
        and then after each step, one exact integer per point.

        A step ``(i, v)`` sets variable i to label v; later steps start
        from the point the earlier ones reached, and a variable may be
        stepped more than once.  Unchecked, as ``_grid``: the descent's
        restrictions build one per walked neighborhood, from a validated
        x, and step only a variable they have checked to a label read
        from its tree's ``Neighborhoods`` table.  This version calls
        ``evaluate`` once per point.
        """

        def walk(steps: Iterable[tuple[int, int]]) -> list[int]:
            y = list(x)
            values = [self.evaluate(x)]
            for i, v in steps:
                y[i] = v
                values.append(self.evaluate(tuple(y)))
            return values

        return walk


def _label_rows(domain: ProductDomain, labels: np.ndarray) -> np.ndarray:
    """``labels`` as a ``(k, n)`` int64 array, each label checked against its tree.

    Arrays of any dtype but integer or bool are checked cell by cell with
    ``check_node``, so a float, string or None label is refused as
    ``evaluate`` refuses it, never truncated."""
    labels = np.asarray(labels)
    if labels.ndim != 2 or labels.shape[1] != domain.n:
        raise DomainError(f"labelings of shape {labels.shape} do not have arity {domain.n}")
    if labels.dtype.kind not in "biu":
        for row in labels.tolist():
            for t, v in zip(domain.trees, row):
                t.check_node(v)
    labels = labels.astype(np.int64, copy=False)
    bad = (labels < 0) | (labels >= domain.cardinalities())
    if bad.any():
        k, i = np.argwhere(bad)[0]
        domain.trees[i].check_node(int(labels[k, i]))
    return labels


def _check_denominator(denominator: int) -> int:
    d = plain_int(denominator, 0)
    if d < 1:
        raise DomainError(f"denominator {denominator!r} must be a positive integer")
    return d


class DenseTable(CostFunction):
    """Costs as a flat integer table indexed by labeling rank."""

    __slots__ = ("domain", "denominator", "values")

    def __init__(self, domain: ProductDomain, values: Sequence[int], denominator: int = 1):
        self._store(domain, plain_ints(
            values, "cost table", lambda k, v: f"cost table cell {k} holds {v!r}, not an integer"),
            denominator)

    @classmethod
    def _of_plain_ints(cls, domain: ProductDomain, values: list[int], denominator: int) -> DenseTable:
        """The table of values that all have type exactly ``int``, as the CLI
        parser's ``non_int_cells`` pass and ``_parse_value`` leave its
        numerators: no cell is scanned again, the length and the
        denominator are checked, and one tuple copy is stored, never the
        caller's list."""
        table = cls.__new__(cls)
        table._store(domain, tuple(values), denominator)
        return table

    def _store(self, domain: ProductDomain, values: tuple[int, ...], denominator: int) -> None:
        if len(values) != domain.size():
            raise DomainError(
                f"table has {len(values)} entries, domain has {domain.size()}"
            )
        self.domain = domain
        self.denominator = _check_denominator(denominator)
        self.values = values

    def evaluate(self, x: Sequence[int]) -> int:
        return self.values[self.domain.rank(x)]

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row, as ``CostFunction.values_at``: the rows are
        checked and ranked as arrays, and their values gathered from the
        table, so the work grows with the rows and not with |D|."""
        labels = _label_rows(self.domain, labels)
        ranks = np.ravel_multi_index(labels.T, self.domain.cardinalities())
        got = list(map(self.values.__getitem__, ranks.tolist()))
        largest = max(max(got, default=0), -min(got, default=0))
        return np.array(got, dtype=sum_dtype(2 * largest))


@dataclass(frozen=True)
class Term:
    """One summand: a scope of at most three variables and its sub-table.

    ``values`` is indexed in mixed radix over the scope's label counts,
    with the first scope variable most significant.
    """

    scope: tuple[int, ...]
    values: tuple[int, ...]

    def __post_init__(self):
        scope = plain_ints(self.scope, "term scope",
                           lambda k, v: f"term scope[{k}] = {v!r} is not an integer")
        if not 1 <= len(scope) <= 3:
            raise DomainError(f"term arity {len(scope)} is not in 1..3")
        if len(set(scope)) != len(scope):
            raise DomainError(f"term scope {scope} repeats a variable")
        object.__setattr__(self, "scope", scope)
        object.__setattr__(self, "values", plain_ints(
            self.values, "term values",
            lambda k, v: f"term over scope {scope} cell {k} holds {v!r}, not an integer"))


class SumOfTerms(CostFunction):
    """Costs as a sum of low-arity terms sharing one denominator.

    The tables behind ``grid`` and ``values_at`` are built on the first
    call of either and kept, each with the getter that reads its scope;
    they are built fully and then stored in one assignment, so the
    instance stays immutable to its callers and safe to evaluate
    concurrently.
    """

    __slots__ = ("domain", "denominator", "terms", "_tables")

    def __init__(self, domain: ProductDomain, terms: Sequence[Term], denominator: int = 1):
        terms = _sequence_of(terms, Term, "terms")
        for t in terms:
            expected = 1
            for i in t.scope:
                if not 0 <= i < domain.n:
                    raise DomainError(f"term scope index {i} is out of range")
                expected *= domain.trees[i].node_count
            if len(t.values) != expected:
                raise DomainError(
                    f"term over scope {t.scope} has {len(t.values)} entries, expected {expected}"
                )
        self.domain = domain
        self.denominator = _check_denominator(denominator)
        self.terms = terms
        self._tables = None  # built by the first grid call

    def evaluate(self, x: Sequence[int]) -> int:
        return self._evaluate(self.domain.validate(x))

    def _evaluate(self, x: Labeling) -> int:
        total = 0
        for t in self.terms:
            idx = 0
            for i in t.scope:
                idx = idx * self.domain.trees[i].node_count + x[i]
            total += t.values[idx]
        return total

    def _walker(self, x: Labeling) -> Callable[[Iterable[tuple[int, int]]], list[int]]:
        """The walks from x, as ``CostFunction._walker``: x and every
        step are trusted, and no label is checked.

        The incidence lists, the table index of each term and the total
        at x are built once per walker.  Each walk copies that start
        state; a step then adds the exact change of the terms whose
        scope holds its variable, so it costs O(degree), not
        O(n + #terms).  Nothing is kept on the instance.
        """
        trees = self.domain.trees
        start_index = []  # table index of each term at x
        incident: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in x]
        start_total = 0
        for k, t in enumerate(self.terms):
            idx, stride = 0, 1
            for i in reversed(t.scope):
                incident[i].append((t.values, k, stride))
                idx += stride * x[i]
                stride *= trees[i].node_count
            start_index.append(idx)
            start_total += t.values[idx]

        def walk(steps: Iterable[tuple[int, int]]) -> list[int]:
            y = list(x)
            index = start_index.copy()
            total = start_total
            values = [total]
            for i, v in steps:
                shift = v - y[i]
                for table, k, stride in incident[i]:
                    old = index[k]
                    index[k] = new = old + stride * shift
                    total += table[new] - table[old]
                y[i] = v
                values.append(total)
            return values

        return walk

    def grid(self, axes: Sequence[Sequence[int]]) -> np.ndarray:
        """f over the axes as one array: one gather-add per host table.

        The axis count and each axis label are checked here, once; the
        values then come from ``_grid``.  The first call folds the terms
        into host tables (``_fold_terms``) and keeps them on the instance.
        The result has the tables' dtype: int64, or object (exact Python
        ints) when the terms' values are too large for int64.
        """
        domain = self.domain
        axes = [tuple(a) for a in axes]
        if len(axes) != domain.n:
            raise DomainError(f"got {len(axes)} axes for arity {domain.n}")
        return self._grid([tuple(map(t.check_node, axis)) for t, axis in zip(domain.trees, axes)])

    def _grid(self, axes: Sequence[tuple[int, ...]]) -> np.ndarray:
        """``grid`` on one tuple of valid plain-int labels per variable,
        unchecked: the descent's restrictions call it on the axes their
        trees' ``Neighborhoods`` tables hold for a validated labeling.
        The labels of variable i index the tables by ``_axis_index``, as
        an array of shape ``(len, 1, ..., 1)`` with one unit axis per
        later variable, or by the plain int of an axis of one label, for
        ``_gather_add``."""
        n = len(axes)
        index = [a[0] if len(a) == 1 else _axis_index(a, n - 1 - i) for i, a in enumerate(axes)]
        return _gather_add(self._reads(), index, tuple(map(len, axes)))

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row, as ``CostFunction.values_at``: the rows are
        checked as one array, then one gather-add per host table of
        ``_fold_terms``, with column i of the rows indexing variable i.
        The dtype is the tables', as in ``grid``."""
        labels = _label_rows(self.domain, labels)
        return _gather_add(self._reads(), labels.T, (len(labels),))

    def _reads(self) -> tuple[tuple[Callable, np.ndarray, tuple[int, ...]], ...]:
        """The host tables of ``_fold_terms`` as ``_gather_add`` reads
        them: ``(get, table, scope)`` triples, the last table first, where
        ``get`` picks the scope variables' indexes out of a grid's or a
        row array's (``_scope_getter``)."""
        reads = self._tables
        if reads is None:
            reads = self._tables = tuple((_scope_getter(scope), table, scope) for scope, table
                                         in reversed(_fold_terms(self.domain, self.terms)))
        return reads


@functools.lru_cache(maxsize=1 << 10)
def _scope_getter(scope: tuple[int, ...]) -> Callable:
    """``operator.itemgetter(*scope)``, one per scope for every sum: it
    holds no state, so sums with a scope in common share it."""
    return operator.itemgetter(*scope)


def _index_array(labels: tuple[int, ...], trailing: int) -> np.ndarray:
    return np.array(labels, dtype=np.intp).reshape((len(labels),) + (1,) * trailing)


@functools.lru_cache(maxsize=1 << 12)
def _kept_index(labels: tuple[int, ...], trailing: int) -> np.ndarray:
    index = _index_array(labels, trailing)
    index.flags.writeable = False  # one array serves every grid that reads these labels
    return index


def _axis_index(labels: tuple[int, ...], trailing: int) -> np.ndarray:
    """The labels as an intp array of shape ``(len(labels), 1, ..., 1)``
    with ``trailing`` unit axes.

    An axis of at most three labels, as every neighborhood axis on a
    binary tree is, is built once per (labels, trailing) and kept,
    read-only, in a bounded cache (``_kept_index``); a longer one (the
    whole-tree axes of ``materialize`` and of the descent's diagnostics)
    is built on every call and never kept.
    """
    return _index_array(labels, trailing) if len(labels) > 3 else _kept_index(labels, trailing)


def _gather_add(reads, index, shape: tuple[int, ...]) -> np.ndarray:
    """The sum over the ``(get, table, scope)`` triples of ``reads`` of
    ``table[get(index)]``, as an array of ``shape``.

    ``get`` picks the indexes of the table's scope variables out of
    ``index``, whose item i indexes variable i.  Its axes line up with
    the last axes of ``shape``: the rows of ``values_at``, or the ``(len,
    1, ..., 1)`` arrays of ``_grid``, where a plain int stands for an axis
    of one label.  A table's block then spans the variables from its
    first array-indexed scope variable on, and a block read at ints alone
    is one cell.  The blocks are added by broadcasting, in the order of
    ``reads``: the last table of ``_fold_terms`` first; among tables of
    one scope length that is the one whose first variable comes last.
    On a grid each partial sum then spans only the variables from the
    first variable of the table added last, and its innermost axes run
    long.  The sum keeps the tables' dtype, int64 or object, also when it
    is one cell.
    """
    total = None
    for get, table, _ in reads:
        block = table[get(index)]
        total = block if total is None else block + total
    if total is None:  # a sum of no terms
        return np.zeros(shape, dtype=np.int64)
    if type(total) is not np.ndarray:  # one cell: an np.int64, or a Python int from object tables
        total = np.array(total, dtype=reads[0][1].dtype)
    if total.shape == shape:
        return total
    if total.size == math.prod(shape):  # only unit axes are missing
        return total.reshape(shape)
    return np.broadcast_to(total, shape).copy()


def _fold_terms(
    domain: ProductDomain, terms: Sequence[Term]
) -> tuple[tuple[tuple[int, ...], np.ndarray], ...]:
    """The terms as tables of one dtype, int64 or object.

    There is one table per distinct scope that lies in no larger one,
    with its axes in ascending variable order; each term is added into
    the first such table whose scope holds its own.  Every table cell
    and every sum of cells is bounded by the sum over terms of the
    largest |value|, and that bound picks the dtype (``sum_dtype``).
    """
    dtype = sum_dtype(sum(max(map(abs, t.values)) for t in terms))
    scopes = sorted({tuple(sorted(t.scope)) for t in terms}, key=lambda s: (-len(s), s))
    hosts = [s for k, s in enumerate(scopes) if not any(set(s) < set(r) for r in scopes[:k])]
    tables = {s: np.zeros([domain.trees[i].node_count for i in s], dtype=dtype) for s in hosts}
    for t in terms:
        host = next(s for s in hosts if set(t.scope) <= set(s))
        sub = np.array(t.values, dtype=dtype).reshape(
            [domain.trees[i].node_count for i in t.scope]
        )
        # move the term's axes into variable order, then broadcast into the host
        sub = sub.transpose(sorted(range(len(t.scope)), key=t.scope.__getitem__))
        tables[host] += sub.reshape([domain.trees[i].node_count if i in t.scope else 1 for i in host])
    return tuple(tables.items())


def materialize(f: CostFunction) -> DenseTable:
    """Evaluate f on every labeling and return the dense table."""
    if isinstance(f, DenseTable):
        return f
    size = f.domain.size()
    require_budget(size, DEFAULT_CELL_BUDGET,
                   f"materializing {size} cells exceeds budget {{limit}}")
    grid = f.grid([range(t.node_count) for t in f.domain.trees])
    return DenseTable(f.domain, grid.ravel().tolist(), f.denominator)


def grid_minimum(f: CostFunction, axes: Sequence[Sequence[int]]) -> tuple[Labeling, int]:
    """First minimum of f over ``itertools.product(*axes)``.

    Ties pick the labeling that comes first in that order.  A product of
    more labelings than the cell budget is refused before any evaluation.
    """
    axes = [tuple(a) for a in axes]
    size = math.prod(len(a) for a in axes)
    require_budget(size, DEFAULT_CELL_BUDGET, f"domain size {size} exceeds budget {{limit}}")
    return first_minimum(f.grid(axes), axes)


def first_minimum(values: np.ndarray, axes: Sequence[Sequence]) -> tuple[tuple, int]:
    """The first minimum of ``values``, one cell per item of
    ``itertools.product(*axes)`` in C order: its item and its value.
    argmin returns the lowest rank among ties."""
    rank = int(values.argmin())
    cell = np.unravel_index(rank, tuple(map(len, axes)))
    return tuple(a[i] for a, i in zip(axes, cell)), int(values.reshape(-1)[rank])


def own_domain(f: CostFunction, domain: ProductDomain | None) -> ProductDomain:
    """f's domain, after checking a ``domain`` passed beside f against it.

    A domain that differs from ``f.domain`` raises DomainError before any
    evaluation.  None or ``f.domain`` itself costs one identity test.
    """
    if domain is None or domain is f.domain:
        return f.domain
    if domain != f.domain:
        given, own = ([list(t.parent) for t in d.trees] for d in (domain, f.domain))
        raise DomainError(f"domain with tree parents {given} is not the function's, {own}")
    return f.domain


@dataclass(frozen=True)
class InstanceFixture:
    """A domain plus cost function whose listed properties re-verify."""

    domain: ProductDomain
    function: CostFunction
    verified_properties: frozenset[str]
    provenance: str
    start: Labeling | None = None


# ---------------------------------------------------------------------------
# Tree builders


def chain_tree(node_count: int) -> RootedTree:
    """Chain 0-1-...-(n-1) rooted at 0, so label id equals depth."""
    if node_count < 1:
        raise DomainError("chain needs at least one node")
    return RootedTree([-1] + list(range(node_count - 1)))


def star3_tree() -> RootedTree:
    """Root 0 with leaf children 1 and 2; signs read as 1 -> -1, 2 -> +1."""
    return RootedTree([-1, 0, 0])


def complete_binary_tree(levels: int) -> RootedTree:
    """Complete binary tree with the given number of levels (>= 1)."""
    if levels < 1:
        raise DomainError("need at least one level")
    n = 2**levels - 1
    return RootedTree([-1] + [(v - 1) // 2 for v in range(1, n)])


def fork_tree(k: int) -> RootedTree:
    """Chain 0..k with two extra leaves k+1 and k+2 attached at node k."""
    if k < 0:
        raise DomainError("fork chain length must be non-negative")
    return RootedTree([-1] + list(range(k)) + [k, k])


def random_tree(rng: SplitMix64, node_count: int) -> RootedTree:
    """Uniform-ish random binary tree: each new node picks a parent with < 2 children."""
    if node_count < 1:
        raise DomainError("tree needs at least one node")
    parent = [-1]
    load = [0]
    for v in range(1, node_count):
        open_slots = [u for u in range(v) if load[u] < 2]
        p = open_slots[rng.below(len(open_slots))]
        parent.append(p)
        load[p] += 1
        load.append(0)
    return RootedTree(parent)


# ---------------------------------------------------------------------------
# Generators

def _convex_of_depth(rng: SplitMix64, tree: RootedTree, max_value: int) -> list[int]:
    """Unary table h(depth) with h convex and non-decreasing.

    Such tables satisfy both the midpoint-pair and the wedge/vee unary
    inequalities on any tree, so they give the generator a proposal that
    always survives verification.
    """
    max_depth = max(tree.depth)
    increments = sorted(rng.below(max(1, max_value // 2) + 1) for _ in range(max_depth))
    h = [rng.below(max_value + 1)]
    for step in increments:
        h.append(h[-1] + step)
    return [h[tree.depth[v]] for v in range(tree.node_count)]


def _distance_to_target(rng: SplitMix64, tree: RootedTree, max_value: int) -> list[int]:
    """Unary table scale * rho(v, target), convex along every path.

    Distance to a fixed node is convex along any path of a tree, so this
    proposal survives both unary inequalities while placing its minimum
    at an arbitrary node instead of the root.
    """
    target = rng.below(tree.node_count)
    scale = 1 + rng.below(max(1, max_value // 4))
    return [scale * rho(tree, v, target) for v in range(tree.node_count)]


_UNARY_TRIES = 10_000


def _random_unary(rng: SplitMix64, tree: RootedTree, op, max_value: int) -> list[int]:
    """Unary table passing g(a)+g(b) >= g(op1)+g(op2) for every pair.

    Proposals rotate between uniform tables, convex-of-depth tables with
    small noise, and distance-to-target tables with small noise; a
    noise-free convex-of-depth table is the last resort, so the loop
    always terminates.
    """
    n = tree.node_count
    a, b = np.indices((n, n))
    first, second = op(Paths(tree, a, b))
    noise = min(2, max_value)
    for attempt in range(_UNARY_TRIES):
        if attempt == _UNARY_TRIES - 1:
            g = _convex_of_depth(rng, tree, max_value)
        elif attempt % 3 == 0:
            g = [rng.below(max_value + 1) for _ in range(n)]
        elif attempt % 3 == 1:
            base = _convex_of_depth(rng, tree, max_value)
            g = [base[v] + rng.below(noise + 1) for v in range(n)]
        else:
            base = _distance_to_target(rng, tree, max_value)
            g = [base[v] + rng.below(noise + 1) for v in range(n)]
        h = np.array(g, dtype=sum_dtype(2 * max(g)))
        if (h[a] + h[b] >= h[first] + h[second]).all():
            return g
    raise GenerationError("unary rejection sampling failed")


def _depth_coupling_term(
    domain: ProductDomain, i: int, j: int, weight: int
) -> Term:
    """Pairwise term weight * |depth(x_i) - depth(x_j)|."""
    ti, tj = domain.trees[i], domain.trees[j]
    values = [
        weight * abs(ti.depth[a] - tj.depth[b])
        for a in range(ti.node_count)
        for b in range(tj.node_count)
    ]
    return Term(scope=(i, j), values=tuple(values))


def _run_check(kind: str, f: CostFunction):
    from . import checks  # deferred: checks imports this module

    return checks._property_checks()[kind](f)


def _verify_properties(f: CostFunction, wanted: Sequence[str]) -> frozenset[str]:
    verified = set()
    for name in wanted:
        report = _run_check(name, f)
        if not report.ok:
            raise GenerationError(f"construction failed the {name} check")
        verified.add(name)
    return frozenset(verified)


def _random_verified(
    kind: str,
    domain: ProductDomain,
    seed: int,
    max_value: int,
    attempt_budget: int,
) -> InstanceFixture:
    """Rejection loop shared by the random-verified-strong/weak kinds.

    Candidates are separable bases (per-variable unary tables, themselves
    rejection-sampled against the unary inequality) optionally coupled by
    depth-distance terms and, on small domains, a little dense noise.
    Every candidate goes through the exhaustive checker; nothing is
    trusted by construction.
    """
    prop = "strong" if kind == "random-verified-strong" else "weak"
    op = meet_join_paths if prop == "strong" else lambda p: up_down_paths(p, 0)
    rng = SplitMix64(seed)
    size = domain.size()
    require_budget(size * size, DEFAULT_PAIR_BUDGET,
                   f"domain size {size} needs {size * size} verification pairs, budget {{limit}}")
    if attempt_budget < 1:
        raise GenerationError(f"attempt budget {attempt_budget}: acceptance rate 0/0")
    for attempt in range(attempt_budget):
        style = attempt % 3  # 0: +noise, 1: +couplings, 2: separable only
        terms = [
            Term(scope=(i,), values=tuple(_random_unary(rng, t, op, max_value)))
            for i, t in enumerate(domain.trees)
        ]
        if style in (0, 1) and domain.n >= 2:
            pairs = list(itertools.combinations(range(domain.n), 2))
            for _ in range(1 + rng.below(domain.n)):
                i, j = pairs[rng.below(len(pairs))]
                terms.append(_depth_coupling_term(domain, i, j, 1 + rng.below(2)))
        candidate: CostFunction = SumOfTerms(domain, terms)
        if style == 0 and size <= 64:
            table = list(materialize(candidate).values)
            noise = min(2, max_value)
            values = [v + rng.below(noise + 1) for v in table]
            candidate = DenseTable(domain, values)
        table_fn = materialize(candidate)
        report = _run_check(prop, table_fn)
        if report.ok:
            return InstanceFixture(
                domain=domain,
                function=table_fn,
                verified_properties=frozenset({prop}),
                provenance=f"{kind} seed={seed} attempt={attempt} style={style}",
            )
    raise GenerationError(f"{kind}: no candidate accepted; acceptance rate 0/{attempt_budget}")


def _chain_separable(domain: ProductDomain, seed: int) -> InstanceFixture:
    """Separable convex costs plus |x_i - x_j| couplings on chain domains.

    The scales are 1 + below(3) and the coupling weights below(3).
    """
    for i, t in enumerate(domain.trees):
        if not t.is_chain():
            raise DomainError(f"chain-separable needs chain trees; tree {i} is not")
    rng = SplitMix64(seed)
    terms = []
    for i, t in enumerate(domain.trees):
        target = rng.below(t.node_count)
        scale = 1 + rng.below(3)
        values = [scale * (v - target) ** 2 for v in range(t.node_count)]
        terms.append(Term(scope=(i,), values=tuple(values)))
    if domain.n >= 2:
        for i, j in itertools.combinations(range(domain.n), 2):
            weight = rng.below(3)
            if weight:
                terms.append(_depth_coupling_term(domain, i, j, weight))
    f = SumOfTerms(domain, terms)
    verified = _verify_properties(f, ["strong"])
    return InstanceFixture(
        domain=domain,
        function=f,
        verified_properties=verified,
        provenance=f"chain-separable seed={seed}",
    )


def _catalog_builders() -> dict[str, Callable[[], InstanceFixture]]:
    def fixed(name, trees, function, verify=(), start=None, note=""):
        """``function(domain)`` over the product of ``trees``, with ``verify`` checked."""
        def build() -> InstanceFixture:
            domain = ProductDomain(trees)
            f = function(domain)
            verified = _verify_properties(f, verify)
            return InstanceFixture(domain, f, verified, f"catalog {name}{note}", start)
        return name, build

    def drawn(name, kind, tree, seed):
        """The ``kind`` fixture over tree x tree that ``_random_verified`` draws from seed."""
        def build() -> InstanceFixture:
            domain = ProductDomain([tree, tree])
            inner = _random_verified(kind, domain, seed, max_value=20, attempt_budget=1000)
            return replace(inner, provenance=f"catalog {name} (seed {seed})")
        return name, build

    def table(values):
        return lambda domain: DenseTable(domain, values)

    def separable(domain):
        return SumOfTerms(domain, [
            Term(scope=(0,), values=tuple((v - 3) ** 2 for v in range(5))),
            Term(scope=(1,), values=tuple((v - 1) ** 2 for v in range(5))),
            _depth_coupling_term(domain, 0, 1, 2),
        ])

    every = ("strong", "translation", "weak")
    return dict([
        fixed("chain5-separable", [chain_tree(5), chain_tree(5)], separable, every),
        fixed("chain5-concave", [chain_tree(5)], table([-(v**2) for v in range(5)])),
        fixed("star3-root-spike", [star3_tree()], table([1, 0, 0])),
        drawn("bintree5-strong", "random-verified-strong", RootedTree([-1, 0, 0, 1, 1]), 42),
        drawn("fork2-weak", "random-verified-weak", fork_tree(2), 7),
        fixed("chain5-quadratic", [chain_tree(5)], table([v**2 for v in range(5)]), every,
              start=(4,), note=" (start at 4)"),
        fixed("const-mixed", [chain_tree(3), star3_tree()], table([5] * 9), every),
    ])


def fixture_catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_catalog_builders()))


GENERATE_KINDS = (
    "random-verified-strong",
    "random-verified-weak",
    "chain-separable",
    "fixture-catalog",
)


def generate(
    kind: str,
    domain: ProductDomain | None = None,
    seed: int = 0,
    *,
    name: str | None = None,
    max_value: int = 20,
    attempt_budget: int = 1000,
) -> InstanceFixture:
    """Produce an InstanceFixture whose declared properties were checked.

    Deterministic given (kind, domain, seed) and the keyword parameters;
    all randomness flows through one splitmix64 stream seeded with
    ``seed``.  ``max_value`` bounds the unary proposals of the
    random-verified kinds; "chain-separable" ignores it, beyond refusing
    a negative one, and the catalog fixtures fix their own values.
    """
    seed, max_value = int_argument(seed, "seed"), int_argument(max_value, "max_value")
    attempt_budget = int_argument(attempt_budget, "attempt_budget")
    if kind == "fixture-catalog":
        builders = _catalog_builders()
        if name not in builders:
            raise DomainError(
                f"unknown fixture name {name!r}; known: {', '.join(sorted(builders))}"
            )
        return builders[name]()
    if kind not in GENERATE_KINDS:
        raise DomainError(f"unknown generator kind {kind!r}; known: {', '.join(GENERATE_KINDS)}")
    if domain is None:
        raise DomainError(f"kind {kind!r} needs a domain")
    if max_value < 0:
        raise DomainError(f"max_value must be non-negative, got {max_value}")
    if kind == "chain-separable":
        return _chain_separable(domain, seed)
    return _random_verified(kind, domain, seed, max_value, attempt_budget)
