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

import itertools
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, DomainError, GenerationError, InternalError
from .rng import SplitMix64
from .trees import RootedTree, meet_join_array, rho, wedge_vee_array
# These two scalar names stay only for perfbench/tracer.py, which patches them here.
from .trees import meet_join, wedge_vee  # noqa: F401

Labeling = tuple[int, ...]

_MAX_DOMAIN_SIZE = 1 << 62  # keeps rank arithmetic inside int64
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


class ProductDomain:
    """Ordered product of rooted-tree label domains.

    A labeling is a tuple of node ids, one per tree.  Labelings are
    ranked in mixed radix with variable 0 most significant.
    """

    __slots__ = ("trees",)

    def __init__(self, trees: Sequence[RootedTree]):
        trees = tuple(trees)
        if not trees:
            raise DomainError("a domain needs at least one variable")
        size = 1
        for t in trees:
            size *= t.node_count
            if size > _MAX_DOMAIN_SIZE:
                raise DomainError("domain size exceeds the 2**62 guard")
        self.trees = trees

    @property
    def n(self) -> int:
        return len(self.trees)

    def size(self) -> int:
        out = 1
        for t in self.trees:
            out *= t.node_count
        return out

    def cardinalities(self) -> tuple[int, ...]:
        return tuple(t.node_count for t in self.trees)

    def all_roots(self) -> Labeling:
        return tuple(t.root for t in self.trees)

    def validate(self, x: Sequence[int]) -> Labeling:
        if len(x) != len(self.trees):
            raise DomainError(
                f"labeling length {len(x)} does not match arity {len(self.trees)}"
            )
        for t, v in zip(self.trees, x):
            t.check_node(v)
        return tuple(x)

    def rank(self, x: Sequence[int]) -> int:
        if len(x) != len(self.trees):
            raise DomainError(
                f"labeling length {len(x)} does not match arity {len(self.trees)}"
            )
        r = 0
        for t, v in zip(self.trees, x):
            t.check_node(v)
            r = r * t.node_count + v
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


def rank(domain: ProductDomain, x: Sequence[int]) -> int:
    return domain.rank(x)


def unrank(domain: ProductDomain, k: int) -> Labeling:
    return domain.unrank(k)


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

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row of a ``(k, n)`` integer array of labelings.

        Returns the k exact values as one array: int64 only while the sum
        of any two of them fits, else object (exact Python ints), so the
        sum of two results is exact on either.  This version calls
        ``evaluate`` once per row and keeps its exact integers in an
        object array.
        """
        return np.array([self.evaluate(tuple(x)) for x in labels.tolist()], dtype=object)

    def walk(self, x: Sequence[int], steps: Iterable[tuple[int, int]]) -> list[int]:
        """f at x and then after each step, one exact integer per point.

        A step ``(i, v)`` sets variable i to label v; later steps start
        from the point the earlier ones reached, and a variable may be
        stepped more than once.  This version calls ``evaluate`` once
        per point.
        """
        y = list(x)
        values = [self.evaluate(tuple(y))]
        for i, v in steps:
            _check_variable(i, len(y))
            y[i] = v
            values.append(self.evaluate(tuple(y)))
        return values


def _check_variable(i: int, n: int) -> None:
    if not 0 <= i < n:
        raise DomainError(f"variable {i} is not in 0..{n - 1}")


def _label_rows(domain: ProductDomain, labels: np.ndarray) -> np.ndarray:
    """``labels`` as a ``(k, n)`` int64 array, each label checked against its tree."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 2 or labels.shape[1] != domain.n:
        raise DomainError(f"labelings of shape {labels.shape} do not have arity {domain.n}")
    bad = (labels < 0) | (labels >= domain.cardinalities())
    if bad.any():
        k, i = np.argwhere(bad)[0]
        domain.trees[i].check_node(int(labels[k, i]))
    return labels


def _check_denominator(denominator: int) -> int:
    if not isinstance(denominator, int) or denominator < 1:
        raise DomainError(f"denominator {denominator!r} must be a positive integer")
    return denominator


def _int_values(values: Sequence[int], what: str) -> tuple[int, ...]:
    """The values as a tuple of ints; anything without ``__index__``
    (a float, a string, a Fraction) is refused at its first cell.

    A tuple of plain ints is kept, not copied: generators and callers
    that hold their own term tuples would otherwise store every value
    twice.
    """
    if type(values) is tuple and {int}.issuperset(map(type, values)):
        return values
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for k, v in enumerate(values):
            try:
                operator.index(v)
            except TypeError:
                raise DomainError(f"{what} cell {k} holds {v!r}, not an integer") from None
        raise


class DenseTable(CostFunction):
    """Costs as a flat integer table indexed by labeling rank."""

    __slots__ = ("domain", "denominator", "values")

    def __init__(self, domain: ProductDomain, values: Sequence[int], denominator: int = 1):
        values = _int_values(values, "cost table")
        if len(values) != domain.size():
            raise DomainError(
                f"table has {len(values)} entries, domain has {domain.size()}"
            )
        self.domain = domain
        self.denominator = _check_denominator(denominator)
        self.values = values

    def evaluate(self, x: Sequence[int]) -> int:
        k = self.domain.rank(x)
        if k >= len(self.values):
            raise InternalError("cost table shorter than the domain")
        return self.values[k]

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row, as ``CostFunction.values_at``: the rows are
        checked and ranked as arrays, and their values gathered from the
        table, so the work grows with the rows and not with |D|."""
        labels = _label_rows(self.domain, labels)
        ranks = np.zeros(len(labels), dtype=np.int64)
        for i, t in enumerate(self.domain.trees):
            ranks = ranks * t.node_count + labels[:, i]
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
        if not 1 <= len(self.scope) <= 3:
            raise DomainError(f"term arity {len(self.scope)} is not in 1..3")
        if len(set(self.scope)) != len(self.scope):
            raise DomainError(f"term scope {self.scope} repeats a variable")
        object.__setattr__(self, "values", _int_values(self.values, f"term over scope {self.scope}"))


class SumOfTerms(CostFunction):
    """Costs as a sum of low-arity terms sharing one denominator.

    The tables behind ``grid`` and ``values_at`` are built on the first
    call of either and kept; they are built fully and then stored in one
    assignment, so the instance stays immutable to its callers and safe
    to evaluate concurrently.
    """

    __slots__ = ("domain", "denominator", "terms", "_tables")

    def __init__(self, domain: ProductDomain, terms: Sequence[Term], denominator: int = 1):
        terms = tuple(terms)
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
        x = self.domain.validate(x)
        total = 0
        for t in self.terms:
            idx = 0
            for i in t.scope:
                idx = idx * self.domain.trees[i].node_count + x[i]
            total += t.values[idx]
        return total

    def walk(self, x: Sequence[int], steps: Iterable[tuple[int, int]]) -> list[int]:
        """f at x and then after each step, as ``CostFunction.walk``.

        x is validated once and each new label with ``check_node``.  A
        step then adds the exact change of the terms whose scope holds
        its variable, so it costs O(degree), not O(n + #terms).  The
        incidence lists are built per walk; nothing is kept on the
        instance.
        """
        trees = self.domain.trees
        y = list(self.domain.validate(x))
        index = []  # current table index of each term
        incident: list[list[tuple[tuple[int, ...], int, int]]] = [[] for _ in y]
        total = 0
        for k, t in enumerate(self.terms):
            idx, stride = 0, 1
            for i in reversed(t.scope):
                incident[i].append((t.values, k, stride))
                idx += stride * y[i]
                stride *= trees[i].node_count
            index.append(idx)
            total += t.values[idx]
        values = [total]
        for i, v in steps:
            _check_variable(i, len(y))
            trees[i].check_node(v)
            shift = v - y[i]
            for table, k, stride in incident[i]:
                old = index[k]
                index[k] = new = old + stride * shift
                total += table[new] - table[old]
            y[i] = v
            values.append(total)
        return values

    def grid(self, axes: Sequence[Sequence[int]]) -> np.ndarray:
        """f over the axes as one array: one gather-add per table.

        Each axis label is validated once.  The first call folds the
        terms into tables (``_fold_terms``) and keeps them on the
        instance; every call then adds ``table[index of each scope
        variable]`` into the result, with one broadcast-shaped index
        array per variable.  The result has the tables' dtype: int64, or
        object (exact Python ints) when the terms' values are too large
        for int64.
        """
        domain = self.domain
        axes = [tuple(a) for a in axes]
        if len(axes) != domain.n:
            raise DomainError(f"got {len(axes)} axes for arity {domain.n}")
        for t, axis in zip(domain.trees, axes):
            for v in axis:
                t.check_node(v)
        n = domain.n
        index = [
            np.array(axis, dtype=np.intp).reshape([-1 if j == i else 1 for j in range(n)])
            for i, axis in enumerate(axes)
        ]
        return _gather_add(self._folded(), index, [len(a) for a in axes])

    def values_at(self, labels: np.ndarray) -> np.ndarray:
        """f at each row, as ``CostFunction.values_at``: the rows are
        checked as one array, then one gather-add per table of
        ``_fold_terms``, with column i of the rows indexing variable i.
        The dtype is the tables', as in ``grid``."""
        labels = _label_rows(self.domain, labels)
        return _gather_add(self._folded(), labels.T, len(labels))

    def _folded(self):
        tables = self._tables
        if tables is None:
            tables = self._tables = _fold_terms(self.domain, self.terms)
        return tables


def _gather_add(tables, index, shape) -> np.ndarray:
    """The sum over ``tables`` of ``table[index of each scope variable]``.

    ``index[i]`` indexes variable i and broadcasts to ``shape``, the
    shape of the result.
    """
    out = np.zeros(shape, dtype=tables[0][1].dtype if tables else np.int64)
    for scope, table in tables:
        out += table[tuple(index[i] for i in scope)]
    return out


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
    values = f.grid(axes)
    cell = np.unravel_index(int(np.argmin(values)), values.shape)  # first minimum
    return tuple(a[i] for a, i in zip(axes, cell)), int(values[cell])


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
    first, second = op(tree, a, b)
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
    raise GenerationError("unary rejection sampling failed", attempts=_UNARY_TRIES)


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

    if kind == "strong":
        return checks.check_strong(f)
    if kind == "weak":
        return checks.check_weak(f)
    if kind == "translation":
        return checks.check_translation(f)
    raise DomainError(f"unknown property {kind!r}")


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
    op = meet_join_array if prop == "strong" else wedge_vee_array
    rng = SplitMix64(seed)
    size = domain.size()
    require_budget(size * size, DEFAULT_PAIR_BUDGET,
                   f"domain size {size} needs {size * size} verification pairs, budget {{limit}}")
    if attempt_budget < 1:
        raise GenerationError(
            f"attempt budget {attempt_budget}: acceptance rate 0/0", attempts=0, accepted=0
        )
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
    raise GenerationError(
        f"{kind}: no candidate accepted; acceptance rate 0/{attempt_budget}",
        attempts=attempt_budget,
        accepted=0,
    )


def _chain_separable(domain: ProductDomain, seed: int, max_value: int) -> InstanceFixture:
    """Separable convex costs plus |x_i - x_j| couplings on chain domains.

    ``max_value`` is not read: the scales are 1 + below(3) and the
    coupling weights below(3) whatever its value, so every value of it
    gives the same fixture.
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
    def chain5_separable() -> InstanceFixture:
        domain = ProductDomain([chain_tree(5), chain_tree(5)])
        terms = [
            Term(scope=(0,), values=tuple((v - 3) ** 2 for v in range(5))),
            Term(scope=(1,), values=tuple((v - 1) ** 2 for v in range(5))),
            _depth_coupling_term(domain, 0, 1, 2),
        ]
        f = SumOfTerms(domain, terms)
        verified = _verify_properties(f, ["strong", "translation", "weak"])
        return InstanceFixture(domain, f, verified, "catalog chain5-separable")

    def chain5_concave() -> InstanceFixture:
        domain = ProductDomain([chain_tree(5)])
        f = DenseTable(domain, [-(v**2) for v in range(5)])
        return InstanceFixture(domain, f, frozenset(), "catalog chain5-concave")

    def star3_root_spike() -> InstanceFixture:
        domain = ProductDomain([star3_tree()])
        f = DenseTable(domain, [1, 0, 0])
        return InstanceFixture(domain, f, frozenset(), "catalog star3-root-spike")

    def bintree5_strong() -> InstanceFixture:
        tree = RootedTree([-1, 0, 0, 1, 1])
        domain = ProductDomain([tree, tree])
        inner = _random_verified(
            "random-verified-strong", domain, seed=42, max_value=20, attempt_budget=1000
        )
        return InstanceFixture(
            inner.domain, inner.function, inner.verified_properties,
            "catalog bintree5-strong (seed 42)",
        )

    def fork2_weak() -> InstanceFixture:
        domain = ProductDomain([fork_tree(2), fork_tree(2)])
        inner = _random_verified(
            "random-verified-weak", domain, seed=7, max_value=20, attempt_budget=1000
        )
        return InstanceFixture(
            inner.domain, inner.function, inner.verified_properties,
            "catalog fork2-weak (seed 7)",
        )

    def chain5_quadratic() -> InstanceFixture:
        domain = ProductDomain([chain_tree(5)])
        f = DenseTable(domain, [v**2 for v in range(5)])
        verified = _verify_properties(f, ["strong", "translation", "weak"])
        return InstanceFixture(
            domain, f, verified, "catalog chain5-quadratic (start at 4)", start=(4,)
        )

    def const_mixed() -> InstanceFixture:
        domain = ProductDomain([chain_tree(3), star3_tree()])
        f = DenseTable(domain, [5] * domain.size())
        verified = _verify_properties(f, ["strong", "translation", "weak"])
        return InstanceFixture(domain, f, verified, "catalog const-mixed")

    return {
        "chain5-separable": chain5_separable,
        "chain5-concave": chain5_concave,
        "star3-root-spike": star3_root_spike,
        "bintree5-strong": bintree5_strong,
        "fork2-weak": fork2_weak,
        "chain5-quadratic": chain5_quadratic,
        "const-mixed": const_mixed,
    }


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
    if kind == "fixture-catalog":
        builders = _catalog_builders()
        if name not in builders:
            raise DomainError(
                f"unknown fixture name {name!r}; known: {', '.join(sorted(builders))}"
            )
        return builders[name]()
    if domain is None:
        raise DomainError(f"kind {kind!r} needs a domain")
    if max_value < 0:
        raise DomainError(f"max_value must be non-negative, got {max_value}")
    if kind == "chain-separable":
        return _chain_separable(domain, seed, max_value)
    if kind in ("random-verified-strong", "random-verified-weak"):
        return _random_verified(kind, domain, seed, max_value, attempt_budget)
    raise DomainError(f"unknown generator kind {kind!r}; known: {', '.join(GENERATE_KINDS)}")
