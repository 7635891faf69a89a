"""Two-stage steepest descent over products of rooted binary trees.

Starting from any labeling (all roots by default), the first stage
repeatedly replaces the current labeling with the best strictly better
point of its inward neighborhood (every coordinate stays or moves to its
parent); the second stage does the same with the outward neighborhood
(every coordinate stays or moves to one of its at most two children).
The inward restriction of a strongly tree-submodular cost is submodular
on a binary cube and the outward restriction is bisubmodular on a sign
box, so each stage is an exact inner minimization.

For strongly tree-submodular costs each stage accepts at most
K = max_i |D_i| moves and the final labeling is a global minimizer.  A
stage ends with a neighborhood solve that finds no better point, and
that solve is the certificate in the trace.  The outward stage's last
solve certifies the outward neighborhood.  The inward stage's last solve
certifies the inward one unless outward moves followed it; only then is
the inward neighborhood solved once more at the final labeling.  A
safety cap of K + 1 accepted moves per stage turns a violated bound
(non-submodular input or a solver bug) into a loud error instead of a
long walk.

Labels are checked once at the public boundary.  ``minimize`` checks
its start, and refuses a tree with a node of more than two children
before its first oracle call; each restriction checks its center x and
reads the axes of its cube or box, the labels of x and their parents or
children, from the ``Neighborhoods`` table each tree builds on first
use.  Its grid reads the cost on those axes through the unchecked
``CostFunction._grid``, which for a ``SumOfTerms`` is one gather and
one broadcast add per host table, with the index of each axis kept
from earlier solves or, for an axis of one label, a plain int.  Its
walk, which the min-norm engines read, checks each step's coordinate
and sign against the same table's moves and steps the unchecked
``CostFunction._walker``, built once per restriction.  A brute run thus
checks each coordinate once for the start and once per solve, and
otherwise pays per solve for its gathers, its adds and its argmin.

Optional diagnostics track the distance from the current labeling to the
nearest minimizer over its ancestor ideal and descendant filter; they
cost an exponential enumeration and are meant for tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    IterationBoundError,
    UnsupportedStructureError,
)
from .functions import (
    DEFAULT_CELL_BUDGET,
    CostFunction,
    Labeling,
    ProductDomain,
    grid_minimum,
    own_domain,
    require_budget,
)
from .solvers import (
    BinaryCubeFunction,
    SignBoxFunction,
    bisub_brute,
    bisub_minnorm,
    sfm_brute,
    sfm_wolfe,
)

INWARD_ENGINES = ("brute", "wolfe")
OUTWARD_ENGINES = ("brute", "minnorm")


@dataclass(frozen=True)
class Certificate:
    """Each neighborhood's last solve at the final labeling found nothing better.

    ``outward_opt`` is the outward stage's last solve; ``inward_opt`` is
    the inward stage's last solve, re-solved at the end only when outward
    moves followed it.
    """

    inward_opt: bool
    outward_opt: bool

    def holds(self) -> bool:
        return self.inward_opt and self.outward_opt


@dataclass(frozen=True)
class StepDiagnostics:
    """Distances to the nearest ideal/filter optimum at one point of a run."""

    stage: str  # "start", "s1" or "s2"
    value: int
    rho_minus: int
    rho_plus: int
    inward_still_optimal: bool | None = None  # re-solved after s2 moves only


@dataclass
class DescentTrace:
    """Iteration accounting for one descent run.

    ``values`` holds the start cost followed by the cost after each
    accepted move, so it is strictly decreasing.  For verified strongly
    tree-submodular inputs both step counts stay at or below K.
    """

    s1_steps: int
    s2_steps: int
    values: list[int]
    K: int
    certificate: Certificate
    diagnostics: list[StepDiagnostics] | None = None


def inward_restrict(f: CostFunction, domain: ProductDomain | None, x: Labeling) -> BinaryCubeFunction:
    """Restriction of f to the inward neighborhood of x, as a cube function.

    Coordinate i is free iff x_i is not the root; a subset of free
    coordinates maps to the labeling that replaces those coordinates with
    their parents.  The empty set maps to x itself.  x is checked here;
    the axis of each coordinate, x_i and then its parent unless x_i is
    the root, is read from its tree's ``Neighborhoods`` table, and the
    grid reads f through ``_grid`` on those labels, which need no second
    check.  The walk refuses a coordinate outside the free set and
    steps ``_walker`` to the parent the axis holds.
    """
    domain = own_domain(f, domain)
    x = domain.validate(x)
    axes = [t._neighborhoods().inward[v] for t, v in zip(domain.trees, x)]
    free = tuple(i for i, a in enumerate(axes) if len(a) == 2)
    free_set = frozenset(free)

    def evaluate(subset: frozenset[int]) -> int:
        if not subset <= free_set:
            raise DomainError(f"subset {sorted(subset)} leaves the free set {sorted(free_set)}")
        return f.evaluate(apply_inward(domain, x, subset))

    def grid():
        k = len(free)
        # free[0] is the most significant axis here but bit 0 of the rank
        return f._grid(axes).reshape((2,) * k).transpose(tuple(reversed(range(k)))).ravel()

    walker = None  # f._walker(x), built on the first walk

    def walk(coords):
        nonlocal walker
        steps = []
        for i in coords:
            if i not in free_set:
                raise DomainError(f"coordinate {i} leaves the free set {sorted(free_set)}")
            steps.append((i, axes[i][1]))
        if walker is None:
            walker = f._walker(x)
        return walker(steps)

    return BinaryCubeFunction(m=domain.n, free=free, evaluate=evaluate, grid=grid, walk=walk)


def apply_inward(domain: ProductDomain, x: Labeling, subset: frozenset[int]) -> Labeling:
    y = list(x)
    for i in subset:
        y[i] = domain.trees[i].parent[x[i]]
    return tuple(y)


def outward_restrict(f: CostFunction, domain: ProductDomain | None, x: Labeling) -> SignBoxFunction:
    """Restriction of f to the outward neighborhood of x, as a sign box.

    Sign -1 moves coordinate i to the first child of x_i and +1 to the
    second child; signs without a child are excluded from the allowed
    set.  The all-zeros vector maps to x itself.  A node x_i with more
    than two children has no sign reading and is refused.  x is checked
    here; the allowed signs of each coordinate and its axis, the label
    each allowed sign moves to, are read from its tree's
    ``Neighborhoods`` table, and the grid reads f through ``_grid`` on
    those labels, which need no second check.  The walk reads each
    step's label from the same moves, refuses a coordinate or sign they
    do not hold, and steps ``_walker`` to that label.
    """
    domain = own_domain(f, domain)
    x = domain.validate(x)
    moves = [t._neighborhoods().outward[v] for t, v in zip(domain.trees, x)]
    if None in moves:
        i = moves.index(None)
        raise _not_binary(i, domain.trees[i], x[i])
    allowed, axes = zip(*moves)

    def check_sign(i, s) -> None:
        if s not in allowed[i]:
            raise DomainError(f"sign {s} not allowed at coordinate {i}")

    def evaluate(signs) -> int:
        if len(signs) != domain.n:
            raise DomainError(f"sign vector length {len(signs)} does not match arity {domain.n}")
        for i, s in enumerate(signs):
            check_sign(i, s)
        return f.evaluate(apply_outward(domain, x, signs))

    def grid():
        return f._grid(axes).ravel()

    walker = move = None  # f._walker(x) and (i, s) -> label, built on the first walk

    def walk(steps):
        nonlocal walker, move
        if walker is None:
            move = {(i, s): v for i, a in enumerate(allowed) for s, v in zip(a, axes[i])}
            walker = f._walker(x)
        labels = []
        for i, s in steps:
            label = move.get((i, s))
            if label is None:
                if not 0 <= i < domain.n:
                    raise DomainError(f"coordinate {i} is not in 0..{domain.n - 1}")
                check_sign(i, s)
            labels.append((i, label))
        return walker(labels)

    return SignBoxFunction(m=domain.n, allowed=allowed, evaluate=evaluate, grid=grid, walk=walk)


def apply_outward(domain: ProductDomain, x: Labeling, signs) -> Labeling:
    y = list(x)
    for i, s in enumerate(signs):
        if s:
            kids = domain.trees[i].children[x[i]]
            y[i] = kids[0] if s == -1 else kids[1]
    return tuple(y)


def _not_binary(i: int, tree, v: int) -> UnsupportedStructureError:
    return UnsupportedStructureError(
        f"tree {i} is not binary: node {v} has {len(tree.children[v])} children")


def _require_binary(domain: ProductDomain) -> None:
    for i, t in enumerate(domain.trees):
        wide = t._neighborhoods().wide
        if wide is not None:
            raise _not_binary(i, t, wide)


def _solve_inward(f, domain, x, engine: str):
    cube = inward_restrict(f, domain, x)
    return sfm_brute(cube) if engine == "brute" else sfm_wolfe(cube)


def _solve_outward(f, domain, x, engine: str):
    box = outward_restrict(f, domain, x)
    return bisub_brute(box) if engine == "brute" else bisub_minnorm(box)


def rho_minus(f: CostFunction, domain: ProductDomain | None, x: Labeling) -> int:
    """Distance from x to the nearest minimizer of f over {y preceding x}.

    Exact, by enumerating the ancestor ideal of x.  Zero iff x minimizes
    f over its inward neighborhood.
    """
    domain = own_domain(f, domain)
    x = domain.validate(x)
    chains = []
    for i, t in enumerate(domain.trees):
        chain = [x[i]]
        while chain[-1] != t.root:
            chain.append(t.parent[chain[-1]])
        chains.append(chain)
    return _nearest_optimum_distance(f, domain, x, chains)


def rho_plus(f: CostFunction, domain: ProductDomain | None, x: Labeling) -> int:
    """Distance from x to the nearest minimizer of f over {y succeeding x}."""
    domain = own_domain(f, domain)
    x = domain.validate(x)
    regions = []
    for i, t in enumerate(domain.trees):
        below = []
        stack = [x[i]]
        while stack:
            v = stack.pop()
            below.append(v)
            stack.extend(t.children[v])
        regions.append(below)
    return _nearest_optimum_distance(f, domain, x, regions)


def _nearest_optimum_distance(f, domain, x, regions) -> int:
    size = math.prod(len(r) for r in regions)
    require_budget(size, DEFAULT_CELL_BUDGET,
                   f"region of {size} labelings exceeds budget {{limit}}")
    values = f.grid(regions)
    # ancestor/descendant moves stay on root paths, so the per-tree
    # distance is a depth difference
    dist = np.zeros(values.shape, dtype=np.int64)
    for i, (t, region) in enumerate(zip(domain.trees, regions)):
        gap = np.abs(np.array([t.depth[v] for v in region]) - t.depth[x[i]])
        np.maximum(dist, gap.reshape([-1 if j == i else 1 for j in range(domain.n)]), out=dist)
    return int(dist[values == values.min()].min())


def minimize(
    f: CostFunction,
    domain: ProductDomain | None = None,
    x0: Labeling | None = None,
    *,
    inward_engine: str = "brute",
    outward_engine: str = "brute",
    diagnostics: bool = False,
) -> tuple[Labeling, int, DescentTrace]:
    """Run the two-stage descent to a certified local (hence, for strongly
    tree-submodular costs, global) minimum.

    Moves are accepted only on strict improvement, so the value sequence
    strictly decreases and the run terminates.  The default start is the
    all-roots labeling, which makes the first stage vacuous.  Unknown
    engine names are refused before any oracle call.
    """
    if inward_engine not in INWARD_ENGINES:
        raise DomainError(f"unknown inward engine {inward_engine!r}; known: {INWARD_ENGINES}")
    if outward_engine not in OUTWARD_ENGINES:
        raise DomainError(f"unknown outward engine {outward_engine!r}; known: {OUTWARD_ENGINES}")
    domain = own_domain(f, domain)
    _require_binary(domain)
    x = domain.validate(x0) if x0 is not None else domain.all_roots()
    K = max(t.node_count for t in domain.trees)
    fx = f._evaluate(x)  # x is checked once, above
    values = [fx]
    diag: list[StepDiagnostics] | None = [] if diagnostics else None

    def record(stage: str) -> None:
        if diag is None:
            return
        inward_ok = None
        if stage == "s2":
            inward_ok = _solve_inward(f, domain, x, "brute")[1] == fx
        diag.append(
            StepDiagnostics(
                stage=stage,
                value=fx,
                rho_minus=rho_minus(f, domain, x),
                rho_plus=rho_plus(f, domain, x),
                inward_still_optimal=inward_ok,
            )
        )

    def stage(name: str, label: str, solve, engine: str, apply) -> tuple[int, bool]:
        """Accept strictly improving moves; report the step count and
        whether the final, non-improving solve matched the current value."""
        nonlocal x, fx
        steps = 0
        while True:
            move, val = solve(f, domain, x, engine)
            if not val < fx:
                return steps, val == fx
            x = apply(domain, x, move)
            fx = val
            steps += 1
            if steps > K + 1:
                raise IterationBoundError(
                    f"{name} stage accepted {steps} moves, above the K+1 cap ({K + 1}); "
                    "the cost is likely not strongly tree-submodular"
                )
            values.append(fx)
            record(label)

    record("start")
    s1, inward_opt = stage("inward", "s1", _solve_inward, inward_engine, apply_inward)
    s2, outward_opt = stage("outward", "s2", _solve_outward, outward_engine, apply_outward)
    if s2:
        # outward moves left the inward stage's final point behind
        inward_opt = _solve_inward(f, domain, x, inward_engine)[1] == fx
    trace = DescentTrace(
        s1_steps=s1,
        s2_steps=s2,
        values=values,
        K=K,
        certificate=Certificate(inward_opt=inward_opt, outward_opt=outward_opt),
        diagnostics=diag,
    )
    return x, fx, trace


def minimize_exhaustive(
    f: CostFunction, domain: ProductDomain | None = None
) -> tuple[Labeling, int]:
    """Global minimum by scanning the whole domain; ties pick the lowest rank.

    Works for any tree shapes, including non-binary ones that the descent
    rejects, and doubles as the oracle the descent is tested against.
    """
    domain = own_domain(f, domain)
    return grid_minimum(f, [range(t.node_count) for t in domain.trees])
