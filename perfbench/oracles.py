"""Benchmark inputs and the independent oracles that check the outputs.

Everything here works on plain data (parent arrays, lists of integers) and
never calls the package, so the checks do not share code paths with what
they check.  Inputs are drawn from ``random.Random`` streams seeded by the
benchmark seed; the package receives only the generated inputs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass

BINTREE7 = (-1, 0, 0, 1, 1, 2, 2)
STAR3 = (-1, 0, 0)


def chain(n: int) -> tuple[int, ...]:
    return (-1,) + tuple(range(n - 1))


def fork(k: int) -> tuple[int, ...]:
    return (-1,) + tuple(range(k)) + (k, k)


@functools.cache
def depths(parent: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for v in range(len(parent)):
        d, u = 0, v
        while parent[u] >= 0:
            u, d = parent[u], d + 1
        out.append(d)
    return tuple(out)


@functools.cache
def distances(parent: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Edges on the tree path between every two nodes, by walking the deeper end up."""
    dep = depths(parent)
    out = []
    for a0 in range(len(parent)):
        row = []
        for b0 in range(len(parent)):
            a, b, d = a0, b0, 0
            while a != b:
                if dep[a] >= dep[b]:
                    a = parent[a]
                else:
                    b = parent[b]
                d += 1
            row.append(d)
        out.append(tuple(row))
    return tuple(out)


# ---------------------------------------------------------------------------
# Sums of terms as plain data


@dataclass(frozen=True)
class TermSpec:
    scope: tuple[int, ...]
    values: tuple[int, ...]


@dataclass(frozen=True)
class SumSpec:
    """A sum of low-arity terms over a product of trees, plus a start."""

    parents: tuple[tuple[int, ...], ...]
    terms: tuple[TermSpec, ...]
    start: tuple[int, ...] | None = None

    def sizes(self) -> list[int]:
        return [len(p) for p in self.parents]

    def size(self) -> int:
        out = 1
        for n in self.sizes():
            out *= n
        return out

    def value(self, x) -> int:
        sizes = self.sizes()
        total = 0
        for t in self.terms:
            idx = 0
            for i in t.scope:
                idx = idx * sizes[i] + x[i]
            total += t.values[idx]
        return total

    def table(self) -> list[int]:
        """Values of every labeling in mixed-radix rank order, variable 0 first."""
        return [self.value(x) for x in itertools.product(*(range(n) for n in self.sizes()))]


def unary_term(rng: random.Random, parent, i: int) -> TermSpec:
    """s * dist(v, target) + depth(v): convex along every tree path."""
    s = rng.randint(1, 3)
    target = rng.randrange(len(parent))
    dep, dist = depths(parent), distances(parent)
    return TermSpec((i,), tuple(s * dist[v][target] + dep[v] for v in range(len(parent))))


def distance_coupling(parent, i: int, j: int, w: int) -> TermSpec:
    """w * dist(x_i, x_j) between two variables over the same tree."""
    return TermSpec((i, j), tuple(w * d for row in distances(parent) for d in row))


def descent_instance(rng: random.Random, arity: int) -> SumSpec:
    """Unary terms plus path couplings w * rho(x_i, x_{i+1}) over bintree7.

    The start is a random non-root labeling, so both descent stages run.
    """
    terms = [unary_term(rng, BINTREE7, i) for i in range(arity)]
    terms += [distance_coupling(BINTREE7, i, i + 1, rng.randint(1, 2)) for i in range(arity - 1)]
    start = tuple(rng.randrange(1, len(BINTREE7)) for _ in range(arity))
    return SumSpec((BINTREE7,) * arity, tuple(terms), start)


def mixed_instance(rng: random.Random, parents) -> SumSpec:
    """Unary terms plus distance couplings between every two variables over the same tree."""
    parents = tuple(tuple(p) for p in parents)
    terms = [unary_term(rng, p, i) for i, p in enumerate(parents)]
    for i, j in itertools.combinations(range(len(parents)), 2):
        w = rng.randint(1, 2)
        if parents[i] == parents[j]:
            terms.append(distance_coupling(parents[i], i, j, w))
    return SumSpec(parents, tuple(terms))


def planted_violator(rng: random.Random, arity: int) -> SumSpec:
    """|depth_i - depth_j| couplings over bintree7, which break the strong inequality.

    With unary costs c * depth(v), c <= 1, and coupling weight w >= 2, the
    pair x = (1, 1), y = (1, 2) on any coupled coordinates (others equal)
    has lhs = 2c < rhs = 2w, so an exhaustive check must refute it.
    """
    dep = depths(BINTREE7)
    n = len(BINTREE7)
    terms = [TermSpec((i,), tuple(rng.randint(0, 1) * d for d in dep)) for i in range(arity)]
    for i in range(arity - 1):
        w = rng.randint(2, 3)
        terms.append(TermSpec((i, i + 1), tuple(w * abs(dep[a] - dep[b]) for a in range(n) for b in range(n))))
    return SumSpec((BINTREE7,) * arity, tuple(terms))


def separable_dense(rng: random.Random, parents) -> list[int]:
    """Table of a separable sum s_i * depth(x_i) + c_i, scales drawn per variable."""
    unary = []
    for p in parents:
        s, c = rng.randint(0, 3), rng.randint(0, 5)
        unary.append([s * d + c for d in depths(p)])
    return [
        sum(unary[i][v] for i, v in enumerate(x))
        for x in itertools.product(*(range(len(p)) for p in parents))
    ]


# ---------------------------------------------------------------------------
# Oracles


def table_value(parents, values):
    """Labeling -> cost of a dense table in mixed-radix order, variable 0 first."""
    sizes = [len(p) for p in parents]

    def value(x) -> int:
        r = 0
        for v, n in zip(x, sizes):
            r = r * n + v
        return values[r]

    return value


def chain_dp_min(spec: SumSpec) -> int:
    """Exact minimum of a chain-structured sum by dynamic programming.

    Accepts unary terms and pairwise terms on consecutive variables, the
    shape ``descent_instance`` builds.
    """
    sizes = spec.sizes()
    n = len(sizes)
    unary = [[0] * sizes[i] for i in range(n)]
    pair: list[list[int] | None] = [None] * (n - 1)
    for t in spec.terms:
        if len(t.scope) == 1:
            (i,) = t.scope
            for v in range(sizes[i]):
                unary[i][v] += t.values[v]
        elif len(t.scope) == 2 and t.scope[1] == t.scope[0] + 1:
            i = t.scope[0]
            acc = pair[i] or [0] * (sizes[i] * sizes[i + 1])
            pair[i] = [a + b for a, b in zip(acc, t.values)]
        else:
            raise ValueError(f"term scope {t.scope} is not chain-shaped")
    best = list(unary[0])
    for i in range(n - 1):
        table = pair[i] or [0] * (sizes[i] * sizes[i + 1])
        nxt = sizes[i + 1]
        best = [
            unary[i + 1][b] + min(best[a] + table[a * nxt + b] for a in range(sizes[i]))
            for b in range(nxt)
        ]
    return min(best)


def replay_witness(op, trees, value, witness) -> str | None:
    """Re-evaluate a violation witness; returns a complaint or None.

    ``op(tree, a, b)`` is the per-coordinate operation pair, ``value`` maps
    a labeling to its exact cost.  The witness must satisfy lhs < rhs and
    carry the same lhs and rhs.
    """
    x, y = tuple(witness.x), tuple(witness.y)
    pairs = [op(t, a, b) for t, a, b in zip(trees, x, y)]
    first = tuple(p[0] for p in pairs)
    second = tuple(p[1] for p in pairs)
    lhs = value(x) + value(y)
    rhs = value(first) + value(second)
    if not lhs < rhs:
        return f"witness {x}, {y} does not violate: lhs {lhs} >= rhs {rhs}"
    if (lhs, rhs) != (witness.lhs, witness.rhs):
        return f"witness {x}, {y} reports ({witness.lhs}, {witness.rhs}), replay gives ({lhs}, {rhs})"
    return None


def spot_check_strong(op, trees, parents, values, rng: random.Random, pairs: int) -> str | None:
    """Replay ``pairs`` random pairs of a dense table; a violation is a complaint."""
    value = table_value(parents, values)
    sizes = [len(p) for p in parents]
    for _ in range(pairs):
        x = tuple(rng.randrange(n) for n in sizes)
        y = tuple(rng.randrange(n) for n in sizes)
        p = [op(t, a, b) for t, a, b in zip(trees, x, y)]
        if value(x) + value(y) < value(tuple(q[0] for q in p)) + value(tuple(q[1] for q in p)):
            return f"pair {x}, {y} violates the strong inequality"
    return None
