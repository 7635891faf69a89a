"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library code paths they check:
paths come from breadth-first search over an adjacency list, ancestor
tests from set containment of root walks, and property checks from plain
double loops over labelings.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import treesub as ts

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")


@pytest.fixture
def chain5() -> ts.RootedTree:
    return ts.chain_tree(5)


@pytest.fixture
def star3() -> ts.RootedTree:
    return ts.star3_tree()


@pytest.fixture
def bintree7() -> ts.RootedTree:
    return ts.complete_binary_tree(3)


@pytest.fixture
def fork2() -> ts.RootedTree:
    return ts.fork_tree(2)


# ---------------------------------------------------------------------------
# Independent oracles


def bfs_path(tree: ts.RootedTree, a: int, b: int) -> list[int]:
    """Shortest path by BFS over the undirected adjacency list."""
    adj: list[list[int]] = [[] for _ in range(tree.node_count)]
    for v, p in enumerate(tree.parent):
        if p >= 0:
            adj[v].append(p)
            adj[p].append(v)
    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for w in adj[u]:
            if w not in prev:
                prev[w] = u
                queue.append(w)
    out = [b]
    while prev[out[-1]] is not None:
        out.append(prev[out[-1]])
    return list(reversed(out))


def root_walk(tree: ts.RootedTree, v: int) -> list[int]:
    out = [v]
    while out[-1] != tree.root:
        out.append(tree.parent[out[-1]])
    return out


def is_ancestor_oracle(tree: ts.RootedTree, a: int, b: int) -> bool:
    return a in root_walk(tree, b)


def _pair_tables(domain: ts.ProductDomain, op, *args) -> list[dict]:
    """Per tree, op(tree, a, b, *args) for every label pair (a, b)."""
    return [{(a, b): op(t, a, b, *args) for a in range(t.node_count) for b in range(t.node_count)}
            for t in domain.trees]


def naive_check(f: ts.CostFunction, op) -> ts.ViolationWitness | None:
    """First violation of f(x)+f(y) >= f(op1)+f(op2) in rank-lex order.

    Values and per-tree op results are looked up in tables filled once,
    so domains of a few hundred labelings stay quick to scan.
    """
    domain = f.domain
    labelings = list(domain.labelings())
    value = {x: f.evaluate(x) for x in labelings}
    moves = _pair_tables(domain, op)
    for x in labelings:
        for y in labelings:
            moved = [m[a, b] for m, a, b in zip(moves, x, y)]
            first = tuple(m[0] for m in moved)
            second = tuple(m[1] for m in moved)
            lhs = value[x] + value[y]
            rhs = value[first] + value[second]
            if lhs < rhs:
                return ts.ViolationWitness("naive", x, y, None, lhs, rhs)
    return None


def naive_check_translation(f: ts.CostFunction) -> ts.ViolationWitness | None:
    """First violation of the d-step inequality, d = 0..rho_inf(x, y) per pair."""
    domain = f.domain
    labelings = list(domain.labelings())
    value = {x: f.evaluate(x) for x in labelings}
    dist = _pair_tables(domain, ts.rho)
    steps: dict[int, list[dict]] = {}
    for x in labelings:
        for y in labelings:
            dmax = max(r[a, b] for r, a, b in zip(dist, x, y))
            for d in range(dmax + 1):
                if d not in steps:
                    steps[d] = _pair_tables(domain, ts.up_down, d)
                moved = [m[a, b] for m, a, b in zip(steps[d], x, y)]
                up = tuple(m[0] for m in moved)
                down = tuple(m[1] for m in moved)
                lhs = value[x] + value[y]
                rhs = value[up] + value[down]
                if lhs < rhs:
                    return ts.ViolationWitness("naive-translation", x, y, d, lhs, rhs)
    return None


def chain_check(values, prop: str):
    """First violation, as (x, y, d, lhs, rhs), of the strong or weak
    inequality for the table ``values`` over one chain, in rank order.

    On a chain the labels are depths, meet/join are the floor/ceiling
    midpoints of x and y, and wedge/vee are their min/max; each row x is
    compared with every y at once.
    """
    f = np.asarray(values)
    y = np.arange(len(f))
    for x in range(len(f)):
        if prop == "strong":
            first, second = (x + y) // 2, (x + y + 1) // 2
        else:
            first, second = np.minimum(x, y), np.maximum(x, y)
        rhs = f[first] + f[second]
        violated = f[x] + f[y] < rhs
        if violated.any():
            k = int(np.argmax(violated))
            return (x,), (k,), None, int(f[x] + f[k]), int(rhs[k])
    return None


def _coordwise(domain: ts.ProductDomain, op, x, y, *args):
    moved = [op(t, a, b, *args) for t, a, b in zip(domain.trees, x, y)]
    return tuple(m[0] for m in moved), tuple(m[1] for m in moved)


def sampled_steps(prop: str, domain: ts.ProductDomain):
    """``steps(x, y)`` for ``replay_sampled``: the (d, op1, op2) of one pair.

    "strong" and "weak" give the midpoint and wedge/vee pair; "min-max"
    gives per-coordinate min and max, for chain domains, whose labels are
    their depths; "translation" gives the up/down pair for d = 0 up to
    rho_inf(x, y).
    """
    if prop == "translation":
        return lambda x, y: [(d, *_coordwise(domain, ts.up_down, x, y, d))
                             for d in range(ts.rho_inf(domain, x, y) + 1)]
    if prop == "min-max":
        return lambda x, y: [(None, tuple(map(min, x, y)), tuple(map(max, x, y)))]
    op = {"strong": ts.meet_join, "weak": ts.wedge_vee}[prop]
    return lambda x, y: [(None, *_coordwise(domain, op, x, y))]


def replay_sampled(f: ts.CostFunction, steps, samples: int, seed: int):
    """(witness key, pairs checked, note) of a sampled check, one sample
    at a time.

    Each sample draws rank(x) then rank(y) from ``SplitMix64(seed)`` and
    scans ``steps(x, y)`` in order; the first sample with some
    f(x)+f(y) < f(op1)+f(op2) ends the scan, and its first such step is
    the witness (x, y, d, lhs, rhs).
    """
    domain = f.domain
    rng = ts.SplitMix64(seed)
    for s in range(samples):
        x = domain.unrank(rng.below(domain.size()))
        y = domain.unrank(rng.below(domain.size()))
        lhs = f.evaluate(x) + f.evaluate(y)
        for d, up, down in steps(x, y):
            rhs = f.evaluate(up) + f.evaluate(down)
            if lhs < rhs:
                return (x, y, d, lhs, rhs), s + 1, f"violation found at sample {s + 1} of {samples}"
    return None, samples, f"no violation found in {samples} samples; not a proof"


def brute_minimum(f: ts.CostFunction) -> tuple[tuple[int, ...], int]:
    """Full scan, first minimum in rank order."""
    best_x, best = None, None
    for x in f.domain.labelings():
        v = f.evaluate(x)
        if best is None or v < best:
            best_x, best = x, v
    return best_x, best


def term_sum(domain: ts.ProductDomain, terms, y) -> int:
    """Sum of term tables at y; each cell is located by a plain
    mixed-radix loop over the term's scope."""
    total = 0
    for t in terms:
        idx = 0
        for i in t.scope:
            idx = idx * domain.trees[i].node_count + y[i]
        total += t.values[idx]
    return total


def term_grid(domain: ts.ProductDomain, terms, axes) -> list[int]:
    """``term_sum`` at every labeling of ``itertools.product(*axes)``, in order."""
    return [term_sum(domain, terms, y) for y in itertools.product(*axes)]


def term_sum_minimum(domain: ts.ProductDomain, terms, labelings) -> tuple[int, int]:
    """First minimum of a sum of term tables over labelings, in their order.

    Returns (position in ``labelings``, value).
    """
    best_k, best = None, None
    for k, y in enumerate(labelings):
        total = term_sum(domain, terms, y)
        if best is None or total < best:
            best_k, best = k, total
    return best_k, best


def term_walk(domain: ts.ProductDomain, terms, x, steps) -> list[int]:
    """Sum of term tables at x and after each step ``(i, v)`` (set x_i = v).

    Every point is summed afresh over every term.  A dense table is the
    single term ``(range(n), values)``; ``terms`` only needs ``scope`` and
    ``values`` attributes.
    """
    y = list(x)
    out = [term_sum(domain, terms, y)]
    for i, v in steps:
        y[i] = v
        out.append(term_sum(domain, terms, y))
    return out


def fork_encodings(kind: str, k: int) -> dict[int, tuple[int, ...]]:
    """Label -> encoding for ``fork_tree(k)`` ("fork") or ``chain_tree(k)`` ("chain").

    Written from the fork definition: the chain labels 0..K are encoded
    as 1^k 0^(K+1-k), and the fork leaves K+1 and K+2 as 1^K -1 and
    1^K +1.
    """
    K = k if kind == "fork" else k - 1
    out = {label: (1,) * label + (0,) * (K + 1 - label) for label in range(K + 1)}
    if kind == "fork":
        out[K + 1] = (1,) * K + (-1,)
        out[K + 2] = (1,) * K + (1,)
    return out


def encoded_first_minimum(f: ts.CostFunction, encodings) -> tuple[tuple[int, ...], int]:
    """First minimum of f over the encoded image, in lexicographic order.

    ``encodings`` holds one label -> encoding map per variable.  Every
    labeling is encoded as the concatenation of its variables' codes,
    the codes are sorted lexicographically (the sign box's mixed-radix
    order with -1 < 0 < +1), and the scan keeps the first minimum.
    """
    coded = sorted(
        (sum((enc[v] for enc, v in zip(encodings, x)), ()), x)
        for x in itertools.product(*(sorted(enc) for enc in encodings))
    )
    best_x, best = None, None
    for _, x in coded:
        v = f.evaluate(x)
        if best is None or v < best:
            best_x, best = x, v
    return best_x, best


def random_terms(rng: ts.SplitMix64, dom: ts.ProductDomain, low: int, high: int, count: int):
    """Unary terms plus ``count`` terms of arity 1-3 with unsorted scopes."""
    terms = [ts.Term((i,), tuple(rng.below(high - low + 1) + low for _ in range(t.node_count)))
             for i, t in enumerate(dom.trees)]
    for _ in range(count):
        scope = list(range(dom.n))
        for j in range(dom.n - 1, 0, -1):
            r = rng.below(j + 1)
            scope[j], scope[r] = scope[r], scope[j]
        scope = tuple(scope[:1 + rng.below(3)])
        size = 1
        for i in scope:
            size *= dom.trees[i].node_count
        terms.append(ts.Term(scope, tuple(rng.below(high - low + 1) + low for _ in range(size))))
    return terms


def random_table_function(
    rng: ts.SplitMix64, domain: ts.ProductDomain, max_value: int = 20
) -> ts.DenseTable:
    values = [rng.below(max_value + 1) for _ in range(domain.size())]
    return ts.DenseTable(domain, values)


_SIGN_CHOICES = ((-1, 0, 1), (-1, 0), (0, 1))

_SIGN_TREE = {
    (-1, 0, 1): ts.star3_tree(),
    (-1, 0): ts.RootedTree([-1, 0]),
    (0, 1): ts.RootedTree([-1, 0]),
}

_SIGN_TO_LABEL = {
    (-1, 0, 1): {0: 0, -1: 1, 1: 2},
    (-1, 0): {0: 0, -1: 1},
    (0, 1): {0: 0, 1: 1},
}


def random_sign_box(rng: ts.SplitMix64, m: int, full_box: bool = False):
    """Verified random bisubmodular function over a (possibly restricted) box.

    Bisubmodularity over a sign box is strong tree-submodularity over the
    product of the per-coordinate sign trees, so the verified generator
    provides the rejection loop.
    """
    if full_box:
        allowed = ((-1, 0, 1),) * m
    else:
        allowed = tuple(
            _SIGN_CHOICES[rng.below(3)] if i else (-1, 0, 1) for i in range(m)
        )
    domain = ts.ProductDomain([_SIGN_TREE[a] for a in allowed])
    fx = ts.generate("random-verified-strong", domain, seed=rng.below(1 << 32))
    f = fx.function

    def evaluate(signs) -> int:
        labels = tuple(_SIGN_TO_LABEL[allowed[i]][s] for i, s in enumerate(signs))
        return f.evaluate(labels)

    return ts.SignBoxFunction(m=m, allowed=allowed, evaluate=evaluate)


def random_cut_plus_modular(rng: ts.SplitMix64, m: int) -> ts.BinaryCubeFunction:
    """Weighted graph cut plus a modular term: submodular by construction."""
    edges = []
    for u in range(m):
        for v in range(u + 1, m):
            w = rng.below(5)
            if w:
                edges.append((u, v, w))
    shifts = [rng.below(13) - 6 for _ in range(m)]

    def evaluate(subset) -> int:
        cut = sum(w for u, v, w in edges if (u in subset) != (v in subset))
        return cut + sum(shifts[i] for i in subset)

    return ts.BinaryCubeFunction(m=m, free=tuple(range(m)), evaluate=evaluate)


# ---------------------------------------------------------------------------
# Canonical instance documents, from the format spec in Fraction arithmetic


class BadCell(Exception):
    """The first malformed cost value, worded as the parser must report it."""


def _spec_value(raw, unit: Fraction, where: str) -> Fraction:
    if type(raw) is int:
        return raw * unit
    if type(raw) is not dict:
        raise BadCell(f"{where}: expected an integer or {{num, den}} object")
    extra = sorted(set(raw) - {"num", "den"})
    if extra:
        raise BadCell(f"{where}: unexpected keys {extra}")
    if type(raw.get("num")) is not int:
        raise BadCell(f"{where}.num: expected an integer")
    if type(raw.get("den")) is not int or raw["den"] < 1:
        raise BadCell(f"{where}.den: expected a positive integer")
    return Fraction(raw["num"], raw["den"])


def canonical_document_oracle(doc: dict) -> dict:
    """Canonical form of a document whose trees and term shapes are valid.

    Written from the format spec: a plain integer counts in units of the
    declared denominator (default 1) and ``{"num": p, "den": q}`` is p/q
    for an integer p and an integer q >= 1, with no other keys.  The
    canonical form carries the least denominator that makes every value
    an integer, and each value as the integer over it.  A malformed value
    raises ``BadCell`` for the first one in document order.
    """
    fn = doc["function"]
    unit = Fraction(1, fn.get("denominator", 1))
    if fn["type"] == "table":
        groups = [("function.values", fn["values"])]
    else:
        groups = [(f"function.terms[{k}].values", t["values"]) for k, t in enumerate(fn["terms"])]
    exact = [
        [_spec_value(raw, unit, f"{where}[{i}]") for i, raw in enumerate(values)]
        for where, values in groups
    ]
    den = math.lcm(*(v.denominator for values in exact for v in values))
    ints = [[int(v * den) for v in values] for values in exact]
    out_fn: dict = {"type": fn["type"], "denominator": den}
    if fn["type"] == "table":
        out_fn["values"] = ints[0]
    else:
        out_fn["terms"] = [{"scope": t["scope"], "values": v} for t, v in zip(fn["terms"], ints)]
    out = {"format_version": doc["format_version"], "trees": doc["trees"], "function": out_fn}
    if doc.get("metadata"):
        out["metadata"] = doc["metadata"]
    return out
