"""Exact minimizers for the two descent neighborhood subproblems.

The outer descent needs two inner engines: minimization of a submodular
set function over a binary cube (the inward neighborhood) and
minimization of a bisubmodular function over a box of sign vectors (the
outward neighborhood).  Brute-force enumeration is the default engine
for both, so correctness at desk scale never hinges on floating point.
Each brute engine reads the whole cube or box as one array of exact
values, from the restriction's ``grid`` when it carries one (the
descent's restrictions do; on a ``SumOfTerms`` cost each is one gather
and one broadcast add per host table, whatever the size of the cube or
box) or else from one
``evaluate`` per cell in rank order, and takes its first minimum: the
lowest-rank tie-break.

Min-norm-point alternatives are provided as well:

* ``sfm_wolfe``     -- Wolfe's nearest-point algorithm over the base
                       polytope, with the greedy linear-optimization
                       oracle (the classic Fujishige-Wolfe scheme);
* ``bisub_minnorm`` -- the same nearest-point loop driven by the signed
                       greedy oracle over the bisubmodular polyhedron.
                       The minimizer-extraction rule for restricted sign
                       boxes is validated empirically, so this engine is
                       opt-in and always cross-checked against
                       ``bisub_brute`` in the test suite.

Each greedy call moves one coordinate at a time along a chain from the
empty set or the zero vector, so both engines read one ``walk`` of the
restriction per call: its values at every prefix of the chain.  The
descent's restrictions carry a walk that builds one walk state of the
cost at the neighborhood's center on its first call and reuses it on
every later one; for a ``SumOfTerms`` cost each step re-sums only the
terms of the moved coordinate.  Without a walk, the engines call
``evaluate`` once per prefix.  Every greedy vertex
entry is the float of an exact integer difference.

Both engines run one nearest-point loop, ``_min_norm_point``.  Its corral
(the vertices whose affine hull holds the iterate) lives in buffers kept
across cycles together with the bordered Gram system of that hull: a new
vertex writes one Gram row and column, and a minor cycle that drops
vertices compresses the rows and columns in place.  Gram entries are
sums of products of integers, exact below 2**53, so there each system
solved is the one a rebuild from the vertices would give.  After every
major cycle the iterate x is tested against the corral it was solved
from: <x, s> must equal <x, x> within the tolerance for every corral
vertex s, or the loop raises ``SolverFailureError``.  Both engines
share one convergence tolerance and one cap on major cycles, private
constants of this module.

Fixed coordinates are expressed by shrinking the free set or the allowed
sign sets, never by penalty terms, which would not preserve
(bi)submodularity.  All solvers are deterministic: identical inputs
produce identical outputs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, SolverFailureError
from .functions import DEFAULT_BOX_BUDGET, DEFAULT_CUBE_BUDGET, first_minimum, require_budget

Sign = int
SignVector = tuple[int, ...]

_ALLOWED_SETS = {(0,), (-1, 0), (0, 1), (-1, 0, 1)}


@dataclass(frozen=True)
class BinaryCubeFunction:
    """Set function over subsets of the free coordinates of a cube.

    Coordinates outside ``free`` are fixed at 0.  ``evaluate`` must be
    total on all subsets of ``free`` and return exact integers.  The
    optional ``grid`` returns the same values for every subset at once,
    as a flat array indexed by subset rank (bit j is ``free[j]``).  The
    optional ``walk`` takes a sequence of free coordinates and returns
    the values along the chain they build, one per prefix: the empty
    set, then each coordinate added to the ones before it.
    """

    m: int
    free: tuple[int, ...]
    evaluate: Callable[[frozenset[int]], int]
    grid: Callable[[], np.ndarray] | None = None
    walk: Callable[[Sequence[int]], list[int]] | None = None

    def __post_init__(self):
        if len(set(self.free)) != len(self.free):
            raise DomainError("free coordinates repeat")
        for i in self.free:
            if not 0 <= i < self.m:
                raise DomainError(f"free coordinate {i} outside 0..{self.m - 1}")


@dataclass(frozen=True)
class SignBoxFunction:
    """Function over a box of sign vectors in {-1, 0, +1}^m.

    ``allowed[i]`` lists the admissible signs of coordinate i in
    ascending order and always contains 0, so the box is closed under
    the bisubmodular meet and join.  The optional ``grid`` returns the
    values of the whole box at once, as a flat array in the order of
    ``itertools.product(*allowed)``.  The optional ``walk`` takes steps
    ``(i, s)``, each setting coordinate i to sign s, and returns the
    values at the zero vector and after each step; a sign outside
    ``allowed`` raises the same ``DomainError`` as ``evaluate``.  In the
    descent's outward restriction, sign -1 moves x_i to its first child
    and +1 to its second (``Neighborhoods.outward``).
    """

    m: int
    allowed: tuple[tuple[int, ...], ...]
    evaluate: Callable[[SignVector], int]
    grid: Callable[[], np.ndarray] | None = None
    walk: Callable[[Sequence[tuple[int, Sign]]], list[int]] | None = None

    def __post_init__(self):
        if len(self.allowed) != self.m:
            raise DomainError(f"got {len(self.allowed)} allowed sets for m={self.m}")
        for i, signs in enumerate(self.allowed):
            if tuple(signs) not in _ALLOWED_SETS:
                raise DomainError(
                    f"allowed[{i}] = {signs!r} must be an ascending subset of "
                    "(-1, 0, 1) containing 0"
                )

    def zeros(self) -> SignVector:
        return (0,) * self.m

    def box_size(self) -> int:
        size = 1
        for signs in self.allowed:
            size *= len(signs)
        return size


def sfm_brute(g: BinaryCubeFunction) -> tuple[frozenset[int], int]:
    """Exact minimizer by enumerating the cube; ties pick the lowest rank.

    Subset rank treats bit j as membership of ``free[j]``, so the empty
    set wins any tie with later subsets.
    """
    k = len(g.free)
    require_budget(1 << k, DEFAULT_CUBE_BUDGET, f"2**{k} subsets exceed budget {{limit}}")

    def subset(mask: int) -> frozenset[int]:
        return frozenset(g.free[j] for j in range(k) if mask >> j & 1)

    if g.grid is not None:
        values = g.grid()
    else:
        values = np.array([g.evaluate(subset(mask)) for mask in range(1 << k)], dtype=object)
    mask = int(values.argmin())  # first minimum: the lowest rank
    return subset(mask), int(values[mask])


def bisub_brute(h: SignBoxFunction) -> tuple[SignVector, int]:
    """Exact minimizer by enumerating the box; ties pick the lowest rank.

    Vectors are enumerated in mixed radix with coordinate 0 most
    significant and each coordinate running through its allowed signs in
    (-1, 0, +1) order, so for a constant function the first enumerated
    vector (all -1 where allowed) is returned.
    """
    size = h.box_size()
    require_budget(size, DEFAULT_BOX_BUDGET, f"box size {size} exceeds budget {{limit}}")
    if h.grid is not None:
        values = h.grid()
    else:
        values = np.array([h.evaluate(v) for v in itertools.product(*h.allowed)], dtype=object)
    return first_minimum(values, h.allowed)


# ---------------------------------------------------------------------------
# Wolfe's minimum-norm-point engine

_DEGENERACY_EPS = 1e-12
_EPS = 1e-10  # relative squared-norm gap that ends the loop; its root thresholds the point
_MAX_MAJOR_CYCLES = 10_000
_CORRAL_ROWS = 8  # initial capacity of the corral buffers; they double when full


def _min_norm_point(dim: int, linear_minimizer: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Wolfe's algorithm for the nearest point to the origin in a polytope.

    ``linear_minimizer(x)`` must return a vertex minimizing <x, v>.
    Terminates when the squared-norm gap <x, x> - <x, q> falls below
    ``_EPS`` times a scale correction; raises on the cycle cap or a
    drifted corral instead of returning a silently wrong point.  After
    every major cycle each corral vertex s must satisfy
    |<x, s> - <x, x>| <= ``_EPS`` times the largest Gram diagonal entry
    (at least 1), which holds exactly when x is the nearest point of the
    corral's affine hull: the system the minor cycle solved.

    The corral of m vertices is ``S[:m]`` with weights ``lam[:m]``; its
    bordered system ``B[:m+1, :m+1]`` is a border of ones around the
    Gram matrix ``G[:m, :m] = S[:m] @ S[:m].T``, where ``G`` views ``B``.
    """
    rows = _CORRAL_ROWS
    S = np.empty((rows, dim))
    B = np.ones((rows + 1, rows + 1))
    B[0, 0] = 0.0
    G = B[1:, 1:]
    lam = np.empty(rows)
    unit = np.zeros(rows + 1)  # right-hand side of the bordered system: weights sum to one
    unit[0] = 1.0
    x = S[0] = linear_minimizer(np.zeros(dim))
    G[0, 0], lam[0], m = x @ x, 1.0, 1
    xx = float(G[0, 0])
    for _ in range(_MAX_MAJOR_CYCLES):
        q = linear_minimizer(x)
        qq = float(q @ q)
        scale = max(1.0, float(G.diagonal()[:m].max()), qq)
        if float(x @ q) >= xx - _EPS * scale:
            return x
        if (np.abs(S[:m] - q) <= _DEGENERACY_EPS * scale).all(axis=1).any():
            return x  # oracle repeats a known vertex: numerically converged
        if m == rows:  # full: double the buffers; rows past m are written before use
            S, lam = np.concatenate([S, S]), np.concatenate([lam, lam])
            B, unit = np.pad(B, (0, rows), constant_values=1.0), np.pad(unit, (0, rows))
            G, rows = B[1:, 1:], 2 * rows
        G[m, :m] = G[:m, m] = S[:m] @ q
        G[m, m], S[m], lam[m] = qq, q, 0.0
        m += 1
        for _ in range(m + 4):
            # affine minimizer of the corral: its weights solve the bordered system
            try:
                coeffs = np.linalg.solve(B[:m + 1, :m + 1], unit[:m + 1])[1:]
            except np.linalg.LinAlgError:
                coeffs = np.linalg.lstsq(B[:m + 1, :m + 1], unit[:m + 1], rcond=None)[0][1:]
            w = lam[:m]
            if coeffs.min() > -_DEGENERACY_EPS:
                np.maximum(coeffs, 0.0, out=w)  # tiny negative weights become zero
                w /= w.sum()
                x = S[:m].T @ w
                xx = float(x @ x)
                break
            gap = w - coeffs
            shrink = gap > _DEGENERACY_EPS
            theta = float((w[shrink] / gap[shrink]).min())
            w = theta * coeffs + (1.0 - theta) * w
            keep = w > _DEGENERACY_EPS
            if not keep.any():
                keep[int(w.argmax())] = True
            kept = keep.nonzero()[0]
            m = len(kept)
            S[:m] = S[kept]
            G[:m, :m] = G[kept][:, kept]
            lam[:m] = w[kept]
            lam[:m] /= lam[:m].sum()
        else:
            raise SolverFailureError("minor cycle failed to restore a corral")
        if (np.abs(S[:m] @ x - xx) > _EPS * max(1.0, float(G.diagonal()[:m].max()))).any():
            raise SolverFailureError("min-norm corral drifted from its point")
    raise SolverFailureError(f"min-norm point loop exceeded {_MAX_MAJOR_CYCLES} major cycles")


def _walk(g, start, steps, put) -> list[int]:
    """g at ``start`` and after each step, exact integers.

    Uses the restriction's ``walk`` when it carries one, else one
    ``evaluate`` per prefix, where ``put(point, step)`` is the next point.
    """
    if g.walk is not None:
        return g.walk(steps)
    point = start
    values = [g.evaluate(point)]
    for step in steps:
        point = put(point, step)
        values.append(g.evaluate(point))
    return values


def sfm_wolfe(g: BinaryCubeFunction) -> tuple[frozenset[int], int]:
    """Submodular minimization via the min-norm point of the base polytope.

    The greedy oracle linearly optimizes over the base polytope of the
    normalized function, reading one walk of ``g`` per call; the
    minimizer is read off the min-norm point by collecting coordinates
    below -sqrt(_EPS).  On integer-valued submodular inputs of moderate
    magnitude this reproduces the brute-force value exactly;
    non-submodular inputs void the guarantee.
    """
    free = g.free
    k = len(free)

    def greedy(x: np.ndarray) -> np.ndarray:
        order = np.argsort(x, kind="stable").tolist()
        values = _walk(g, frozenset(), [free[j] for j in order], lambda A, i: A | {i})
        v = [0.0] * k
        for j, prev, cur in zip(order, values, values[1:]):
            v[j] = float(cur - prev)
        return np.array(v)

    point = _min_norm_point(k, greedy)
    threshold = -(_EPS ** 0.5)
    subset = frozenset(free[j] for j in range(k) if point[j] < threshold)
    return subset, g.evaluate(subset)


def _put_sign(vec: SignVector, step: tuple[int, Sign]) -> SignVector:
    i, s = step
    return vec[:i] + (s,) + vec[i + 1:]


def bisub_minnorm(h: SignBoxFunction) -> tuple[SignVector, int]:
    """Experimental bisubmodular minimization via a min-norm point.

    The linear oracle is the signed greedy over the bisubmodular
    polyhedron, reading one walk of ``h`` per call; the minimizer is
    extracted as -sign of the min-norm point, thresholded at sqrt(_EPS).

    Coordinates with a missing sign make that polyhedron unbounded, so
    restricted boxes are first extended to the full box as
    h(clip(s)) + M * #forbidden(s): a greedy step to a forbidden sign
    makes no move and adds M.  Meet and join never introduce a sign
    absent from both arguments, which makes the penalty count itself
    bisubmodular, and the clipping deficit only arises on coordinates
    where the penalty contributes M of slack, so a penalty above twice
    the value spread yields a bisubmodular extension whose minimizers
    avoid forbidden signs.  M adapts to the spread of the h values the
    walks have seen; the extraction rule is validated empirically, which
    is why this engine is opt-in and the test suite compares it with
    ``bisub_brute``.
    """
    live = [i for i in range(h.m) if h.allowed[i] != (0,)]
    k = len(live)
    allowed = [h.allowed[i] for i in live]
    low, high = math.inf, -math.inf  # the lowest and highest h value the walks have seen

    def solve(penalty: int) -> list[Sign]:
        def signed_greedy(x: np.ndarray) -> np.ndarray:
            nonlocal low, high
            entries = x.tolist()
            order = np.argsort(-np.abs(x), kind="stable").tolist()
            signs = [-1 if entries[j] > 0 else 1 for j in order]
            steps = [(live[j], s) for j, s in zip(order, signs) if s in allowed[j]]
            values = _walk(h, h.zeros(), steps, _put_sign)
            low, high = min(low, min(values)), max(high, max(values))
            v = [0.0] * k
            moves = iter(values)
            prev = next(moves)
            for j, s in zip(order, signs):
                if s in allowed[j]:
                    cur = next(moves)
                    v[j] = float(s * (cur - prev))
                    prev = cur
                else:
                    v[j] = float(s * penalty)
            return np.array(v)

        point = _min_norm_point(k, signed_greedy)
        threshold = _EPS ** 0.5
        signs = [0] * h.m
        for j, coord in enumerate(live):
            if point[j] > threshold:
                signs[coord] = -1
            elif point[j] < -threshold:
                signs[coord] = 1
        return signs

    # a full box has no forbidden sign, so no greedy step reads the penalty
    restricted = any(h.allowed[i] != (-1, 0, 1) for i in live)
    penalty = 1
    for _ in range(20):
        signs = solve(penalty)
        in_box = all(s in a for s, a in zip(signs, h.allowed))
        needed = 2 * (high - low) + 1 if restricted else 0
        if in_box and penalty >= needed:
            break
        penalty = max(needed, 2 * penalty)
    else:
        raise SolverFailureError("penalty extension failed to stabilize")
    result = tuple(s if s in a else 0 for s, a in zip(signs, h.allowed))
    return result, h.evaluate(result)
