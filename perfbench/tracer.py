"""Outside-in tracing of the package's layers.

Wrappers are installed on the names consumers call through (module
attributes such as ``treesub.descent.sfm_brute`` and class methods such as
``SumOfTerms.evaluate``) and restored afterwards; the package source is not
touched.  Three kinds of wrapper exist:

* a *span* records name, start, end, parent span and op id, one record
  per call, for calls made a few times per op;
* a *leaf* is timed like a span but folded into a per-name aggregate
  (calls, total time, self time) on the nearest recorded span, because it
  runs tens of thousands of times per op (oracle evaluations);
* a *counter* only counts calls (``check_node`` runs ~10x per evaluation,
  so timing it would swamp what it measures).

A span's self time is its duration minus the time its child spans and
leaves cover, so the self times of one op add up to the op's wall time.
Wrappers outside an op pass straight through.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import time
import tracemalloc
from collections import defaultdict

perf = time.perf_counter


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "self_s", "leaves", "counts", "attrs")

    def __init__(self, index, name, parent, op):
        self.index = index
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = self.self_s = 0.0
        self.leaves: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {
            "name": self.name, "start": self.start, "end": self.end, "parent": self.parent,
            "op": self.op, "self_s": self.self_s, "leaves": self.leaves,
            "counts": self.counts, "attrs": self.attrs,
        }


class Tracer:
    """Spans kept in memory; frames on ``_stack`` are ``[covered_s, owner_span]``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- op boundary ------------------------------------------------------

    def run_op(self, op_id: int, name: str, fn):
        if self._stack:
            raise RuntimeError("ops do not nest")
        return self._call_span(name, fn, (), {}, None, op_id)

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, annotate=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self._call_span(name, fn, args, kwargs, annotate, None)

        return wrapper

    def _call_span(self, name, fn, args, kwargs, annotate, op_id):
        stack = self._stack
        parent = stack[-1][1] if stack else None
        span = Span(len(self.spans), name, parent.index if parent else None,
                    parent.op if parent else op_id)
        self.spans.append(span)
        frame = [0.0, span]
        stack.append(frame)
        span.start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = end = perf()
            stack.pop()
            span.self_s = (end - span.start) - frame[0]
            if stack:
                stack[-1][0] += end - span.start
        if annotate is not None:
            span.attrs.update(annotate(args, kwargs, result))
        return result

    def leaf(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            owner = stack[-1][1]
            frame = [0.0, owner]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                stack[-1][0] += dur
                agg = owner.leaves.get(name)
                if agg is None:
                    owner.leaves[name] = [1, dur, dur - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[0]

        return wrapper

    def counter(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts = stack[-1][1].counts
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing -------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.record(), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Layer wrappers


def _mode(args, kwargs) -> str:
    return kwargs.get("mode", args[2] if len(args) > 2 else "exhaustive")


def _check_annotate(args, kwargs, report):
    return {"mode": _mode(args, kwargs), "pairs": report.pairs_checked, "ok": report.ok}


_ATTEMPT = re.compile(r"attempt=(\d+)")


def _generate_annotate(args, kwargs, fixture):
    m = _ATTEMPT.search(fixture.provenance)
    return {"attempts": int(m.group(1)) + 1} if m else {}


def _parse_annotate(args, kwargs, result):
    function = result[1]
    if hasattr(function, "terms"):
        return {"cells": sum(len(t.values) for t in function.terms)}
    return {"cells": len(function.values)}


def install(tracer: Tracer, ts) -> None:
    """Wrap every layer's public entry points; ``tracer.restore()`` undoes it."""
    from treesub import checks, cli, descent, functions, trees, weak

    def span(name, annotate=None):
        return lambda fn: tracer.span(name, fn, annotate)

    # trees: check_node is counted; the path operations the checkers and
    # generators call are timed leaves.
    tracer.patch(trees.RootedTree, "check_node", lambda fn: tracer.counter("trees.check_node", fn))
    for module, names in ((checks, ("meet_join", "wedge_vee", "up_down", "rho")),
                          (functions, ("meet_join", "wedge_vee", "rho"))):
        for attr in names:
            tracer.patch(module, attr, lambda fn: tracer.leaf("trees.ops", fn))

    # functions: oracle calls are leaves; materialize and generate are spans.
    for cls in (functions.DenseTable, functions.SumOfTerms):
        tracer.patch(cls, "evaluate", lambda fn: tracer.leaf("functions.evaluate", fn))
    for module in (functions, checks):
        tracer.patch(module, "materialize", span("functions.materialize"))
    for module in (ts, cli):
        tracer.patch(module, "generate", span("functions.generate", _generate_annotate))

    # checks, under every name they are called through.
    for attr in ("check_strong", "check_weak", "check_translation"):
        for module in (ts, checks):
            tracer.patch(module, attr, lambda fn, attr=attr: _alloc_span(
                tracer, "checks." + attr, fn, _check_annotate))

    # solvers, as called by the descent; restricted oracles are descent leaves.
    def cube_cells(args, kwargs, result):
        return {"cells": 1 << len(args[0].free)}

    def box_cells(args, kwargs, result):
        return {"cells": args[0].box_size()}

    tracer.patch(descent, "sfm_brute", span("solvers.sfm_brute", cube_cells))
    tracer.patch(descent, "bisub_brute", span("solvers.bisub_brute", box_cells))
    tracer.patch(descent, "sfm_wolfe", span("solvers.sfm_wolfe"))
    tracer.patch(descent, "bisub_minnorm", span("solvers.bisub_minnorm"))

    def restrict(name):
        def make(fn):
            inner = tracer.span(name, fn)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                g = inner(*args, **kwargs)
                return dataclasses.replace(g, evaluate=tracer.leaf("descent.restricted_eval", g.evaluate))

            return wrapper

        return make

    tracer.patch(descent, "inward_restrict", restrict("descent.inward_restrict"))
    tracer.patch(descent, "outward_restrict", restrict("descent.outward_restrict"))

    # descent and weak entry points.
    for module in (ts, descent):
        tracer.patch(module, "minimize", span("descent.minimize"))
        tracer.patch(module, "minimize_exhaustive", span("descent.minimize_exhaustive"))
    for module in (ts, weak):
        tracer.patch(module, "minimize_weak", span("weak.minimize_weak"))

    def weak_box(fn):
        inner = tracer.span("solvers.bisub_brute", fn, box_cells)

        @functools.wraps(fn)
        def wrapper(h, budget=None, feasible=None):
            h = dataclasses.replace(h, evaluate=tracer.leaf("weak.restricted_eval", h.evaluate))
            if feasible is not None:
                feasible = tracer.leaf("weak.feasible", feasible)
            return inner(h, budget, feasible)

        return wrapper

    tracer.patch(weak, "bisub_brute", weak_box)

    # cli: the command itself, parsing and emitting.
    tracer.patch(cli, "main", span("cli.main"))
    tracer.patch(cli, "parse_instance", span("cli.parse_instance", _parse_annotate))
    tracer.patch(cli, "parse_document", span("cli.parse_document"))
    for attr in ("canonical_dumps", "build_document", "fixture_document"):
        tracer.patch(cli, attr, span("cli." + attr))


def _alloc_span(tracer: Tracer, name, fn, annotate):
    """A span that also records the tracemalloc peak of the outermost check call."""

    def measured(*args, **kwargs):
        if tracemalloc.is_tracing():
            return fn(*args, **kwargs), None
        tracemalloc.start()
        try:
            return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def with_peak(args, kwargs, result):
        report, peak = result
        attrs = annotate(args, kwargs, report)
        if peak is not None:
            attrs["peak_alloc_b"] = peak
        return attrs

    inner = tracer.span(name, measured, with_peak)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer._stack:
            return fn(*args, **kwargs)
        return inner(*args, **kwargs)[0]

    return wrapper


# ---------------------------------------------------------------------------
# Per-layer metrics


LAYERS = ("trees", "functions", "solvers", "descent", "checks", "weak", "cli", "bench")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, op_walls: list[float]) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, base).

    ``op_walls`` are the root-span durations of the traced ops.  Every
    ratio states its numerator and denominator in ``base``.
    """
    spans = tracer.spans
    n_ops = len(op_walls)
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)

    def subtree_evals(s) -> int:
        own = s.leaves.get("functions.evaluate", (0,))[0]
        return own + sum(subtree_evals(c) for c in children[s.index])

    layer_self = defaultdict(float)
    leaf_calls = defaultdict(int)
    leaf_total = defaultdict(float)
    counts = defaultdict(int)
    by_name = defaultdict(list)
    for s in spans:
        layer_self[s.name.split(".")[0]] += s.self_s
        for name, (calls, total, self_s) in s.leaves.items():
            layer_self[name.split(".")[0]] += self_s
            leaf_calls[name] += calls
            leaf_total[name] += total
        for name, c in s.counts.items():
            counts[name] += c
        by_name[s.name].append(s)

    out: dict[str, tuple[float, str, str]] = {}

    def per_op(name, total, unit, what):
        out[name] = (_ratio(total, n_ops), unit, f"{total:.6g} {what} / {n_ops} ops")

    def ratio(name, num, den, unit, what_num, what_den):
        out[name] = (_ratio(num, den), unit, f"{num:.6g} {what_num} / {den:.6g} {what_den}")

    evals = leaf_calls["functions.evaluate"]
    per_op("functions.evals", evals, "count", "evaluate calls")
    ratio("functions.eval_us", leaf_total["functions.evaluate"] * 1e6, evals, "us",
          "us in evaluate", "evaluate calls")
    per_op("trees.check_node_calls", counts["trees.check_node"], "count", "check_node calls")

    def self_sum(names):
        picked = [s for n in names for s in by_name[n]]
        return sum(s.self_s for s in picked), picked

    brute_s, brute = self_sum(("solvers.sfm_brute", "solvers.bisub_brute"))
    per_op("solvers.brute_s", brute_s, "s", "s self time in sfm_brute/bisub_brute")
    per_op("solvers.brute_cells", sum(s.attrs.get("cells", 0) for s in brute), "count",
           "cube/box cells")
    minnorm_s, minnorm = self_sum(("solvers.sfm_wolfe", "solvers.bisub_minnorm"))
    per_op("solvers.minnorm_s", minnorm_s, "s", "s self time in sfm_wolfe/bisub_minnorm")
    per_op("solvers.minnorm_evals", sum(subtree_evals(s) for s in minnorm), "count",
           "evaluate calls under min-norm solves")

    solves = cert = total = 0
    for m in by_name["descent.minimize"]:
        inner = [c for c in children[m.index] if c.name.startswith("solvers.")]
        solves += len(inner)
        cert += sum(subtree_evals(c) for c in inner[-2:])
        total += subtree_evals(m)
    per_op("descent.solves_per_op", solves, "count", "inner solves")
    ratio("descent.cert_evals_frac", cert, total, "ratio",
          "evaluations in the two certificate solves", "evaluations in minimize")

    for kind, name in (("strong", "checks.check_strong"), ("weak", "checks.check_weak"),
                       ("translation", "checks.check_translation")):
        calls = [s for s in by_name[name] if s.attrs.get("mode") == "exhaustive"]
        ratio(f"checks.{kind}_s", sum(s.self_s for s in calls), len(calls), "s",
              "s self time", f"exhaustive {name} calls")
    all_checks = [s for n in ("checks.check_strong", "checks.check_weak", "checks.check_translation")
                  for s in by_name[n]]
    sampled = [s for s in all_checks if s.attrs.get("mode") == "sampled"]
    ratio("checks.sampled_s", sum(s.self_s for s in sampled), len(sampled), "s",
          "s self time", "sampled check calls")
    exhaustive = [s for s in all_checks if s.attrs.get("mode") == "exhaustive"]
    ratio("checks.pairs_per_s", sum(s.attrs.get("pairs", 0) for s in exhaustive),
          sum(s.duration for s in exhaustive), "1/s", "pairs", "s in exhaustive checks")
    peaks = [s.attrs["peak_alloc_b"] for s in all_checks if "peak_alloc_b" in s.attrs]
    out["checks.peak_alloc_mb"] = (max(peaks, default=0) / 2**20, "MB",
                                   f"max over {len(peaks)} outermost check calls")

    mat_s, mat = self_sum(("functions.materialize",))
    ratio("functions.materialize_s", mat_s, len(mat), "s", "s self time", "materialize calls")
    gen_s, gen = self_sum(("functions.generate",))
    ratio("functions.generate_s", gen_s, len(gen), "s", "s self time", "generate calls")
    tried = [s.attrs["attempts"] for s in gen if "attempts" in s.attrs]
    ratio("functions.generate_accept_ratio", len(tried), sum(tried), "ratio",
          "accepted candidates", "candidates tried")

    parses = by_name["cli.parse_instance"]
    parse_time = sum(s.duration for s in parses)
    ratio("cli.parse_s", parse_time, len(parses), "s", "s in parse_instance", "parse calls")
    ratio("cli.parse_cells_per_s", sum(s.attrs.get("cells", 0) for s in parses), parse_time,
          "1/s", "cost cells parsed", "s in parse_instance")
    emit_s, _ = self_sum(("cli.canonical_dumps", "cli.build_document", "cli.fixture_document"))
    ratio("cli.emit_s", emit_s, len(by_name["cli.main"]), "s", "s self time in emit steps",
          "cli.main calls")

    weak_calls = by_name["weak.minimize_weak"]
    ratio("weak.minimize_s", sum(s.duration for s in weak_calls), len(weak_calls), "s",
          "s in minimize_weak", "minimize_weak calls")
    ratio("weak.feasible_ratio", leaf_calls["weak.restricted_eval"], leaf_calls["weak.feasible"],
          "ratio", "labelings evaluated", "box cells enumerated")

    for layer in LAYERS:
        per_op(f"{layer}.self_s", layer_self[layer], "s", f"s self time in {layer}")
    return out


def self_time_gap(tracer: Tracer) -> float:
    """Largest |sum of self times - op wall time| over the recorded ops, in seconds."""
    per_op = defaultdict(float)
    walls = {}
    for s in tracer.spans:
        per_op[s.op] += s.self_s + sum(v[2] for v in s.leaves.values())
        if s.parent is None:
            walls[s.op] = s.duration
    return max((abs(per_op[k] - w) for k, w in walls.items()), default=0.0)
