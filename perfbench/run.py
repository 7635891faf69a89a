"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload descent-brute --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no wrapper installed;
with ``--trace 1`` the same ops run once untraced and once traced, and the
metrics are the per-layer ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracles as orc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
MIN_OPS = 100  # so the 90th percentile has ten samples beyond it
HARD_STOP_S = 150.0
perf = time.perf_counter


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("descent-brute", "descent-minnorm", "verify-dense", "cli-batch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class HostSpeed:
    """Reference work timed before every op, to scale op times to one host speed.

    The shared host's speed drifts by tens of percent within seconds (a
    fixed loop took between 0.15 and 0.28 s over one minute), which is
    wider than any bound.  The reference work mimics the package's kinds
    of work without calling it: an interpreted sum over term tables, a
    burst of small allocations, and numpy gathers over a cache-sized and
    a larger int64 table.  An op's wall time is scaled by REF_S over the
    median reference time of the ops around it.
    """

    REF_S = 1.7e-3  # the reference work's median time on the reference host when quiet
    WINDOW = 5  # ops on each side of the one being scaled

    def __init__(self):
        rng = random.Random(0)
        self.spec = orc.descent_instance(rng, 8)
        self.labelings = [tuple(rng.randrange(7) for _ in range(8)) for _ in range(200)]
        gen = np.random.default_rng(0)
        self.small = gen.integers(0, 50, size=(200, 200))
        self.small_index = gen.integers(0, 200, size=200)
        self.big = gen.integers(0, 50, size=(1000, 1000))
        self.big_rows, self.big_cols = gen.integers(0, 1000, size=(2, 200))
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf()
        total = sum(self.spec.value(x) for x in self.labelings)
        total += len([(i, i + 1, str(i)) for i in range(2000)])
        i = self.small_index
        total += int((self.small[i[:, None], i[None, :]] < self.small.T).sum())
        total += int(self.big[self.big_rows[:, None], self.big_cols[None, :]].sum())
        self.samples.append(perf() - t0)

    def factor(self, i: int) -> float:
        """REF_S / median reference time over samples i - WINDOW .. i + WINDOW."""
        window = self.samples[max(0, i - self.WINDOW): i + self.WINDOW + 1]
        return self.REF_S / statistics.median(window)

    def scaled(self, times: list[float], first: int = 0) -> list[float]:
        """Times of the ops whose samples start at index ``first``, at the reference speed."""
        return [t * self.factor(first + i) for i, t in enumerate(times)]


def run_ops(ops, seconds: float, min_ops: int, speed: HostSpeed):
    """Closed loop, one client: returns (wall times, complaints).

    Runs until ``seconds`` have passed and at least ``min_ops`` ops are
    done.  An op that raises or whose output check complains is a failure;
    it does not stop the loop.
    """
    latencies, complaints = [], []
    began = perf()
    i = 0
    while True:
        op = ops[i % len(ops)]
        speed.sample()
        t0 = perf()
        try:
            result = op.run()
        except Exception as exc:  # a failing op is counted, not fatal
            t1 = perf()
            complaint = f"raised {type(exc).__name__}: {exc}"
        else:
            t1 = perf()
            complaint = op.check(result)
        latencies.append(t1 - t0)
        if complaint:
            complaints.append(f"op {i} ({op.kind}): {complaint}")
        i += 1
        elapsed = perf() - began
        if (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_STOP_S:
            break
    return latencies, complaints


def run_traced(ops, count: int, speed: HostSpeed):
    import treesub as ts
    import tracer as tr

    t = tr.Tracer()
    tr.install(t, ts)
    walls, complaints = [], []
    try:
        for i in range(count):
            op = ops[i % len(ops)]
            speed.sample()
            root = len(t.spans)
            try:
                result = t.run_op(i, "bench." + op.kind, op.run)
            except Exception as exc:  # a failing op is counted, not fatal
                complaint = f"raised {type(exc).__name__}: {exc}"
            else:
                complaint = op.check(result)
            walls.append(t.spans[root].duration)
            if complaint:
                complaints.append(f"traced op {i} ({op.kind}): {complaint}")
    finally:
        t.restore()
    return t, walls, complaints


def import_seconds() -> float:
    """Wall time of ``import treesub`` in a fresh interpreter, as a user pays it."""
    code = "import time; t = time.perf_counter(); import treesub; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def fmt(seconds) -> str:
    return "[" + ", ".join(f"{s:.3f}" for s in seconds) + "] s"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "treesub" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'treesub'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    setup_speed, speed = HostSpeed(), HostSpeed()
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        build = workloads.WORKLOADS[args.workload]
        imports, builds = [], []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            for _ in range(3):
                setup_speed.sample()
            imports.append(import_seconds())
            for _ in range(3):
                setup_speed.sample()
            t0 = perf()
            built = build(args.seed, workdir)
            builds.append(perf() - t0)
        setup_raw = statistics.median(imports) + statistics.median(builds)
        setup_s = setup_raw * HostSpeed.REF_S / statistics.median(setup_speed.samples)
        gc.collect()

        if args.trace:
            lat, complaints = run_ops(built.ops, args.seconds / 2, built.cycle, speed)
            t, walls, traced_complaints = run_traced(built.ops, len(lat), speed)
            complaints += traced_complaints
            attempted = 2 * len(lat)
        else:
            lat, complaints = run_ops(built.ops, args.seconds, MIN_OPS, speed)
            attempted = len(lat)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for c in complaints[:10]:
        print("FAIL", c, file=sys.stderr)
    premise = "verified-terms" if not built.premise else "FAILED"
    print(f"# workload {args.workload} seed {args.seed}: premise {premise} "
          f"({built.certified_terms} distinct term tables checked exhaustively)")
    for p in built.premise:
        print(f"# premise failure: {p}")
    print(f"# {len(lat)} ops per pass; fail_frac = {len(complaints)}/{attempted} "
          f"= {len(complaints) / attempted:.4g}; host speed factor median "
          f"{statistics.median(speed.factor(i) for i in range(len(speed.samples))):.4f}")

    if args.trace:
        import tracer as tr

        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        t.write(spans_path)
        gap = tr.self_time_gap(t)
        layers = tr.layer_metrics(t, walls)
        untraced, traced = sum(speed.scaled(lat)), sum(speed.scaled(walls, len(lat)))
        layers["trace.overhead"] = (traced / untraced, "ratio",
                                    f"{traced:.4f} s traced / {untraced:.4f} s untraced, "
                                    f"{len(lat)} ops each, at the reference speed")
        for name, (value, unit, base) in layers.items():
            print(f"# {name} = {value:.6g} {unit}  ({base})")
        print(f"# {len(t.spans)} spans written to {spans_path.relative_to(ROOT)}; "
              f"largest |sum of self times - op wall| = {gap:.3g} s")
        consistent = gap <= 1e-6
        metrics = {name: metric(value, unit) for name, (value, unit, _) in layers.items()}
    else:
        scaled = speed.scaled(lat)
        q, raw_q = statistics.quantiles(scaled, n=10), statistics.quantiles(lat, n=10)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "ops_per_s": metric(len(scaled) / sum(scaled), "1/s"),
            "latency_ms.p50": metric(q[4] * 1e3, "ms"),
            "latency_ms.p90": metric(q[8] * 1e3, "ms"),
            "peak_rss_mb": metric(rss_mb, "MB"),
            "setup_s": metric(setup_s, "s"),
        }
        consistent = True
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        print(f"# unscaled wall: ops_per_s {len(lat) / sum(lat):.6g} 1/s, p50 {raw_q[4] * 1e3:.6g} ms, "
              f"p90 {raw_q[8] * 1e3:.6g} ms, setup {setup_raw:.6g} s (median of imports "
              f"{fmt(imports)} + median of builds {fmt(builds)})")

    correct = not complaints and not built.premise and consistent
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(complaints),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
