"""The four benchmark workloads: inputs built from a seed, ops, output checks.

Each workload is a single-client closed loop over a fixed *cycle* of op
slots; the seed draws the inputs of each slot, so every seed runs the same
mix.  The mixed workloads order their slots by expected cost (cheap ops,
a median block, dearer ops, a p90 block), so that the median lands in the
middle of one block of same-kind ops and the 90th percentile in the
middle of another, which keeps both quantiles steady from seed to seed.

An op is one public call.  Its check compares the output with an oracle
that does not share code with the call (see ``oracles``) and returns a
complaint, or None when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import treesub as ts
from treesub import cli

import oracles as orc
from oracles import BINTREE7, STAR3, SumSpec, chain, fork

DESCENT_ARITY = 8  # arity 9 costs ~0.26 s and arity 10 ~1.1 s per op
MINNORM_ARITY = 22  # the most the 2**62 ProductDomain guard allows over bintree7
POOL = 256  # distinct descent instances per run


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Built:
    ops: list[Op]
    cycle: int
    premise: list[str]  # term tables that failed certification
    certified_terms: int


class Certifier:
    """Term-wise premise certification with one exhaustive check per distinct table.

    The strong inequality is linear in f and the operations act
    coordinatewise, so a sum whose every term passes on its scope's
    product domain is strongly tree-submodular.
    """

    def __init__(self):
        self.trees: dict[tuple[int, ...], ts.RootedTree] = {}
        self.verdicts: dict[tuple, bool] = {}

    def tree(self, parent) -> ts.RootedTree:
        parent = tuple(parent)
        if parent not in self.trees:
            self.trees[parent] = ts.RootedTree(parent)
        return self.trees[parent]

    def domain(self, parents) -> ts.ProductDomain:
        return ts.ProductDomain([self.tree(p) for p in parents])

    def function(self, spec: SumSpec) -> ts.SumOfTerms:
        """The sum as a package object, after certifying each of its terms."""
        for t in spec.terms:
            scope_parents = tuple(spec.parents[i] for i in t.scope)
            key = (scope_parents, t.values)
            if key not in self.verdicts:
                table = ts.DenseTable(self.domain(scope_parents), t.values)
                self.verdicts[key] = ts.check_strong(table).ok
        return self.uncertified(spec)

    def uncertified(self, spec: SumSpec) -> ts.SumOfTerms:
        terms = [ts.Term(scope=t.scope, values=t.values) for t in spec.terms]
        return ts.SumOfTerms(self.domain(spec.parents), terms)

    def failures(self) -> list[str]:
        return [f"term over {len(k[0])} tree(s) {k[1][:8]}..." for k, ok in self.verdicts.items() if not ok]

    def built(self, ops: list[Op], cycle: int) -> Built:
        return Built(ops, cycle, self.failures(), len(self.verdicts))


def _rng(seed: int, *salt) -> random.Random:
    return random.Random(repr((seed,) + salt))


# ---------------------------------------------------------------------------
# descent-brute and descent-minnorm


def _descent_check(spec: SumSpec, expected: int):
    def check(result) -> str | None:
        x, value, trace = result
        if value != expected:
            return f"minimum {value} != chain DP {expected}"
        if not trace.certificate.holds():
            return "certificate does not hold"
        if trace.s1_steps > trace.K or trace.s2_steps > trace.K:
            return f"steps ({trace.s1_steps}, {trace.s2_steps}) exceed K = {trace.K}"
        if spec.value(x) != value:
            return f"f(minimizer) = {spec.value(x)} != reported {value}"
        return None

    return check


def _descent_ops(seed: int, arity: int, engines: dict, salt: str) -> Built:
    cert = Certifier()
    ops = []
    for k in range(POOL):
        spec = orc.descent_instance(_rng(seed, salt, k), arity)
        f = cert.function(spec)

        def run(f=f, start=spec.start):
            return ts.minimize(f, None, start, **engines)

        ops.append(Op("minimize", run, _descent_check(spec, orc.chain_dp_min(spec))))
    return cert.built(ops, 1)


def build_descent_brute(seed: int, workdir: Path) -> Built:
    return _descent_ops(seed, DESCENT_ARITY, {}, "brute")


def build_descent_minnorm(seed: int, workdir: Path) -> Built:
    engines = {"inward_engine": "wolfe", "outward_engine": "minnorm"}
    return _descent_ops(seed, MINNORM_ARITY, engines, "minnorm")


# ---------------------------------------------------------------------------
# verify-dense

C10 = chain(10)
B7_3 = (BINTREE7,) * 3  # |D| = 343
C10_3 = (C10,) * 3  # |D| = 1000
B7_2_C10 = (BINTREE7, BINTREE7, C10)  # |D| = 490
S3_6 = (STAR3,) * 6  # |D| = 729
VARIANTS = 4  # inputs per slot; the numpy checks cost the same on any values


def _expect_ok(report) -> str | None:
    if not report.ok:
        w = report.witness
        return f"{report.property_name} refuted a certified input at {w.x}, {w.y}, d={w.d}"
    return None


def _expect_exhaustive_ok(size: int):
    def check(report) -> str | None:
        if report.pairs_checked != size * size:
            return f"checked {report.pairs_checked} pairs, expected {size * size}"
        return _expect_ok(report)

    return check


def _expect_refuted(op, trees, spec: SumSpec):
    def check(report) -> str | None:
        if report.ok or report.witness is None:
            return "planted violator was not refuted"
        return orc.replay_witness(op, trees, spec.value, report.witness)

    return check


def _expect_generated(dom: ts.ProductDomain, parents, rng: random.Random):
    def check(fixture) -> str | None:
        if fixture.verified_properties != frozenset({"strong"}):
            return f"fixture claims {sorted(fixture.verified_properties)}"
        values = fixture.function.values
        if len(values) != dom.size():
            return f"table has {len(values)} cells for |D| = {dom.size()}"
        return orc.spot_check_strong(ts.meet_join, dom.trees, parents, values, rng, 200)

    return check


def _verify_cycle(seed: int, v: int, cert: Certifier) -> list[Op]:
    """One cycle of 10 slots, cheapest first."""
    rng = _rng(seed, "verify", v)

    def mixed(parents):
        spec = orc.mixed_instance(rng, parents)
        return spec, cert.function(spec)

    def dense(parents):
        spec, f = mixed(parents)
        return ts.DenseTable(f.domain, spec.table()), spec.size()

    planted = orc.planted_violator(rng, 3)
    planted_f = cert.uncertified(planted)
    planted_trees = planted_f.domain.trees
    sampled_spec = orc.descent_instance(rng, DESCENT_ARITY)
    sampled_f = cert.function(sampled_spec)
    strong_fs = [mixed(C10_3)[1] for _ in range(2)]
    weak_table, weak_size = dense(C10_3)
    translation_tables = [dense(B7_2_C10), dense(S3_6), dense(C10_3), dense(C10_3)]
    gen_domain = cert.domain(B7_3)
    gen_seed = rng.randrange(2**32)
    sample_seed = rng.randrange(2**32)

    def translation(k):
        table, size = translation_tables[k]
        return Op(f"check_translation.{size}", lambda: ts.check_translation(table),
                  _expect_exhaustive_ok(size))

    return [
        # cheap: witness path, verified generation with rejection, sampled check
        Op("check_strong.planted", lambda: ts.check_strong(planted_f),
           _expect_refuted(ts.meet_join, planted_trees, planted)),
        Op("generate.343", lambda: ts.generate("random-verified-strong", gen_domain, gen_seed),
           _expect_generated(gen_domain, B7_3, _rng(seed, "spot", v))),
        Op("check_strong.sampled",
           lambda: ts.check_strong(sampled_f, mode="sampled", seed=sample_seed), _expect_ok),
        # median block: exhaustive checks at |D| = 1000, strong ones through materialize
        Op("check_weak.1000", lambda: ts.check_weak(weak_table), _expect_exhaustive_ok(weak_size)),
        Op("check_strong.1000", lambda: ts.check_strong(strong_fs[0]), _expect_exhaustive_ok(1000)),
        Op("check_strong.1000", lambda: ts.check_strong(strong_fs[1]), _expect_exhaustive_ok(1000)),
        # dearer: translation at |D| = 490 and 729
        translation(0),
        translation(1),
        # p90 block: translation at |D| = 1000
        translation(2),
        translation(3),
    ]


def build_verify_dense(seed: int, workdir: Path) -> Built:
    cert = Certifier()
    ops: list[Op] = []
    for v in range(VARIANTS):
        ops.extend(_verify_cycle(seed, v, cert))
    return cert.built(ops, 10)


# ---------------------------------------------------------------------------
# cli-batch


def instance_doc(parents, function: dict, metadata: dict | None = None) -> dict:
    doc = {"format_version": "1", "trees": [{"parent": list(p)} for p in parents], "function": function}
    if metadata:
        doc["metadata"] = metadata
    return doc


def table_doc(parents, values, metadata=None) -> dict:
    return instance_doc(parents, {"type": "table", "denominator": 1, "values": list(values)}, metadata)


def sum_doc(spec: SumSpec, metadata=None) -> dict:
    terms = [{"scope": list(t.scope), "values": list(t.values)} for t in spec.terms]
    return instance_doc(spec.parents, {"type": "sum", "denominator": 1, "terms": terms}, metadata)


def write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return str(path)


def run_cli(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliChecker:
    """Exit codes as expected and byte-identical reports across repeats."""

    def __init__(self):
        self.first: dict[tuple, tuple[str, bytes]] = {}

    def __call__(self, argv, code: int, report_path: Path, judge):
        def check(result) -> str | None:
            got, stdout, stderr = result
            if got != code:
                return f"exit code {got} != {code}: {stderr.strip()[:200]}"
            raw = report_path.read_bytes()
            if self.first.setdefault(tuple(argv), (stdout, raw)) != (stdout, raw):
                return "output differs from the first run of the same command"
            return judge(json.loads(raw))

        return check


def _cli_min_judge(value_of, expected: int, descent: bool = True):
    def judge(report) -> str | None:
        value = report["value"]
        if value != {"num": expected, "den": 1}:
            return f"minimize value {value} != expected {expected}"
        if value_of(report["minimizer"]) != expected:
            return "reported minimizer does not attain the value"
        if not descent:
            return None
        if report["certificate"] != {"inward_opt": True, "outward_opt": True}:
            return "certificate does not hold"
        if max(report["s1_steps"], report["s2_steps"]) > len(BINTREE7):
            return f"steps ({report['s1_steps']}, {report['s2_steps']}) exceed K = {len(BINTREE7)}"
        return None

    return judge


CLI_VARIANTS = 12
BRUTE_ARITY = 5  # 16,807 labelings scanned by `minimize --solver brute`


def build_cli_batch(seed: int, workdir: Path) -> Built:
    cert = Certifier()
    checker = CliChecker()
    rng = _rng(seed, "cli")
    ops: list[Op] = []

    def op(kind, argv, code, report_path, judge):
        ops.append(Op(kind, lambda: run_cli(argv), checker(argv, code, report_path, judge)))

    def dense_file(name, k):
        parents = (BINTREE7,) * k
        values = orc.separable_dense(rng, parents)
        path = write_doc(workdir / name, table_doc(parents, values))
        return path, orc.table_value(parents, values), min(values)

    d4, d4_value, d4_min = dense_file("dense4.json", 4)  # 2,401 cells
    d6, d6_value, d6_min = dense_file("dense6.json", 6)  # 117,649 cells

    # bench suite: weak instances on fork3^3 and fork4^3 (twice, so bench is
    # clearly the dearest op) and one small strong sum
    suite = workdir / "suite"
    suite.mkdir(exist_ok=True)
    expected_rows = {}  # instance -> (solver, value, cost of a labeling)
    for name, k in (("fork3_weak.json", 3), ("fork4_weak_a.json", 4), ("fork4_weak_b.json", 4)):
        parents = (fork(k),) * 3
        fx = ts.generate("random-verified-weak", cert.domain(parents), rng.randrange(2**32))
        values = fx.function.values
        write_doc(suite / name, table_doc(parents, values, {"properties": ["weak"]}))
        _, best = ts.minimize_exhaustive(fx.function)
        expected_rows[name] = ("weak", best, orc.table_value(parents, values))
    small = orc.descent_instance(rng, 3)
    cert.function(small)
    write_doc(suite / "bintree7_strong.json",
              sum_doc(small, {"properties": ["strong"], "start": list(small.start)}))
    expected_rows["bintree7_strong.json"] = ("descent", orc.chain_dp_min(small), small.value)

    def bench_judge(report) -> str | None:
        rows = {r["instance"]: r for r in report["rows"]}
        if set(rows) != set(expected_rows) or not report["ok"]:
            return f"bench rows {sorted(rows)} or ok={report['ok']} unexpected"
        for name, (solver, best, value_of) in expected_rows.items():
            row = rows[name]
            if row["solver"] != solver or row["value"] != {"num": best, "den": 1}:
                return f"bench row {name}: {row['solver']} {row['value']} != {solver} {best}"
            if value_of(tuple(row["minimizer"])) != best:
                return f"bench row {name}: minimizer {row['minimizer']} does not attain {best}"
        return None

    planted = orc.planted_violator(rng, 2)
    planted_path = write_doc(workdir / "planted.json", sum_doc(planted))
    planted_trees = [cert.tree(p) for p in planted.parents]

    def planted_judge(report) -> str | None:
        w = report["witness"]
        if report["ok"] or w is None:
            return "planted violator was not refuted"
        replay = _Witness(w["x"], w["y"], w["lhs"]["num"], w["rhs"]["num"])
        return orc.replay_witness(ts.meet_join, planted_trees, planted.value, replay)

    def sampled_judge(report) -> str | None:
        return None if report["ok"] else "sampled check refuted a separable table"

    for v in range(CLI_VARIANTS):
        sums = []
        for j, arity in enumerate((DESCENT_ARITY, DESCENT_ARITY, BRUTE_ARITY)):
            spec = orc.descent_instance(rng, arity)
            cert.function(spec)
            path = write_doc(workdir / f"sum{v}_{j}.json", sum_doc(spec, {"start": list(spec.start)}))
            sums.append((path, spec))
        out = workdir / f"out{v}"
        out.mkdir(exist_ok=True)
        gen_path = out / "generated.json"
        gen_seed = str(rng.randrange(2**32))

        def gen_judge(doc, v=v) -> str | None:
            if doc["metadata"]["properties"] != ["strong"]:
                return "generated file does not claim the strong property"
            parents = [t["parent"] for t in doc["trees"]]
            trees = [cert.tree(p) for p in parents]
            return orc.spot_check_strong(ts.meet_join, trees, parents, doc["function"]["values"],
                                         _rng(seed, "spot", v), 200)

        def report(name):
            return out / name

        # cheap
        op("minimize.dense4", ["minimize", d4, "--out", str(report("d4.json"))], 0,
           report("d4.json"), _cli_min_judge(d4_value, d4_min))
        op("check.sampled.dense4", ["check", d4, "--mode", "sampled", "--seed", str(v),
                                    "--out", str(report("c4.json"))], 0, report("c4.json"), sampled_judge)
        op("generate", ["generate", "--kind", "random-verified-strong", "--tree-spec", "bintree7",
                        "--n", "3", "--seed", gen_seed, "--out", str(gen_path)], 0, gen_path, gen_judge)
        op("check.planted", ["check", planted_path, "--out", str(report("planted.json"))], 1,
           report("planted.json"), planted_judge)
        # sum-of-terms documents through the descent: their cost varies with
        # the instance, so they sit on either side of the median block
        for j, (p, s) in enumerate(sums[:2]):
            name = f"s{j}.json"
            op("minimize.sum", ["minimize", p, "--out", str(report(name))], 0, report(name),
               _cli_min_judge(s.value, orc.chain_dp_min(s)))
        # median block: exhaustive minimization of a sum document, whose cost
        # does not depend on the values
        brute_path, brute = sums[2]
        for _ in range(4):
            op("minimize.sum.brute", ["minimize", brute_path, "--solver", "brute",
                                      "--out", str(report("brute.json"))], 0, report("brute.json"),
               _cli_min_judge(brute.value, orc.chain_dp_min(brute), descent=False))
        # dearer: 117,649-cell tables, mostly parsing
        op("minimize.dense6", ["minimize", d6, "--out", str(report("d6.json"))], 0,
           report("d6.json"), _cli_min_judge(d6_value, d6_min))
        op("check.sampled.dense6", ["check", d6, "--mode", "sampled", "--seed", str(v),
                                    "--out", str(report("c6.json"))], 0, report("c6.json"), sampled_judge)
        # p90 block: bench over the suite, weak forks included
        for _ in range(2):
            op("bench", ["bench", "--suite", str(suite), "--out", str(report("bench.json"))], 0,
               report("bench.json"), bench_judge)
    return cert.built(ops, 14)


@dataclass(frozen=True)
class _Witness:
    x: list
    y: list
    lhs: int
    rhs: int


WORKLOADS = {
    "descent-brute": build_descent_brute,
    "descent-minnorm": build_descent_minnorm,
    "verify-dense": build_verify_dense,
    "cli-batch": build_cli_batch,
}
