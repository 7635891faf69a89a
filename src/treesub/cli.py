"""Batch front end: parse instances, run checks and minimizations, report.

Instance files are UTF-8 JSON:

    {
      "format_version": "1",
      "trees": [{"parent": [-1, 0, 1, 2, 3]}, {"parent": [-1, 0, 1, 2, 3]}],
      "function": {"type": "table", "denominator": 1, "values": [10, 8, ...]},
      "metadata": {"seed": 7, "properties": ["strong"], "start": [4, 0]}
    }

Every cost value is either a plain integer, read in units of
1/denominator, or an exact rational {"num": p, "den": q}.  Labelings are
ranked in mixed radix with variable 0 most significant: over two chains
with 5 nodes each, the labeling (x0, x1) = (2, 3) has rank 2*5 + 3 = 13
and "values"[13] is its cost.  Canonical serialization carries one
reduced denominator, plain integer values, sorted keys and two-space
indentation, so parse -> print -> parse is the identity and reports are
byte-identical for identical inputs and flags (wall-clock timings only
appear under --timing).

Exit codes: 0 holds / success, 1 violation or bound failure, 2 input or
structure error, 3 budget, generation, solver or internal failure.  The
environment variable TREESUB_BUDGET overrides enumeration budgets
package-wide.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from importlib import resources
from pathlib import Path

from . import checks, descent, weak
from .errors import DomainError, FormatError, TreesubError, UnsupportedStructureError
from .functions import (
    GENERATE_KINDS,
    CostFunction,
    DenseTable,
    InstanceFixture,
    ProductDomain,
    SumOfTerms,
    Term,
    chain_tree,
    complete_binary_tree,
    fixture_catalog_names,
    fork_tree,
    generate,
    star3_tree,
)
from .trees import RootedTree, non_int_cells

FORMAT_VERSION = "1"

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_FAILURE = 3

_INPUT_ERRORS = (FormatError, DomainError, UnsupportedStructureError)


# ---------------------------------------------------------------------------
# Instance documents


def _fail(path: str, message: str) -> FormatError:
    return FormatError(f"{path}: {message}")


@contextlib.contextmanager
def _naming(path: str | Path):
    """Prefix an error raised inside with ``path: `` unless it already names the file."""
    try:
        yield
    except TreesubError as exc:
        if str(exc).startswith(f"{path}: "):
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_value(raw, where: str, index: int) -> tuple[int, int]:
    """Cost value where[index], a cell other than a plain int, as an
    unreduced (numerator, denominator) pair."""
    at = f"{where}[{index}]"
    if isinstance(raw, dict):
        extra = set(raw) - {"num", "den"}
        if extra:
            raise _fail(at, f"unexpected keys {sorted(extra)}")
        num, den = raw.get("num"), raw.get("den")
        if type(num) is not int:
            raise _fail(at + ".num", "expected an integer")
        if type(den) is not int or den < 1:
            raise _fail(at + ".den", "expected a positive integer")
        return num, den
    raise _fail(at, "expected an integer or {num, den} object")


def _int_array(raw) -> bool:
    """Whether raw is a JSON array of integers: a list whose items' type
    is exactly ``int``, as ``type(v) is int`` reads one JSON integer."""
    return isinstance(raw, list) and not non_int_cells(raw)


def _parse_values(
    raw_values: list, where: str, denominator: int, dens: dict[int, int], base: int = 0
) -> list:
    """The values' unreduced numerators, each a plain int.

    Plain integer cells, all of a canonical file, are taken as they are:
    ``non_int_cells`` tells them apart in one C-level pass over the cells'
    types, the same check ``DenseTable`` and ``Term`` make, and when it
    finds none raw_values itself is returned, uncopied.  Only the cells it
    returns go through ``_parse_value``, in document order, so the first
    bad one is reported.  A denominator other than the declared one is
    recorded in dens under base plus the value's position.
    """
    not_int = non_int_cells(raw_values)
    if not not_int:
        return raw_values
    nums = list(raw_values)
    for i in not_int:
        num, den = _parse_value(raw_values[i], where, i)
        nums[i] = num
        if den != denominator:
            dens[base + i] = den
    return nums


def _normalize(nums: list[int], denominator: int, dens: dict[int, int]) -> tuple[list[int], int]:
    """The values as integers over their least common denominator.

    Value i is nums[i]/dens[i] where dens records it, else
    nums[i]/denominator.  Scaled to the lcm of the declared and recorded
    denominators, every value carries the same surplus factor, which is
    the gcd of that lcm and the scaled numerators; one division takes it
    out, whatever common multiple the scaling started from.  A common
    denominator of 1 leaves no factor to take out, so the gcd is skipped.
    """
    den = math.lcm(denominator, *set(dens.values()))
    factor = den // denominator
    scaled = nums if factor == 1 else [n * factor for n in nums]
    for i, d in dens.items():
        scaled[i] = nums[i] * (den // d)
    g = math.gcd(den, *scaled) if den > 1 else 1
    if g > 1:
        scaled = [v // g for v in scaled]
    return scaled, den // g


def parse_document(doc: dict, origin: str = "instance") -> tuple[ProductDomain, CostFunction, dict]:
    """Build (domain, function, metadata) from a parsed JSON object."""
    if not isinstance(doc, dict):
        raise _fail(origin, "top level must be an object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise _fail("format_version", f"expected {FORMAT_VERSION!r}, got {version!r}")
    unknown = set(doc) - {"format_version", "trees", "function", "metadata"}
    if unknown:
        raise _fail(origin, f"unexpected keys {sorted(unknown)}")

    raw_trees = doc.get("trees")
    if not isinstance(raw_trees, list) or not raw_trees:
        raise _fail("trees", "expected a non-empty array")
    trees = []
    for i, entry in enumerate(raw_trees):
        if not isinstance(entry, dict) or set(entry) != {"parent"}:
            raise _fail(f"trees[{i}]", 'expected an object {"parent": [...]}')
        parent = entry["parent"]
        if not _int_array(parent):
            raise _fail(f"trees[{i}].parent", "expected an array of integers")
        try:
            trees.append(RootedTree(parent))
        except DomainError as exc:
            raise _fail(f"trees[{i}].parent", str(exc)) from exc
    domain = ProductDomain(trees)

    fn = doc.get("function")
    if not isinstance(fn, dict):
        raise _fail("function", "expected an object")
    ftype = fn.get("type")
    body = "values" if ftype == "table" else "terms" if ftype == "sum" else None
    declared_den = fn.get("denominator", 1)
    if type(declared_den) is not int or declared_den < 1:
        raise _fail("function.denominator", "expected a positive integer")
    if body is None:
        raise _fail("function.type", f"expected 'table' or 'sum', got {ftype!r}")
    unknown = set(fn) - {"type", "denominator", body}
    if unknown:
        raise _fail("function", f"unexpected keys {sorted(unknown)}")
    raw = fn.get(body)
    if not isinstance(raw, list):
        raise _fail(f"function.{body}", "expected an array")
    nums: list[int] = []
    dens: dict[int, int] = {}

    if ftype == "table":
        if len(raw) != domain.size():
            raise _fail(
                "function.values",
                f"expected {domain.size()} entries for this domain, got {len(raw)}",
            )
        nums = _parse_values(raw, "function.values", declared_den, dens)
        nums, den = _normalize(nums, declared_den, dens)
        function: CostFunction = DenseTable._of_plain_ints(domain, nums, den)
    else:
        shapes = []
        for ti, entry in enumerate(raw):
            where = f"function.terms[{ti}]"
            if not isinstance(entry, dict) or set(entry) != {"scope", "values"}:
                raise _fail(where, 'expected an object {"scope": [...], "values": [...]}')
            scope = entry["scope"]
            if not _int_array(scope) or not scope:
                raise _fail(where + ".scope", "expected a non-empty array of integers")
            values = entry["values"]
            if not isinstance(values, list):
                raise _fail(where + ".values", "expected an array")
            nums.extend(_parse_values(values, where + ".values", declared_den, dens, len(nums)))
            shapes.append((tuple(scope), len(values)))
        nums, den = _normalize(nums, declared_den, dens)
        terms = []
        cursor = 0
        for ti, (scope, count) in enumerate(shapes):
            chunk = nums[cursor:cursor + count]
            cursor += count
            try:
                terms.append(Term(scope=scope, values=tuple(chunk)))
            except DomainError as exc:
                raise _fail(f"function.terms[{ti}]", str(exc)) from exc
        try:
            function = SumOfTerms(domain, terms, den)
        except DomainError as exc:
            raise _fail("function.terms", str(exc)) from exc

    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise _fail("metadata", "expected an object")
    return domain, function, metadata


def parse_instance(path: str | Path) -> tuple[ProductDomain, CostFunction, dict]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc
    with _naming(path):
        return parse_document(doc, origin=str(path))


def build_document(domain: ProductDomain, function: CostFunction, metadata: dict | None = None) -> dict:
    """Canonical JSON object for a domain plus cost function."""
    doc: dict = {
        "format_version": FORMAT_VERSION,
        "trees": [{"parent": list(t.parent)} for t in domain.trees],
    }
    if isinstance(function, DenseTable):
        doc["function"] = {
            "type": "table",
            "denominator": function.denominator,
            "values": list(function.values),
        }
    elif isinstance(function, SumOfTerms):
        doc["function"] = {
            "type": "sum",
            "denominator": function.denominator,
            "terms": [
                {"scope": list(t.scope), "values": list(t.values)} for t in function.terms
            ],
        }
    else:
        raise DomainError(f"cannot serialize cost function of type {type(function).__name__}")
    if metadata:
        doc["metadata"] = metadata
    return doc


def canonical_dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def fixture_document(fixture: InstanceFixture, seed: int | None, kind: str) -> dict:
    metadata: dict = {
        "kind": kind,
        "properties": sorted(fixture.verified_properties),
        "provenance": fixture.provenance,
    }
    if seed is not None:
        metadata["seed"] = seed
    if fixture.start is not None:
        metadata["start"] = list(fixture.start)
    return build_document(fixture.domain, fixture.function, metadata)


# ---------------------------------------------------------------------------
# Report plumbing


def _fraction_record(numerator: int, denominator: int) -> dict:
    g = math.gcd(numerator, denominator)
    return {"num": numerator // g, "den": denominator // g}


def _witness_record(witness: checks.ViolationWitness | None, denominator: int):
    if witness is None:
        return None
    return {
        "property": witness.property_name,
        "x": list(witness.x),
        "y": list(witness.y),
        "d": witness.d,
        "lhs": _fraction_record(witness.lhs, denominator),
        "rhs": _fraction_record(witness.rhs, denominator),
    }


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _emit(report: dict, out: str | None) -> None:
    text = canonical_dumps(report)
    if out:
        _write_text(out, text)
    else:
        sys.stdout.write(text)


def _error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands


def _refuse_unread(subject: str, flags) -> None:
    """Refuse the first of the (flag, value, read) triples whose flag was
    given (its value is not None) to a ``subject`` that does not read it."""
    for flag, value, read in flags:
        if value is not None and not read:
            raise DomainError(f"{subject} does not read {flag}")


def _cmd_check(args) -> int:
    multimorphism = args.property == "multimorphism"
    _refuse_unread(f"property {args.property!r}", [("--ops", args.ops, multimorphism)])
    sampled = args.mode == "sampled"
    _refuse_unread(f"mode {args.mode!r}", [("--samples", args.samples, sampled),
                                           ("--seed", args.seed, sampled)])
    domain, function, _ = parse_instance(args.instance)
    # flags left out take the checkers' own defaults
    kwargs = {k: v for k, v in (("samples", args.samples), ("seed", args.seed)) if v is not None}
    kwargs["mode"] = args.mode
    if multimorphism:
        ops = args.ops or "meet-join"
        builders = {
            "meet-join": checks.meet_join_tables,
            "wedge-vee": checks.wedge_vee_tables,
            "min-max": checks.min_max_tables,
            "projections": checks.projection_tables,
        }
        report = checks.check_multimorphism(
            function, domain, builders[ops](domain), name=f"multimorphism:{ops}", **kwargs
        )
    else:
        report = checks._property_checks()[args.property](function, domain, **kwargs)
    record = {
        "command": "check",
        "instance": args.instance,
        "property": report.property_name,
        "mode": report.mode,
        "ok": report.ok,
        "pairs_checked": report.pairs_checked,
        "note": report.note,
        "witness": _witness_record(report.witness, function.denominator),
    }
    _emit(record, args.out)
    return EXIT_OK if report.ok else EXIT_VIOLATION


def _parse_start(raw: str | None, metadata: dict, domain: ProductDomain, path: str | Path):
    """The ``--start`` labels, else the file's ``metadata.start``, else None."""
    if raw is not None:
        try:
            labels = tuple(int(part) for part in raw.split(","))
        except ValueError as exc:
            raise DomainError(f"--start {raw!r} is not a comma-separated label list") from exc
        return domain.validate(labels)
    start = metadata.get("start")
    if start is None:
        return None
    where = f"{path}: metadata.start"
    if not _int_array(start):
        raise _fail(where, "expected an array of integers")
    try:
        return domain.validate(tuple(start))
    except DomainError as exc:
        raise _fail(where, str(exc)) from exc


def _cmd_minimize(args) -> int:
    descends = args.solver == "descent"
    _refuse_unread(f"solver {args.solver!r}", [("--engine", args.engine, descends),
                                               ("--start", args.start, descends),
                                               ("--trace", args.trace, descends),
                                               ("--diagnostics", args.diagnostics, descends)])
    engine = args.engine or "brute"
    domain, function, metadata = parse_instance(args.instance)
    start = _parse_start(args.start, metadata, domain, args.instance)
    record: dict = {
        "command": "minimize",
        "instance": args.instance,
        "solver": args.solver,
        "engine": engine,
        "s1_steps": None,
        "s2_steps": None,
        "certificate": None,
    }
    if args.solver == "brute":
        x, value = descent.minimize_exhaustive(function, domain)
    elif args.solver == "weak":
        x, value = weak.minimize_weak(function, domain)
    else:
        inward = "brute" if engine == "brute" else "wolfe"
        outward = "brute" if engine == "brute" else "minnorm"
        x, value, trace = descent.minimize(
            function,
            domain,
            start,
            inward_engine=inward,
            outward_engine=outward,
            diagnostics=bool(args.diagnostics),
        )
        record["s1_steps"] = trace.s1_steps
        record["s2_steps"] = trace.s2_steps
        record["certificate"] = {
            "inward_opt": trace.certificate.inward_opt,
            "outward_opt": trace.certificate.outward_opt,
        }
        if args.trace:
            record["values"] = [
                _fraction_record(v, function.denominator) for v in trace.values
            ]
        if args.diagnostics and trace.diagnostics is not None:
            record["diagnostics"] = [
                {
                    "stage": d.stage,
                    "value": _fraction_record(d.value, function.denominator),
                    "rho_minus": d.rho_minus,
                    "rho_plus": d.rho_plus,
                    "inward_still_optimal": d.inward_still_optimal,
                }
                for d in trace.diagnostics
            ]
    record["minimizer"] = list(x)
    record["value"] = _fraction_record(value, function.denominator)
    _emit(record, args.out)
    return EXIT_OK


_TREE_SPECS = {
    "star3": star3_tree,
    "bintree7": lambda: complete_binary_tree(3),
}


def _parse_tree_spec(spec: str, n: int | None) -> ProductDomain:
    tokens = [tok.strip() for tok in spec.split(",") if tok.strip()]
    if not tokens:
        raise DomainError("--tree-spec is empty")
    if n is not None:
        if len(tokens) > 1:
            raise DomainError(f"--n replicates a single-token --tree-spec, "
                              f"but {spec!r} has {len(tokens)} tokens")
        tokens = tokens * n
    trees = []
    for tok in tokens:
        if tok in _TREE_SPECS:
            trees.append(_TREE_SPECS[tok]())
        elif tok.startswith("chain"):
            trees.append(chain_tree(_spec_number(tok, "chain")))
        elif tok.startswith("fork"):
            trees.append(fork_tree(_spec_number(tok, "fork")))
        else:
            raise DomainError(
                f"unknown tree spec {tok!r}; use chainN, forkK, star3 or bintree7"
            )
    return ProductDomain(trees)


def _spec_number(token: str, prefix: str) -> int:
    try:
        return int(token[len(prefix):])
    except ValueError as exc:
        raise DomainError(f"tree spec {token!r} needs an integer suffix") from exc


def _cmd_generate(args) -> int:
    catalog = args.kind == "fixture-catalog"
    drawn = args.kind in ("random-verified-strong", "random-verified-weak")
    _refuse_unread(f"kind {args.kind!r}", [("--name", args.name, catalog),
                                           ("--tree-spec", args.tree_spec, not catalog),
                                           ("--n", args.n, not catalog),
                                           ("--seed", args.seed, not catalog),
                                           ("--max-value", args.max_value, not catalog),
                                           ("--attempts", args.attempts, drawn)])
    if catalog:
        fixture = generate("fixture-catalog", name=args.name)
        seed = None
    else:
        if not args.tree_spec:
            raise DomainError(f"kind {args.kind!r} needs --tree-spec")
        domain = _parse_tree_spec(args.tree_spec, args.n)
        seed = 0 if args.seed is None else args.seed
        fixture = generate(
            args.kind,
            domain,
            seed,
            max_value=20 if args.max_value is None else args.max_value,
            attempt_budget=1000 if args.attempts is None else args.attempts,
        )
    doc = fixture_document(fixture, seed, args.kind)
    _write_text(args.out, canonical_dumps(doc))
    record = {
        "command": "generate",
        "kind": args.kind,
        "out": args.out,
        "seed": seed,
        "properties": sorted(fixture.verified_properties),
    }
    sys.stdout.write(canonical_dumps(record))
    return EXIT_OK


def _corpus_dir() -> Path:
    return Path(str(resources.files("treesub") / "corpus"))


def _bench_row(path: Path, diagnostics: bool, timing: bool) -> dict:
    domain, function, metadata = parse_instance(path)
    properties = metadata.get("properties", [])
    if not isinstance(properties, list) or not all(isinstance(p, str) for p in properties):
        raise _fail("metadata.properties", "expected an array of strings")
    start = _parse_start(None, metadata, domain, path)
    row: dict = {"instance": path.name, "K": max(t.node_count for t in domain.trees)}
    began = time.perf_counter()
    if "strong" in properties or not properties:
        x, value, trace = descent.minimize(
            function, domain, start, diagnostics=diagnostics
        )
        row.update(
            solver="descent",
            s1_steps=trace.s1_steps,
            s2_steps=trace.s2_steps,
            value=_fraction_record(value, function.denominator),
            steps_within_bound=trace.s1_steps <= trace.K and trace.s2_steps <= trace.K,
            certificate=trace.certificate.holds(),
        )
        if diagnostics and trace.diagnostics is not None:
            row["rho_minus"] = [d.rho_minus for d in trace.diagnostics]
            row["rho_plus"] = [d.rho_plus for d in trace.diagnostics]
    else:
        x, value = weak.minimize_weak(function, domain)
        row.update(
            solver="weak",
            s1_steps=None,
            s2_steps=None,
            value=_fraction_record(value, function.denominator),
            steps_within_bound=True,
            certificate=None,
        )
    row["minimizer"] = list(x)
    if timing:
        row["wall_ms"] = round((time.perf_counter() - began) * 1000.0, 3)
    return row


def _cmd_bench(args) -> int:
    suite = Path(args.suite) if args.suite else _corpus_dir()
    if not suite.is_dir():
        raise FormatError(f"{suite}: bench suite is not a directory")
    paths = sorted(suite.glob("*.json"))
    rows = []
    for p in paths:
        with _naming(p):
            rows.append(_bench_row(p, args.diagnostics, args.timing))
    ok = all(row["steps_within_bound"] for row in rows)
    record = {"command": "bench", "suite": str(suite), "rows": rows, "ok": ok}
    _emit(record, args.out)
    return EXIT_OK if ok else EXIT_VIOLATION


def _cmd_encode_weak(args) -> int:
    domain, _, _ = parse_instance(args.instance)
    forks = weak.recognize_domain(domain)
    record = {
        "command": "encode-weak",
        "instance": args.instance,
        "trees": [
            {
                "K": fork.K,
                "fork": fork.has_fork,
                "mapping": [
                    {"label": label, "encoded": list(enc)}
                    for label, enc in weak.encoding_table(fork)
                ],
            }
            for fork in forks
        ],
    }
    _emit(record, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="treesub",
        description="Check and minimize tree-submodular cost functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify a submodularity property")
    p_check.add_argument("instance")
    p_check.add_argument(
        "--property",
        choices=("strong", "weak", "translation", "multimorphism"),
        default="strong",
    )
    p_check.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_check.add_argument("--samples", type=int,
                         help="pairs drawn in sampled mode (default: 1000); "
                              "exhaustive mode refuses it")
    p_check.add_argument("--seed", type=int,
                         help="seed of sampled mode's draws (default: 0); "
                              "exhaustive mode refuses it")
    p_check.add_argument(
        "--ops",
        choices=("meet-join", "wedge-vee", "min-max", "projections"),
        help="operation pair for --property multimorphism (default: meet-join); "
             "other properties refuse it",
    )
    p_check.add_argument("--out")
    p_check.set_defaults(func=_cmd_check)

    p_min = sub.add_parser("minimize", help="minimize an instance")
    p_min.add_argument("instance")
    p_min.add_argument("--solver", choices=("descent", "brute", "weak"), default="descent")
    # --solver brute and weak refuse the four descent flags
    p_min.add_argument("--engine", choices=("brute", "minnorm"),
                       help="inner engines for descent: brute (default), or min-norm-point")
    p_min.add_argument("--start", help="comma-separated start labeling")
    p_min.add_argument("--trace", action="store_true", default=None,
                       help="include the value sequence")
    p_min.add_argument("--diagnostics", action="store_true", default=None,
                       help="include ideal/filter distance traces (exponential)")
    p_min.add_argument("--out")
    p_min.set_defaults(func=_cmd_minimize)

    p_gen = sub.add_parser("generate", help="emit a verified instance file")
    p_gen.add_argument("--kind", choices=GENERATE_KINDS, required=True)
    p_gen.add_argument("--name", choices=fixture_catalog_names(),
                       help="fixture name for --kind fixture-catalog")
    p_gen.add_argument("--n", type=int, help="replicate a single-token --tree-spec n times")
    p_gen.add_argument("--tree-spec", help="comma-separated: chainN, forkK, star3, bintree7")
    p_gen.add_argument("--seed", type=int,
                       help="seed of the generator's stream (default: 0); "
                            "the fixture catalog refuses it")
    p_gen.add_argument("--max-value", type=int,
                       help="largest unary proposal value of the random-verified kinds "
                            "(default: 20); chain-separable ignores it (it must still be "
                            "non-negative) and the fixture catalog refuses it")
    p_gen.add_argument("--attempts", type=int,
                       help="rejection-sampling budget of the random-verified kinds "
                            "(default: 1000); the other kinds refuse it")
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=_cmd_generate)

    p_bench = sub.add_parser("bench", help="run a suite and assert step bounds")
    p_bench.add_argument("--suite", help="directory of instance files (default: shipped corpus)")
    p_bench.add_argument("--timing", action="store_true", help="include wall-clock columns")
    p_bench.add_argument("--diagnostics", action="store_true")
    p_bench.add_argument("--out")
    p_bench.set_defaults(func=_cmd_bench)

    p_enc = sub.add_parser("encode-weak", help="dump the fork-tree encoding tables")
    p_enc.add_argument("instance")
    p_enc.add_argument("--out")
    p_enc.set_defaults(func=_cmd_encode_weak)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        _error(str(exc))
        return EXIT_INPUT
    except TreesubError as exc:  # budget, generation, solver and internal failures
        _error(str(exc))
        return EXIT_FAILURE


def entry() -> None:
    sys.exit(main())
