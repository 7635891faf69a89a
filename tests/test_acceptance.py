"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Everything here is exact integer arithmetic, so "tolerance" means zero
everywhere except the min-norm solvers, whose results are rounded through
an exact function evaluation before comparison.  Run with ``pytest -s``
to see the per-criterion lines.

Criteria:
 1  chain and sign-star specialization identities, exhaustively
 2  operation-law bundle over 1000 random draws on random binary trees
 3  every verified strongly tree-submodular fixture also passes the
    d-step and wedge/vee checks (>= 200 fixtures)
 4  strong and d-step verdicts agree on >= 500 random integer tables
 5  descent returns the exact brute-force minimum within the step bounds
    and with a true certificate on 100 verified fixtures
 6  distance-to-optimum monotonicity along chain runs (25 fixtures)
 7  min-norm solvers agree with the brute oracles (50 + 50 instances)
 8  inward cubes are submodular and outward boxes bisubmodular at 10
    random points of 50 verified fixtures
 9  encoding injectivity/homomorphism (K <= 3) and weak minimization
    equals brute force on 50 verified fork fixtures
10  CLI round-trip idempotence, report determinism, and all exit codes
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path

import treesub as ts
from treesub.cli import (
    EXIT_FAILURE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    build_document,
    canonical_dumps,
    fixture_document,
    main,
    parse_instance,
)
from treesub.weak import encoded_wedge_vee

from conftest import (
    brute_minimum,
    naive_box_violation,
    naive_cube_violation,
    random_cut_plus_modular,
    random_sign_box,
)


def _report(number: int, ok: bool, detail: str, began: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {number:2d}: {detail} ({time.perf_counter() - began:.2f}s)")


def _tree_pool_5(rng: ts.SplitMix64) -> ts.RootedTree:
    """Deterministic rotation of binary trees with at most 5 nodes."""
    pick = rng.below(4)
    if pick == 0:
        return ts.chain_tree(3 + rng.below(3))
    if pick == 1:
        return ts.star3_tree()
    if pick == 2:
        return ts.RootedTree([-1, 0, 0, 1, 1])
    return ts.random_tree(rng, 4 + rng.below(2))


def test_criterion_1_specialization_identities():
    began = time.perf_counter()
    checked = 0
    for k in range(1, 11):
        chain = ts.chain_tree(k + 1)
        for a in range(k + 1):
            for b in range(k + 1):
                assert ts.meet_join(chain, a, b) == ((a + b) // 2, (a + b + 1) // 2)
                w, v = ts.wedge_vee(chain, a, b)
                assert (w, v) == (min(a, b), max(a, b))
                checked += 1
    star = ts.star3_tree()
    sign_of = {0: 0, 1: -1, 2: 1}
    node_of = {v: k for k, v in sign_of.items()}
    for a in range(3):
        for b in range(3):
            sa, sb = sign_of[a], sign_of[b]
            sgn = (sa + sb > 0) - (sa + sb < 0)
            assert ts.meet_join(star, a, b) == (node_of[abs(sa * sb) * sgn], node_of[sgn])
            checked += 1
    elapsed = time.perf_counter() - began
    ok = elapsed < 1.0
    _report(1, ok, f"floor/ceil and sign identities on {checked} pairs, zero tolerance", began)
    assert ok, f"exhaustive specialization scan took {elapsed:.2f}s (limit 1s)"


def test_criterion_2_operation_laws_1000_draws():
    began = time.perf_counter()
    rng = ts.SplitMix64(0xC2)
    violations = 0
    for _ in range(1000):
        tree = ts.random_tree(rng, 2 + rng.below(14))  # up to 15 nodes
        a = rng.below(tree.node_count)
        b = rng.below(tree.node_count)
        d = rng.below(2 * tree.node_count)
        p = ts.path(tree, a, b)
        dist = p.length
        m, j = ts.meet_join(tree, a, b)
        w, v = ts.wedge_vee(tree, a, b)
        up, down = ts.up_down(tree, a, b, d)
        laws = [
            (m, j) == ts.meet_join(tree, b, a),
            (w, v) == ts.wedge_vee(tree, b, a),
            {m, j} == {p.node_at(dist // 2), p.node_at((dist + 1) // 2)},
            tree.is_ancestor(m, j),
            ts.rho(tree, a, down) == ts.rho(tree, up, b),
            ts.rho(tree, a, up) == ts.rho(tree, down, b),
            ts.up_down(tree, a, b, 0) == (w, v),
            d < dist or (up, down) == (b, a),
        ]
        violations += sum(0 if law else 1 for law in laws)
    ok = violations == 0
    _report(2, ok, f"law bundle over 1000 draws, {violations} violations", began)
    assert ok


def _strong_fixture_pool(count: int, seed: int, max_n: int = 3):
    rng = ts.SplitMix64(seed)
    fixtures = []
    while len(fixtures) < count:
        n = 2 + rng.below(max_n - 1)
        domain = ts.ProductDomain([_tree_pool_5(rng) for _ in range(n)])
        if domain.size() ** 2 > 10**6:
            continue
        fixtures.append(
            ts.generate("random-verified-strong", domain, seed=rng.below(1 << 32))
        )
    return fixtures


def test_criterion_3_strong_implies_translation_and_weak():
    began = time.perf_counter()
    fixtures = _strong_fixture_pool(200, seed=0xC3)
    bad = 0
    for fx in fixtures:
        assert "strong" in fx.verified_properties
        if not ts.check_translation(fx.function).ok:
            bad += 1
        if not ts.check_weak(fx.function).ok:
            bad += 1
    elapsed = time.perf_counter() - began
    ok = bad == 0 and elapsed < 300.0
    _report(3, ok, f"{len(fixtures)} strong fixtures, exhaustive pair+d scans, {bad} violations", began)
    assert bad == 0
    assert elapsed < 300.0, f"criterion 3 took {elapsed:.1f}s (limit 300s)"


def test_criterion_4_strong_translation_verdicts_agree():
    began = time.perf_counter()
    rng = ts.SplitMix64(0xC4)
    shapes = [
        ts.ProductDomain([ts.chain_tree(2), ts.chain_tree(2)]),
        ts.ProductDomain([ts.chain_tree(3), ts.chain_tree(2)]),
        ts.ProductDomain([ts.chain_tree(3), ts.star3_tree()]),
        ts.ProductDomain([ts.chain_tree(4), ts.chain_tree(4)]),
        ts.ProductDomain([ts.RootedTree([-1, 0, 0, 1])]),
    ]
    disagreements = 0
    holds = fails = 0
    for i in range(500):
        domain = shapes[i % len(shapes)]
        values = [rng.below(13) for _ in range(domain.size())]
        f = ts.DenseTable(domain, values)
        s = ts.check_strong(f).ok
        t = ts.check_translation(f).ok
        if s != t:
            disagreements += 1
        if s:
            holds += 1
        else:
            fails += 1
    ok = disagreements == 0 and holds > 0 and fails > 0
    _report(4, ok, f"500 random tables, verdicts {holds} ok / {fails} violated, "
                   f"{disagreements} disagreements", began)
    assert disagreements == 0
    assert holds > 0 and fails > 0, "both verdicts should occur in the sample"


def _descent_domain(rng: ts.SplitMix64) -> ts.ProductDomain:
    """Binary trees, n <= 4, |D_i| <= 7, domain size kept within the
    generator's exhaustive-verification budget."""
    style = rng.below(3)
    if style == 0:
        n = 4
        trees = [_tree_pool_5(rng) for _ in range(n)]
    elif style == 1:
        trees = [ts.complete_binary_tree(3), ts.random_tree(rng, 5 + rng.below(3))]
    else:
        trees = [ts.chain_tree(7), ts.random_tree(rng, 7), ts.random_tree(rng, 4)]
    domain = ts.ProductDomain(trees)
    return domain


def test_criterion_5_descent_exactness_and_bounds():
    began = time.perf_counter()
    rng = ts.SplitMix64(0xC5)
    runs = 0
    while runs < 100:
        domain = _descent_domain(rng)
        if domain.size() ** 2 > 10**6:
            continue
        fx = ts.generate("random-verified-strong", domain, seed=rng.below(1 << 32))
        start = None
        if runs % 2 == 1:
            start = domain.unrank(rng.below(domain.size()))
        x, value, trace = ts.minimize(fx.function, domain, start)
        _, expected = ts.minimize_exhaustive(fx.function, domain)
        assert value == expected, (runs, value, expected)
        assert trace.s1_steps <= trace.K and trace.s2_steps <= trace.K, runs
        assert trace.certificate.holds(), runs
        assert all(a > b for a, b in zip(trace.values, trace.values[1:]))
        runs += 1
    elapsed = time.perf_counter() - began
    ok = elapsed < 120.0
    _report(5, ok, "100 verified fixtures: exact minimum, steps <= K, certificates true", began)
    assert ok, f"criterion 5 took {elapsed:.1f}s (limit 120s)"


def test_criterion_6_chain_monotonicity():
    began = time.perf_counter()
    rng = ts.SplitMix64(0xC6)
    decrements = 0
    for run in range(25):
        n = 1 + rng.below(2)
        domain = ts.ProductDomain([ts.chain_tree(4 + rng.below(3)) for _ in range(n)])
        fx = ts.generate("chain-separable", domain, seed=rng.below(1 << 32))
        start = tuple(t.node_count - 1 for t in domain.trees)  # deepest labeling
        if start == domain.all_roots():
            start = domain.unrank(domain.size() - 1)
        _, _, trace = ts.minimize(fx.function, domain, start, diagnostics=True)
        diag = trace.diagnostics
        assert diag is not None and len(diag) >= 1
        for prev, cur in zip(diag, diag[1:]):
            assert cur.rho_minus <= prev.rho_minus, run
            assert cur.rho_plus <= prev.rho_plus, run
            if cur.stage == "s1" and prev.rho_minus >= 1:
                assert cur.rho_minus == prev.rho_minus - 1, run
                decrements += 1
    ok = decrements > 0
    _report(6, ok, f"25 chain runs from non-root starts, {decrements} unit decrements verified", began)
    assert ok


def test_criterion_7_min_norm_oracle_equivalence():
    began = time.perf_counter()
    rng = ts.SplitMix64(0xC7)
    for trial in range(50):
        m = 2 + rng.below(7)  # up to 8
        g = random_cut_plus_modular(rng, m)
        _, expected = ts.sfm_brute(g)
        _, value = ts.sfm_wolfe(g)
        assert value == expected, ("sfm", trial, m)
    for trial in range(50):
        m = 2 + rng.below(5)  # up to 6
        h = random_sign_box(rng, m, full_box=trial % 2 == 0)
        _, expected = ts.bisub_brute(h)
        vec, value = ts.bisub_minnorm(h)
        assert value == expected, ("bisub", trial, m)
        assert all(s in h.allowed[i] for i, s in enumerate(vec))
    _report(7, True, "wolfe == brute on 50 cubes; min-norm == brute on 50 sign boxes", began)


def test_criterion_8_neighborhood_structure():
    began = time.perf_counter()
    fixtures = _strong_fixture_pool(50, seed=0xC8)
    rng = ts.SplitMix64(0x8C)
    for fx in fixtures:
        for _ in range(10):
            x = fx.domain.unrank(rng.below(fx.domain.size()))
            cube = ts.inward_restrict(fx.function, fx.domain, x)
            assert naive_cube_violation(cube) is None
            box = ts.outward_restrict(fx.function, fx.domain, x)
            assert naive_box_violation(box) is None
    _report(8, True, "50 fixtures x 10 points: inward submodular, outward bisubmodular", began)


def test_criterion_9_weak_reduction():
    began = time.perf_counter()
    for k in range(4):
        for fork in (ts.recognize(ts.fork_tree(k)), ts.recognize(ts.chain_tree(k + 1))):
            image = {}
            for x in range(fork.tree.node_count):
                enc = ts.psi(fork, x)
                assert enc not in image.values()
                image[x] = enc
            for a, b in itertools.product(range(fork.tree.node_count), repeat=2):
                w, v = ts.wedge_vee(fork.tree, a, b)
                ew, ev = encoded_wedge_vee(image[a], image[b])
                assert ew == image[w] and ev == image[v]
    rng = ts.SplitMix64(0xC9)
    for trial in range(50):
        k1, k2 = 1 + rng.below(2), 1 + rng.below(2)
        domain = ts.ProductDomain([ts.fork_tree(k1), ts.fork_tree(k2)])
        fx = ts.generate("random-verified-weak", domain, seed=rng.below(1 << 32))
        x, value = ts.minimize_weak(fx.function, domain)
        _, expected = brute_minimum(fx.function)
        assert value == expected, trial
    _report(9, True, "psi injective + homomorphic (K <= 3); weak minimize == brute on 50 fixtures", began)


def test_criterion_10_cli_contract(tmp_path, capsys, monkeypatch):
    began = time.perf_counter()
    # canonical round-trip on the shipped corpus
    corpus = Path(ts.__file__).parent / "corpus"
    paths = sorted(corpus.glob("*.json"))
    assert paths
    for path in paths:
        domain, function, metadata = parse_instance(path)
        assert canonical_dumps(build_document(domain, function, metadata)) == path.read_text()
    # deterministic byte-identical reports under a fixed seed
    fx = ts.generate("fixture-catalog", name="chain5-separable")
    inst = tmp_path / "sep.json"
    inst.write_text(canonical_dumps(fixture_document(fx, None, "fixture-catalog")))
    assert main(["check", str(inst), "--mode", "sampled", "--seed", "11"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["check", str(inst), "--mode", "sampled", "--seed", "11"]) == EXIT_OK
    assert capsys.readouterr().out == first
    gen1, gen2 = tmp_path / "g1.json", tmp_path / "g2.json"
    argv = ["generate", "--kind", "random-verified-strong", "--tree-spec", "chain4,star3",
            "--seed", "77"]
    assert main(argv + ["--out", str(gen1)]) == EXIT_OK
    assert main(argv + ["--out", str(gen2)]) == EXIT_OK
    capsys.readouterr()
    assert gen1.read_bytes() == gen2.read_bytes()
    # every documented exit code
    concave = ts.generate("fixture-catalog", name="chain5-concave")
    bad = tmp_path / "concave.json"
    bad.write_text(canonical_dumps(fixture_document(concave, None, "fixture-catalog")))
    assert main(["check", str(inst)]) == EXIT_OK
    assert main(["check", str(bad)]) == EXIT_VIOLATION
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", str(broken)]) == EXIT_INPUT
    monkeypatch.setenv("TREESUB_BUDGET", "2")
    assert main(["check", str(inst)]) == EXIT_FAILURE
    monkeypatch.delenv("TREESUB_BUDGET")
    capsys.readouterr()
    with capsys.disabled():
        _report(10, True, "corpus round-trip, byte-identical reports, exit codes 0/1/2/3", began)