"""Byte-for-byte regression of ``treesub`` reports on the shipped corpus.

Each ``check`` golden in ``tests/golden`` is named
``<instance>.<property>.<mode>.json``; each ``minimize`` golden is named
``<instance>.minimize.<variant>.json`` and the two ``bench --suite .``
goldens ``corpus.bench.<variant>.json``.  Every file holds the report the
CLI wrote for that corpus instance or the whole corpus.  The reports were
written from inside the corpus directory, so their ``instance`` and
``suite`` fields are bare names; the tests run the same way.  Sampled
reports use ``--samples 200 --seed 3``.  To regenerate one:

    cd src/treesub/corpus && python -m treesub check fork2_weak.json \\
        --property translation --mode sampled --samples 200 --seed 3 \\
        --out ../../../tests/golden/fork2_weak.translation.sampled.json
    cd src/treesub/corpus && python -m treesub minimize fork2_weak.json \\
        --solver weak --out ../../../tests/golden/fork2_weak.minimize.weak.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import treesub as ts
from treesub.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main

GOLDEN = Path(__file__).parent / "golden"
CORPUS = Path(ts.__file__).parent / "corpus"
MODE_ARGS = {
    "exhaustive": ["--mode", "exhaustive"],
    "sampled": ["--mode", "sampled", "--samples", "200", "--seed", "3"],
}
PROPERTY_ARGS = {
    "strong": ["--property", "strong"],
    "weak": ["--property", "weak"],
    "translation": ["--property", "translation"],
    "multimorphism-min-max": ["--property", "multimorphism", "--ops", "min-max"],
}
MINIMIZE_ARGS = {
    "descent": [],
    "minnorm": ["--engine", "minnorm"],
    "brute": ["--solver", "brute"],
    "weak": ["--solver", "weak"],
}
BENCH_ARGS = {
    "plain": [],
    "diagnostics": ["--diagnostics"],
}
# corpus instances whose trees are not all forks or chains
NOT_FORK = {"bintree5_strong"}


def _goldens(*kinds: str) -> list[Path]:
    """Golden files whose second name part is one of ``kinds``."""
    return sorted(p for p in GOLDEN.glob("*.json") if p.stem.split(".")[1] in kinds)


def test_golden_set_covers_corpus():
    names = {p.name for p in GOLDEN.glob("*.json")}
    for instance in CORPUS.glob("*.json"):
        for prop in ("strong", "weak", "translation"):
            for mode in MODE_ARGS:
                assert f"{instance.stem}.{prop}.{mode}.json" in names
        for variant in MINIMIZE_ARGS:
            expected = f"{instance.stem}.minimize.{variant}.json" in names
            assert expected != (variant == "weak" and instance.stem in NOT_FORK)
    chains = [p.stem for p in CORPUS.glob("chain*.json")]
    assert chains
    for stem in chains:
        for mode in MODE_ARGS:
            assert f"{stem}.multimorphism-min-max.{mode}.json" in names
    for variant in BENCH_ARGS:
        assert f"corpus.bench.{variant}.json" in names


@pytest.mark.parametrize("golden", _goldens(*PROPERTY_ARGS), ids=lambda p: p.stem)
def test_check_report_matches_golden(golden, tmp_path, monkeypatch):
    stem, prop, mode = golden.stem.split(".")
    out = tmp_path / "report.json"
    monkeypatch.chdir(CORPUS)
    code = main(["check", f"{stem}.json", *PROPERTY_ARGS[prop], *MODE_ARGS[mode],
                 "--out", str(out)])
    expected = golden.read_bytes()
    assert out.read_bytes() == expected
    assert code == (EXIT_OK if json.loads(expected)["ok"] else EXIT_VIOLATION)


@pytest.mark.parametrize("golden", _goldens("minimize"), ids=lambda p: p.stem)
def test_minimize_report_matches_golden(golden, tmp_path, monkeypatch):
    stem, _, variant = golden.stem.split(".")
    out = tmp_path / "report.json"
    monkeypatch.chdir(CORPUS)
    code = main(["minimize", f"{stem}.json", *MINIMIZE_ARGS[variant], "--out", str(out)])
    assert code == EXIT_OK
    assert out.read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("stem", sorted(NOT_FORK))
def test_weak_minimize_refuses_non_fork_corpus_instance(stem, tmp_path, monkeypatch):
    out = tmp_path / "report.json"
    monkeypatch.chdir(CORPUS)
    code = main(["minimize", f"{stem}.json", *MINIMIZE_ARGS["weak"], "--out", str(out)])
    assert code == EXIT_INPUT
    assert not out.exists()


@pytest.mark.parametrize("golden", _goldens("bench"), ids=lambda p: p.stem)
def test_bench_report_matches_golden(golden, tmp_path, monkeypatch):
    variant = golden.stem.split(".")[2]
    out = tmp_path / "report.json"
    monkeypatch.chdir(CORPUS)
    code = main(["bench", "--suite", ".", *BENCH_ARGS[variant], "--out", str(out)])
    expected = golden.read_bytes()
    assert out.read_bytes() == expected
    assert code == (EXIT_OK if json.loads(expected)["ok"] else EXIT_VIOLATION)
