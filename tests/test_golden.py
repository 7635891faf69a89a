"""Byte-for-byte regression of ``treesub check`` reports on the shipped corpus.

Each file in ``tests/golden`` is named ``<instance>.<property>.<mode>.json``
and holds the report ``treesub check`` wrote for that corpus instance.
The reports were written from inside the corpus directory, so their
``instance`` field is the bare file name; the test runs the same way.
Sampled reports use ``--samples 200 --seed 3``.  To regenerate one:

    cd src/treesub/corpus && python -m treesub check fork2_weak.json \\
        --property translation --mode sampled --samples 200 --seed 3 \\
        --out ../../../tests/golden/fork2_weak.translation.sampled.json
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import treesub as ts
from treesub.cli import EXIT_OK, EXIT_VIOLATION, main

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


def test_golden_set_covers_corpus():
    names = {p.name for p in GOLDEN.glob("*.json")}
    for instance in CORPUS.glob("*.json"):
        for prop in ("strong", "weak", "translation"):
            for mode in MODE_ARGS:
                assert f"{instance.stem}.{prop}.{mode}.json" in names
    chains = [p.stem for p in CORPUS.glob("chain*.json")]
    assert chains
    for stem in chains:
        for mode in MODE_ARGS:
            assert f"{stem}.multimorphism-min-max.{mode}.json" in names


@pytest.mark.parametrize("golden", sorted(GOLDEN.glob("*.json")), ids=lambda p: p.stem)
def test_check_report_matches_golden(golden, tmp_path, monkeypatch):
    stem, prop, mode = golden.stem.split(".")
    out = tmp_path / "report.json"
    monkeypatch.chdir(CORPUS)
    code = main(["check", f"{stem}.json", *PROPERTY_ARGS[prop], *MODE_ARGS[mode],
                 "--out", str(out)])
    expected = golden.read_bytes()
    assert out.read_bytes() == expected
    assert code == (EXIT_OK if json.loads(expected)["ok"] else EXIT_VIOLATION)
