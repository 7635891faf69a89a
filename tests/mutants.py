"""Mutation gate: every listed source mutant must fail its named tests.

Run it from any directory as ``python tests/mutants.py``; it needs only
pytest, which the test suite needs anyway.  Each entry of ``MUTANTS``
names a file under ``src``, an exact text of that file, the text that
replaces it, and the test node ids that must fail once it is replaced.
For each entry the script copies ``src`` to a temporary directory,
applies the mutant there and runs only those tests against the copy;
the working tree is never written.  Before any mutant it runs every
named test against an unmutated copy, which must pass, so a mutant
counts as killed only when its tests fail because of it.  An old text
that does not occur exactly once fails the gate, so the list stays
current as the code changes.  The exit status is 0 when every mutant is
killed and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root


MUTANTS = (
    # The restrictions are the one checked boundary of a walk; the walker trusts their steps.
    Mutant(
        "inward walk without its free-set check", "treesub/descent.py",
        '            if i not in free_set:\n'
        '                raise DomainError(f"coordinate {i} leaves the free set {sorted(free_set)}")\n',
        "",
        ("tests/test_descent.py::test_restriction_walks_refuse_moves_outside_the_neighborhood",),
    ),
    Mutant(
        "outward walk without its sign check", "treesub/descent.py",
        "                check_sign(i, s)\n            labels.append((i, label))",
        "            labels.append((i, label))",
        ("tests/test_descent.py::test_restriction_walks_refuse_moves_outside_the_neighborhood",),
    ),
    Mutant(
        "outward walk without its coordinate range check", "treesub/descent.py",
        "                if not 0 <= i < domain.n:\n"
        '                    raise DomainError(f"coordinate {i} is not in 0..{domain.n - 1}")\n',
        "",
        ("tests/test_descent.py::test_restriction_walks_refuse_moves_outside_the_neighborhood",),
    ),
    Mutant(
        "outward children swapped in the Neighborhoods table", "treesub/trees.py",
        "kids[:1] + (v,) + kids[1:]",
        "kids[1:] + (v,) + kids[:1]",
        ("tests/test_descent.py::test_restriction_walks_match_evaluate_along_the_prefixes",
         "tests/test_descent.py::test_outward_guards_only_the_nodes_it_moves"),
    ),
    Mutant(
        "one unit axis too many in _grid's index", "treesub/functions.py",
        "_axis_index(a, n - 1 - i)",
        "_axis_index(a, n - i)",
        ("tests/test_functions.py::test_sum_grid_with_a_variable_no_term_reads",
         "tests/test_functions.py::test_short_axes_are_indexed_once_and_kept_read_only"),
    ),
    Mutant(
        "max for min in _split_holds", "treesub/checks.py",
        "least = (block[:, :, None] - block[:, None, :]).min(axis=0)",
        "least = (block[:, :, None] - block[:, None, :]).max(axis=0)",
        ("tests/test_checks.py::test_split_members_match_naive_on_random_tables_and_fixtures",
         "tests/test_checks.py::test_split_member_witnesses_match_naive"),
    ),
    Mutant(
        "an int64 split dtype", "treesub/checks.py",
        "grid = grid.astype(sum_dtype(4 * int(abs(grid).max())), copy=False)",
        "grid = grid.astype(np.int64, copy=False)",
        ("tests/test_checks.py::test_split_members_sum_four_values_exactly",),
    ),
    Mutant(
        "2x2 squares read in label order", "treesub/checks.py",
        "    grid = grid[np.ix_(*(np.argsort(t.depth) for t in domain.trees))]\n",
        "",
        ("tests/test_checks.py::test_chain_weak_matches_naive_and_the_full_pass",
         "tests/test_checks.py::test_chain_weak_squares_are_exact_past_int64"),
    ),
    Mutant(
        "a sum holds when any host holds", "treesub/checks.py",
        "    return all(_flagged_pair(",
        "    return any(_flagged_pair(",
        ("tests/test_checks.py::test_a_failing_host_falls_back_to_the_full_pass",),
    ),
    Mutant(
        "the mirror rule taken per coordinate", "treesub/checks.py",
        "    return (all((f == f.T).all() and (s == s.T).all() for f, s in tables)\n"
        "            or all((f.T == s).all() for f, s in tables))",
        "    return all(((f == f.T).all() and (s == s.T).all()) or (f.T == s).all()\n"
        "               for f, s in tables)",
        ("tests/test_checks.py::"
         "test_a_member_mixing_symmetric_and_swap_symmetric_coordinates_scans_every_y",),
    ),
    # A bad argument is refused by name; an unknown kind before a missing domain.
    Mutant(
        "validate without its labeling guard", "treesub/functions.py",
        '''each checked against its tree."""
        try:
            length = len(x)
        except TypeError:
            raise DomainError(f"labeling {x!r} is not a sequence of node ids") from None
''',
        '''each checked against its tree."""
        length = len(x)
''',
        ("tests/test_functions.py::test_arguments_that_are_not_sequences_are_refused_by_name",),
    ),
    Mutant(
        "rank without its labeling guard", "treesub/functions.py",
        '''without building the tuple
        try:
            length = len(x)
        except TypeError:
            raise DomainError(f"labeling {x!r} is not a sequence of node ids") from None
''',
        '''without building the tuple
        length = len(x)
''',
        ("tests/test_functions.py::test_arguments_that_are_not_sequences_are_refused_by_name",),
    ),
    Mutant(
        "generate checks the domain before the kind", "treesub/functions.py",
        "    if kind not in GENERATE_KINDS:\n"
        '        raise DomainError(f"unknown generator kind {kind!r}; known: {\', \'.join(GENERATE_KINDS)}")\n'
        "    if domain is None:\n"
        '        raise DomainError(f"kind {kind!r} needs a domain")\n',
        "    if domain is None:\n"
        '        raise DomainError(f"kind {kind!r} needs a domain")\n'
        "    if kind not in GENERATE_KINDS:\n"
        '        raise DomainError(f"unknown generator kind {kind!r}; known: {\', \'.join(GENERATE_KINDS)}")\n',
        ("tests/test_functions.py::test_generate_unknown_kind",),
    ),
)


def _copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _pytest(src: Path, tests) -> int:
    """pytest's exit status for the tests run against the package in ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(_copy_src(tmp), tests)
        if code != 0:
            print(f"unmutated copy: the named tests exit {code}, not 0")
            return 1
        print(f"unmutated copy: {len(tests)} named tests pass")
    for m in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            path = src / m.file
            text = path.read_text()
            count = text.count(m.old)
            if count != 1:
                verdict = f"FAULT: old text found {count} times in {m.file}"
            else:
                path.write_text(text.replace(m.old, m.new))
                code = _pytest(src, m.tests)
                # 1 is pytest's status for failed tests; any other is a run that never judged
                verdict = "killed" if code == 1 else f"FAULT: its tests exit {code}, not 1"
        print(f"{m.name}: {verdict}")
        if verdict != "killed":
            faults.append(m.name)
    print(f"{len(MUTANTS) - len(faults)} of {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
