"""Byte guard: the sha256 of the stdout of all five commands on small inputs.

Covers `compute` and `mirror-check` on all five spaces and `duality-check` for
SL(2..5) with every m | n, B2, C2, B3, C3 and D3 in both forms and the G2
datum file, plus `closed-form` for n <= 8 and `cross-validate` for n <= 4 on
both surfaces, each in both output formats.  A second table guards B5_sc
`duality-check` and `mirror-check --space mixed`, where π₀ blocks over
(ℤ/2)^5 and Smith inputs of rank 5 occur.  A refactor that keeps the
results must keep these bytes.  When output is meant to change, regenerate
both tables from the repository root with

    PYTHONPATH=src python tests/test_golden_bytes.py --write
"""

import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from orbev.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_digests.json"
RANK_FIVE = Path(__file__).resolve().parent / "data" / "rank5_digests.json"
SPACES = ("betti", "dolbeault", "derham", "abelian-surface", "mixed")
FORMATS = ("json", "text")
COMMANDS = ("compute", "mirror-check", "duality-check", "closed-form", "cross-validate")


def selectors() -> list[list[str]]:
    out = [["sl", str(n), str(m)] for n in range(2, 6) for m in range(1, n + 1) if n % m == 0]
    out += [["classical", family, "2", form] for family in "BC" for form in ("sc", "ad")]
    out += [["classical", family, "3", form] for family in "BCD" for form in ("sc", "ad")]
    out.append(["custom", "tests/data/g2.datum"])
    return out


def operations(command: str) -> list[list[str]]:
    if command in ("closed-form", "cross-validate"):
        base = [
            [command, "--n", str(n), "--m", str(m), "--surface", surface]
            for n in range(2, 9 if command == "closed-form" else 5)
            for m in range(1, n + 1)
            if n % m == 0
            for surface in ("betti", "abelian")
        ]
    elif command == "duality-check":
        base = [[command, "--group", *sel] for sel in selectors()]
    else:
        base = [[command, "--group", *sel, "--space", space] for sel in selectors() for space in SPACES]
    return [argv + ["--format", fmt] for argv in base for fmt in FORMATS]


def rank_five_operations() -> list[list[str]]:
    base = [
        ["duality-check", "--group", "classical", "B", "5", "sc"],
        ["mirror-check", "--group", "classical", "B", "5", "sc", "--space", "mixed"],
    ]
    return [argv + ["--format", fmt] for argv in base for fmt in FORMATS]


def digest(argv: list[str]) -> list:
    """[exit code, sha256 of stdout] of one CLI run from the repository root."""
    buf = io.StringIO()
    code = main(argv, out=buf)
    return [code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()]


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_bytes_match_golden(command, monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[command]
    ops = operations(command)
    assert sorted(" ".join(argv) for argv in ops) == sorted(golden)
    changed = [" ".join(argv) for argv in ops if digest(argv) != golden[" ".join(argv)]]
    assert changed == []


def test_rank_five_stdout_bytes_match_golden(monkeypatch):
    monkeypatch.chdir(ROOT)
    golden = json.loads(RANK_FIVE.read_text(encoding="utf-8"))
    ops = rank_five_operations()
    assert sorted(" ".join(argv) for argv in ops) == sorted(golden)
    changed = [" ".join(argv) for argv in ops if digest(argv) != golden[" ".join(argv)]]
    assert changed == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden_bytes.py --write")
    os.chdir(ROOT)
    table = {c: {" ".join(argv): digest(argv) for argv in operations(c)} for c in COMMANDS}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    rank_five = {" ".join(argv): digest(argv) for argv in rank_five_operations()}
    RANK_FIVE.write_text(json.dumps(rank_five, indent=1, sort_keys=True) + "\n", encoding="utf-8")
