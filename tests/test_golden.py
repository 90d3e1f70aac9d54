"""Byte-exact stdout of the README fixture commands.

The expected bytes live in perfbench/golden.json, which the benchmark also
checks; this test only reads it.  Paths in the argv lists are relative to the
repository root.
"""
import json
from pathlib import Path

import pytest

from k3auto.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(g["argv"]) for g in GOLDEN])
def test_fixture_command_stdout_is_golden(entry, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(entry["argv"]))
    out = capsys.readouterr().out
    assert code == 0
    assert out == entry["stdout"]
