"""The stdout of the benchmark's three fixed-input commands against the
digests recorded in perfbench/digests.json, so a change that alters what a
benchmark command prints fails here, not only in a benchmark run.  The
commands' argv are those of perfbench/run.py; only the digest file is read
from perfbench/."""

import hashlib
import json
from pathlib import Path

import pytest

from prelie import cli

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "digests.json"

FIXED = {
    "tree-table": ["trees", "--max-order", "12"],
    "magnus-check": ["series", "--which", "magnus", "--order", "6", "--check"],
    "coproduct-check": ["verify", "--suite", "forest", "--max-order", "7"],
}


@pytest.mark.parametrize("command", sorted(FIXED))
def test_fixed_benchmark_command_prints_its_recorded_digest(command, capsys):
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))[command]
    assert cli.main(FIXED[command]) == 0
    out = capsys.readouterr().out
    assert out  # the digest of an empty stdout would say nothing
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want, command
