"""tools/cli_digest.py: the comparison names the parts of a command that
differ, and the JSON map holds one hash per command."""

import hashlib
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def cli_digest(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    return importlib.import_module("cli_digest")


def parts(cli_digest, **changed):
    base = {"exit code": "0", "stdout": "out\n", "stderr": "", "warnings": "",
            "files": "f" * 64}
    assert set(changed) <= set(cli_digest.PARTS)
    return {**base, **changed}


def test_compare_names_the_parts_that_differ(cli_digest, capsys):
    this = {"setup": "a" * 64, "same": parts(cli_digest),
            "audit": parts(cli_digest, stdout="3.220e-15\n", files="e" * 64),
            "evolve": parts(cli_digest), "only here": parts(cli_digest)}
    other = {"setup": "b" * 64, "same": parts(cli_digest),
             "audit": parts(cli_digest, stdout="3.109e-15\n"),
             "evolve": parts(cli_digest, warnings="UserWarning: w\n"),
             "only there": parts(cli_digest)}
    assert cli_digest.compare(this, other) == 5
    assert capsys.readouterr().out.splitlines() == [
        "differs: audit [stdout, files]",
        "differs: evolve [warnings]",
        "differs: setup",
        "only in this tree: only here",
        "only in the other: only there",
        "1 identical, 3 differ, 2 in one map only",
    ]


def test_the_map_holds_one_hash_per_command(cli_digest):
    # each part, in PARTS order, closed by a NUL byte: the format of every
    # map written so far
    whole = hashlib.sha256(b"0\0out\n\0\0\0" + b"f" * 64 + b"\0").hexdigest()
    assert cli_digest.hashes({"setup": "a" * 64, "cmd": parts(cli_digest)}) == {
        "setup": "a" * 64, "cmd": whole}


def test_warned_counts_the_commands_that_raised_a_warning(cli_digest):
    result = {"setup": "a" * 64, "silent": parts(cli_digest),
              "warns": parts(cli_digest, warnings="RuntimeWarning: overflow\n")}
    assert cli_digest.warned(result) == 1
