"""Every output family of `tools/output_digest.py` matches its pinned digest.

`tests/data/output_digest.txt` holds the script's lines for the current
outputs: reports, verdicts, scans, witnesses, the Lefschetz chain, the
slice CSVs and values, and the text of three CLI commands.  A change that
moves an output on purpose replaces that family's line with the one
`python3 tools/output_digest.py` prints after it.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PINNED = dict(
    reversed(line.split())
    for line in (ROOT / "tests" / "data" / "output_digest.txt").read_text().splitlines()
)


@pytest.fixture(scope="module")
def tool():
    # the script keeps bytecode out of the checkout and puts `src` on the
    # path when it loads; undo both for the other tests
    saved = sys.dont_write_bytecode, list(sys.path)
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    return module


def test_every_family_is_pinned(tool):
    assert [name for name, _ in tool.FAMILIES] == list(PINNED)


@pytest.mark.parametrize("family", list(PINNED))
def test_family_output_is_pinned(tool, family):
    outputs = dict(tool.FAMILIES)[family]
    assert tool.family_digest(outputs) == PINNED[family], (
        f"the {family} outputs changed; if that is intended, pin the new line "
        f"of `python3 tools/output_digest.py` in tests/data/output_digest.txt"
    )


def test_named_families_only(tool, capsys):
    assert tool.main(["cli.noncusp", "chain"]) == 0
    # in the script's order, whatever the order named
    assert capsys.readouterr().out == "".join(
        f"{PINNED[name]}  {name}\n" for name in ("chain", "cli.noncusp"))


def test_unknown_family_lists_the_valid_ones(tool, capsys):
    assert tool.main(["chain", "scan"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"unknown family: scan\nfamilies: {' '.join(PINNED)}\n"
