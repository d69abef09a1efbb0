"""Pinned CLI output: stdout of every command under every ``--format``.

``golden/cli.json`` maps ``"<case>.<format>"`` to the exit code and the
exact stdout of that run; ``--output PATH`` must write the same bytes to
the file and nothing to stdout.  ``check`` and ``verify`` read the files
named in ``INPUTS``: the JSON that a pinned run printed, or a literal
hand-written file.

To rewrite the pinned file after a deliberate output change:

    PYTHONPATH=src python tests/test_cli_golden.py

It lists the keys it added, removed and changed (a changed key's exit
code or stdout differs from the pinned one), each under its own label, or
prints "no change".
"""

import csv
import io
import json
import pathlib
import sys

import pytest

from gaugekit.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli.json"
FORMATS = ("json", "csv", "human")
PI = "3.141592653589793"

CASES = {
    "partition-const": ["partition", "--gauge", "const:0.3", "--interval", "0", "1"],
    "partition-pw-bisect": ["partition", "--gauge", "pw:0:0.5,0.5:0.25",
                            "--interval", "0", "1", "--strategy", "bisect"],
    "partition-expr": ["partition", "--gauge", "expr:x/2+0.05", "--interval", "0", "1"],
    "partition-stall": ["partition", "--gauge", "const:1e-5", "--interval", "0", "1",
                        "--strategy", "creep", "--max-cells", "10"],
    # creep stalls at the cap, bisection fits 8 cells under it
    "partition-hybrid-capped": ["partition", "--gauge", "const:0.1", "--interval", "0", "1",
                                "--max-cells", "9"],
    "certify-bound": ["certify", "--f", "sin(x)", "--bound", "1.5", "--interval", "0", PI],
    "certify-below": ["certify", "--f", "x^2-2", "--no-root", "0", "--interval", "0", "1"],
    "certify-above": ["certify", "--f", "x", "--no-root", "-1e-3", "--interval", "0", "1"],
    "certify-violated": ["certify", "--f", "sin(x)", "--bound", "0.9",
                         "--interval", "0", "3.14159"],
    "certify-stall": ["certify", "--f", "x^2-2", "--no-root", "0", "--interval", "1", "2"],
    "certify-bound-stall": ["certify", "--f", "x", "--bound", "1.0000000000001",
                            "--interval", "0", "1"],
    "certify-hit": ["certify", "--f", "x", "--no-root", "0", "--interval", "0", "1"],
    "check-ok": ["check", "--partition", "{partition}", "--gauge", "const:0.3"],
    "check-unfine": ["check", "--partition", "{partition}", "--gauge", "const:0.2"],
    "check-broken": ["check", "--partition", "{broken}", "--gauge", "const:0.3"],
    "verify-ok": ["verify", "--certificate", "{certificate}", "--f", "sin(x)"],
    "verify-above": ["verify", "--certificate", "{above}", "--f", "x"],
    "verify-unordered": ["verify", "--certificate", "{unordered}", "--f", "sin(x)"],
    "root": ["root", "--f", "x^2-2", "--y", "0", "--interval", "1", "2"],
    "root-no-sign-change": ["root", "--f", "x^2+1", "--interval", "-1", "1"],
    "extremum": ["extremum", "--max", "--f", "sin(x)", "--interval", "0", PI,
                 "--tol", "1e-4"],
}

# A hand-written partition that breaks every structural rule: the domain's
# endpoints are missed at both ends, cell 2 has zero width, cell 3's tag lies
# outside it, cells 3 and 4 leave a gap, and the -0.0/0.0 junction between
# cells 0 and 1 is contiguous.
BROKEN_PARTITION = """\
{"domain": {"lo": -1, "hi": 2}, "cells": [
  {"lo": -0.5, "hi": -0.0, "tag": -0.25},
  {"lo": 0.0, "hi": 0.25, "tag": 0.125},
  {"lo": 0.25, "hi": 0.25, "tag": 0.25},
  {"lo": 0.25, "hi": 0.5, "tag": 0.75},
  {"lo": 0.625, "hi": 1.5, "tag": 1}
]}
"""

# The pieces of certify-bound in reverse order: each piece holds on its own,
# but they do not tile the domain left to right.
UNORDERED_CERTIFICATE = """\
{"kind": "bound", "target": 1.5, "side": "below", "pieces": [
  {"lo": 3.100781591834415, "hi": 3.141592653589793, "s": 3.100781591834415,
   "fs": 0.04079973393735118, "delta": 0.7296001330313244},
  {"lo": 2.605969920831187, "hi": 3.100781591834415, "s": 2.605969920831187,
   "fs": 0.5103766579935445, "delta": 0.49481167100322776},
  {"lo": 2.2461978953658654, "hi": 2.605969920831187, "s": 2.2461978953658654,
   "fs": 0.7804559490693572, "delta": 0.3597720254653214},
  {"lo": 1.9589942403835257, "hi": 2.2461978953658654, "s": 1.9589942403835257,
   "fs": 0.9255926900353205, "delta": 0.28720365498233974},
  {"lo": 1.7045297434752853, "hi": 1.9589942403835257, "s": 1.7045297434752853,
   "fs": 0.9910710061835195, "delta": 0.25446449690824025},
  {"lo": 1.4509428248799097, "hi": 1.7045297434752853, "s": 1.4509428248799097,
   "fs": 0.992826162809249, "delta": 0.2535869185953755},
  {"lo": 1.159180619988333, "hi": 1.4509428248799097, "s": 1.159180619988333,
   "fs": 0.9164755902168467, "delta": 0.29176220489157667},
  {"lo": 0.75, "hi": 1.159180619988333, "s": 0.75,
   "fs": 0.6816387600233341, "delta": 0.40918061998833294},
  {"lo": 0.0, "hi": 0.75, "s": 0.0, "fs": 0.0, "delta": 0.75}
]}
"""

# input file name -> the case whose JSON stdout it holds, or a literal file
INPUTS = {"partition": "partition-const", "certificate": "certify-bound",
          "above": "certify-above", "broken": BROKEN_PARTITION,
          "unordered": UNORDERED_CERTIFICATE}


def _input_text(source: str, outputs: dict) -> str:
    """The file ``source`` names: a case's pinned JSON stdout, or itself."""
    return outputs[f"{source}.json"]["stdout"] if source in CASES else source


def _argv(case: str, fmt: str, inputs: dict[str, str]) -> list[str]:
    return [a.format(**inputs) for a in CASES[case]] + ["--format", fmt]


def _run(capsys, argv) -> tuple[int, str]:
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture
def inputs(golden, tmp_path) -> dict[str, str]:
    out = {}
    for key, source in INPUTS.items():
        path = tmp_path / f"{key}.json"
        path.write_text(_input_text(source, golden))
        out[key] = str(path)
    return out


def test_every_case_is_pinned(golden):
    assert set(golden) == {f"{c}.{f}" for c in CASES for f in FORMATS}


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches(capsys, golden, inputs, case, fmt):
    want = golden[f"{case}.{fmt}"]
    code, out = _run(capsys, _argv(case, fmt, inputs))
    assert code == want["exit"]
    assert out == want["stdout"]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_file_matches(capsys, golden, inputs, tmp_path, case, fmt):
    want = golden[f"{case}.{fmt}"]
    path = tmp_path / "out"
    code, out = _run(capsys, _argv(case, fmt, inputs) + ["--output", str(path)])
    assert code == want["exit"]
    assert out == ""
    assert path.read_bytes() == want["stdout"].encode()


def test_csv_rows_match_header(golden):
    ragged = []
    for key, want in golden.items():
        if key.endswith(".csv"):
            rows = list(csv.reader(io.StringIO(want["stdout"])))
            if not rows or any(len(row) != len(rows[0]) for row in rows):
                ragged.append(key)
    assert ragged == []


def _report(old: dict, new: dict) -> str:
    """The keys ``new`` added to ``old``, removed from it and changed in it,
    each group under its own label, or "no change"."""
    groups = {
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
        "changed": sorted(k for k in new.keys() & old.keys() if new[k] != old[k]),
    }
    lines = []
    for label, keys in groups.items():
        if keys:
            lines += [f"{label}:"] + [f"  {k}" for k in keys]
    return "\n".join(lines) if lines else "no change"


def test_report_labels_each_kind_of_change():
    old = {"a.json": {"exit": 0, "stdout": "x"}, "b.json": {"exit": 0, "stdout": "y"},
           "c.json": {"exit": 1, "stdout": ""}}
    new = {"a.json": {"exit": 0, "stdout": "x"}, "b.json": {"exit": 0, "stdout": "z"},
           "d.json": {"exit": 0, "stdout": ""}, "e.json": {"exit": 0, "stdout": ""}}
    assert _report(old, new) == "added:\n  d.json\n  e.json\nremoved:\n  c.json\nchanged:\n  b.json"
    assert _report(new, new) == "no change"


def _regenerate():
    import contextlib
    import tempfile

    pinned: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {key: f"{tmp}/{key}.json" for key in INPUTS}
        for key, source in INPUTS.items():
            if source not in CASES:
                pathlib.Path(inputs[key]).write_text(source)
        # the cases that check and verify read come first
        first = [s for s in INPUTS.values() if s in CASES]
        for case in first + [c for c in CASES if c not in first]:
            for fmt in FORMATS:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = main(_argv(case, fmt, inputs))
                pinned[f"{case}.{fmt}"] = {"exit": code, "stdout": buf.getvalue()}
            for key, source in INPUTS.items():
                if case == source:
                    pathlib.Path(inputs[key]).write_text(pinned[f"{case}.json"]["stdout"])
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print(_report(old, pinned))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(dict(sorted(pinned.items())), indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(_regenerate())
