"""Golden transcript of the command-line tool.

Runs every subcommand on the quartic-gap family, the golden instances, the
mutation instances and a few hostile inputs, and compares exit code, stdout
and stderr byte for byte against ``tests/golden/cli_transcript.txt``.

Commands run in process through ``toricmld.cli.main``.  The instance
directory is masked as ``<tmp>``.  Warnings are written to stderr as
``Category: message`` (without the source location), and an exception that
escapes ``main`` is recorded the way the interpreter reports it, exit 1 and
the last traceback line, with the frames masked.

Regenerate the golden after a deliberate output change with

    PYTHONPATH=src python tests/test_cli_transcript.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from toricmld.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"


def _family_doc(l):
    r = l**4 + 1
    return {
        "kind": "mfs",
        "m": 2,
        "n": 2,
        "fiber_rays": [[1, 0], [-(l - 1), 1], [-(l - 1), -1]],
        "base_multiples": [1, 1],
        "extra_generators": [[f"{l}/{r}", f"{l * l}/{r}", f"1/{r}", f"1/{r}"]],
    }


def _line_doc(**fields):
    doc = {"kind": "mfs", "m": 1, "n": 1, "fiber_rays": [[1], [-1]],
           "base_multiples": [1], "extra_generators": []}
    doc.update(fields)
    return doc


def _instances() -> dict:
    docs = {f"fam{l}": _family_doc(l) for l in range(2, 7)}
    docs["q17"] = {
        "kind": "toric", "dim": 2, "lattice_generators": [["1/17", "1/17"]],
        "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]],
    }
    docs["a3"] = {
        "kind": "toric", "dim": 3, "lattice_generators": [],
        "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "max_cones": [[0, 1, 2]],
    }
    docs["shifted"] = dict(_family_doc(2), fiber_rays=[[1, 0], [0, 1], [1, 1]])
    docs["sixrays"] = dict(
        _family_doc(2),
        rays=[["1", "0", "0", "0"], ["-1", "1", "0", "0"], ["-1", "-1", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"], ["1", "1", "0", "0"]],
        max_cones=[[1, 2, 3, 4], [0, 2, 3, 4], [0, 1, 3, 4], [5, 0, 3, 4]],
    )
    docs["nonsurj"] = _line_doc(base_multiples=[2])
    docs["maxcones"] = dict(_family_doc(2), max_cones=[[1, 2, 3, 4], [0, 2, 3, 4]])
    docs["nonprim"] = dict(_family_doc(2), fiber_rays=[[2, 0], [-1, 1], [-1, -1]])
    docs["mult0"] = _line_doc(base_multiples=[0])
    docs["mult11"] = _line_doc(base_multiples=[1, 1])
    docs["multneg"] = _line_doc(base_multiples=[-2])
    docs["m0"] = _line_doc(m=0)
    return docs


def _commands() -> list[list[str]]:
    commands = []
    for name in _instances():
        path = f"<tmp>/{name}.json"
        commands += [
            ["mld", path],
            ["mld", path, "--json", "--brute-force"],
            ["validate", path],
            ["witness", path],
            ["witness", path, "--delta", "1/1000000"],
            ["check", path],
        ]
    commands.append(["witness", "<tmp>/fam2.json", "--delta", "1/0"])
    for l in (2, 3, 4, 5, 7):
        commands.append(["family", "--l", str(l)])
        commands.append(["family", "--l", str(l), "--emit", "json"])
    commands.append(["family", "--l", "1"])
    commands.append(["sweep", "--l-min", "2", "--l-max", "6"])
    commands.append(["sweep", "--l-min", "5", "--l-max", "3"])
    return commands


def _run(argv: list[str], tmp: str) -> str:
    out, err = io.StringIO(), io.StringIO()

    def show(message, category, filename, lineno, file=None, line=None):
        err.write(f"{category.__name__}: {message}\n")

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        try:
            code = main([a.replace("<tmp>", tmp) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded as the interpreter would report it
            code = 1
            err.write(f"Traceback (most recent call last):\n  ...\n"
                      f"{type(exc).__name__}: {exc}\n")
    return (
        f"=== toricmld {' '.join(argv)}\n"
        f"--- exit {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    ).replace(tmp, "<tmp>")


def transcript() -> str:
    saved = os.environ.pop("TORICMLD_GUARD", None)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, doc in _instances().items():
                Path(tmp, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
            return "".join(_run(argv, tmp) for argv in _commands())
    finally:
        if saved is not None:
            os.environ["TORICMLD_GUARD"] = saved


def _entries(text: str) -> dict:
    chunks = text.split("=== ")[1:]
    return {c.split("\n", 1)[0]: c for c in chunks}


def test_cli_transcript_matches_golden():
    got = _entries(transcript())
    want = _entries(GOLDEN.read_text(encoding="utf-8"))
    assert list(got) == list(want), "the command list differs from the golden"
    changed = [cmd for cmd in want if got[cmd] != want[cmd]]
    assert not changed, "transcript differs for:\n" + "\n".join(
        f"{cmd}\n  golden: {want[cmd]!r}\n  now:    {got[cmd]!r}" for cmd in changed
    )


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript(), encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
