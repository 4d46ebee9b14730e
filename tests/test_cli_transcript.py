"""Golden CLI transcript: exact stdout, stderr and exit code per argv.

Each case runs ``cli.main`` in a directory that holds the README toy file
(``toy.params``) and a file that fails validation (``bad.params``), so
the bytes carry no temporary path.  Usage errors include argparse's usage
line, which is wrapped at the 80 columns set here.  A deliberate change
of a command's output rewrites the transcript with

    PYTHONPATH=src python tests/test_cli_transcript.py

and the diff of ``tests/cli_transcript.json`` shows what changed.
"""

import contextlib
import io
import json
import os
import pathlib

from truncrack.cli import main

TRANSCRIPT = pathlib.Path(__file__).with_name("cli_transcript.json")

FILES = {
    "toy.params": "l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n",
    "bad.params": "l=13\nm=14\np=22\nq=5\nr=2\nz=5\n",
}

_ATTACK = ["attack", "--params", "toy.params"]
_BAD_SHAPE = ["--l", "16", "--m", "16", "--q", "14", "--r", "4"]
_TOY_SHAPE = ["--l", "13", "--m", "14", "--q", "5", "--r", "2"]
_ORACLE = ["oracle", "--z", "6173", "--p", "22", "--q", "5"]

ARGVS = [
    [*_ATTACK, "--token", "22131"],
    [*_ATTACK, "--token", "0"],
    [*_ATTACK, "--token", "131071"],
    [*_ATTACK, "--token", "131072"],
    [*_ATTACK, "--token", "708192", "--token-scaled"],
    [*_ATTACK, "--token", "708193", "--token-scaled"],
    [*_ATTACK, "--token", "4194304", "--token-scaled"],
    [*_ATTACK, "--token", "22131", "--m", "3"],
    [*_ATTACK, "--token", "22131", "--m", "20"],
    [*_ATTACK, "--token", "22131", "--m", "40"],
    [*_ATTACK, "--token", "22131", "--m", "4096"],
    [*_ATTACK, "--token", "22131", "--m", "0"],
    [*_ATTACK, "--token", "22131", "--other-token", "124172"],
    [*_ATTACK, "--token", "31370", "--other-token", "94914", "--m", "20"],
    [*_ATTACK, "--token", "22131", "--other-token", "131072"],
    [*_ATTACK, "--token", "22131", "--other-token", "99999999999"],
    [*_ATTACK, "--token", "131072", "--other-token", "131072"],
    [*_ATTACK, "--token", "708193", "--token-scaled", "--other-token", "131072"],
    [*_ATTACK, "--token", "3", "--token-scaled", "--m", "0"],
    [*_ATTACK, "--token", "3", "--token-scaled", "--m", "0", "--other-token", "1"],
    [*_ATTACK, "--token", "12a"],
    [*_ATTACK, "--token", "9" * 5000],
    ["attack", "--params", "missing.params", "--token", "1"],
    ["attack", "--params", "bad.params", "--token", "1"],
    [*_ORACLE, "--u", "22131", "--m", "14"],
    [*_ORACLE, "--u", "131072", "--m", "14"],
    ["oracle", "--z", "6173", "--p", "5", "--q", "5", "--u", "0", "--m", "14"],
    [*_ORACLE, "--u", "22131", "--m", "25"],
    ["params", *_TOY_SHAPE, "--seed", "1"],
    ["params", *_TOY_SHAPE],
    ["params", *_BAD_SHAPE],
    ["params", *_BAD_SHAPE, "--seed", "1"],
    ["exchange", "--params", "toy.params", "--seed", "1"],
    ["exchange", "--params", "missing.params", "--seed", "1"],
    ["exchange", "--params", "bad.params", "--seed", "1"],
]


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _write_files(directory):
    for name, text in FILES.items():
        (directory / name).write_text(text)


def test_transcript_unchanged(tmp_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    _write_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    expected = json.loads(TRANSCRIPT.read_text(encoding="utf-8"))
    assert [case["argv"] for case in expected] == ARGVS
    for case in expected:
        assert run_case(case["argv"]) == case


if __name__ == "__main__":
    import tempfile

    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as directory:
        here = os.getcwd()
        _write_files(pathlib.Path(directory))
        os.chdir(directory)
        cases = [run_case(argv) for argv in ARGVS]
        os.chdir(here)
    TRANSCRIPT.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
