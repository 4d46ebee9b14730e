import collections
import contextlib
import io
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncrack.attack
import truncrack.protocol
from truncrack.cli import _build_parser, main
from truncrack.errors import echo_text
from truncrack.harness import MODES
from truncrack.protocol import load_params, shared_key


@pytest.fixture
def toy_params_file(tmp_path):
    path = tmp_path / "toy.params"
    rc = main(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
               "--seed", "1", "--out", str(path)])
    assert rc == 0
    return str(path)


class TestParamsCommand:
    def test_writes_file_and_summary(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        rc = main(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                   "--seed", "1", "--out", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == "p=22 class=toy\n"
        params = load_params(str(path))
        assert params.p == 22 and params.l == 13

    def test_stdout_when_no_out(self, capsys):
        rc = main(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2", "--seed", "1"])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("l=13\n")
        assert "p=22 class=toy" in captured.err

    def test_constraint_violation_exit_2(self, capsys):
        rc = main(["params", "--l", "16", "--m", "16", "--q", "14", "--r", "4"])
        assert rc == 2
        assert "p>m+q+r" in capsys.readouterr().err

    def test_full_scale_classification(self, tmp_path, capsys):
        path = tmp_path / "full.params"
        rc = main(["params", "--l", "2048", "--m", "512", "--q", "512", "--r", "129",
                   "--seed", "7", "--out", str(path)])
        assert rc == 0
        assert capsys.readouterr().out == "p=2048 class=full\n"

    def test_seed_required_for_generation(self, capsys):
        rc = main(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2"])
        assert rc == 2
        assert "--seed" in capsys.readouterr().err

    def test_serialise_failure_keeps_out_file(self, tmp_path, capsys):
        # a 16000-bit z has more than 4,300 decimal digits, Python's
        # int-to-string limit, so serialising fails
        path = tmp_path / "big.params"
        path.write_text("keep me\n")
        rc = main(["params", "--l", "16000", "--m", "512", "--q", "512", "--r", "129",
                   "--seed", "1", "--out", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert path.read_text() == "keep me\n"

    def test_hex_rejected(self, capsys):
        rc = main(["params", "--l", "0xd", "--m", "14", "--q", "5", "--r", "2", "--seed", "1"])
        assert rc == 2


class TestExchangeCommand:
    def test_deterministic_stdout(self, toy_params_file, capsys):
        rc = main(["exchange", "--params", toy_params_file, "--seed", "1"])
        assert rc == 0
        first = capsys.readouterr().out
        rc = main(["exchange", "--params", toy_params_file, "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out == first
        lines = first.splitlines()
        assert [line.split("=")[0] for line in lines] == [
            "x", "y", "U", "V", "W_a", "W_b", "agree"
        ]

    def test_seed_required(self, toy_params_file):
        assert main(["exchange", "--params", toy_params_file]) == 2

    def test_missing_file(self, capsys):
        assert main(["exchange", "--params", "/nonexistent", "--seed", "1"]) == 2


def _main_without_digit_limit(args):
    """main on the arguments as decimal strings, with CPython's default
    limit of 4,300 digits on int-to-str conversion lifted around the call,
    so that the parser takes an integer like 2^20000 (6,021 digits)."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return main([str(arg) for arg in args])
    finally:
        sys.set_int_max_str_digits(limit)


class TestAttackCommand:
    def test_golden_scaled_token(self, tmp_path, capsys):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "708192",
                   "--token-scaled", "--m", "14"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "x=12345 y=21" in out
        assert "unique=1" in out

    def test_scaled_and_plain_tokens_agree(self, tmp_path, capsys):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        assert main(["attack", "--params", str(path), "--token", "708192", "--token-scaled"]) == 0
        scaled = capsys.readouterr().out
        assert main(["attack", "--params", str(path), "--token", "22131"]) == 0
        assert capsys.readouterr().out == scaled == "x=12345 y=21\nunique=1\n"

    def test_m_defaults_to_file(self, tmp_path, capsys):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "22131"])
        assert rc == 0
        assert "x=12345 y=21" in capsys.readouterr().out

    def test_zero_token_flags_nonpositive(self, tmp_path, capsys):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "0"])
        assert rc == 0
        assert "x=0 y=0 flag=nonpositive" in capsys.readouterr().out

    def test_empty_preimage_exit_1(self, tmp_path, capsys):
        path = tmp_path / "t.params"
        path.write_text("l=10\nm=8\np=15\nq=3\nr=1\nz=677\n")
        rc = main(["attack", "--params", str(path), "--token", "1"])
        assert rc == 1
        captured = capsys.readouterr()
        assert "unique=0" in captured.out
        assert "no candidates" in captured.err

    def test_key_recovery(self, tmp_path, capsys):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "22131",
                   "--other-token", "124172"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "key=" in out and "candidates=1" in out

    @pytest.mark.parametrize("m", [12, 16, 20])
    def test_keys_use_the_file_key_map(self, tmp_path, capsys, m):
        # --m sets the search alone: each key= line counts the printed
        # candidates whose key under the file's key map (m = 14) it is.
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "31370",
                   "--other-token", "94914", "--m", str(m)])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        params = load_params(str(path))
        xs = [int(line.split()[0][2:]) for line in lines if line.startswith("x=")]
        counts = collections.Counter(shared_key(x, 94914, params) for x in xs)
        assert xs
        assert [line for line in lines if line.startswith("key=")] == [
            f"key={key} candidates={counts[key]}" for key in sorted(counts)
        ]

    @pytest.mark.parametrize(
        "token_args",
        [
            ["--token", "131072"],  # u = 2^(p-q)
            ["--token", "708193", "--token-scaled"],  # nonzero low q bits
        ],
    )
    def test_token_outside_image_exit_2(self, tmp_path, capsys, token_args):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), *token_args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "extra_args",
        [
            ["--other-token", "99999999999"],  # peer token >= 2^(p-q)
            ["--other-token", "131072"],  # peer token = 2^(p-q)
            ["--m", "0"],  # no secret space
        ],
    )
    def test_degenerate_attack_input_exit_2(self, tmp_path, capsys, extra_args):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "708192", "--token-scaled",
                   *extra_args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize("m, k", [(4096, 4079), (65536, 65519)])
    def test_box_cap_exit_3_with_short_message(self, tmp_path, capsys, m, k):
        # The box holds about area / det = 2^(m+q-p) = 2^(m-17) pairs: a
        # count of over a thousand digits at m = 4096, and more than
        # CPython converts to a string at m = 65536.  Both refuse with the
        # resource-cap code and a message that gives the size as a power
        # of two.
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = main(["attack", "--params", str(path), "--token", "22131", "--m", str(m)])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: coefficient box holds about 2^{k} pairs (cap 1048576)\n"
        assert len(captured.err.encode()) < 200

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--token", 1 << 20000],
             "token must be in [0, 2^(p-q)) (p-q=17), got a 20001-bit integer"),
            (["--token", (1 << 20000) + 1, "--token-scaled"],
             "scaled token a 20001-bit integer is not a multiple of 2^q (q=5)"),
            (["--token", 1 << 20000, "--token-scaled"],
             "token must be in [0, 2^(p-q)) (p-q=17), got a 19996-bit integer"),
            (["--token", "22131", "--other-token", 1 << 20000],
             "peer token must be in [0, 2^(p-q)) (p-q=17), got a 20001-bit integer"),
            (["--token", "9" * 4300],
             "token must be in [0, 2^(p-q)) (p-q=17), got a 14285-bit integer"),
            (["--token", "9" * 4300, "--token-scaled"],
             "scaled token a 14285-bit integer is not a multiple of 2^q (q=5)"),
        ],
    )
    def test_huge_token_exit_2_with_short_message(self, tmp_path, capsys, args, message):
        # 2^20000 has 6,021 digits; the message gives its bit length.  A
        # 4,300-digit token, the longest the default limit parses, used to
        # print in full.
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        rc = _main_without_digit_limit(["attack", "--params", str(path), *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_invalid_params_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "z.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=5\n")
        rc = main(["attack", "--params", str(path), "--token", "22131"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "constraint violated: 2^(l-1)<=z<2^l" in captured.err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.params"
        path.write_text("l=13\nm=14\nbogus=1\n")
        assert main(["attack", "--params", str(path), "--token", "1"]) == 2


class TestOracleCommand:
    def test_worked_instance(self, capsys):
        rc = main(["oracle", "--z", "6173", "--p", "22", "--q", "5",
                   "--u", "22131", "--m", "14"])
        assert rc == 0
        assert capsys.readouterr().out == "12345\n"

    @pytest.mark.parametrize(
        "args",
        [
            ["--z", "6173", "--p", "0", "--q", "5", "--u", "1", "--m", "3"],  # p <= q
            ["--z", "0", "--p", "22", "--q", "5", "--u", "1", "--m", "3"],  # z = 0
            ["--z", "6173", "--p", "22", "--q", "30", "--u", "1", "--m", "3"],  # p <= q
            ["--z", "6173", "--p", "22", "--q", "5", "--u", "131072", "--m", "3"],  # u = 2^(p-q)
            ["--z", "6173", "--p", "22", "--q", "5", "--u", "1", "--m", "0"],  # m = 0
        ],
    )
    def test_rejects_what_the_attack_rejects(self, capsys, args):
        rc = main(["oracle", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--z", "6173", "--p", "22", "--q", 1 << 20000, "--u", "1", "--m", "3"],
             "p must exceed q, got p=22 q=a 20001-bit integer"),
            (["--z", "6173", "--p", "22", "--q", "5", "--u", 1 << 20000, "--m", "3"],
             "token must be in [0, 2^(p-q)) (p-q=17), got a 20001-bit integer"),
            (["--z", "6173", "--p", "22", "--q", "5", "--u", "1", "--m", 1 << 20000],
             "oracle limited to m <= 24, got m=a 20001-bit integer"),
        ],
    )
    def test_huge_value_exit_2_with_short_message(self, capsys, args, message):
        rc = _main_without_digit_limit(["oracle", *args])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_guard_exit_2(self, capsys):
        rc = main(["oracle", "--z", "3", "--p", "30", "--q", "1", "--u", "1", "--m", "25"])
        assert rc == 2


class TestBenchCommand:
    def test_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        rc = main(["bench", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                   "--trials", "5", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("seed,l,m,p,q,r,")

    def test_seed_required(self, tmp_path):
        rc = main(["bench", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                   "--trials", "5", "--out", str(tmp_path / "r.csv")])
        assert rc == 2

    def test_constraint_violation_exit_2(self, tmp_path, capsys):
        rc = main(["bench", "--l", "16", "--m", "16", "--q", "14", "--r", "4",
                   "--trials", "1", "--seed", "1", "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "p>m+q+r" in capsys.readouterr().err

    def test_oracle_check_mode(self, tmp_path):
        out = tmp_path / "oc.csv"
        rc = main(["bench", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                   "--trials", "3", "--seed", "1", "--mode", "oracle-check",
                   "--out", str(out)])
        assert rc == 0
        for line in out.read_text().splitlines()[1:]:
            assert line.endswith(",")  # empty error column

    def test_oracle_check_zero_tokens_with_m_below_q(self, tmp_path):
        # m < q: the exchanges with token 0 (seeds 416, 467, 614, 627 among
        # these) must recover the secret and match the unfiltered oracle.
        out = tmp_path / "oc.csv"
        rc = main(["bench", "--l", "13", "--m", "3", "--q", "5", "--r", "1",
                   "--trials", "700", "--seed", "0", "--mode", "oracle-check",
                   "--out", str(out)])
        assert rc == 0
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 700
        for row in map(dict, (zip(header, row) for row in rows)):
            assert (row["error"], row["secret_recovered"]) == ("", "1"), row["seed"]

    def test_full_scale_rows(self, tmp_path):
        out = tmp_path / "full.csv"
        rc = main(["bench", "--l", "2048", "--m", "512", "--q", "512", "--r", "129",
                   "--trials", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        assert all(line.split(",")[7] == "1" for line in lines[1:])  # preimage_found


class TestUsage:
    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 2

    def test_no_subcommand(self):
        assert main([]) == 2

    def test_parser_built_once(self, tmp_path, capsys):
        # One parser serves every call; an option given to one call does
        # not carry over to the next.
        path = tmp_path / "t.params"
        path.write_text("l=10\nm=8\np=15\nq=3\nr=1\nz=677\n")
        assert main(["attack", "--params", str(path), "--token", "0", "--m", "0"]) == 2
        assert main(["attack", "--params", str(path), "--token", "0"]) == 0
        assert _build_parser() is _build_parser()


# Each option that takes a decimal, with the value as the last argument.
_DECIMAL_OPTIONS = {
    "attack --token": ["attack", "--params", "toy.params", "--token"],
    "attack --other-token": ["attack", "--params", "toy.params", "--token", "1",
                             "--other-token"],
    "params --l": ["params", "--m", "14", "--q", "5", "--r", "2", "--l"],
    "bench --trials": ["bench", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                       "--seed", "1", "--out", "out.csv", "--trials"],
    "oracle --u": ["oracle", "--z", "6173", "--p", "22", "--q", "5", "--m", "14", "--u"],
}


class TestArgumentEcho:
    @pytest.mark.parametrize("option", sorted(_DECIMAL_OPTIONS))
    @pytest.mark.parametrize("length", [5000, 50000])
    @pytest.mark.parametrize("tail", ["9", "a"])
    def test_long_value_usage_error_stays_short(self, tmp_path, monkeypatch, capsys,
                                                option, length, tail):
        # All digits past CPython's 4,300-digit limit, or digits ending in
        # a letter: either way a usage error that shows 20 characters.
        monkeypatch.chdir(tmp_path)
        value = "9" * (length - 1) + tail
        assert main([*_DECIMAL_OPTIONS[option], value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.encode()) < 512
        assert f"got '{'9' * 20}'... ({length} characters)" in captured.err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("value", ["12a", "x" * 40, "", "-1", "0x10"])
    def test_short_value_shown_in_full(self, capsys, value):
        assert main(["oracle", "--z", "6173", "--p", "22", "--q", "5", "--m", "14",
                     "--u", value]) == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument --u: expected a decimal integer, got {value!r}\n"
        )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("bogus=1", "unknown key 'bogus'"),
            ("k" * 40 + "=1", f"unknown key {'k' * 40!r}"),
            ("k" * 41 + "=1", f"unknown key {'k' * 20!r}... (41 characters)"),
            ("k" * 5000 + "=1", f"unknown key {'k' * 20!r}... (5000 characters)"),
            ("l = 13", "malformed parameter line 'l = 13'"),
            ("x" * 40, f"malformed parameter line {'x' * 40!r}"),
            ("l = " + "1" * 4996,
             f"malformed parameter line {'l = ' + '1' * 16!r}... (5000 characters)"),
        ],
        ids=["key", "key-40", "key-41", "key-5000", "line", "line-40", "line-5000"],
    )
    def test_params_line_echo(self, tmp_path, capsys, line, message):
        # Up to 40 characters exactly as before; past that, short.
        path = tmp_path / "bad.params"
        path.write_text(f"l=13\nm=14\n{line}\n")
        assert main(["exchange", "--params", str(path), "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: line 3: {message}\n"
        assert len(captured.err.encode()) < 512

    @pytest.mark.parametrize(
        "path, shown",
        [
            ("missing.params", "'missing.params'"),
            ("m" * 40, repr("m" * 40)),
            ("m" * 41, f"{'m' * 20!r}... (41 characters)"),
            ("a" * 5000, f"{'a' * 20!r}... (5000 characters)"),
            ("a" * 50000, f"{'a' * 20!r}... (50000 characters)"),
        ],
        ids=["missing", "40", "41", "5000", "50000"],
    )
    def test_params_path_echo(self, tmp_path, monkeypatch, capsys, path, shown):
        # A long path fails as too long, not as missing: same echo rule.
        monkeypatch.chdir(tmp_path)
        assert main(["exchange", "--params", path, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: [Errno ")
        assert captured.err.endswith(f": {shown}\n")
        assert len(captured.err.encode()) < 512


    @pytest.mark.parametrize(
        "prefix, message",
        [
            (["bench", "--l", "13", "--m", "14", "--q", "5", "--r", "2", "--trials", "1",
              "--seed", "1", "--out", "out.csv", "--mode"],
             "truncrack bench: error: argument --mode: invalid choice: {} "
             "(choose from 'attack', 'exchange', 'oracle-check')"),
            ([], "truncrack: error: argument command: invalid choice: {} "
                 "(choose from 'params', 'exchange', 'attack', 'oracle', 'bench')"),
            (["oracle", "--z", "6173", "--p", "22", "--q", "5", "--m", "14", "--u", "1"],
             "truncrack: error: unrecognized arguments: {}"),
        ],
        ids=["mode", "command", "unrecognized"],
    )
    @pytest.mark.parametrize("length", [40, 41, 5000])
    def test_argparse_echo(self, tmp_path, monkeypatch, capsys, prefix, message, length):
        # argparse's own messages that echo user text follow echo_text's
        # rule: in full up to 40 characters, and past that, short.
        monkeypatch.chdir(tmp_path)
        value = "v" * length
        assert main([*prefix, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: truncrack")
        assert captured.err.endswith(message.format(echo_text(value)) + "\n")
        assert len(captured.err.encode()) < 512
        assert not (tmp_path / "out.csv").exists()

    def test_unrecognized_arguments_echoed_together(self, capsys):
        argv = ["oracle", "--z", "6173", "--p", "22", "--q", "5", "--m", "14", "--u", "1"]
        assert main([*argv, "a", "b"]) == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: 'a b'\n")
        assert main([*argv, *["w" * 30] * 200]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: unrecognized arguments: {'w' * 20!r}... (6199 characters)\n")


def _counted(monkeypatch, module, name):
    """Patch module.name to count its calls; return the list of calls."""
    calls = []
    original = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


class TestOneCheckPerInput:
    @pytest.mark.parametrize("peer", [[], ["--other-token", "124172"]])
    def test_attack_checks_the_deployment_once(self, tmp_path, monkeypatch, capsys, peer):
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        calls = _counted(monkeypatch, truncrack.attack, "check_observables")
        assert main(["attack", "--params", str(path), "--token", "22131", *peer]) == 0
        assert calls == [(6173, 22, 5, 14)]

    @pytest.mark.parametrize("seed", [[], ["--seed", "1"]])
    def test_params_checks_the_shape_once(self, monkeypatch, capsys, seed):
        calls = _counted(monkeypatch, truncrack.protocol, "check_shape")
        main(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2", *seed])
        assert calls == [(13, 14, 5, 2)]

    @pytest.mark.parametrize("peer", [[], ["--other-token", "1"]])
    def test_bad_deployment_is_the_first_error(self, tmp_path, capsys, peer):
        # --m 0 and a scaled token that is not a multiple of 2^q: the
        # deployment is checked first, whether or not a peer token is given.
        path = tmp_path / "g.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        assert main(["attack", "--params", str(path), "--token", "3", "--token-scaled",
                     "--m", "0", *peer]) == 2
        assert capsys.readouterr() == ("", "error: m must be at least 1, got 0\n")


# Fuzzing: every drawn value is bounded so that no call does more than
# toy-size work (numbers below 2^16, bit lengths at most 64, m at most 16
# for the attack and 12 wherever the oracle scans 2^m values, and bench
# with at most 2 trials at l <= 16).  No garbage value is all ASCII
# digits, so none of them can name a large size.
_NUMBER = st.integers(0, (1 << 16) - 1).map(str)
_GARBAGE = st.sampled_from(["", "-1", "0x10", "1.5", "1e3", " 7", "\uff11", "abc", "-", "--"])


def _small(top):
    return st.integers(0, top).map(str)


@st.composite
def _param_texts(draw):
    """Parameter-file text: mostly a small valid file, shuffled and often
    mutated; otherwise arbitrary text or bytes."""
    kind = draw(st.sampled_from(["file"] * 4 + ["text", "bytes"]))
    if kind == "text":
        return draw(st.text(st.characters(blacklist_categories=("Cs",)), max_size=60)).encode()
    if kind == "bytes":
        return draw(st.binary(max_size=60))
    q, r = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    l = draw(st.integers(2 * q + r + 1, 16))
    m = draw(st.integers(1, 16))
    values = {"l": l, "m": m, "p": l + m - q, "q": q, "r": r,
              "z": draw(st.integers(1 << (l - 1), (1 << l) - 1))}
    lines = draw(st.permutations([f"{key}={value}" for key, value in values.items()]))
    mutation = draw(st.sampled_from(["none"] * 3 + ["drop", "repeat", "revalue", "garbage"]))
    at = draw(st.integers(0, len(lines) - 1))
    if mutation == "drop":
        del lines[at]
    elif mutation == "repeat":
        lines.append(lines[at])
    elif mutation == "revalue":
        key = lines[at].split("=")[0]
        lines[at] = f"{key}={draw(_small(64) | _NUMBER | _GARBAGE)}"
    elif mutation == "garbage":
        lines.insert(at, draw(st.sampled_from(["bogus=1", "l = 13", "", "#", "z=-5", "=3"])))
    end = draw(st.sampled_from(["\n", "\r\n", ""]))
    return ("\n".join(lines) + end).encode()


def _command_options(params_paths, out_paths):
    """Each subcommand's options, None for a flag, else a value strategy.
    Small q and r are drawn often enough for the constraints to hold, and
    tokens are often multiples of 2^5, which --token-scaled needs on the
    q=5 toy file."""
    low = _small(4)
    token = _NUMBER | st.integers(0, 2047).map(lambda k: str(k << 5))
    return {
        "params": {"--l": _small(64), "--m": _small(64), "--q": low | _small(64),
                   "--r": low | _small(64), "--seed": _NUMBER, "--out": out_paths},
        "exchange": {"--params": params_paths, "--seed": _NUMBER},
        "attack": {"--params": params_paths, "--token": token, "--token-scaled": None,
                   "--m": _small(16), "--other-token": _NUMBER},
        "oracle": {"--z": _NUMBER, "--p": _NUMBER, "--q": _NUMBER, "--u": _NUMBER,
                   "--m": _small(12)},
        "bench": {"--l": _small(16), "--m": _small(12), "--q": low | _small(16),
                  "--r": low | _small(16), "--trials": _small(2), "--seed": _NUMBER,
                  "--out": out_paths, "--mode": st.sampled_from(MODES) | _GARBAGE},
    }


@st.composite
def _argvs(draw, params_paths, out_paths):
    """Mostly a subcommand with most of its options in random order, the
    odd one repeated, each with a bounded value or now and then a garbage
    one; sometimes a garbage command or a stray argument."""
    options = _command_options(params_paths, out_paths)
    if draw(st.integers(0, 9)):
        command = draw(st.sampled_from(sorted(options)))
    else:
        command = draw(_GARBAGE | st.just("--help"))
    spec = options.get(command, {})
    names = draw(st.permutations([name for name in spec if draw(st.integers(0, 9))]))
    if spec and not draw(st.integers(0, 4)):
        names.append(draw(st.sampled_from(sorted(spec))))
    argv = [command]
    for name in names:
        argv.append(name)
        if spec[name] is not None and draw(st.integers(0, 19)):
            argv.append(draw(spec[name] if draw(st.integers(0, 9)) else _GARBAGE))
    if not draw(st.integers(0, 9)):
        argv.insert(draw(st.integers(0, len(argv))), draw(_GARBAGE | _NUMBER | st.just("-h")))
    return argv


def _run_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_main_never_raises_on_fuzzed_argv(self, tmp_path_factory, data):
        tmp = tmp_path_factory.getbasetemp() / "argv"
        tmp.mkdir(exist_ok=True)
        good = tmp / "good.params"
        assert _run_quietly(["params", "--l", "13", "--m", "14", "--q", "5", "--r", "2",
                             "--seed", "1", "--out", str(good)]) == 0
        params_paths = st.sampled_from([str(good), str(tmp / "missing"), str(tmp)])
        out_paths = st.sampled_from([str(tmp / "out"), str(tmp), str(tmp / "no" / "dir")])
        argv = data.draw(_argvs(params_paths, out_paths))
        # A garbage --out value such as "-1" is a relative path: write it
        # into the test's tmp dir, not the working directory.
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            assert _run_quietly(argv) in (0, 1, 2, 3)
        finally:
            os.chdir(cwd)

    @settings(max_examples=300, deadline=None)
    @given(text=_param_texts(), command=st.sampled_from(["exchange", "attack", "attack-key"]),
           seed=st.integers(0, (1 << 16) - 1), token=st.integers(0, (1 << 16) - 1))
    def test_main_never_raises_on_fuzzed_params_file(self, tmp_path_factory, text, command,
                                                     seed, token):
        path = tmp_path_factory.getbasetemp() / "fuzzed.params"
        path.write_bytes(text)
        if command == "exchange":
            argv = ["exchange", "--params", str(path), "--seed", str(seed)]
        else:
            argv = ["attack", "--params", str(path), "--token", str(token)]
            if command == "attack-key":
                argv += ["--other-token", str(seed)]
        assert _run_quietly(argv) in (0, 1, 2, 3)
