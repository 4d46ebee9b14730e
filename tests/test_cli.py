import pytest

from truncrack.cli import main
from truncrack.protocol import load_params


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
