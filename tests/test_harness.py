import pytest

from truncrack import (
    ConstraintViolated,
    InvalidArgument,
    OracleTooLarge,
    TrialConfig,
    brute_force_preimages,
    format_csv,
    run_trials,
)
from truncrack import harness
from truncrack.harness import CSV_COLUMNS
from truncrack.protocol import exchange, gen_params

TOY_CFG = dict(l=13, m=14, q=5, r=2)


class TestBruteForceOracle:
    def test_worked_instance(self):
        assert brute_force_preimages(6173, 22, 5, 22131, 14) == [12345]

    def test_unreachable_token(self):
        # 2^(p-q) = 4096 = top + 1 lies outside the token map's whole range
        # [0, 2^(p-q)), not only past the tokens of the scanned x
        top = max(((x * 677) & ((1 << 15) - 1)) >> 3 for x in range(1 << 8))
        assert brute_force_preimages(677, 15, 3, top + 1, 8) == []

    def test_identity_map(self):
        # z=1, q=0, p >= m: the map is the identity on [0, 2^m)
        assert brute_force_preimages(1, 10, 0, 37, 8) == [37]
        assert brute_force_preimages(1, 10, 0, 300, 8) == []

    def test_guard(self):
        with pytest.raises(OracleTooLarge):
            brute_force_preimages(3, 30, 1, 1, 25)

    @pytest.mark.parametrize(
        "z, p, q, m",
        [
            (0, 22, 5, 3),  # z = 0
            (6173, 0, 5, 3),  # p <= q
            (6173, 22, 30, 3),  # p <= q
            (6173, 5, 5, 3),  # p == q: every x maps to the only token, 0
            (6173, 22, 5, 0),  # no secret space
        ],
    )
    def test_rejects_what_the_attack_rejects(self, z, p, q, m):
        with pytest.raises(InvalidArgument):
            brute_force_preimages(z, p, q, 0, m)

    def test_ascending(self):
        xs = brute_force_preimages(677, 15, 3, 0, 8)
        assert xs == sorted(xs)


class TestRunTrials:
    def test_seed_forces_known_secret(self):
        # seed 13882 makes the secret sampler draw x=12345 at m=14
        records = run_trials(TrialConfig(seed_base=13882, trials=1, **TOY_CFG))
        rec = records[0]
        assert rec.seed == 13882
        assert rec.preimage_found and rec.secret_recovered
        assert rec.error == ""
        assert rec.p == 22

    def test_records_in_seed_order(self):
        records = run_trials(TrialConfig(seed_base=5, trials=8, **TOY_CFG))
        assert [r.seed for r in records] == list(range(5, 13))

    def test_secret_recovered_implies_preimage_found(self):
        records = run_trials(TrialConfig(seed_base=0, trials=50, **TOY_CFG))
        for rec in records:
            assert not rec.secret_recovered or rec.preimage_found
            assert rec.candidate_count >= rec.preimage_found

    def test_oracle_check_mode_all_clean(self):
        cfg = TrialConfig(seed_base=0, trials=25, mode="oracle-check", **TOY_CFG)
        records = run_trials(cfg)
        assert all(rec.error == "" for rec in records)

    def test_oracle_check_mode_guard_lands_in_record(self):
        cfg = TrialConfig(seed_base=0, trials=2, l=30, m=25, q=2, r=2, mode="oracle-check")
        records = run_trials(cfg)
        assert len(records) == 2  # the batch never aborts
        assert all("OracleTooLarge" in rec.error for rec in records)

    def test_oracle_check_mismatch_keeps_attack_columns(self, monkeypatch):
        # An attack that answers x = 1 and 2 whatever the token: the oracle
        # disagrees, the error column says how, and the record keeps the
        # columns of the attack it checked.
        class Wrong(harness.Attacker):
            def attack(self, u):
                return super().attack(u)._replace(candidates=((1, 0), (2, 0)))

        cfg = TrialConfig(seed_base=0, trials=6, mode="oracle-check", **TOY_CFG)
        honest = run_trials(cfg)
        monkeypatch.setattr(harness, "Attacker", Wrong)
        records = run_trials(cfg)
        lines = format_csv(records).splitlines()
        assert len(lines) == 1 + len(records)
        for rec, ref, line in zip(records, honest, lines[1:]):
            params = gen_params(rec.seed, rec.l, rec.m, rec.q, rec.r)
            transcript = exchange(rec.seed, params)
            expected = brute_force_preimages(params.z, params.p, params.q, transcript.u, params.m)
            assert ref.error == "" and ref.preimage_found
            assert rec.error == f"oracle mismatch: got [1, 2] expected {expected}"
            assert (rec.secret_recovered, rec.preimage_found) == (transcript.x in (1, 2), True)
            assert (rec.candidate_count, rec.reduce_iterations) == (2, ref.reduce_iterations)
            assert rec.reduce_time_ns > 0 and rec.search_time_ns > 0 and rec.total_time_ns > 0
            assert rec.agree == ref.agree
            cells = line.split(",")
            assert len(cells) == len(CSV_COLUMNS)
            assert cells[CSV_COLUMNS.index("error")] == rec.error.replace(",", ";")
            assert cells[CSV_COLUMNS.index("error")].startswith("oracle mismatch: got [1; 2] expected [")

    def test_exchange_mode_skips_attack(self):
        records = run_trials(TrialConfig(seed_base=0, trials=10, mode="exchange", **TOY_CFG))
        for rec in records:
            assert rec.candidate_count == 0 and rec.total_time_ns == 0
            assert not rec.preimage_found

    @pytest.mark.parametrize(
        "cfg",
        [
            dict(mode="attack", **TOY_CFG),
            dict(mode="oracle-check", **TOY_CFG),
            dict(mode="attack", l=2048, m=512, q=512, r=129),
        ],
    )
    def test_time_columns_bracket_their_calls(self, cfg):
        # reduce_time_ns brackets Attacker(...), search_time_ns its attack,
        # and total_time_ns both and key derivation.
        trials = 3 if cfg["l"] == 2048 else 20
        for rec in run_trials(TrialConfig(seed_base=70, trials=trials, **cfg)):
            assert rec.error == ""
            assert rec.reduce_time_ns > 0 and rec.search_time_ns > 0
            assert rec.reduce_time_ns + rec.search_time_ns <= rec.total_time_ns

    def test_exchange_mode_records_agreement(self):
        records = run_trials(
            TrialConfig(seed_base=0, trials=200, mode="exchange", **TOY_CFG)
        )
        agree = sum(rec.agree for rec in records)
        assert 0 < agree < 200  # r=2 is a toy guard: both outcomes occur

    def test_record_p_is_checked_shape(self):
        (record,) = run_trials(TrialConfig(seed_base=1, trials=1, l=13, m=3, q=5, r=1))
        assert (record.p, record.error) == (11, "")

    def test_invalid_config_rejected_upfront(self):
        with pytest.raises(ConstraintViolated):
            run_trials(TrialConfig(seed_base=0, trials=1, l=16, m=16, q=14, r=4))
        with pytest.raises(InvalidArgument):
            run_trials(TrialConfig(seed_base=0, trials=0, **TOY_CFG))
        with pytest.raises(InvalidArgument):
            run_trials(TrialConfig(seed_base=0, trials=1, mode="nope", **TOY_CFG))

    def test_seed_at_the_digit_limit_runs_and_prints(self):
        # CPython prints at most 4,300 digits; the last seed has exactly
        # that many.  One past it is refused (TestMessageSizes).
        seed_base = 10**4300 - 2
        records = run_trials(TrialConfig(seed_base=seed_base, trials=2, **TOY_CFG))
        assert [r.error for r in records] == ["", ""]
        rows = format_csv(records).splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(seed_base), str(seed_base + 1)]


def _zero_timings(csv_text):
    lines = csv_text.splitlines()
    head = lines[0].split(",")
    timing = {head.index(c) for c in ("reduce_time_ns", "search_time_ns", "total_time_ns")}
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for idx in timing:
            cells[idx] = "0"
        out.append(",".join(cells))
    return "\n".join(out)


class TestCsv:
    def test_header_exact(self):
        text = format_csv([])
        assert text == (
            "seed,l,m,p,q,r,secret_recovered,preimage_found,key_matched,"
            "candidate_count,reduce_iterations,reduce_time_ns,search_time_ns,"
            "total_time_ns,error,agree\n"
        )
        assert ",".join(CSV_COLUMNS) + "\n" == text

    def test_booleans_and_row_shape(self):
        records = run_trials(TrialConfig(seed_base=13882, trials=1, **TOY_CFG))
        text = format_csv(records)
        lines = text.splitlines()
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert len(cells) == len(CSV_COLUMNS)
        assert cells[0] == "13882"
        assert cells[6] == "1" and cells[7] == "1"  # booleans as 0/1
        assert cells[-2:] == ["", "1"]  # no error; seed 13882's keys agree
        assert text.endswith("\n") and "\r" not in text

    def test_full_scale_golden_rows(self):
        # timings zeroed, these rows pin the full-scale CSV bytes: a change
        # in the reduction's path shows in reduce_iterations, which counts
        # the Euclid quotients of euclid_basis plus gauss_reduce's passes, 1
        # when its one pass changes nothing and 2 otherwise, for the lattice
        # modulo 2^k, k = m + q + 3 = 1027 here, not p = 2048 (316+2, 305+2,
        # 329+1, 291+2, 295+2)
        cfg = TrialConfig(seed_base=1, trials=5, l=2048, m=512, q=512, r=129)
        rows = _zero_timings(format_csv(run_trials(cfg))).splitlines()[1:]
        assert rows == [
            f"{seed},2048,512,2048,512,129,1,1,1,1,{iterations},0,0,0,,1"
            for seed, iterations in [(1, 318), (2, 307), (3, 330), (4, 293), (5, 297)]
        ]

    def test_exchange_mode_writes_agree(self):
        # exchange mode measures agreement alone, so its column carries it
        records = run_trials(
            TrialConfig(seed_base=0, trials=200, mode="exchange", **TOY_CFG)
        )
        header, *rows = [line.split(",") for line in format_csv(records).splitlines()]
        column = [row[header.index("agree")] for row in rows]
        assert column == [str(int(rec.agree)) for rec in records]
        assert set(column) == {"0", "1"}

    def test_reproducible_modulo_timing(self):
        cfg = TrialConfig(seed_base=3, trials=12, **TOY_CFG)
        a = _zero_timings(format_csv(run_trials(cfg)))
        b = _zero_timings(format_csv(run_trials(cfg)))
        assert a == b
