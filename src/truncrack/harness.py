"""Seeded trial runner and brute-force oracles.

Trials are independent pure computations keyed by seed: trial i of a batch
uses seed_base + i for both parameter generation and the exchange, so a
batch is reproducible record-for-record.  Records are emitted in seed
order and serialize to a fixed-schema CSV whose only run-to-run variation
is the timing columns, measured by _run_trial around its own calls:
``reduce_time_ns`` brackets Attacker(z, p, q, m), ``search_time_ns`` its
attack(u), and ``total_time_ns`` both and key derivation (0 if not run).
"""

# No `from __future__ import annotations`: typing would compile each
# NamedTuple field's annotation string whenever the module is imported.
import time
from typing import NamedTuple

from .attack import Attacker
from .errors import InvalidArgument, OracleTooLarge, ToolkitError, echo_text, int_text
from .protocol import (
    check_observables, check_printable, check_shape, exchange, gen_params, shared_key,
)

MODES = ("attack", "exchange", "oracle-check")

# Largest m the exhaustive oracle will scan (2^24 values).
ORACLE_MAX_BITS = 24


class TrialConfig(NamedTuple):
    seed_base: int
    trials: int
    l: int
    m: int
    q: int
    r: int
    mode: str = "attack"


class TrialRecord(NamedTuple):
    """One seeded end-to-end experiment row, an immutable value built
    once per trial.

    The fields in order are the CSV schema (CSV_COLUMNS); the last,
    ``agree``, is whether the honest parties' keys matched.
    """

    seed: int
    l: int
    m: int
    p: int
    q: int
    r: int
    secret_recovered: bool = False
    preimage_found: bool = False
    key_matched: bool = False
    candidate_count: int = 0
    reduce_iterations: int = 0
    reduce_time_ns: int = 0
    search_time_ns: int = 0
    total_time_ns: int = 0
    error: str = ""
    agree: bool = False


CSV_COLUMNS = TrialRecord._fields


def check_oracle(z: int, p: int, q: int, m: int) -> None:
    """Refuse what brute_force_preimages refuses, before its scan:
    m > ORACLE_MAX_BITS with OracleTooLarge first, then what the attack
    rejects, with InvalidArgument (check_observables)."""
    if m > ORACLE_MAX_BITS:
        raise OracleTooLarge(f"oracle limited to m <= {ORACLE_MAX_BITS}, got m={int_text(m)}")
    check_observables(z, p, q, m)


def brute_force_preimages(z: int, p: int, q: int, u: int, m: int) -> list[int]:
    """Exhaustive scan: every x in [0, 2^m) with floor((xz mod 2^p)/2^q) = u.

    Independent of the lattice machinery on purpose.  Refuses what
    check_oracle refuses; a token outside the map's range simply has no
    preimage.
    """
    check_oracle(z, p, q, m)
    mask = (1 << p) - 1
    return [x for x in range(1 << m) if ((x * z) & mask) >> q == u]


def _validate_config(cfg: TrialConfig) -> int:
    """Check the config, each seed printable by CPython in the CSV; return p = l + m - q."""
    if cfg.trials < 1:
        raise InvalidArgument(f"trials must be at least 1, got {int_text(cfg.trials)}")
    if cfg.mode not in MODES:
        raise InvalidArgument(f"mode must be one of {MODES}, got {echo_text(cfg.mode)}")
    for seed in (cfg.seed_base, cfg.seed_base + cfg.trials - 1):
        check_printable(seed, "seeds")
    return check_shape(cfg.l, cfg.m, cfg.q, cfg.r)


def _run_trial(cfg: TrialConfig, p: int, seed: int) -> TrialRecord:
    """One trial's record, built once on each exit; an oracle error keeps
    the attack's columns (``outcome``), as a mismatch does."""
    row = (seed, cfg.l, cfg.m, p, cfg.q, cfg.r)
    agree, outcome = False, ()
    try:
        params = gen_params(seed, cfg.l, cfg.m, cfg.q, cfg.r)
        transcript = exchange(seed, params)
        agree = transcript.agree
        if cfg.mode == "exchange":
            return TrialRecord(*row, agree=agree)

        t0 = time.perf_counter_ns()
        attacker = Attacker(params.z, params.p, params.q, params.m)
        t1 = time.perf_counter_ns()
        result = attacker.attack(transcript.u)
        t2 = time.perf_counter_ns()
        keys = [shared_key(x, transcript.v, params) for x, _ in result.candidates]
        total_ns = time.perf_counter_ns() - t0
        got = [x for x, _ in result.candidates]
        outcome = (transcript.x in got, bool(got), transcript.w_b in keys, len(got),
                   result.reduce_iterations, t1 - t0, t2 - t1, total_ns)
        if cfg.mode == "oracle-check":
            expected = brute_force_preimages(params.z, params.p, params.q, transcript.u, params.m)
            if got != expected:
                error = f"oracle mismatch: got {got} expected {expected}"
                return TrialRecord(*row, *outcome, error=error, agree=agree)
        return TrialRecord(*row, *outcome, agree=agree)
    except ToolkitError as exc:
        return TrialRecord(*row, *outcome, error=f"{type(exc).__name__}: {exc}", agree=agree)


def run_trials(cfg: TrialConfig) -> list[TrialRecord]:
    """Run cfg.trials independent trials with seeds seed_base + i.

    Per-trial errors land in the record's error column; the batch never
    aborts.  An invalid config (bad trials count or parameter constraints)
    raises before any trial runs.
    """
    p = _validate_config(cfg)
    return [_run_trial(cfg, p, cfg.seed_base + i) for i in range(cfg.trials)]


def _csv_cell(value: bool | int | str) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, str):  # the error column
        return value.replace(",", ";").replace("\n", " ")
    return str(value)


def format_csv(records: list[TrialRecord]) -> str:
    """Fixed-schema CSV; booleans as 0/1, LF line endings, trailing newline."""
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        lines.append(",".join(map(_csv_cell, record)))
    return "\n".join(lines) + "\n"


def write_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(records))
