"""Seeded trial runner and brute-force oracles.

Trials are independent pure computations keyed by seed: trial i of a batch
uses seed_base + i for both parameter generation and the exchange, so a
batch is reproducible record-for-record.  Records are emitted in seed
order and serialize to a fixed-schema CSV whose only run-to-run variation
is the timing columns, measured by _run_trial around its own calls:
``reduce_time_ns`` brackets Attacker(z, p, q, m), ``search_time_ns`` its
attack(u), and ``total_time_ns`` both and key derivation (0 if not run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields

from .attack import Attacker, check_observables
from .errors import OracleTooLarge, ToolkitError, echo_text, int_text
from .protocol import check_shape, exchange, gen_params, shared_key

MODES = ("attack", "exchange", "oracle-check")

# Largest m the exhaustive oracle will scan (2^24 values).
ORACLE_MAX_BITS = 24


@dataclass(frozen=True)
class TrialConfig:
    seed_base: int
    trials: int
    l: int
    m: int
    q: int
    r: int
    mode: str = "attack"


@dataclass
class TrialRecord:
    """One seeded end-to-end experiment row.

    The fields in order are the CSV schema (CSV_COLUMNS), apart from
    ``agree`` (whether the honest parties' keys matched), which is carried
    on the record for analysis only.
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
    agree: bool = field(default=False, compare=False)


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord) if f.name != "agree")


def brute_force_preimages(z: int, p: int, q: int, u: int, m: int) -> list[int]:
    """Exhaustive scan: every x in [0, 2^m) with floor((xz mod 2^p)/2^q) = u.

    Independent of the lattice machinery on purpose.  Rejects the (z, p, q,
    m) that the attack rejects, with DegenerateInput (check_observables);
    a token outside the map's range simply has no preimage.  Guarded to
    m <= 24.
    """
    check_observables(z, p, q, m)
    if m > ORACLE_MAX_BITS:
        raise OracleTooLarge(f"oracle limited to m <= {ORACLE_MAX_BITS}, got m={int_text(m)}")
    mask = (1 << p) - 1
    return [x for x in range(1 << m) if ((x * z) & mask) >> q == u]


def _validate_config(cfg: TrialConfig) -> int:
    """Check the config; return p = l + m - q."""
    if cfg.trials < 1:
        raise ValueError(f"trials must be at least 1, got {int_text(cfg.trials)}")
    if cfg.mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {echo_text(cfg.mode)}")
    return check_shape(cfg.l, cfg.m, cfg.q, cfg.r)


def _run_trial(cfg: TrialConfig, p: int, seed: int) -> TrialRecord:
    record = TrialRecord(seed=seed, l=cfg.l, m=cfg.m, p=p, q=cfg.q, r=cfg.r)
    try:
        params = gen_params(seed, cfg.l, cfg.m, cfg.q, cfg.r)
        transcript = exchange(seed, params)
        record.agree = transcript.agree
        if cfg.mode == "exchange":
            return record

        t0 = time.perf_counter_ns()
        attacker = Attacker(params.z, params.p, params.q, params.m)
        t1 = time.perf_counter_ns()
        result = attacker.attack(transcript.u)
        t2 = time.perf_counter_ns()
        keys = [shared_key(x, transcript.v, params) for x, _ in result.candidates]
        record.total_time_ns = time.perf_counter_ns() - t0
        record.reduce_time_ns, record.search_time_ns = t1 - t0, t2 - t1

        record.candidate_count = len(result.candidates)
        record.reduce_iterations = result.reduce_iterations
        record.preimage_found = bool(result.candidates)
        record.secret_recovered = any(x == transcript.x for x, _ in result.candidates)
        record.key_matched = transcript.w_b in keys

        if cfg.mode == "oracle-check":
            expected = brute_force_preimages(params.z, params.p, params.q, transcript.u, params.m)
            got = [x for x, _ in result.candidates]
            if got != expected:
                record.error = f"oracle mismatch: got {got} expected {expected}"
    except ToolkitError as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    return record


def run_trials(cfg: TrialConfig) -> list[TrialRecord]:
    """Run cfg.trials independent trials with seeds seed_base + i.

    Per-trial errors land in the record's error column; the batch never
    aborts.  An invalid config (bad trials count or parameter constraints)
    raises before any trial runs.
    """
    p = _validate_config(cfg)
    return [_run_trial(cfg, p, cfg.seed_base + i) for i in range(cfg.trials)]


def _csv_value(record: TrialRecord, column: str) -> str:
    value = getattr(record, column)
    if isinstance(value, bool):
        return "1" if value else "0"
    if column == "error":
        return str(value).replace(",", ";").replace("\n", " ")
    return str(value)


def format_csv(records: list[TrialRecord]) -> str:
    """Fixed-schema CSV; booleans as 0/1, LF line endings, trailing newline."""
    lines = [",".join(CSV_COLUMNS)]
    for record in records:
        lines.append(",".join(_csv_value(record, col) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_csv(records))
