"""Benchmark of the lattice attack on the truncated-multiplication exchange.

    python3 perfbench/run.py --workload {full,batch,toy} --seed N --seconds S --trace {0,1}

Run from the root of a source tree: the program is imported from ./src.
Each run sets up the workload several times (import plus the first round
of deployments and tokens), then attacks whole rounds of seeded tokens
through `attack.recover_preimages` and `attack.recover_shared_key` for at
least S seconds, checking every output apart from the program after its
round.  Times are scaled by a fixed reference computation run next to
them (speed.py).  With --trace 0 it reports the end-to-end metrics; with
--trace 1 it wraps the program's public functions in spans and reports
the per-layer metrics.  The last line of stdout is one JSON object; the
same object, with detail, is written to perfbench/out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import checks
import speed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Every timed region is measured in the thread's CPU time.  On the 2-vCPU
# VM the benchmark was first measured on, the vCPU is taken away for about
# 10 ms at a time (3% of 1 ms windows in one 20 s sample), which in wall
# time lands on tokens at random and swamps a 0.25 ms toy token; outside
# those pauses CPU time tracks wall time within 1%, and the attack runs on
# this one thread.
SETUP_REPS = 9
MIN_TOKENS = 100
HARNESS_TRIALS = 20
CLI_TOKENS = 20


def import_program():
    """Import truncrack from ./src afresh, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "truncrack" or n.startswith("truncrack.")]:
        del sys.modules[name]
    pkg = importlib.import_module("truncrack")
    for module in ("attack", "cli", "harness", "lattice2d", "protocol"):
        importlib.import_module(f"truncrack.{module}")
    if Path(pkg.__file__).resolve().parent != SRC / "truncrack":
        raise ImportError(f"truncrack imported from {pkg.__file__}, not from {SRC}")
    return pkg


class Run:
    """Outcomes of the attacks of one run.

    attack_ns holds each checked token's time as measured, scaled_ns the
    same times scaled by the reference runs next to them (see speed.py),
    and ref_ns every reference run of the run.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.attack_ns: list[int] = []
        self.scaled_ns: list[float] = []
        self.ref_ns: list[int] = []
        self.first_results: list = []
        self.first_ids: list[int] = []
        self.attacked_ids: list[int] = []
        self.errors: list[str] = []

    def fail(self, message: str, wrong: bool) -> None:
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 5:
            self.errors.append(message)
            print(message, file=sys.stderr)


def attack_round(pkg, tokens, tracer, run: Run, first: bool) -> None:
    """Attack the round's tokens back to back between reference runs, then
    check the outputs: a check between two attacks would leave the next one
    a cold cache of its own size.  A token's time is scaled by the mean of
    the reference runs just before and just after it, the closest measure
    of the host's speed while it ran."""
    attack = pkg.attack
    answered, refs = [], []
    for k, tok in enumerate(tokens):
        token_id = run.attempted + k
        tracer.token = token_id
        inp = attack.AttackInput(z=tok.z, p=tok.p, q=tok.q, m=tok.m, token=tok.u)
        refs.append(speed.reference_ns())
        try:
            t0 = time.thread_time_ns()
            result = attack.recover_preimages(inp)
            keys = attack.recover_shared_key(inp, tok.v, tok.r, result=result) if result.candidates else []
            t1 = time.thread_time_ns()
        except Exception:
            run.fail(f"token {token_id} raised:\n{traceback.format_exc()}", wrong=False)
            continue
        answered.append((k, token_id, result, keys, t1 - t0))
    refs.append(speed.reference_ns())
    run.attempted += len(tokens)
    run.ref_ns += refs
    for k, token_id, result, keys, ns in answered:
        problem = checks.problem(tokens[k], list(result.candidates), keys)
        if problem is not None:
            run.fail(f"token {token_id}: {problem}", wrong=True)
            continue
        run.attack_ns.append(ns)
        run.scaled_ns.append(ns * speed.factor(refs[k : k + 2]))
        run.attacked_ids.append(token_id)
        if first:
            run.first_results.append(result)
            run.first_ids.append(token_id)


def measure(pkg, workload, first_round, tracer, seconds: float) -> Run:
    """Attack whole rounds until `seconds` have passed and MIN_TOKENS were tried."""
    run = Run()
    deadline = time.perf_counter() + seconds
    tokens, index = first_round, 0
    while True:
        attack_round(pkg, tokens, tracer, run, index == 0)
        index += 1
        if time.perf_counter() >= deadline and run.attempted >= MIN_TOKENS:
            return run
        tokens = workload.round(index)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end_metrics(attack_ns, setup_s: list[float]) -> dict:
    ms = [ns / 1e6 for ns in attack_ns]
    return {
        "attack_ms_p50": {"value": statistics.median(ms), "unit": "ms"},
        "attack_ms_p90": {"value": p90(ms), "unit": "ms"},
        "tokens_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mib": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
    }


def harness_trial_ms(pkg, seed: int, run: Run) -> list[float]:
    """Time `harness.run_trials` one full-scale trial at a time, scaled."""
    base = random.Random(f"harness:{seed}").getrandbits(32)
    times, refs = [], []
    for i in range(HARNESS_TRIALS):
        cfg = pkg.harness.TrialConfig(seed_base=base + i, trials=1, **workloads.FULL_SCALE)
        run.attempted += 1
        refs.append(speed.reference_ns())
        t0 = time.thread_time_ns()
        try:
            (record,) = pkg.harness.run_trials(cfg)
        except Exception:
            run.fail(f"harness trial {base + i} raised:\n{traceback.format_exc()}", wrong=False)
            continue
        t1 = time.thread_time_ns()
        if record.error or not record.secret_recovered:
            run.fail(f"harness trial {base + i}: {record}", wrong=True)
            continue
        times.append((t1 - t0) / 1e6)
    return [ms * speed.factor(refs) for ms in times]


def cli_attack_ms(pkg, seed: int, run: Run) -> list[float]:
    """Time in-process `cli.main(["attack", ...])` on the batch workload's
    tokens, scaled."""
    batch = workloads.Workload(pkg, "batch", seed)
    params = batch.batch_params
    path = OUT / f"batch-seed{seed}.params"
    path.write_text("".join(f"{k}={getattr(params, k)}\n" for k in "lmpqrz"), encoding="utf-8")
    times, refs = [], []
    for tok in batch.round(0)[:CLI_TOKENS]:
        argv = ["attack", "--params", str(path), "--token", str(tok.u), "--other-token", str(tok.v)]
        out = io.StringIO()
        run.attempted += 1
        refs.append(speed.reference_ns())
        t0 = time.thread_time_ns()
        try:
            with contextlib.redirect_stdout(out):
                code = pkg.cli.main(argv)
        except Exception:
            run.fail(f"cli {argv} raised:\n{traceback.format_exc()}", wrong=False)
            continue
        t1 = time.thread_time_ns()
        lines = out.getvalue().splitlines()
        key_line = f"key={tok.w_a} candidates="
        secret_line = f"x={tok.x} y={checks.low_bits(tok.x, tok.z, tok.p, tok.q)}"
        if code != 0 or secret_line not in lines or not any(
            line.startswith(key_line) for line in lines
        ):
            run.fail(f"cli {argv} exited {code} with {lines}", wrong=True)
            continue
        times.append((t1 - t0) / 1e6)
    return [ms * speed.factor(refs) for ms in times]


def per_layer_metrics(tracer: tracing.Tracer, run: Run, harness_ms, cli_ms) -> dict:
    """Span times are scaled by the reference runs of the whole traced run."""
    per_token, per_call = tracer.layers()
    median = tracing.median_or_zero
    us = speed.factor(run.ref_ns) / 1e3

    def token_column(name: str, column: int, ids) -> list[int]:
        table = per_token.get(name, {})
        return [table[i][column] if i in table else 0 for i in ids]

    def token_us(name: str, column: int, ids) -> list[float]:
        return [ns * us for ns in token_column(name, column, ids)]

    def call_us(name: str) -> list[float]:
        return [ns * us for ns in per_call.get(name, [])]

    attacked, first = run.attacked_ids, run.first_ids
    gauss_us = token_us("lattice2d.gauss_reduce", 0, attacked)
    candidates = [len(r.candidates) for r in run.first_results]
    searched = [r.searched for r in run.first_results]
    values = {
        "protocol.gen_params_us": (median(call_us("protocol.gen_params")), "us"),
        "protocol.exchange_us": (median(call_us("protocol.exchange")), "us"),
        "lattice2d.solution_basis_us": (median(token_us("lattice2d.solution_basis", 0, attacked)), "us"),
        "lattice2d.gauss_reduce_us_p50": (median(gauss_us), "us"),
        "lattice2d.gauss_reduce_us_p90": (p90(gauss_us), "us"),
        "lattice2d.gauss_reduce_passes": (median(r.reduce_iterations for r in run.first_results), "count"),
        "lattice2d.coefficient_box_us": (median(call_us("lattice2d.coefficient_box")), "us"),
        "lattice2d.coefficient_box_calls": (median(token_column("lattice2d.coefficient_box", 2, first)), "count"),
        "lattice2d.rect_search_self_us": (median(token_us("lattice2d.rect_search", 1, attacked)), "us"),
        "lattice2d.box_pairs": (median(searched), "count"),
        "attack.recover_preimages_self_us": (
            median(token_us("attack.recover_preimages", 1, attacked)), "us"
        ),
        "attack.recover_shared_key_us": (median(call_us("attack.recover_shared_key")), "us"),
        "attack.candidates": (median(candidates), "count"),
        "attack.hit_ratio": (sum(candidates) / sum(searched) if sum(searched) else 0, "ratio"),
        "harness.trial_ms": (median(harness_ms), "ms"),
        "cli.attack_ms": (median(cli_ms), "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "truncrack" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/truncrack; run from a source tree", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setup_s, setup_refs = [], []
    for _ in range(SETUP_REPS):
        setup_refs += [speed.reference_ns() for _ in range(3)]
        t0 = time.thread_time()
        pkg = import_program()
        workload = workloads.Workload(pkg, args.workload, args.seed)
        first_round = workload.round(0)
        setup_s.append(time.thread_time() - t0)
    scaled_setup_s = [s * speed.factor(setup_refs) for s in setup_s]

    tracer = tracing.Tracer()
    if args.trace:
        tracer.install(pkg)
        workload = workloads.Workload(pkg, args.workload, args.seed)
        first_round = workload.round(0)
    run = measure(pkg, workload, first_round, tracer, args.seconds)
    tracer.uninstall()
    if not run.attack_ns:
        print(f"error: all {run.attempted} tokens failed", file=sys.stderr)
        return 1
    detail = {
        "tokens_checked": len(run.attack_ns),
        "reference_ms_p50": statistics.median(run.ref_ns) / 1e6,
        "unscaled": end_to_end_metrics(run.attack_ns, setup_s),
        "errors": run.errors,
    }
    if args.trace:
        harness_ms = harness_trial_ms(pkg, args.seed, run)
        cli_ms = cli_attack_ms(pkg, args.seed, run)
        metrics = per_layer_metrics(tracer, run, harness_ms, cli_ms)
        detail["traced"] = end_to_end_metrics(run.scaled_ns, scaled_setup_s)
    else:
        metrics = end_to_end_metrics(run.scaled_ns, scaled_setup_s)
    result = {
        "correct": run.wrong == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
