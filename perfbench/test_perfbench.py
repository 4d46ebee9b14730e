"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
from types import SimpleNamespace

import pytest

import checks
import run
import speed
import tracing
import workloads

# The worked toy instance: token 708192 scaled by 2^5 is u = 22131, whose
# only preimage is x = 12345 with y = 21.
Z, P, Q, M, R = 6173, 22, 5, 14, 2
U = 708192 >> Q
V = 4097


@pytest.fixture(scope="module")
def pkg():
    sys.path.insert(0, str(run.SRC))
    return run.import_program()


def _worked(**changes) -> checks.Token:
    base = dict(z=Z, p=P, q=Q, m=M, r=R, u=U, v=V, exhaustive=True)
    base.update(changes)
    return checks.Token(**base)


def _keys(xs):
    return [(x, checks.key_of(x, V, P, Q, R, M)) for x in xs]


def test_worked_instance_accepted():
    assert checks.scan_preimages(Z, P, Q, M, U) == [12345]
    assert checks.low_bits(12345, Z, P, Q) == 21
    assert checks.problem(_worked(), [(12345, 21)], _keys([12345])) is None


def _honest_worked() -> checks.Token:
    """The worked instance as the exchange with peer secret y = 777."""
    y = 777
    v = checks.token_of(y, Z, P, Q)
    return _worked(
        v=v, x=12345, y=y, exhaustive=False,
        w_a=checks.key_of(12345, v, P, Q, R, M), w_b=checks.key_of(y, U, P, Q, R, M),
    )


def test_worked_instance_as_an_honest_exchange_accepted():
    tok = _honest_worked()
    keys = [(12345, checks.key_of(12345, tok.v, P, Q, R, M))]
    assert checks.problem(tok, [(12345, 21)], keys) is None


@pytest.mark.parametrize("exhaustive", [True, False])
def test_wrong_x_added_rejected(exhaustive):
    wrong = 12346
    tok = _worked(exhaustive=exhaustive)
    candidates = [(12345, 21), (wrong, checks.low_bits(wrong, Z, P, Q))]
    assert checks.problem(tok, candidates, _keys([12345, wrong])) is not None


def test_true_x_removed_rejected():
    assert checks.problem(_worked(), [], []) is not None
    assert "not among" in checks.problem(_honest_worked(), [], [])


def test_wrong_key_rejected():
    keys = [(12345, checks.key_of(12345, V, P, Q, R, M) + 1)]
    assert checks.problem(_worked(), [(12345, 21)], keys) is not None


def test_empty_scan_with_empty_answer_accepted():
    u = next(u for u in range(1 << (P - Q)) if not checks.scan_preimages(Z, P, Q, M, u))
    assert checks.problem(_worked(u=u), [], []) is None


def _outputs(pkg, tokens):
    attack = pkg.attack
    rows = []
    for tok in tokens:
        inp = attack.AttackInput(z=tok.z, p=tok.p, q=tok.q, m=tok.m, token=tok.u)
        result = attack.recover_preimages(inp)
        keys = attack.recover_shared_key(inp, tok.v, tok.r, result=result) if result.candidates else []
        rows.append((result.candidates, result.unique, result.reduce_iterations, result.searched, keys))
    return rows


def test_tracing_leaves_outputs_identical(pkg):
    tokens = workloads.Workload(pkg, "toy", 3).round(0)[:40]
    tokens += workloads.Workload(pkg, "full", 3).round(0)[:3]
    plain = _outputs(pkg, tokens)
    tracer = tracing.Tracer()
    tracer.install(pkg)
    try:
        traced = _outputs(pkg, tokens)
    finally:
        tracer.uninstall()
    assert traced == plain
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"lattice2d.gauss_reduce", "lattice2d.coefficient_box", "attack.recover_preimages"} <= names
    assert _outputs(pkg, tokens) == plain
    assert pkg.attack.recover_preimages.__name__ == "recover_preimages"
    assert not hasattr(pkg.attack.recover_preimages, "__wrapped__")


def test_function_never_called_reports_zero():
    tracer = tracing.Tracer()
    tracer.install(SimpleNamespace(attack=SimpleNamespace()))
    outcome = run.Run()
    outcome.attacked_ids = outcome.first_ids = [0, 1]
    outcome.ref_ns = [speed.REFERENCE_NS]
    outcome.first_results = [SimpleNamespace(reduce_iterations=4, searched=25, candidates=[(1, 2)])] * 2
    metrics = run.per_layer_metrics(tracer, outcome, [1.0], [1.0])
    assert metrics["lattice2d.coefficient_box_calls"]["value"] == 0
    assert metrics["lattice2d.gauss_reduce_us_p50"]["value"] == 0
    assert metrics["attack.hit_ratio"]["value"] == 2 / 50


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_traced_toy_run_reports_repeatable_counts(capsys):
    argv = ["--workload", "toy", "--seed", "5", "--seconds", "0", "--trace", "1"]
    first, second = _run(capsys, *argv), _run(capsys, *argv)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= run.MIN_TOKENS
    names = set(first["metrics"])
    assert "lattice2d.coefficient_box_calls" in names and "cli.attack_ms" in names
    for name in (
        "lattice2d.gauss_reduce_passes", "lattice2d.box_pairs",
        "lattice2d.coefficient_box_calls", "attack.candidates", "attack.hit_ratio",
    ):
        assert first["metrics"][name] == second["metrics"][name]


def test_untraced_run_reports_end_to_end_metrics(capsys):
    result = _run(capsys, "--workload", "batch", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_TOKENS
    assert set(result["metrics"]) == {
        "attack_ms_p50", "attack_ms_p90", "tokens_per_s", "setup_s", "peak_rss_mib",
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
