"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import statistics
import time
from fractions import Fraction

from truncrack import Attacker, InvalidArgument, TrialConfig, brute_force_preimages, run_trials
from truncrack.lattice2d import euclid_basis, gauss_reduce, round_half_to_zero
from truncrack.paper import (
    is_reduced,
    nearest_lattice_point,
    solution_basis,
    solve_coeffs,
    truncate_decimal,
)

FULL = dict(l=2048, m=512, q=512, r=129)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def rect_weights(b1: int, b2: int) -> tuple[int, int]:
    """The form weights (b2^2, b1^2) that make [0, b1) x [0, b2) square."""
    return b2 * b2, b1 * b1


def _textbook_gauss_reduce(basis, wx, wy, *, on_step=None):
    """The textbook Lagrange loop, the tests' one general reduction: every
    half-step recomputes the norms and the inner product under the form
    (wx, wy), and the loop stops after a pass whose two quotients are 0.
    Each half-step that changes the basis strictly shrinks a positive
    integer norm, so the loop ends.  Returns the reduced basis and the
    passes, the all-zero one included; on_step(target, c, basis) sees
    each half-step.  gauss_reduce, from Euclid's stop, must match it."""
    def inner(a, b):
        return wx * a[0] * b[0] + wy * a[1] * b[1]

    u1, u2 = basis[:2], basis[2:]
    det = abs(basis[0] * basis[3] - basis[1] * basis[2])
    if det == 0:
        raise InvalidArgument("basis is degenerate (determinant 0)")
    passes = 0
    while True:
        passes += 1
        old_norm1 = inner(u1, u1)
        c1 = round_half_to_zero(inner(u1, u2), inner(u2, u2))
        u1 = (u1[0] - c1 * u2[0], u1[1] - c1 * u2[1])
        assert abs(u1[0] * u2[1] - u1[1] * u2[0]) == det
        assert c1 == 0 or inner(u1, u1) < old_norm1
        if on_step is not None:
            on_step("u1", c1, (*u1, *u2))

        old_norm2 = inner(u2, u2)
        c2 = round_half_to_zero(inner(u1, u2), inner(u1, u1))
        u2 = (u2[0] - c2 * u1[0], u2[1] - c2 * u1[1])
        assert abs(u1[0] * u2[1] - u1[1] * u2[0]) == det
        assert c2 == 0 or inner(u2, u2) < old_norm2
        if on_step is not None:
            on_step("u2", c2, (*u1, *u2))

        if c1 == 0 and c2 == 0:
            break
    reduced = (*u1, *u2)
    assert is_reduced(reduced, wx, wy)
    return reduced, passes


def test_criterion_1_golden_example():
    failures = []
    # The rectangle of solutions [0, 2^m) x [0, 2^q) with m=14, q=5.
    B1, B2 = 1 << 14, 1 << 5

    t0 = time.perf_counter_ns()
    v0, basis = solution_basis(6173, 22, 5, 22131)
    reduced, _ = _textbook_gauss_reduce(basis, *rect_weights(B1, B2))
    # The CVP: the lattice point nearest v0, whose difference from v0 is
    # the coset's shortest point under the rectangle's form.
    a1, a2 = nearest_lattice_point(reduced, v0, *rect_weights(B1, B2))
    x1, y1, x2, y2 = reduced
    answer = (v0[0] - a1 * x1 - a2 * x2, v0[1] - a1 * y1 - a2 * y2)
    elapsed_ns = time.perf_counter_ns() - t0

    if v0 != (115, 1703):
        failures.append(f"particular solution {v0}")

    expected_vectors = ((-25140, 28), (-33973, -129))
    allowed = set()
    for x, y in expected_vectors:
        allowed.update({(x, y), (-x, -y)})
    u1, u2 = reduced[:2], reduced[2:]
    if not (u1 in allowed and u2 in allowed and u1 not in (u2, (-u2[0], -u2[1]))):
        failures.append(f"reduced basis {reduced}")
    det = u1[0] * u2[1] - u1[1] * u2[0]
    if abs(det) != 1 << 22:
        failures.append(f"determinant {det}")

    # Corner coefficients, expressed in the fixed orientation above.
    oriented = (*expected_vectors[0], *expected_vectors[1])
    vx, vy = v0
    corners = [(vx, vy), (vx - B1, vy), (vx, vy - B2), (vx - B1, vy - B2)]
    # Exact Cramer solves, truncated at three decimals.  An earlier record
    # of this instance gave ("14.252", "-10.108") and ("13.992", "-9.916")
    # for the second and fourth corners; those are the coefficients of
    # v0 - (15011, 0) and v0 - (15011, 32), an x-offset of 15011 instead of
    # B1 = 2^14, so they do not belong to this rectangle.
    expected_corners = [
        ("13.790", "-10.208"),
        ("14.294", "-10.098"),
        ("13.531", "-10.016"),
        ("14.035", "-9.907"),
    ]
    tol = Fraction(1, 1000)
    for corner, expected in zip(corners, expected_corners):
        n1, n2, d = solve_coeffs(oriented, corner)
        a1, a2 = Fraction(n1, d), Fraction(n2, d)
        rebuilt = (
            a1 * oriented[0] + a2 * oriented[2],
            a1 * oriented[1] + a2 * oriented[3],
        )
        if rebuilt != corner:
            failures.append(f"corner {corner[0]},{corner[1]}: rebuilt as {rebuilt}")
        for num, want in zip((n1, n2), expected):
            truncated = truncate_decimal(num, d)
            if abs(Fraction(truncated) - Fraction(want)) > tol:
                failures.append(f"corner {corner[0]},{corner[1]}: got {truncated} want {want}")

    if answer != (12345, 21):
        failures.append(f"final answer {answer}")

    # The attack's own reduction: Euclid's stop, then gauss_reduce's pass.
    finished = gauss_reduce(6173, 22, 14, 5)
    if finished != ((33973, 129, -25140, 28), euclid_basis(6173, 22, 14, 5)[1], 2):
        failures.append(f"attack's reduction {finished}")

    result = Attacker(6173, 22, 5, 14).attack(708192 >> 5)
    if result.candidates != ((12345, 21),) or not result.unique:
        failures.append(f"attack result {result.candidates}")

    if elapsed_ns >= 10_000_000:
        failures.append(f"runtime {elapsed_ns / 1e6:.2f} ms")

    ok = not failures
    _report(1, ok, "golden example reproduction"
            + ("" if ok else f" — {len(failures)} check(s) failed: " + "; ".join(failures)))
    assert ok, failures


def test_criterion_2_oracle_equivalence():
    rng = random.Random(1002)
    t0 = time.perf_counter()
    matched = 0
    total = 200
    for i in range(total):
        l = rng.randint(8, 16)
        m = rng.randint(8, 16)
        r = rng.randint(1, 3)
        q = rng.randint(1, (l - r - 1) // 2)
        p = l + m - q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        if i % 4 != 3:
            x = rng.randint(1, (1 << m) - 1)
            token = ((x * z) & ((1 << p) - 1)) >> q
        else:
            token = rng.randint(0, (1 << (p - q)) - 1)
        result = Attacker(z, p, q, m).attack(token)
        expected = brute_force_preimages(z, p, q, token, m)
        matched += [x for x, _ in result.candidates] == expected
    elapsed = time.perf_counter() - t0
    ok = matched == total and elapsed < 60
    _report(2, ok, f"oracle equivalence {matched}/{total} in {elapsed:.1f}s")
    assert ok


def test_criterion_3_cvp_optimality():
    rng = random.Random(1003)
    t0 = time.perf_counter()
    matched = 0
    total = 500
    for _ in range(total):
        p = rng.randint(4, 8)
        z = rng.randint(1, (1 << p) - 1)
        q = rng.randint(0, 2)
        u = rng.randint(0, (1 << max(1, p - q)) - 1)
        _, basis = solution_basis(z, p, q, u)
        wx, wy = rng.randint(1, 4) ** 2, rng.randint(1, 4) ** 2
        reduced, _ = _textbook_gauss_reduce(basis, wx, wy)
        u1x, u1y, u2x, u2y = reduced
        a1t, a2t = rng.randint(-30, 30), rng.randint(-30, 30)
        ex, ey = rng.randint(-3, 3), rng.randint(-3, 3)
        vx, vy = a1t * u1x + a2t * u2x + ex, a1t * u1y + a2t * u2y + ey
        c1, c2 = nearest_lattice_point(reduced, (vx, vy), wx, wy)
        sx, sy = vx - c1 * u1x - c2 * u2x, vy - c1 * u1y - c2 * u2y
        got = wx * sx * sx + wy * sy * sy

        # independent oracle: raw-integer scan of the coefficient grid
        best = None
        for b1 in range(-50, 51):
            rx = vx - b1 * u1x
            ry = vy - b1 * u1y
            for b2 in range(-50, 51):
                sx = rx - b2 * u2x
                sy = ry - b2 * u2y
                n = wx * sx * sx + wy * sy * sy
                if best is None or n < best:
                    best = n
        matched += got == best
    elapsed = time.perf_counter() - t0
    ok = matched == total and elapsed < 60
    _report(3, ok, f"CVP optimality {matched}/{total} in {elapsed:.1f}s")
    assert ok


SIZE_LADDER = [
    (8, 8, 2, 1),
    (12, 10, 3, 2),
    (16, 16, 5, 2),
    (24, 16, 6, 4),
    (32, 24, 8, 4),
    (48, 32, 12, 8),
    (64, 48, 16, 8),
    (96, 64, 24, 16),
    (128, 96, 32, 16),
    (192, 128, 48, 32),
    (256, 192, 64, 32),
    (384, 256, 96, 64),
    (512, 384, 128, 64),
    (768, 512, 192, 129),
    (1024, 512, 256, 129),
    (1536, 512, 384, 129),
    (2048, 512, 512, 129),
]


def test_criterion_4_reduction_invariants():
    # Imported here: test_lattice2d imports this module at its top.
    from test_lattice2d import _reduce_with_steps

    clean = 0
    total = 1000
    t0 = time.perf_counter()
    for i in range(total):
        l, m, q, r = SIZE_LADDER[i % len(SIZE_LADDER)]
        p = l + m - q
        rng = random.Random(10_000 + i)
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        start, _ = euclid_basis(z, p, m, q)
        wx, wy = rect_weights(1 << m, 1 << q)

        def norm_sq(x, y, wx=wx, wy=wy):
            return wx * x * x + wy * y * y

        target_det = 1 << p
        violations = []
        (reduced, passes), steps = _reduce_with_steps(z, p, m, q)
        before = start
        for target, c, step in steps:
            x1, y1, x2, y2 = step
            if abs(x1 * y2 - y1 * x2) != target_det:
                violations.append("det")
            at = 0 if target == "u1" else 2
            if c != 0 and not norm_sq(*step[at:at + 2]) < norm_sq(*before[at:at + 2]):
                violations.append("norm")
            before = step
        x1, y1, x2, y2 = reduced
        cross = abs(wx * x1 * x2 + wy * y1 * y2)
        if 2 * cross > min(norm_sq(x1, y1), norm_sq(x2, y2)):
            violations.append("exit-bound")
        if passes > 2:
            violations.append("passes")
        clean += not violations
    elapsed = time.perf_counter() - t0
    ok = clean == total
    _report(4, ok, f"reduction invariants {clean}/{total} from Euclid's stop across sizes "
            f"up to l=2048 in {elapsed:.1f}s")
    assert ok


def test_criterion_5_full_scale_attack():
    records = run_trials(TrialConfig(seed_base=1, trials=100, **FULL))
    found = sum(r.preimage_found for r in records)
    singletons = [r for r in records if r.candidate_count == 1]
    recovered_singletons = sum(r.secret_recovered for r in singletons)
    median_ns = statistics.median(r.total_time_ns for r in records)
    ok = (
        found == 100
        and recovered_singletons == len(singletons)
        and median_ns < 1_000_000_000
        and all(r.error == "" for r in records)
    )
    _report(
        5,
        ok,
        f"full-scale attack: preimage {found}/100, singleton rate "
        f"{len(singletons)}/100 (all recovered: {recovered_singletons == len(singletons)}), "
        f"median {median_ns / 1e6:.1f} ms/trial",
    )
    assert ok


def test_criterion_6_protocol_agreement():
    records = run_trials(TrialConfig(seed_base=2000, trials=1000, **FULL))
    agreed = sum(r.agree for r in records)
    consistent = all(
        r.key_matched == r.agree for r in records if r.secret_recovered
    )
    recovered = sum(r.secret_recovered for r in records)
    ok = agreed >= 990 and consistent and all(r.error == "" for r in records)
    _report(
        6,
        ok,
        f"agreement rate {agreed}/1000 (>=990 required); key_matched == agree in all "
        f"{recovered} secret-recovered trials: {consistent}",
    )
    assert ok


def test_criterion_7_scaling_invariance():
    rng = random.Random(1007)
    identical = 0
    total = 100
    for i in range(total):
        l, m, q, r = SIZE_LADDER[i % len(SIZE_LADDER)]
        p = l + m - q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        x = rng.randint(1, (1 << m) - 1)
        u = ((x * z) & ((1 << p) - 1)) >> q
        v0, _ = solution_basis(z, p, q, u)
        start, _ = euclid_basis(z, p, m, q)
        wx, wy = rect_weights(1 << m, 1 << q)
        # The attack's reduction takes the rectangle by (m, q); the
        # reference loop from Euclid's stop gives its basis and passes
        # under the form and under 7 times the form.
        reduced, _, passes = gauss_reduce(z, p, m, q)
        identical += (
            _textbook_gauss_reduce(start, wx, wy)
            == (reduced, passes)
            == _textbook_gauss_reduce(start, 7 * wx, 7 * wy)
            and nearest_lattice_point(reduced, v0, wx, wy)
            == nearest_lattice_point(reduced, v0, 7 * wx, 7 * wy)
        )
    ok = identical == total
    _report(7, ok, f"weight scaling changes nothing: {identical}/{total}")
    assert ok
