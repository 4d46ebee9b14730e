"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.
"""

import random
import statistics
import time
from fractions import Fraction

from truncrack import (
    AttackInput,
    IVec2,
    LatticeBasis,
    TrialConfig,
    WeightedForm,
    brute_force_preimages,
    gauss_reduce,
    nearest_lattice_point,
    recover_preimages,
    rect_search,
    run_trials,
    solution_basis,
    solve_coeffs,
    truncate_decimal,
)

FULL = dict(l=2048, m=512, q=512, r=129)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")


def basis_ints(basis: LatticeBasis) -> tuple[int, int, int, int]:
    """The four ints (x1, y1, x2, y2) in which the attack path takes a basis."""
    return basis.u1.x, basis.u1.y, basis.u2.x, basis.u2.y


def lattice_basis(ints, p: int, z: int) -> LatticeBasis:
    """The LatticeBasis of four ints (x1, y1, x2, y2), for the API edges."""
    x1, y1, x2, y2 = ints
    return LatticeBasis(IVec2(x1, y1), IVec2(x2, y2), modulus_exp=p, z=z)


def test_criterion_1_golden_example():
    failures = []
    # The rectangle of solutions [0, 2^m) x [0, 2^q) with m=14, q=5.
    B1, B2 = 1 << 14, 1 << 5

    t0 = time.perf_counter_ns()
    fam = solution_basis(6173, 22, 5, 22131)
    form = WeightedForm.for_rectangle(B1, B2)
    reduced, _ = gauss_reduce(basis_ints(fam.basis()), 22, form.wx, form.wy)
    hits, _ = rect_search(reduced, 22, (fam.v0.x, fam.v0.y), B1, B2)
    elapsed_ns = time.perf_counter_ns() - t0
    reduced = lattice_basis(reduced, 22, 6173)

    if fam.v0 != IVec2(115, 1703):
        failures.append(f"particular solution {fam.v0}")

    expected_vectors = (IVec2(-25140, 28), IVec2(-33973, -129))
    allowed = set()
    for a in expected_vectors:
        allowed.update({a, -a})
    if not (
        reduced.u1 in allowed
        and reduced.u2 in allowed
        and reduced.u1 not in (reduced.u2, -reduced.u2)
    ):
        failures.append(f"reduced basis {(reduced.u1, reduced.u2)}")
    if abs(reduced.det()) != 1 << 22:
        failures.append(f"determinant {reduced.det()}")

    # Corner coefficients, expressed in the fixed orientation above.
    oriented = LatticeBasis(expected_vectors[0], expected_vectors[1], modulus_exp=22, z=6173)
    corners = [
        fam.v0,
        fam.v0 - IVec2(B1, 0),
        fam.v0 - IVec2(0, B2),
        fam.v0 - IVec2(B1, B2),
    ]
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
        a1, a2 = solve_coeffs(oriented, corner)
        rebuilt = (
            a1 * oriented.u1.x + a2 * oriented.u2.x,
            a1 * oriented.u1.y + a2 * oriented.u2.y,
        )
        if rebuilt != (corner.x, corner.y):
            failures.append(f"corner {corner.x},{corner.y}: rebuilt as {rebuilt}")
        for value, want in zip((a1, a2), expected):
            truncated = Fraction(truncate_decimal(value))
            if abs(truncated - Fraction(want)) > tol:
                failures.append(
                    f"corner {corner.x},{corner.y}: got {truncate_decimal(value)} want {want}"
                )

    if hits != [(12345, 21)]:
        failures.append(f"final answer {hits}")

    result = recover_preimages(
        AttackInput(z=6173, p=22, q=5, m=14, token=708192, token_is_scaled=True)
    )
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
        result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=token))
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
        fam = solution_basis(z, p, q, u)
        form = WeightedForm(wx=rng.randint(1, 4) ** 2, wy=rng.randint(1, 4) ** 2)
        reduced, _ = gauss_reduce(basis_ints(fam.basis()), p, form.wx, form.wy)
        reduced = lattice_basis(reduced, p, z)
        a1t, a2t = rng.randint(-30, 30), rng.randint(-30, 30)
        v = reduced.u1.scaled(a1t) + reduced.u2.scaled(a2t) + IVec2(
            rng.randint(-3, 3), rng.randint(-3, 3)
        )
        c1, c2 = nearest_lattice_point(reduced, v, form)
        residual = v - reduced.u1.scaled(c1) - reduced.u2.scaled(c2)
        got = form.norm_sq(residual)

        # independent oracle: raw-integer scan of the coefficient grid
        u1x, u1y = reduced.u1.x, reduced.u1.y
        u2x, u2y = reduced.u2.x, reduced.u2.y
        wx, wy = form.wx, form.wy
        best = None
        for b1 in range(-50, 51):
            rx = v.x - b1 * u1x
            ry = v.y - b1 * u1y
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
    clean = 0
    total = 1000
    t0 = time.perf_counter()
    for i in range(total):
        l, m, q, r = SIZE_LADDER[i % len(SIZE_LADDER)]
        p = l + m - q
        rng = random.Random(10_000 + i)
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        x = rng.randint(1, (1 << m) - 1)
        u = ((x * z) & ((1 << p) - 1)) >> q
        fam = solution_basis(z, p, q, u)
        form = WeightedForm.for_rectangle(1 << m, 1 << q)

        target_det = 1 << p
        state = {"u1": fam.g1, "u2": fam.g2}
        violations = []

        def watch(step, state=state, form=form, target_det=target_det, violations=violations):
            det = step.u1.x * step.u2.y - step.u1.y * step.u2.x
            if abs(det) != target_det:
                violations.append("det")
            replaced = step.u1 if step.target == "u1" else step.u2
            if step.c != 0 and not form.norm_sq(replaced) < form.norm_sq(state[step.target]):
                violations.append("norm")
            state["u1"], state["u2"] = step.u1, step.u2

        reduced, passes = gauss_reduce(
            basis_ints(fam.basis()), p, form.wx, form.wy, on_step=watch
        )
        reduced = lattice_basis(reduced, p, z)
        cross = abs(form.inner(reduced.u1, reduced.u2))
        if 2 * cross > min(form.norm_sq(reduced.u1), form.norm_sq(reduced.u2)):
            violations.append("exit-bound")
        if passes > 64 * p:
            violations.append("iteration-cap")
        clean += not violations
    elapsed = time.perf_counter() - t0
    ok = clean == total
    _report(4, ok, f"reduction invariants {clean}/{total} across sizes up to l=2048 "
            f"in {elapsed:.1f}s")
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
        fam = solution_basis(z, p, q, u)
        b1, b2 = 1 << m, 1 << q
        form = WeightedForm.for_rectangle(b1, b2)
        scaled = WeightedForm(wx=7 * form.wx, wy=7 * form.wy)
        start = basis_ints(fam.basis())
        red_a, it_a = gauss_reduce(start, p, form.wx, form.wy)
        red_b, it_b = gauss_reduce(start, p, scaled.wx, scaled.wy)
        v0 = (fam.v0.x, fam.v0.y)
        hits_a = rect_search(red_a, p, v0, b1, b2)
        hits_b = rect_search(red_b, p, v0, b1, b2)
        identical += (
            (red_a, it_a) == (red_b, it_b)
            and hits_a == hits_b
            and nearest_lattice_point(lattice_basis(red_a, p, z), fam.v0, form)
            == nearest_lattice_point(lattice_basis(red_b, p, z), fam.v0, scaled)
        )
    ok = identical == total
    _report(7, ok, f"weight scaling changes nothing: {identical}/{total}")
    assert ok
