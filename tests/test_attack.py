import os
import random
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncrack.attack
import truncrack.lattice2d
from truncrack import (
    Attacker,
    AttackResult,
    ConstraintViolated,
    InvalidArgument,
    ProtocolParams,
    SearchSpaceExceeded,
    TrialConfig,
    derive_key,
    exchange,
    gen_params,
    run_trials,
    shared_key,
    validate_params,
)
from truncrack.attack import SPARE_BITS, WALK_BOUND
from truncrack.cli import main as cli_main
from truncrack.harness import brute_force_preimages
from truncrack.lattice2d import (
    BOX_CAP,
    box_bound,
    coefficient_box,
    euclid_basis,
    gauss_reduce,
)
from truncrack.paper import is_reduced, solution_basis
from truncrack.protocol import MAX_BITS, check_observables, check_shape, check_token
from test_acceptance import _textbook_gauss_reduce, rect_weights
from test_lattice2d import _reference_rect_search

# The worked deployment (z, p, q, m), and its token as the paper gives it,
# 2^q*u = 708192.
GOLDEN = (6173, 22, 5, 14)
GOLDEN_TOKEN = 708192 >> 5

SRC = Path(__file__).resolve().parent.parent / "src"


def _small_instances(max_p=5, max_m=5):
    """Every (z, p, q, m, u) with p <= max_p, q < p, m <= max_m, z in
    [1, 2^(p+1)) and u in [0, 2^(p-q)): even z, z = 0 mod 2^p, z >= 2^p
    and m < q all occur."""
    for p in range(1, max_p + 1):
        for q in range(p):
            for m in range(1, max_m + 1):
                for z in range(1, 1 << (p + 1)):
                    for u in range(1 << (p - q)):
                        yield z, p, q, m, u


def _draw_token(draw, z, p, q, m):
    """An honest token (of a drawn x < 2^m) or a uniform one."""
    if draw(st.booleans()):
        x = draw(st.integers(0, (1 << m) - 1))
        return ((x * z) & ((1 << p) - 1)) >> q
    return draw(st.integers(0, (1 << (p - q)) - 1))


@st.composite
def alternating_deployments(draw):
    """Tokens of two arbitrary small deployments (z, p, q, m), p <= 12,
    q < p, m <= 10, z in [1, 2^(p+1)), as ((z, p, q, m), u) pairs taking
    turns, one to four tokens each.  The second deployment is the first
    with one of z, p, q, m drawn again, or all of them, so a memo key that
    missed one of them would hand one deployment's Attacker to the other."""
    p = draw(st.integers(1, 12))
    q = draw(st.integers(0, p - 1))
    m = draw(st.integers(1, 10))
    z = draw(st.integers(1, (1 << (p + 1)) - 1))
    first = (z, p, q, m)
    redrawn = draw(st.sampled_from(("z", "p", "q", "m", "all")))
    if redrawn in ("p", "all"):
        p = draw(st.integers(q + 1, 12))
    if redrawn in ("q", "all"):
        q = draw(st.integers(0, p - 1))
    if redrawn in ("m", "all"):
        m = draw(st.integers(1, 10))
    if redrawn in ("z", "all"):
        z = draw(st.integers(1, (1 << (p + 1)) - 1))
    second = (z, p, q, m)
    turns = draw(st.integers(1, 4))
    return [(dep, _draw_token(draw, *dep)) for _ in range(turns) for dep in (first, second)]


@st.composite
def deployments_below_p(draw):
    """A deployment (z, p, q, m) with p <= 24 and m + q + SPARE_BITS < p, so
    that the attack reduces modulo 2^k below 2^p, and one honest or
    uniform token.  z is a draw from [1, 2^(p+1)) shifted left by up to p
    bits, so even z, z = 0 mod 2^k and z >= 2^p all occur; m <= 12 keeps
    the oracle's scan short."""
    p = draw(st.integers(SPARE_BITS + 2, 24))
    q = draw(st.integers(0, p - SPARE_BITS - 2))
    m = draw(st.integers(1, min(p - q - SPARE_BITS - 1, 12)))
    z = draw(st.integers(1, (1 << (p + 1)) - 1)) << draw(st.integers(0, p))
    return (z, p, q, m), _draw_token(draw, z, p, q, m)


@st.composite
def small_deployments(draw):
    """A deployment (z, p, q, m) with p <= 16, q < p, m <= 12 and z a draw
    from [1, 2^(p+1)) shifted left by up to 3 bits, and one honest or
    uniform token: k = p and k < p, and empty, one-pair and many-pair
    boxes all occur."""
    p = draw(st.integers(1, 16))
    q = draw(st.integers(0, p - 1))
    m = draw(st.integers(1, 12))
    z = draw(st.integers(1, (1 << (p + 1)) - 1)) << draw(st.integers(0, 3))
    return (z, p, q, m), _draw_token(draw, z, p, q, m)


@st.composite
def structured_deployments(draw):
    """A deployment (z, p, q, m) with m + q + SPARE_BITS < p <= 24 and
    8 <= m <= 12, whose z is far from generic modulo 2^k,
    k = m + q + SPARE_BITS, and one honest or uniform token.  Either
    z mod 2^k has a 2-adic valuation within 3 of m + q (k itself meaning
    z = 0 mod 2^k), or it lies within 2^(k/4) of a*2^k/b for some b <= 8:
    L_k then has a vector short against the rectangle, and m >= 8 lets
    its box pass WALK_BOUND.  The bits of z above k are drawn, so
    z >= 2^p occurs."""
    m = draw(st.integers(8, 12))
    p = draw(st.integers(m + SPARE_BITS + 1, 24))
    q = draw(st.integers(0, p - m - SPARE_BITS - 1))
    k = m + q + SPARE_BITS
    if draw(st.booleans()):
        v = draw(st.integers(max(m + q - 3, 0), k))
        low = (2 * draw(st.integers(0, 1 << k)) + 1) << v
    else:
        b = draw(st.integers(1, 8))
        noise = 1 << k // 4
        low = draw(st.integers(0, b - 1)) * (1 << k) // b + draw(st.integers(-noise, noise))
    z = draw(st.integers(0, (1 << (p + 1 - k)) - 1)) << k | low & ((1 << k) - 1)
    z = z or 1 << p
    return (z, p, q, m), _draw_token(draw, z, p, q, m)


def _oracle_pairs(z, p, q, m, u):
    """The brute-force preimages as (x, y) pairs, y their low q bits."""
    return [(x, (x * z) & ((1 << q) - 1)) for x in brute_force_preimages(z, p, q, u, m)]


def _frame_modulo(z, modulus, q, m):
    """The box frame of the lattice modulo 2^modulus for the rectangle
    [0, 2^m) x [0, 2^q), from gauss_reduce, and the Euclid quotients plus
    Gauss passes it took."""
    frame, quotients, passes = gauss_reduce(z, modulus, m, q)
    return frame, quotients + passes


def _reference_walk(frame, q, u):
    """The reference walk's hits and pair count over the rectangle of
    gauss_reduce's ``frame``, from the coset point (0, -2^q*u) in its
    basis."""
    basis, _, b1, b2, _ = frame
    return _reference_rect_search(basis, (0, -(u << q)), b1, b2)


def _walk_then_filter(attacker, u):
    """The attack by the reference walk: the hits of the walk over the
    Attacker's basis at u mod 2^(k-q) whose token map is u, and the box's
    pair count, what attack(u) gives as candidates and searched."""
    z, p, q, k = attacker.z, attacker.p, attacker.q, attacker.k
    hits, pairs = _reference_walk(attacker.frame, q, u & ((1 << (k - q)) - 1))
    kept = tuple((x, y) for x, y in hits if ((x * z) & ((1 << p) - 1)) >> q == u)
    return kept, pairs


def _count_reductions(monkeypatch):
    """Wrap the attack's gauss_reduce so that each reduction appends
    log2 |det| of its basis, the modulus k, to the list returned."""
    calls = []

    def counted(z, k, m, q):
        result = gauss_reduce(z, k, m, q)
        x1, y1, x2, y2 = result[0][0]
        calls.append(abs(x1 * y2 - y1 * x2).bit_length() - 1)
        return result

    monkeypatch.setattr(truncrack.attack, "gauss_reduce", counted)
    return calls


def _stop_clocks(monkeypatch):
    """Make every clock of the time module raise when read."""

    def stopped(*args):
        raise AssertionError("a clock was read")

    for name in ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
                 "monotonic_ns", "process_time", "process_time_ns", "thread_time",
                 "thread_time_ns"):
        monkeypatch.setattr(time, name, stopped)


def _assert_same_reduced_basis(ours, theirs, wx, wy):
    """Equal up to sign and order, which a reduced basis is unique up to
    unless 2|<u1,u2>| = min(|u1|^2, |u2|^2); on that tie both must be
    reduced with the same norms."""
    norms = lambda b: sorted(wx * x * x + wy * y * y for x, y in (b[:2], b[2:]))
    x1, y1, x2, y2 = theirs
    if 2 * abs(wx * x1 * x2 + wy * y1 * y2) < norms(theirs)[0]:
        up_to_sign = lambda b: sorted(max((x, y), (-x, -y)) for x, y in (b[:2], b[2:]))
        assert up_to_sign(ours) == up_to_sign(theirs)
    else:
        assert is_reduced(ours, wx, wy) and is_reduced(theirs, wx, wy)
        assert norms(ours) == norms(theirs)


class TestRecoverPreimages:
    """One token through Attacker(z, p, q, m).attack(u)."""

    def test_golden_scaled_token(self):
        result = Attacker(*GOLDEN).attack(GOLDEN_TOKEN)
        assert result.candidates == ((12345, 21),)
        assert result.unique

    def test_token_of_one(self):
        result = Attacker(*GOLDEN).attack(192)
        assert (1, 29) in result.candidates
        assert 6173 - 32 * 192 == 29

    def test_zero_token_keeps_flagged_zero(self):
        result = Attacker(*GOLDEN).attack(0)
        assert (0, 0) in result.candidates

    def test_zero_token_with_m_below_q(self):
        # An honest exchange whose token is 0, with m < q: the low q bits
        # of x*z mod 2^p range over all of [0, 2^q), not [0, 2^m).
        params = gen_params(416, 13, 3, 5, 1)
        t = exchange(416, params)
        assert (t.u, params.m, params.q) == (0, 3, 5)
        result = Attacker(params.z, params.p, params.q, params.m).attack(t.u)
        candidates = [x for x, _ in result.candidates]
        assert t.x in candidates
        assert candidates == brute_force_preimages(params.z, params.p, params.q, t.u, params.m)

    def test_empty_box(self):
        # An instance of the small sweep whose exact box has no row: the
        # walk visits no pair, and the attack returns no candidate.
        z, p, q, m, u = 11, 5, 2, 3, 1
        assert (z, p, q, m, u) in _small_instances()
        frame = gauss_reduce(z, p, m, q)[0]
        lo1, hi1, lo2, hi2 = coefficient_box(frame, u)
        assert (hi1 - lo1 + 1, hi2 - lo2 + 1) == (0, 2)
        assert _reference_walk(frame, q, u) == ([], 0)
        result = Attacker(z, p, q, m).attack(u)
        assert (result.candidates, result.searched) == ((), 0)
        assert brute_force_preimages(z, p, q, u, m) == []

    def test_empty_region(self):
        # u=1 is outside the image of the map for this z (checked by scan)
        assert 1 not in set(brute_force_preimages(677, 15, 3, 1, 8))
        result = Attacker(677, 15, 3, 8).attack(1)
        assert result.candidates == ()
        assert not result.unique

    def test_deterministic(self):
        assert Attacker(*GOLDEN).attack(GOLDEN_TOKEN) == Attacker(*GOLDEN).attack(GOLDEN_TOKEN)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(z=0, p=15, q=3, m=8, token=1),
            dict(z=7, p=3, q=5, m=8, token=1),
            dict(z=7, p=15, q=3, m=8, token=-1),
            dict(z=6173, p=5, q=5, m=14, token=0),  # p == q: every x is a preimage
        ],
    )
    def test_rejects_degenerate(self, kwargs):
        with pytest.raises(InvalidArgument):
            Attacker(kwargs["z"], kwargs["p"], kwargs["q"], kwargs["m"]).attack(kwargs["token"])

    def test_rejects_empty_secret_space(self):
        with pytest.raises(InvalidArgument):
            Attacker(6173, 22, 5, 0).attack(22131)

    def test_rejects_negative_q(self):
        # q < 0 used to reach a shift by q and raise a bare ValueError
        with pytest.raises(InvalidArgument, match="q must be nonnegative"):
            Attacker(6173, 22, -1, 14)
        with pytest.raises(InvalidArgument, match="q must be nonnegative"):
            brute_force_preimages(6173, 22, -1, 0, 3)

    def test_accepts_zero_q(self):
        # q = 0 truncates nothing: u = x*z mod 2^p, and y is always 0
        attacker = Attacker(677, 10, 0, 6)
        for u in (0, 1, 677, (1 << 10) - 1):
            result = attacker.attack(u)
            assert list(result.candidates) == _oracle_pairs(677, 10, 0, 6, u)
        assert attacker.attack(677).candidates == ((1, 0),)

    def test_accepts_multiplier_at_least_modulus(self):
        # m < q gives p = l + m - q < l, so a valid l-bit z is >= 2^p
        params = gen_params(4, 13, 3, 5, 1)
        assert (params.p, params.z) == (11, 5062) and params.z >= 1 << params.p
        t = exchange(4, params)
        result = Attacker(params.z, params.p, params.q, params.m).attack(t.u)
        assert t.x in [x for x, _ in result.candidates]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(token=1 << 17),  # u = 2^(p-q), past the token map's range
        ],
    )
    def test_rejects_token_outside_image(self, kwargs):
        with pytest.raises(InvalidArgument):
            Attacker(*GOLDEN).attack(kwargs["token"])

    def test_loads_no_fractions_or_paper(self):
        # In a fresh interpreter, since pytest itself may import fractions:
        # the command line and a golden attack load neither fractions nor
        # the paper's path, so no Fraction can be built on the attack path;
        # and a fresh import of the paper's path loads no fractions either.
        code = (
            "import sys, truncrack.cli\n"
            "from truncrack import Attacker\n"
            f"result = Attacker{GOLDEN}.attack({GOLDEN_TOKEN})\n"
            "print(result.candidates, result.searched)\n"
            "print(' '.join(m for m in ('fractions', 'truncrack.paper') if m in sys.modules))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        # the exact box holds the one winning pair
        assert done.stdout == "((12345, 21),) 1\n\n"
        done = subprocess.run(
            [sys.executable, "-W", "error", "-c",
             "import sys, truncrack.paper\nprint('fractions' in sys.modules)\n"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "False\n"

    def test_full_scale_token(self):
        params = gen_params(9, 2048, 512, 512, 129)
        t = exchange(9, params)
        result = Attacker(params.z, params.p, params.q, params.m).attack(t.u)
        assert t.x in [x for x, _ in result.candidates]

    def test_matches_exhaustive_oracle(self):
        rng = random.Random(606)
        for _ in range(40):
            l = rng.randint(8, 14)
            r = rng.randint(1, 2)
            q = rng.randint(1, (l - r - 1) // 2)
            m = rng.randint(4, 14)
            params = gen_params(rng.randint(0, 10**6), l, m, q, r)
            if rng.random() < 0.75:
                x = rng.randint(1, (1 << m) - 1)
                token = ((x * params.z) & ((1 << params.p) - 1)) >> params.q
            else:
                token = rng.randint(0, (1 << (params.p - params.q)) - 1)
            result = Attacker(params.z, params.p, params.q, m).attack(token)
            expected = brute_force_preimages(params.z, params.p, params.q, token, m)
            assert [x for x, _ in result.candidates] == expected

    def test_exhaustive_small_sweep(self):
        # The frame's basis is the reduced lattice modulo 2^k, which is
        # below 2^p at p = 5 with m + q < 2.
        for z, p, q, m, u in _small_instances():
            attacker = Attacker(z, p, q, m)
            result = attacker.attack(u)
            expected = brute_force_preimages(z, p, q, u, m)
            assert [x for x, _ in result.candidates] == expected
            assert result.reduce_iterations == attacker.reduce_iterations
            k = min(p, m + q + SPARE_BITS)
            wx, wy = rect_weights(1 << m, 1 << q)
            _, basis = solution_basis(z, k, q, u)
            theirs, _ = _textbook_gauss_reduce(basis, wx, wy)
            _assert_same_reduced_basis(attacker.frame[0], theirs, wx, wy)

    @settings(max_examples=300, deadline=None)
    @given(case=alternating_deployments())
    def test_sound_and_complete_on_small_instances(self, case):
        # Against the unfiltered oracle, so an unsound candidate shows here
        # as well as a missed one.
        for (z, p, q, m), u in case:
            attacker = Attacker(z, p, q, m)
            result = attacker.attack(u)
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            assert result.reduce_iterations == attacker.reduce_iterations

    def test_candidates_lie_in_region_and_solve_congruence(self):
        z, p, q, m = GOLDEN
        u = GOLDEN_TOKEN
        for x, y in Attacker(*GOLDEN).attack(u).candidates:
            assert 0 <= x < 1 << m
            assert 0 <= y < 1 << q
            assert (x * z - ((u << q) + y)) % (1 << p) == 0


# Toy deployments (z, p, q, m) for the batch gate: odd z below 2^p, even
# z, z = 0 mod 2^p, odd and even z >= 2^p, and m < q with odd and even z.
BATCH_DEPLOYMENTS = [
    (677, 11, 3, 8),
    (52, 9, 2, 6),
    (384, 7, 2, 4),
    (1357, 10, 3, 5),
    (1500, 10, 2, 6),
    (77, 9, 4, 2),
    (90, 8, 4, 3),
]


class TestAttacker:
    def test_batch_matches_oracle_and_fresh_attack(self):
        # Every token of each deployment through one Attacker, against the
        # unfiltered oracle and against a fresh Attacker per token.
        for z, p, q, m in BATCH_DEPLOYMENTS:
            attacker = Attacker(z, p, q, m)
            for u in range(1 << (p - q)):
                result = attacker.attack(u)
                assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
                assert result == Attacker(z, p, q, m).attack(u)

    def test_batch_full_scale(self):
        # Honest exchanges on one l=2048 deployment: the secret on every
        # token, and the outputs of a fresh Attacker.
        params = gen_params(1605, 2048, 512, 512, 129)
        attacker = Attacker(params.z, params.p, params.q, params.m)
        for seed in range(4):
            t = exchange(seed, params)
            result = attacker.attack(t.u)
            assert t.x in [x for x, _ in result.candidates]
            fresh = Attacker(params.z, params.p, params.q, params.m).attack(t.u)
            assert result == fresh

    def test_attack_changes_nothing(self):
        attacker = Attacker(6173, 22, 5, 14)
        before = {name: getattr(attacker, name) for name in Attacker.__slots__}
        for u in (22131, 0, 192, (1 << 17) - 1):
            attacker.attack(u)
        with pytest.raises(InvalidArgument):
            attacker.attack(1 << 17)
        assert {name: getattr(attacker, name) for name in Attacker.__slots__} == before
        with pytest.raises(AttributeError):
            attacker.cache = {}

    def test_reduces_once_per_deployment(self, monkeypatch):
        calls = _count_reductions(monkeypatch)
        golden = Attacker(*GOLDEN)
        for u in range(40):
            golden.attack(u)
        assert calls == [22]
        # (p, q, m) = (15, 3, 8) reduces modulo 2^14: m + q + SPARE_BITS < p
        other = Attacker(677, 15, 3, 8)
        for u in range(3):
            other.attack(u)
            golden.attack(u)
        assert calls == [22, 14]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(z=0, p=15, q=3, m=8),
            dict(z=7, p=3, q=5, m=8),
            dict(z=6173, p=5, q=5, m=14),
            dict(z=6173, p=22, q=5, m=0),
        ],
    )
    def test_rejects_degenerate_deployment(self, kwargs):
        with pytest.raises(InvalidArgument):
            Attacker(**kwargs)

    def test_frame_is_the_reduced_basis_frame(self):
        attacker = Attacker(6173, 22, 5, 14)
        assert attacker.frame == gauss_reduce(6173, 22, 14, 5)[0]

    @settings(max_examples=300, deadline=None)
    @given(case=small_deployments() | deployments_below_p() | structured_deployments())
    def test_frame_is_gauss_reduce_frame_at_k(self, case):
        # k = p and k < p, and the fallback to p past WALK_BOUND
        (z, p, q, m), _ = case
        attacker = Attacker(z, p, q, m)
        assert attacker.frame == gauss_reduce(z, attacker.k, m, q)[0]


# Toy deployments (z, p, q, m) with m + q + SPARE_BITS < p, each attacked
# modulo 2^k below 2^p: z = 0 mod 2^k but not mod 2^p (an odd multiple of
# 2^k, 2^k itself, and one >= 2^p), odd and even z >= 2^p, and m < q with
# odd z, even z >= 2^p and z = 0 mod 2^k.
BELOW_P_DEPLOYMENTS = [
    (3 << 8, 12, 3, 2),
    (1 << 8, 12, 3, 2),
    ((3 << 8) + (1 << 12), 12, 3, 2),
    (5077, 12, 3, 2),
    (5078, 12, 3, 2),
    (677, 14, 5, 2),
    (20000, 14, 5, 2),
    (3 << 10, 14, 5, 2),
]


class TestResultIsValue:
    def test_result_holds_no_time(self):
        assert AttackResult._fields == ("candidates", "unique", "reduce_iterations", "searched")
        assert "reduce_time_ns" not in Attacker.__slots__
        assert "time" not in vars(truncrack.attack) and "time" not in vars(truncrack.lattice2d)

    def test_fresh_attackers_give_equal_results(self):
        # A seeded sweep of toy deployments, every token of each; m <= 6
        # keeps every box small.
        rng = random.Random(1905)
        for _ in range(40):
            p = rng.randint(2, 10)
            q, m = rng.randint(0, p - 1), rng.randint(1, 6)
            z = rng.randrange(1, 1 << (p + 1))
            first, second = Attacker(z, p, q, m), Attacker(z, p, q, m)
            for u in range(1 << (p - q)):
                assert first.attack(u) == second.attack(u)

    def test_fresh_attackers_give_equal_results_full_scale(self):
        params = gen_params(2207, 2048, 512, 512, 129)
        deployment = (params.z, params.p, params.q, params.m)
        first, second = Attacker(*deployment), Attacker(*deployment)
        tokens = [exchange(seed, params).u for seed in range(3)] + [(1 << 1536) - 1]
        for u in tokens:
            assert first.attack(u) == second.attack(u)

    def test_attack_path_reads_no_clock(self, monkeypatch):
        _stop_clocks(monkeypatch)
        attacker = Attacker(*GOLDEN)
        result = attacker.attack(GOLDEN_TOKEN)
        assert result.candidates == ((12345, 21),)
        assert attacker.attack(GOLDEN_TOKEN) == result


class TestModulusBelowP:
    """The attack reduces modulo 2^k, k = min(p, m + q + SPARE_BITS), walks
    the coset of L_k and keeps the hits whose full token map is u."""

    def test_filter_keeps_exactly_the_preimages(self):
        # Against the oracle on drawn deployments with k < p; over the run
        # the filter must drop some walk hit, or it was never exercised.
        # A drawn z = 0 mod 2^k (say) puts up to 2^m pairs in the k-box,
        # and past WALK_BOUND the Attacker reduces modulo 2^p instead.
        dropped = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(case=deployments_below_p())
        def check(case):
            (z, p, q, m), u = case
            attacker = Attacker(z, p, q, m)
            k = attacker.k
            if k == p:
                frame, _ = _frame_modulo(z, m + q + SPARE_BITS, q, m)
                assert box_bound(frame) > WALK_BOUND
            else:
                assert k == m + q + SPARE_BITS < p
            result = attacker.attack(u)
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            hits, searched = _reference_walk(attacker.frame, q, u & ((1 << (k - q)) - 1))
            assert searched == result.searched
            assert set(result.candidates) <= set(hits)
            assert (result.candidates, result.searched) == _walk_then_filter(attacker, u)
            dropped.append(len(hits) - len(result.candidates))

        check()
        assert any(dropped)

    def test_every_token_of_edge_deployments(self):
        # Every token of each deployment, against the oracle and against
        # a fresh Attacker per token; z = 0 mod 2^k puts 2^m
        # walk hits on each token whose low k - q bits are 0, and the
        # filter keeps those of the token alone.
        for z, p, q, m in BELOW_P_DEPLOYMENTS:
            attacker = Attacker(z, p, q, m)
            k = attacker.k
            assert k == m + q + SPARE_BITS < p
            dropped = 0
            for u in range(1 << (p - q)):
                result = attacker.attack(u)
                assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
                assert result == Attacker(z, p, q, m).attack(u)
                hits, _ = _reference_walk(attacker.frame, q, u & ((1 << (k - q)) - 1))
                assert (result.candidates, result.searched) == _walk_then_filter(attacker, u)
                dropped += len(hits) - len(result.candidates)
            if z & ((1 << k) - 1) == 0:
                assert dropped > 0

    @pytest.mark.parametrize("m, q", [(512, 512), (1024, 16), (256, 512)])
    def test_full_scale_matches_walk_modulo_2p(self, m, q):
        # One l=2048 deployment per (m, q), the skewed form and m < q
        # included: on 20 honest and 20 uniform tokens the candidates are
        # the hits of the walk over the lattice modulo 2^p, reduced and
        # framed here by gauss_reduce at p.
        rng = random.Random(3 * m + q)
        l = 2048
        p = l + m - q
        b1, b2 = 1 << m, 1 << q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        attacker = Attacker(z, p, q, m)
        assert attacker.k == m + q + SPARE_BITS < p
        reference = gauss_reduce(z, p, m, q)[0]
        secrets = [rng.randint(1, b1 - 1) for _ in range(20)]
        honest = [((x * z) & ((1 << p) - 1)) >> q for x in secrets]
        uniform = [rng.randint(0, (1 << (p - q)) - 1) for _ in range(20)]
        for u in honest + uniform:
            hits, _ = _reference_walk(reference, q, u)
            result = attacker.attack(u)
            assert list(result.candidates) == hits
            assert (result.candidates, result.searched) == _walk_then_filter(attacker, u)
        for x, u in zip(secrets, honest):
            assert x in [c for c, _ in attacker.attack(u).candidates]

    @pytest.mark.parametrize("low", [0, 3])
    def test_crowded_coset_falls_back_to_2p(self, low):
        # z = low (mod 2^k) at l=2048, m = q = 512: L_k holds (2^(k-v), 0)
        # or (1, 3), its coset crowds the rectangle, and its box could hold
        # more than BOX_CAP pairs where the lattice modulo 2^p has one.  The
        # Attacker then reduces modulo 2^p as well, and its candidates are
        # that walk's hits on 10 honest and 10 uniform tokens.
        rng = random.Random(1027 + low)
        l = p = 2048
        m = q = 512
        k = m + q + SPARE_BITS
        b1, b2 = 1 << m, 1 << q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1 - k) << k | low
        if low == 0:
            z |= 1 << k
        counts = []
        frames = []
        for modulus in (k, p):
            frame, quotients, passes = gauss_reduce(z, modulus, m, q)
            counts.append(quotients + passes)
            frames.append(frame)
        assert box_bound(frames[0]) > BOX_CAP
        attacker = Attacker(z, p, q, m)
        assert attacker.k == p and attacker.reduce_iterations == sum(counts)
        assert attacker.frame == frames[1]
        secrets = [rng.randint(1, b1 - 1) for _ in range(10)]
        honest = [((x * z) & ((1 << p) - 1)) >> q for x in secrets]
        uniform = [rng.randint(0, (1 << (p - q)) - 1) for _ in range(10)]
        for u in honest + uniform:
            assert list(attacker.attack(u).candidates) == _reference_walk(frames[1], q, u)[0]
        for x, u in zip(secrets, honest):
            assert x in [c for c, _ in attacker.attack(u).candidates]

    def test_euclid_quotients_track_lochs(self, monkeypatch):
        # Lochs' constant: a quotient takes pi^2 / (12 ln 2) = 1.71 bits
        # off the remainders, so Euclid from 2^k down to its floor 2^f
        # takes about 0.584*(k - f) quotients, k = m + q + SPARE_BITS, not
        # p.  101 seeded deployments per size at m = q = l/4 (f =
        # (k + 1) // 2): over 30 disjoint sets of 101 seeds the median
        # stayed within 1.8% (l = 512) to 0.6% (l = 4096) of it.
        counts = []

        def counted(z, k, m, q):
            start, quotients = euclid_basis(z, k, m, q)
            counts.append((k, quotients))
            return start, quotients

        monkeypatch.setattr(truncrack.lattice2d, "euclid_basis", counted)
        for l in (512, 1024, 2048, 4096):
            m = q = l // 4
            k = m + q + SPARE_BITS
            predicted = 0.584 * (k - (k + 1) // 2)
            counts.clear()
            for seed in range(101):
                params = gen_params(seed, l, m, q, 129)
                Attacker(params.z, params.p, q, m)
            assert {modulus for modulus, _ in counts} == {k}
            median = statistics.median(quotients for _, quotients in counts)
            assert abs(median - predicted) <= 0.03 * predicted, (l, median, predicted)


class TestFusedWalk:
    """Attacker.attack walks the frame's box itself and filters each hit
    as it comes; test_lattice2d._reference_rect_search, which multiplies
    each point out of an independently built box, is the reference walk
    it must match (see also TestModulusBelowP, which compares the two
    too)."""

    def test_matches_walk_then_filter(self):
        seen = set()

        @settings(max_examples=500, deadline=None, derandomize=True)
        @given(case=small_deployments())
        def check(case):
            (z, p, q, m), u = case
            attacker = Attacker(z, p, q, m)
            result = attacker.attack(u)
            assert (result.candidates, result.searched) == _walk_then_filter(attacker, u)
            assert result.unique == (len(result.candidates) == 1)
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            seen.add("k=p" if attacker.k == p else "k<p")
            seen.add(min(result.searched, 2))

        check()
        assert seen == {"k=p", "k<p", 0, 1, 2}

    def test_box_over_cap_refused_before_walk(self, tmp_path, monkeypatch):
        # m = 38 on the worked deployment: k = p = 22, and the box holds
        # about 2^(m+q-p) = 2^21 pairs, past BOX_CAP = 2^20, as the
        # reference walk counts them too.  The Attacker refuses it before
        # its walk: the walk's loops would call range, patched here to fail.
        attacker = Attacker(6173, 22, 5, 38)
        assert attacker.k == 22
        with pytest.raises(SearchSpaceExceeded):
            _reference_walk(attacker.frame, 5, 22131)

        def stopped(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(truncrack.attack, "range", stopped, raising=False)
        with pytest.raises(SearchSpaceExceeded) as fused:
            attacker.attack(22131)
        assert str(fused.value) == f"coefficient box holds about 2^21 pairs (cap {BOX_CAP})"
        path = tmp_path / "toy.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        assert cli_main(["attack", "--params", str(path), "--token", "22131", "--m", "38"]) == 3


class TestWalkBound:
    """Past WALK_BOUND pairs in the box modulo 2^k, the Attacker reduces
    modulo 2^p as well, so a z far from generic walks no huge box."""

    @pytest.mark.parametrize("v, k, searched", [(516, 1027, 3), (530, 2048, 1), (534, 2048, 1)])
    def test_structured_z_full_scale(self, v, k, searched):
        # gen_params(7, 2048, 512, 512, 129) with z replaced by odd*2^v,
        # its top bit kept.  Without the bound, v = 530 and 534 walked
        # 32,769 and 524,289 pairs a token modulo 2^1027.
        params = gen_params(7, 2048, 512, 512, 129)
        p, q, m = params.p, params.q, params.m
        z = ((params.z >> v | 1) << v) | 1 << (params.l - 1)
        assert (z & -z).bit_length() - 1 == v and z.bit_length() == params.l
        kframe, k_iterations = _frame_modulo(z, m + q + SPARE_BITS, q, m)
        pframe, p_iterations = _frame_modulo(z, p, q, m)
        attacker = Attacker(z, p, q, m)
        assert attacker.k == k
        if k == p:
            assert box_bound(kframe) > WALK_BOUND
            assert attacker.frame == pframe
            assert attacker.reduce_iterations == k_iterations + p_iterations
        else:
            assert box_bound(kframe) <= WALK_BOUND
            assert attacker.frame == kframe
        x = (1 << 511) + 12345
        secret = ((x * z) & ((1 << p) - 1)) >> q
        rng = random.Random(v)
        for u in [secret] + [rng.randint(0, (1 << (p - q)) - 1) for _ in range(5)]:
            result = attacker.attack(u)
            assert list(result.candidates) == _reference_walk(pframe, q, u)[0]
            assert (result.candidates, result.searched) == _walk_then_filter(attacker, u)
        assert attacker.attack(secret).searched == searched
        assert x in [c for c, _ in attacker.attack(secret).candidates]

    def test_structured_z_walks_at_most_the_bound(self):
        # Against the oracle on structured toy deployments: a box modulo
        # 2^k is walked only when it holds at most WALK_BOUND pairs, and
        # both outcomes occur over the run.
        fell_back = []

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(case=structured_deployments())
        def check(case):
            (z, p, q, m), u = case
            attacker = Attacker(z, p, q, m)
            result = attacker.attack(u)
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            kframe, _ = _frame_modulo(z, m + q + SPARE_BITS, q, m)
            pframe, _ = _frame_modulo(z, p, q, m)
            fell_back.append(attacker.k == p)
            assert (box_bound(kframe) > WALK_BOUND) == (attacker.k == p)
            assert result.searched <= max(WALK_BOUND, box_bound(pframe))

        check()
        assert any(fell_back) and not all(fell_back)


class TestMessageSizes:
    """An out-of-range value reads as its bit length once it is longer
    than 64 bits, so the message stays short and can always be built."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_check_token(self, sign):
        with pytest.raises(InvalidArgument) as info:
            check_token(sign * (1 << 20000), 22, 5)
        negative = "negative " if sign < 0 else ""
        assert str(info.value) == (
            f"token must be in [0, 2^(p-q)) (p-q=17), got a {negative}20001-bit integer"
        )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_check_observables(self, sign):
        huge = sign * (1 << 20000)
        text = f"a {'negative ' if sign < 0 else ''}20001-bit integer"
        cases = [
            ((huge, 22, 5, 14), "z must be positive, got " + text) if sign < 0 else None,
            ((6173, 22, huge, 14), "q must be nonnegative, got " + text) if sign < 0 else None,
            ((6173, 22, huge, 14), f"p must exceed q, got p=22 q={text}") if sign > 0 else None,
            ((6173, huge, 5, 14), f"p must exceed q, got p={text} q=5") if sign < 0 else None,
            ((6173, 22, 5, huge), "m must be at least 1, got " + text) if sign < 0 else None,
        ]
        for args, message in filter(None, cases):
            with pytest.raises(InvalidArgument) as info:
                check_observables(*args)
            assert str(info.value) == message

    @pytest.mark.parametrize("sign", [1, -1])
    def test_gauss_reduce_refusals(self, sign):
        # q is refused before the shift by p - q, and m before the shifts
        # by it, which at 2^20000 could not be made
        text = f"a {'negative ' if sign < 0 else ''}20001-bit integer"
        in_range = f"p, m and q must be in [0, {MAX_BITS}], got p=22"
        with pytest.raises(InvalidArgument) as info:
            gauss_reduce(6173, 22, 14, sign * (1 << 20000))
        if sign > 0:
            assert str(info.value) == f"q must be below p, got q={text} p=22"
        else:
            assert str(info.value) == f"{in_range} m=14 q={text}"
        with pytest.raises(InvalidArgument) as info:
            gauss_reduce(6173, 22, sign * (1 << 20000), 5)
        assert str(info.value) == f"{in_range} m={text} q=5"
        assert len(str(info.value).encode()) < 200

    @pytest.mark.parametrize("sign", [1, -1])
    def test_validate_params(self, sign):
        huge = sign * (1 << 20000)
        text = f"a {'negative ' if sign < 0 else ''}20001-bit integer"
        toy = dict(l=13, m=14, p=22, q=5, r=2, z=6173)
        cases = [
            (dict(z=huge), f"2^(l-1)<=z<2^l (z={text} is not exactly 13 bits)"),
            (dict(m=huge), f"p+q=l+m (22+5 != 13+{text})") if sign > 0 else None,
            (dict(r=huge), f"p>m+q+r (22 <= 14+5+{text})") if sign > 0 else None,
            (dict(q=huge), f"q>=1 (q={text})") if sign < 0 else None,
        ]
        for change, detail in filter(None, cases):
            with pytest.raises(ConstraintViolated) as info:
                validate_params(ProtocolParams(**{**toy, **change}))
            assert str(info.value) == f"constraint violated: {detail}"

    def test_solution_basis(self):
        text = "a negative 20001-bit integer"
        huge = -(1 << 20000)
        cases = [
            ((huge, 22, 5, 0), "z must be positive, got " + text),
            ((6173, huge, 5, 0), "p must be at least 1, got " + text),
            ((6173, -huge, 5, 0), f"p must be at most {MAX_BITS}, got a 20001-bit integer"),
            ((6173, 22, huge, 0), f"q must be in [0, {MAX_BITS}], got " + text),
            ((6173, 22, -huge, 0), f"q must be in [0, {MAX_BITS}], got a 20001-bit integer"),
            ((6173, 22, 5, huge), "u must be nonnegative, got " + text),
        ]
        for args, message in cases:
            with pytest.raises(InvalidArgument) as info:
                solution_basis(*args)
            assert str(info.value) == message

    def test_short_values_print_in_full(self):
        with pytest.raises(InvalidArgument, match=r"got -18446744073709551615$"):
            check_token(-(1 << 64) + 1, 22, 5)
        with pytest.raises(InvalidArgument, match=r"got 131072$"):
            check_token(1 << 17, 22, 5)

    @pytest.mark.parametrize(
        "l, text", [(-(1 << 20000), "a negative 20001-bit integer"), (0, "0")], ids=["huge", "zero"]
    )
    def test_check_shape(self, l, text):
        for check in (check_shape, lambda *shape: gen_params(1, *shape)):
            with pytest.raises(ConstraintViolated) as info:
                check(l, 14, 5, 2)
            assert str(info.value) == f"constraint violated: l>=1 (l={text})"

    MODE_TEXT = "mode must be one of ('attack', 'exchange', 'oracle-check'),"
    # CPython prints an int of at most 4,300 digits, so no seed may have more
    SEED_TEXT = "seeds must have at most 4300 digits,"

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(trials=-(1 << 20000)), "trials must be at least 1, got a negative 20001-bit integer"),
            (dict(trials=0), "trials must be at least 1, got 0"),
            (dict(mode="x" * 5000), f"{MODE_TEXT} got {'x' * 20!r}... (5000 characters)"),
            (dict(mode="nope"), f"{MODE_TEXT} got 'nope'"),
            (dict(seed_base=10**4300), f"{SEED_TEXT} got a 14285-bit integer"),
            (dict(seed_base=10**4300 - 1, trials=2), f"{SEED_TEXT} got a 14285-bit integer"),
            (dict(seed_base=-(10**4300)), f"{SEED_TEXT} got a negative 14285-bit integer"),
        ],
        ids=[
            "huge-trials", "zero-trials", "long-mode", "short-mode",
            "long-first-seed", "long-last-seed", "long-negative-seed",
        ],
    )
    def test_trial_config(self, change, message):
        cfg = dict(seed_base=0, trials=1, l=13, m=14, q=5, r=2)
        with pytest.raises(InvalidArgument) as info:
            run_trials(TrialConfig(**{**cfg, **change}))
        assert str(info.value) == message


class TestPackageRoot:
    def test_exports_exactly_the_public_names(self):
        # Attacker and its result, the protocol, the trial harness and the
        # errors these raise; the lattice machinery is truncrack.lattice2d's.
        names = {
            name
            for name, value in vars(truncrack).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
        }
        assert names == {
            "Attacker", "AttackResult",
            "ExchangeTranscript", "ProtocolParams", "classify", "derive_key", "dump_params",
            "exchange", "gen_params", "load_params", "parse_params", "save_params", "shared_key",
            "trunc_f", "validate_params",
            "TrialConfig", "TrialRecord", "brute_force_preimages", "format_csv", "run_trials",
            "write_csv",
            "ToolkitError", "ConstraintViolated", "InvalidArgument", "SearchSpaceExceeded",
            "OracleTooLarge",
        }
        assert len(names) == 26

    def test_invalid_argument_is_a_value_error(self):
        # one class for every refused argument, which callers that catch
        # ValueError (argparse among them) still catch
        assert issubclass(InvalidArgument, truncrack.ToolkitError)
        assert issubclass(InvalidArgument, ValueError)


class TestRecoverSharedKey:
    """An eavesdropper's key: protocol.shared_key on each candidate of
    Attacker.attack, as the command line and the trial harness derive it."""

    def test_end_to_end_toy_seed(self):
        params = gen_params(1, 13, 14, 5, 2)
        t = exchange(1, params)
        result = Attacker(params.z, params.p, params.q, params.m).attack(t.u)
        keys = [(x, shared_key(x, t.v, params)) for x, _ in result.candidates]
        assert (t.x, t.w_a) in keys
        assert t.agree  # recorded: this seed's honest parties agree
        assert any(key == t.w_b for _, key in keys)

    def test_candidate_equal_to_secret_gives_honest_key(self):
        params = gen_params(3, 13, 14, 5, 2)
        t = exchange(3, params)
        assert derive_key(t.x, t.v, params.p, params.q, params.r, params.m) == shared_key(
            t.x, t.v, params
        )


class TestAttackerMemo:
    """The adapter that perfbench/run.py times, and nothing else calls:
    recover_preimages and recover_shared_key take an AttackInput, and the
    Attacker comes from the one-entry memo truncrack.attack._attacker,
    keyed on (z, p, q, m).  Every test that reaches the attack through
    the adapter is in this class."""

    @staticmethod
    def recover(z, p, q, m, token):
        """recover_preimages on the AttackInput of a deployment and a token."""
        return truncrack.attack.recover_preimages(truncrack.attack.AttackInput(z, p, q, m, token))

    def test_holds_one_deployment(self):
        memo = truncrack.attack._attacker
        memo.cache_clear()
        for i in range(50):
            self.recover(6173 + 2 * i, 22, 5, 14, 22131)
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize, info.maxsize) == (50, 0, 1, 1)

    def test_reduces_once_per_deployment(self, monkeypatch):
        # Two deployments taking turns evict each other, so each turn
        # reduces again.
        calls = _count_reductions(monkeypatch)
        truncrack.attack._attacker.cache_clear()
        for u in range(40):
            self.recover(*GOLDEN, u)
        assert calls == [22]
        # (p, q, m) = (15, 3, 8) reduces modulo 2^14: m + q + SPARE_BITS < p
        for u in range(3):
            self.recover(677, 15, 3, 8, u)
            self.recover(*GOLDEN, u)
        assert calls == [22] + [14, 22] * 3
        truncrack.attack._attacker.cache_clear()

    @settings(max_examples=300, deadline=None)
    @given(case=alternating_deployments())
    def test_matches_a_fresh_attacker(self, case):
        # The two deployments take turns through the memo, so a stale
        # Attacker, or a key that missed one of z, p, q, m, would show.
        for deployment, u in case:
            assert self.recover(*deployment, u) == Attacker(*deployment).attack(u)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(z=0, p=22, q=5, m=14, token=1),
            dict(z=6173, p=5, q=5, m=14, token=0),
            dict(z=6173, p=22, q=5, m=0, token=22131),
        ],
    )
    def test_rejected_deployment_is_not_cached(self, kwargs):
        memo = truncrack.attack._attacker
        memo.cache_clear()
        self.recover(*GOLDEN, GOLDEN_TOKEN)
        with pytest.raises(InvalidArgument):
            self.recover(**kwargs)
        info = memo.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 1)
        assert self.recover(*GOLDEN, GOLDEN_TOKEN).candidates == ((12345, 21),)
        assert memo.cache_info().hits == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(token=1 << 17),
            dict(token=-1),
        ],
    )
    def test_bad_token_on_cached_deployment_rejected(self, kwargs):
        truncrack.attack._attacker.cache_clear()
        self.recover(*GOLDEN, GOLDEN_TOKEN)
        with pytest.raises(InvalidArgument):
            self.recover(*GOLDEN, **kwargs)
        assert truncrack.attack._attacker.cache_info().currsize == 1

    def test_hit_reports_what_the_miss_did(self):
        memo = truncrack.attack._attacker
        memo.cache_clear()
        miss = self.recover(*GOLDEN, GOLDEN_TOKEN)
        hit = self.recover(*GOLDEN, GOLDEN_TOKEN)
        info = memo.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert hit == miss
        assert miss.reduce_iterations == Attacker(*GOLDEN).reduce_iterations == 7

    def test_harness_and_cli_leave_memo_alone(self, tmp_path, capsys):
        # Both build their own Attacker: the memo is recover_preimages'.
        memo = truncrack.attack._attacker
        path = tmp_path / "toy.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        memo.cache_clear()
        self.recover(*GOLDEN, GOLDEN_TOKEN)
        before = memo.cache_info()
        cfg = TrialConfig(seed_base=31, trials=3, l=13, m=14, q=5, r=2, mode="oracle-check")
        assert all(record.error == "" for record in run_trials(cfg))
        argv = ["attack", "--params", str(path), "--token", "31370", "--other-token", "94914"]
        assert cli_main(argv) == 0
        assert cli_main([*argv, "--m", "20"]) == 0
        capsys.readouterr()
        assert memo.cache_info() == before
        memo.cache_clear()

    def test_reads_no_clock(self, monkeypatch):
        _stop_clocks(monkeypatch)
        truncrack.attack._attacker.cache_clear()
        inp = truncrack.attack.AttackInput(*GOLDEN, GOLDEN_TOKEN)
        result = truncrack.attack.recover_preimages(inp)
        assert truncrack.attack.recover_preimages(inp) == result
        assert truncrack.attack.recover_shared_key(inp, 124172, 2, result) == [
            (12345, derive_key(12345, 124172, 22, 5, 2, 14))
        ]
        truncrack.attack._attacker.cache_clear()

    def test_perfbench_calls(self, monkeypatch):
        # The calls perfbench/run.py makes, in its shape: keyword
        # AttackInput, recover_preimages, recover_shared_key with result=,
        # and the four output fields it reads.  Its tracer wraps the
        # attack's gauss_reduce and coefficient_box, so each must still be
        # looked up there, and the whole reduction, Euclid included, must
        # run inside the gauss_reduce span.  Each call is recorded with
        # the wrapped calls it runs inside.
        calls = []
        stack = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append((name, tuple(stack)))
                stack.append(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    stack.pop()

            monkeypatch.setattr(module, name, wrapper)

        attack = truncrack.attack
        counted(attack, "gauss_reduce")
        counted(attack, "coefficient_box")
        counted(truncrack.lattice2d, "euclid_basis")
        attack._attacker.cache_clear()
        params = gen_params(1, 13, 14, 5, 2)
        t = exchange(1, params)
        inp = attack.AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        result = attack.recover_preimages(inp)
        keys = attack.recover_shared_key(inp, t.v, params.r, result=result) if result.candidates else []
        assert t.x in [x for x, _ in result.candidates] and (t.x, t.w_a) in keys
        assert result.unique == (len(result.candidates) == 1)
        assert result.reduce_iterations > 0 and result.searched >= len(result.candidates)
        assert sorted(set(calls)) == [
            ("coefficient_box", ()),
            ("euclid_basis", ("gauss_reduce",)),
            ("gauss_reduce", ()),
        ]
        attack._attacker.cache_clear()

    def test_no_candidates(self):
        inp = truncrack.attack.AttackInput(z=677, p=15, q=3, m=8, token=1)
        result = truncrack.attack.recover_preimages(inp)
        assert result.candidates == ()
        assert truncrack.attack.recover_shared_key(inp, 5, 1, result=result) == []

    @pytest.mark.parametrize("other_token", [1 << 17, 99999999999, -1])
    def test_rejects_peer_token_outside_image(self, other_token):
        # the peer's token must lie in [0, 2^(p-q)) = [0, 2^17), like ours
        recover_shared_key = truncrack.attack.recover_shared_key
        golden = truncrack.attack.AttackInput(*GOLDEN, GOLDEN_TOKEN)
        with pytest.raises(InvalidArgument):
            recover_shared_key(golden, other_token, 2, result=self.recover(*GOLDEN, GOLDEN_TOKEN))
        # checked on an empty result too, which would otherwise give []
        empty = truncrack.attack.AttackInput(z=677, p=15, q=3, m=8, token=1)
        with pytest.raises(InvalidArgument):
            recover_shared_key(empty, other_token, 1, result=self.recover(677, 15, 3, 8, 1))

    def test_reuses_precomputed_result(self):
        inp = truncrack.attack.AttackInput(*GOLDEN, GOLDEN_TOKEN)
        result = truncrack.attack.recover_preimages(inp)
        keys = truncrack.attack.recover_shared_key(inp, 124172, 2, result=result)
        assert keys == [(12345, derive_key(12345, 124172, 22, 5, 2, 14))]
