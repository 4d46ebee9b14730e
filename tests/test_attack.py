import random
import statistics
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncrack.attack
import truncrack.lattice2d
from truncrack import (
    Attacker,
    ConstraintViolated,
    DegenerateInput,
    NoCandidates,
    ProtocolParams,
    SingularBasis,
    TrialConfig,
    box_frame,
    derive_key,
    exchange,
    gauss_reduce,
    gen_params,
    rect_search,
    run_trials,
    shared_key,
    solution_basis,
    validate_params,
)
from truncrack.attack import (
    SPARE_BITS,
    AttackInput,
    AttackResult,
    _attacker,
    check_observables,
    check_token,
    recover_preimages,
    recover_shared_key,
)
from truncrack.cli import main as cli_main
from truncrack.harness import brute_force_preimages
from truncrack.lattice2d import BOX_CAP, box_bound, coefficient_box, euclid_basis, is_reduced
from test_acceptance import rect_weights

# The worked instance's token as the paper gives it, 2^q*u = 708192.
GOLDEN = AttackInput(z=6173, p=22, q=5, m=14, token=708192 >> 5)


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


def _oracle_pairs(z, p, q, m, u):
    """The brute-force preimages as (x, y) pairs, y their low q bits."""
    return [(x, (x * z) & ((1 << q) - 1)) for x in brute_force_preimages(z, p, q, u, m)]


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
    def test_golden_scaled_token(self):
        result = recover_preimages(GOLDEN)
        assert result.candidates == ((12345, 21),)
        assert result.unique

    def test_token_of_one(self):
        result = recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, token=192))
        assert (1, 29) in result.candidates
        assert 6173 - 32 * 192 == 29

    def test_zero_token_keeps_flagged_zero(self):
        result = recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, token=0))
        assert (0, 0) in result.candidates

    def test_zero_token_with_m_below_q(self):
        # An honest exchange whose token is 0, with m < q: the low q bits
        # of x*z mod 2^p range over all of [0, 2^q), not [0, 2^m).
        params = gen_params(416, 13, 3, 5, 1)
        t = exchange(416, params)
        assert (t.u, params.m, params.q) == (0, 3, 5)
        result = recover_preimages(
            AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        )
        candidates = [x for x, _ in result.candidates]
        assert t.x in candidates
        assert candidates == brute_force_preimages(params.z, params.p, params.q, t.u, params.m)

    def test_empty_box(self):
        # An instance of the small sweep whose exact box has no row: the
        # walk visits no pair, and the attack returns no candidate.
        z, p, q, m, u = 11, 5, 2, 3, 1
        assert (z, p, q, m, u) in _small_instances()
        b1, b2 = 1 << m, 1 << q
        start, _ = euclid_basis(z, p, b1, b2)
        reduced, _ = gauss_reduce(start, 1, 1 << 2 * (m - q))
        frame = box_frame(reduced, p, b1, b2, q)
        lo1, hi1, lo2, hi2 = coefficient_box(frame, u)
        assert (hi1 - lo1 + 1, hi2 - lo2 + 1) == (0, 2)
        assert rect_search(frame, u) == ([], 0)
        result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
        assert (result.candidates, result.searched) == ((), 0)
        assert brute_force_preimages(z, p, q, u, m) == []

    def test_empty_region(self):
        # u=1 is outside the image of the map for this z (checked by scan)
        inp = AttackInput(z=677, p=15, q=3, m=8, token=1)
        assert 1 not in set(brute_force_preimages(677, 15, 3, 1, 8))
        result = recover_preimages(inp)
        assert result.candidates == ()
        assert not result.unique

    def test_deterministic(self):
        assert recover_preimages(GOLDEN) == recover_preimages(GOLDEN)

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
        with pytest.raises(DegenerateInput):
            recover_preimages(AttackInput(**kwargs))

    def test_rejects_empty_secret_space(self):
        with pytest.raises(DegenerateInput):
            recover_preimages(AttackInput(z=6173, p=22, q=5, m=0, token=22131))

    def test_rejects_negative_q(self):
        # q < 0 used to reach a shift by q and raise a bare ValueError
        with pytest.raises(DegenerateInput, match="q must be nonnegative"):
            Attacker(6173, 22, -1, 14)
        with pytest.raises(DegenerateInput, match="q must be nonnegative"):
            recover_preimages(AttackInput(z=6173, p=22, q=-1, m=14, token=0))
        with pytest.raises(DegenerateInput, match="q must be nonnegative"):
            brute_force_preimages(6173, 22, -1, 0, 3)

    def test_accepts_zero_q(self):
        # q = 0 truncates nothing: u = x*z mod 2^p, and y is always 0
        for u in (0, 1, 677, (1 << 10) - 1):
            result = recover_preimages(AttackInput(z=677, p=10, q=0, m=6, token=u))
            assert list(result.candidates) == _oracle_pairs(677, 10, 0, 6, u)
        assert recover_preimages(AttackInput(z=677, p=10, q=0, m=6, token=677)).candidates == ((1, 0),)

    def test_accepts_multiplier_at_least_modulus(self):
        # m < q gives p = l + m - q < l, so a valid l-bit z is >= 2^p
        params = gen_params(4, 13, 3, 5, 1)
        assert (params.p, params.z) == (11, 5062) and params.z >= 1 << params.p
        t = exchange(4, params)
        result = recover_preimages(
            AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        )
        assert t.x in [x for x, _ in result.candidates]

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(token=1 << 17),  # u = 2^(p-q), past the token map's range
        ],
    )
    def test_rejects_token_outside_image(self, kwargs):
        with pytest.raises(DegenerateInput):
            recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, **kwargs))

    def test_builds_no_fraction(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("Fraction built on the attack path")

        monkeypatch.setattr(truncrack.lattice2d, "Fraction", refuse)
        result = recover_preimages(GOLDEN)
        assert result.candidates == ((12345, 21),)
        # the exact box holds the one winning pair
        assert result.searched == 1

    def test_full_scale_token(self):
        params = gen_params(9, 2048, 512, 512, 129)
        t = exchange(9, params)
        result = recover_preimages(
            AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        )
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
            result = recover_preimages(
                AttackInput(z=params.z, p=params.p, q=params.q, m=m, token=token)
            )
            expected = brute_force_preimages(params.z, params.p, params.q, token, m)
            assert [x for x, _ in result.candidates] == expected

    def test_exhaustive_small_sweep(self):
        # The frame's basis is the reduced lattice modulo 2^k, which is
        # below 2^p at p = 5 with m + q < 2.
        for z, p, q, m, u in _small_instances():
            result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
            expected = brute_force_preimages(z, p, q, u, m)
            assert [x for x, _ in result.candidates] == expected
            attacker = Attacker(z, p, q, m)
            assert result.reduce_iterations == attacker.reduce_iterations
            k = min(p, m + q + SPARE_BITS)
            wx, wy = rect_weights(1 << m, 1 << q)
            _, basis = solution_basis(z, k, q, u)
            theirs, _ = gauss_reduce(basis, wx, wy)
            _assert_same_reduced_basis(attacker.frame[0], theirs, wx, wy)

    @settings(max_examples=300, deadline=None)
    @given(case=alternating_deployments())
    def test_sound_and_complete_on_small_instances(self, case):
        # Nothing filters the walk's hits, so an unsound hit would show
        # here as well as a missed one; the two deployments take turns
        # through the memo, so a stale Attacker would show too.
        for (z, p, q, m), u in case:
            result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            assert result.reduce_iterations == Attacker(z, p, q, m).reduce_iterations

    def test_candidates_lie_in_region_and_solve_congruence(self):
        result = recover_preimages(GOLDEN)
        u = GOLDEN.token
        for x, y in result.candidates:
            assert 0 <= x < 1 << GOLDEN.m
            assert 0 <= y < 1 << GOLDEN.q
            assert (x * GOLDEN.z - ((u << GOLDEN.q) + y)) % (1 << GOLDEN.p) == 0


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
        # unfiltered oracle and against recover_preimages from an empty memo.
        for z, p, q, m in BATCH_DEPLOYMENTS:
            attacker = Attacker(z, p, q, m)
            for u in range(1 << (p - q)):
                result = attacker.attack(u)
                assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
                _attacker.cache_clear()
                fresh = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
                assert result == fresh

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
        with pytest.raises(DegenerateInput):
            attacker.attack(1 << 17)
        assert {name: getattr(attacker, name) for name in Attacker.__slots__} == before
        with pytest.raises(AttributeError):
            attacker.cache = {}

    def test_reduces_once_per_deployment(self, monkeypatch):
        # Each reduction records log2 |det| of its basis: the modulus k.
        calls = []

        def counted(basis, wx, wy):
            x1, y1, x2, y2 = basis
            calls.append(abs(x1 * y2 - y1 * x2).bit_length() - 1)
            return gauss_reduce(basis, wx, wy)

        monkeypatch.setattr(truncrack.attack, "gauss_reduce", counted)
        _attacker.cache_clear()
        for u in range(40):
            recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, token=u))
        assert calls == [22]
        # (p, q, m) = (15, 3, 8) reduces modulo 2^14: m + q + SPARE_BITS < p
        for u in range(3):
            recover_preimages(AttackInput(z=677, p=15, q=3, m=8, token=u))
            recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, token=u))
        assert calls == [22] + [14, 22] * 3
        _attacker.cache_clear()

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
        with pytest.raises(DegenerateInput):
            Attacker(**kwargs)

    def test_frame_is_the_reduced_basis_frame(self):
        # (q, m) = (5, 14): the form (2^10, 2^28) over its gcd is (1, 2^18)
        start, _ = euclid_basis(6173, 22, 1 << 14, 1 << 5)
        reduced, _ = gauss_reduce(start, 1, 1 << 18)
        attacker = Attacker(6173, 22, 5, 14)
        assert attacker.frame == box_frame(reduced, 22, 1 << 14, 1 << 5, 5)


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
        def stopped(*args):
            raise AssertionError("the attack path read a clock")

        for name in ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
                     "monotonic_ns", "process_time", "process_time_ns", "thread_time",
                     "thread_time_ns"):
            monkeypatch.setattr(time, name, stopped)
        assert Attacker(6173, 22, 5, 14).attack(22131).candidates == ((12345, 21),)
        _attacker.cache_clear()
        result = recover_preimages(GOLDEN)
        assert recover_preimages(GOLDEN) == result
        assert recover_shared_key(GOLDEN, 124172, 2, result) == [
            (12345, derive_key(12345, 124172, 22, 5, 2, 14))
        ]
        _attacker.cache_clear()


class TestModulusBelowP:
    """The attack reduces modulo 2^k, k = min(p, m + q + SPARE_BITS), walks
    the coset of L_k and keeps the hits whose full token map is u."""

    def test_filter_keeps_exactly_the_preimages(self):
        # Against the oracle on drawn deployments with k < p; over the run
        # the filter must drop some walk hit, or it was never exercised.
        dropped = []

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(case=deployments_below_p())
        def check(case):
            (z, p, q, m), u = case
            attacker = Attacker(z, p, q, m)
            k = attacker.k
            assert k == m + q + SPARE_BITS < p
            result = attacker.attack(u)
            assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)
            hits, searched = rect_search(attacker.frame, u & ((1 << (k - q)) - 1))
            assert searched == result.searched
            assert set(result.candidates) <= set(hits)
            dropped.append(len(hits) - len(result.candidates))

        check()
        assert any(dropped)

    def test_every_token_of_edge_deployments(self):
        # Every token of each deployment, against the oracle and against
        # recover_preimages from an empty memo; z = 0 mod 2^k puts 2^m
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
                _attacker.cache_clear()
                fresh = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
                assert result == fresh
                hits, _ = rect_search(attacker.frame, u & ((1 << (k - q)) - 1))
                dropped += len(hits) - len(result.candidates)
            if z & ((1 << k) - 1) == 0:
                assert dropped > 0

    @pytest.mark.parametrize("m, q", [(512, 512), (1024, 16), (256, 512)])
    def test_full_scale_matches_walk_modulo_2p(self, m, q):
        # One l=2048 deployment per (m, q), the skewed form and m < q
        # included: on 20 honest and 20 uniform tokens the candidates are
        # the hits of the walk over the lattice modulo 2^p, reduced and
        # framed here from euclid_basis, gauss_reduce and box_frame at p.
        rng = random.Random(3 * m + q)
        l = 2048
        p = l + m - q
        b1, b2 = 1 << m, 1 << q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        attacker = Attacker(z, p, q, m)
        assert attacker.k == m + q + SPARE_BITS < p
        start, _ = euclid_basis(z, p, b1, b2)
        reduced, _ = gauss_reduce(start, *rect_weights(b1, b2))
        reference = box_frame(reduced, p, b1, b2, q)
        secrets = [rng.randint(1, b1 - 1) for _ in range(20)]
        honest = [((x * z) & ((1 << p) - 1)) >> q for x in secrets]
        uniform = [rng.randint(0, (1 << (p - q)) - 1) for _ in range(20)]
        for u in honest + uniform:
            hits, _ = rect_search(reference, u)
            assert list(attacker.attack(u).candidates) == hits
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
        wx, wy = rect_weights(b1, b2)
        counts = []
        frames = []
        for modulus in (k, p):
            start, quotients = euclid_basis(z, modulus, b1, b2)
            reduced, passes = gauss_reduce(start, wx, wy)
            counts.append(quotients + passes)
            frames.append(box_frame(reduced, modulus, b1, b2, q))
        assert box_bound(frames[0]) > BOX_CAP
        attacker = Attacker(z, p, q, m)
        assert attacker.k == p and attacker.reduce_iterations == sum(counts)
        assert attacker.frame == frames[1]
        secrets = [rng.randint(1, b1 - 1) for _ in range(10)]
        honest = [((x * z) & ((1 << p) - 1)) >> q for x in secrets]
        uniform = [rng.randint(0, (1 << (p - q)) - 1) for _ in range(10)]
        for u in honest + uniform:
            assert list(attacker.attack(u).candidates) == rect_search(frames[1], u)[0]
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

        def counted(z, k, b1, b2):
            start, quotients = euclid_basis(z, k, b1, b2)
            counts.append((k, quotients))
            return start, quotients

        monkeypatch.setattr(truncrack.attack, "euclid_basis", counted)
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


class TestMessageSizes:
    """An out-of-range value reads as its bit length once it is longer
    than 64 bits, so the message stays short and can always be built."""

    @pytest.mark.parametrize("sign", [1, -1])
    def test_check_token(self, sign):
        with pytest.raises(DegenerateInput) as info:
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
            with pytest.raises(DegenerateInput) as info:
                check_observables(*args)
            assert str(info.value) == message

    @pytest.mark.parametrize("sign", [1, -1])
    def test_box_frame_determinant(self, sign):
        text = f"a {'negative ' if sign < 0 else ''}20001-bit integer"
        with pytest.raises(SingularBasis) as info:
            box_frame((sign * (1 << 20000), 0, 0, 1), 22, 1 << 14, 1 << 5, 5)
        assert str(info.value) == f"cannot bound coefficients: determinant {text} is not +-2^22"
        with pytest.raises(ValueError) as info:
            box_frame((1, 0, 0, 1 << 22), 22, 1 << 14, 1 << 5, sign * (1 << 20000))
        assert str(info.value) == f"q must be in [0, p), got q={text} p=22"

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
            ((6173, 22, 5, huge), "u must be nonnegative, got " + text),
        ]
        for args, message in cases:
            with pytest.raises(DegenerateInput) as info:
                solution_basis(*args)
            assert str(info.value) == message

    def test_short_values_print_in_full(self):
        with pytest.raises(DegenerateInput, match=r"got -18446744073709551615$"):
            check_token(-(1 << 64) + 1, 22, 5)
        with pytest.raises(DegenerateInput, match=r"got 131072$"):
            check_token(1 << 17, 22, 5)


class TestAttackerMemo:
    def test_holds_one_deployment(self):
        _attacker.cache_clear()
        for i in range(50):
            recover_preimages(AttackInput(z=6173 + 2 * i, p=22, q=5, m=14, token=22131))
        info = _attacker.cache_info()
        assert (info.misses, info.hits, info.currsize, info.maxsize) == (50, 0, 1, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(z=0, p=22, q=5, m=14, token=1),
            dict(z=6173, p=5, q=5, m=14, token=0),
            dict(z=6173, p=22, q=5, m=0, token=22131),
        ],
    )
    def test_rejected_deployment_is_not_cached(self, kwargs):
        _attacker.cache_clear()
        recover_preimages(GOLDEN)
        with pytest.raises(DegenerateInput):
            recover_preimages(AttackInput(**kwargs))
        info = _attacker.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 0, 1)
        assert recover_preimages(GOLDEN).candidates == ((12345, 21),)
        assert _attacker.cache_info().hits == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(token=1 << 17),
            dict(token=-1),
        ],
    )
    def test_bad_token_on_cached_deployment_rejected(self, kwargs):
        _attacker.cache_clear()
        recover_preimages(GOLDEN)
        with pytest.raises(DegenerateInput):
            recover_preimages(AttackInput(z=6173, p=22, q=5, m=14, **kwargs))
        assert _attacker.cache_info().currsize == 1

    def test_hit_reports_what_the_miss_did(self):
        _attacker.cache_clear()
        miss = recover_preimages(GOLDEN)
        hit = recover_preimages(GOLDEN)
        info = _attacker.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert hit == miss
        assert miss.reduce_iterations == Attacker(6173, 22, 5, 14).reduce_iterations == 7

    def test_harness_and_cli_leave_memo_alone(self, tmp_path, capsys):
        # Both build their own Attacker: the memo is recover_preimages'.
        path = tmp_path / "toy.params"
        path.write_text("l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n")
        _attacker.cache_clear()
        recover_preimages(GOLDEN)
        before = _attacker.cache_info()
        cfg = TrialConfig(seed_base=31, trials=3, l=13, m=14, q=5, r=2, mode="oracle-check")
        assert all(record.error == "" for record in run_trials(cfg))
        argv = ["attack", "--params", str(path), "--token", "31370", "--other-token", "94914"]
        assert cli_main(argv) == 0
        assert cli_main([*argv, "--m", "20"]) == 0
        capsys.readouterr()
        assert _attacker.cache_info() == before
        _attacker.cache_clear()


class TestBenchmarkCallShape:
    def test_perfbench_calls(self, monkeypatch):
        # The calls perfbench/run.py makes, in its shape: keyword
        # AttackInput, recover_preimages, recover_shared_key with result=,
        # and the four output fields it reads.  Its tracer wraps the
        # attack's gauss_reduce and rect_search and lattice2d's
        # coefficient_box, so each must still be looked up there.
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(truncrack.attack, "gauss_reduce")
        counted(truncrack.attack, "rect_search")
        counted(truncrack.lattice2d, "coefficient_box")
        _attacker.cache_clear()
        params = gen_params(1, 13, 14, 5, 2)
        t = exchange(1, params)
        inp = AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        result = recover_preimages(inp)
        keys = recover_shared_key(inp, t.v, params.r, result=result) if result.candidates else []
        assert t.x in [x for x, _ in result.candidates] and (t.x, t.w_a) in keys
        assert result.unique == (len(result.candidates) == 1)
        assert result.reduce_iterations > 0 and result.searched >= len(result.candidates)
        assert sorted(set(calls)) == ["coefficient_box", "gauss_reduce", "rect_search"]
        _attacker.cache_clear()


class TestRecoverSharedKey:
    def test_end_to_end_toy_seed(self):
        params = gen_params(1, 13, 14, 5, 2)
        t = exchange(1, params)
        inp = AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        keys = recover_shared_key(inp, t.v, params.r, result=recover_preimages(inp))
        assert (t.x, t.w_a) in keys
        assert t.agree  # recorded: this seed's honest parties agree
        assert any(key == t.w_b for _, key in keys)

    def test_candidate_equal_to_secret_gives_honest_key(self):
        params = gen_params(3, 13, 14, 5, 2)
        t = exchange(3, params)
        assert derive_key(t.x, t.v, params.p, params.q, params.r, params.m) == shared_key(
            t.x, t.v, params
        )

    def test_no_candidates(self):
        inp = AttackInput(z=677, p=15, q=3, m=8, token=1)
        with pytest.raises(NoCandidates):
            recover_shared_key(inp, 5, 1, result=recover_preimages(inp))

    @pytest.mark.parametrize("other_token", [1 << 17, 99999999999, -1])
    def test_rejects_peer_token_outside_image(self, other_token):
        # the peer's token must lie in [0, 2^(p-q)) = [0, 2^17), like ours
        with pytest.raises(DegenerateInput):
            recover_shared_key(GOLDEN, other_token, 2, result=recover_preimages(GOLDEN))
        # checked before the candidates, so not NoCandidates on an empty result
        empty = AttackInput(z=677, p=15, q=3, m=8, token=1)
        with pytest.raises(DegenerateInput):
            recover_shared_key(empty, other_token, 1, result=recover_preimages(empty))

    def test_reuses_precomputed_result(self):
        result = recover_preimages(GOLDEN)
        keys = recover_shared_key(GOLDEN, 124172, 2, result=result)
        assert keys == [(12345, derive_key(12345, 124172, 22, 5, 2, 14))]
