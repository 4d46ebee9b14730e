import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import truncrack.attack
import truncrack.lattice2d
from truncrack import (
    AttackInput,
    DegenerateInput,
    NoCandidates,
    derive_key,
    exchange,
    gauss_reduce,
    gen_params,
    rect_search,
    recover_preimages,
    recover_shared_key,
    shared_key,
    solution_basis,
)
from truncrack.harness import brute_force_preimages
from truncrack.lattice2d import coefficient_box, euclid_basis, is_reduced
from test_acceptance import rect_weights

GOLDEN = AttackInput(z=6173, p=22, q=5, m=14, token=708192, token_is_scaled=True)


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


@st.composite
def small_attack_cases(draw):
    """Arbitrary small (z, p, q, m, u): p <= 12, q < p, m <= 10, z in
    [1, 2^(p+1)), and an honest or a uniform token."""
    p = draw(st.integers(1, 12))
    q = draw(st.integers(0, p - 1))
    m = draw(st.integers(1, 10))
    z = draw(st.integers(1, (1 << (p + 1)) - 1))
    if draw(st.booleans()):
        x = draw(st.integers(0, (1 << m) - 1))
        u = ((x * z) & ((1 << p) - 1)) >> q
    else:
        u = draw(st.integers(0, (1 << (p - q)) - 1))
    return z, p, q, m, u


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

    def test_scaled_and_plain_tokens_agree(self):
        plain = AttackInput(z=6173, p=22, q=5, m=14, token=22131)
        assert recover_preimages(plain).candidates == recover_preimages(GOLDEN).candidates

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
        reduced, _ = gauss_reduce(start, p, 1, 1 << 2 * (m - q))
        v = (0, -(u << q))
        lo1, hi1, lo2, hi2 = coefficient_box(reduced, p, v, b1, b2)
        assert (hi1 - lo1 + 1, hi2 - lo2 + 1) == (0, 2)
        assert rect_search(reduced, p, v, b1, b2) == ([], 0)
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
        a = recover_preimages(GOLDEN)
        b = recover_preimages(GOLDEN)
        assert a.candidates == b.candidates
        assert (a.reduce_iterations, a.searched) == (b.reduce_iterations, b.searched)

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
            dict(token=708193, token_is_scaled=True),  # nonzero low q bits
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

    def test_exhaustive_small_sweep(self, monkeypatch):
        reduced = []

        def keep_reduced(basis, p, wx, wy):
            result = gauss_reduce(basis, p, wx, wy)
            reduced.append(result[0])
            return result

        monkeypatch.setattr(truncrack.attack, "gauss_reduce", keep_reduced)
        for z, p, q, m, u in _small_instances():
            result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
            expected = brute_force_preimages(z, p, q, u, m)
            assert [x for x, _ in result.candidates] == expected
            wx, wy = rect_weights(1 << m, 1 << q)
            _, basis = solution_basis(z, p, q, u)
            theirs, _ = gauss_reduce(basis, p, wx, wy)
            _assert_same_reduced_basis(reduced.pop(), theirs, wx, wy)

    @settings(max_examples=300, deadline=None)
    @given(case=small_attack_cases())
    def test_sound_and_complete_on_small_instances(self, case):
        # Nothing filters the walk's hits, so an unsound hit would show
        # here as well as a missed one.
        z, p, q, m, u = case
        result = recover_preimages(AttackInput(z=z, p=p, q=q, m=m, token=u))
        assert list(result.candidates) == _oracle_pairs(z, p, q, m, u)

    def test_candidates_lie_in_region_and_solve_congruence(self):
        result = recover_preimages(GOLDEN)
        u = GOLDEN.token >> GOLDEN.q
        for x, y in result.candidates:
            assert 0 <= x < 1 << GOLDEN.m
            assert 0 <= y < 1 << GOLDEN.q
            assert (x * GOLDEN.z - ((u << GOLDEN.q) + y)) % (1 << GOLDEN.p) == 0


class TestRecoverSharedKey:
    def test_end_to_end_toy_seed(self):
        params = gen_params(1, 13, 14, 5, 2)
        t = exchange(1, params)
        inp = AttackInput(z=params.z, p=params.p, q=params.q, m=params.m, token=t.u)
        keys = recover_shared_key(inp, t.v, params.r)
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
        with pytest.raises(NoCandidates):
            recover_shared_key(AttackInput(z=677, p=15, q=3, m=8, token=1), 5, 1)

    @pytest.mark.parametrize("other_token", [1 << 17, 99999999999, -1])
    def test_rejects_peer_token_outside_image(self, other_token):
        # the peer's token must lie in [0, 2^(p-q)) = [0, 2^17), like ours
        with pytest.raises(DegenerateInput):
            recover_shared_key(GOLDEN, other_token, 2)
        with pytest.raises(DegenerateInput):
            recover_shared_key(GOLDEN, other_token, 2, result=recover_preimages(GOLDEN))

    def test_reuses_precomputed_result(self):
        result = recover_preimages(GOLDEN)
        keys = recover_shared_key(GOLDEN, 124172, 2, result=result)
        assert keys == [(12345, derive_key(12345, 124172, 22, 5, 2, 14))]
