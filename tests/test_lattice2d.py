import ast
import inspect
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import truncrack.lattice2d
from truncrack import Attacker, InvalidArgument, SearchSpaceExceeded
from truncrack.lattice2d import (
    box_bound,
    coefficient_box,
    euclid_basis,
    gauss_reduce,
    round_half_to_zero,
)
from truncrack.paper import (
    is_reduced,
    nearest_lattice_point,
    solution_basis,
    solve_coeffs,
    truncate_decimal,
)
from truncrack.protocol import MAX_BITS, check_shape
from test_acceptance import SIZE_LADDER, _oriented, _textbook_gauss_reduce, rect_weights

# The worked toy instance used throughout: z=6173, p=22, q=5, u=22131.
Z, P, Q, U = 6173, 22, 5, 22131
B1, B2 = 1 << 14, 1 << 5
WX, WY = rect_weights(B1, B2)
V0 = (115, 1703)
# Its reduced basis in a fixed orientation.
ORIENTED = (-25140, 28, -33973, -129)


def _det(basis):
    x1, y1, x2, y2 = basis
    return x1 * y2 - y1 * x2


def _norm(v, wx, wy):
    return wx * v[0] * v[0] + wy * v[1] * v[1]


def _combo(basis, a1, a2):
    """The lattice point a1*u1 + a2*u2."""
    x1, y1, x2, y2 = basis
    return a1 * x1 + a2 * x2, a1 * y1 + a2 * y2


def _residual(basis, v, a1, a2):
    """v - a1*u1 - a2*u2."""
    cx, cy = _combo(basis, a1, a2)
    return v[0] - cx, v[1] - cy


def _in_lattice(v, z, p):
    return (v[0] * z - v[1]) % (1 << p) == 0


def worked_reduced():
    _, basis = solution_basis(Z, P, Q, U)
    reduced, _ = _textbook_gauss_reduce(basis, WX, WY)
    return reduced


def random_family(rng, max_p=16):
    """(z, p, q, u, basis) of a random token congruence, the basis from
    solution_basis."""
    p = rng.randint(3, max_p)
    z = rng.randint(1, (1 << p) - 1)
    q = rng.randint(0, max(0, p // 2))
    u = rng.randint(0, (1 << (p - q)) - 1)
    return z, p, q, u, solution_basis(z, p, q, u)[1]


class TestSolutionBasis:
    def test_worked_particular_solution(self):
        v0, _ = solution_basis(Z, P, Q, U)
        assert v0 == (115, 1703)

    def test_worked_generators(self):
        _, basis = solution_basis(Z, P, Q, U)
        assert basis == (114, -3490582, 115, -3484409)
        assert _det(basis) == 1 << 22

    def test_zero_token(self):
        v0, basis = solution_basis(97, 10, 3, 0)
        assert v0 == (0, 0)
        assert basis == (0, -(1 << 10), 1, 97 - (1 << 10))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(InvalidArgument):
            solution_basis(0, 10, 3, 5)

    def test_vectors_satisfy_congruences(self):
        rng = random.Random(7)
        for _ in range(200):
            z, p, q, u, basis = random_family(rng)
            v0, _ = solution_basis(z, p, q, u)
            assert _in_lattice(basis[:2], z, p)
            assert _in_lattice(basis[2:], z, p)
            assert 0 <= v0[1] < z
            assert abs(_det(basis)) == 1 << p


class TestRounding:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(1, 2), 0),
            (Fraction(-1, 2), 0),
            (Fraction(0), 0),
            (Fraction(3, 2), 1),
            (Fraction(-3, 2), -1),
            (Fraction(13790, 1000), 14),
            (Fraction(-10208, 1000), -10),
            (7, 7),
        ],
    )
    def test_examples(self, value, expected):
        assert round_half_to_zero(value.numerator, value.denominator) == expected

    @pytest.mark.parametrize("num, den", [(1, -3), (5, -3), (1, 0), (0, -(1 << 70))])
    def test_refuses_denominator_below_1(self, num, den):
        # divmod would give a wrong answer for a negative den without an
        # error ((1, -3) and (5, -3) give -1, where the nearest integers
        # are 0 and -2), and a bare ZeroDivisionError for 0
        with pytest.raises(InvalidArgument, match="^den must be at least 1, got ") as info:
            round_half_to_zero(num, den)
        assert len(str(info.value).encode()) < 200

    @given(value=st.fractions())
    def test_nearest_with_ties_toward_zero(self, value):
        result = round_half_to_zero(value.numerator, value.denominator)
        assert isinstance(result, int)
        assert abs(value - result) <= Fraction(1, 2)
        if abs(value - result) == Fraction(1, 2):
            other = 2 * value - result  # the equally-near integer
            assert abs(result) <= abs(other)


class TestGaussReduce:
    def test_worked_reduction(self):
        reduced = worked_reduced()
        expected = {(-25140, 28), (25140, -28), (-33973, -129), (33973, 129)}
        u1, u2 = reduced[:2], reduced[2:]
        assert u1 in expected and u2 in expected
        assert u1 not in (u2, (-u2[0], -u2[1]))
        assert abs(_det(reduced)) == 1 << 22
        assert is_reduced(reduced, WX, WY)

    @pytest.mark.parametrize("wx, wy", [(0, 1), (1, 0), (-1, 4)])
    def test_nonpositive_weights_rejected(self, wx, wy):
        with pytest.raises(InvalidArgument):
            nearest_lattice_point((1, 0, 0, 1 << 8), (3, 5), wx, wy)

    def test_rejects_bad_bounds(self):
        # q >= p first, then euclid_basis's one check, each with its
        # message, before any shift, where a negative exponent would raise
        # a bare "negative shift count" and a shift by 2^70 an
        # OverflowError or MemoryError
        in_range = rf"^p, m and q must be in \[0, {MAX_BITS}\], got p="
        for bad in (-1, MAX_BITS + 1, 1 << 70, -(1 << 70)):
            for p, m, q in ((bad, 14, Q), (P, bad, Q), (P, 14, bad)):
                message = "^q must be below p, got q=" if q >= p else in_range
                with pytest.raises(InvalidArgument, match=message) as info:
                    gauss_reduce(Z, p, m, q)
                assert len(str(info.value).encode()) < 200

    @pytest.mark.parametrize(
        "q, text", [(P, "22"), (P + 1, "23"), (1 << 70, "a 71-bit integer")], ids=["p", "p+1", "2^70"]
    )
    def test_refuses_q_not_below_p(self, q, text):
        # The frame shifts by p - q, so q >= p is refused before any shift.
        with pytest.raises(InvalidArgument) as info:
            gauss_reduce(Z, P, 14, q)
        assert str(info.value) == f"q must be below p, got q={text} p=22"
        assert len(str(info.value).encode()) < 200

    def test_exhaustive_small_matches_textbook_loop(self):
        # Every z in [0, 2^p) for p <= 9, every m in [0, p + 2] and every
        # q < p: from Euclid's stop the one pass is the textbook loop's
        # basis and passes, the loop's first pass takes |c2| <= 1, and the
        # frame holds that basis with u1 negated when det < 0, whose box
        # at the token z >> q is the reference box.  Both signs occur.
        negated = set()
        for p in range(1, 10):
            for z in range(1 << p):
                for m in range(p + 3):
                    b1 = 1 << m
                    for q in range(p):
                        b2 = 1 << q
                        start, quotients = euclid_basis(z, p, m, q)
                        steps = []
                        reduced, passes = _textbook_gauss_reduce(
                            start, *rect_weights(b1, b2), on_step=lambda *s: steps.append(s)
                        )
                        frame, *rest = gauss_reduce(z, p, m, q)
                        oriented = _oriented(reduced)
                        assert (frame[:4], rest) == ((oriented, p - q, b1, b2), [quotients, passes])
                        assert abs(steps[1][1]) <= 1
                        u = z >> q
                        expected = _reference_coefficient_box(oriented, _token_point(q, u), b1, b2)
                        assert coefficient_box(frame, u) == expected, (z, p, m, q)
                        negated.add(oriented != reduced)
        assert negated == {False, True}

    def test_per_step_invariants_random(self):
        rng = random.Random(99)
        for _ in range(60):
            z, p, _, _, _ = random_family(rng)
            m, q = rng.randint(0, p + 2), rng.randint(0, p - 1)
            wx, wy = rect_weights(1 << m, 1 << q)
            (reduced, passes), steps = _reduce_with_steps(z, p, m, q)
            before = euclid_basis(z, p, m, q)[0]
            for target, c, step in steps:
                assert abs(_det(step)) == 1 << p
                i = 0 if target == "u1" else 2
                if c != 0:
                    assert _norm(step[i:i + 2], wx, wy) < _norm(before[i:i + 2], wx, wy)
                before = step
            assert passes <= 2
            x1, y1, x2, y2 = reduced
            cross = abs(wx * x1 * x2 + wy * y1 * y2)
            assert 2 * cross <= min(_norm(reduced[:2], wx, wy), _norm(reduced[2:], wx, wy))

    def test_membership_closed_under_combinations(self):
        rng = random.Random(5)
        reduced = worked_reduced()
        for _ in range(100):
            a1, a2 = rng.randint(-50, 50), rng.randint(-50, 50)
            assert _in_lattice(_combo(reduced, a1, a2), Z, P)

    def test_span_preserved(self):
        # solution_basis's generators must be integer combinations of the
        # reduced basis from Euclid's stop.
        rng = random.Random(31)
        for _ in range(40):
            z, p, _, _, basis = random_family(rng)
            m, q = rng.randint(0, p + 2), rng.randint(0, p - 1)
            reduced = gauss_reduce(z, p, m, q)[0][0]
            for g in (basis[:2], basis[2:]):
                n1, n2, d = solve_coeffs(reduced, g)
                assert n1 % d == 0 and n2 % d == 0


def _reduce_with_steps(z, p, m, q):
    """gauss_reduce(z, p, m, q)'s basis, before the frame orients it, and
    passes, and its two half-steps, each as (target, c, basis after it),
    target naming the vector replaced by c.

    The two quotients are recorded from gauss_reduce's calls of
    round_half_to_zero and replayed from euclid_basis(z, p, m, q)'s
    basis: a half-step is fixed by the basis before it and its quotient.
    The replay, with u1 negated when det < 0, must be the basis of the
    frame gauss_reduce returns, and its Euclid quotient count must be
    euclid_basis's."""
    quotients = []

    def recording(num, den):
        quotients.append(round_half_to_zero(num, den))
        return quotients[-1]

    # The context manager, not the fixture: Hypothesis tests call this.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(truncrack.lattice2d, "round_half_to_zero", recording)
        frame, euclid_quotients, passes = gauss_reduce(z, p, m, q)
    assert len(quotients) == 2
    start, expected_quotients = euclid_basis(z, p, m, q)
    assert euclid_quotients == expected_quotients
    x1, y1, x2, y2 = start
    c1, c2 = quotients
    x1, y1 = x1 - c1 * x2, y1 - c1 * y2
    steps = [("u1", c1, (x1, y1, x2, y2))]
    x2, y2 = x2 - c2 * x1, y2 - c2 * y1
    steps.append(("u2", c2, (x1, y1, x2, y2)))
    reduced = (x1, y1, x2, y2)
    assert _oriented(reduced) == frame[0]
    return (reduced, passes), steps


def _assert_matches_textbook(z, p, m, q, scale=1):
    """gauss_reduce(z, p, m, q) gives the basis and pass count of the
    textbook loop from euclid_basis(z, p, m, q)'s stop under the
    rectangle's form times ``scale``, and its two half-steps are the
    loop's first pass."""
    wx, wy = rect_weights(1 << m, 1 << q)
    ref_steps = []
    start, _ = euclid_basis(z, p, m, q)
    ref = _textbook_gauss_reduce(
        start, scale * wx, scale * wy, on_step=lambda *step: ref_steps.append(step)
    )
    fast, fast_steps = _reduce_with_steps(z, p, m, q)
    assert fast == ref
    assert fast_steps == ref_steps[:2]


class TestMatchesTextbookLoop:
    # The one pass from Euclid's stop against the textbook loop from the
    # same stop.
    def test_size_ladder_plain_and_scaled_forms(self):
        # At both moduli the attack may reduce at, k and p.
        rng = random.Random(4040)
        for l, m, q, r in SIZE_LADDER:
            p = l + m - q
            for e in (min(p, m + q + 3), p) * 2:
                z = (1 << (l - 1)) | rng.getrandbits(l - 1)
                _assert_matches_textbook(z, e, m, q)
                _assert_matches_textbook(z, e, m, q, 7)

    def test_corner_case_bounds(self):
        # m < q, where the form is (4^(q-m), 1).
        rng = random.Random(4141)
        for l, m, q, r in [(13, 3, 5, 1), (40, 6, 12, 4), (160, 32, 48, 16), (2048, 256, 512, 129)]:
            p = check_shape(l, m, q, r)
            assert 0 < (1 << m) < 1 << q
            for _ in range(5):
                z = (1 << (l - 1)) | rng.getrandbits(l - 1)
                _assert_matches_textbook(z, p, m, q)

    def test_non_square_and_common_factor_weights(self):
        # Rectangles of every shape, m - q from 1 - p to p + 2, under the
        # form times a common factor.
        rng = random.Random(4242)
        for i in range(400):
            z, p, _, _, _ = random_family(rng, max_p=24 if i % 2 else 12)
            m, q = rng.randint(0, p + 2), rng.randint(0, p - 1)
            k = rng.choice([1, 7, 2**20, 3 * 5 * 11])
            _assert_matches_textbook(z, p, m, q, k)


# Gram entries above this many bits exercise gauss_reduce on big ints.
_LARGE_ENTRY_BITS = 256


@st.composite
def large_entry_cases(draw):
    """(z, p, q, m, scale) of a congruence with l in [128, 2048] whose
    solution_basis generators have Gram entries past _LARGE_ENTRY_BITS
    under the rectangle's form, scale 1 or 7 for that form times 7."""
    l = draw(st.sampled_from([128, 256, 512, 1024, 2048]) | st.integers(128, 2048))
    m = draw(st.integers(1, l // 2))
    q = draw(st.integers(1, m))
    p = l + m - q
    z = draw(st.integers(1 << (l - 1), (1 << l) - 1))
    if draw(st.booleans()):
        x = draw(st.integers(1, (1 << m) - 1))
        u = ((x * z) & ((1 << p) - 1)) >> q
    else:
        u = draw(st.integers(0, (1 << (p - q)) - 1))
    _, basis = solution_basis(z, p, q, u)
    wx, wy = rect_weights(1 << m, 1 << q)
    g = math.gcd(wx, wy)
    norms = [_norm(v, wx // g, wy // g) for v in (basis[:2], basis[2:])]
    assume(max(norms).bit_length() > _LARGE_ENTRY_BITS)
    return z, p, q, m, u, draw(st.sampled_from([1, 7]))


@st.composite
def structured_finish_cases(draw):
    """(z, e, m, q) of honest shapes up to l = 4096, with the modulus
    exponent e either k = min(p, m + q + 3) or p, and z uniform,
    odd*2^v, or 0 or 3 mod 2^k."""
    l = draw(st.sampled_from([64, 1024, 2048, 4096]) | st.integers(2, 4096))
    m = draw(st.integers(1, max(1, l // 2)))
    q = draw(st.integers(0, l // 2))
    p = l + m - q
    k = min(p, m + q + 3)
    kind = draw(st.sampled_from(["uniform", "odd*2^v", "0 mod 2^k", "3 mod 2^k"]))
    if kind == "uniform":
        z = draw(st.integers(1 << (l - 1), (1 << l) - 1))
    elif kind == "odd*2^v":
        z = (2 * draw(st.integers(0, 1 << l)) + 1) << draw(st.integers(0, p))
    else:
        z = draw(st.integers(0, 1 << l)) << k | (3 if kind == "3 mod 2^k" else 0)
    return z, draw(st.sampled_from([k, p])), m, q


class TestLargeEntries:
    @settings(max_examples=60, deadline=None)
    @given(case=large_entry_cases())
    def test_matches_textbook_loop(self, case):
        # The one pass from Euclid's stop is the textbook loop from there,
        # under the form or 7 times it, and reduces the lattice that the
        # textbook loop reduces from solution_basis's generators: the two
        # reduced bases have the same norms.
        z, p, q, m, u, scale = case
        _assert_matches_textbook(z, p, m, q, scale)
        wx, wy = rect_weights(1 << m, 1 << q)
        theirs, _ = _textbook_gauss_reduce(solution_basis(z, p, q, u)[1], wx, wy)
        norms = lambda b: sorted(_norm(v, wx, wy) for v in (b[:2], b[2:]))
        assert norms(gauss_reduce(z, p, m, q)[0][0]) == norms(theirs)

    @settings(max_examples=100, deadline=None)
    @given(case=structured_finish_cases())
    def test_structured_z_matches_textbook_loop(self, case):
        _assert_matches_textbook(*case)

    # Deployments whose Euclid stop puts d/n2 on an exact half.  For p <= 11
    # every such tie is -1/2 or (2^j - 1)/2.  Multiplying z by 2^t and
    # raising p and q by t multiplies every y of L and of Euclid's stop by
    # 2^t and the form's y weight by 4^-t, so the same tie comes back,
    # with Gram entries of about 600 bits at t = 300.
    @pytest.mark.parametrize("t", [0, 300])
    @pytest.mark.parametrize(
        "z, p, m, q, c1",
        [
            (1, 1, 1, 0, 0),  # d/n2 = -1/2
            (7, 4, 0, 0, 1),  # d/n2 = 3/2
            (15, 5, 0, 0, 3),  # d/n2 = 7/2
        ],
    )
    def test_exact_tie_rounds_toward_zero(self, z, p, m, q, c1, t):
        _, steps = _reduce_with_steps(z << t, p + t, m, q + t)
        assert steps[0][:2] == ("u1", c1)  # halves toward zero
        _assert_matches_textbook(z << t, p + t, m, q + t)


@st.composite
def euclid_cases(draw):
    """Small (z, p, q, m, u) for the attack's rectangle: l-bit, even or
    arbitrary z (z = 0 mod 2^p and z >= 2^p included), m < q included,
    honest and uniform tokens, and u = 0, which with m < q is the token
    whose low bits y still range over all of [0, 2^q)."""
    m = draw(st.integers(1, 12))
    q = draw(st.integers(0, 12))
    p = draw(st.integers(q + 1, q + 24))
    l = draw(st.integers(1, 20))
    z = draw(
        st.integers(1 << (l - 1), (1 << l) - 1)
        | st.integers(1, 1 << (p + 2))
        | st.integers(1, 40).map(lambda k: k << p)
        | st.integers(1, 1 << 20).map(lambda k: 2 * k)
    )
    kind = draw(st.sampled_from(["honest", "uniform", "zero"]))
    if kind == "honest":
        x = draw(st.integers(1, (1 << m) - 1))
        u = ((x * z) & ((1 << p) - 1)) >> q
    elif kind == "uniform":
        u = draw(st.integers(0, (1 << (p - q)) - 1))
    else:
        u = 0
    return z, p, q, m, u


def _ladder_tokens(rng):
    """(z, p, q, m, u) for two tokens per SIZE_LADDER size, up to l=2048:
    an honest one and a uniform one."""
    for l, m, q, r in SIZE_LADDER:
        p = l + m - q
        for honest in (True, False):
            z = (1 << (l - 1)) | rng.getrandbits(l - 1)
            if honest:
                x = rng.randint(1, (1 << m) - 1)
                u = ((x * z) & ((1 << p) - 1)) >> q
            else:
                u = rng.randint(0, (1 << (p - q)) - 1)
            yield z, p, q, m, u


def _assert_euclid_start_matches(z, p, q, m, u):
    """The Euclid start is a basis of L, and its reduction searches the
    rectangle exactly as the reduction of solution_basis's pair does."""
    b1, b2 = 1 << m, 1 << q
    wx, wy = rect_weights(b1, b2)
    _, basis = solution_basis(z, p, q, u)
    start, _ = euclid_basis(z, p, m, q)
    assert _in_lattice(start[:2], z, p) and _in_lattice(start[2:], z, p)
    assert abs(_det(start)) == 1 << p
    ours = gauss_reduce(z, p, m, q)[0][0]
    theirs, _ = _textbook_gauss_reduce(basis, wx, wy)
    assert is_reduced(ours, wx, wy)
    norms = lambda b: sorted(_norm(v, wx, wy) for v in (b[:2], b[2:]))
    assert norms(ours) == norms(theirs)
    v = _token_point(q, u)
    assert _reference_rect_search(ours, v, b1, b2) == _reference_rect_search(theirs, v, b1, b2)


def _reference_euclid_basis(z, p, m, q):
    """The plain extended-Euclid loop, divmod for every quotient, stopping
    at the first remainder below 2^max((p + 1 - shift) // 2, 0), with
    shift = m - q.  euclid_basis must return its pair and quotient count."""
    shift = m - q
    floor = 1 << max((p + 1 - shift) // 2, 0)
    x0, r0, x1, r1 = 0, 1 << p, 1, z % (1 << p)
    quotients = 0
    while r1 >= floor:
        k, rem = divmod(r0, r1)
        x0, r0, x1, r1 = x1, r1, x0 - k * x1, rem
        quotients += 1
    return (x0, r0, x1, r1), quotients


@st.composite
def euclid_loop_cases(draw):
    """(z, p, m, q) for euclid_basis alone: p in [1, 80]; z arbitrary,
    a multiple of 2^p, at least 2^p, or even; m and q independent, so
    shift = m - q runs from negative to above p."""
    p = draw(st.integers(1, 80))
    z = draw(
        st.integers(1, (1 << p) - 1)
        | st.integers(0, 40).map(lambda k: k << p)
        | st.integers(1 << p, 1 << (p + 8))
        | st.integers(1, 1 << p).map(lambda k: 2 * k)
    )
    m = draw(st.integers(0, p + 4))
    q = draw(st.integers(0, p + 4))
    return z, p, m, q


class TestEuclidBasis:
    @settings(max_examples=300, deadline=None)
    @given(case=euclid_cases())
    def test_matches_solution_basis_start(self, case):
        _assert_euclid_start_matches(*case)

    @pytest.mark.parametrize(
        "z, p, q, m, u",
        [
            (4096, 11, 5, 3, 0),  # l=13 m=3 q=5: z = 0 mod 2^p, r1 == 0 at once
            (5062, 11, 5, 3, 0),  # m < q with u = 0: the corner-case b2 = 2^m
            (6174, 22, 5, 14, 22131),  # even z
            (Z, P, Q, 14, U),  # the worked instance
        ],
    )
    def test_edge_cases(self, z, p, q, m, u):
        _assert_euclid_start_matches(z, p, q, m, u)

    @settings(max_examples=600, deadline=None)
    @given(case=euclid_loop_cases())
    def test_matches_reference_loop(self, case):
        assert euclid_basis(*case) == _reference_euclid_basis(*case)

    def test_matches_reference_loop_size_ladder(self):
        for z, p, q, m, u in _ladder_tokens(random.Random(6060)):
            args = (z, p, m, q)
            assert euclid_basis(*args) == _reference_euclid_basis(*args)

    def test_exhaustive_small_sweep(self):
        # Every z in [1, 2^(p+1)) for p <= 7, so even z, z = 0 mod 2^p and
        # z >= 2^p all occur; m in [0, p+1] and several q, so the floor
        # runs down to 1, where the loop runs until r1 == 0.
        reached = {"r1 == 0": 0, "floor 1": 0, "k > 0": 0}
        for p in range(1, 8):
            for z in range(1, 1 << (p + 1)):
                for m in range(p + 2):
                    for q in (0, 1, p // 2, p, p + 1):
                        args = (z, p, m, q)
                        got = euclid_basis(*args)
                        assert got == _reference_euclid_basis(*args), args
                        reached["r1 == 0"] += got[0][3] == 0
                        reached["floor 1"] += m - q >= p
                        reached["k > 0"] += z % 2 == 0 and z % (1 << p) != 0
        assert all(reached.values()), reached

    @pytest.mark.parametrize("l", [2048, 4096])
    def test_power_of_two_multiples_full_scale(self, l):
        # z = odd * 2^k at full scale (m = q = l/4, so p = l and the floor
        # exponent is f = (p + 1) // 2).  From k = f up, every nonzero
        # remainder is a multiple of 2^k >= 2^f, so the loop ends on r1 == 0
        # with r0 = 2^k: e = p - k, and x1 = +-2^e has residue 0.
        rng = random.Random(7070 + l)
        m = q = l // 4
        p = l + m - q
        f = (p + 1) // 2
        for k in (0, 1, f - 2, f - 1, f, f + 1, p - 1):
            odd = (1 << (l - k - 1)) | rng.getrandbits(l - k - 1) | 1
            z = odd << k
            got = euclid_basis(z, p, m, q)
            assert got == _reference_euclid_basis(z, p, m, q), k
            if k >= f:
                assert got[0][3] == 0 and got[0][1] == 1 << k

    def test_rejects_bad_bounds(self):
        # refused with the package's message before any shift, where a
        # negative exponent would raise a bare "negative shift count" and
        # 1 << p at p = 2^70 an OverflowError
        cases = [(p, 14, Q) for p in (-3, -1, MAX_BITS + 1, 1 << 70)]
        cases += [(P, m, Q) for m in (-1, MAX_BITS + 1)]
        cases += [(P, 14, q) for q in (-1, MAX_BITS + 1)]
        message = rf"^p, m and q must be in \[0, {MAX_BITS}\], got "
        for p, m, q in cases:
            with pytest.raises(InvalidArgument, match=message) as info:
                euclid_basis(Z, p, m, q)
            assert len(str(info.value).encode()) < 200

    def test_zero_remainder_stops_at_once(self):
        start, quotients = euclid_basis(4096, 11, 3, 3)
        assert quotients == 0
        assert start == (0, 1 << 11, 1, 0)

    def test_size_ladder(self):
        for case in _ladder_tokens(random.Random(5050)):
            _assert_euclid_start_matches(*case)


def _rational_coeffs(basis, v):
    """solve_coeffs' (n1, n2, d) as the two Fractions n1/d and n2/d."""
    n1, n2, d = solve_coeffs(basis, v)
    return Fraction(n1, d), Fraction(n2, d)


def _fraction_truncate(value):
    """The reference for truncate_decimal: the Fraction value truncated
    toward zero to three places, by Fraction arithmetic."""
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scaled = magnitude * 1000
    whole, frac = divmod(scaled.numerator // scaled.denominator, 1000)
    return f"{sign}{whole}.{frac:03d}"


class TestSolveCoeffs:
    def test_worked_coefficients(self):
        # In the orientation with u1=(-25140,28), u2=(-33973,-129).
        n1, n2, d = solve_coeffs(ORIENTED, (115, 1703))
        assert (n1, n2, d) == (57841184, -42816640, 1 << 22)
        assert truncate_decimal(n1, d) == "13.790"
        assert truncate_decimal(n2, d) == "-10.208"

    def test_worked_corner_coefficients(self):
        # Exact Cramer solve of the four rectangle corners, truncated at
        # three decimals.  Pinned from independent hand evaluation.
        vx, vy = V0
        corners = [(vx, vy), (vx - B1, vy), (vx, vy - B2), (vx - B1, vy - B2)]
        expected = [
            ("13.790", "-10.208"),
            ("14.294", "-10.098"),
            ("13.531", "-10.016"),
            ("14.035", "-9.907"),
        ]
        for corner, (want1, want2) in zip(corners, expected):
            n1, n2, d = solve_coeffs(ORIENTED, corner)
            assert (truncate_decimal(n1, d), truncate_decimal(n2, d)) == (want1, want2)

    def test_identity_cases(self):
        basis = worked_reduced()
        assert _rational_coeffs(basis, basis[:2]) == (1, 0)
        assert _rational_coeffs(basis, (0, 0)) == (0, 0)

    def test_reconstruction(self):
        rng = random.Random(17)
        basis = worked_reduced()
        for _ in range(50):
            v = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            a1, a2 = _rational_coeffs(basis, v)
            x = a1 * basis[0] + a2 * basis[2]
            y = a1 * basis[1] + a2 * basis[3]
            assert (x, y) == v
            assert ((1 << 22) % a1.denominator) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        basis=st.tuples(*[st.integers(-(1 << 80), 1 << 80)] * 4),
        v=st.tuples(st.integers(-(1 << 80), 1 << 80), st.integers(-(1 << 80), 1 << 80)),
    )
    # the worked basis (det = 2^22) and its swap (det = -2^22)
    @example(basis=ORIENTED, v=(115, 1703))
    @example(basis=ORIENTED[2:] + ORIENTED[:2], v=(115, 1703))
    def test_matches_rational_cramer(self, basis, v):
        # Either sign of det: d = |det| > 0, and n1/d, n2/d are the exact
        # coefficients, solved here with Fractions and checked by rebuilding v.
        x1, y1, x2, y2 = basis
        vx, vy = v
        det = x1 * y2 - y1 * x2
        assume(det != 0)
        a1 = Fraction(vx * y2 - x2 * vy) / det
        a2 = Fraction(x1 * vy - vx * y1) / det
        n1, n2, d = solve_coeffs(basis, v)
        assert d == abs(det)
        assert (Fraction(n1, d), Fraction(n2, d)) == (a1, a2)
        assert (a1 * x1 + a2 * x2, a1 * y1 + a2 * y2) == v

    def test_singular(self):
        with pytest.raises(InvalidArgument):
            solve_coeffs((2, 4, 1, 2), (1, 1))


class TestNearestPoint:
    def test_worked_rounding(self):
        assert nearest_lattice_point(ORIENTED, (115, 1703), WX, WY) == (14, -10)

    def test_worked_residual(self):
        reduced = worked_reduced()
        a1, a2 = nearest_lattice_point(reduced, V0, WX, WY)
        assert _residual(reduced, V0, a1, a2) == (12345, 21)

    def test_lattice_point_maps_to_zero_residual(self):
        reduced = worked_reduced()
        v = _combo(reduced, 3, -7)
        a1, a2 = nearest_lattice_point(reduced, v, WX, WY)
        assert _residual(reduced, v, a1, a2) == (0, 0)

    def test_rounding_alone_can_miss_minimum(self):
        # Frozen instance where a coefficient lands exactly on a half
        # integer: plain rounding (ties toward zero) keeps norm 25 while
        # the true nearest point has norm 18.  The neighbourhood scan in
        # nearest_lattice_point recovers the minimum.
        basis = (-8, 0, 1, -2)
        wx, wy = 1, 9
        assert is_reduced(basis, wx, wy)
        v = (-5, 3)
        n1, n2, d = solve_coeffs(basis, v)
        assert (Fraction(n1, d), Fraction(n2, d)) == (Fraction(7, 16), Fraction(-3, 2))
        plain = (round_half_to_zero(n1, d), round_half_to_zero(n2, d))
        assert plain == (0, -1)
        plain_norm = _norm(_residual(basis, v, 0, -1), wx, wy)
        assert plain_norm == 25
        best = nearest_lattice_point(basis, v, wx, wy)
        best_norm = _norm(_residual(basis, v, *best), wx, wy)
        assert best == (0, -2) and best_norm == 18

    def test_refuses_an_unreduced_basis(self):
        # The 3x3 scan is exact only for a reduced basis: on this one it
        # would answer (57, -65) at norm 45, where the coset holds a point
        # at norm 5, which the scan finds in a reduced basis of the same
        # lattice.
        basis, v = (22, -37, 20, -35), (-43, 160)
        assert not is_reduced(basis, 1, 1)
        with pytest.raises(InvalidArgument, match="^basis is not reduced under the form$"):
            nearest_lattice_point(basis, v, 1, 1)
        reduced, _ = _textbook_gauss_reduce(basis, 1, 1)
        assert _norm(_residual(reduced, v, *nearest_lattice_point(reduced, v, 1, 1)), 1, 1) == 5

    def test_matches_exhaustive_small(self):
        rng = random.Random(2024)
        for _ in range(60):
            z, p, _, _, basis = random_family(rng, max_p=8)
            wx, wy = rng.randint(1, 4) ** 2, rng.randint(1, 4) ** 2
            reduced, _ = _textbook_gauss_reduce(basis, wx, wy)
            a1t, a2t = rng.randint(-30, 30), rng.randint(-30, 30)
            cx, cy = _combo(reduced, a1t, a2t)
            v = (cx + rng.randint(-3, 3), cy + rng.randint(-3, 3))
            c1, c2 = nearest_lattice_point(reduced, v, wx, wy)
            got = _norm(_residual(reduced, v, c1, c2), wx, wy)
            best = min(
                _norm(_residual(reduced, v, b1, b2), wx, wy)
                for b1 in range(-50, 51)
                for b2 in range(-50, 51)
            )
            assert got == best


def _reference_coefficient_box(basis, v, b1, b2):
    """The exact corner box by four Cramer solves, each divided by det:
    ceil of the smallest and floor of the largest coefficient over the
    corners of the closed rectangle [0, b1-1] x [0, b2-1]."""
    x1, y1, x2, y2 = basis
    vx, vy = v
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise InvalidArgument("cannot bound coefficients: determinant is 0")
    corners = [(x, y) for x in (vx, vx - (b1 - 1)) for y in (vy, vy - (b2 - 1))]
    nums1 = [x * y2 - x2 * y for x, y in corners]
    nums2 = [x1 * y - x * y1 for x, y in corners]
    return (
        min(-(-n // det) for n in nums1),
        max(n // det for n in nums1),
        min(-(-n // det) for n in nums2),
        max(n // det for n in nums2),
    )


def _reference_rect_search(basis, v, b1, b2, cap=1 << 20):
    """The enumeration with every point multiplied out from v: its hits,
    stably sorted by x, and the box's pair count.  It shares no code with
    lattice2d, and Attacker.attack is tested against it."""
    if b1 < 1 or b2 < 1:
        raise ValueError("rectangle bounds must be at least 1")
    lo1, hi1, lo2, hi2 = _reference_coefficient_box(basis, v, b1, b2)
    pairs = (hi1 - lo1 + 1) * (hi2 - lo2 + 1)
    if pairs > cap:
        raise SearchSpaceExceeded(f"coefficient box holds {pairs} pairs (cap {cap})")
    x1, y1, x2, y2 = basis
    hits = []
    for a1 in range(lo1, hi1 + 1):
        base_x, base_y = v[0] - a1 * x1, v[1] - a1 * y1
        for a2 in range(lo2, hi2 + 1):
            sx, sy = base_x - a2 * x2, base_y - a2 * y2
            if 0 <= sx < b1 and 0 <= sy < b2:
                hits.append((sx, sy))
    hits.sort(key=lambda s: s[0])
    return hits, pairs


def _token_point(q, u):
    """The coset point (0, -2^q*u) that coefficient_box and
    Attacker.attack search around."""
    return 0, -(u << q)


def _reference_reduced(z, p, m, q):
    """The textbook loop's basis from euclid_basis(z, p, m, q)'s stop
    under the rectangle's form: gauss_reduce's basis before its frame
    negates u1 for det < 0."""
    start, _ = euclid_basis(z, p, m, q)
    return _textbook_gauss_reduce(start, *rect_weights(1 << m, 1 << q))[0]


def _assert_matches_reference(z, p, q, m, u, cap=1 << 20):
    """For the frame of gauss_reduce(z, p, m, q) and the rectangle
    [0, 2^m) x [0, 2^q): the frame's basis is _reference_reduced's with
    u1 negated when det < 0, the folded box equals the reference box at
    (0, -2^q*u) in that basis, and Attacker(z, p, q, m).attack(u) keeps
    the hits of the reference walk in _reference_reduced's basis, unless
    its box holds more than ``cap`` pairs.  Returns whether u1 was
    negated."""
    b1, b2 = 1 << m, 1 << q
    frame = gauss_reduce(z, p, m, q)[0]
    reduced = _reference_reduced(z, p, m, q)
    assert frame[0] == _oriented(reduced)
    v = _token_point(q, u)
    assert coefficient_box(frame, u) == _reference_coefficient_box(frame[0], v, b1, b2)
    try:
        hits, _ = _reference_rect_search(reduced, v, b1, b2, cap)
    except SearchSpaceExceeded:
        return frame[0] != reduced
    assert list(Attacker(z, p, q, m).attack(u).candidates) == hits
    return frame[0] != reduced


class TestRectSearch:
    def test_worked_answer(self):
        hits, pairs = _reference_rect_search(worked_reduced(), _token_point(Q, U), B1, B2)
        assert hits == [(12345, 21)]
        result = Attacker(Z, P, Q, 14).attack(U)
        assert (list(result.candidates), result.searched) == (hits, pairs)

    def test_zero_target(self):
        hits, _ = _reference_rect_search(worked_reduced(), _token_point(Q, 0), B1, B2)
        assert (0, 0) in hits
        assert list(Attacker(Z, P, Q, 14).attack(0).candidates) == hits

    def test_cap(self, monkeypatch):
        # the worked box is exact: one pair, so only a cap of 0 refuses it
        attacker = Attacker(Z, P, Q, 14)
        monkeypatch.setattr(truncrack.lattice2d, "BOX_CAP", 1)
        assert attacker.attack(U).searched == 1
        monkeypatch.setattr(truncrack.lattice2d, "BOX_CAP", 0)
        with pytest.raises(SearchSpaceExceeded, match=r"about 2\^0 pairs \(cap 0\)"):
            attacker.attack(U)

    def test_matches_reference_loop(self):
        # The folded box of gauss_reduce's frame against the general-point
        # reference at (0, -2^q*u), and the attack against the reference
        # walk: u = 0 with m < q, q = 0, even z, z >= 2^p and empty boxes
        # included, and frames with u1 negated and not.
        negated = set()

        @settings(max_examples=300, deadline=None)
        @given(case=euclid_cases())
        @example(case=(11, 5, 0, 3, 1))  # q = 0, x = 3 a hit, u1 negated
        @example(case=(11, 5, 2, 3, 1))  # an empty box
        @example(case=(4096, 11, 5, 3, 0))  # u = 0, m < q, even z
        @example(case=(6173 + (5 << 22), 22, 5, 14, 22131))  # z >= 2^p, u1 kept
        @example(case=(6174, 22, 5, 14, 22131))  # even z
        def check(case):
            negated.add(_assert_matches_reference(*case, cap=1 << 12))

        check()
        assert negated == {False, True}

    def test_box_bound_covers_every_token(self):
        # The frames of test_matches_reference_loop: box_bound is at least
        # the box of the drawn token, of 0 and of integers far outside the
        # token map's range, for frames with u1 negated and not.
        negated = set()

        @settings(max_examples=300, deadline=None)
        @given(case=euclid_cases(), others=st.lists(st.integers(-(1 << 40), 1 << 40), max_size=4))
        @example(case=(11, 5, 0, 3, 1), others=[])  # u1 negated
        @example(case=(Z, P, Q, 14, U), others=[])  # u1 kept
        def check(case, others):
            z, p, q, m, u = case
            frame = gauss_reduce(z, p, m, q)[0]
            bound = box_bound(frame)
            for token in (u, 0, *others):
                lo1, hi1, lo2, hi2 = coefficient_box(frame, token)
                assert (hi1 - lo1 + 1) * (hi2 - lo2 + 1) <= bound
            negated.add(frame[0] != _reference_reduced(z, p, m, q))

        check()
        assert negated == {False, True}

    def test_matches_reference_loop_size_ladder(self):
        negated = {_assert_matches_reference(*case) for case in _ladder_tokens(random.Random(7070))}
        assert negated == {False, True}

    def test_matches_membership_scan(self):
        rng = random.Random(404)
        for _ in range(30):
            p = rng.randint(6, 12)
            z = rng.randint(1, (1 << p) - 1)
            q = rng.randint(1, p // 2)
            m = rng.randint(2, 8)
            u = rng.randint(0, (1 << (p - q)) - 1)
            b1, b2 = 1 << m, 1 << q
            hits = list(Attacker(z, p, q, m).attack(u).candidates)
            vx, vy = _token_point(q, u)
            modulus = 1 << p
            expected = [
                (x, y)
                for x in range(b1)
                for y in range(b2)
                if ((vx - x) * z - (vy - y)) % modulus == 0
            ]
            assert hits == sorted(expected)

    def test_sorted_by_x(self):
        rng = random.Random(8)
        for _ in range(20):
            z, p, q, u, _ = random_family(rng, max_p=10)
            hits = Attacker(z, p, q, 6).attack(u).candidates
            assert [x for x, _ in hits] == sorted(x for x, _ in hits)

    def test_scaling_invariance(self):
        # The textbook loop from solution_basis's generators, under the
        # rectangle's form and 7 times it, gives one basis, one walk and
        # one nearest point.
        rng = random.Random(70)
        for _ in range(25):
            z, p, q, u, basis = random_family(rng)
            v0, _ = solution_basis(z, p, q, u)
            b1 = 1 << rng.randint(2, 8)
            b2 = 1 << rng.randint(1, 5)
            wx, wy = rect_weights(b1, b2)
            red_a, it_a = _textbook_gauss_reduce(basis, wx, wy)
            red_b, it_b = _textbook_gauss_reduce(basis, 7 * wx, 7 * wy)
            assert (red_a, it_a) == (red_b, it_b)
            v = _token_point(q, u)
            assert _reference_rect_search(red_a, v, b1, b2) == _reference_rect_search(
                red_b, v, b1, b2
            )
            assert nearest_lattice_point(red_a, v0, wx, wy) == nearest_lattice_point(
                red_b, v0, 7 * wx, 7 * wy
            )


def _assert_box_matches_rationals(z, p, q, u, m):
    """coefficient_box of gauss_reduce(z, p, m, q)'s frame equals the
    exact corner box of solve_coeffs' exact rationals over the closed
    rectangle [0, b1-1] x [0, b2-1] around (0, -2^q*u), b1 = 2^m and
    b2 = 2^q.  The box counts in the frame's basis: _reference_reduced's,
    with u1 negated when det < 0.  Returns whether u1 was negated."""
    b1, b2 = 1 << m, 1 << q
    frame = gauss_reduce(z, p, m, q)[0]
    reduced = _reference_reduced(z, p, m, q)
    oriented = _oriented(reduced)
    assert frame[:4] == (oriented, p - q, b1, b2) and _det(oriented) == 1 << p
    vx, vy = _token_point(q, u)
    corners = [(vx, vy), (vx - (b1 - 1), vy), (vx, vy - (b2 - 1)), (vx - (b1 - 1), vy - (b2 - 1))]
    a1s, a2s = zip(*(_rational_coeffs(oriented, corner) for corner in corners))
    expected = (
        math.ceil(min(a1s)),
        math.floor(max(a1s)),
        math.ceil(min(a2s)),
        math.floor(max(a2s)),
    )
    assert coefficient_box(frame, u) == expected
    return oriented != reduced


class TestCoefficientBox:
    def test_contains_winning_pair(self):
        frame = gauss_reduce(Z, P, 14, Q)[0]
        lo1, hi1, lo2, hi2 = coefficient_box(frame, U)
        a1, a2 = nearest_lattice_point(frame[0], _token_point(Q, U), WX, WY)
        assert lo1 <= a1 <= hi1 and lo2 <= a2 <= hi2

    def test_matches_exact_rational_box(self):
        # The floor identity behind the folded box holds for every integer
        # u, so u ranges past the token map's image and below 0.  The
        # rectangle is [0, 2^m) x [0, 2^q), the only shape gauss_reduce
        # takes, and frames with u1 negated and not occur.
        negated = set()

        @settings(max_examples=300, deadline=None)
        @given(
            z=st.integers(1, 1 << 70),
            p=st.integers(1, 64),
            q=st.integers(0, 63),
            u=st.integers(-(1 << 80), 1 << 80),
            m=st.integers(0, 40),
        )
        @example(z=11, p=5, q=0, u=1, m=3)  # u1 negated
        @example(z=Z, p=P, q=Q, u=U, m=14)  # u1 kept
        def check(z, p, q, u, m):
            assume(q < p)
            negated.add(_assert_box_matches_rationals(z, p, q, u, m))

        check()
        assert negated == {False, True}

    def test_matches_exact_rational_box_full_scale(self):
        rng = random.Random(2048)
        l, m, q = 2048, 512, 512
        p = l + m - q
        negated = set()
        for _ in range(8):
            z = (1 << (l - 1)) | rng.getrandbits(l - 1)
            x = rng.randint(1, (1 << m) - 1)
            u = ((x * z) & ((1 << p) - 1)) >> q
            negated.add(_assert_box_matches_rationals(z, p, q, u, m))
        assert negated == {False, True}

    @pytest.mark.parametrize("m, q", [(512, 512), (1024, 16)])
    def test_folded_box_matches_reference_full_scale(self, m, q):
        # One l=2048 deployment per (m, q), the skewed form included: on
        # 20 honest and 20 uniform tokens the attack's folded box is the
        # reference box at (0, -2^q*u), and the attack keeps the reference
        # walk's hits whose token map is u and searches as many pairs.
        rng = random.Random(m + q)
        l = 2048
        p = l + m - q
        b1, b2 = 1 << m, 1 << q
        z = (1 << (l - 1)) | rng.getrandbits(l - 1)
        attacker = Attacker(z, p, q, m)
        frame = attacker.frame
        honest = [((rng.randint(1, b1 - 1) * z) & ((1 << p) - 1)) >> q for _ in range(20)]
        uniform = [rng.randint(0, (1 << (p - q)) - 1) for _ in range(20)]
        for u in honest + uniform:
            v = _token_point(q, u)
            assert coefficient_box(frame, u) == _reference_coefficient_box(frame[0], v, b1, b2)
            hits, pairs = _reference_rect_search(frame[0], v, b1, b2)
            kept = [(x, y) for x, y in hits if ((x * z) & ((1 << p) - 1)) >> q == u]
            result = attacker.attack(u)
            assert (list(result.candidates), result.searched) == (kept, pairs)


class TestDecimalFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ((57841184, 1 << 22), "13.790"),
            ((-42816640, 1 << 22), "-10.208"),
            ((0, 1), "0.000"),
            ((-1, 2), "-0.500"),
            ((1999, 1000), "1.999"),
            ((-3, 6), "-0.500"),
            ((-1, 2000), "-0.000"),
        ],
    )
    def test_truncates_toward_zero(self, value, expected):
        # value is (numerator, denominator)
        assert truncate_decimal(*value) == expected

    @settings(max_examples=300, deadline=None)
    @given(num=st.integers(-(1 << 80), 1 << 80), den=st.integers(1, 1 << 80))
    @example(num=-1, den=2000)  # above -0.001: "-0.000"
    @example(num=-1999, den=1000)
    def test_matches_fraction_formula(self, num, den):
        assert truncate_decimal(num, den) == _fraction_truncate(Fraction(num, den))

    @pytest.mark.parametrize("den", [0, -1, -(1 << 20000)], ids=["0", "-1", "-2^20000"])
    def test_refuses_denominator_below_1(self, den):
        with pytest.raises(InvalidArgument, match="^den must be at least 1, got "):
            truncate_decimal(1, den)

    def test_refuses_whole_part_past_digit_limit(self):
        with pytest.raises(InvalidArgument) as info:
            truncate_decimal(-(1 << 20000), 1)
        assert str(info.value) == (
            f"the whole part must have at most {sys.get_int_max_str_digits()} digits, "
            "got a 20001-bit integer"
        )


class TestModuleNames:
    def test_defines_what_attacker_calls_and_nothing_else(self):
        # The module's own top-level names, its imports left out: what
        # attack.Attacker calls, and the constant and type those use.
        names = set()
        for node in ast.parse(inspect.getsource(truncrack.lattice2d)).body:
            if isinstance(node, (ast.Import, ast.ImportFrom, ast.Expr)):
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            else:
                assert isinstance(node, ast.Assign)
                names.update(target.id for target in node.targets)
        assert names == {
            "euclid_basis", "round_half_to_zero", "gauss_reduce",
            "coefficient_box", "box_bound", "check_box", "BOX_CAP", "Frame",
        }
