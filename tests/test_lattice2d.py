import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from truncrack import (
    DegenerateInput,
    IterationCapExceeded,
    IVec2,
    LatticeBasis,
    SearchSpaceExceeded,
    SingularBasis,
    WeightedForm,
    gauss_reduce,
    nearest_lattice_point,
    rect_search,
    round_half_to_zero,
    solution_basis,
    solve_coeffs,
    truncate_decimal,
)
from truncrack.lattice2d import (
    ReductionStep,
    _round_quotient_half_to_zero,
    coefficient_box,
    euclid_basis,
)
from truncrack.protocol import check_shape
from test_acceptance import SIZE_LADDER, basis_ints, lattice_basis

# The worked toy instance used throughout: z=6173, p=22, q=5, u=22131.
Z, P, Q, U = 6173, 22, 5, 22131
B1, B2 = 1 << 14, 1 << 5
FORM = WeightedForm.for_rectangle(B1, B2)
V0 = (115, 1703)


def worked_family():
    return solution_basis(Z, P, Q, U)


def worked_reduced():
    reduced, _ = gauss_reduce(basis_ints(worked_family().basis()), P, FORM.wx, FORM.wy)
    return lattice_basis(reduced, P, Z)


def reduce_family(fam, form):
    """gauss_reduce of the family's generators under ``form``, as a
    LatticeBasis, and the pass count."""
    reduced, passes = gauss_reduce(basis_ints(fam.basis()), fam.modulus_exp, form.wx, form.wy)
    return lattice_basis(reduced, fam.modulus_exp, fam.z), passes


def random_family(rng, max_p=16):
    p = rng.randint(3, max_p)
    z = rng.randint(1, (1 << p) - 1)
    q = rng.randint(0, max(0, p // 2))
    u = rng.randint(0, (1 << (p - q)) - 1)
    return solution_basis(z, p, q, u)


class TestSolutionBasis:
    def test_worked_particular_solution(self):
        fam = worked_family()
        assert fam.v0 == IVec2(115, 1703)

    def test_worked_generators(self):
        fam = worked_family()
        assert fam.g1 == IVec2(114, -3490582)
        assert fam.g2 == IVec2(115, -3484409)
        assert fam.basis().det() == 1 << 22

    def test_zero_token(self):
        fam = solution_basis(97, 10, 3, 0)
        assert fam.v0 == IVec2(0, 0)
        assert fam.g1 == IVec2(0, -(1 << 10))
        assert fam.g2 == IVec2(1, 97 - (1 << 10))

    def test_zero_multiplier_rejected(self):
        with pytest.raises(DegenerateInput):
            solution_basis(0, 10, 3, 5)

    def test_vectors_satisfy_congruences(self):
        rng = random.Random(7)
        for _ in range(200):
            fam = random_family(rng)
            modulus = 1 << fam.modulus_exp
            basis = fam.basis()
            assert basis.contains(fam.g1)
            assert basis.contains(fam.g2)
            assert 0 <= fam.v0.y < fam.z
            assert abs(basis.det()) == modulus


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
        assert round_half_to_zero(value) == expected

    @given(value=st.fractions())
    def test_nearest_with_ties_toward_zero(self, value):
        result = round_half_to_zero(value)
        assert isinstance(result, int)
        assert abs(value - result) <= Fraction(1, 2)
        if abs(value - result) == Fraction(1, 2):
            other = 2 * value - result  # the equally-near integer
            assert abs(result) <= abs(other)


class TestGaussReduce:
    def test_worked_reduction(self):
        reduced = worked_reduced()
        expected = {IVec2(-25140, 28), IVec2(25140, -28), IVec2(-33973, -129), IVec2(33973, 129)}
        assert reduced.u1 in expected and reduced.u2 in expected
        assert reduced.u1 not in (reduced.u2, -reduced.u2)
        assert abs(reduced.det()) == 1 << 22
        assert reduced.is_reduced(FORM)

    def test_fixed_point(self):
        reduced = basis_ints(worked_reduced())
        again, passes = gauss_reduce(reduced, P, FORM.wx, FORM.wy)
        assert again == reduced
        assert passes == 1

    def test_orthogonal_basis_unchanged(self):
        basis = (1, 0, 0, 1 << 8)
        reduced, passes = gauss_reduce(basis, 8, 1, 1)
        assert reduced == basis
        assert passes == 1

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            gauss_reduce((2, 4, 1, 2), 4, 1, 1)

    @pytest.mark.parametrize("wx, wy", [(0, 1), (1, 0), (-1, 4)])
    def test_nonpositive_weights_rejected(self, wx, wy):
        with pytest.raises(ValueError):
            gauss_reduce((1, 0, 0, 1 << 8), 8, wx, wy)
        with pytest.raises(ValueError):
            WeightedForm(wx=wx, wy=wy)

    def test_iteration_cap(self):
        # A Fibonacci-skewed basis needs ~one pass per index; with
        # modulus_exp=1 the cap is 64 passes, far too few on purpose.
        a, b = 1, 1
        for _ in range(400):
            a, b = b, a + b
        with pytest.raises(IterationCapExceeded):
            gauss_reduce((b, a, a, b - a), 1, 1, 1)

    def test_per_step_invariants_random(self):
        rng = random.Random(99)
        for _ in range(60):
            fam = random_family(rng)
            form = WeightedForm(wx=rng.randint(1, 9), wy=rng.randint(1, 9))
            target_det = abs(fam.basis().det())
            state = {"u1": fam.g1, "u2": fam.g2}
            def check(step, state=state, form=form, target_det=target_det):
                det = step.u1.x * step.u2.y - step.u1.y * step.u2.x
                assert abs(det) == target_det
                replaced = step.u1 if step.target == "u1" else step.u2
                if step.c != 0:
                    assert form.norm_sq(replaced) < form.norm_sq(state[step.target])
                state["u1"], state["u2"] = step.u1, step.u2
            reduced, passes = gauss_reduce(
                basis_ints(fam.basis()), fam.modulus_exp, form.wx, form.wy, on_step=check
            )
            reduced = lattice_basis(reduced, fam.modulus_exp, fam.z)
            assert passes <= 64 * fam.modulus_exp
            cross = abs(form.inner(reduced.u1, reduced.u2))
            assert 2 * cross <= min(form.norm_sq(reduced.u1), form.norm_sq(reduced.u2))

    def test_membership_closed_under_combinations(self):
        rng = random.Random(5)
        reduced = worked_reduced()
        for _ in range(100):
            a1, a2 = rng.randint(-50, 50), rng.randint(-50, 50)
            combo = reduced.u1.scaled(a1) + reduced.u2.scaled(a2)
            assert reduced.contains(combo)

    def test_span_preserved(self):
        # Original generators must be integer combinations of the output.
        rng = random.Random(31)
        for _ in range(40):
            fam = random_family(rng)
            form = WeightedForm(wx=1, wy=rng.randint(1, 16))
            reduced, _ = reduce_family(fam, form)
            for g in (fam.g1, fam.g2):
                a1, a2 = solve_coeffs(reduced, g)
                assert a1.denominator == 1 and a2.denominator == 1


def _textbook_gauss_reduce(basis, form, *, on_step=None):
    """The textbook loop: every half-step recomputes the norms and the inner
    product on IVec2s under the unscaled form.  gauss_reduce must match it
    step for step."""
    u1, u2 = basis.u1, basis.u2
    det = basis.det()
    if det == 0:
        raise DegenerateInput("basis is degenerate (determinant 0)")
    cap = 64 * basis.modulus_exp
    passes = 0
    while True:
        passes += 1
        if passes > cap:
            raise IterationCapExceeded(
                f"reduction exceeded {cap} passes (modulus_exp={basis.modulus_exp})"
            )
        old_norm1 = form.norm_sq(u1)
        c1 = _round_quotient_half_to_zero(form.inner(u1, u2), form.norm_sq(u2))
        u1 = u1 - u2.scaled(c1)
        assert abs(u1.x * u2.y - u1.y * u2.x) == abs(det)
        assert c1 == 0 or form.norm_sq(u1) < old_norm1
        if on_step is not None:
            on_step(ReductionStep(target="u1", c=c1, u1=u1, u2=u2))

        old_norm2 = form.norm_sq(u2)
        c2 = _round_quotient_half_to_zero(form.inner(u1, u2), form.norm_sq(u1))
        u2 = u2 - u1.scaled(c2)
        assert abs(u1.x * u2.y - u1.y * u2.x) == abs(det)
        assert c2 == 0 or form.norm_sq(u2) < old_norm2
        if on_step is not None:
            on_step(ReductionStep(target="u2", c=c2, u1=u1, u2=u2))

        if c1 == 0 and c2 == 0:
            break
    reduced = LatticeBasis(u1=u1, u2=u2, modulus_exp=basis.modulus_exp, z=basis.z)
    assert reduced.is_reduced(form)
    return reduced, passes


def _assert_matches_textbook(basis, form):
    """gauss_reduce gives the textbook loop's basis, pass count and steps."""
    fast_steps, ref_steps = [], []
    args = (basis_ints(basis), basis.modulus_exp, form.wx, form.wy)
    fast = gauss_reduce(*args, on_step=fast_steps.append)
    ref_basis, ref_passes = _textbook_gauss_reduce(basis, form, on_step=ref_steps.append)
    ref = (basis_ints(ref_basis), ref_passes)
    assert fast == ref
    assert fast_steps == ref_steps
    assert gauss_reduce(*args) == ref  # no hook: same result


class TestMatchesTextbookLoop:
    def test_size_ladder_plain_and_scaled_forms(self):
        rng = random.Random(4040)
        for l, m, q, r in SIZE_LADDER:
            p = l + m - q
            for k in range(4):
                z = (1 << (l - 1)) | rng.getrandbits(l - 1)
                if k < 3:
                    x = rng.randint(1, (1 << m) - 1)
                    u = ((x * z) & ((1 << p) - 1)) >> q
                else:
                    u = rng.randint(0, (1 << (p - q)) - 1)
                fam = solution_basis(z, p, q, u)
                form = WeightedForm.for_rectangle(1 << m, 1 << q)
                _assert_matches_textbook(fam.basis(), form)
                _assert_matches_textbook(fam.basis(), WeightedForm(wx=7 * form.wx, wy=7 * form.wy))

    def test_corner_case_bounds(self):
        # u = 0 with m < q, where 2^m - 2^q*u lies in (0, 2^q): the
        # rectangle is still [0, 2^m) x [0, 2^q), under the skew form.
        rng = random.Random(4141)
        for l, m, q, r in [(13, 3, 5, 1), (40, 6, 12, 4), (160, 32, 48, 16), (2048, 256, 512, 129)]:
            p = check_shape(l, m, q, r)
            assert 0 < (1 << m) < 1 << q
            form = WeightedForm.for_rectangle(1 << m, 1 << q)
            for _ in range(5):
                z = (1 << (l - 1)) | rng.getrandbits(l - 1)
                _assert_matches_textbook(solution_basis(z, p, q, 0).basis(), form)

    def test_non_square_and_common_factor_weights(self):
        rng = random.Random(4242)
        for i in range(400):
            fam = random_family(rng, max_p=24 if i % 2 else 12)
            wx, wy = rng.randint(1, 10**6), rng.randint(1, 10**6)
            k = rng.choice([1, 7, 2**20, 3 * 5 * 11])
            _assert_matches_textbook(fam.basis(), WeightedForm(wx=k * wx, wy=k * wy))


# Gram entries above this many bits exercise gauss_reduce on big ints.
_LARGE_ENTRY_BITS = 256


@st.composite
def large_entry_cases(draw):
    """A congruence basis with l in [128, 2048] under a rectangle form, the
    same form times 7, or arbitrary positive weights, whose Gram entries
    exceed _LARGE_ENTRY_BITS."""
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
    basis = solution_basis(z, p, q, u).basis()
    rect = WeightedForm.for_rectangle(1 << m, 1 << q)
    kind = draw(st.sampled_from(["rectangle", "rectangle x 7", "arbitrary"]))
    if kind == "rectangle":
        form = rect
    elif kind == "rectangle x 7":
        form = WeightedForm(wx=7 * rect.wx, wy=7 * rect.wy)
    else:
        weights = st.integers(1, 1 << draw(st.integers(1, 2 * l)))
        form = WeightedForm(wx=draw(weights), wy=draw(weights))
    g = math.gcd(form.wx, form.wy)
    wx, wy = form.wx // g, form.wy // g
    norms = [wx * v.x * v.x + wy * v.y * v.y for v in (basis.u1, basis.u2)]
    assume(max(norms).bit_length() > _LARGE_ENTRY_BITS)
    return basis, form


class TestLargeEntries:
    @settings(max_examples=60, deadline=None)
    @given(case=large_entry_cases())
    def test_matches_textbook_loop(self, case):
        _assert_matches_textbook(*case)

    @pytest.mark.parametrize(
        "u1, u2, c1",
        [
            ((1, 1), (2, 0), 0),  # d/n2 = 1/2
            ((-1, -1), (2, 0), 0),  # d/n2 = -1/2
            ((3, 1), (2, 0), 1),  # d/n2 = 3/2
        ],
    )
    def test_exact_tie_rounds_toward_zero(self, u1, u2, c1):
        scale = 1 << 300
        basis = LatticeBasis(
            IVec2(u1[0] * scale, u1[1] * scale), IVec2(u2[0] * scale, u2[1] * scale),
            modulus_exp=601, z=0,
        )
        form = WeightedForm(wx=1, wy=1)
        steps = []
        gauss_reduce(basis_ints(basis), 601, 1, 1, on_step=steps.append)
        assert (steps[0].target, steps[0].c) == ("u1", c1)  # halves toward zero
        _assert_matches_textbook(basis, form)


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
    form = WeightedForm.for_rectangle(b1, b2)
    fam = solution_basis(z, p, q, u)
    start, _ = euclid_basis(z, p, b1, b2)
    start_basis = lattice_basis(start, p, z)
    assert fam.basis().contains(start_basis.u1) and fam.basis().contains(start_basis.u2)
    assert abs(start_basis.det()) == 1 << p
    ours, _ = gauss_reduce(start, p, form.wx, form.wy)
    theirs, _ = gauss_reduce(basis_ints(fam.basis()), p, form.wx, form.wy)
    ours_basis, theirs_basis = lattice_basis(ours, p, z), lattice_basis(theirs, p, z)
    assert ours_basis.is_reduced(form)
    norms = sorted(form.norm_sq(v) for v in (ours_basis.u1, ours_basis.u2))
    assert norms == sorted(form.norm_sq(v) for v in (theirs_basis.u1, theirs_basis.u2))
    args = (p, (fam.v0.x, fam.v0.y), b1, b2)
    assert rect_search(ours, *args) == rect_search(theirs, *args)


def _reference_euclid_basis(z, p, b1, b2):
    """The plain extended-Euclid loop, divmod for every quotient, stopping
    at the first remainder below 2^max((p + 1 - shift) // 2, 0).
    euclid_basis must return its pair and quotient count."""
    shift = b1.bit_length() - b2.bit_length()
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
    """(z, p, b1, b2) for euclid_basis alone: p in [1, 80]; z arbitrary,
    a multiple of 2^p, at least 2^p, or even; b1 and b2 independent, so
    shift = bits(b1) - bits(b2) runs from negative to above p."""
    p = draw(st.integers(1, 80))
    z = draw(
        st.integers(1, (1 << p) - 1)
        | st.integers(0, 40).map(lambda k: k << p)
        | st.integers(1 << p, 1 << (p + 8))
        | st.integers(1, 1 << p).map(lambda k: 2 * k)
    )
    b1 = draw(st.integers(1, 1 << draw(st.integers(0, p + 4))))
    b2 = draw(st.integers(1, 1 << draw(st.integers(0, p + 4))))
    return z, p, b1, b2


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
            args = (z, p, 1 << m, 1 << q)
            assert euclid_basis(*args) == _reference_euclid_basis(*args)

    def test_exhaustive_small_sweep(self):
        # Every z in [1, 2^(p+1)) for p <= 7, so even z, z = 0 mod 2^p and
        # z >= 2^p all occur; b1 = 2^e for e in [0, p+1] and several b2, so
        # the floor runs down to 1, where the loop runs until r1 == 0.
        reached = {"r1 == 0": 0, "floor 1": 0, "k > 0": 0}
        for p in range(1, 8):
            for z in range(1, 1 << (p + 1)):
                for e in range(p + 2):
                    for b2 in (1, 3, 1 << (p // 2), 1 << p, 1 << (p + 1)):
                        args = (z, p, 1 << e, b2)
                        got = euclid_basis(*args)
                        assert got == _reference_euclid_basis(*args), args
                        reached["r1 == 0"] += got[0][3] == 0
                        reached["floor 1"] += e + 1 - b2.bit_length() >= p
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
        b1 = b2 = 1 << m
        f = (p + 1) // 2
        for k in (0, 1, f - 2, f - 1, f, f + 1, p - 1):
            odd = (1 << (l - k - 1)) | rng.getrandbits(l - k - 1) | 1
            z = odd << k
            got = euclid_basis(z, p, b1, b2)
            assert got == _reference_euclid_basis(z, p, b1, b2), k
            if k >= f:
                assert got[0][3] == 0 and got[0][1] == 1 << k

    def test_zero_remainder_stops_at_once(self):
        start, quotients = euclid_basis(4096, 11, 1 << 3, 1 << 3)
        assert quotients == 0
        assert start == (0, 1 << 11, 1, 0)

    def test_size_ladder(self):
        for case in _ladder_tokens(random.Random(5050)):
            _assert_euclid_start_matches(*case)


class TestSolveCoeffs:
    def test_worked_coefficients(self):
        # In the orientation with u1=(-25140,28), u2=(-33973,-129).
        basis = LatticeBasis(IVec2(-25140, 28), IVec2(-33973, -129), modulus_exp=22, z=Z)
        a1, a2 = solve_coeffs(basis, IVec2(115, 1703))
        assert a1 == Fraction(57841184, 1 << 22)
        assert a2 == Fraction(-42816640, 1 << 22)
        assert truncate_decimal(a1) == "13.790"
        assert truncate_decimal(a2) == "-10.208"

    def test_worked_corner_coefficients(self):
        # Exact Cramer solve of the four rectangle corners, truncated at
        # three decimals.  Pinned from independent hand evaluation.
        basis = LatticeBasis(IVec2(-25140, 28), IVec2(-33973, -129), modulus_exp=22, z=Z)
        v = IVec2(115, 1703)
        corners = [v, v - IVec2(B1, 0), v - IVec2(0, B2), v - IVec2(B1, B2)]
        expected = [
            ("13.790", "-10.208"),
            ("14.294", "-10.098"),
            ("13.531", "-10.016"),
            ("14.035", "-9.907"),
        ]
        for corner, (want1, want2) in zip(corners, expected):
            a1, a2 = solve_coeffs(basis, corner)
            assert (truncate_decimal(a1), truncate_decimal(a2)) == (want1, want2)

    def test_identity_cases(self):
        basis = worked_reduced()
        assert solve_coeffs(basis, basis.u1) == (1, 0)
        assert solve_coeffs(basis, IVec2(0, 0)) == (0, 0)

    def test_reconstruction(self):
        rng = random.Random(17)
        basis = worked_reduced()
        for _ in range(50):
            v = IVec2(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
            a1, a2 = solve_coeffs(basis, v)
            x = a1 * basis.u1.x + a2 * basis.u2.x
            y = a1 * basis.u1.y + a2 * basis.u2.y
            assert (x, y) == (v.x, v.y)
            assert ((1 << 22) % a1.denominator) == 0

    def test_singular(self):
        basis = LatticeBasis(IVec2(2, 4), IVec2(1, 2), modulus_exp=4, z=1)
        with pytest.raises(SingularBasis):
            solve_coeffs(basis, IVec2(1, 1))


class TestNearestPoint:
    def test_worked_rounding(self):
        basis = LatticeBasis(IVec2(-25140, 28), IVec2(-33973, -129), modulus_exp=22, z=Z)
        assert nearest_lattice_point(basis, IVec2(115, 1703), FORM) == (14, -10)

    def test_worked_residual(self):
        reduced = worked_reduced()
        v = IVec2(115, 1703)
        a1, a2 = nearest_lattice_point(reduced, v, FORM)
        residual = v - reduced.u1.scaled(a1) - reduced.u2.scaled(a2)
        assert residual == IVec2(12345, 21)

    def test_lattice_point_maps_to_zero_residual(self):
        reduced = worked_reduced()
        v = reduced.u1.scaled(3) - reduced.u2.scaled(7)
        a1, a2 = nearest_lattice_point(reduced, v, FORM)
        assert v - reduced.u1.scaled(a1) - reduced.u2.scaled(a2) == IVec2(0, 0)

    def test_rounding_alone_can_miss_minimum(self):
        # Frozen instance where a coefficient lands exactly on a half
        # integer: plain rounding (ties toward zero) keeps norm 25 while
        # the true nearest point has norm 18.  The neighbourhood scan in
        # nearest_lattice_point recovers the minimum.
        basis = LatticeBasis(IVec2(-8, 0), IVec2(1, -2), modulus_exp=4, z=14)
        form = WeightedForm(wx=1, wy=9)
        assert basis.is_reduced(form)
        v = IVec2(-5, 3)
        a1, a2 = solve_coeffs(basis, v)
        assert (a1, a2) == (Fraction(7, 16), Fraction(-3, 2))
        plain = (round_half_to_zero(a1), round_half_to_zero(a2))
        assert plain == (0, -1)
        plain_norm = form.norm_sq(v - basis.u1.scaled(0) - basis.u2.scaled(-1))
        assert plain_norm == 25
        best = nearest_lattice_point(basis, v, form)
        best_norm = form.norm_sq(v - basis.u1.scaled(best[0]) - basis.u2.scaled(best[1]))
        assert best == (0, -2) and best_norm == 18

    def test_matches_exhaustive_small(self):
        rng = random.Random(2024)
        for _ in range(60):
            fam = random_family(rng, max_p=8)
            form = WeightedForm(wx=rng.randint(1, 4) ** 2, wy=rng.randint(1, 4) ** 2)
            reduced, _ = reduce_family(fam, form)
            a1t, a2t = rng.randint(-30, 30), rng.randint(-30, 30)
            v = reduced.u1.scaled(a1t) + reduced.u2.scaled(a2t) + IVec2(
                rng.randint(-3, 3), rng.randint(-3, 3)
            )
            c1, c2 = nearest_lattice_point(reduced, v, form)
            got = form.norm_sq(v - reduced.u1.scaled(c1) - reduced.u2.scaled(c2))
            best = min(
                form.norm_sq(v - reduced.u1.scaled(b1) - reduced.u2.scaled(b2))
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
        raise SingularBasis("cannot bound coefficients: determinant is 0")
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
    """The enumeration with every point multiplied out from v, its hits
    stably sorted by x.  rect_search must return its hits and pair count."""
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


def _assert_rect_search_matches_reference(basis, p, v, b1, b2, cap=1 << 20):
    """Same hits and pair count as the reference, or the same exception."""
    try:
        expected = _reference_rect_search(basis, v, b1, b2, cap)
    except SearchSpaceExceeded:
        with pytest.raises(SearchSpaceExceeded):
            rect_search(basis, p, v, b1, b2, cap)
        return
    assert rect_search(basis, p, v, b1, b2, cap) == expected


class TestRectSearch:
    def test_worked_answer(self):
        reduced = basis_ints(worked_reduced())
        hits, _ = rect_search(reduced, P, V0, B1, B2)
        assert hits == [(12345, 21)]

    def test_zero_target(self):
        reduced = basis_ints(worked_reduced())
        hits, _ = rect_search(reduced, P, (0, 0), B1, B2)
        assert (0, 0) in hits

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            rect_search(basis_ints(worked_reduced()), P, (0, 0), 0, 32)

    def test_cap(self):
        # the worked box is exact: one pair, so only cap=0 refuses it
        reduced = basis_ints(worked_reduced())
        assert rect_search(reduced, P, V0, B1, B2, cap=1)[1] == 1
        with pytest.raises(SearchSpaceExceeded):
            rect_search(reduced, P, V0, B1, B2, cap=0)

    @settings(max_examples=300, deadline=None)
    @given(case=euclid_cases(), swap=st.booleans(), mix=st.integers(-3, 3))
    def test_matches_reference_loop(self, case, swap, mix):
        # The reduced basis, in either order and optionally skewed by a
        # unimodular step (which only widens the box), against the token's
        # particular solution and rectangle, u = 0 with m < q included.
        z, p, q, m, u = case
        b1, b2 = 1 << m, 1 << q
        fam = solution_basis(z, p, q, u)
        basis, _ = reduce_family(fam, WeightedForm.for_rectangle(b1, b2))
        a, b = (basis.u2, basis.u1) if swap else (basis.u1, basis.u2)
        basis = basis_ints(LatticeBasis(a, b + a.scaled(mix), modulus_exp=p, z=z))
        _assert_rect_search_matches_reference(
            basis, p, (fam.v0.x, fam.v0.y), b1, b2, cap=1 << 12
        )

    def test_matches_reference_loop_size_ladder(self):
        for z, p, q, m, u in _ladder_tokens(random.Random(7070)):
            b1, b2 = 1 << m, 1 << q
            form = WeightedForm.for_rectangle(b1, b2)
            start, _ = euclid_basis(z, p, b1, b2)
            reduced, _ = gauss_reduce(start, p, form.wx, form.wy)
            v0 = solution_basis(z, p, q, u).v0
            _assert_rect_search_matches_reference(reduced, p, (v0.x, v0.y), b1, b2)

    def test_matches_membership_scan(self):
        rng = random.Random(404)
        for _ in range(30):
            p = rng.randint(6, 12)
            z = rng.randint(1, (1 << p) - 1)
            q = rng.randint(1, p // 2)
            m = rng.randint(2, 8)
            u = rng.randint(0, (1 << (p - q)) - 1)
            fam = solution_basis(z, p, q, u)
            b1, b2 = 1 << m, 1 << q
            form = WeightedForm.for_rectangle(b1, b2)
            reduced, _ = gauss_reduce(basis_ints(fam.basis()), p, form.wx, form.wy)
            hits, _ = rect_search(reduced, p, (fam.v0.x, fam.v0.y), b1, b2)
            modulus = 1 << p
            expected = [
                (x, y)
                for x in range(b1)
                for y in range(b2)
                if ((fam.v0.x - x) * z - (fam.v0.y - y)) % modulus == 0
            ]
            assert hits == sorted(expected)

    def test_sorted_by_x(self):
        rng = random.Random(8)
        for _ in range(20):
            fam = random_family(rng, max_p=10)
            b1, b2 = 1 << 6, 1 << 4
            form = WeightedForm.for_rectangle(b1, b2)
            reduced, _ = gauss_reduce(basis_ints(fam.basis()), fam.modulus_exp, form.wx, form.wy)
            hits, _ = rect_search(reduced, fam.modulus_exp, (fam.v0.x, fam.v0.y), b1, b2)
            assert [x for x, _ in hits] == sorted(x for x, _ in hits)

    def test_scaling_invariance(self):
        rng = random.Random(70)
        for _ in range(25):
            fam = random_family(rng)
            b1 = 1 << rng.randint(2, 8)
            b2 = 1 << rng.randint(1, 5)
            form = WeightedForm.for_rectangle(b1, b2)
            scaled = WeightedForm(wx=7 * form.wx, wy=7 * form.wy)
            red_a, it_a = reduce_family(fam, form)
            red_b, it_b = reduce_family(fam, scaled)
            assert (red_a.u1, red_a.u2, it_a) == (red_b.u1, red_b.u2, it_b)
            args = (fam.modulus_exp, (fam.v0.x, fam.v0.y), b1, b2)
            assert rect_search(basis_ints(red_a), *args) == rect_search(basis_ints(red_b), *args)
            assert nearest_lattice_point(red_a, fam.v0, form) == nearest_lattice_point(
                red_b, fam.v0, scaled
            )


def _assert_box_matches_rationals(basis, v, b1, b2):
    """coefficient_box equals the exact corner box of solve_coeffs' exact
    rationals over the closed rectangle [0, b1-1] x [0, b2-1], for the
    basis and for its swap, whose det has the other sign."""
    swapped = LatticeBasis(basis.u2, basis.u1, modulus_exp=basis.modulus_exp, z=basis.z)
    assert abs(basis.det()) == 1 << basis.modulus_exp
    for b in (basis, swapped):
        corners = [v, v - IVec2(b1 - 1, 0), v - IVec2(0, b2 - 1), v - IVec2(b1 - 1, b2 - 1)]
        a1s, a2s = zip(*(solve_coeffs(b, corner) for corner in corners))
        expected = (
            math.ceil(min(a1s)),
            math.floor(max(a1s)),
            math.ceil(min(a2s)),
            math.floor(max(a2s)),
        )
        assert coefficient_box(basis_ints(b), b.modulus_exp, (v.x, v.y), b1, b2) == expected


class TestCoefficientBox:
    def test_contains_winning_pair(self):
        reduced = worked_reduced()
        lo1, hi1, lo2, hi2 = coefficient_box(basis_ints(reduced), P, V0, B1, B2)
        a1, a2 = nearest_lattice_point(reduced, IVec2(115, 1703), FORM)
        assert lo1 <= a1 <= hi1 and lo2 <= a2 <= hi2

    @settings(max_examples=300, deadline=None)
    @given(
        z=st.integers(1, 1 << 70),
        p=st.integers(1, 64),
        steps=st.lists(st.tuples(st.booleans(), st.integers(-(1 << 20), 1 << 20)), max_size=6),
        v=st.tuples(st.integers(-(1 << 80), 1 << 80), st.integers(-(1 << 80), 1 << 80)),
        b1=st.integers(1, 1 << 40),
        b2=st.integers(1, 1 << 40),
    )
    def test_matches_exact_rational_box(self, z, p, steps, v, b1, b2):
        # A basis of L (|det| = 2^p, as LatticeBasis documents) mixed by
        # random unimodular steps.
        u1, u2 = IVec2(0, 1 << p), IVec2(1, z % (1 << p))
        for on_u1, k in steps:
            if on_u1:
                u1 = u1 - u2.scaled(k)
            else:
                u2 = u2 - u1.scaled(k)
        _assert_box_matches_rationals(LatticeBasis(u1, u2, modulus_exp=p, z=z), IVec2(*v), b1, b2)

    def test_matches_exact_rational_box_full_scale(self):
        rng = random.Random(2048)
        l, m, q = 2048, 512, 512
        p = l + m - q
        for _ in range(8):
            z = (1 << (l - 1)) | rng.getrandbits(l - 1)
            x = rng.randint(1, (1 << m) - 1)
            u = ((x * z) & ((1 << p) - 1)) >> q
            b1, b2 = 1 << m, 1 << q
            fam = solution_basis(z, p, q, u)
            form = WeightedForm.for_rectangle(b1, b2)
            start, _ = euclid_basis(z, p, b1, b2)
            reduced, _ = gauss_reduce(start, p, form.wx, form.wy)
            for basis in (lattice_basis(start, p, z), lattice_basis(reduced, p, z), fam.basis()):
                _assert_box_matches_rationals(basis, fam.v0, b1, b2)

    @pytest.mark.parametrize(
        "u1, u2, modulus_exp",
        [
            ((2, 4), (1, 2), 4),  # det == 0
            ((1, 0), (0, 3), 1),  # det == 3: not a power of two
            ((1, 0), (0, 4), 3),  # det == 4: the power of two of another modulus
            ((-2, 0), (0, 4), 2),  # det == -8
        ],
    )
    def test_determinant_off_contract_raises(self, u1, u2, modulus_exp):
        basis = (*u1, *u2)
        with pytest.raises(SingularBasis):
            coefficient_box(basis, modulus_exp, (0, 0), 4, 4)
        with pytest.raises(SingularBasis):
            rect_search(basis, modulus_exp, (0, 0), 4, 4)

    def test_rect_search_reports_box_size(self):
        rng = random.Random(12)
        cases = [(basis_ints(worked_reduced()), P, V0, B1, B2)]
        for _ in range(30):
            fam = random_family(rng, max_p=12)
            b1, b2 = 1 << rng.randint(1, 8), 1 << rng.randint(1, 5)
            reduced, _ = reduce_family(fam, WeightedForm.for_rectangle(b1, b2))
            cases.append((basis_ints(reduced), fam.modulus_exp, (fam.v0.x, fam.v0.y), b1, b2))
        for basis, p, v, b1, b2 in cases:
            lo1, hi1, lo2, hi2 = coefficient_box(basis, p, v, b1, b2)
            _, pairs = rect_search(basis, p, v, b1, b2)
            assert pairs == (hi1 - lo1 + 1) * (hi2 - lo2 + 1)


class TestDecimalFormatting:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(57841184, 1 << 22), "13.790"),
            (Fraction(-42816640, 1 << 22), "-10.208"),
            (Fraction(0), "0.000"),
            (Fraction(-1, 2), "-0.500"),
            (Fraction(1999, 1000), "1.999"),
        ],
    )
    def test_truncates_toward_zero(self, value, expected):
        assert truncate_decimal(value) == expected
