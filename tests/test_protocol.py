import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from truncrack import (
    Attacker,
    ConstraintViolated,
    InvalidArgument,
    ProtocolParams,
    TrialConfig,
    brute_force_preimages,
    classify,
    derive_key,
    dump_params,
    exchange,
    gen_params,
    parse_params,
    run_trials,
    shared_key,
    trunc_f,
    validate_params,
)
from truncrack.errors import ToolkitError
from truncrack.lattice2d import box_frame, euclid_basis, gauss_reduce, round_half_to_zero
from truncrack.paper import nearest_lattice_point, solution_basis, solve_coeffs, truncate_decimal
from truncrack.protocol import MAX_BITS, PARAM_KEYS, check_observables, check_shape

TOY = ProtocolParams(l=13, m=14, p=22, q=5, r=2, z=6173)


class TestValidate:
    def test_toy_ok(self):
        assert validate_params(TOY) == "toy"

    def test_guard_too_wide(self):
        bad = ProtocolParams(l=13, m=14, p=22, q=5, r=5, z=6173)
        with pytest.raises(ConstraintViolated) as exc:
            validate_params(bad)
        assert exc.value.name == "p>m+q+r"

    def test_full_scale_ok(self):
        params = ProtocolParams(l=2048, m=512, p=2048, q=512, r=129, z=(1 << 2047) + 1)
        assert params.p + params.q == params.l + params.m
        assert params.p > params.m + params.q + params.r
        assert validate_params(params) == "full"

    def test_z_bit_length(self):
        with pytest.raises(ConstraintViolated) as exc:
            validate_params(ProtocolParams(l=13, m=14, p=22, q=5, r=2, z=4095))
        assert exc.value.name == "2^(l-1)<=z<2^l"
        with pytest.raises(ConstraintViolated):
            validate_params(ProtocolParams(l=13, m=14, p=22, q=5, r=2, z=1 << 13))

    def test_sum_mismatch(self):
        with pytest.raises(ConstraintViolated) as exc:
            validate_params(ProtocolParams(l=13, m=14, p=23, q=5, r=2, z=6173))
        assert exc.value.name == "p+q=l+m"

    @pytest.mark.parametrize("field", ["l", "m", "p", "q", "r"])
    def test_positivity(self, field):
        values = dict(l=13, m=14, p=22, q=5, r=2, z=6173)
        values[field] = 0
        with pytest.raises(ConstraintViolated) as exc:
            validate_params(ProtocolParams(**values))
        assert exc.value.name == f"{field}>=1"

    @pytest.mark.parametrize("field", ["l", "p"])
    def test_bit_length_bound(self, field):
        # l = p = MAX_BITS is valid; one past is refused before 1 << (l - 1)
        values = dict(l=MAX_BITS, m=8, p=MAX_BITS, q=8, r=2, z=(1 << (MAX_BITS - 1)) | 1)
        assert validate_params(ProtocolParams(**values)) == "toy"
        values.update({field: MAX_BITS + 1, "m" if field == "p" else "q": 9})
        with pytest.raises(ConstraintViolated) as exc:
            validate_params(ProtocolParams(**values))
        assert exc.value.name == f"{field}<={MAX_BITS}"

    def test_bit_length_bound_is_the_digit_limit(self):
        # MAX_BITS is the largest bit length whose every value has at most
        # CPython's default number of digits for int-to-str conversion
        digits = sys.int_info.default_max_str_digits
        assert (1 << MAX_BITS) - 1 < 10**digits <= (1 << (MAX_BITS + 1)) - 1

    @given(
        l=st.integers(1, MAX_BITS + 1),
        m=st.integers(1, MAX_BITS + 1),
        q=st.integers(1, MAX_BITS + 1),
        r=st.integers(1, MAX_BITS + 1),
    )
    @example(l=MAX_BITS, m=8, q=8, r=2)
    @example(l=4, m=MAX_BITS - 3, q=1, r=1)
    @example(l=MAX_BITS, m=1, q=1, r=MAX_BITS - 3)
    def test_accepted_shapes_pass_check_observables(self, l, m, q, r):
        try:
            p = check_shape(l, m, q, r)
        except ConstraintViolated:
            return
        assert max(l, m, p, q, r) <= MAX_BITS
        check_observables(1 << (l - 1), p, q, m)

    def test_classification_boundary(self):
        assert classify(ProtocolParams(l=1, m=1, p=1, q=1, r=128, z=1)) == "toy"
        assert classify(ProtocolParams(l=1, m=1, p=1, q=1, r=129, z=1)) == "full"


class TestGenParams:
    def test_derives_p(self):
        params = gen_params(1, 13, 14, 5, 2)
        assert params.p == 22
        assert (1 << 12) <= params.z < (1 << 13)
        assert validate_params(params) == "toy"

    def test_deterministic(self):
        assert gen_params(1, 13, 14, 5, 2) == gen_params(1, 13, 14, 5, 2)
        assert gen_params(1, 13, 14, 5, 2).z != gen_params(2, 13, 14, 5, 2).z

    def test_infeasible_combination(self):
        # p = 16+16-14 = 18 but m+q+r = 34
        with pytest.raises(ConstraintViolated) as exc:
            gen_params(2, 16, 16, 14, 4)
        assert exc.value.name == "p>m+q+r"

    def test_z_uniform_over_seeds(self):
        seen = {gen_params(seed, 8, 8, 2, 1).z for seed in range(64)}
        assert len(seen) > 32  # draws actually vary
        assert all(128 <= z < 256 for z in seen)


class TestTruncMap:
    def test_worked_value(self):
        # 12345*6173 mod 2^22 = 708213; floor(708213/32) = 22131
        assert trunc_f(12345, TOY) == 22131

    def test_zero(self):
        assert trunc_f(0, TOY) == 0

    def test_one(self):
        assert trunc_f(1, TOY) == 6173 >> 5 == 192

    def test_exponents_checked_before_the_shift(self):
        # a bare OverflowError ("too many digits in integer") before the check
        with pytest.raises(ConstraintViolated) as exc:
            derive_key(1, 1, 10**20, 0, 1, 1)
        assert str(exc.value) == f"constraint violated: 0<=p-q<={MAX_BITS} (p-q=a 67-bit integer)"
        with pytest.raises(ConstraintViolated) as exc:
            trunc_f(1, ProtocolParams(13, 14, 10**20, 5, 2, 6173))
        assert str(exc.value) == f"constraint violated: 0<=p<={MAX_BITS} (p=a 67-bit integer)"

    def test_rejects_negative(self):
        with pytest.raises(InvalidArgument):
            trunc_f(-1, TOY)

    def test_remainder_split(self):
        u, y = trunc_f(12345, TOY), (12345 * TOY.z) & ((1 << TOY.q) - 1)
        assert (u, y) == (22131, 21)
        assert (12345 * TOY.z) % (1 << TOY.p) == (u << TOY.q) + y

    @given(x=st.integers(min_value=0, max_value=1 << 64))
    def test_token_range_and_congruence(self, x):
        u, y = trunc_f(x, TOY), (x * TOY.z) & ((1 << TOY.q) - 1)
        assert 0 <= u < 1 << (TOY.p - TOY.q)
        assert 0 <= y < 1 << TOY.q
        assert (x * TOY.z - ((u << TOY.q) + y)) % (1 << TOY.p) == 0

    def test_congruence_bit_exact_many(self):
        # 100 random parameter sets x 100 random inputs each
        rng = random.Random(20240)
        for _ in range(100):
            l = rng.randint(6, 20)
            r = rng.randint(1, 2)
            q = rng.randint(1, max(1, (l - r - 1) // 2))
            m = rng.randint(1, 20)
            params = gen_params(rng.randint(0, 10**6), l, m, q, r)
            modulus = 1 << params.p
            for _ in range(100):
                x = rng.randint(0, 1 << (params.m + 4))
                u, y = trunc_f(x, params), (x * params.z) & ((1 << params.q) - 1)
                assert 0 <= y < 1 << params.q
                assert (x * params.z) % modulus == ((u << params.q) + y) % modulus
                assert u == (x * params.z) % modulus >> params.q


class TestSharedKey:
    def test_zero_secret(self):
        assert shared_key(0, 12345, TOY) == 0

    def test_small_product(self):
        # numerator below the divisor 2^(r+m)
        assert shared_key(1, (1 << (TOY.r + TOY.m)) - 1, TOY) == 0

    def test_recorded_both_ways(self):
        # x=12345, y=54321: values recorded from direct evaluation of both
        # formulas; at guard width r=2 they are allowed to differ (and do).
        x, y = 12345, 54321
        u = trunc_f(x, TOY)
        v = trunc_f(y, TOY)
        assert (u, v) == (22131, 124172)
        w_a = shared_key(x, v, TOY)
        w_b = shared_key(y, u, TOY)
        assert (w_a, w_b) == (0, 1)
        assert w_a != w_b

    def test_equal_secrets_agree(self):
        for x in (1, 77, 12345, 16000):
            u = trunc_f(x, TOY)
            assert shared_key(x, u, TOY) == shared_key(x, u, TOY)


class TestExchange:
    def test_deterministic(self):
        params = gen_params(9, 13, 14, 5, 2)
        assert exchange(3, params) == exchange(3, params)

    def test_transcript_consistency(self):
        params = gen_params(9, 13, 14, 5, 2)
        t = exchange(3, params)
        assert 0 < t.x < 1 << params.m and 0 < t.y < 1 << params.m
        assert t.u == trunc_f(t.x, params)
        assert t.v == trunc_f(t.y, params)
        assert t.w_a == shared_key(t.x, t.v, params)
        assert t.w_b == shared_key(t.y, t.u, params)
        assert t.agree == (t.w_a == t.w_b)

    def test_toy_agreement_is_mixed(self):
        # At r=2 agreement is common but not certain; both outcomes must
        # show up across 1000 seeded exchanges.
        agree = 0
        for seed in range(1000):
            params = gen_params(seed, 13, 14, 5, 2)
            agree += exchange(seed, params).agree
        assert 0 < agree < 1000

    def test_rejects_invalid_params(self):
        with pytest.raises(ConstraintViolated):
            exchange(1, ProtocolParams(l=13, m=14, p=22, q=5, r=5, z=6173))


class TestParamFile:
    def test_round_trip(self):
        params = gen_params(7, 13, 14, 5, 2)
        assert parse_params(dump_params(params)) == params

    def test_format_exact(self):
        text = dump_params(TOY)
        assert text == "l=13\nm=14\np=22\nq=5\nr=2\nz=6173\n"

    def test_any_order_accepted(self):
        text = "z=6173\nl=13\nm=14\np=22\nq=5\nr=2\n"
        assert parse_params(text) == TOY

    @pytest.mark.parametrize(
        "text",
        [
            "l=13\nm=14\np=22\nq=5\nr=2\nz=6173\nk=1\n",  # unknown key
            "l=13\nm=14\np=22\nq=5\nr=2\n",  # missing z
            "l=13\nl=13\nm=14\np=22\nq=5\nr=2\nz=6173\n",  # duplicate
            "l = 13\nm=14\np=22\nq=5\nr=2\nz=6173\n",  # spaces
            "l=0x13\nm=14\np=22\nq=5\nr=2\nz=6173\n",  # hex
            "l=-13\nm=14\np=22\nq=5\nr=2\nz=6173\n",  # sign
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(InvalidArgument):
            parse_params(text)


# Ints that a direct library call may pass where an exponent or a field is
# due: past every size bound, negative, and at MAX_BITS and one past it.
HOSTILE_INTS = (0, 1, -1, 1 << 70, -(1 << 70), 1 << 20000, -(1 << 20000), MAX_BITS, MAX_BITS + 1)


def _param_text(values):
    """The parameter file of six ints in PARAM_KEYS order, written with
    CPython's digit limit lifted, so that parse_params meets a value like
    2^20000 (6,021 digits) as a file would hold it."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return "".join(f"{key}={value}\n" for key, value in zip(PARAM_KEYS, values))
    finally:
        sys.set_int_max_str_digits(limit)


# Each root callable, the lattice functions that take exponents, and the
# paper's functions that take ints, with its ints taken, in order, from
# eight drawn ones.  run_trials takes at most 2 trials, so a valid shape
# runs a short batch.
HOSTILE_CALLS = {
    "trunc_f": lambda a: trunc_f(a[0], ProtocolParams(*a[1:7])),
    "derive_key": lambda a: derive_key(*a[:6]),
    "shared_key": lambda a: shared_key(a[0], a[1], ProtocolParams(*a[2:])),
    "dump_params": lambda a: dump_params(ProtocolParams(*a[:6])),
    "parse_params": lambda a: parse_params(_param_text(a[:6])),
    "Attacker": lambda a: Attacker(*a[:4]),
    "Attacker.attack": lambda a: Attacker(*a[:4]).attack(a[4]),
    "exchange": lambda a: exchange(a[0], ProtocolParams(*a[1:7])),
    "gen_params": lambda a: gen_params(*a[:5]),
    "validate_params": lambda a: validate_params(ProtocolParams(*a[:6])),
    "classify": lambda a: classify(ProtocolParams(*a[:6])),
    "brute_force_preimages": lambda a: brute_force_preimages(*a[:5]),
    "run_trials": lambda a: run_trials(TrialConfig(a[0], min(a[1], 2), *a[2:6])),
    "euclid_basis": lambda a: euclid_basis(*a[:4]),
    "gauss_reduce": lambda a: gauss_reduce(*a[:4]),
    "round_half_to_zero": lambda a: round_half_to_zero(*a[:2]),
    "box_frame": lambda a: box_frame(tuple(a[:4]), *a[4:7]),
    "solution_basis": lambda a: solution_basis(*a[:4]),
    "solve_coeffs": lambda a: solve_coeffs(tuple(a[:4]), tuple(a[4:6])),
    "nearest_lattice_point": lambda a: nearest_lattice_point(tuple(a[:4]), tuple(a[4:6]), *a[6:8]),
    "truncate_decimal": lambda a: truncate_decimal(*a[:2]),
}


class TestHostileInts:
    @settings(max_examples=600, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(HOSTILE_CALLS)),
        args=st.lists(st.sampled_from(HOSTILE_INTS), min_size=8, max_size=8),
    )
    # a right shift by a negative q, and by a negative r + m
    @example(name="trunc_f", args=[1, 0, 0, 1, -1, 0, 1, 0])
    @example(name="derive_key", args=[1, 1, 1, 0, -1, 0, 0, 0])
    @example(name="shared_key", args=[1, 1, 0, -1, 1, 0, 0, 0])
    # an unvalidated field past CPython's digit limit, and one in a file
    @example(name="dump_params", args=[1 << 20000, 1, 1, 1, 1, 1, 0, 0])
    @example(name="parse_params", args=[1 << 20000, 1, 1, 1, 1, 1, 0, 0])
    # valid shapes at the size bound, which the draws above rarely make
    @example(name="Attacker.attack", args=[MAX_BITS + 1, MAX_BITS, 1, MAX_BITS, 1 << 70, 0, 0, 0])
    @example(name="gen_params", args=[1 << 20000, MAX_BITS, 1, 1, 1, 0, 0, 0])
    @example(name="run_trials", args=[0, 2, MAX_BITS, 1, 1, 1, 0, 0])
    # a shift by a negative q, and by a p or q of 71 bits
    @example(name="solution_basis", args=[5, 10, -1, 3, 0, 0, 0, 0])
    @example(name="solution_basis", args=[5, 1 << 70, 1, 3, 0, 0, 0, 0])
    @example(name="solution_basis", args=[5, 10, 1 << 70, 3, 0, 0, 0, 0])
    # a whole part past CPython's digit limit, and a zero denominator
    @example(name="truncate_decimal", args=[1 << 20000, 1, 0, 0, 0, 0, 0, 0])
    @example(name="truncate_decimal", args=[1, 0, 0, 0, 0, 0, 0, 0])
    # a zero and a negative denominator
    @example(name="round_half_to_zero", args=[1, 0, 0, 0, 0, 0, 0, 0])
    @example(name="round_half_to_zero", args=[1, -3, 0, 0, 0, 0, 0, 0])
    # Euclid at the size bound: at s = m - q = 0, at s = p, where it runs
    # to r1 == 0, and at s = -p, where it takes no quotient
    @example(name="gauss_reduce", args=[3**9000, MAX_BITS, 0, 0, 0, 0, 0, 0])
    @example(name="gauss_reduce", args=[3**9000, MAX_BITS, MAX_BITS, 0, 0, 0, 0, 0])
    @example(name="gauss_reduce", args=[3**9000, MAX_BITS, 0, MAX_BITS, 0, 0, 0, 0])
    def test_returns_or_raises_a_named_error(self, name, args):
        try:
            HOSTILE_CALLS[name](args)
        except ToolkitError as exc:
            assert len(str(exc).encode()) < 200
