"""Completeness at full scale: an oracle whose cost is 2^q, not 2^m.

low_end_preimages reads the token map F(x) = floor((x*z mod 2^p) / 2^q)
from its low end and shares no code with truncrack.lattice2d: a preimage
x of u solves x*z = 2^q*u + y (mod 2^p) for one low part y in [0, 2^q).
Write z mod 2^p = 2^k * odd.  A y gives solutions only when 2^k divides
2^q*u + y, and then x = ((2^q*u + y) >> k) * odd^-1 (mod 2^(p-k)); the x
in [0, 2^m) are that residue plus multiples of 2^(p-k).  Consecutive such
y differ by 2^k, so their residues differ by odd^-1, and each y costs one
addition.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncrack import Attacker, brute_force_preimages, exchange, gen_params


def low_end_preimages(z: int, p: int, q: int, m: int, u: int) -> list[int]:
    """Every x in [0, 2^m) with floor((x*z mod 2^p) / 2^q) = u, ascending;
    z mod 2^p must be nonzero."""
    zp = z & ((1 << p) - 1)
    k = (zp & -zp).bit_length() - 1
    period = 1 << (p - k)
    inverse = pow(zp >> k, -1, period)
    target = u << q
    y = -target & ((1 << k) - 1)  # the least y with 2^k | 2^q*u + y
    x = ((target + y) >> k) * inverse % period
    found = []
    while y < 1 << q:
        found.extend(range(x, 1 << m, period))
        y += 1 << k
        x += inverse
        if x >= period:
            x -= period
    return sorted(found)


def _attack(z, p, q, m, u):
    return [x for x, _ in Attacker(z, p, q, m).attack(u).candidates]


def test_agrees_with_brute_force_at_toy_sizes():
    for seed in range(40):
        params = gen_params(seed, 13, 14, 5, 2)
        z, p, q, m = params.z, params.p, params.q, params.m
        honest = exchange(seed, params).u
        uniform = random.Random(seed).randrange(1 << (p - q))
        for u in (honest, uniform):
            assert low_end_preimages(z, p, q, m, u) == brute_force_preimages(z, p, q, u, m)


@pytest.mark.parametrize("m", [512, 1024])
@pytest.mark.parametrize("q", [8, 12])
def test_attack_is_complete_at_full_scale(m, q):
    # l = 2048: 2^q low parts per token, against 2^m secrets for a scan
    for seed in range(10):
        params = gen_params(seed, 2048, m, q, 129)
        z, p = params.z, params.p
        transcript = exchange(seed, params)
        uniform = random.Random(seed).randrange(1 << (p - q))
        for u in (transcript.u, uniform):
            expected = low_end_preimages(z, p, q, m, u)
            assert _attack(z, p, q, m, u) == expected
        assert transcript.x in low_end_preimages(z, p, q, m, transcript.u)


def test_attack_is_complete_for_a_structured_z():
    # z = odd * 2^530 at l = 2048, m = 512, q = 12: the lattice modulo
    # 2^(m+q+3) has a short vector, and the Attacker falls back to 2^p.
    params = gen_params(7, 2048, 512, 12, 129)
    z = (params.z >> 530 | 1 | 1 << (2047 - 530)) << 530
    rng = random.Random(7)
    for x in (rng.getrandbits(512), (1 << 511) + 12345):
        u = ((x * z) & ((1 << params.p) - 1)) >> 12
        expected = low_end_preimages(z, params.p, 12, 512, u)
        assert x in expected
        assert _attack(z, params.p, 12, 512, u) == expected


@st.composite
def _deployments(draw):
    # z of at most 64 bits, q <= 10 and m <= 300, so m - q runs into the
    # hundreds; l >= 2q - 4 keeps the expected count 2^(m+q-p) = 2^(2q-l)
    # of preimages of a token at most 16.
    q = draw(st.integers(0, 10))
    l = draw(st.integers(max(1, 2 * q - 4), 64))
    m = draw(st.integers(max(1, 2 * q - l + 1), 300))
    p = l + m - q
    z = draw(st.integers(1, (1 << l) - 1)) << draw(st.integers(0, 8))
    if not z & ((1 << p) - 1):
        z = 1
    if draw(st.booleans()):
        u = draw(st.integers(0, (1 << (p - q)) - 1))
    else:
        x = draw(st.integers(0, (1 << m) - 1))
        u = ((x * z) & ((1 << p) - 1)) >> q
    return z, p, q, m, u


@settings(max_examples=200, deadline=None)
@given(case=_deployments())
def test_attack_is_complete_on_small_skewed_deployments(case):
    z, p, q, m, u = case
    assert _attack(z, p, q, m, u) == low_end_preimages(z, p, q, m, u)
