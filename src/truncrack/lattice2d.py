"""Exact rank-2 lattice machinery for the token congruence.

The congruence lattice for a public multiplier z and modulus 2^p is

    L = { (x, y) : x*z = y  (mod 2^p) },

a rank-2 sublattice of Z^2 with determinant 2^p.  Recovering a token
preimage means finding the solutions of the inhomogeneous congruence
x*z = 2^q*u + y (mod 2^p) inside a small rectangle, which this module
does with a weighted Lagrange (Gauss) reduction of a basis of L and a
walk over the rectangle's exact coefficient box from a point of the
coset.  Reducing L is the continued-fraction expansion of z / 2^p
(Vallée, "Gauss' algorithm revisited", 1991), so the attack starts from
euclid_basis, which runs Euclid on the remainders alone and rebuilds the
two cofactors at its stop from one 2-adic inverse, and gauss_reduce
finishes the job.  attack.Attacker reduces modulo a power 2^k <= 2^p
whose lattice contains L (see there); every function here works for
whatever modulus exponent it is given.

Everything is exact, with no floating point, and every function takes
and returns plain ints: a basis is the tuple (x1, y1, x2, y2) of
u1 = (x1, y1) and u2 = (x2, y2), a point is (x, y), and a form is its two
positive weights (wx, wy), <a, b> = wx*ax*bx + wy*ay*by.  For the
rectangle [0, b1) x [0, b2) the weights are (b2^2, b1^2), which make it
square; a common factor of the weights changes no quotient, rounding or
comparison.  A frame, from box_frame, is what the rectangle's coefficient
box needs beside the token: (basis, q, p - q, b1, b2, offsets), made once
per basis and rectangle and read by coefficient_box and rect_search.
rect_search is the reference walk: attack.Attacker.attack walks the same
box itself, filtering each hit as it comes, and the tests compare the
two.  The box and the walk are those of the token coset (0, -2^q*u) + L,
the only one the attack searches, so 2^q folds into the frame: with det = 2^p,
floor((A*2^q + d) / 2^p) = floor((A + floor(d / 2^q)) / 2^(p-q)) for
every integer A and 0 <= q < p, the frame keeps the corner offsets d
shifted by q, and a token's box costs the two products x2*u and x1*u.
Fraction appears only in solve_coeffs, nearest_lattice_point and
truncate_decimal.  All functions are pure.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional

from .errors import (
    DegenerateInput,
    IterationCapExceeded,
    SearchSpaceExceeded,
    SingularBasis,
    int_text,
)

# box_frame's result: the basis with det = +2^p, q, p - q, b1, b2 and the
# four offsets shifted by q.
Frame = tuple[tuple[int, int, int, int], int, int, int, int, tuple[int, int, int, int]]

# The default cap of check_box on the pairs of a coefficient box.
BOX_CAP = 1 << 20


def solution_basis(
    z: int, p: int, q: int, u: int
) -> tuple[tuple[int, int], tuple[int, int, int, int]]:
    """A particular solution v0 and a basis of L for the token congruence:
    every solution of x*z = 2^q*u + y (mod 2^p) lies in the coset v0 + L.

    v0 = (ceil(2^q*u / z), z*x0 - 2^q*u) solves the congruence with
    0 <= y0 < z.  The basis is the consecutive pair
    g_i = (t + i, z*(t + i) - 2^p) for i in {0, 1}, which both satisfy the
    homogeneous congruence and span a determinant-2^p sublattice, i.e. all
    of L, with t = floor(2^q*u / z).  Returns (v0, (x1, y1, x2, y2)).
    """
    if z <= 0:
        raise DegenerateInput(f"z must be positive, got {int_text(z)}")
    if p < 1:
        raise DegenerateInput(f"p must be at least 1, got {int_text(p)}")
    if u < 0:
        raise DegenerateInput(f"u must be nonnegative, got {int_text(u)}")
    shifted = u << q
    x0 = -(-shifted // z)
    anchor = shifted // z
    y1 = z * anchor - (1 << p)
    return (x0, z * x0 - shifted), (anchor, y1, anchor + 1, y1 + z)


def euclid_basis(z: int, p: int, b1: int, b2: int) -> tuple[tuple[int, int, int, int], int]:
    """A basis (x1, y1, x2, y2) of L nearly reduced for the rectangle
    [0, b1) x [0, b2), and the number of Euclid quotients taken to reach it.

    Runs Euclid's algorithm on the remainders (2^p, z mod 2^p) of the
    basis (0, 2^p), (1, z mod 2^p) of L.  Each step maps the pair
    (v0, v1) to (v1, v0 - c*v1), a unimodular change, so every
    consecutive pair is a basis of L wherever the loop stops: the stop
    point cannot affect correctness, only how much work gauss_reduce has
    left.  The loop carries the remainders alone; the cofactors x of the
    two vectors (x, r) at the stop are rebuilt afterwards, as below.

    It stops at the first remainder below the floor 2^f, with
    f = max((p + 1 - shift) // 2, 0) and shift = bits(b1) - bits(b2), or
    at r1 == 0.  The floor marks where the rectangle-weighted cofactor and
    remainder meet: the cofactors satisfy |x1|*r0 + |x0|*r1 = 2^p, so
    |x1| is about 2^p / r, and b2*|x1| reaches b1*r1 as r1 falls through
    2^((p - shift) / 2).  The remainders strictly decrease, so it
    terminates.

    Rebuilding the cofactors.  After j quotients c_1..c_j the pair is
    (x_j, r0), (x_(j+1), r1), with x_0 = 0, x_1 = 1 and
    x_(i+1) = x_(i-1) - c_i*x_i.  So for i >= 1, x_i has the sign
    (-1)^(i+1) and |x_i| never decreases, and |x_(j+1)|*r0 + |x_j|*r1 = 2^p
    gives 1 <= |x_j| <= |x_(j+1)| <= 2^p/r0 <= 2^e for j >= 1, with
    e = p + 1 - bits(r0).  Both vectors lie in L, x*z = r (mod 2^p).
    Write z mod 2^p = 2^k * odd (k = p when it is 0): every remainder is a
    multiple of 2^k, so x = (r >> k) * odd^-1 (mod 2^(p-k)), and e <= p - k
    because r0 >= 2^k.  That fixes x modulo 2^e, and the sign picks its one
    value in [1, 2^e] or [-2^e, -1]: a residue of 0 means +-2^e, which only
    x_(j+1) reaches, at r0 = 2^k and r1 = 0.  j = 0 leaves the start pair,
    x_0 = 0 and x_1 = 1.  odd^-1 modulo 2^e comes from one Hensel lift:
    (3*odd) XOR 2 is the inverse modulo 2^5, and each step doubles the
    bits that are right.

    Asserted on exit, since the loop no longer builds the vectors step by
    step: both lie in L ((x*z - r) mod 2^p == 0, on z mod 2^p, the same
    congruence with a shorter product) and |det| = 2^p, so they
    are a basis of L; and Lamé's bound (n quotients need
    z mod 2^p >= F(n+1), so n - 1 < 13/9 * bits(z mod 2^p)).
    """
    shift = b1.bit_length() - b2.bit_length()
    modmask = (1 << p) - 1
    first = z & modmask
    floor = 1 << max((p + 1 - shift) // 2, 0)
    r0, r1 = 1 << p, first
    quotients = 0
    while r1 >= floor:
        r0, r1 = r1, r0 % r1
        quotients += 1
    low = first | 1 << p  # its 2-adic valuation is k, or p when first == 0
    k = (low & -low).bit_length() - 1
    e = p + 1 - r0.bit_length()
    top = 1 << e
    emask = top - 1
    odd = low >> k & emask
    inv, bits = (3 * odd ^ 2) & 31, 5
    while bits < e:
        # odd*inv = 1 + 2^bits*c; adding 2^bits*(-inv*c mod 2^bits) cancels c.
        mask = (1 << bits) - 1
        inv |= (-inv * (odd * inv >> bits) & mask) << bits
        bits *= 2
    x0 = (r0 >> k) * inv & emask
    x1 = (r1 >> k) * inv & emask
    if quotients & 1:
        x0, x1 = x0 or top, x1 - top
    elif quotients:
        x0, x1 = x0 - top, x1 or top
    else:
        x0, x1 = 0, 1
    assert (x0 * first - r0) & modmask == 0 and (x1 * first - r1) & modmask == 0
    assert abs(x0 * r1 - r0 * x1) == modmask + 1
    assert 9 * (quotients - 1) < 13 * first.bit_length()
    return (x0, r0, x1, r1), quotients


def round_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact halves go toward zero.

    +-1/2 -> 0,  3/2 -> 1,  -3/2 -> -1.  Integer arithmetic only.
    """
    quot, rem = divmod(num, den)
    doubled = 2 * rem
    if doubled > den:
        return quot + 1
    if doubled < den:
        return quot
    # Exactly halfway: quot + 1/2.  Toward zero means down for positive
    # values, up for negative ones.
    return quot if quot >= 0 else quot + 1


def gauss_reduce(
    basis: tuple[int, int, int, int],
    wx: int,
    wy: int,
    *,
    on_step: Optional[Callable[[str, int, tuple[int, int, int, int]], None]] = None,
) -> tuple[tuple[int, int, int, int], int]:
    """Lagrange-reduce the basis (x1, y1, x2, y2) under the form
    <a, b> = wx*ax*bx + wy*ay*by.

    Alternately replaces u1 <- u1 - c1*u2 and u2 <- u2 - c2*u1 with
    c = Round(<ui, uj> / <uj, uj>) (halves toward zero) until a pass leaves
    both coefficients zero.  On exit |<u1,u2>| <= min(|u1|^2, |u2|^2) / 2.

    A common factor of wx and wy changes no quotient or comparison, so
    the caller may divide it out first, as the attack does.  The inner
    product <u1, u2> is computed fresh from the coordinates at the start
    and after each half-step with c != 0, and so is the norm of the
    replaced vector; a half-step with c = 0 changes no coordinate, so
    its values stand.  The exit bound is asserted on those values.

    Returns the reduced basis as (x1, y1, x2, y2) and the number of
    passes, counting the final all-zero pass.  Each half-step with
    c != 0 strictly shrinks the replaced vector's norm and preserves the
    determinant; both facts are asserted after it.  ``on_step`` (if given) is
    called after every half-step as on_step(target, c, (x1, y1, x2, y2)),
    where target ("u1" or "u2") names the vector just replaced by c.  The
    pass count is capped at 64 * max(bits(|det|) - 1, 1) as a safety net,
    64 * p for a basis of L modulo 2^p; reduction converges orders of
    magnitude faster, and from euclid_basis's start it takes a pass or
    two.  Raises ValueError for a weight below 1 and DegenerateInput for a
    basis of determinant 0.
    """
    if wx <= 0 or wy <= 0:
        raise ValueError("form weights must be positive")
    x1, y1, x2, y2 = basis
    det = abs(x1 * y2 - y1 * x2)
    if det == 0:
        raise DegenerateInput("basis is degenerate (determinant 0)")
    n1 = wx * x1 * x1 + wy * y1 * y1
    n2 = wx * x2 * x2 + wy * y2 * y2
    d = wx * x1 * x2 + wy * y1 * y2
    cap = 64 * max(det.bit_length() - 1, 1)
    passes = 0
    while True:
        passes += 1
        if passes > cap:
            raise IterationCapExceeded(f"reduction exceeded {cap} passes")
        c1 = round_half_to_zero(d, n2)
        if c1:
            x1 -= c1 * x2
            y1 -= c1 * y2
            shrunk = wx * x1 * x1 + wy * y1 * y1
            assert shrunk < n1
            n1 = shrunk
            assert abs(x1 * y2 - y1 * x2) == det
            d = wx * x1 * x2 + wy * y1 * y2
        if on_step is not None:
            on_step("u1", c1, (x1, y1, x2, y2))

        c2 = round_half_to_zero(d, n1)
        if c2:
            x2 -= c2 * x1
            y2 -= c2 * y1
            shrunk = wx * x2 * x2 + wy * y2 * y2
            assert shrunk < n2
            n2 = shrunk
            assert abs(x1 * y2 - y1 * x2) == det
            d = wx * x1 * x2 + wy * y1 * y2
        if on_step is not None:
            on_step("u2", c2, (x1, y1, x2, y2))

        if c1 == 0 and c2 == 0:
            break
    assert 2 * abs(d) <= min(n1, n2)
    return (x1, y1, x2, y2), passes


def is_reduced(basis: tuple[int, int, int, int], wx: int, wy: int) -> bool:
    """Whether |<u1, u2>| <= min(|u1|^2, |u2|^2) / 2 under the form (wx, wy)."""
    x1, y1, x2, y2 = basis
    cross = abs(wx * x1 * x2 + wy * y1 * y2)
    return 2 * cross <= min(wx * x1 * x1 + wy * y1 * y1, wx * x2 * x2 + wy * y2 * y2)


def solve_coeffs(
    basis: tuple[int, int, int, int], v: tuple[int, int]
) -> tuple[Fraction, Fraction]:
    """Exact rationals (a1, a2) with a1*u1 + a2*u2 = v (Cramer's rule).

    Denominators divide |det|, which is 2^p for a basis of L.
    """
    x1, y1, x2, y2 = basis
    vx, vy = v
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise SingularBasis("cannot solve coefficients: determinant is 0")
    return Fraction(vx * y2 - x2 * vy, det), Fraction(x1 * vy - vx * y1, det)


# Probe order for the local minimality fix-up: the rounded pair first,
# then its neighbours in a fixed order so ties resolve deterministically.
_NEIGHBOURHOOD = [(0, 0)] + [(e1, e2) for e1 in (-1, 0, 1) for e2 in (-1, 0, 1) if (e1, e2) != (0, 0)]


def nearest_lattice_point(
    basis: tuple[int, int, int, int], v: tuple[int, int], wx: int, wy: int
) -> tuple[int, int]:
    """Integer coefficients (a1, a2) whose lattice point is nearest v
    under the form (wx, wy).

    ``basis`` must be reduced under the form.  The coefficients are the
    rounded (halves toward zero) exact solve of v in the basis; because a
    coefficient sitting close to a half-integer boundary can make a
    neighbouring pair strictly closer under a skew form, the 3x3
    neighbourhood of the rounded pair is scanned and the best kept.  For a
    reduced basis the true closest point always lies in that
    neighbourhood, so the result attains the exact minimum of the form
    norm over the coset v + L.  Raises ValueError for a weight below 1.
    """
    if wx <= 0 or wy <= 0:
        raise ValueError("form weights must be positive")
    a1, a2 = solve_coeffs(basis, v)
    r1 = round_half_to_zero(a1.numerator, a1.denominator)
    r2 = round_half_to_zero(a2.numerator, a2.denominator)
    x1, y1, x2, y2 = basis
    vx, vy = v
    best = None
    best_norm = None
    for e1, e2 in _NEIGHBOURHOOD:
        c1, c2 = r1 + e1, r2 + e2
        sx = vx - c1 * x1 - c2 * x2
        sy = vy - c1 * y1 - c2 * y2
        norm = wx * sx * sx + wy * sy * sy
        if best_norm is None or norm < best_norm:
            best, best_norm = (c1, c2), norm
    return best


def box_frame(basis: tuple[int, int, int, int], p: int, b1: int, b2: int, q: int) -> Frame:
    """The part of the coefficient box of [0, b1) x [0, b2) around the
    token coset (0, -2^q*u) + L that does not depend on u:
    (basis, q, shift, b1, b2, offsets), what coefficient_box and
    rect_search take.

    The box runs from the ceiling of the smallest to the floor of the
    largest coefficient of the corners of the closed rectangle
    [0, b1-1] x [0, b2-1], which holds the same integer points; a linear
    map takes its extremes over a parallelogram at its corners, so no
    point s = v - a1*u1 - a2*u2 inside is lost.  Moving the corner by b1-1
    in x or b2-1 in y adds (1-b1)*y2 or (b2-1)*x2 to the Cramer numerator
    of a1 and (b1-1)*y1 or (1-b2)*x1 to that of a2, so the smallest corner
    numerator adds the negative moves d_lo <= 0 and the largest the
    positive ones d_hi >= 0.

    At v = (0, -2^q*u) the two numerators are 2^q times A = x2*u and
    A = -x1*u, and det = 2^p, so each bound is a floor of
    (A*2^q + d) / 2^p, with d = d_hi for a floor and d = d_lo + 2^p - 1
    for a ceiling.  That floor is floor((A + floor(d / 2^q)) / 2^(p-q))
    for every integer A and 0 <= q < p: the shift by p is a shift by q of
    the offset, made here once, and one by p-q of the sum.  The offsets
    are stored that way, floor(d / 2^q) for the low and the high bound of
    a1, then of a2, and ``shift`` is p - q.

    The basis (x1, y1, x2, y2) must have |det| = 2^p, as every basis of L
    does.  When det < 0, u1 is negated, which negates det: the frame's
    basis, in which the box is counted and the walk steps, has det = +2^p.
    Raises SingularBasis for any other determinant, 0 included, since a
    shift by the wrong p would give a wrong box, and ValueError for a
    bound below 1 or q outside [0, p).
    """
    if b1 < 1 or b2 < 1:
        raise ValueError("rectangle bounds must be at least 1")
    if not 0 <= q < p:
        raise ValueError(f"q must be in [0, p), got q={int_text(q)} p={int_text(p)}")
    x1, y1, x2, y2 = basis
    det = x1 * y2 - y1 * x2
    if abs(det) != 1 << p:
        raise SingularBasis(
            f"cannot bound coefficients: determinant {int_text(det)} is not +-2^{p}"
        )
    if det < 0:
        x1, y1 = -x1, -y1
    dx1, dy1 = (1 - b1) * y2, (b2 - 1) * x2
    dx2, dy2 = (b1 - 1) * y1, (1 - b2) * x1
    # Conditional expressions, not min(d, 0) and max(d, 0): a builtin call
    # costs about as much as the rest of a toy-size frame.
    dlo1 = (dx1 if dx1 < 0 else 0) + (dy1 if dy1 < 0 else 0)
    dhi1 = (dx1 if dx1 > 0 else 0) + (dy1 if dy1 > 0 else 0)
    dlo2 = (dx2 if dx2 < 0 else 0) + (dy2 if dy2 < 0 else 0)
    dhi2 = (dx2 if dx2 > 0 else 0) + (dy2 if dy2 > 0 else 0)
    round_up = (1 << p) - 1
    offsets = ((dlo1 + round_up) >> q, dhi1 >> q, (dlo2 + round_up) >> q, dhi2 >> q)
    return (x1, y1, x2, y2), q, p - q, b1, b2, offsets


def coefficient_box(frame: Frame, u: int) -> tuple[int, int, int, int]:
    """Exact inclusive coefficient ranges (lo1, hi1, lo2, hi2) of the
    rectangle of box_frame's ``frame`` around the token coset
    (0, -2^q*u) + L.

    Each bound is the folded numerator, A = x2*u for a1 and -x1*u for
    a2, plus the frame's offset, shifted right by p - q; no rational is
    built.  A range may be empty (hi = lo - 1, never less, as
    floor(max) >= ceil(min) - 1).
    """
    (x1, _, x2, _), _, shift, _, _, (lo1, hi1, lo2, hi2) = frame
    n1 = x2 * u
    n2 = x1 * u
    return (n1 + lo1) >> shift, (n1 + hi1) >> shift, (lo2 - n2) >> shift, (hi2 - n2) >> shift


def box_bound(frame: Frame) -> int:
    """An upper bound on the pairs of coefficient_box(frame, u) over every
    integer u: each range holds floor((n + hi) / 2^s) - floor((n + lo) / 2^s)
    + 1 <= floor((hi - lo) / 2^s) + 2 integers, with s = p - q."""
    _, _, shift, _, _, (lo1, hi1, lo2, hi2) = frame
    return (((hi1 - lo1) >> shift) + 2) * (((hi2 - lo2) >> shift) + 2)


def check_box(pairs: int, cap: int = BOX_CAP) -> None:
    """Raise SearchSpaceExceeded when a coefficient box of ``pairs``
    pairs holds more than ``cap``; the message gives the size as a power
    of two, since the count itself can run to thousands of digits."""
    if pairs > cap:
        raise SearchSpaceExceeded(
            f"coefficient box holds about 2^{pairs.bit_length() - 1} pairs (cap {cap})"
        )


def rect_search(frame: Frame, u: int, cap: int = BOX_CAP) -> tuple[list[tuple[int, int]], int]:
    """Points of the token coset (0, -2^q*u) + L inside the rectangle
    [0, b1) x [0, b2) of box_frame's ``frame``, and the box size.

    Visits every integer coefficient pair (a1, a2) of coefficient_box's
    exact box and keeps s = (0, -2^q*u) - a1*u1 - a2*u2 whenever s lands
    in the rectangle, so no in-rectangle point is missed; an empty range
    gives ([], 0).  The points are stepped, not multiplied out: the walk
    starts at (0, -2^q*u) - lo1*u1 - lo2*u2 and subtracts u2 to the next
    pair of a row and u1 to the next row, and takes no step past the
    last, so a one-pair box, the honest case, costs the start alone.  The
    frame's basis should be reduced; an unreduced basis only makes the
    box larger.

    Returns the hits as sorted (x, y) tuples and the number of pairs
    enumerated.  Raises SearchSpaceExceeded, before the walk, when the
    box holds more than ``cap`` pairs (check_box).
    """
    lo1, hi1, lo2, hi2 = coefficient_box(frame, u)
    rows, cols = hi1 - lo1 + 1, hi2 - lo2 + 1
    pairs = rows * cols
    check_box(pairs, cap)
    (x1, y1, x2, y2), q, _, b1, b2, _ = frame
    row_x = -(lo1 * x1 + lo2 * x2)
    row_y = -((u << q) + lo1 * y1 + lo2 * y2)
    hits: list[tuple[int, int]] = []
    for row in range(rows):
        if row:
            row_x -= x1
            row_y -= y1
        sx, sy = row_x, row_y
        for col in range(cols):
            if col:
                sx -= x2
                sy -= y2
            if 0 <= sx < b1 and 0 <= sy < b2:
                hits.append((sx, sy))
    hits.sort()
    return hits, pairs


def truncate_decimal(value: Fraction) -> str:
    """Format an exact rational as a decimal truncated toward zero to three places."""
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scaled = magnitude * 1000
    whole, frac = divmod(scaled.numerator // scaled.denominator, 1000)
    return f"{sign}{whole}.{frac:03d}"
