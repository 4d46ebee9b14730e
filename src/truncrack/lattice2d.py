"""Exact rank-2 lattice machinery for the token congruence.

The congruence lattice for a public multiplier z and modulus 2^p is

    L = { (x, y) : x*z = y  (mod 2^p) },

a rank-2 sublattice of Z^2 with determinant 2^p.  Recovering a token
preimage means finding the solutions of the inhomogeneous congruence
x*z = 2^q*u + y (mod 2^p) inside a small rectangle, which this module
does with a weighted Lagrange (Gauss) reduction of a basis of L and a
walk over the rectangle's exact coefficient box from a point of the
coset.  Reducing L is the continued-fraction expansion of z / 2^p
(Vallée, "Gauss' algorithm revisited", 1991), so gauss_reduce, the
attack's one reduction call, starts with euclid_basis, which runs Euclid
on the remainders alone and rebuilds the two cofactors at its stop from
one 2-adic inverse, and finishes with one Lagrange pass, which its
docstring proves is all that Euclid's stop leaves; it takes the
deployment, not a basis, so no basis reaches the pass that the pass
cannot finish.  attack.Attacker reduces modulo a power
2^k <= 2^p whose lattice contains L (see there); every function here
works for whatever modulus exponent it is given.

Everything is exact, with no floating point, and every function takes
and returns plain ints: a basis is the tuple (x1, y1, x2, y2) of
u1 = (x1, y1) and u2 = (x2, y2), a point is (x, y), and a form is its two
positive weights (wx, wy), <a, b> = wx*ax*bx + wy*ay*by.  For the
rectangle [0, b1) x [0, b2) the weights are (b2^2, b1^2), which make it
square; a common factor of the weights changes no quotient, rounding or
comparison.  euclid_basis, gauss_reduce and box_frame take the attack's
rectangle b1 = 2^m, b2 = 2^q by its exponents (m, q).  A frame is
what the coefficient box of the token coset (0, -2^q*u) + L needs beside
u: (basis, p - q, b1, b2, offsets), made once per basis and rectangle
with shifts, 2^q folded into the offsets (see box_frame), so that a
token's box costs the two products x2*u and x1*u.  coefficient_box
reads it, and attack.Attacker.attack walks the box itself, filtering
each hit as it comes.  This module holds what attack.Attacker calls and
nothing else; the paper's own path, with its exact rational
coefficients, is in truncrack.paper.  All functions are pure.
"""

from __future__ import annotations

from .errors import InvalidArgument, SearchSpaceExceeded, int_text
from .protocol import MAX_BITS

# box_frame's result: the basis with det = +2^p, p - q, b1, b2 and the
# four offsets shifted by q.
Frame = tuple[tuple[int, int, int, int], int, int, int, tuple[int, int, int, int]]

# check_box's cap on the pairs of a coefficient box.
BOX_CAP = 1 << 20


def euclid_basis(z: int, p: int, m: int, q: int) -> tuple[tuple[int, int, int, int], int]:
    """A basis (x1, y1, x2, y2) of L nearly reduced for the rectangle
    [0, 2^m) x [0, 2^q), and the number of Euclid quotients taken to reach it.

    Runs Euclid's algorithm on the remainders (2^p, z mod 2^p) of the
    basis (0, 2^p), (1, z mod 2^p) of L.  Each step maps the pair
    (v0, v1) to (v1, v0 - c*v1), a unimodular change, so every
    consecutive pair is a basis of L wherever the loop stops: the stop
    point cannot affect correctness, only how much work gauss_reduce has
    left.  The loop carries the remainders alone; the cofactors x of the
    two vectors (x, r) at the stop are rebuilt afterwards, as below.

    It stops at the first remainder below the floor 2^f, with
    f = max((p + 1 - shift) // 2, 0) and shift = m - q, or at r1 == 0.
    The floor marks where the rectangle-weighted cofactor and remainder
    meet: the cofactors satisfy |x1|*r0 + |x0|*r1 = 2^p, so |x1| is
    about 2^p / r, and 2^q*|x1| reaches 2^m*r1 as r1 falls through
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
    x_0 = 0 and x_1 = 1.  odd^-1 modulo 2^e comes from Newton's 2-adic
    iteration inv <- inv*(2 - odd*inv): (3*odd) XOR 2 is the inverse
    modulo 2^5, and each step doubles the bits that are right, since
    1 - odd*inv is squared.

    Asserted on exit, since the loop no longer builds the vectors step by
    step: both lie in L ((x*z - r) mod 2^p == 0, on z mod 2^p, the same
    congruence with a shorter product) and |det| = 2^p, so they
    are a basis of L; and Lamé's bound (n quotients need
    z mod 2^p >= F(n+1), so n - 1 < 13/9 * bits(z mod 2^p)).  Raises
    InvalidArgument for p, m or q outside [0, MAX_BITS], before any shift.
    """
    if not (0 <= p <= MAX_BITS and 0 <= m <= MAX_BITS and 0 <= q <= MAX_BITS):
        got = f"p={int_text(p)} m={int_text(m)} q={int_text(q)}"
        raise InvalidArgument(f"p, m and q must be in [0, {MAX_BITS}], got {got}")
    shift = m - q
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
        bits *= 2
        inv = inv * (2 - odd * inv) & ((1 << bits) - 1)
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
    """Nearest integer to num/den; exact halves go toward zero.

    +-1/2 -> 0,  3/2 -> 1,  -3/2 -> -1.  Integer arithmetic only.  Raises
    InvalidArgument for den < 1; gauss_reduce divides only by the norm
    of a nonzero vector.
    """
    if den < 1:
        raise InvalidArgument(f"den must be at least 1, got {int_text(den)}")
    quot, rem = divmod(num, den)
    doubled = 2 * rem
    if doubled > den:
        return quot + 1
    if doubled < den:
        return quot
    # Exactly halfway: quot + 1/2.  Toward zero means down for positive
    # values, up for negative ones.
    return quot if quot >= 0 else quot + 1


def gauss_reduce(z: int, p: int, m: int, q: int) -> tuple[tuple[int, int, int, int], int, int]:
    """The Lagrange (Gauss) reduction of L for the rectangle
    [0, 2^m) x [0, 2^q), under its form (1, 4^s) or (4^-s, 1), s = m - q:
    euclid_basis(z, p, m, q), then one pass from Euclid's stop, and no loop.

    The pass is the textbook loop's first: u1 <- u1 - c1*u2, then
    u2 <- u2 - c2*u1, each c = round_half_to_zero(<ui, uj>, <uj, uj>).  The
    norms n1, n2 and d = <u1, u2> are computed once and updated exactly:
    after u1 <- u1 - c*u2, with t = c*n2, n1 becomes n1 - c*(2d - t) and d
    becomes d - t, and the same with the roles swapped for u2.

    Why the pass reduces the basis.  Take the form as x^2 + 4^s*y^2 (a
    common factor changes no quotient), so n1*n2 - d^2 = D^2 with
    D = 2^(p+s), as |det| = 2^p.  Euclid stops at u2 = (x, r) with r < 2^f,
    f = max((p + 1 - s) // 2, 0), so 2f <= p + 1 - s or r = 0, and
    4^s*r^2 < 2D.  Unless s < -p, u1's remainder is at least 2^f, so
    |x| <= 2^(p-f) (see euclid_basis) and x^2 <= D, as 2f >= p - s: then
    n2 < 3D.  The c1 half-step keeps n2 and leaves 2|d| <= n2, and
    |c2| >= 2 would need |d| > 3*n1/2, so D^2 = n1*n2 - d^2 <
    |d|*(2*n2/3 - |d|) <= n2^2/9, and n2 > 3D.  So |c2| <= 1.  When s < -p,
    Euclid takes no quotient: u1 = (0, 2^p), u2 = (1, r) with r < 2^p, and
    1 + 4^s*r^2 >= 2^(s+1)*r gives |d| <= 2^(p+s-1)*n2 < n2/2, so c1 = 0
    and c2 = round(r / 2^p) is 0 or 1.  If c2 = 0, 2|d| <= n1 as well.  If
    c2 = 1 (-1 is its mirror), n1/2 < d <= 3*n1/2, so the new d - n1 has
    2|d - n1| <= n1, and against the new n2 - 2d + n1 it needs
    4d <= n2 + 3*n1 when d >= n1 (from 2d <= n2 and 2d <= 3*n1) and
    n1 <= n2 when d < n1 (from n1 < 2d <= n2).  So 2|d| <= min(n1, n2) on
    exit: a second pass would leave both quotients zero.

    Asserted: each half-step that changes the basis strictly shrinks the
    norm it updates, |det| = 2^p from the coordinates, and the exit bound.
    Returns the reduced basis, euclid_basis's quotient count, and the
    loop's pass count, its all-zero pass included: 1 when c1 = c2 = 0,
    else 2.  Raises InvalidArgument for p, m or q outside [0, MAX_BITS]
    (euclid_basis), before any shift.
    """
    (x1, y1, x2, y2), quotients = euclid_basis(z, p, m, q)
    sx, sy = max(q - m, 0), max(m - q, 0)
    a1, b1, a2, b2 = x1 << sx, y1 << sy, x2 << sx, y2 << sy
    n1, n2, d = a1 * a1 + b1 * b1, a2 * a2 + b2 * b2, a1 * a2 + b1 * b2
    c1 = round_half_to_zero(d, n2)
    if c1:
        x1, y1 = x1 - c1 * x2, y1 - c1 * y2
        t = c1 * n2
        shrunk = n1 - c1 * (2 * d - t)
        assert shrunk < n1
        n1, d = shrunk, d - t
    c2 = round_half_to_zero(d, n1)
    if c2:
        x2, y2 = x2 - c2 * x1, y2 - c2 * y1
        t = c2 * n1
        shrunk = n2 - c2 * (2 * d - t)
        assert shrunk < n2
        n2, d = shrunk, d - t
    assert abs(x1 * y2 - y1 * x2) == 1 << p and 2 * abs(d) <= min(n1, n2)
    return (x1, y1, x2, y2), quotients, 2 if c1 or c2 else 1


def box_frame(basis: tuple[int, int, int, int], p: int, m: int, q: int) -> Frame:
    """The part of the coefficient box of [0, b1) x [0, b2), b1 = 2^m and
    b2 = 2^q, around the token coset (0, -2^q*u) + L that does not depend
    on u: (basis, shift, b1, b2, offsets), which coefficient_box reads.

    The box runs from the ceiling of the smallest to the floor of the
    largest coefficient of the corners of the closed rectangle
    [0, b1-1] x [0, b2-1], which holds the same integer points; a linear
    map takes its extremes over a parallelogram at its corners, so no
    point s = v - a1*u1 - a2*u2 inside is lost.  Moving the corner by b1-1
    in x or b2-1 in y adds (1-b1)*y2 or (b2-1)*x2 to the Cramer numerator
    of a1 and (b1-1)*y1 or (1-b2)*x1 to that of a2, each a shift and a
    subtraction, so the smallest corner numerator adds the negative moves
    d_lo <= 0 and the largest the positive ones d_hi >= 0.

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
    Raises InvalidArgument for m outside [0, MAX_BITS], p past MAX_BITS or
    q outside [0, p), before any shift, and for any determinant but
    +-2^p, 0 included, since a shift by the wrong p would give a wrong
    box.
    """
    if not 0 <= m <= MAX_BITS:
        raise InvalidArgument(f"m must be in [0, {MAX_BITS}], got m={int_text(m)}")
    if p > MAX_BITS:
        raise InvalidArgument(f"p must be at most {MAX_BITS}, got p={int_text(p)}")
    if not 0 <= q < p:
        raise InvalidArgument(f"q must be in [0, p), got q={int_text(q)} p={int_text(p)}")
    x1, y1, x2, y2 = basis
    det = x1 * y2 - y1 * x2
    if abs(det) != 1 << p:
        raise InvalidArgument(
            f"cannot bound coefficients: determinant {int_text(det)} is not +-2^{p}"
        )
    if det < 0:
        x1, y1 = -x1, -y1
    dx1, dy1 = y2 - (y2 << m), (x2 << q) - x2
    dx2, dy2 = (y1 << m) - y1, x1 - (x1 << q)
    # Conditional expressions, not min(d, 0) and max(d, 0): a builtin call
    # costs about as much as the rest of a toy-size frame.
    dlo1 = (dx1 if dx1 < 0 else 0) + (dy1 if dy1 < 0 else 0)
    dhi1 = (dx1 if dx1 > 0 else 0) + (dy1 if dy1 > 0 else 0)
    dlo2 = (dx2 if dx2 < 0 else 0) + (dy2 if dy2 < 0 else 0)
    dhi2 = (dx2 if dx2 > 0 else 0) + (dy2 if dy2 > 0 else 0)
    round_up = (1 << p) - 1
    offsets = ((dlo1 + round_up) >> q, dhi1 >> q, (dlo2 + round_up) >> q, dhi2 >> q)
    return (x1, y1, x2, y2), p - q, 1 << m, 1 << q, offsets


def coefficient_box(frame: Frame, u: int) -> tuple[int, int, int, int]:
    """Exact inclusive coefficient ranges (lo1, hi1, lo2, hi2) of the
    rectangle of box_frame's ``frame`` around the token coset
    (0, -2^q*u) + L.

    Each bound is the folded numerator, A = x2*u for a1 and -x1*u for
    a2, plus the frame's offset, shifted right by p - q; no rational is
    built.  A range may be empty (hi = lo - 1, never less, as
    floor(max) >= ceil(min) - 1).
    """
    (x1, _, x2, _), shift, _, _, (lo1, hi1, lo2, hi2) = frame
    n1 = x2 * u
    n2 = x1 * u
    return (n1 + lo1) >> shift, (n1 + hi1) >> shift, (lo2 - n2) >> shift, (hi2 - n2) >> shift


def box_bound(frame: Frame) -> int:
    """An upper bound on the pairs of coefficient_box(frame, u) over every
    integer u: each range holds floor((n + hi) / 2^s) - floor((n + lo) / 2^s)
    + 1 <= floor((hi - lo) / 2^s) + 2 integers, with s = p - q."""
    _, shift, _, _, (lo1, hi1, lo2, hi2) = frame
    return (((hi1 - lo1) >> shift) + 2) * (((hi2 - lo2) >> shift) + 2)


def check_box(pairs: int) -> None:
    """Raise SearchSpaceExceeded when a coefficient box of ``pairs``
    pairs holds more than BOX_CAP; the message gives the size as a power
    of two, since the count itself can run to thousands of digits."""
    if pairs > BOX_CAP:
        raise SearchSpaceExceeded(
            f"coefficient box holds about 2^{pairs.bit_length() - 1} pairs (cap {BOX_CAP})"
        )
