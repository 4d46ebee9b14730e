"""The paper's own path through the token congruence, beside the attack's.

The paper recovers a token preimage from a particular solution v0 of
x*z = 2^q*u + y (mod 2^p) and a Gauss-reduced basis of
L = { (x, y) : x*z = y  (mod 2^p) }: it writes the rectangle's corners in
that basis with exact rational coefficients, takes the lattice point
nearest v0 (a CVP), and searches the box the corners span.  This module
keeps those steps as they read: solution_basis, is_reduced, solve_coeffs,
nearest_lattice_point and truncate_decimal, which prints a coefficient
as the paper does.  A coefficient is held as its Cramer numerator over
d = |det| (2^p for a basis of L), the form lattice2d's frame uses, so
values are plain ints and tuples, as in lattice2d.  The box and its
search are the attack's own: lattice2d.coefficient_box on the frame that
lattice2d.gauss_reduce(z, p, m, q) returns at p, and
attack.Attacker.attack, whose candidates are exactly the coset points in
the rectangle.  The attack calls none of the functions here, and nothing
that `import truncrack` loads imports this module.  All functions are
pure.
"""

from __future__ import annotations

from .errors import InvalidArgument, int_text
from .lattice2d import round_half_to_zero
from .protocol import MAX_BITS, check_printable


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
    Raises InvalidArgument for z < 1, for p outside [1, MAX_BITS], for q
    outside [0, MAX_BITS] and for u < 0, before any shift.
    """
    if z <= 0:
        raise InvalidArgument(f"z must be positive, got {int_text(z)}")
    if p < 1:
        raise InvalidArgument(f"p must be at least 1, got {int_text(p)}")
    if p > MAX_BITS:
        raise InvalidArgument(f"p must be at most {MAX_BITS}, got {int_text(p)}")
    if not 0 <= q <= MAX_BITS:
        raise InvalidArgument(f"q must be in [0, {MAX_BITS}], got {int_text(q)}")
    if u < 0:
        raise InvalidArgument(f"u must be nonnegative, got {int_text(u)}")
    shifted = u << q
    x0 = -(-shifted // z)
    anchor = shifted // z
    y1 = z * anchor - (1 << p)
    return (x0, z * x0 - shifted), (anchor, y1, anchor + 1, y1 + z)


def is_reduced(basis: tuple[int, int, int, int], wx: int, wy: int) -> bool:
    """Whether |<u1, u2>| <= min(|u1|^2, |u2|^2) / 2 under the form (wx, wy)."""
    x1, y1, x2, y2 = basis
    cross = abs(wx * x1 * x2 + wy * y1 * y2)
    return 2 * cross <= min(wx * x1 * x1 + wy * y1 * y1, wx * x2 * x2 + wy * y2 * y2)


def solve_coeffs(
    basis: tuple[int, int, int, int], v: tuple[int, int]
) -> tuple[int, int, int]:
    """The exact coefficients of v in the basis by Cramer's rule, as
    (n1, n2, d) with d = |det| > 0: a1 = n1/d and a2 = n2/d, and
    a1*u1 + a2*u2 = v.  All three are negated when det < 0, as
    gauss_reduce negates u1 in its frame.  d is 2^p for a basis of L.
    Raises InvalidArgument for a basis of determinant 0.
    """
    x1, y1, x2, y2 = basis
    vx, vy = v
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise InvalidArgument("cannot solve coefficients: determinant is 0")
    n1, n2 = vx * y2 - x2 * vy, x1 * vy - vx * y1
    if det < 0:
        return -n1, -n2, -det
    return n1, n2, det


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
    norm over the coset v + L.  Raises InvalidArgument for a weight below
    1 and for a basis that is_reduced rejects, where the scan can miss it.
    """
    if wx <= 0 or wy <= 0:
        raise InvalidArgument("form weights must be positive")
    if not is_reduced(basis, wx, wy):
        raise InvalidArgument("basis is not reduced under the form")
    n1, n2, d = solve_coeffs(basis, v)
    r1, r2 = round_half_to_zero(n1, d), round_half_to_zero(n2, d)
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


def truncate_decimal(num: int, den: int) -> str:
    """num/den as a decimal truncated toward zero to three places, as the
    paper prints a coefficient; a negative value above -0.001 prints as
    "-0.000".  Raises InvalidArgument for den < 1 and, through
    protocol.check_printable, for a whole part too long to print."""
    if den < 1:
        raise InvalidArgument(f"den must be at least 1, got {int_text(den)}")
    whole, frac = divmod(abs(num) * 1000 // den, 1000)
    check_printable(whole, "the whole part")
    return f"{'-' if num < 0 else ''}{whole}.{frac:03d}"
