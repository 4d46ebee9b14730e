"""Exact rank-2 lattice machinery for the token congruence.

The congruence lattice for a public multiplier z and modulus 2^p is

    L = { (x, y) : x*z = y  (mod 2^p) },

a rank-2 sublattice of Z^2 with determinant 2^p.  Recovering a token
preimage means finding the solutions of the inhomogeneous congruence
x*z = 2^q*u + y (mod 2^p) inside a small rectangle, which this module
does with a particular solution plus L, a weighted Lagrange (Gauss)
reduction of a basis of L, rounding, and a bounded enumeration of the
rectangle's coefficient box.

Everything is exact, with no floating point.  The attack path (reduction,
coefficient box, enumeration) runs on integers alone; exact rationals
appear only in solve_coeffs, nearest_lattice_point and the decimal strings
shown to humans.  All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Optional

from .errors import (
    DegenerateInput,
    IterationCapExceeded,
    SearchSpaceExceeded,
    SingularBasis,
)


@dataclass(frozen=True)
class IVec2:
    """An exact integer column vector (x, y)."""

    x: int
    y: int

    def __add__(self, other: "IVec2") -> "IVec2":
        return IVec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "IVec2") -> "IVec2":
        return IVec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "IVec2":
        return IVec2(-self.x, -self.y)

    def scaled(self, k: int) -> "IVec2":
        return IVec2(k * self.x, k * self.y)


@dataclass(frozen=True)
class WeightedForm:
    """Positive definite bilinear form  <a, b> = wx*ax*bx + wy*ay*by.

    For rectangle bounds (B1, B2) the weights are wx = B2^2, wy = B1^2:
    this is the inner product with y scaled by (B1/B2)^2, multiplied
    through by B2^2 so every value stays an exact integer.  The common
    scaling changes no ratio, rounding, or argmin computed from the form.
    """

    wx: int
    wy: int

    def __post_init__(self):
        if self.wx <= 0 or self.wy <= 0:
            raise ValueError("form weights must be positive")

    @classmethod
    def for_rectangle(cls, b1: int, b2: int) -> "WeightedForm":
        return cls(wx=b2 * b2, wy=b1 * b1)

    def inner(self, a: IVec2, b: IVec2) -> int:
        return self.wx * a.x * b.x + self.wy * a.y * b.y

    def norm_sq(self, a: IVec2) -> int:
        return self.wx * a.x * a.x + self.wy * a.y * a.y


@dataclass(frozen=True)
class LatticeBasis:
    """An ordered basis (u1, u2) of the congruence lattice mod 2^modulus_exp.

    Both vectors satisfy v.x*z = v.y (mod 2^modulus_exp) and the
    determinant is +-2^modulus_exp; z is carried alongside so membership
    stays checkable.
    """

    u1: IVec2
    u2: IVec2
    modulus_exp: int
    z: int

    def det(self) -> int:
        return self.u1.x * self.u2.y - self.u1.y * self.u2.x

    def contains(self, v: IVec2) -> bool:
        return (v.x * self.z - v.y) % (1 << self.modulus_exp) == 0

    def is_reduced(self, form: WeightedForm) -> bool:
        cross = abs(form.inner(self.u1, self.u2))
        return 2 * cross <= min(form.norm_sq(self.u1), form.norm_sq(self.u2))


@dataclass(frozen=True)
class SolutionFamily:
    """All solutions of x*z = 2^q*u + y (mod 2^p): the coset v0 + L.

    v0 is a particular solution; g1, g2 generate the homogeneous lattice L.
    """

    v0: IVec2
    g1: IVec2
    g2: IVec2
    modulus_exp: int
    z: int

    def basis(self) -> LatticeBasis:
        return LatticeBasis(u1=self.g1, u2=self.g2, modulus_exp=self.modulus_exp, z=self.z)


@dataclass(frozen=True)
class ReductionStep:
    """State after one half-step of the reduction; target names the vector
    that was just replaced."""

    target: str
    c: int
    u1: IVec2
    u2: IVec2


def solution_basis(z: int, p: int, q: int, u: int) -> SolutionFamily:
    """Particular solution and lattice generators for the token congruence.

    v0 = (ceil(2^q*u / z), z*x0 - 2^q*u) solves the congruence with
    0 <= y0 < z.  The generators are the consecutive pair
    g_i = (t + i, z*(t + i) - 2^p) for i in {0, 1}, which both satisfy the
    homogeneous congruence and span a determinant-2^p sublattice, i.e. all
    of L, with t = floor(2^q*u / z).
    """
    if z <= 0:
        raise DegenerateInput(f"z must be positive, got {z}")
    if p < 1:
        raise DegenerateInput(f"p must be at least 1, got {p}")
    if u < 0:
        raise DegenerateInput(f"u must be nonnegative, got {u}")
    shifted = u << q
    x0 = -(-shifted // z)
    v0 = IVec2(x0, z * x0 - shifted)
    anchor = shifted // z
    modulus = 1 << p
    g1 = IVec2(anchor, z * anchor - modulus)
    g2 = IVec2(anchor + 1, z * (anchor + 1) - modulus)
    return SolutionFamily(v0=v0, g1=g1, g2=g2, modulus_exp=p, z=z)


def _round_quotient_half_to_zero(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0); exact halves go toward zero."""
    quot, rem = divmod(num, den)
    doubled = 2 * rem
    if doubled > den:
        return quot + 1
    if doubled < den:
        return quot
    # Exactly halfway: quot + 1/2.  Toward zero means down for positive
    # values, up for negative ones.
    return quot if quot >= 0 else quot + 1


def round_half_to_zero(value: Fraction | int) -> int:
    """Round to the nearest integer, sending exact halves toward zero.

    +-1/2 -> 0,  3/2 -> 1,  -3/2 -> -1.  Integer arithmetic only.
    """
    if isinstance(value, int):
        return value
    return _round_quotient_half_to_zero(value.numerator, value.denominator)


def _gram(wx: int, wy: int, x1: int, y1: int, x2: int, y2: int) -> tuple[int, int, int]:
    """(|u1|^2, |u2|^2, <u1, u2>) under the weights (wx, wy)."""
    return (
        wx * x1 * x1 + wy * y1 * y1,
        wx * x2 * x2 + wy * y2 * y2,
        wx * x1 * x2 + wy * y1 * y2,
    )


# Bits of the larger tracked norm that gauss_reduce keeps when it computes
# quotients on truncated Gram entries.
_LEAD_BITS = 256


def _certified_quotient(num: int, den: int, err_num: int, err_den: int) -> Optional[int]:
    """Round(N/D) for the exact N, D > 0 behind truncated num, den, or None.

    |N - num| < err_num and |D - den| < err_den.  Take k, rem =
    divmod(2*num + den, 2*den).  The exact remainder 2*N + D - 2*k*D
    differs from rem, and its gap to 2*D differs from 2*den - rem, by less
    than margin = 2*err_num + (2|k|+1)*err_den.  So margin < rem <
    2*den - margin puts N/D strictly between k - 1/2 and k + 1/2: k is its
    nearest integer, and no tie is decided on truncated data.
    """
    if den <= 0:
        return None
    k, rem = divmod(2 * num + den, 2 * den)
    margin = 2 * err_num + (2 * abs(k) + 1) * err_den
    if margin < rem < 2 * den - margin:
        return k
    return None


def gauss_reduce(
    basis: LatticeBasis,
    form: WeightedForm,
    *,
    on_step: Optional[Callable[[ReductionStep], None]] = None,
) -> tuple[LatticeBasis, int]:
    """Lagrange-reduce the basis under the weighted form.

    Alternately replaces u1 <- u1 - c1*u2 and u2 <- u2 - c2*u1 with
    c = Round(<ui, uj> / <uj, uj>) (halves toward zero) until a pass leaves
    both coefficients zero.  On exit |<u1,u2>| <= min(|u1|^2, |u2|^2) / 2.

    The loop runs on plain ints.  The weights lose their common factor
    gcd(wx, wy), which scales every Gram entry alike and so changes no
    quotient or comparison.  The Gram entries n1 = |u1|^2, n2 = |u2|^2 and
    d = <u1, u2> are computed once and then updated from the quotient
    alone: u1 <- u1 - c*u2 gives n1 <- n1 - c*(2d - c*n2) and
    d <- d - c*n2, and likewise for u2.

    Quotients are taken Lehmer-style, on the entries shifted right by s,
    the bits of the larger norm beyond _LEAD_BITS, and collected into a
    unimodular transform (a, b; c, e) with u1' = a*u1 + b*u2 and
    u2' = c*u1 + e*u2.  The truncated entries are then off by less than
    (|a|+|b|)^2, (|c|+|e|)^2 and (|a|+|b|)(|c|+|e|) units of 2^s, and a
    quotient is used only when that error cannot change it
    (_certified_quotient).  At the first one that is not certified the
    batch is flushed: the transform is applied to the four coordinates and
    to the exact Gram entries.  If not even the first quotient after a
    flush is certified, one exact step is taken on the full entries.  When
    s == 0 (norms below 2^_LEAD_BITS, as at every toy size) the tracked
    entries are exact: the quotients update the vectors directly, and the
    tracked entries become the Gram entries as they are.  So the
    quotients, passes and result are exactly those of the step-by-step
    loop.

    Returns the reduced basis and the number of passes, counting the final
    all-zero pass.  Each half-step with c != 0 strictly shrinks the
    tracked norm it replaces, and every flush (every time the vectors
    change) preserves |det|; both are asserted, as are, on exit, the
    tracked entries against a fresh recomputation and the reduction bound.
    ``on_step`` (if given) observes the state after every half-step, each
    of which is then a flush of its own.  The pass count is capped at
    64 * modulus_exp as a safety net; reduction converges orders of
    magnitude faster.
    """
    det = abs(basis.det())
    if det == 0:
        raise DegenerateInput("basis is degenerate (determinant 0)")
    x1, y1, x2, y2 = basis.u1.x, basis.u1.y, basis.u2.x, basis.u2.y
    g = gcd(form.wx, form.wy)
    wx, wy = form.wx // g, form.wy // g
    n1, n2, d = _gram(wx, wy, x1, y1, x2, y2)
    cap = 64 * basis.modulus_exp
    passes = 0
    replace_u1 = True  # which half-step comes next
    c1 = 0  # the quotient of this pass's u1 half-step
    exact_step = False  # the next batch is one exact step on the full entries
    done = False
    while not done:
        s = 0 if exact_step else (n1 if n1 > n2 else n2).bit_length() - _LEAD_BITS
        if s > 0:
            # the row operations build the transform, applied at the flush
            t1, t2, td = n1 >> s, n2 >> s, d >> s
            a, b, c, e = 1, 0, 0, 1
            err1 = err2 = 1  # |a| + |b| and |c| + |e|
        else:
            # exact entries: the row operations act on the vectors themselves
            s = 0
            t1, t2, td = n1, n2, d
            a, b, c, e = x1, y1, x2, y2
        one_step = exact_step or on_step is not None
        steps = 0
        while True:
            if replace_u1:
                if s:
                    k = _certified_quotient(td, t2, err1 * err2, err2 * err2)
                    if k is None:
                        break
                else:
                    k = _round_quotient_half_to_zero(td, t2)
                passes += 1
                if passes > cap:
                    raise IterationCapExceeded(
                        f"reduction exceeded {cap} passes (modulus_exp={basis.modulus_exp})"
                    )
                if k:
                    shrunk = t1 - k * (2 * td - k * t2)
                    assert shrunk < t1
                    t1 = shrunk
                    td -= k * t2
                    a -= k * c
                    b -= k * e
                    if s:
                        err1 = abs(a) + abs(b)
                c1 = k
            else:
                if s:
                    k = _certified_quotient(td, t1, err1 * err2, err1 * err1)
                    if k is None:
                        break
                else:
                    k = _round_quotient_half_to_zero(td, t1)
                if k:
                    shrunk = t2 - k * (2 * td - k * t1)
                    assert shrunk < t2
                    t2 = shrunk
                    td -= k * t1
                    c -= k * a
                    e -= k * b
                    if s:
                        err2 = abs(c) + abs(e)
                done = c1 == 0 and k == 0
            replace_u1 = not replace_u1
            steps += 1
            if done or one_step:
                break
        exact_step = steps == 0
        if exact_step:
            continue
        if s:
            n1, n2, d = (
                a * a * n1 + 2 * a * b * d + b * b * n2,
                c * c * n1 + 2 * c * e * d + e * e * n2,
                a * c * n1 + (a * e + b * c) * d + b * e * n2,
            )
            x1, y1, x2, y2 = a * x1 + b * x2, a * y1 + b * y2, c * x1 + e * x2, c * y1 + e * y2
        else:
            n1, n2, d = t1, t2, td
            x1, y1, x2, y2 = a, b, c, e
        assert abs(x1 * y2 - y1 * x2) == det
        if on_step is not None:
            on_step(ReductionStep(
                target="u2" if replace_u1 else "u1", c=k, u1=IVec2(x1, y1), u2=IVec2(x2, y2)
            ))
    assert (n1, n2, d) == _gram(wx, wy, x1, y1, x2, y2)
    reduced = LatticeBasis(
        u1=IVec2(x1, y1), u2=IVec2(x2, y2), modulus_exp=basis.modulus_exp, z=basis.z
    )
    assert reduced.is_reduced(form)
    return reduced, passes


def solve_coeffs(basis: LatticeBasis, v: IVec2) -> tuple[Fraction, Fraction]:
    """Exact rationals (a1, a2) with a1*u1 + a2*u2 = v (Cramer's rule).

    Denominators always divide |det| = 2^modulus_exp.
    """
    det = basis.det()
    if det == 0:
        raise SingularBasis("cannot solve coefficients: determinant is 0")
    a1 = Fraction(v.x * basis.u2.y - basis.u2.x * v.y, det)
    a2 = Fraction(basis.u1.x * v.y - v.x * basis.u1.y, det)
    return a1, a2


# Probe order for the local minimality fix-up: the rounded pair first,
# then its neighbours in a fixed order so ties resolve deterministically.
_NEIGHBOURHOOD = [(0, 0)] + [(e1, e2) for e1 in (-1, 0, 1) for e2 in (-1, 0, 1) if (e1, e2) != (0, 0)]


def nearest_lattice_point(basis: LatticeBasis, v: IVec2, form: WeightedForm) -> tuple[int, int]:
    """Integer coefficients (a1, a2) whose lattice point is nearest v.

    ``basis`` must be reduced under ``form``.  The coefficients are the
    rounded (halves toward zero) exact solve of v in the basis; because a
    coefficient sitting close to a half-integer boundary can make a
    neighbouring pair strictly closer under a skew form, the 3x3
    neighbourhood of the rounded pair is scanned and the best kept.  For a
    reduced basis the true closest point always lies in that
    neighbourhood, so the result attains the exact minimum of the form
    norm over the coset v + L.
    """
    a1, a2 = solve_coeffs(basis, v)
    r1 = _round_quotient_half_to_zero(a1.numerator, a1.denominator)
    r2 = _round_quotient_half_to_zero(a2.numerator, a2.denominator)
    best = None
    best_norm = None
    for e1, e2 in _NEIGHBOURHOOD:
        c1, c2 = r1 + e1, r2 + e2
        residual = v - basis.u1.scaled(c1) - basis.u2.scaled(c2)
        norm = form.norm_sq(residual)
        if best_norm is None or norm < best_norm:
            best, best_norm = (c1, c2), norm
    return best


def coefficient_box(
    basis: LatticeBasis, v: IVec2, b1: int, b2: int
) -> tuple[int, int, int, int]:
    """Inclusive integer coefficient ranges covering the target rectangle.

    Takes the Cramer numerators of the four corners v, v-(b1,0), v-(0,b2),
    v-(b1,b2) and returns the bounding box of their coefficients
    numerator/det, padded by 1 on each side to absorb the half-open edges
    of the rectangle.  Floor and ceiling come from integer division by det,
    which is exact for either sign of det, so no rational is built.
    """
    x1, y1, x2, y2 = basis.u1.x, basis.u1.y, basis.u2.x, basis.u2.y
    det = x1 * y2 - y1 * x2
    if det == 0:
        raise SingularBasis("cannot bound coefficients: determinant is 0")
    corners = [(x, y) for x in (v.x, v.x - b1) for y in (v.y, v.y - b2)]
    nums1 = [x * y2 - x2 * y for x, y in corners]
    nums2 = [x1 * y - x * y1 for x, y in corners]
    return (
        min(n // det for n in nums1) - 1,
        max(-(-n // det) for n in nums1) + 1,
        min(n // det for n in nums2) - 1,
        max(-(-n // det) for n in nums2) + 1,
    )


def rect_search(
    basis: LatticeBasis,
    v: IVec2,
    b1: int,
    b2: int,
    cap: int = 1 << 20,
) -> tuple[list[IVec2], int]:
    """Points of the coset v + L inside [0, b1) x [0, b2), and the box size.

    Enumerates every integer coefficient pair in the padded corner box and
    keeps s = v - a1*u1 - a2*u2 whenever s lands in the rectangle.  The
    rectangle's image in coefficient space is a parallelogram contained in
    that box, so no in-rectangle point can be missed.  ``basis`` should be
    reduced; an unreduced basis only makes the box larger.

    Returns the hits sorted by x and the number of pairs enumerated.
    Raises SearchSpaceExceeded when the box holds more than ``cap`` pairs.
    """
    if b1 < 1 or b2 < 1:
        raise ValueError("rectangle bounds must be at least 1")
    lo1, hi1, lo2, hi2 = coefficient_box(basis, v, b1, b2)
    pairs = (hi1 - lo1 + 1) * (hi2 - lo2 + 1)
    if pairs > cap:
        raise SearchSpaceExceeded(f"coefficient box holds {pairs} pairs (cap {cap})")
    x1, y1, x2, y2 = basis.u1.x, basis.u1.y, basis.u2.x, basis.u2.y
    hits: list[IVec2] = []
    for a1 in range(lo1, hi1 + 1):
        base_x, base_y = v.x - a1 * x1, v.y - a1 * y1
        for a2 in range(lo2, hi2 + 1):
            sx, sy = base_x - a2 * x2, base_y - a2 * y2
            if 0 <= sx < b1 and 0 <= sy < b2:
                hits.append(IVec2(sx, sy))
    hits.sort(key=lambda s: s.x)
    return hits, pairs


def truncate_decimal(value: Fraction, places: int = 3) -> str:
    """Format an exact rational as a decimal truncated toward zero."""
    sign = "-" if value < 0 else ""
    magnitude = -value if value < 0 else value
    scaled = magnitude * 10**places
    digits = scaled.numerator // scaled.denominator
    whole, frac = divmod(digits, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
