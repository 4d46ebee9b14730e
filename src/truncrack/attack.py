"""Token preimage recovery: the lattice attack on the exchange.

Given the public observables (z, p, q, m) and one token u, every preimage
x corresponds to a point (x, y) of the congruence coset inside the
rectangle [0, 2^m) x [0, 2^q), the same for every token of a deployment.
The attack reduces a basis of the congruence lattice under a form weighted
to make that rectangle square (an extended Euclid, finished by Gauss
reduction), walks the rectangle's exact coefficient box from the coset
point (0, -2^q*u), and returns every point it finds, each a preimage by
construction.  The whole path runs on plain ints and tuples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DegenerateInput, NoCandidates
from .lattice2d import euclid_basis, gauss_reduce, rect_search
from .protocol import derive_key, truncate


@dataclass(frozen=True)
class AttackInput:
    """Public observables handed to the attacker.

    ``token`` is the token value u by default; with ``token_is_scaled``
    the caller passed 2^q * u (the pre-division value) and u is recovered
    as floor(token / 2^q).  recover_preimages rejects a scaled token whose
    low q bits are not zero and what check_observables rejects (z < 1,
    p <= q, m < 1, u outside [0, 2^(p-q))), since none of these can come
    from an exchange.  z >= 2^p is accepted: valid parameters with m < q
    have p < l, so their l-bit z is at least 2^p.
    """

    z: int
    p: int
    q: int
    m: int
    token: int
    token_is_scaled: bool = False

    def token_value(self) -> int:
        return self.token >> self.q if self.token_is_scaled else self.token


@dataclass(frozen=True)
class AttackResult:
    """``reduce_iterations`` counts euclid_basis's quotients plus the
    finishing passes of gauss_reduce (its final all-zero pass included);
    ``reduce_time_ns`` covers both."""

    candidates: tuple[tuple[int, int], ...]
    unique: bool
    reduce_iterations: int
    searched: int
    reduce_time_ns: int
    search_time_ns: int


def check_observables(
    z: int, p: int, q: int, m: int, token: int | None = None, name: str = "token"
) -> None:
    """Reject public values that no exchange can produce.

    Raises DegenerateInput for z < 1, for p <= q (every x would be a
    preimage of the only token, 0), for m < 1 (no secret space) and, when
    a token is given, for one outside [0, 2^(p-q)), the range of the token
    map.  ``name`` names the token in the message.
    """
    if z < 1:
        raise DegenerateInput(f"z must be positive, got {z}")
    if p <= q:
        raise DegenerateInput(f"p must exceed q, got p={p} q={q}")
    if m < 1:
        raise DegenerateInput(f"m must be at least 1, got {m}")
    if token is not None and not 0 <= token < 1 << (p - q):
        raise DegenerateInput(f"{name} must be in [0, 2^(p-q)) (p-q={p - q}), got {token}")


def recover_preimages(inp: AttackInput) -> AttackResult:
    """Recover every preimage of the token inside [0, 2^m) x [0, 2^q).

    Deterministic in its input.  The candidates are the walk's hits as
    they are: x*z = 2^q*u + y (mod 2^p) with 0 <= y < 2^q and
    u < 2^(p-q) gives 2^q*u + y < 2^p, so truncate(x) == u, which is
    asserted.  The rectangle's form (b2^2, b1^2) over its gcd is
    (2^(2(q-m)), 1) or (1, 2^(2(m-q))).  ``unique`` is set when there is
    exactly one candidate.  Candidates with x = 0 are kept (x = 0 is never
    a valid secret).
    """
    if inp.token_is_scaled and inp.token & ((1 << inp.q) - 1):
        raise DegenerateInput(f"scaled token {inp.token} is not a multiple of 2^q (q={inp.q})")
    u = inp.token_value()
    z, p, q, m = inp.z, inp.p, inp.q, inp.m
    check_observables(z, p, q, m, u)
    b1, b2 = 1 << m, 1 << q
    wx, wy = (1 << 2 * (q - m), 1) if q > m else (1, 1 << 2 * (m - q))

    t0 = time.perf_counter_ns()
    start, quotients = euclid_basis(z, p, b1, b2)
    reduced, passes = gauss_reduce(start, p, wx, wy)
    t1 = time.perf_counter_ns()
    hits, searched = rect_search(reduced, p, (0, -(u << q)), b1, b2)
    t2 = time.perf_counter_ns()

    candidates = tuple(hits)
    assert all(truncate(x, z, p, q) == u for x, _ in candidates)
    return AttackResult(
        candidates=candidates,
        unique=len(candidates) == 1,
        reduce_iterations=quotients + passes,
        searched=searched,
        reduce_time_ns=t1 - t0,
        search_time_ns=t2 - t1,
    )


def recover_shared_key(
    inp: AttackInput,
    other_token: int,
    r: int,
    result: AttackResult | None = None,
) -> list[tuple[int, int]]:
    """Derive the shared key for every recovered preimage candidate.

    Returns (candidate x, key) pairs in candidate order; distinct
    candidates can collapse to the same key.  ``result`` may carry an
    already-computed recover_preimages output to avoid repeating the
    lattice work.  Raises DegenerateInput when check_observables rejects
    the observables or ``other_token``, and NoCandidates when the
    candidate list is empty.
    """
    check_observables(inp.z, inp.p, inp.q, inp.m, other_token, name="peer token")
    if result is None:
        result = recover_preimages(inp)
    if not result.candidates:
        raise NoCandidates("no preimage candidates to derive a key from")
    return [
        (x, derive_key(x, other_token, inp.p, inp.q, r, inp.m))
        for x, _ in result.candidates
    ]

