"""Token preimage recovery: the lattice attack on the exchange.

Given the public observables (z, p, q, m) and one token u, every preimage
x corresponds to a point (x, y) of the congruence coset inside the
rectangle [0, 2^m) x [0, 2^q), the same for every token of a deployment.
The attack reduces a basis of the congruence lattice under a form weighted
to make that rectangle square (an extended Euclid, finished by Gauss
reduction), walks the rectangle's exact coefficient box from the coset
point (0, -2^q*u), and returns every point it finds, each a preimage by
construction.  The whole path runs on plain ints and tuples.

Only the coset point depends on the token, so the work splits at the
deployment: Attacker(z, p, q, m) reduces once and fixes the box's frame,
and Attacker.attack(u) walks the box of one token.  The frame folds 2^q
in (lattice2d.box_frame): since floor((A*2^q + d) / 2^p) equals
floor((A + floor(d / 2^q)) / 2^(p-q)) for every integer A, a token's box
costs the products of u with the two x-cofactors of the basis, not of
2^q*u.  recover_preimages takes its Attacker from a one-entry memo keyed
on (z, p, q, m): a stream of tokens on one deployment reduces once, and a
new deployment replaces the entry.

Each input has one check: check_observables for the deployment and
check_token for a token, ours or the peer's.  A token here is u itself;
the pre-division value 2^q*u is an input format of the command line,
which decodes it before it calls in.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DegenerateInput, NoCandidates
from .lattice2d import box_frame, euclid_basis, gauss_reduce, rect_search
from .protocol import derive_key, truncate


@dataclass(frozen=True)
class AttackInput:
    """Public observables handed to the attacker: the deployment
    (z, p, q, m) and one token u.

    recover_preimages rejects what check_observables and check_token
    reject (z < 1, q < 0, p <= q, m < 1, u outside [0, 2^(p-q))), since
    none of these can come from an exchange.  z >= 2^p is accepted: valid
    parameters with m < q have p < l, so their l-bit z is at least 2^p.
    """

    z: int
    p: int
    q: int
    m: int
    token: int


class AttackResult(NamedTuple):
    """``reduce_iterations`` is the deployment's: euclid_basis's quotients
    plus the finishing passes of gauss_reduce (its final all-zero pass
    included), the same on every token.  ``reduce_time_ns`` is the
    deployment's too: the time its Attacker took to build (check, Euclid,
    Gauss and the box frame), so on a memo hit it is the reduction the
    miss did, not the lookup.  ``search_time_ns`` covers the token's box
    and walk."""

    candidates: tuple[tuple[int, int], ...]
    unique: bool
    reduce_iterations: int
    searched: int
    reduce_time_ns: int
    search_time_ns: int


def check_observables(z: int, p: int, q: int, m: int) -> None:
    """Reject a deployment that no exchange can produce.

    Raises DegenerateInput for z < 1, for q < 0 (no truncation), for
    p <= q (every x would be a preimage of the only token, 0) and for
    m < 1 (no secret space).  Tokens are checked by check_token.
    """
    if z < 1:
        raise DegenerateInput(f"z must be positive, got {z}")
    if q < 0:
        raise DegenerateInput(f"q must be nonnegative, got {q}")
    if p <= q:
        raise DegenerateInput(f"p must exceed q, got p={p} q={q}")
    if m < 1:
        raise DegenerateInput(f"m must be at least 1, got {m}")


def check_token(token: int, p: int, q: int, name: str = "token") -> None:
    """Raise DegenerateInput for a token outside [0, 2^(p-q)), the range
    of the token map; ``name`` names it in the message."""
    if not 0 <= token < 1 << (p - q):
        raise DegenerateInput(f"{name} must be in [0, 2^(p-q)) (p-q={p - q}), got {token}")


class Attacker:
    """The attack on one deployment (z, p, q, m), for any number of tokens.

    The constructor checks the observables (check_observables), reduces
    the congruence lattice for the rectangle [0, 2^m) x [0, 2^q), whose
    form (b2^2, b1^2) over its gcd is (2^(2(q-m)), 1) or (1, 2^(2(m-q))),
    and fixes the box's frame (lattice2d.box_frame: the |det| = 2^p check,
    SingularBasis otherwise, the sign and the corner offsets shifted by q),
    whose basis ``frame[0]`` is the reduced basis up to the sign of u1.
    Every assertion of euclid_basis and gauss_reduce runs here.
    ``reduce_iterations`` is the Euclid quotients plus the Gauss passes and
    ``reduce_time_ns`` the constructor's time.  Nothing changes an Attacker
    after construction, so one can serve any number of tokens and callers.
    """

    __slots__ = ("z", "p", "q", "reduce_iterations", "reduce_time_ns", "frame")

    def __init__(self, z: int, p: int, q: int, m: int):
        t0 = time.perf_counter_ns()
        check_observables(z, p, q, m)
        b1, b2 = 1 << m, 1 << q
        wx, wy = (1 << 2 * (q - m), 1) if q > m else (1, 1 << 2 * (m - q))
        start, quotients = euclid_basis(z, p, b1, b2)
        reduced, passes = gauss_reduce(start, p, wx, wy)
        self.z, self.p, self.q = z, p, q
        self.reduce_iterations = quotients + passes
        self.frame = box_frame(reduced, p, b1, b2, q)
        self.reduce_time_ns = time.perf_counter_ns() - t0

    def attack(self, u: int) -> AttackResult:
        """Recover every preimage of the token u inside [0, 2^m) x [0, 2^q).

        Deterministic in the deployment and u.  The candidates are the
        walk's hits from the coset point (0, -2^q*u) as they are:
        x*z = 2^q*u + y (mod 2^p) with 0 <= y < 2^q and u < 2^(p-q) gives
        2^q*u + y < 2^p, so truncate(x) == u, which is asserted.
        ``unique`` is set when there is exactly one candidate.  Candidates
        with x = 0 are kept (x = 0 is never a valid secret).  Raises
        DegenerateInput for u outside [0, 2^(p-q)) (check_token).
        """
        z, p, q = self.z, self.p, self.q
        check_token(u, p, q)
        t0 = time.perf_counter_ns()
        hits, searched = rect_search(self.frame, u)
        t1 = time.perf_counter_ns()
        candidates = tuple(hits)
        for x, _ in candidates:
            assert truncate(x, z, p, q) == u
        return AttackResult(
            candidates, len(candidates) == 1, self.reduce_iterations, searched,
            self.reduce_time_ns, t1 - t0,
        )


# One entry: an eavesdropper's stream of tokens on one deployment reduces
# once, and a new deployment replaces the entry, so the memo's memory
# stays one Attacker whatever the caller does.
_attacker = functools.lru_cache(maxsize=1)(Attacker)


def recover_preimages(inp: AttackInput) -> AttackResult:
    """Attacker(z, p, q, m).attack(u) for the input's observables, the
    Attacker taken from a one-entry memo keyed on (z, p, q, m).

    The memo holds one immutable Attacker made from every public input
    but the token, so it changes no output: the candidates, ``unique``,
    ``searched`` and ``reduce_iterations`` are those of a fresh Attacker.
    Raises DegenerateInput for what check_observables and check_token
    reject; a constructor that raises leaves the memo as it was.
    """
    return _attacker(inp.z, inp.p, inp.q, inp.m).attack(inp.token)


def recover_shared_key(
    inp: AttackInput, other_token: int, r: int, result: AttackResult
) -> list[tuple[int, int]]:
    """Derive the shared key for every candidate of ``result``, the
    recover_preimages output for ``inp``.

    Returns (candidate x, key) pairs in candidate order; distinct
    candidates can collapse to the same key.  Raises DegenerateInput when
    check_observables rejects the observables or check_token
    ``other_token``, and NoCandidates when the candidate list is empty.
    """
    check_observables(inp.z, inp.p, inp.q, inp.m)
    check_token(other_token, inp.p, inp.q, "peer token")
    if not result.candidates:
        raise NoCandidates("no preimage candidates to derive a key from")
    return [
        (x, derive_key(x, other_token, inp.p, inp.q, r, inp.m))
        for x, _ in result.candidates
    ]
