"""Checks of the attack's outputs, computed apart from the program.

Every formula here is written out again with `%` and `//` rather than
taken from `truncrack`, so a fault in the program's token map, key map or
lattice code cannot hide itself by also being in the check.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Token:
    """One attacked token and what is known about it.

    ``u`` is attacked and ``v`` is the peer token keys are derived from.
    For a token from an honest exchange, ``x``, ``y``, ``w_a`` and ``w_b``
    are the exchange's secrets and keys; a uniform token has them None.
    ``exhaustive`` asks for the candidates to be compared with a scan of
    every x in [0, 2^m), which only small m allows.
    """

    z: int
    p: int
    q: int
    m: int
    r: int
    u: int
    v: int
    x: int | None = None
    y: int | None = None
    w_a: int | None = None
    w_b: int | None = None
    exhaustive: bool = False


def token_of(x: int, z: int, p: int, q: int) -> int:
    """floor((x*z mod 2^p) / 2^q)."""
    return (x * z) % 2**p // 2**q


def low_bits(x: int, z: int, p: int, q: int) -> int:
    """(x*z mod 2^p) mod 2^q: the y that goes with x."""
    return (x * z) % 2**p % 2**q


def key_of(x: int, other: int, p: int, q: int, r: int, m: int) -> int:
    """floor((x*other mod 2^(p-q)) / 2^(r+m))."""
    return (x * other) % 2 ** (p - q) // 2 ** (r + m)


def scan_preimages(z: int, p: int, q: int, m: int, u: int) -> list[int]:
    """Every x in [0, 2^m) with token_of(x) == u, ascending."""
    return [x for x in range(2**m) if token_of(x, z, p, q) == u]


def problem(
    tok: Token,
    candidates: list[tuple[int, int]],
    keys: list[tuple[int, int]],
) -> str | None:
    """The first thing wrong with one attack's output, or None.

    ``candidates`` are the (x, y) pairs of `recover_preimages` and ``keys``
    the (x, key) pairs of `recover_shared_key` (empty when it was skipped
    for want of candidates).
    """
    z, p, q, m = tok.z, tok.p, tok.q, tok.m
    xs = [x for x, _ in candidates]
    if tok.exhaustive:
        expected_xs = scan_preimages(z, p, q, m, tok.u)
        if xs != expected_xs:
            return f"candidates {xs} != exhaustive scan {expected_xs}"
    for x, y in candidates:
        if not 0 <= x < 2**m:
            return f"candidate x={x} outside [0, 2^{m})"
        if token_of(x, z, p, q) != tok.u:
            return f"candidate x={x} maps to {token_of(x, z, p, q)}, not {tok.u}"
        if y != low_bits(x, z, p, q):
            return f"candidate x={x} has y={y}, not {low_bits(x, z, p, q)}"
    expected_keys = [(x, key_of(x, tok.v, p, q, tok.r, m)) for x in xs]
    if [tuple(pair) for pair in keys] != expected_keys:
        return f"keys {keys} != {expected_keys}"
    if tok.x is None:
        return None
    if (token_of(tok.x, z, p, q), token_of(tok.y, z, p, q)) != (tok.u, tok.v):
        return "exchange tokens differ from the token map of its secrets"
    if (key_of(tok.x, tok.v, p, q, tok.r, m), key_of(tok.y, tok.u, p, q, tok.r, m)) != (
        tok.w_a,
        tok.w_b,
    ):
        return "exchange keys differ from the key map of its secrets"
    if tok.x not in xs:
        return f"secret x={tok.x} not among {len(xs)} candidates"
    if dict(keys)[tok.x] != tok.w_a:
        return f"key derived for the secret differs from W_a={tok.w_a}"
    return None
