"""Token preimage recovery: the lattice attack on the exchange.

Given the public observables (z, p, q, m) and one token u, every preimage
x corresponds to a point (x, y) of the congruence coset inside the
rectangle [0, 2^m) x [0, 2^q), the same for every token of a deployment.
The attack reduces a basis of a congruence lattice under a form weighted
to make that rectangle square (an extended Euclid, finished by Gauss
reduction), walks the rectangle's exact coefficient box from a coset
point, and keeps the points that the token map sends to u.  The whole
path runs on plain ints and tuples.

The lattice is taken modulo 2^k, not 2^p, with k = min(p, m + q +
SPARE_BITS).  A preimage solves x*z = 2^q*u + y (mod 2^p), so it also
solves x*z = 2^q*(u mod 2^(k-q)) + y (mod 2^k): the solutions of the
second congruence are a coset of L_k = {(x, y) : x*z = y (mod 2^k)},
which contains L_p, so the walk over it misses no preimage.  The coset
has about 2^(m+q-k) points in the rectangle, 1/8 when k < p, and each
hit whose full token map is not u is dropped.  Euclid then runs on
k bits, not p: at l = 2048 and m = q = 512 that is 1,027, not 2,048.
That count holds for a generic z.  When z mod 2^k is far from generic
(z = 0 or 3 mod 2^k, or a multiple of 2^v for v a little above m + q,
say), L_k has a vector short against the rectangle, and its box can hold
thousands of pairs, or more than lattice2d.BOX_CAP, where the lattice
modulo 2^p would hold a pair or two.  Past WALK_BOUND pairs the Attacker
then reduces modulo 2^p as well, so such a deployment is attacked as the
paper does.

Only the coset point depends on the token, so the work splits at the
deployment: Attacker(z, p, q, m) reduces once and fixes the box's frame
and the masks a token needs, and Attacker.attack(u) walks the box of one
token, filtering each hit as it comes.  The frame, which the one
reduction call lattice2d.gauss_reduce returns, folds 2^q in, so a
token's box costs the products of u mod 2^(k-q) with the two
x-cofactors of the basis, not of 2^q*u.
Attacker is the way in: the command line and the trial harness build
one per deployment, and derive keys with protocol.shared_key.
recover_preimages and recover_shared_key are the benchmark's entry
(perfbench/run.py), an adapter over an Attacker taken from a one-entry
memo keyed on (z, p, q, m).  Nothing here reads a clock: a caller times
the calls it makes, as harness._run_trial does.

Each input has one check, and protocol holds both: check_observables
for the deployment and check_token for a token, ours or the peer's.  A
token here is u itself; the pre-division value 2^q*u is an input format
of the command line, which decodes it before it calls in.
"""

# No `from __future__ import annotations`: typing would compile each
# NamedTuple field's annotation string whenever the module is imported.
import functools
from typing import NamedTuple

from .lattice2d import box_bound, check_box, coefficient_box, gauss_reduce
from .protocol import check_observables, check_token, derive_key

# The reduction modulus exceeds the rectangle's area 2^(m+q) by this many
# bits, so the coset of L_k puts about 2^-SPARE_BITS points in it, and the
# filter rarely has a hit to drop.
SPARE_BITS = 3

# Past this many pairs in box_bound of the frame modulo 2^k, the Attacker
# reduces modulo 2^p as well.  A generic z stays far below it: box_bound
# was at most 20 for gen_params(s, 2048, 512, 512, 129), s = 1..1000, and
# at most 32 for gen_params(s, l, m, q, r), s = 1..3000, at a toy shape
# drawn by random.Random(s) as in acceptance criterion 2.  A z far from
# generic modulo 2^k can put 2^19 pairs in the box, almost all of them
# hits that cost a product x*z each; 256 such hits cost a token about
# what the reduction modulo 2^p costs a deployment at l = 2048.
WALK_BOUND = 256


class AttackInput(NamedTuple):
    """Public observables handed to the attacker: the deployment
    (z, p, q, m) and one token u, in that order.

    recover_preimages rejects what protocol.check_observables and
    protocol.check_token reject (z < 1, q < 0, p <= q, m < 1, p or m past
    the size bound, u outside [0, 2^(p-q))), since none of these can come
    from an exchange.  z >= 2^p is accepted: valid parameters with m < q
    have p < l, so their l-bit z is at least 2^p.
    """

    z: int
    p: int
    q: int
    m: int
    token: int


class AttackResult(NamedTuple):
    """The outcome of one token, a value: equal deployments and tokens
    give ``==`` results, and no field holds a time.
    ``reduce_iterations`` is the deployment's: gauss_reduce's Euclid
    quotients plus its passes, 1 when its one pass changes nothing and
    2 otherwise, for the lattice modulo 2^k (Attacker), on every token.
    ``searched`` is the number of coefficient pairs of the token's box in
    that lattice, so the filter's dropped hits are among them."""

    candidates: tuple[tuple[int, int], ...]
    unique: bool
    reduce_iterations: int
    searched: int


class Attacker:
    """The attack on one deployment (z, p, q, m), for any number of tokens.

    The constructor checks the observables (check_observables), reduces
    the congruence lattice modulo 2^k, k = min(p, m + q + SPARE_BITS), for
    the rectangle [0, 2^m) x [0, 2^q) and fixes the box's frame in one
    gauss_reduce call, given m and q: euclid_basis, then one pass, then
    the sign and the corner offsets shifted by q.  The frame's basis
    ``frame[0]`` is the reduced basis up to the sign of u1, with
    det = +2^k.  Every assertion of gauss_reduce, euclid_basis's
    included, runs here, at k.
    When p <= m + q + SPARE_BITS, k is p and the lattice is the paper's.  When
    k < p but lattice2d.box_bound puts the frame's box over WALK_BOUND
    pairs for some token, the lattice modulo 2^p is reduced and framed
    too, and ``k`` is p; a generic z never gets there.
    ``reduce_iterations`` is the Euclid quotients plus the Gauss passes (1
    or 2) of every reduction made.  The masks 2^(k-q) - 1, 2^k - 1 and 2^p - 1
    that a token needs are made here too.  An Attacker reads no clock and
    never changes after construction, so one serves any number of tokens
    and callers, with ``==`` results.
    """

    __slots__ = ("z", "p", "q", "k", "reduce_iterations", "frame", "lowmask", "kmask", "pmask")

    def __init__(self, z: int, p: int, q: int, m: int):
        check_observables(z, p, q, m)
        iterations = 0
        spare = m + q + SPARE_BITS
        for k in (spare if spare < p else p, p):
            frame, quotients, passes = gauss_reduce(z, k, m, q)
            iterations += quotients + passes
            if k == p or box_bound(frame) <= WALK_BOUND:
                break
        self.z, self.p, self.q, self.k = z, p, q, k
        self.reduce_iterations = iterations
        self.frame = frame
        self.lowmask, self.kmask, self.pmask = (1 << (k - q)) - 1, (1 << k) - 1, (1 << p) - 1

    def attack(self, u: int) -> AttackResult:
        """Recover every preimage of the token u inside [0, 2^m) x [0, 2^q).

        Deterministic in the deployment and u.  The walk visits every
        pair of coefficient_box(frame, u mod 2^(k-q)), from the coset
        point (0, -2^q*(u mod 2^(k-q))) of L_k, stepping by the basis
        vectors rather than multiplying each point out; each hit
        (x, y) is filtered as the walk reaches it, and kept when its full
        token map, floor((x*z mod 2^p) / 2^q), is u.  One product x*z
        serves both that filter and the assertion that the hit solves
        x*z = 2^q*(u mod 2^(k-q)) + y (mod 2^k).  Since L_p lies in L_k,
        every preimage is a hit, and the kept hits are exactly the
        preimages, with y the low q bits of x*z; when k = p the filter
        drops nothing.  The kept pairs are sorted, and ``unique`` is set
        when there is exactly one.  Candidates with x = 0 are kept (x = 0
        is never a valid secret).  Raises InvalidArgument for u outside
        [0, 2^(p-q)) (check_token), and SearchSpaceExceeded, before the
        walk, for a box of more than lattice2d.BOX_CAP pairs (check_box).
        """
        z, q = self.z, self.q
        check_token(u, self.p, q)
        low = u & self.lowmask
        lo1, hi1, lo2, hi2 = coefficient_box(self.frame, low)
        rows, cols = hi1 - lo1 + 1, hi2 - lo2 + 1
        pairs = rows * cols
        check_box(pairs)
        (x1, y1, x2, y2), _, b1, b2, _ = self.frame
        kmask, pmask, target = self.kmask, self.pmask, low << q
        row_x = -(lo1 * x1 + lo2 * x2)
        row_y = -(target + lo1 * y1 + lo2 * y2)
        kept = []
        for row in range(rows):
            if row:
                row_x -= x1
                row_y -= y1
            x, y = row_x, row_y
            for col in range(cols):
                if col:
                    x -= x2
                    y -= y2
                if 0 <= x < b1 and 0 <= y < b2:
                    xz = x * z
                    assert (xz - y) & kmask == target
                    # protocol.trunc_f(x), on the product made above
                    if (xz & pmask) >> q == u:
                        kept.append((x, y))
        kept.sort()
        return AttackResult(tuple(kept), len(kept) == 1, self.reduce_iterations, pairs)


# One entry: an eavesdropper's stream of tokens on one deployment reduces
# once, and a new deployment replaces the entry, so the memo's memory
# stays one Attacker whatever the caller does.
_attacker = functools.lru_cache(maxsize=1)(Attacker)


def recover_preimages(inp: AttackInput) -> AttackResult:
    """Attacker(z, p, q, m).attack(u) for the input's observables, the
    Attacker taken from a one-entry memo keyed on (z, p, q, m).

    The memo holds one immutable Attacker made from every public input
    but the token, so a hit's result ``==`` that of a fresh Attacker.
    Raises InvalidArgument for what check_observables and check_token
    reject; a constructor that raises leaves the memo as it was.
    """
    z, p, q, m, u = inp
    return _attacker(z, p, q, m).attack(u)


def recover_shared_key(
    inp: AttackInput, other_token: int, r: int, result: AttackResult
) -> list[tuple[int, int]]:
    """Derive the shared key for every candidate of ``result``, the
    recover_preimages output for ``inp``.

    ``inp.m`` feeds both the search and the key map (derive_key's
    2^(r+m)).  Returns (candidate x, key) pairs in candidate order, []
    for a result without candidates; distinct candidates can collapse to
    the same key.  Raises InvalidArgument when check_observables rejects
    the observables or check_token ``other_token``.
    """
    z, p, q, m, _ = inp
    check_observables(z, p, q, m)
    check_token(other_token, p, q, "peer token")
    # A loop, not a list comprehension: on CPython 3.11 a comprehension is
    # a nested function, and its call cost a cold benchmark token about
    # 5% of its time.
    keys = []
    for x, _ in result.candidates:
        keys.append((x, derive_key(x, other_token, p, q, r, m)))
    return keys
