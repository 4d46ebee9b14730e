"""Truncated-modular-multiplication key exchange.

Two parties agree on public integers (l, m, p, q, r, z) where z is exactly
l bits, p + q = l + m, and p > m + q + r.  Each party picks a private m-bit
positive secret and publishes the token

    F(x) = floor((x * z mod 2^p) / 2^q),

i.e. the middle bits of x*z.  Both sides then truncate the product of their
own secret with the other token down to the bits that, up to a carry of at
most 2^-r, depend only on x*y*z.  The guard width r controls how often the
two derived keys actually agree: r > 128 is deployment grade, anything
smaller is a toy configuration kept around for tests and experiments.

All arithmetic is exact; "mod 2^k" is implemented by masking the low k bits
of a nonnegative value.  Every function here is pure and safe to call from
multiple threads.
"""

# No `from __future__ import annotations`: typing would compile each
# NamedTuple field's annotation string whenever the module is imported.
import contextlib
import random
import re
import sys
from typing import NamedTuple

from .errors import ConstraintViolated, InvalidArgument, echo_text, int_text

# r above this guard width counts as a deployment-grade ("full") setup.
TOY_GUARD_BITS = 128

# Largest l and p, and so every exponent of valid parameters, since
# p > m + q + r puts m, q and r below p; check_observables bounds p and m
# by it too.  Each is checked before any shift by it.  It is the largest
# bit length whose values have at most 4,300 decimal digits, CPython's
# default limit on int-to-str conversion.  Valid parameters put z below
# 2^l and every secret, token, key and candidate below 2^p, so every
# value the program prints or writes then prints.
MAX_BITS = 14284

PARAM_KEYS = ("l", "m", "p", "q", "r", "z")

# load_params reads at most this many bytes of a parameter file.  The
# longest valid one, six lines with a 4,300-digit z and five 5-digit
# exponents, has 4,343.
PARAMS_MAX_BYTES = 1 << 16

_PARAM_LINE = re.compile(r"^([a-z]+)=([0-9]+)$")


class ProtocolParams(NamedTuple):
    """The agreed public integers, an immutable value.

    l, m, p, q, r are bit lengths / exponents; z is the public multiplier,
    exactly l bits long.
    """

    l: int
    m: int
    p: int
    q: int
    r: int
    z: int


class ExchangeTranscript(NamedTuple):
    """Everything produced by one seeded exchange, secrets included."""

    x: int
    y: int
    u: int
    v: int
    w_a: int
    w_b: int
    agree: bool


def classify(params: ProtocolParams) -> str:
    """Return "full" for deployment-grade r, "toy" otherwise."""
    return "full" if params.r > TOY_GUARD_BITS else "toy"


def _check_exponents(l: int, m: int, p: int, q: int, r: int) -> None:
    """Raise ConstraintViolated naming the first of these that fails:
    each exponent at least 1, l and p at most MAX_BITS, p + q = l + m,
    p > m + q + r.  Its detail gives each value by int_text, which keeps
    a long one short."""
    for name, value in zip("lmpqr", (l, m, p, q, r)):
        if value < 1:
            raise ConstraintViolated(f"{name}>=1", f"{name}={int_text(value)}")
    for name, value in (("l", l), ("p", p)):
        if value > MAX_BITS:
            raise ConstraintViolated(f"{name}<={MAX_BITS}", f"{name}={int_text(value)}")
    if p + q != l + m:
        p, q, l, m = map(int_text, (p, q, l, m))
        raise ConstraintViolated("p+q=l+m", f"{p}+{q} != {l}+{m}")
    if p <= m + q + r:
        p, m, q, r = map(int_text, (p, m, q, r))
        raise ConstraintViolated("p>m+q+r", f"{p} <= {m}+{q}+{r}")


def check_observables(z: int, p: int, q: int, m: int) -> None:
    """Reject a deployment that no exchange can produce.

    Raises InvalidArgument for z < 1, for q < 0 (no truncation), for
    p <= q (every x would be a preimage of the only token, 0), for m < 1
    (no secret space) and for p or m past MAX_BITS, before any shift by
    them.  Valid parameters pass: p <= MAX_BITS puts m below p.  The
    messages give each value by int_text, so a long one reads as its bit
    length.  Tokens are checked by check_token.
    """
    if z < 1:
        raise InvalidArgument(f"z must be positive, got {int_text(z)}")
    if q < 0:
        raise InvalidArgument(f"q must be nonnegative, got {int_text(q)}")
    if p <= q:
        raise InvalidArgument(f"p must exceed q, got p={int_text(p)} q={int_text(q)}")
    if p > MAX_BITS:
        raise InvalidArgument(f"p must be at most {MAX_BITS}, got {int_text(p)}")
    if m < 1:
        raise InvalidArgument(f"m must be at least 1, got {int_text(m)}")
    if m > MAX_BITS:
        raise InvalidArgument(f"m must be at most {MAX_BITS}, got {int_text(m)}")


def check_token(token: int, p: int, q: int, name: str = "token") -> None:
    """Raise InvalidArgument for a token outside [0, 2^(p-q)), the range
    of the token map; ``name`` names it in the message, and int_text
    gives its value.  The range is compared by bit length, so no p makes
    a shift."""
    if token < 0 or token.bit_length() > p - q:
        raise InvalidArgument(
            f"{name} must be in [0, 2^(p-q)) (p-q={int_text(p - q)}), got {int_text(token)}"
        )


def validate_params(params: ProtocolParams) -> str:
    """Check every parameter constraint; return the toy/full classification.

    Raises ConstraintViolated naming the first inequality that fails: the
    exponents' (_check_exponents), then z's range.
    """
    l, m, p, q, r, z = params
    _check_exponents(l, m, p, q, r)
    if not (1 << (l - 1)) <= z < (1 << l):
        raise ConstraintViolated("2^(l-1)<=z<2^l", f"z={int_text(z)} is not exactly {l} bits")
    return classify(params)


def check_shape(l: int, m: int, q: int, r: int) -> int:
    """Check every constraint that does not involve z; return p = l + m - q.

    Raises ConstraintViolated as validate_params does.
    """
    p = l + m - q
    _check_exponents(l, m, p, q, r)
    return p


def gen_params(seed: int, l: int, m: int, q: int, r: int) -> ProtocolParams:
    """Derive p = l + m - q and draw z uniformly from [2^(l-1), 2^l).

    The draw is deterministic in ``seed``; the result always passes
    validate_params or the constraint error is raised.
    """
    p = check_shape(l, m, q, r)
    rng = random.Random(seed)
    z = (1 << (l - 1)) | rng.getrandbits(l - 1)
    return ProtocolParams(l=l, m=m, p=p, q=q, r=r, z=z)


def trunc_f(x: int, params: ProtocolParams) -> int:
    """The public token map F(x) = floor((x*z mod 2^p) / 2^q), for
    nonnegative x (InvalidArgument otherwise); ConstraintViolated for p
    outside [0, MAX_BITS] or q < 0, before the shifts by them."""
    if x < 0:
        raise InvalidArgument("x must be nonnegative")
    p, q = params.p, params.q
    if not 0 <= p <= MAX_BITS:
        raise ConstraintViolated(f"0<=p<={MAX_BITS}", f"p={int_text(p)}")
    if q < 0:
        raise ConstraintViolated("q>=0", f"q={int_text(q)}")
    return ((x * params.z) & ((1 << p) - 1)) >> q


def derive_key(x: int, other_token: int, p: int, q: int, r: int, m: int) -> int:
    """floor((x * v mod 2^(p-q)) / 2^(r+m)): the key a party with secret x
    derives from the peer's token v.  ConstraintViolated for p - q outside
    [0, MAX_BITS] or r + m < 0, before the shifts by them."""
    bits, shift = p - q, r + m
    if not 0 <= bits <= MAX_BITS:
        raise ConstraintViolated(f"0<=p-q<={MAX_BITS}", f"p-q={int_text(bits)}")
    if shift < 0:
        raise ConstraintViolated("r+m>=0", f"r+m={int_text(shift)}")
    return ((x * other_token) & ((1 << bits) - 1)) >> shift


def shared_key(x: int, other_token: int, params: ProtocolParams) -> int:
    """derive_key with the agreed parameters."""
    return derive_key(x, other_token, params.p, params.q, params.r, params.m)


def sample_secret(rng: random.Random, m: int) -> int:
    """Uniform draw from [1, 2^m) — an m-bit positive secret."""
    while True:
        x = rng.getrandbits(m)
        if x:
            return x


def exchange(seed: int, params: ProtocolParams) -> ExchangeTranscript:
    """Run one full seeded exchange and report whether the keys agreed.

    Secrets x and y are drawn deterministically from ``seed``; identical
    seed and params give an identical transcript.  Agreement is recorded,
    never assumed: at toy guard widths the keys routinely differ.
    """
    validate_params(params)
    rng = random.Random(seed)
    x = sample_secret(rng, params.m)
    y = sample_secret(rng, params.m)
    u = trunc_f(x, params)
    v = trunc_f(y, params)
    w_a = shared_key(x, v, params)
    w_b = shared_key(y, u, params)
    return ExchangeTranscript(x=x, y=y, u=u, v=v, w_a=w_a, w_b=w_b, agree=w_a == w_b)


def check_printable(largest: int, what: str) -> None:
    """Raise InvalidArgument, naming ``what``, when ``largest`` has more
    decimal digits than CPython's int-to-str limit in force (none on
    early 3.10 releases), so that a caller refuses before any output a
    value it could not print.  The default limit prints every value
    below 2^MAX_BITS; a user can set a lower one."""
    digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    # 10^digits > 2^(3.3*digits), so a shorter value needs no power of 10
    if digits and 10 * largest.bit_length() > 33 * digits and abs(largest) >= 10**digits:
        raise InvalidArgument(f"{what} must have at most {digits} digits, got {int_text(largest)}")


def dump_params(params: ProtocolParams) -> str:
    """Serialize to the key=value parameter file format; the parameters
    must pass validate_params first (ConstraintViolated otherwise), and z
    must print (check_printable)."""
    validate_params(params)
    check_printable(params.z, "z")
    return "".join(f"{key}={getattr(params, key)}\n" for key in PARAM_KEYS)


def decimal_int(text: str) -> int:
    """The value of a decimal digit string; InvalidArgument, the text
    shown by echo_text, for any other and for one past CPython's digit
    limit."""
    if re.fullmatch(r"[0-9]+", text):
        with contextlib.suppress(ValueError):
            return int(text)
    raise InvalidArgument(f"expected a decimal integer, got {echo_text(text)}")


def parse_params(text: str) -> ProtocolParams:
    """Parse the key=value format: decimal values (decimal_int), no spaces,
    keys exactly l,m,p,q,r,z each once.  Unknown keys are rejected, and the
    parameters must pass validate_params (ConstraintViolated otherwise)."""
    values: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _PARAM_LINE.match(line)
        if not match:
            raise InvalidArgument(f"line {lineno}: malformed parameter line {echo_text(line)}")
        key, value = match.group(1), match.group(2)
        if key not in PARAM_KEYS:
            raise InvalidArgument(f"line {lineno}: unknown key {echo_text(key)}")
        if key in values:
            raise InvalidArgument(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = decimal_int(value)
        except InvalidArgument as exc:
            raise InvalidArgument(f"line {lineno}: {exc}") from None
    missing = [key for key in PARAM_KEYS if key not in values]
    if missing:
        raise InvalidArgument(f"missing keys: {', '.join(missing)}")
    params = ProtocolParams(**values)
    validate_params(params)
    return params


def save_params(params: ProtocolParams, path: str) -> None:
    text = dump_params(params)  # serialise first: a failure leaves the file alone
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_params(path: str) -> ProtocolParams:
    """parse_params on the file's text; InvalidArgument for a file longer
    than PARAMS_MAX_BYTES, which is not read past that, and, naming the
    offset of the first bad byte, for a file that is not UTF-8."""
    with open(path, "rb") as fh:
        data = fh.read(PARAMS_MAX_BYTES + 1)
    if len(data) > PARAMS_MAX_BYTES:
        raise InvalidArgument(f"parameter file is longer than {PARAMS_MAX_BYTES} bytes")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        detail = f"byte {exc.start} ({exc.reason})"
        raise InvalidArgument(f"parameter file is not UTF-8: {detail}") from None
    return parse_params(text)
