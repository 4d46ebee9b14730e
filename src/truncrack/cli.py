"""Command-line front end.

Subcommands: params, exchange, attack, oracle, bench.  All integers on the
command line and in files are decimal strings.  Exit codes: 0 success,
1 attack found nothing, 2 usage/validation error, 3 resource cap hit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import re
import sys

from . import attack as attack_mod
from . import harness, protocol
from .errors import (
    ConstraintViolated,
    DegenerateInput,
    SearchSpaceExceeded,
    ToolkitError,
    echo_text,
    int_text,
)

EXIT_OK = 0
EXIT_NO_CANDIDATES = 1
EXIT_USAGE = 2
EXIT_RESOURCE_CAP = 3


# A digit string past CPython's int-conversion limit is a bad value too.
def decimal_int(text: str) -> int:
    if re.fullmatch(r"[0-9]+", text):
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a decimal integer, got {echo_text(text)}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, with the user text of its own two messages that
    echo it, an invalid choice and unrecognized arguments, shown by
    echo_text; subparsers are of this class too."""

    def _check_value(self, action, value):
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(
                action, f"invalid choice: {echo_text(value)} (choose from {choices})"
            )

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {echo_text(' '.join(extras))}")
        return namespace


# Built once: parse_args reads the parser and never changes it.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="truncrack",
        description="Truncated-multiplication key exchange and the lattice attack on it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shape = argparse.ArgumentParser(add_help=False)
    for name in ("--l", "--m", "--q", "--r"):
        shape.add_argument(name, type=decimal_int, required=True)

    p_params = sub.add_parser("params", parents=[shape],
                              help="generate and validate a parameter file")
    p_params.add_argument("--seed", type=decimal_int)
    p_params.add_argument("--out", help="write the parameter file here (default: stdout)")

    p_exchange = sub.add_parser("exchange", help="run one seeded honest exchange")
    p_exchange.add_argument("--params", required=True)
    p_exchange.add_argument("--seed", type=decimal_int, required=True)

    p_attack = sub.add_parser("attack", help="recover token preimages and keys")
    p_attack.add_argument("--params", required=True)
    p_attack.add_argument("--token", type=decimal_int, required=True)
    p_attack.add_argument("--token-scaled", action="store_true",
                          help="the token is the pre-division value 2^q*u")
    p_attack.add_argument("--m", type=decimal_int,
                          help="secret bit length (default: from the parameter file)")
    p_attack.add_argument("--other-token", type=decimal_int,
                          help="peer token; derive the shared key per candidate")

    p_oracle = sub.add_parser("oracle", help="brute-force token preimages (small m only)")
    p_oracle.add_argument("--z", type=decimal_int, required=True)
    p_oracle.add_argument("--p", type=decimal_int, required=True)
    p_oracle.add_argument("--q", type=decimal_int, required=True)
    p_oracle.add_argument("--u", type=decimal_int, required=True)
    p_oracle.add_argument("--m", type=decimal_int, required=True)

    p_bench = sub.add_parser("bench", parents=[shape], help="run seeded trials and write a CSV")
    p_bench.add_argument("--trials", type=decimal_int, required=True)
    p_bench.add_argument("--seed", type=decimal_int, required=True)
    p_bench.add_argument("--out", required=True)
    p_bench.add_argument("--mode", choices=harness.MODES, default="attack")

    return parser


def _cmd_params(args) -> int:
    if args.seed is None:  # gen_params checks the shape otherwise
        protocol.check_shape(args.l, args.m, args.q, args.r)
        print("error: --seed is required to generate z", file=sys.stderr)
        return EXIT_USAGE
    params = protocol.gen_params(args.seed, args.l, args.m, args.q, args.r)
    label = protocol.classify(params)
    if args.out:
        protocol.save_params(params, args.out)
        print(f"p={params.p} class={label}")
    else:
        sys.stdout.write(protocol.dump_params(params))
        print(f"p={params.p} class={label}", file=sys.stderr)
    return EXIT_OK


def _cmd_exchange(args) -> int:
    params = protocol.load_params(args.params)
    transcript = protocol.exchange(args.seed, params)
    print(f"x={transcript.x}")
    print(f"y={transcript.y}")
    print(f"U={transcript.u}")
    print(f"V={transcript.v}")
    print(f"W_a={transcript.w_a}")
    print(f"W_b={transcript.w_b}")
    print(f"agree={1 if transcript.agree else 0}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    params = protocol.load_params(args.params)
    m = args.m if args.m is not None else params.m
    # Each input checked once before any stdout: the deployment (here),
    # the peer token, ours (in attack); the key map is the file's.
    attacker = attack_mod.Attacker(params.z, params.p, params.q, m)
    if args.other_token is not None:
        attack_mod.check_token(args.other_token, params.p, params.q, "peer token")
    token = args.token
    if args.token_scaled:
        if token & ((1 << params.q) - 1):
            raise DegenerateInput(
                f"scaled token {int_text(token)} is not a multiple of 2^q (q={params.q})"
            )
        token >>= params.q
    result = attacker.attack(token)
    for x, y in result.candidates:
        # candidates have 0 <= x < 2^m, so x = 0 is the only nonpositive one
        suffix = " flag=nonpositive" if x == 0 else ""
        print(f"x={x} y={y}{suffix}")
    print(f"unique={1 if result.unique else 0}")
    if not result.candidates:
        print("no candidates", file=sys.stderr)
        return EXIT_NO_CANDIDATES
    if args.other_token is not None:
        counts: dict[int, int] = {}
        for x, _ in result.candidates:
            key = protocol.shared_key(x, args.other_token, params)
            counts[key] = counts.get(key, 0) + 1
        for key in sorted(counts):
            print(f"key={key} candidates={counts[key]}")
    return EXIT_OK


def _cmd_oracle(args) -> int:
    attack_mod.check_observables(args.z, args.p, args.q, args.m)
    attack_mod.check_token(args.u, args.p, args.q)
    for x in harness.brute_force_preimages(args.z, args.p, args.q, args.u, args.m):
        print(x)
    return EXIT_OK


def _cmd_bench(args) -> int:
    cfg = harness.TrialConfig(
        seed_base=args.seed, trials=args.trials,
        l=args.l, m=args.m, q=args.q, r=args.r, mode=args.mode,
    )
    records = harness.run_trials(cfg)
    harness.write_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "params": _cmd_params,
    "exchange": _cmd_exchange,
    "attack": _cmd_attack,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConstraintViolated as exc:
        print(f"error: constraint violated: {exc.name}", file=sys.stderr)
        return EXIT_USAGE
    except SearchSpaceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE_CAP
    except OSError as exc:
        # str(exc) would repr the path in full
        detail = exc if exc.filename is None else (
            f"[Errno {exc.errno}] {exc.strerror}: {echo_text(exc.filename)}")
        print(f"error: {detail}", file=sys.stderr)
        return EXIT_USAGE
    except (ToolkitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
