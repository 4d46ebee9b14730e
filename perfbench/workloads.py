"""Seeded token streams for the three workloads.

A workload is cut into rounds of fresh tokens: round i of a seed is the
same on every run, and no two rounds share a deployment except in `batch`,
where sharing one is the point.  The program is reached only through the
package object handed in, so a re-imported package is used as is.
"""

from __future__ import annotations

import random

from checks import Token

FULL_SCALE = {"l": 2048, "m": 512, "q": 512, "r": 129}

ROUND_SIZE = {"full": 100, "batch": 100, "toy": 200}

NAMES = tuple(ROUND_SIZE)

BATCH_DEPLOYMENT_SEED = 1605


def _honest(protocol, params, exchange_seed: int, exhaustive: bool = False) -> Token:
    t = protocol.exchange(exchange_seed, params)
    return Token(
        z=params.z, p=params.p, q=params.q, m=params.m, r=params.r,
        u=t.u, v=t.v, x=t.x, y=t.y, w_a=t.w_a, w_b=t.w_b, exhaustive=exhaustive,
    )


class Workload:
    """The token stream of one workload and seed.

    full:  every token from a fresh full-scale deployment and one exchange.
    batch: one fixed full-scale deployment, made here, and many exchanges on
           it.  The deployment does not vary with the seed, so runs differ
           in their tokens but not in their lattice: the reduction's pass
           count depends on z, and how z varies is full's part.
    toy:   small parameters drawn as in acceptance criterion 2, one token
           per deployment; every fourth token is a uniform u (and a uniform
           peer token), which often has no preimage.
    """

    def __init__(self, pkg, name: str, seed: int):
        if name not in ROUND_SIZE:
            raise ValueError(f"unknown workload {name!r}")
        self.protocol = pkg.protocol
        self.name = name
        self.seed = seed
        self.batch_params = None
        if name == "batch":
            self.batch_params = self.protocol.gen_params(BATCH_DEPLOYMENT_SEED, **FULL_SCALE)

    def round(self, index: int) -> list[Token]:
        rng = random.Random(f"{self.name}:{self.seed}:{index}")
        gen_params = self.protocol.gen_params
        size = ROUND_SIZE[self.name]
        if self.name == "full":
            return [
                _honest(self.protocol, gen_params(rng.getrandbits(64), **FULL_SCALE), rng.getrandbits(64))
                for _ in range(size)
            ]
        if self.name == "batch":
            return [_honest(self.protocol, self.batch_params, rng.getrandbits(64)) for _ in range(size)]
        tokens = []
        for i in range(size):
            l = rng.randint(8, 16)
            m = rng.randint(8, 16)
            r = rng.randint(1, 3)
            q = rng.randint(1, (l - r - 1) // 2)
            params = gen_params(rng.getrandbits(64), l, m, q, r)
            if i % 4 != 3:
                tokens.append(_honest(self.protocol, params, rng.getrandbits(64), exhaustive=True))
            else:
                span = 2 ** (params.p - params.q)
                tokens.append(Token(
                    z=params.z, p=params.p, q=params.q, m=params.m, r=params.r,
                    u=rng.randrange(span), v=rng.randrange(span), exhaustive=True,
                ))
        return tokens
