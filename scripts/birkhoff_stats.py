#!/usr/bin/env python3
"""Term-count statistics for exact Birkhoff decompositions.

Samples random rational doubly stochastic matrices and decomposes each
one exactly.  Reports the distribution of permutation counts against the
Caratheodory bound (n-1)^2 + 1, which equals the affine dimension of
the polytope plus one.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from qmagic.birkhoff import birkhoff_decompose, magic_space_dimension
from qmagic.sampling import random_doubly_stochastic


@dataclass(frozen=True)
class StatsConfig:
    sizes: tuple = field(default_factory=lambda: (2, 3, 4, 5, 6))
    trials: int = 200
    seed: int = 11
    terms: int | None = None  # permutations mixed per sample; None = random


def run(config: StatsConfig) -> int:
    rng = np.random.default_rng(config.seed)
    for n in config.sizes:
        bound = (n - 1) ** 2 + 1
        counts = Counter()
        for _ in range(config.trials):
            m = random_doubly_stochastic(rng, n, terms=config.terms)
            terms = birkhoff_decompose(m)
            total = sum(w for _, w in terms)
            assert total == 1, "weights must sum to one exactly"
            counts[len(terms)] += 1
        worst = max(counts)
        dim = magic_space_dimension(n)
        histogram = " ".join(f"{k}:{counts[k]}" for k in sorted(counts))
        print(
            f"n={n}: bound={bound} affine_dim={dim} worst={worst} "
            f"({'ok' if worst <= bound else 'VIOLATED'})  counts {histogram}"
        )
        if worst > bound:
            return 1
    return 0


def parse_args(argv=None) -> StatsConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=None)
    parser.add_argument("--trials", type=int, default=StatsConfig.trials)
    parser.add_argument("--seed", type=int, default=StatsConfig.seed)
    parser.add_argument("--terms", type=int, default=None)
    args = parser.parse_args(argv)
    kwargs = dict(trials=args.trials, seed=args.seed, terms=args.terms)
    if args.sizes:
        kwargs["sizes"] = tuple(args.sizes)
    return StatsConfig(**kwargs)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
