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

import numpy as np

from qmagic.birkhoff import birkhoff_decompose, magic_space_dimension
from qmagic.sampling import random_doubly_stochastic


def run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    for n in args.sizes:
        bound = (n - 1) ** 2 + 1
        counts = Counter()
        for _ in range(args.trials):
            m = random_doubly_stochastic(rng, n, terms=args.terms)
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


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument("--trials", type=int, default=200)
    parser.add_argument("--seed", type=int, default=11)
    # permutations mixed per sample; None = random
    parser.add_argument("--terms", type=int, default=None)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
