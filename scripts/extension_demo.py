#!/usr/bin/env python3
"""Dilation-extension demonstration on semiclassical squares.

Samples exact semiclassical squares, builds the feasibility witness X
from a commuting dilation, and runs the one-step extension that embeds
each square as the corner of a strictly larger one.  Reports coupling
mass (how far the extension is from a direct sum), the completion
weights, and the corner-compression identity.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from qmagic.extremality import (
    DegenerateTopLeft,
    extend_dilation_step,
    member_witness_from_dilation,
)
from qmagic.sampling import random_exact_decomposition, square_from_decomposition
from qmagic.semiclassical import SemiclassicalDecomposition, synthesize_commuting_dilation
from qmagic.structures import compress, grid_residual


def run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    n = 3
    print(f"{'trial':>5} {'coupling':>10} {'min c':>10} {'max s-sum':>12} {'corner resid':>13}")
    failures = 0
    for trial in range(args.trials):
        weights = random_exact_decomposition(rng, n, args.s)
        square = square_from_decomposition(weights)
        dec = SemiclassicalDecomposition(n, args.s, True, weights)
        witness = member_witness_from_dilation(synthesize_commuting_dilation(dec))
        try:
            step = extend_dilation_step(square, witness.x)
        except DegenerateTopLeft:
            print(f"{trial:>5}  degenerate top-left block, skipped")
            continue
        iso = np.vstack([np.eye(args.s), np.zeros((1, args.s))])
        resid = grid_residual(compress(step.extended, iso).blocks, square.blocks)
        coupling = max(
            float(np.abs(np.asarray(step.extended.block(i, j))[: args.s, args.s]).max())
            for i in range(n)
            for j in range(n)
        )
        ssum = max(max(step.row_sums), max(step.col_sums))
        ok = resid <= 1e-10 and coupling > 1e-6 and float(step.c.min()) >= -1e-12
        failures += not ok
        print(
            f"{trial:>5} {coupling:>10.3e} {float(step.c.min()):>10.2e} "
            f"{ssum:>12.9f} {resid:>13.2e}{'' if ok else '  <-- FAIL'}"
        )
    print(f"{args.trials - failures}/{args.trials} extensions passed")
    return 0 if failures == 0 else 1


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", type=int, default=2)
    parser.add_argument("--trials", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
