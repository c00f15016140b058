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
from dataclasses import dataclass

import numpy as np

from qmagic.extremality import (
    DegenerateTopLeft,
    extend_dilation_step,
    member_witness_from_dilation,
)
from qmagic.sampling import random_exact_decomposition, square_from_decomposition
from qmagic.semiclassical import SemiclassicalDecomposition, synthesize_commuting_dilation
from qmagic.structures import compress


@dataclass(frozen=True)
class ExtensionConfig:
    s: int = 2
    trials: int = 10
    seed: int = 3


def run(config: ExtensionConfig) -> int:
    rng = np.random.default_rng(config.seed)
    n = 3
    print(f"{'trial':>5} {'coupling':>10} {'min c':>10} {'max s-sum':>12} {'corner resid':>13}")
    failures = 0
    for trial in range(config.trials):
        weights = random_exact_decomposition(rng, n, config.s)
        square = square_from_decomposition(weights)
        dec = SemiclassicalDecomposition(n, config.s, True, weights)
        witness = member_witness_from_dilation(synthesize_commuting_dilation(dec))
        try:
            step = extend_dilation_step(square, witness.x)
        except DegenerateTopLeft:
            print(f"{trial:>5}  degenerate top-left block, skipped")
            continue
        iso = np.vstack([np.eye(config.s), np.zeros((1, config.s))])
        back = compress(step.extended, iso)
        flo = square.to_float()
        resid = max(
            float(np.abs(np.asarray(back.block(i, j)) - np.asarray(flo.block(i, j))).max())
            for i in range(n)
            for j in range(n)
        )
        coupling = max(
            float(np.abs(np.asarray(step.extended.block(i, j))[: config.s, config.s]).max())
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
    print(f"{config.trials - failures}/{config.trials} extensions passed")
    return 0 if failures == 0 else 1


def parse_args(argv=None) -> ExtensionConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", type=int, default=ExtensionConfig.s)
    parser.add_argument("--trials", type=int, default=ExtensionConfig.trials)
    parser.add_argument("--seed", type=int, default=ExtensionConfig.seed)
    args = parser.parse_args(argv)
    return ExtensionConfig(s=args.s, trials=args.trials, seed=args.seed)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
