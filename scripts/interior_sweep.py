#!/usr/bin/env python3
"""Sweep perturbation scales around the constant magic square.

For each scale, sample random exact perturbations of the constant square
and record (a) whether the interior positive-map decomposition applies
(its sufficient permutation-sum bound holds), (b) whether the rebuild is
exact when it does, and (c) the LMI membership verdict.  Small scales
stay strictly interior, so the interior route succeeds everywhere; large
scales leave its domain while the LMI keeps answering yes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from qmagic.sampling import perturbed_constant_decomposition, square_from_decomposition
from qmagic.semiclassical import (
    BoundViolated,
    check_semiclassical,
    interior_map_decomposition,
)
from qmagic.structures import InvalidMagicSquare


def run(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    check_lmi = not args.no_lmi
    print(f"n={args.n}, s={args.s}, {args.trials} trials per scale")
    header = f"{'scale':>8} {'valid':>6} {'interior ok':>12} {'exact rebuild':>14}"
    if check_lmi:
        header += f" {'lmi yes':>8}"
    print(header)
    for scale in args.scales:
        valid = interior_ok = rebuild_ok = lmi_yes = 0
        for _ in range(args.trials):
            weights = perturbed_constant_decomposition(rng, args.n, args.s, scale=scale)
            try:
                square = square_from_decomposition(weights)
            except InvalidMagicSquare:
                continue
            valid += 1
            try:
                dec = interior_map_decomposition(square)
            except BoundViolated:
                dec = None
            if dec is not None:
                interior_ok += 1
                rebuild_ok += dec.reconstruct() == square
            if check_lmi:
                if check_semiclassical(square, eps=args.eps).verdict == "yes":
                    lmi_yes += 1
        line = (
            f"{str(scale):>8} {valid:>6} {interior_ok:>9}/{valid:<2} {rebuild_ok:>11}/{valid:<2}"
        )
        if check_lmi:
            line += f" {lmi_yes:>5}/{valid:<2}"
        print(line)
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=3)
    parser.add_argument("--s", type=int, default=2)
    parser.add_argument("--trials", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eps", type=float, default=1e-7)
    parser.add_argument(
        "--scales",
        type=Fraction,
        nargs="+",
        default=[Fraction(1), Fraction(8), Fraction(32), Fraction(64)],
        help="perturbation scales as rationals, e.g. 1 8 64",
    )
    parser.add_argument("--no-lmi", action="store_true", help="skip the LMI column")
    return parser.parse_args(argv)


if __name__ == "__main__":
    sys.exit(run(parse_args()))
