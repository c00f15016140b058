"""Seeded inputs of the three benchmark workloads.

Every square carries the verdict predicted for it from how it was built,
never from running a decider:

- squares in the symmetry orbit of ``counterexample_m2_3()`` (row and column
  permutations, transposition, conjugation by a rational unitary over Q[i],
  direct sum with a constant square, padding) are "no": the matrix convex
  hull of the quantum permutation matrices is invariant under these
  operations and closed under compression;
- squares assembled from a decomposition, or compressed from a commuting
  quantum permutation matrix, are "yes";
- n = 2 squares are never "no", because every 2 x 2 quantum magic square is
  semiclassical.

Print every workload's input digest for a seed, so that two commits can be
shown to run on the same squares:

    PYTHONPATH=src python3 perfbench/workloads.py --seed 0
"""

from __future__ import annotations

import argparse
import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qmagic import (
    ExactMatrix,
    GaussianRational,
    MagicSquare,
    constant_square,
    counterexample_m2_3,
    direct_sum,
    embed_pad,
    square_to_json,
)
from qmagic.sampling import (
    perturbed_constant_decomposition,
    random_exact_decomposition,
    random_member_square,
    square_from_decomposition,
)

WORKLOADS = ("certify", "membership", "obstruction-cli")


@dataclass(frozen=True)
class Case:
    """One square of a workload round.

    `task` names what the workload asks for: "certify" (verdict, certificate
    and its exact re-verification), "lmi" (``check_semiclassical``),
    "interior" (closed-form decomposition and commuting dilation), or
    "cli-weak" / "cli-strong" (one ``qmagic obstruction-check`` process).
    `expect` is "yes", "no" or "not-no".
    """

    name: str
    task: str
    expect: str
    square: MagicSquare


# -- orbit of the counterexample -------------------------------------------------

_G = GaussianRational
_UNITS = (_G(1), _G(0, 1), _G(-1), _G(0, -1))

# Two fixed rational unitaries: a real rotation from the (3, 4, 5) triple and
# the Cayley transform (I - iH)(I + iH)^-1 of H = [[1, 1+i], [1-i, -1]].
# The seed varies a rotation only through a monomial factor (a permutation
# with Gaussian-unit phases).  That factor permutes the entries of the
# rotated dual witness and multiplies them by units, which leaves the
# denominator-ladder rounding unchanged; a freely seeded rotation would stop
# at the 10^3 or at the 10^6 rung depending on the draw, and one seed's round
# would take several times as long as another's.
_REAL_ROTATION = ExactMatrix([[Fraction(3, 5), Fraction(-4, 5)], [Fraction(4, 5), Fraction(3, 5)]])


def _cayley(h: ExactMatrix) -> ExactMatrix:
    iu = _G(0, 1)
    ident = ExactMatrix.identity(2)
    plus = ident + h * iu
    minus = ident - h * iu
    (a, b), (c, d) = plus.row_list()
    det = a * d - b * c
    inverse = ExactMatrix([[d / det, -b / det], [-c / det, a / det]])
    return minus @ inverse


_COMPLEX_ROTATION = _cayley(ExactMatrix([[_G(1), _G(1, 1)], [_G(1, -1), _G(-1)]]))


def _monomial(rng: np.random.Generator, s: int) -> ExactMatrix:
    perm = rng.permutation(s)
    phases = rng.integers(0, 4, size=s)
    return ExactMatrix(
        [[_UNITS[phases[r]] if perm[r] == c else _G(0) for c in range(s)] for r in range(s)]
    )


def _permuted(a: MagicSquare, rng: np.random.Generator) -> MagicSquare:
    """Independent row and column permutations, then a transposition coin."""
    rows, cols = rng.permutation(a.n), rng.permutation(a.n)
    grid = [[a.block(int(rows[i]), int(cols[j])) for j in range(a.n)] for i in range(a.n)]
    if rng.integers(2):
        grid = [list(col) for col in zip(*grid)]
    return MagicSquare(grid)


def _rotated(a: MagicSquare, base: ExactMatrix, rng: np.random.Generator) -> MagicSquare:
    u = base @ _monomial(rng, a.s)
    if u.h @ u != ExactMatrix.identity(a.s):
        raise RuntimeError("rotation is not unitary")
    return MagicSquare([[u.h @ b @ u for b in row] for row in a.blocks])


def orbit_square(kind: str, rng: np.random.Generator) -> MagicSquare:
    """A seeded exact non-member: "perm", "real-rot", "complex-rot" or "dsum"."""
    a = counterexample_m2_3()
    if kind == "real-rot":
        a = _rotated(a, _REAL_ROTATION, rng)
    elif kind == "complex-rot":
        a = _rotated(a, _COMPLEX_ROTATION, rng)
    elif kind == "dsum":
        a = direct_sum(a, constant_square(3, 1))
    elif kind != "perm":
        raise ValueError(f"unknown orbit kind {kind!r}")
    return _permuted(a, rng)


# -- workloads -------------------------------------------------------------------


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, *key]))


def certify_cases(seed: int) -> list[Case]:
    kinds = ("real-rot", "complex-rot", "perm", "dsum")
    return [
        Case(f"orbit-{kind}", "certify", "no", orbit_square(kind, _rng(seed, 1, k)))
        for k, kind in enumerate(kinds)
    ]


def membership_cases(seed: int) -> list[Case]:
    # fifteen cheap (3, 2) squares, with eight squares below them and seven
    # above: the median answer time is the middle of one kind of square
    cases = []
    for k, (n, s, copies) in enumerate(((3, 2, 15), (3, 3, 3), (4, 2, 3))):
        for c in range(copies):
            q = random_exact_decomposition(_rng(seed, 2, k, c), n, s)
            cases.append(Case(f"decomp-{n}{s}-{c}", "lmi", "yes", square_from_decomposition(q)))
    for k, (n, s) in enumerate(((3, 2), (3, 3), (4, 2))):
        for c in range(2):
            q = perturbed_constant_decomposition(_rng(seed, 3, k, c), n, s)
            cases.append(Case(f"interior-{n}{s}-{c}", "interior", "yes", square_from_decomposition(q)))
    for c, kind in enumerate(("real-rot", "complex-rot", "dsum")):
        cases.append(Case(f"orbit-{kind}", "lmi", "no", orbit_square(kind, _rng(seed, 4, c))))
    return cases


def _fixed_n2_square() -> MagicSquare:
    """A fixed float 2 x 2 square of 2 x 2 blocks, independent of the seed."""
    p = np.array([[0.6, 0.2], [0.2, 0.3]], dtype=np.complex128)
    q = np.eye(2) - p
    return MagicSquare([[p, q], [q, p]])


def cli_cases(seed: int) -> list[Case]:
    # three cheap strong n = 3 calls and the n = 2 call below five weak n = 3
    # calls, three n = 4 calls above them: the median is a weak n = 3 call
    members = [random_member_square(_rng(seed, 5, c), 3, 2) for c in range(3)]
    orbits = [
        orbit_square(kind, _rng(seed, 6, c)).to_float()
        for c, kind in enumerate(("real-rot", "complex-rot"))
    ]
    cases = [Case(f"member3-{c}-weak", "cli-weak", "yes", m) for c, m in enumerate(members)]
    cases += [Case(f"orbit3-{c}-weak", "cli-weak", "no", o) for c, o in enumerate(orbits)]
    cases.append(Case("member3-0-strong", "cli-strong", "yes", members[0]))
    cases.append(Case("member3-1-strong", "cli-strong", "yes", members[1]))
    cases.append(Case("orbit3-0-strong", "cli-strong", "no", orbits[0]))
    for c in range(2):
        member = random_member_square(_rng(seed, 7, c), 4, 2)
        cases.append(Case(f"member4-{c}", "cli-strong", "yes", member))
    padded = _permuted(embed_pad(orbit_square("perm", _rng(seed, 8))), _rng(seed, 9))
    cases.append(Case("padded4", "cli-strong", "no", padded.to_float()))
    cases.append(Case("fixed2", "cli-strong", "not-no", _fixed_n2_square()))
    return cases


def _spread(cases: list[Case]) -> list[Case]:
    """Order a round so that every kind of square is spread evenly over it.

    Machine speed drifts over seconds on a shared host; spreading the kinds
    keeps any one of them, and so the median answer time, from being sampled
    in a single slow or fast stretch.
    """
    kinds: dict[tuple, list[Case]] = {}
    for case in cases:
        key = (case.task, case.square.n, case.square.s, case.expect)
        kinds.setdefault(key, []).append(case)
    position = {
        id(case): (k + 0.5) / len(group) for group in kinds.values() for k, case in enumerate(group)
    }
    return sorted(cases, key=lambda case: position[id(case)])


def make_cases(workload: str, seed: int) -> list[Case]:
    """The round of squares a workload answers for a seed, in answer order.

    The first square is also the warm-up square of the in-process workloads.
    """
    if workload == "certify":
        return certify_cases(seed)
    if workload == "membership":
        return _spread(membership_cases(seed))
    if workload == "obstruction-cli":
        return _spread(cli_cases(seed))
    raise ValueError(f"unknown workload {workload!r}")


def digest(cases: list[Case]) -> str:
    payload = [
        {"name": c.name, "task": c.task, "expect": c.expect, "square": square_to_json(c.square)}
        for c in cases
    ]
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    for workload in args.workload or WORKLOADS:
        cases = make_cases(workload, args.seed)
        print(f"{workload} seed={args.seed} squares={len(cases)} sha256={digest(cases)}")
        for c in cases:
            rep = "exact" if c.square.exact else "float"
            print(f"  {c.name:22s} n={c.square.n} s={c.square.s} {rep:5s} {c.task:10s} expect={c.expect}")


if __name__ == "__main__":
    main()
