"""Correctness checks made apart from qmagic's deciders.

Each check returns the list of problems it found; an empty list means the
answer passed.  Exact checks use plain ``fractions.Fraction`` pairs for
Gaussian rationals and rebuild every matrix they need from the formulas in
the ``qmagic.obstruction`` module docstring; they read qmagic's objects only
for their entries.  Numeric checks use numpy.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product

import numpy as np

TOL = 1e-9
ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


# -- Gaussian rationals as (re, im) pairs ------------------------------------------


def _add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _conj(x):
    return (x[0], -x[1])


def _scale(c: Fraction, x):
    return (c * x[0], c * x[1])


def _div(x, y):
    den = y[0] * y[0] + y[1] * y[1]
    num = _mul(x, _conj(y))
    return (num[0] / den, num[1] / den)


def exact_entries(m) -> list[list[tuple]]:
    """Entries of a qmagic ExactMatrix as (re, im) Fraction pairs."""
    return [[(Fraction(z.re), Fraction(z.im)) for z in row] for row in m.row_list()]


def _identity(s: int):
    return [[ONE if i == j else ZERO for j in range(s)] for i in range(s)]


def _madd(a, b):
    return [[_add(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _is_hermitian(m) -> bool:
    return all(m[i][j] == _conj(m[j][i]) for i in range(len(m)) for j in range(len(m)))


def _det(m) -> tuple:
    """Determinant by Gaussian elimination over Q[i]."""
    a = [list(row) for row in m]
    size = len(a)
    det = ONE
    for k in range(size):
        p = next((i for i in range(k, size) if a[i][k] != ZERO), None)
        if p is None:
            return ZERO
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = _scale(Fraction(-1), det)
        det = _mul(det, a[k][k])
        for i in range(k + 1, size):
            f = _div(a[i][k], a[k][k])
            a[i] = [_sub(x, _mul(f, y)) for x, y in zip(a[i], a[k])]
    return det


def psd_by_minors(m) -> bool:
    """A Hermitian matrix is PSD iff every principal minor is nonnegative."""
    size = len(m)
    for r in range(1, size + 1):
        for idx in combinations(range(size), r):
            d = _det([[m[i][j] for j in idx] for i in idx])
            if d[1] != 0 or d[0] < 0:
                return False
    return True


def _pairing(y, b) -> tuple:
    """trace(Y B) for dense matrices of pairs."""
    acc = ZERO
    for r, row in enumerate(y):
        for c, val in enumerate(row):
            if val != ZERO and b[c][r] != ZERO:
                acc = _add(acc, _mul(val, b[c][r]))
    return acc


# -- the obstruction pencil, rebuilt ---------------------------------------------------


def b0_matrix(blocks, n: int, s: int, strong: bool):
    """phi(A), plus psi(A) when strong, as a dense matrix of pairs."""
    d = n * n * s
    out = [[ZERO] * d for _ in range(d)]
    slots = [(i, j) for i in range(n) for j in range(n)]
    for p, (i, j) in enumerate(slots):
        for r in range(s):
            for c in range(s):
                out[p * s + r][p * s + c] = blocks[i][j][r][c]
    for p, (i, j) in enumerate(slots):
        for q, (k, l) in enumerate(slots):
            a, b = blocks[i][j], blocks[k][l]
            for r in range(s):
                for c in range(s):
                    acc = ZERO
                    for t in range(s):
                        acc = _add(acc, _mul(a[r][t], _conj(b[c][t])))
                    out[p * s + r][q * s + c] = _sub(out[p * s + r][q * s + c], acc)
    if not strong:
        return out
    alpha = Fraction(1, (n - 1) * (n - 2))
    beta = Fraction(n - 1, n * (n - 2))
    gamma = Fraction(1, n * (n - 2))
    for i, j, k, l in product(range(n), repeat=4):
        if i == j or k == l:
            continue
        for r in range(s):
            for c in range(s):
                val = _add(
                    _scale(beta, _add(blocks[i][k][r][c], blocks[j][l][r][c])),
                    _scale(gamma, _add(blocks[i][l][r][c], blocks[j][k][r][c])),
                )
                if r == c:
                    val = _sub(val, (alpha, Fraction(0)))
                row, col = (i * n + k) * s + r, (j * n + l) * s + c
                out[row][col] = _add(out[row][col], val)
    return out


def _rref_nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    a = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for row, c in enumerate(pivots):
            v[c] = -a[row][f]
        basis.append(v)
    return basis


def zero_diagonal_basis(n: int, strong: bool) -> list[list[list[Fraction]]]:
    """Real basis of Z (weak) or of Z_e (strong) as n x n rational matrices.

    Z is the zero-diagonal matrices; Z_e those of them whose rows and columns
    all sum to zero, so that they annihilate the all-ones vector on both sides.
    """
    slots = [(i, j) for i in range(n) for j in range(n) if i != j]
    constraints = []
    if strong:
        constraints += [[Fraction(int(p == i)) for p, _ in slots] for i in range(n)]
        constraints += [[Fraction(int(q == j)) for _, q in slots] for j in range(n)]
        vectors = _rref_nullspace(constraints, len(slots))
    else:
        vectors = [[Fraction(int(k == m)) for k in range(len(slots))] for m in range(len(slots))]
    out = []
    for v in vectors:
        z = [[Fraction(0)] * n for _ in range(n)]
        for (p, q), x in zip(slots, v):
            z[p][q] = x
        out.append(z)
    return out


def direction_pairings(y, n: int, s: int, strong: bool):
    """trace(Y T) for every T = z_a (x) z_b (x) E_rc of a complex basis.

    These vanish for all T exactly when Y is orthogonal to the Hermitian
    part (Z_e (x) Z_e (x) Mat_s)_her (or Z (x) Z (x) Mat_s in weak mode),
    because Y is Hermitian and that part is spanned by T + T* and i(T - T*).
    """
    zs = zero_diagonal_basis(n, strong)
    nz = [[(i, j, z[i][j]) for i in range(n) for j in range(n) if z[i][j] != 0] for z in zs]
    for za, zb in product(nz, repeat=2):
        for r, c in product(range(s), repeat=2):
            acc = ZERO
            for i, j, x in za:
                for k, l, w in zb:
                    # T[(i n + k) s + r][(j n + l) s + c] = x w; trace picks Y at the transpose
                    acc = _add(acc, _scale(x * w, y[(j * n + l) * s + c][(i * n + k) * s + r]))
            yield acc


# -- the oracles -----------------------------------------------------------------------


def check_certificate(cert, square, report: dict) -> list[str]:
    """An exact non-membership certificate for an exact square."""
    problems = []
    if not report.get("ok"):
        problems.append(f"verify_certificate did not report ok: {report}")
    n, s = square.n, square.s
    strong = cert.mode == "strong"
    y = exact_entries(cert.y_exact)
    d = n * n * s
    if len(y) != d or any(len(row) != d for row in y):
        return problems + [f"certificate is not {d} x {d}"]
    if not _is_hermitian(y):
        return problems + ["certificate is not Hermitian"]
    y_float = np.array([[complex(float(a), float(b)) for a, b in row] for row in y])
    lam = float(np.linalg.eigvalsh(y_float).min())
    if lam < -TOL:
        problems.append(f"certificate has lambda_min {lam:.3e}")
    blocks = [[exact_entries(square.block(i, j)) for j in range(n)] for i in range(n)]
    p0 = _pairing(y, b0_matrix(blocks, n, s, strong))
    if p0[1] != 0 or p0[0] >= 0:
        problems.append(f"trace(Y B0) is not negative: {float(p0[0]):.3e}{float(p0[1]):+.3e}i")
    stored = cert.pairings.get("B0")
    if stored is not None and Fraction(stored) != p0[0]:
        problems.append("stored trace(Y B0) differs from the recomputed one")
    if any(p != ZERO for p in direction_pairings(y, n, s, strong)):
        problems.append("certificate is not orthogonal to every pencil direction")
    return problems


def check_decomposition(dec, square) -> list[str]:
    """Exact PSD weights q_pi summing to I_s with sum_{pi(i)=j} q_pi = a_ij."""
    n, s = square.n, square.s
    if not dec.exact:
        return ["decomposition is not exact"]
    weights = {}
    for sigma, q in dec.weights.items():
        if sorted(sigma) != list(range(n)):
            return [f"{sigma} is not a permutation of range({n})"]
        weights[tuple(sigma)] = exact_entries(q)
    problems = []
    total = [[ZERO] * s for _ in range(s)]
    for q in weights.values():
        total = _madd(total, q)
    if total != _identity(s):
        problems.append("weights do not sum to the identity")
    for i in range(n):
        for j in range(n):
            acc = [[ZERO] * s for _ in range(s)]
            for sigma, q in weights.items():
                if sigma[i] == j:
                    acc = _madd(acc, q)
            if acc != exact_entries(square.block(i, j)):
                problems.append(f"weights do not reproduce block ({i}, {j})")
    for sigma, q in weights.items():
        if not _is_hermitian(q) or not psd_by_minors(q):
            problems.append(f"weight of {sigma} is not PSD")
    return problems


def check_dilation(dil, square, tol: float = TOL) -> list[str]:
    """Commuting projections u_ij with unit row and column sums, V* u_ij V = a_ij."""
    n = square.n
    u = [[np.asarray(dil.u.block(i, j), dtype=np.complex128) for j in range(n)] for i in range(n)]
    v = np.asarray(dil.v, dtype=np.complex128)
    t = u[0][0].shape[0]
    ident = np.eye(t)
    problems = []
    flat = [m for row in u for m in row]
    for m in flat:
        if np.linalg.norm(m - m.conj().T, 2) > tol or np.linalg.norm(m @ m - m, 2) > tol:
            problems.append("an entry of U is not a projection")
            break
    if any(np.linalg.norm(a @ b - b @ a, 2) > tol for a, b in combinations(flat, 2)):
        problems.append("entries of U do not commute")
    for k in range(n):
        if np.linalg.norm(sum(u[k]) - ident, 2) > tol:
            problems.append(f"row {k} of U does not sum to I")
        if np.linalg.norm(sum(u[i][k] for i in range(n)) - ident, 2) > tol:
            problems.append(f"column {k} of U does not sum to I")
    for i in range(n):
        for j in range(n):
            a = square.block(i, j)
            a = a.to_complex() if square.exact else np.asarray(a)
            if np.linalg.norm(v.conj().T @ u[i][j] @ v - a, 2) > tol:
                problems.append(f"V* u_{i}{j} V differs from a_{i}{j}")
    return problems


def check_verdict(expect: str, verdict: str) -> list[str]:
    ok = verdict != "no" if expect == "not-no" else verdict == expect
    return [] if ok else [f"verdict {verdict!r}, expected {expect!r}"]


def check_cli(expect: str, path: str, returncode: int, stdout: str, stderr: str) -> list[str]:
    """One ``qmagic obstruction-check`` process on one square.

    "yes" must exit 0 and "no" exit 1, each with that verdict in the JSON
    report.  A "not-no" square passes with exit 0 and verdict "yes", or with
    exit 3 and an error entry (a clean refusal).  No answer passes with a
    traceback on stderr or a report that is not JSON.
    """
    problems = []
    if "Traceback" in stderr:
        lines = stderr.strip().splitlines()
        problems.append(f"traceback on stderr: {lines[-1] if lines else ''}")
    try:
        report = json.loads(stdout)
        verdicts = dict(report["verdicts"])
    except (ValueError, KeyError, TypeError):
        return problems + [f"stdout is not a JSON report (exit {returncode})"]
    verdict = verdicts.get(path)
    if expect == "not-no" and returncode == 3 and "error" in verdicts:
        return problems
    want = {"yes": 0, "no": 1, "not-no": 0}[expect]
    if returncode != want:
        problems.append(f"exit code {returncode}, expected {want}")
    problems += check_verdict("yes" if expect == "not-no" else expect, str(verdict))
    return problems
