"""Shared JSON grammar for squares, decompositions, and certificates.

Scalars
    rational            "p/q" (canonical: gcd(p, q) = 1, q > 0; bare
                        integers allowed as "p")
    gaussian rational   {"re": "p/q", "im": "p/q"}
    float complex       [re, im]

Matrices are row-major nested arrays of scalars.  Exact matrices use the
gaussian-rational grammar (a bare "p/q" string is accepted on input as a
real entry), floating matrices use [re, im] pairs.

Aggregates
    magic square        {"n", "s", "repr": "exact"|"float", "blocks"}
    permutation         one-line array, sigma as [sigma(0), ..., sigma(n-1)]
    birkhoff result     [{"perm": [...], "weight": "p/q"}, ...]
    decomposition       [{"perm": [...], "q": matrix}, ...]
    certificate         {"n", "s", "mode", "Y", "pairings": {"B0": "p/q", ...}}
                        plus an optional embedded "square" for
                        self-contained verification
"""

from __future__ import annotations

import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np

from .exact import ExactMatrix, GaussianRational, rational_str
from .obstruction import STRONG, WEAK, ObstructionCertificate
from .semiclassical import SemiclassicalDecomposition
from .structures import InvalidMagicSquare, MagicSquare


class FormatError(ValueError):
    """Input does not follow the shared JSON grammar."""


# -- scalars -------------------------------------------------------------------


def rational_to_json(x: Fraction) -> str:
    return rational_str(x)


def rational_from_json(data) -> Fraction:
    if isinstance(data, bool) or not isinstance(data, (int, str)):
        raise FormatError(f"expected a rational string, got {type(data).__name__}")
    if isinstance(data, int):
        return Fraction(data)
    ratio = re.fullmatch(r"([-+]?[0-9]+)(?:/([0-9]+))?", data, re.ASCII)
    try:
        if ratio:  # through Decimal, which has no int-to-str digit limit
            return Fraction(*(int(Decimal(part)) for part in ratio.groups("1")))
        return Fraction(data)
    except (ValueError, ZeroDivisionError) as err:
        raise FormatError(f"bad rational {data!r}: {err}") from None


def gaussian_to_json(z: GaussianRational) -> dict:
    return {"re": rational_to_json(z.re), "im": rational_to_json(z.im)}


def gaussian_from_json(data) -> GaussianRational:
    if isinstance(data, (str, int)):
        return GaussianRational(rational_from_json(data))
    if isinstance(data, dict):
        extra = set(data) - {"re", "im"}
        if extra:
            raise FormatError(f"unexpected keys in scalar: {sorted(extra)}")
        return GaussianRational(
            rational_from_json(data.get("re", 0)), rational_from_json(data.get("im", 0))
        )
    raise FormatError(f"expected a gaussian rational, got {type(data).__name__}")


# -- matrices ------------------------------------------------------------------


def exact_matrix_to_json(m: ExactMatrix) -> list:
    return [[gaussian_to_json(z) for z in row] for row in m.row_list()]


def exact_matrix_from_json(data) -> ExactMatrix:
    if not isinstance(data, list) or not data or not all(isinstance(r, list) for r in data):
        raise FormatError("expected a nested array for an exact matrix")
    try:
        return ExactMatrix([[gaussian_from_json(x) for x in row] for row in data])
    except ValueError as err:
        raise FormatError(str(err)) from None


def float_matrix_to_json(m) -> list:
    m = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


def float_matrix_from_json(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise FormatError("expected a nested array for a float matrix")
    try:
        return np.array(
            [[_complex(re, im) for re, im in row] for row in data], dtype=np.complex128
        )
    except (TypeError, ValueError, OverflowError) as err:
        raise FormatError(f"bad float matrix entry: {err}") from None


def _complex(re, im) -> complex:
    if isinstance(re, bool) or isinstance(im, bool):
        raise TypeError("a boolean is not a number")
    return complex(re, im)


def _looks_float(scalar) -> bool:
    return isinstance(scalar, list)


# -- magic squares ---------------------------------------------------------------


def square_to_json(a: MagicSquare) -> dict:
    if a.exact:
        blocks = [[exact_matrix_to_json(a.block(i, j)) for j in range(a.n)] for i in range(a.n)]
    else:
        blocks = [[float_matrix_to_json(a.block(i, j)) for j in range(a.n)] for i in range(a.n)]
    return {"n": a.n, "s": a.s, "repr": "exact" if a.exact else "float", "blocks": blocks}


def square_from_json(data, tol: float | None = None) -> MagicSquare:
    if not isinstance(data, dict) or "blocks" not in data:
        raise FormatError("expected an object with a 'blocks' key")
    rep = data.get("repr")
    if rep not in ("exact", "float"):
        raise FormatError(f"repr must be 'exact' or 'float', got {rep!r}")
    blocks = data["blocks"]
    if not isinstance(blocks, list) or not all(isinstance(r, list) for r in blocks):
        raise FormatError("blocks must be an array of arrays")
    n = _positive_int(data, "n") if "n" in data else len(blocks)
    if not blocks or len(blocks) != n or any(len(r) != n for r in blocks):
        raise FormatError(f"blocks do not form an {n} x {n} grid")
    parse = exact_matrix_from_json if rep == "exact" else float_matrix_from_json
    grid = [[parse(b) for b in row] for row in blocks]
    s = _positive_int(data, "s") if "s" in data else None
    size = grid[0][0].rows if rep == "exact" else grid[0][0].shape[0]
    if s is not None and s != size:
        raise FormatError(f"declared s={s} but blocks have size {size}")
    try:
        if tol is None:
            return MagicSquare(grid)
        return MagicSquare(grid, tol=tol)
    except InvalidMagicSquare:
        raise  # well-formed input failing the axioms is not a format error
    except ValueError as err:
        raise FormatError(str(err)) from None


# -- permutations and decompositions ---------------------------------------------


def _perm_from_json(data) -> tuple:
    if (
        not isinstance(data, list)
        or not data
        or not all(type(v) is int for v in data)
        or sorted(data) != list(range(len(data)))
    ):
        raise FormatError(f"not a permutation in one-line notation: {data!r}")
    return tuple(data)


def birkhoff_to_json(terms) -> list:
    return [
        {"perm": list(sigma), "weight": rational_to_json(weight)}
        for sigma, weight in terms
    ]


def birkhoff_from_json(data) -> list:
    if not isinstance(data, list):
        raise FormatError("expected a list of {perm, weight} terms")
    out = []
    for term in data:
        if not isinstance(term, dict) or set(term) != {"perm", "weight"}:
            raise FormatError(f"bad birkhoff term: {term!r}")
        out.append((_perm_from_json(term["perm"]), rational_from_json(term["weight"])))
    return out


def decomposition_to_json(dec: SemiclassicalDecomposition) -> list:
    convert = exact_matrix_to_json if dec.exact else float_matrix_to_json
    return [
        {"perm": list(sigma), "q": convert(q)}
        for sigma, q in sorted(dec.weights.items())
    ]


def decomposition_from_json(data) -> SemiclassicalDecomposition:
    if not isinstance(data, list) or not data:
        raise FormatError("expected a nonempty list of {perm, q} terms")
    weights = {}
    exact = None
    n = None
    s = None
    for term in data:
        if not isinstance(term, dict) or set(term) != {"perm", "q"}:
            raise FormatError(f"bad decomposition term: {term!r}")
        sigma = _perm_from_json(term["perm"])
        raw = term["q"]
        if not isinstance(raw, list) or not raw or not isinstance(raw[0], list) or not raw[0]:
            raise FormatError("term weight is not a matrix")
        term_float = _looks_float(raw[0][0])
        if exact is None:
            exact = not term_float
        elif exact == term_float:
            raise FormatError("mixed exact and float weights in one decomposition")
        q = float_matrix_from_json(raw) if term_float else exact_matrix_from_json(raw)
        size = q.shape[0]
        if q.shape != (size, size):
            raise FormatError("term weight is not a square matrix")
        if n is None:
            n, s = len(sigma), size
        elif len(sigma) != n or size != s:
            raise FormatError("inconsistent permutation or weight sizes")
        if sigma in weights:
            raise FormatError(f"duplicate permutation {list(sigma)}")
        weights[sigma] = q
    return SemiclassicalDecomposition(n=n, s=s, exact=exact, weights=weights)


# -- certificates -----------------------------------------------------------------


def certificate_to_json(cert: ObstructionCertificate, square: MagicSquare | None = None) -> dict:
    pairings = {}
    for label, value in cert.pairings.items():
        z = GaussianRational._coerce(value)
        if z is NotImplemented:
            raise FormatError(f"pairing {label} is not a rational: {value!r}")
        if z.im != 0:
            raise FormatError(f"pairing {label} is not real: {value!r}")
        pairings[label] = rational_to_json(z.re)
    out = {
        "n": cert.n,
        "s": cert.s,
        "mode": cert.mode,
        "Y": exact_matrix_to_json(cert.y_exact),
        "pairings": pairings,
    }
    if square is not None:
        if not square.exact:
            raise FormatError("only exact squares can be embedded in a certificate")
        out["square"] = square_to_json(square)
    return out


def certificate_from_json(data) -> tuple[ObstructionCertificate, MagicSquare | None]:
    if not isinstance(data, dict):
        raise FormatError("expected a certificate object")
    missing = {"n", "s", "mode", "Y", "pairings"} - set(data)
    if missing:
        raise FormatError(f"certificate is missing keys: {sorted(missing)}")
    n, s = (_positive_int(data, key) for key in ("n", "s"))
    if data["mode"] not in (WEAK, STRONG):
        raise FormatError(f"mode must be {WEAK!r} or {STRONG!r}, got {data['mode']!r}")
    if not isinstance(data["pairings"], dict):
        raise FormatError("pairings must be an object of label: rational")
    pairings = {label: rational_from_json(value) for label, value in data["pairings"].items()}
    y = exact_matrix_from_json(data["Y"])
    if y.shape != (n * n * s, n * n * s):
        raise FormatError(f"Y has shape {y.shape}, expected {(n * n * s, n * n * s)}")
    cert = ObstructionCertificate(n=n, s=s, mode=data["mode"], y_exact=y, pairings=pairings)
    square = square_from_json(data["square"]) if "square" in data else None
    if square is not None and (square.n, square.s) != (n, s):
        raise FormatError(
            f"embedded square has n={square.n}, s={square.s}; the certificate n={n}, s={s}"
        )
    return cert, square


def _positive_int(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise FormatError(f"{key} must be a positive integer, got {value!r}")
    return value


# -- files -------------------------------------------------------------------------


def load_json(path):
    """The JSON document in a file; FormatError for bytes that are not UTF-8,
    malformed or too deeply nested JSON, or a bare int past the digit limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as err:  # JSONDecodeError, UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON: {err}") from None


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def load_square(path, tol: float | None = None) -> MagicSquare:
    return square_from_json(load_json(path), tol=tol)


def dump_square(a: MagicSquare, path) -> None:
    dump_json(square_to_json(a), path)
