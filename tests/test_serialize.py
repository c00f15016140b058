"""JSON grammar round trips and rejection of malformed input."""

import copy
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmagic.exact import ExactMatrix, GaussianRational
from qmagic.obstruction import ObstructionCertificate
from qmagic.sampling import (
    random_doubly_stochastic,
    random_exact_decomposition,
    random_member_square,
)
from qmagic.semiclassical import SemiclassicalDecomposition
from qmagic.serialize import (
    FormatError,
    birkhoff_from_json,
    birkhoff_to_json,
    certificate_from_json,
    certificate_to_json,
    decomposition_from_json,
    decomposition_to_json,
    dump_json,
    dump_square,
    exact_matrix_from_json,
    exact_matrix_to_json,
    float_matrix_from_json,
    float_matrix_to_json,
    gaussian_from_json,
    gaussian_to_json,
    load_json,
    load_square,
    rational_from_json,
    rational_to_json,
    square_from_json,
    square_to_json,
)
from qmagic.structures import InvalidMagicSquare, constant_square


# -- scalars -------------------------------------------------------------------


@given(st.fractions(max_denominator=10**9))
def test_rational_roundtrip(x):
    assert rational_from_json(rational_to_json(x)) == x


def test_rational_parsing():
    assert rational_from_json("3") == 3
    assert rational_from_json(-5) == -5
    assert rational_from_json("-7/2") == Fraction(-7, 2)
    for bad in ("3/0", 1.5, [1], "x/y", True):
        with pytest.raises(FormatError):
            rational_from_json(bad)


@pytest.mark.parametrize(
    "x", [Fraction(10**4400 + 1, 3**9300), Fraction(-(7**6000)), Fraction(3, 10**5000 + 1)]
)
def test_rational_roundtrip_past_the_int_digit_limit(x):
    """Parts longer than the 4300 digits `str` and `Fraction(str)` allow are
    written and read exactly."""
    text = rational_to_json(x)
    assert max(len(part) for part in text.lstrip("-").split("/")) > 4300
    assert rational_from_json(text) == x
    assert rational_from_json("+" + text.lstrip("-")) == abs(x)


@pytest.mark.parametrize("tail", ["/0", "/x", ".5", "e3", " ", "/-3", "/" + "9" * 5000 + " "])
def test_long_rationals_are_only_p_over_q(tail):
    with pytest.raises(FormatError):
        rational_from_json("9" * 5000 + tail)


@given(st.fractions(max_denominator=10**6), st.fractions(max_denominator=10**6))
def test_gaussian_roundtrip(re, im):
    z = GaussianRational(re, im)
    assert gaussian_from_json(gaussian_to_json(z)) == z


def test_gaussian_parsing():
    assert gaussian_from_json("2/3") == GaussianRational(Fraction(2, 3))
    assert gaussian_from_json(4) == GaussianRational(4)
    assert gaussian_from_json({"im": "1"}) == GaussianRational(0, 1)
    with pytest.raises(FormatError):
        gaussian_from_json({"re": "1", "oops": "2"})
    with pytest.raises(FormatError):
        gaussian_from_json(None)


# -- matrices ------------------------------------------------------------------


def test_exact_matrix_roundtrip():
    m = ExactMatrix(
        [
            [GaussianRational(Fraction(1, 3), Fraction(-2, 7)), 0],
            [GaussianRational(0, 1), 5],
        ]
    )
    back = exact_matrix_from_json(exact_matrix_to_json(m))
    assert (back - m).is_zero()


def test_exact_matrix_accepts_integer_entries():
    m = exact_matrix_from_json([[1, 2], [3, 4]])
    assert m[1, 0] == GaussianRational(3)


def test_exact_matrix_rejects_ragged_and_scalar():
    with pytest.raises(FormatError):
        exact_matrix_from_json([[1, 2], [3]])
    with pytest.raises(FormatError):
        exact_matrix_from_json("1/2")


def test_float_matrix_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    back = float_matrix_from_json(float_matrix_to_json(m))
    assert np.abs(back - m).max() == 0.0


def test_float_matrix_rejects_bare_numbers():
    with pytest.raises(FormatError):
        float_matrix_from_json([[1.0, 2.0]])


@pytest.mark.parametrize("entry", [[0.5, 0.0, 7.0], [0.5], "ab", {"re": 1, "im": 0}, [10**400, 0]])
def test_float_matrix_rejects_entries_that_are_not_pairs(entry):
    with pytest.raises(FormatError):
        float_matrix_from_json([[entry]])


# -- squares -------------------------------------------------------------------


def test_square_roundtrip_exact():
    a = constant_square(3, 2)
    back = square_from_json(square_to_json(a))
    assert back.exact and back.n == 3 and back.s == 2
    for i in range(3):
        for j in range(3):
            assert (back.block(i, j) - a.block(i, j)).is_zero()


def test_square_roundtrip_float():
    rng = np.random.default_rng(1)
    a = random_member_square(rng, 3, 2)
    back = square_from_json(square_to_json(a))
    assert not back.exact
    worst = max(
        float(np.abs(np.asarray(back.block(i, j)) - np.asarray(a.block(i, j))).max())
        for i in range(3)
        for j in range(3)
    )
    assert worst == 0.0


def test_square_grammar_rejections():
    import copy

    good = square_to_json(constant_square(2, 1))
    for mutate in (
        lambda d: d.pop("repr"),
        lambda d: d.update(repr="decimal"),
        lambda d: d.update(s=7),
        lambda d: d.update(blocks=d["blocks"][0]),
        lambda d: d["blocks"][0].pop(),
    ):
        data = copy.deepcopy(good)
        mutate(data)
        with pytest.raises(FormatError):
            square_from_json(data)
    # True == 1, so a boolean n would pass the grid check of a 1 x 1 square
    one = square_to_json(constant_square(1, 1))
    one["n"] = True
    with pytest.raises(FormatError):
        square_from_json(one)


def test_square_axiom_failure_is_not_a_format_error():
    data = square_to_json(constant_square(2, 1))
    data["blocks"][0][0][0][0] = {"re": "2/3", "im": "0"}
    with pytest.raises(InvalidMagicSquare):
        square_from_json(data)


# -- decompositions --------------------------------------------------------------


def test_birkhoff_roundtrip():
    rng = np.random.default_rng(2)
    from qmagic.birkhoff import birkhoff_decompose

    terms = birkhoff_decompose(random_doubly_stochastic(rng, 4))
    back = birkhoff_from_json(birkhoff_to_json(terms))
    assert back == [(tuple(p), Fraction(w)) for p, w in terms]


def test_birkhoff_term_rejections():
    with pytest.raises(FormatError):
        birkhoff_from_json([{"perm": [0, 0], "weight": "1"}])
    with pytest.raises(FormatError):
        birkhoff_from_json([{"perm": [0, 1]}])
    with pytest.raises(FormatError):
        birkhoff_from_json({"perm": [0, 1], "weight": "1"})


def test_decomposition_roundtrip_exact():
    rng = np.random.default_rng(3)
    dec = SemiclassicalDecomposition(3, 2, True, random_exact_decomposition(rng, 3, 2))
    back = decomposition_from_json(decomposition_to_json(dec))
    assert back.exact and back.n == 3 and back.s == 2
    assert set(back.weights) == set(dec.weights)
    for sigma in dec.weights:
        assert (back.weights[sigma] - dec.weights[sigma]).is_zero()


def test_decomposition_roundtrip_float():
    rng = np.random.default_rng(4)
    exact = SemiclassicalDecomposition(3, 1, True, random_exact_decomposition(rng, 3, 1))
    dec = SemiclassicalDecomposition(
        3, 1, False, {k: np.asarray(v.to_complex()) for k, v in exact.weights.items()}
    )
    back = decomposition_from_json(decomposition_to_json(dec))
    assert not back.exact
    for sigma in dec.weights:
        assert np.abs(back.weights[sigma] - dec.weights[sigma]).max() == 0.0


def test_decomposition_rejections():
    exact_q = [[{"re": "1", "im": "0"}]]
    float_q = [[[1.0, 0.0]]]
    with pytest.raises(FormatError, match="mixed"):
        decomposition_from_json(
            [{"perm": [0, 1], "q": exact_q}, {"perm": [1, 0], "q": float_q}]
        )
    with pytest.raises(FormatError, match="duplicate"):
        decomposition_from_json(
            [{"perm": [0, 1], "q": exact_q}, {"perm": [0, 1], "q": exact_q}]
        )
    with pytest.raises(FormatError, match="inconsistent"):
        decomposition_from_json(
            [{"perm": [0, 1], "q": exact_q}, {"perm": [0, 1, 2], "q": exact_q}]
        )
    with pytest.raises(FormatError):
        decomposition_from_json([])
    for perm in ([], [True, 0], ["0", 0], [0.0]):
        with pytest.raises(FormatError, match="permutation"):
            decomposition_from_json([{"perm": perm, "q": exact_q}])
    with pytest.raises(FormatError, match="square"):
        decomposition_from_json([{"perm": [0], "q": [[{"re": "1", "im": "0"}, "0"]]}])


# -- certificates -----------------------------------------------------------------


def toy_certificate():
    y = Fraction(1, 18) * ExactMatrix.identity(18)
    return ObstructionCertificate(
        n=3, s=2, mode="strong", y_exact=y, pairings={"B0": Fraction(-1, 9), "B1": Fraction(0)}
    )


def test_certificate_roundtrip_with_embedded_square():
    cert = toy_certificate()
    square = constant_square(3, 2)
    back, embedded = certificate_from_json(certificate_to_json(cert, square=square))
    assert (back.y_exact - cert.y_exact).is_zero()
    assert back.mode == "strong" and (back.n, back.s) == (3, 2)
    assert back.pairings == cert.pairings
    assert all(type(v) is Fraction for v in back.pairings.values())
    assert embedded is not None and embedded.exact
    for i in range(3):
        for j in range(3):
            assert (embedded.block(i, j) - square.block(i, j)).is_zero()


def test_certificate_without_square():
    back, embedded = certificate_from_json(certificate_to_json(toy_certificate()))
    assert embedded is None


def test_certificate_missing_keys():
    data = certificate_to_json(toy_certificate())
    data.pop("pairings")
    with pytest.raises(FormatError, match="missing"):
        certificate_from_json(data)


def test_certificate_rejects_float_square_embedding():
    rng = np.random.default_rng(5)
    with pytest.raises(FormatError):
        certificate_to_json(toy_certificate(), square=random_member_square(rng, 3, 2))


def test_certificate_rejects_complex_pairing():
    cert = toy_certificate()
    cert.pairings["B2"] = GaussianRational(0, 1)
    with pytest.raises(FormatError, match="not real"):
        certificate_to_json(cert)


def test_certificate_rejects_pairing_that_is_not_a_rational():
    cert = toy_certificate()
    cert.pairings["B0"] = 0.5
    with pytest.raises(FormatError, match="pairing B0 is not a rational"):
        certificate_to_json(cert)


def test_certificate_grammar_rejections():
    base = certificate_to_json(toy_certificate(), square=constant_square(3, 2))
    for key, value in [
        ("n", "x"), ("n", 0), ("s", True), ("mode", "bogus"), ("pairings", [1]),
        ("Y", exact_matrix_to_json(ExactMatrix.identity(4))),
        ("square", square_to_json(constant_square(3, 1))),
    ]:
        with pytest.raises(FormatError):
            certificate_from_json({**base, key: value})


# -- fuzzing the grammar -----------------------------------------------------------

_KEYS = ["n", "s", "repr", "blocks", "mode", "Y", "pairings", "square", "re", "im", "B0"]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from(["1/2", "-3", "1/0", "x", "exact", "float", "weak", "strong"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_DELETE = object()


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _mutated(doc, path, value):
    """A copy of doc with the value at path replaced, or deleted."""
    if not path:
        return value if value is not _DELETE else None
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _valid_documents():
    rng = np.random.default_rng(11)
    cert = ObstructionCertificate(
        n=2, s=1, mode="weak", y_exact=Fraction(1, 4) * ExactMatrix.identity(4),
        pairings={"B0": Fraction(-1, 9), "B1": Fraction(0)},
    )
    return {
        square_from_json: [
            square_to_json(constant_square(2, 1)),
            square_to_json(random_member_square(rng, 2, 2)),
        ],
        certificate_from_json: [certificate_to_json(cert, square=constant_square(2, 1))],
    }


_DOCUMENTS = _valid_documents()


def _parses_or_refuses(parse, data):
    try:
        parse(data)
    except (FormatError, InvalidMagicSquare):
        pass


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([square_from_json, certificate_from_json]), _JSON)
def test_fuzz_arbitrary_json(parse, data):
    _parses_or_refuses(parse, data)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_fuzz_mutated_documents(data):
    parse = data.draw(st.sampled_from(sorted(_DOCUMENTS, key=lambda f: f.__name__)))
    doc = data.draw(st.sampled_from(_DOCUMENTS[parse]))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(_JSON | st.just(_DELETE))
    _parses_or_refuses(parse, _mutated(doc, path, value))


# -- files ------------------------------------------------------------------------


def test_file_helpers(tmp_path):
    a = constant_square(3, 1)
    path = tmp_path / "square.json"
    dump_square(a, path)
    back = load_square(path)
    assert back.exact and back.n == 3
    other = tmp_path / "data.json"
    dump_json({"k": [1, 2]}, other)
    assert load_json(other) == {"k": [1, 2]}
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    with pytest.raises(FormatError, match="invalid JSON"):
        load_json(broken)
