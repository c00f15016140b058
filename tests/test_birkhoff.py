from fractions import Fraction

import numpy as np
import pytest

from qmagic.birkhoff import (
    NotDoublyStochastic,
    birkhoff_decompose,
    is_extreme_point,
    magic_space_dimension,
    validate_doubly_stochastic,
)
from qmagic.exact import ExactMatrix, rref_exact
from qmagic.sampling import random_doubly_stochastic
from qmagic.structures import perm_matrix_exact, permutations_lex

F = Fraction


def reconstruct(terms, n):
    out = [[F(0)] * n for _ in range(n)]
    for sigma, w in terms:
        for i in range(n):
            out[i][sigma[i]] += w
    return out


class TestDecompose:
    def test_identity(self):
        assert birkhoff_decompose([[1, 0], [0, 1]]) == [((0, 1), F(1))]

    def test_half_half(self):
        terms = birkhoff_decompose([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        assert sorted(terms) == [((0, 1), F(1, 2)), ((1, 0), F(1, 2))]

    def test_uniform_3x3(self):
        m = [[F(1, 3)] * 3 for _ in range(3)]
        terms = birkhoff_decompose(m)
        assert len(terms) <= 5
        assert reconstruct(terms, 3) == m
        assert sum(w for _, w in terms) == 1

    def test_random_reconstruction_and_bound(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 7))
            m = random_doubly_stochastic(rng, n)
            terms = birkhoff_decompose(m)
            assert len(terms) <= (n - 1) ** 2 + 1
            assert reconstruct(terms, n) == m
            assert sum(w for _, w in terms) == 1
            assert all(w > 0 for _, w in terms)

    def test_deterministic(self):
        m = [[F(1, 3)] * 3 for _ in range(3)]
        assert birkhoff_decompose(m) == birkhoff_decompose(m)

    def test_first_matching_is_lex_smallest(self):
        # full support: the first peeled permutation must be the identity
        m = [[F(1, 3)] * 3 for _ in range(3)]
        work = birkhoff_decompose(m)
        assert work[0][0] == (0, 1, 2)

    def test_caratheodory_reduction_preserves_value(self):
        from qmagic.birkhoff import _caratheodory_reduce

        rng = np.random.default_rng(2)
        n, k = 4, 14
        sigmas = [tuple(int(x) for x in rng.permutation(n)) for _ in range(k)]
        raw = [int(rng.integers(1, 9)) for _ in range(k)]
        total = sum(raw)
        terms = [(s, F(w, total)) for s, w in zip(sigmas, raw)]
        target = reconstruct(terms, n)
        bound = (n - 1) ** 2 + 1
        reduced = _caratheodory_reduce(terms, n, bound)
        assert len(reduced) <= bound
        assert reconstruct(reduced, n) == target
        assert sum(w for _, w in reduced) == 1
        assert all(w > 0 for _, w in reduced)

    def test_rejects_bad_input(self):
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 4)]])
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose([[F(3, 2), F(-1, 2)], [F(-1, 2), F(3, 2)]])
        with pytest.raises(NotDoublyStochastic):
            birkhoff_decompose([[0.5, 0.5], [0.5, 0.5]])


class TestMagicSpaceDimension:
    def test_known_values(self):
        assert magic_space_dimension(1) == 1
        assert magic_space_dimension(2) == 2
        assert magic_space_dimension(4) == 10

    def test_formula_up_to_five(self):
        for n in range(1, 6):
            rows = []
            for sigma in permutations_lex(n):
                p = perm_matrix_exact(sigma)
                rows.append([p[i, j] for i in range(n) for j in range(n)])
            assert magic_space_dimension(n) == len(rref_exact(ExactMatrix(rows))[1])

    def test_guard(self):
        assert magic_space_dimension(7) == 37  # the closed form has no cap in n
        with pytest.raises(ValueError):
            magic_space_dimension(0)


class TestExtremePoints:
    def test_permutations_are_extreme(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            sigma = tuple(int(x) for x in rng.permutation(n))
            p = perm_matrix_exact(sigma)
            m = [[p[i, j].re for j in range(n)] for i in range(n)]
            assert is_extreme_point(m)

    def test_mixtures_are_not(self):
        assert not is_extreme_point([[F(1, 3)] * 3 for _ in range(3)])
        assert not is_extreme_point([[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])


def test_validate_normalizes():
    rows = validate_doubly_stochastic([[1, 0], [0, 1]])
    assert rows == [[F(1), F(0)], [F(0), F(1)]]
