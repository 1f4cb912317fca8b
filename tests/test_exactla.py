import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.exactla import (
    Matrix,
    Subspace,
    char_poly,
    contains,
    coordinates,
    image,
    intersect,
    is_diagonalizable_2x2,
    is_direct_sum,
    kernel,
    rank,
    rref,
    subspace_sum,
    unit_vector,
    vector,
    zero_vector,
)


def random_matrix(rng, nrows, ncols, lo=-4, hi=4):
    return Matrix.from_rows(
        [[F(rng.randint(lo, hi), rng.randint(1, 3)) for _ in range(ncols)]
         for _ in range(nrows)])


def random_invertible(rng, n):
    while True:
        m = random_matrix(rng, n, n)
        if m.is_invertible():
            return m


def test_rref_identity():
    ident = Matrix.identity(3)
    reduced, rk = rref(ident)
    assert reduced == ident and rk == 3


def test_rref_zero():
    z = Matrix.zero(2, 2)
    reduced, rk = rref(z)
    assert reduced == z and rk == 0


def test_rref_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    reduced, rk = rref(m)
    assert reduced == Matrix.from_rows([[1, 2], [0, 0]])
    assert rk == 1


def test_rref_idempotent():
    rng = random.Random(11)
    for _ in range(25):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, rk = rref(m)
        again, rk2 = rref(reduced)
        assert again == reduced and rk2 == rk


def test_from_blocks_and_block_diag_layout():
    a = Matrix.from_rows([[1, 2, 3]])
    b = Matrix.from_rows([[4], [5]])
    c = Matrix.from_rows([[6, 7], [8, 9]])
    assert Matrix.block_diag(a, b) == Matrix.from_rows(
        [[1, 2, 3, 0], [0, 0, 0, 4], [0, 0, 0, 5]])
    assert Matrix.block_diag(Matrix.zero(0, 0), c, Matrix.zero(0, 0)) == c
    grid = [[b, c], [Matrix.from_rows([[1]]), Matrix.from_rows([[2, 3]])]]
    assert Matrix.from_blocks(grid) == Matrix.from_rows([[4, 6, 7], [5, 8, 9], [1, 2, 3]])
    with pytest.raises(ValueError, match="differ in height"):
        Matrix.from_blocks([[b, a]])
    with pytest.raises(ValueError, match="ragged"):
        Matrix.from_blocks([[a], [b]])


def test_kernel_identity_and_zero():
    assert kernel(Matrix.identity(4)) == Subspace.zero(4)
    assert kernel(Matrix.zero(3, 3)) == Subspace.full(3)


def test_rank_nullity_and_kernel_exactness():
    rng = random.Random(7)
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        ker = kernel(m)
        assert ker.dim + rank(m) == m.ncols
        for v in ker.basis:
            assert m.apply(v) == zero_vector(m.nrows)


def test_image_is_column_span():
    m = Matrix.from_columns([(1, 0, 1), (2, 0, 2), (0, 1, 0)])
    im = image(m)
    assert im.dim == 2
    for j in range(3):
        assert contains(im, m.column(j))


def test_intersect_with_full():
    rng = random.Random(3)
    for _ in range(10):
        u = Subspace.from_vectors(4, [vector([rng.randint(-3, 3) for _ in range(4)])
                                      for _ in range(2)])
        assert intersect(Subspace.full(4), u) == u


def test_direct_sum_of_axes():
    e1 = Subspace.from_vectors(3, [unit_vector(3, 0)])
    e2 = Subspace.from_vectors(3, [unit_vector(3, 1)])
    assert intersect(e1, e2) == Subspace.zero(3)
    assert subspace_sum(e1, e2).dim == 2
    assert is_direct_sum([e1, e2])


def test_direct_sum_detects_overlap():
    u = Subspace.from_vectors(3, [(1, 0, 0), (0, 1, 0)])
    v = Subspace.from_vectors(3, [(1, 1, 0)])
    assert not is_direct_sum([u, v])


def test_coordinates_round_trip():
    rng = random.Random(19)
    for _ in range(20):
        u = Subspace.from_vectors(5, [vector([rng.randint(-3, 3) for _ in range(5)])
                                      for _ in range(3)])
        coeffs = [F(rng.randint(-3, 3)) for _ in range(u.dim)]
        x = zero_vector(5)
        for c, b in zip(coeffs, u.basis):
            x = tuple(a + c * bb for a, bb in zip(x, b))
        assert coordinates(u, x) == tuple(coeffs)
    assert coordinates(Subspace.from_vectors(2, [(1, 0)]), (0, 1)) is None


def test_inverse_and_det():
    rng = random.Random(23)
    for _ in range(20):
        m = random_invertible(rng, rng.randint(1, 4))
        assert m * m.inverse() == Matrix.identity(m.nrows)
        assert m.inverse().det() * m.det() == 1
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [2, 4]]).inverse()


def test_char_poly_examples():
    assert char_poly(Matrix.identity(2)) == (F(1), F(-2), F(1))
    assert char_poly(Matrix.from_rows([[1, 0], [0, 2]])) == (F(1), F(-3), F(2))


def test_char_poly_constant_term_is_signed_det():
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        coeffs = char_poly(m)
        assert coeffs[-1] == (-1) ** n * m.det()
        assert coeffs[1] == -m.trace()


def test_cayley_hamilton():
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        coeffs = char_poly(m)
        acc = Matrix.zero(n, n)
        for c in coeffs:
            acc = acc * m + Matrix.identity(n).scale(c)
        assert acc.is_zero()


def test_diagonalizable_2x2():
    assert is_diagonalizable_2x2(Matrix.identity(2))
    assert not is_diagonalizable_2x2(Matrix.from_rows([[1, 1], [0, 1]]))
    assert is_diagonalizable_2x2(Matrix.from_rows([[1, 0], [0, 2]]))


def test_subspace_equality_is_canonical():
    a = Subspace.from_vectors(3, [(1, 1, 0), (0, 2, 0)])
    b = Subspace.from_vectors(3, [(3, 0, 0), (1, 5, 0)])
    assert a == b


small_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def subspace_and_vector(draw):
    """A random subspace of Q^n and a vector that is often, not always, in it."""
    n = draw(st.integers(1, 4))
    vec = st.lists(small_rationals, min_size=n, max_size=n)
    spanning = draw(st.lists(vec, max_size=3))
    S = Subspace.from_vectors(n, spanning)
    x = [F(0)] * n
    for row in S.basis:
        c = draw(small_rationals)
        x = [a + c * b for a, b in zip(x, row)]
    if draw(st.booleans()):
        x = [a + b for a, b in zip(x, draw(vec))]
    return S, tuple(x)


@settings(max_examples=300, deadline=None)
@given(subspace_and_vector())
def test_contains_matches_rank_test(case):
    S, x = case
    assert contains(S, x) == (Subspace.from_vectors(S.ambient_dim, S.basis + (x,)).dim
                              == S.dim)
