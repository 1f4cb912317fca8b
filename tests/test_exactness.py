"""The integer kernels against small Fraction reference implementations.

The catalog's tables are integer-valued, so a common denominator dropped from
one side of a cross-multiplied comparison would pass every catalog check.
These inputs have non-integer entries with mixed denominators instead: random
tables and matrices, and catalog structures moved to random rational bases and
rescaled to non-integer weights, with one entry perturbed by a non-integer.
"""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postlie.catalog import example216_matrix, make_sl2, make_table1, witnesses
from postlie.exactla import Matrix, kernel, rref
from postlie.liealg import (
    LieAlgebra,
    bracket,
    change_basis,
    first_hom_failure,
    jacobi_failure,
    killing_form,
)
from postlie.pastruct import PAProduct, first_pa_failure, inner_pa_from_rb
from postlie.rbops import RBOperator, first_rb_failure

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
non_integers = rationals.filter(lambda q: q.denominator > 1)
SETTINGS = settings(max_examples=60, deadline=None)
SLOW = settings(max_examples=25, deadline=None)  # Fraction references on 6-dim inputs


# ---------------------------------------------------------------------------
# Fraction references
# ---------------------------------------------------------------------------

def ref_bilinear(table, x, y):
    n = len(table)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            for k in range(n):
                out[k] += F(x[i]) * F(y[j]) * table[i][j][k]
    return tuple(out)


def ref_apply(rows, v):
    return tuple(sum((F(a) * b for a, b in zip(r, v)), F(0)) for r in rows)


def ref_add(*vs):
    return tuple(sum(xs, F(0)) for xs in zip(*vs))


def units(n):
    return [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]


def ref_jacobi_failure(table):
    n, e = len(table), units(len(table))
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = ref_add(ref_bilinear(table, table[i][j], e[k]),
                                ref_bilinear(table, table[j][k], e[i]),
                                ref_bilinear(table, table[k][i], e[j]))
                if any(total):
                    return (i, j, k)
    return None


def ref_first_rb_failure(table, rows, lam):
    n, e = len(table), units(len(table))
    cols = [tuple(r[c] for r in rows) for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            lhs = ref_bilinear(table, cols[i], cols[j])
            inner = ref_add(ref_bilinear(table, cols[i], e[j]),
                            ref_bilinear(table, e[i], cols[j]),
                            tuple(F(lam) * c for c in table[i][j]))
            if lhs != ref_apply(rows, inner):
                return (i, j)
    return None


def ref_first_hom_failure(rows, gtable, htable):
    n = len(gtable)
    cols = [tuple(r[c] for r in rows) for c in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if ref_apply(rows, gtable[i][j]) != ref_bilinear(htable, cols[i], cols[j]):
                return (i, j)
    return None


def neg(v):
    return tuple(-x for x in v)


def ref_first_pa_failure(gtable, ntable, coeffs):
    n, e = len(gtable), units(len(gtable))
    for i in range(n):
        for j in range(i + 1, n):
            if ref_add(coeffs[i][j], neg(coeffs[j][i])) != ref_add(gtable[i][j],
                                                                   neg(ntable[i][j])):
                return ("difference", (i, j))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = ref_bilinear(coeffs, gtable[i][j], e[k])
                rhs = ref_add(ref_bilinear(coeffs, e[i], coeffs[j][k]),
                              neg(ref_bilinear(coeffs, e[j], coeffs[i][k])))
                if lhs != rhs:
                    return ("representation", (i, j, k))
                lhs = ref_bilinear(coeffs, e[i], ntable[j][k])
                rhs = ref_add(ref_bilinear(ntable, coeffs[i][j], e[k]),
                              ref_bilinear(ntable, e[j], coeffs[i][k]))
                if lhs != rhs:
                    return ("derivation", (i, j, k))
    return None


def ref_rref(rows):
    """Gauss-Jordan over Fractions: (reduced rows, pivot columns)."""
    m = [[F(x) for x in r] for r in rows]
    pivots = []
    for col in range(len(m[0]) if m else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return m, pivots


def ref_det(rows):
    m, n, d = [[F(x) for x in r] for r in rows], len(rows), F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return F(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            d = -d
        d *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return d


def ref_kernel(rows, ncols):
    reduced, pivots = ref_rref(rows)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


@st.composite
def tables(draw):
    """A random antisymmetric table (Jacobi not required)."""
    n = draw(st.integers(2, 4))
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            table[i][j] = draw(vectors(n))
            table[j][i] = [-x for x in table[i][j]]
    return LieAlgebra.from_table(n, table)


@st.composite
def matrices(draw, square=False):
    nrows = draw(st.integers(1, 4))
    ncols = nrows if square else draw(st.integers(1, 4))
    return Matrix.from_rows(draw(st.lists(vectors(ncols), min_size=nrows, max_size=nrows)))


@st.composite
def bases(draw, n):
    """An invertible n x n matrix of small rationals."""
    small = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                     min_size=n, max_size=n)
    P = Matrix.from_rows(draw(st.lists(small, min_size=n, max_size=n)))
    assume(ref_det(P.rows) != 0)
    return P


def perturbed(draw, rows):
    """rows with one entry moved by a non-integer."""
    rows = [list(r) for r in rows]
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows[0]) - 1))
    rows[r][c] += draw(non_integers)
    return rows


def perturbed_table(draw, L):
    """L's table with one bracket [e_i, e_j], i < j, moved antisymmetrically."""
    table = [[list(e) for e in row] for row in L.table]
    i = draw(st.integers(0, L.dim - 2))
    j, k = draw(st.integers(i + 1, L.dim - 1)), draw(st.integers(0, L.dim - 1))
    q = draw(non_integers)
    table[i][j][k] += q
    table[j][i][k] -= q
    return LieAlgebra.from_table(L.dim, table)


# Weight-1 RB operators, as (algebra, matrix): example216 on r2 + C and three
# 6-dim witnesses.
RB_CASES = [(make_table1("r2_plus_C"), example216_matrix(F(1, 2), 0, F(-2, 3)))] + [
    (w.operator.algebra, w.operator.matrix) for w in witnesses()
    if w.name in ("type2-triangular", "type5-case2c", "type8b-case2d")]


@st.composite
def moved_rb_cases(draw):
    """An RB operator moved to a random rational basis, at a non-integer weight."""
    n, R = draw(st.sampled_from(RB_CASES))
    P = draw(bases(n.dim))
    lam = draw(non_integers)
    return change_basis(n, P), (P.inverse() * R * P).scale(lam), lam


# ---------------------------------------------------------------------------
# Equal results
# ---------------------------------------------------------------------------

@SETTINGS
@given(tables(), st.data())
def test_bracket_and_killing_form_match_reference(L, data):
    x, y = data.draw(vectors(L.dim)), data.draw(vectors(L.dim))
    assert bracket(L, x, y) == ref_bilinear(L.table, x, y)
    assert killing_form(L).rows == tuple(
        tuple(sum((L.table[i][k][l] * L.table[j][l][k] for k in range(L.dim)
                   for l in range(L.dim)), F(0)) for j in range(L.dim))
        for i in range(L.dim))


@SETTINGS
@given(matrices())
def test_rref_and_kernel_match_reference(m):
    reduced, pivots = ref_rref(m.rows)
    assert rref(m) == (Matrix.from_rows(reduced), len(pivots))
    ker = ref_kernel(m.rows, m.ncols)
    assert kernel(m).basis == tuple(tuple(r) for r in ref_rref(ker)[0][:len(ker)])


@SETTINGS
@given(matrices(square=True))
def test_det_and_inverse_match_reference(m):
    d = ref_det(m.rows)
    assert m.det() == d
    if d:
        n = m.nrows
        aug = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(m.rows)]
        assert m.inverse() == Matrix.from_rows([r[n:] for r in ref_rref(aug)[0]])


# ---------------------------------------------------------------------------
# Same first failing index on perturbed inputs
# ---------------------------------------------------------------------------

@SETTINGS
@given(st.sampled_from([make_sl2(), make_table1("r3_lambda", 3)]), st.data())
def test_jacobi_failure_matches_reference(L, data):
    moved = change_basis(L, data.draw(bases(L.dim)))
    assert jacobi_failure(moved) is None
    broken = perturbed_table(data.draw, moved)
    assert jacobi_failure(broken) == ref_jacobi_failure(broken.table)


@SLOW
@given(moved_rb_cases(), st.data())
def test_first_rb_failure_matches_reference(case, data):
    n, R, lam = case
    assert first_rb_failure(n, R, lam) is None
    broken = perturbed(data.draw, R.rows)
    assert first_rb_failure(n, Matrix.from_rows(broken), lam) == ref_first_rb_failure(
        n.table, broken, lam)


@SETTINGS
@given(st.sampled_from([make_sl2(), make_table1("r3_lambda", F(1, 3))]), st.data())
def test_first_hom_failure_matches_reference(h, data):
    P = data.draw(bases(h.dim))
    g = change_basis(h, P)  # P maps the basis of g onto that of h
    assert first_hom_failure(P, g, h) is None
    broken = perturbed(data.draw, P.rows)
    assert first_hom_failure(Matrix.from_rows(broken), g, h) == ref_first_hom_failure(
        broken, g.table, h.table)


@SLOW
@given(moved_rb_cases(), st.data())
def test_first_pa_failure_matches_reference(case, data):
    n, R, lam = case
    p = inner_pa_from_rb(RBOperator(n, R.scale(1 / lam), F(1)))
    assert first_pa_failure(p) is None
    coeffs = [[list(e) for e in row] for row in p.coeffs]
    i, j, k = (data.draw(st.integers(0, n.dim - 1)) for _ in range(3))
    coeffs[i][j][k] += data.draw(non_integers)
    broken = PAProduct(p.g, p.n, tuple(tuple(map(tuple, row)) for row in coeffs))
    expected = ref_first_pa_failure(p.g.table, n.table, broken.coeffs)
    assert first_pa_failure(broken) == expected
