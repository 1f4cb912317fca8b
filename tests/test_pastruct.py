from fractions import Fraction as F

import pytest

from postlie.catalog import make_sl2, make_sl2sl2, witnesses
from postlie.exactla import Matrix, Subspace, kernel, unit_vector
from postlie.liealg import (
    bracket,
    derived_series,
    fingerprint,
    first_hom_failure,
    is_ideal,
    restrict,
)
from postlie.pastruct import (
    PAProduct,
    bracket_tower,
    check_pa_axioms,
    derived_bracket,
    derived_dim_inequality,
    first_pa_failure,
    inner_pa_from_rb,
    kernel_dichotomy_check,
    kernel_ideal_checks,
    left_multiplications_are_derivations,
    triple_decomposition,
    triple_decomposition_report,
)
from postlie.rbops import RBOperator, split_operator, verified_operator

SL2 = make_sl2()
N6 = make_sl2sl2()


def zero_op(L):
    return verified_operator(L, Matrix.zero(L.dim, L.dim), 1)


def neg_op(L):
    return verified_operator(L, Matrix.identity(L.dim).scale(-1), 1)


def case2a_operator():
    a1 = Subspace.from_vectors(6, [unit_vector(6, i) for i in (0, 2, 3, 5)])
    a2 = Subspace.from_vectors(6, [unit_vector(6, 1), (0, 0, 1, 0, 1, 0)])
    return split_operator(N6, a1, a2, 1)


def case2b_operator():
    a1 = Subspace.from_vectors(6, [unit_vector(6, 0), unit_vector(6, 3),
                                   (0, 0, 1, 0, 0, -1)])
    a2 = Subspace.from_vectors(6, [unit_vector(6, 1), unit_vector(6, 4),
                                   (0, 0, 1, 0, 0, 2)])
    return split_operator(N6, a1, a2, 1)


def test_derived_bracket_zero_operator():
    g = derived_bracket(zero_op(N6))
    assert g.table == N6.table


def test_derived_bracket_negative_identity():
    g = derived_bracket(neg_op(N6))
    assert g.table == tuple(tuple(tuple(-c for c in v) for v in row)
                            for row in N6.table)


def test_derived_bracket_requires_weight_one():
    with pytest.raises(ValueError):
        derived_bracket(verified_operator(N6, Matrix.zero(6, 6), 2))


def test_inner_pa_zero():
    p = inner_pa_from_rb(zero_op(N6))
    assert all(all(c == (F(0),) * 6 for c in row) for row in p.coeffs)
    assert check_pa_axioms(p)


def test_inner_pa_negative_identity():
    p = inner_pa_from_rb(neg_op(N6))
    assert check_pa_axioms(p)
    for i in range(6):
        for j in range(6):
            assert p.coeffs[i][j] == tuple(-c for c in N6.table[i][j])


def test_inner_pa_case2b():
    p = inner_pa_from_rb(case2b_operator())
    assert check_pa_axioms(p)
    assert left_multiplications_are_derivations(p)


def test_corrupted_product_fails():
    p = inner_pa_from_rb(case2a_operator())
    coeffs = [list(row) for row in p.coeffs]
    bumped = list(coeffs[0][1])
    bumped[0] += 1
    coeffs[0][1] = tuple(bumped)
    broken = PAProduct(p.g, p.n, tuple(tuple(row) for row in coeffs))
    assert first_pa_failure(broken) is not None
    assert not check_pa_axioms(broken)


@pytest.mark.parametrize("x, y", [
    ([1, 0, 0], [0, 1]),
    ([1, 0, 0], [0, 1, 0, 0]),
    ([1, 0], [0, 1, 0]),
    ([1, 0, 0, 0], [0, 1, 0]),
])
def test_bracket_and_pa_product_reject_wrong_lengths(x, y):
    p = PAProduct(SL2, SL2, SL2.table)
    for product in (lambda a, b: bracket(SL2, a, b), p.product):
        with pytest.raises(ValueError, match="dimension mismatch"):
            product(x, y)


def test_case2b_derived_bracket_fingerprint():
    g = derived_bracket(case2b_operator())
    assert [s.dim for s in derived_series(g)] == [6, 4, 0]
    fp = fingerprint(g)
    assert fp.solvable and not fp.nilpotent


def test_bracket_tower_zero_and_negative():
    tower = bracket_tower(zero_op(N6), 4)
    assert all(level.table == N6.table for level in tower.levels)
    tower = bracket_tower(neg_op(N6), 4)
    opposite = tuple(tuple(tuple(-c for c in v) for v in row) for row in N6.table)
    assert [level.table for level in tower.levels] == [
        N6.table, opposite, N6.table, opposite, N6.table]


def test_bracket_tower_case2a():
    op = case2a_operator()
    tower = bracket_tower(op, 6)
    assert tower.levels[1].table == derived_bracket(op).table
    assert len(tower.levels) == 7


def test_derived_dim_inequality():
    assert derived_dim_inequality(bracket_tower(zero_op(N6), 1), 6)
    assert derived_dim_inequality(bracket_tower(case2b_operator(), 1), 6)


def test_kernel_ideal_checks():
    op = case2a_operator()
    a1 = Subspace.from_vectors(6, [unit_vector(6, i) for i in (0, 2, 3, 5)])
    assert kernel(op.matrix) == a1
    assert is_ideal(derived_bracket(op), a1)
    assert kernel_ideal_checks(bracket_tower(op, 2))
    assert kernel_ideal_checks(bracket_tower(neg_op(N6), 3))


def test_triple_decomposition_zero():
    dec = triple_decomposition(zero_op(N6))
    assert (dec.n1.dim, dec.n2.dim, dec.n3.dim) == (6, 0, 0)


def test_triple_decomposition_split():
    op = case2b_operator()
    dec = triple_decomposition(op)
    a1 = Subspace.from_vectors(6, [unit_vector(6, 0), unit_vector(6, 3),
                                   (0, 0, 1, 0, 0, -1)])
    a2 = Subspace.from_vectors(6, [unit_vector(6, 1), unit_vector(6, 4),
                                   (0, 0, 1, 0, 0, 2)])
    assert dec.n1 == a1 and dec.n2 == a2 and dec.n3.dim == 0
    report = triple_decomposition_report(op, dec)
    assert all(report.values())


def test_triple_decomposition_type5_witness():
    w = next(w for w in witnesses() if w.name == "type5-case2c")
    dec = triple_decomposition(w.operator)
    assert (dec.n1.dim, dec.n2.dim, dec.n3.dim) == (3, 2, 1)
    n3_alg = restrict(w.operator.algebra, dec.n3)
    assert [s.dim for s in derived_series(n3_alg)] == [1, 0]


def test_decomposition_stable_across_tower_levels():
    op = case2a_operator()
    dec0 = triple_decomposition(op)
    for level in bracket_tower(op, 3).levels[1:]:
        dec = triple_decomposition(RBOperator(level, op.matrix, F(1)))
        assert (dec.n1, dec.n2, dec.n3) == (dec0.n1, dec0.n2, dec0.n3)


def test_kernel_dichotomy():
    rep = kernel_dichotomy_check(neg_op(N6))
    assert rep.consistent
    assert rep.dim_ker_r == 0 and rep.dim_ker_r_id == 6
    assert rep.fingerprints_equal

    rep = kernel_dichotomy_check(case2b_operator())
    assert rep.consistent
    assert not rep.fingerprints_equal
    assert rep.dim_ker_r == 3 and rep.dim_ker_r_id == 3

    from postlie.rbops import double_construction
    rep = kernel_dichotomy_check(
        double_construction(SL2, Matrix.identity(3), "nilpotent"))
    assert rep.consistent
    assert rep.dim_ker_r == 3 and rep.dim_ker_r_id == 0
    assert not rep.n_solvable


def test_first_hom_failure_names_the_first_pair():
    # 2 [X1, Y1] = 2 H1 but [2 X1, 2 Y1] = 4 H1.
    assert first_hom_failure(Matrix.identity(6).scale(2), N6, N6) == (0, 1)
    assert first_hom_failure(Matrix.identity(6), N6, N6) is None


def test_corrupted_product_breaks_the_derivation_axiom():
    p = inner_pa_from_rb(case2a_operator())
    assert left_multiplications_are_derivations(p)
    coeffs = [list(row) for row in p.coeffs]
    bumped = list(coeffs[0][1])
    bumped[0] += 1
    coeffs[0][1] = tuple(bumped)
    broken = PAProduct(p.g, p.n, tuple(tuple(row) for row in coeffs))
    assert not left_multiplications_are_derivations(broken)
