import random
from fractions import Fraction as F

import pytest

from postlie.catalog import make_sl2, make_sl2sl2, make_table1, make_type, witnesses
from postlie.exactla import Matrix, Subspace, unit_vector, vector
from postlie.liealg import (
    LieAlgebra,
    ad_matrix,
    bilinear,
    bracket,
    center,
    change_basis,
    check_jacobi,
    derived_series,
    direct_sum,
    fingerprint,
    is_ideal,
    is_nilpotent,
    is_semisimple,
    is_solvable,
    is_unimodular,
    jacobi_failure,
    killing_form,
    killing_rank,
    lower_central_series,
    restrict,
    subalgebra_closure,
)
from postlie.pastruct import derived_bracket

R2 = LieAlgebra.from_brackets(2, {(0, 1): [(1, 1)]})


def random_invertible(rng, n):
    while True:
        m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def test_sl2_bracket():
    sl2 = make_sl2()
    assert bracket(sl2, unit_vector(3, 0), unit_vector(3, 1)) == unit_vector(3, 2)
    assert bracket(sl2, unit_vector(3, 0), unit_vector(3, 2)) == vector([-2, 0, 0])


def test_bracket_antisymmetric():
    rng = random.Random(5)
    sl2sl2 = make_sl2sl2()
    for _ in range(20):
        x = vector([rng.randint(-3, 3) for _ in range(6)])
        y = vector([rng.randint(-3, 3) for _ in range(6)])
        assert bracket(sl2sl2, x, x) == (F(0),) * 6
        assert bracket(sl2sl2, x, y) == tuple(-c for c in bracket(sl2sl2, y, x))


def test_jacobi_table1():
    for tag in ("abelian", "n3", "r2_plus_C", "r3", "sl2"):
        assert check_jacobi(make_table1(tag))
    assert check_jacobi(make_table1("r3_lambda", 2))


def test_jacobi_failure_reported():
    bad = LieAlgebra.from_brackets(3, {(0, 1): [(0, 1)], (0, 2): [(1, 1)]})
    assert jacobi_failure(bad) == (0, 1, 2)


def test_from_table_rejects_asymmetry():
    with pytest.raises(ValueError):
        LieAlgebra.from_table(2, [[(0, 0), (0, 1)], [(0, 1), (0, 0)]])


@pytest.mark.parametrize("build", [LieAlgebra.from_brackets, LieAlgebra.from_table])
def test_label_count_must_match_dimension(build):
    table = [[(0, 0), (0, 1)], [(0, -1), (0, 0)]]
    sc = {(0, 1): [(1, 1)]}
    data = sc if build is LieAlgebra.from_brackets else table
    assert build(2, data, ("a", "b")).basis_labels == ("a", "b")
    assert build(2, data).basis_labels == ("e1", "e2")
    for labels in (("a",), ("a", "b", "c")):
        with pytest.raises(ValueError, match="label count"):
            build(2, data, labels)


def test_direct_sum_blocks():
    one = LieAlgebra.abelian(1)
    s = direct_sum(R2, one)
    assert s.table == make_table1("r2_plus_C").table
    sl2 = make_sl2()
    pair = direct_sum(sl2, sl2)
    assert bracket(pair, unit_vector(6, 0), unit_vector(6, 3)) == (F(0),) * 6
    assert bracket(pair, unit_vector(6, 3), unit_vector(6, 4)) == unit_vector(6, 5)


def test_subalgebra_and_ideal():
    n = make_sl2sl2()
    x1x2 = Subspace.from_vectors(6, [unit_vector(6, 0), unit_vector(6, 3)])
    assert subalgebra_closure(n, x1x2)
    assert not is_ideal(n, x1x2)
    factor = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3)])
    assert subalgebra_closure(n, factor)
    assert is_ideal(n, factor)
    assert subalgebra_closure(n, Subspace.full(6))
    assert is_ideal(n, Subspace.full(6))


def test_derived_series():
    assert [s.dim for s in derived_series(R2)] == [2, 1, 0]
    assert [s.dim for s in derived_series(LieAlgebra.abelian(3))] == [3, 0]
    assert [s.dim for s in derived_series(make_sl2())] == [3, 3]


def test_lower_central_series():
    assert [s.dim for s in lower_central_series(make_table1("n3"))] == [3, 1, 0]
    assert [s.dim for s in lower_central_series(R2)] == [2, 1, 1]


def test_series_members_are_ideals():
    for L in (make_sl2sl2(), make_type(4), make_table1("r3")):
        for s in derived_series(L)[1:] + lower_central_series(L)[1:]:
            assert is_ideal(L, s)


def test_center():
    assert center(make_table1("r2_plus_C")).dim == 1
    assert center(make_sl2sl2()).dim == 0
    assert center(make_table1("n3")).dim == 1


def test_killing_form_sl2():
    sl2 = make_sl2()
    k = killing_form(sl2)
    assert k.rows[2][2] == 8
    assert killing_rank(sl2) == 3
    assert is_semisimple(sl2)


def test_killing_abelian():
    a = LieAlgebra.abelian(3)
    assert killing_form(a).is_zero()
    assert not is_semisimple(a)
    assert is_nilpotent(a)


def test_unimodular():
    assert not is_unimodular(make_table1("r3_lambda", 2))
    assert is_unimodular(make_sl2sl2())
    assert is_unimodular(make_table1("r3_lambda", -1))


def test_ad_matrix_trace():
    L = make_table1("r3_lambda", 2)
    assert ad_matrix(L, unit_vector(3, 0)).trace() == 3


def test_fingerprint_examples():
    fp = fingerprint(make_sl2sl2())
    assert (fp.dim, fp.center_dim, fp.killing_rank) == (6, 0, 6)
    assert fp.derived_dims == (6, 6)
    assert fp.unimodular and not fp.solvable

    fp = fingerprint(LieAlgebra.abelian(3))
    assert fp.derived_dims == (3, 0)
    assert fp.nilpotent

    fp = fingerprint(make_type(4))
    assert fp.derived_dims == (6, 3, 0)
    assert fp.center_dim == 0
    assert not fp.unimodular


def test_fingerprint_basis_invariant():
    rng = random.Random(41)
    for L in (make_table1("r3"), make_sl2(), make_table1("r3_lambda", F(1, 2))):
        fp = fingerprint(L)
        for _ in range(30):
            assert fingerprint(change_basis(L, random_invertible(rng, 3))) == fp


def test_semisimple_implies_center_zero_unimodular():
    for L in (make_sl2(), make_sl2sl2()):
        assert is_semisimple(L)
        assert center(L).dim == 0
        assert is_unimodular(L)


def test_direct_sum_derived_dims_add():
    a, b = make_table1("r3"), make_sl2()
    da = [s.dim for s in derived_series(a)]
    db = [s.dim for s in derived_series(b)]
    dsum = [s.dim for s in derived_series(direct_sum(a, b))]
    depth = max(len(da), len(db), len(dsum))

    def pad(xs):
        return xs + [xs[-1]] * (depth - len(xs))

    assert pad(dsum) == [x + y for x, y in zip(pad(da), pad(db))]


def test_restrict():
    n = make_sl2sl2()
    factor = Subspace.from_vectors(6, [unit_vector(6, i) for i in range(3)])
    sub = restrict(n, factor)
    assert is_semisimple(sub) and sub.dim == 3
    with pytest.raises(ValueError):
        restrict(n, Subspace.from_vectors(6, [unit_vector(6, 0), unit_vector(6, 1)]))


def test_solvable_nilpotent_flags():
    assert is_solvable(make_table1("r3"))
    assert not is_nilpotent(make_table1("r3"))
    assert not is_solvable(make_sl2())


def det2_basis(rng, n):
    """Integer basis of determinant +-2: (unit lower)(upper with one diagonal 2),
    columns shuffled."""
    two = rng.randrange(n)
    lower = Matrix.from_rows([[1 if r == c else rng.randint(-1, 1) if r > c else 0
                               for c in range(n)] for r in range(n)])
    upper = Matrix.from_rows([[(2 if r == two else 1) if r == c
                               else rng.randint(-1, 1) if c > r else 0
                               for c in range(n)] for r in range(n)])
    cols = list((lower * upper).transpose().rows)
    rng.shuffle(cols)
    return Matrix.from_columns(cols)


def definition_algebras():
    """Every witness's n, derived bracket and target, the six 3-dim classes,
    and each of them moved to a seeded det +-2 basis."""
    rng = random.Random(2024)
    algs = {}
    for w in witnesses():
        for L in (w.operator.algebra, derived_bracket(w.operator), w.target):
            algs[L] = None
    for tag in ("abelian", "n3", "r2_plus_C", "r3", "sl2"):
        algs[make_table1(tag)] = None
    algs[make_table1("r3_lambda", F(-2, 3))] = None
    base = list(algs)
    for L in base:
        P = det2_basis(rng, L.dim)
        assert abs(P.det()) == 2
        algs[change_basis(L, P)] = None
    return list(algs)


def test_killing_form_and_unimodularity_match_ad_definition():
    for L in definition_algebras():
        ads = [ad_matrix(L, unit_vector(L.dim, i)) for i in range(L.dim)]
        assert killing_form(L) == Matrix.from_rows(
            [[(a * b).trace() for b in ads] for a in ads])
        assert is_unimodular(L) == all(a.trace() == 0 for a in ads)


def test_bilinear_and_bracket_accept_int_fraction_and_string_coordinates():
    n = make_sl2sl2()
    x, y = [1, 0, -2, 3, 0, 1], [0, 2, 1, -1, 4, 0]
    inputs = (
        (x, y),
        ([F(c) for c in x], [F(c) for c in y]),
        (["1", "0/5", "-4/2", "3", "0", "2/2"], ["0", "2", "1", "-1", "8/2", "0"]),
    )
    results = [r for a, b in inputs for r in (bilinear(n.table, a, b), bracket(n, a, b))]
    assert all(r == results[0] for r in results)
    assert all(type(r) is tuple and all(type(c) is F for c in r) for r in results)
    assert any(results[0])


def test_change_basis_rejects_singular_and_wrong_shape():
    n = make_sl2()
    message = "basis change must be an invertible dim x dim matrix"
    singular = Matrix.from_rows([[1, 2, 0], [2, 4, 0], [0, 0, 1]])
    for P in (singular, Matrix.identity(2), Matrix.from_rows([[1, 0, 0], [0, 1, 0]])):
        with pytest.raises(ValueError, match=message):
            change_basis(n, P)
