import random
from dataclasses import replace
from fractions import Fraction as F

import pytest

from postlie import pastruct
from postlie.catalog import (
    SUBALGEBRA_ROWS,
    ConstraintError,
    Witness,
    automorphisms_for,
    catalog_operators,
    example216_matrix,
    make_sl2,
    make_sl2sl2,
    make_subalgebra,
    make_table1,
    make_type,
    table_rows_sampled,
    verify_witness,
    witnesses,
)
from postlie.classify import classify3
from postlie.exactla import Matrix, Subspace, unit_vector, vector
from postlie.liealg import (
    bracket,
    check_jacobi,
    derived_series,
    direct_sum,
    fingerprint,
    is_semisimple,
    restrict,
    subalgebra_closure,
)
from postlie.pastruct import derived_bracket
from postlie.rbops import (
    RBOperator,
    enumerate_split_operators,
    is_lie_automorphism,
    is_rb_operator,
)

N6 = make_sl2sl2()


def test_make_sl2sl2_brackets():
    assert bracket(N6, unit_vector(6, 0), unit_vector(6, 1)) == unit_vector(6, 2)
    assert bracket(N6, unit_vector(6, 2), unit_vector(6, 0)) == vector([2, 0, 0, 0, 0, 0])
    assert bracket(N6, unit_vector(6, 2), unit_vector(6, 1)) == vector([0, -2, 0, 0, 0, 0])
    assert bracket(N6, unit_vector(6, 3), unit_vector(6, 4)) == unit_vector(6, 5)
    assert bracket(N6, unit_vector(6, 5), unit_vector(6, 3)) == vector([0, 0, 0, 2, 0, 0])
    assert bracket(N6, unit_vector(6, 5), unit_vector(6, 4)) == vector([0, 0, 0, 0, -2, 0])
    assert N6.basis_labels == ("X1", "Y1", "H1", "X2", "Y2", "H2")
    assert bracket(N6, unit_vector(6, 0), unit_vector(6, 3)) == (F(0),) * 6
    assert is_semisimple(N6)


def test_make_table1_r3():
    r3 = make_table1("r3")
    assert bracket(r3, unit_vector(3, 0), unit_vector(3, 2)) == vector([0, 1, 1])


def test_make_table1_errors():
    with pytest.raises(ConstraintError):
        make_table1("r3_lambda")
    with pytest.raises(ConstraintError):
        make_table1("r3_lambda", 0)
    with pytest.raises(ValueError):
        make_table1("r3", 2)
    with pytest.raises(ValueError):
        make_table1("nope")


def test_all_table_rows_are_subalgebras():
    for row, params, space in table_rows_sampled():
        assert subalgebra_closure(N6, space), (row, params)
        assert space.dim == SUBALGEBRA_ROWS[row][1], (row, params)


def test_table_row_isomorphism_types():
    row_types = {}
    for row, params, space in table_rows_sampled():
        tag = SUBALGEBRA_ROWS[row][2]
        sub = restrict(N6, space)
        if tag == "C":
            assert sub.dim == 1
        elif tag == "C2":
            assert [s.dim for s in derived_series(sub)] == [2, 0]
        elif tag == "r2":
            assert [s.dim for s in derived_series(sub)] == [2, 1, 0]
        elif tag == "r3_lambda":
            cls = classify3(sub)
            assert cls.tag == "r3_lambda"
            lam = params["l"]
            assert cls.j_invariant == (1 + lam) ** 2 / lam if lam != 0 else True
        elif tag == "r2_plus_C":
            assert classify3(sub).tag == "r2_plus_C"
        elif tag == "sl2":
            assert classify3(sub).tag == "sl2"
        elif tag == "r2+r2":
            assert [s.dim for s in derived_series(sub)] == [4, 2, 0]
            assert fingerprint(sub).center_dim == 0
        elif tag == "sl2+C":
            assert fingerprint(sub).killing_rank == 3
        elif tag == "sl2+r2":
            assert fingerprint(sub).killing_rank == 4
        row_types[row] = tag
    assert len(row_types) == 20


def test_make_subalgebra_errors():
    with pytest.raises(ValueError):
        make_subalgebra("nope")
    with pytest.raises(ValueError):
        make_subalgebra("H1+aH2")
    with pytest.raises(ConstraintError):
        make_subalgebra("H1+aH2", a=0)
    with pytest.raises(ConstraintError):
        make_subalgebra("X1,X2,H1+lH2", l=0)


def test_make_subalgebra_reads_generators_from_row_id():
    def span(*vectors):
        return Subspace.from_vectors(6, [vector(v) for v in vectors])

    assert make_subalgebra("X1,H1+aH2", a=2) == span((1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 2))
    assert make_subalgebra("X1,X2,H1+lH2", l=3) == span(
        (1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 3))
    assert make_subalgebra("X1+X2,H1+H2") == span((1, 0, 0, 1, 0, 0), (0, 0, 1, 0, 0, 1))
    assert make_subalgebra("diagonal") == span(
        (1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1))


def test_make_type_jacobi_random_params():
    rng = random.Random(71)

    def fr():
        return F(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(5):
        assert check_jacobi(make_type(1))
        lam = fr()
        while lam == -1:
            lam = fr()
        assert check_jacobi(make_type(2, lam=lam))
        mu = fr()
        if lam == -1 and mu == -1:
            mu = 2
        assert check_jacobi(make_type(3, lam=lam, mu=mu))
        assert check_jacobi(make_type(4))
        a, b = fr(), fr()
        while a in (0, -1):
            a = fr()
        while b in (0, -1):
            b = fr()
        assert check_jacobi(make_type(5, alpha=a, beta=b))
        l6 = fr()
        while l6 == 0:
            l6 = fr()
        assert check_jacobi(make_type(6, lam=l6, alpha=a))
        a1, a2 = fr(), fr()
        while a1 == 0:
            a1 = fr()
        while a2 == 0 or (l6 == -1 and a2 == -a1 - 1):
            a2 = fr()
        assert check_jacobi(make_type(7, lam=l6, alpha1=a1, alpha2=a2))
        a4, a7 = a, b
        while a1 * a2 == 1:
            a1 = fr()
        assert check_jacobi(make_type(8, variant="a", alpha1=a1, alpha2=a2,
                                      alpha4=a4, alpha7=a7))
        a1b = fr()
        while a1b in (0, 1):
            a1b = fr()
        a3 = fr()
        while a3 - a1b * a2 == 0:
            a3 = fr()
        assert check_jacobi(make_type(8, variant="b", alpha1=a1b, alpha2=a2,
                                      alpha3=a3))


def test_make_type_constraints():
    with pytest.raises(ConstraintError, match="lam != -1"):
        make_type(2, lam=-1)
    with pytest.raises(ConstraintError, match=r"\(lam, mu\) != \(-1, -1\)"):
        make_type(3, lam=-1, mu=-1)
    with pytest.raises(ConstraintError, match="alpha not in"):
        make_type(5, alpha=0, beta=2)
    with pytest.raises(ConstraintError, match="alpha not in"):
        make_type(5, alpha=-1, beta=2)
    with pytest.raises(ConstraintError, match="beta not in"):
        make_type(5, alpha=2, beta=0)
    with pytest.raises(ConstraintError, match="lam != 0"):
        make_type(6, lam=0, alpha=2)
    with pytest.raises(ConstraintError, match="lam != 0"):
        make_type(7, lam=0, alpha1=1, alpha2=1)
    with pytest.raises(ConstraintError, match="alpha1, alpha2 != 0"):
        make_type(7, lam=2, alpha1=0, alpha2=1)
    with pytest.raises(ConstraintError, match="excludes"):
        make_type(7, lam=-1, alpha1=2, alpha2=-3)
    with pytest.raises(ConstraintError, match="alpha1\\*alpha2 != 1"):
        make_type(8, variant="a", alpha1=2, alpha2=F(1, 2), alpha4=1, alpha7=1)
    with pytest.raises(ConstraintError, match="alpha3 - alpha1\\*alpha2 != 0"):
        make_type(8, variant="b", alpha1=2, alpha2=1, alpha3=2)
    with pytest.raises(ValueError):
        make_type(8, alpha1=2, alpha2=1, alpha3=4)
    with pytest.raises(ValueError):
        make_type(9)


def test_witness_coverage():
    types = {w.target_type for w in witnesses()}
    assert types == {"1", "2", "3", "4", "5", "6", "7", "8a", "8b"}
    assert len(catalog_operators()) >= 12


def test_all_witnesses_verify():
    for w in witnesses():
        report = verify_witness(w)
        assert report.ok, (w.name, report.steps)


def test_witness_targets_satisfy_jacobi():
    for w in witnesses():
        assert check_jacobi(w.target), w.name


def test_type2_and_type3_summand_classes():
    by_name = {w.name: w for w in witnesses()}
    g = derived_bracket(by_name["type2-triangular"].operator)
    tail = Subspace.from_vectors(6, [unit_vector(6, i) for i in (3, 4, 5)])
    cls = classify3(restrict(g, tail))
    assert cls.tag == "r3_lambda"
    assert cls.j_invariant == (1 + F(-2, 3)) ** 2 / F(-2, 3)

    w = by_name["type3-case2b"]
    g = derived_bracket(w.operator)
    a1 = Subspace.from_vectors(6, [unit_vector(6, 0), unit_vector(6, 3),
                                   (0, 0, 1, 0, 0, -1)])
    a2 = Subspace.from_vectors(6, [unit_vector(6, 1), unit_vector(6, 4),
                                   (0, 0, 1, 0, 0, 2)])
    assert classify3(restrict(g, a1)).j_invariant == F(0)
    assert classify3(restrict(g, a2)).j_invariant == F(9, 2)


def test_automorphisms_are_automorphisms():
    sl2 = make_sl2()
    for L in (N6, sl2, direct_sum(sl2, sl2), make_table1("r2_plus_C")):
        auts = automorphisms_for(L)
        assert len(auts) == 3
        for psi in auts:
            assert is_lie_automorphism(L, psi)
    assert automorphisms_for(direct_sum(sl2, sl2)) == automorphisms_for(N6)
    with pytest.raises(ValueError):
        automorphisms_for(make_table1("r3"))


def test_example216_matrix():
    n = make_table1("r2_plus_C")
    assert is_rb_operator(n, example216_matrix(1, 0, 1), 1)
    assert not is_rb_operator(n, example216_matrix(0, 3, 2), 1)


def test_no_split_yields_unimodular_type3_pair():
    # Over the sampled table rows, no split operator has a derived bracket
    # matching the excluded direct sum of two opposite-weight 3-dim algebras.
    excluded = direct_sum(make_table1("r3_lambda", -1), make_table1("r3_lambda", -1))
    fp = fingerprint(excluded)
    rows = [s for _, _, s in table_rows_sampled()]
    ops = enumerate_split_operators(N6, rows)
    assert ops
    for op in ops:
        assert fingerprint(derived_bracket(op)) != fp


CORE_STEPS = ("rb_identity", "derived_bracket_jacobi", "kernel_ideals_depth2",
              "derived_dim_inequality_depth6", "triple_decomposition",
              "fingerprint_match")


def failing_steps(w):
    return [name for name, ok in verify_witness(w).steps if not ok]


def test_verify_witness_non_rb_operator_fails_every_step():
    # 2*id is not RB of weight 1 on sl2 + sl2 (t*id is RB iff t^2 + t = 0).
    op = RBOperator(N6, Matrix.identity(6).scale(2), F(1))
    report = verify_witness(Witness("two-id", op, "1", make_type(1)))
    assert report.steps == tuple((name, False) for name in CORE_STEPS)


def test_verify_witness_step_names_depend_only_on_iso():
    # A failing operator that carries an iso still reports the iso step.
    op = RBOperator(N6, Matrix.identity(6).scale(2), F(1))
    w = Witness("two-id", op, "1", make_type(1), iso=Matrix.identity(6))
    assert verify_witness(w).steps == tuple(
        (name, False) for name in CORE_STEPS + ("explicit_isomorphism",))


def test_verify_witness_wrong_target_fails_only_the_fingerprint():
    w = next(w for w in witnesses() if w.name == "type1-zero")
    assert failing_steps(replace(w, target=make_type(4))) == ["fingerprint_match"]


def test_verify_witness_wrong_iso_fails_only_the_iso_step():
    w = next(w for w in witnesses() if w.name == "type5-case2c")
    assert failing_steps(replace(w, iso=Matrix.identity(6))) == ["explicit_isomorphism"]


def test_verify_witness_derives_each_bracket_once(monkeypatch):
    calls = []
    derive = pastruct.derived_bracket

    def counted(op):
        calls.append(op)
        return derive(op)

    monkeypatch.setattr(pastruct, "derived_bracket", counted)
    w = next(w for w in witnesses() if w.name == "type5-case2c")
    assert verify_witness(w).ok
    assert len(calls) == 2
    calls.clear()
    op = RBOperator(N6, Matrix.identity(6).scale(2), F(1))
    assert not verify_witness(Witness("two-id", op, "1", make_type(1))).ok
    assert calls == []
