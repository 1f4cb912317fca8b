"""End-to-end acceptance suite.

Each test covers one acceptance criterion, checks it exactly (no tolerances),
and prints a single PASS line on success; a failed assertion is the FAIL line.
"""

import random
from fractions import Fraction as F

import pytest

from postlie import cli
from postlie.catalog import (
    ConstraintError,
    automorphisms_for,
    catalog_operators,
    example216_matrix,
    make_sl2,
    make_table1,
    make_type,
    witnesses,
)
from postlie.classify import classify3, j_invariant
from postlie.exactla import Matrix
from postlie.liealg import change_basis, killing_rank
from postlie.pastruct import (
    bracket_tower,
    check_pa_axioms,
    derived_bracket,
    derived_dim_inequality,
    inner_pa_from_rb,
    kernel_dichotomy_check,
    kernel_ideal_checks,
    left_multiplications_are_derivations,
    triple_decomposition,
    triple_decomposition_report,
)
from postlie.rbops import (
    conjugate,
    double_construction,
    is_rb_operator,
    is_split,
    phi_involution,
)

OPS = catalog_operators()
WITNESSES = {w.name: w for w in witnesses()}


def done(k, text):
    print(f"ACCEPTANCE {k}: PASS - {text}")


def test_criterion_01_rb_identity_suite():
    assert len(OPS) >= 12
    for name, op in OPS.items():
        assert is_rb_operator(op.algebra, op.matrix, op.weight), name
    done(1, f"all {len(OPS)} catalog operators satisfy the RB identity exactly")


def test_criterion_02_inner_structure_dichotomy():
    n = make_table1("r2_plus_C")
    rng = random.Random(2024)

    def fr():
        return F(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(10):
        assert is_rb_operator(n, example216_matrix(fr(), 0, fr()), 1)
    hits = 0
    while hits < 10:
        beta = fr()
        if beta == 0:
            continue
        assert not is_rb_operator(n, example216_matrix(fr(), beta, fr()), 1)
        hits += 1
    done(2, "weight-1 RB holds iff beta = 0 on 10 + 10 rational samples")


def test_criterion_03_closure_laws():
    for name, op in OPS.items():
        flipped = phi_involution(op)
        assert is_rb_operator(flipped.algebra, flipped.matrix, flipped.weight), name
        assert phi_involution(flipped).matrix == op.matrix, name
        for psi in automorphisms_for(op.algebra):
            moved = conjugate(op, psi)
            assert is_rb_operator(moved.algebra, moved.matrix, moved.weight), name
    done(3, "involution and 3 conjugations preserve RB for every operator; "
            "involution is involutive")


def test_criterion_04_split_criterion():
    for name, op in OPS.items():
        ident = Matrix.identity(op.matrix.nrows)
        product_zero = (op.matrix * (op.matrix + ident.scale(op.weight))).is_zero()
        assert is_split(op) == product_zero, name
    split_names = ("type1-split-factors", "type3-case2b", "type4-case2a")
    for name in split_names:
        assert is_split(OPS[name]), name
    assert not is_split(OPS["type5-case2c"])
    done(4, "is_split matches R(R+id)=0 everywhere; split outputs pass, "
            "the triangular type-5 witness fails")


def test_criterion_05_pa_axioms():
    for name, op in OPS.items():
        p = inner_pa_from_rb(op)
        assert check_pa_axioms(p), name
        assert left_multiplications_are_derivations(p), name
    done(5, "inner products of all catalog operators satisfy the three "
            "post-Lie axioms")


def test_criterion_06_operator_transfers_to_derived_bracket():
    for name, op in OPS.items():
        g = derived_bracket(op)
        assert is_rb_operator(g, op.matrix, F(1)), name
    done(6, "every operator is again RB on its own derived bracket")


def test_criterion_07_bracket_tower_depth_6():
    for name, op in OPS.items():
        assert kernel_ideal_checks(bracket_tower(op, 6)), name
    done(7, "towers to depth 6 pass Jacobi, homomorphism and kernel-ideal checks")


def test_criterion_08_derived_dim_inequality():
    for name, op in OPS.items():
        assert derived_dim_inequality(bracket_tower(op, 1), 6), name
    done(8, "dim g^(i) <= dim n^(i) for i = 1..6 across the catalog")


def test_criterion_09_triple_decomposition():
    for name, op in OPS.items():
        dec = triple_decomposition(op)
        assert all(triple_decomposition_report(op, dec).values()), name
    dec = triple_decomposition(OPS["type5-case2c"])
    assert (dec.n1.dim, dec.n2.dim, dec.n3.dim) == (3, 2, 1)
    done(9, "triple decompositions verify; type-5 witness has dims (3, 2, 1)")


def test_criterion_10_kernel_dichotomy():
    for name, op in OPS.items():
        report = kernel_dichotomy_check(op)
        assert report.consistent, name
        if not report.fingerprints_equal:
            assert report.dim_ker_r > 0 and report.dim_ker_r_id > 0, name
        if not report.n_fingerprint.solvable:
            assert report.dim_ker_r > 0 or report.dim_ker_r_id > 0, name
    done(10, "kernel dichotomy instances hold for every catalog operator")


def test_criterion_11_occurrence_verification():
    assert cli.main(["verify-thm41", "--all"]) == 0
    assert WITNESSES["type5-case2c"].iso is not None
    assert WITNESSES["type7-case2c"].iso is not None
    done(11, "all 8 types occur; fingerprints match and the two explicit "
             "isomorphisms verify")


def test_criterion_12_exclusions():
    with pytest.raises(ConstraintError):
        make_type(3, lam=-1, mu=-1)
    with pytest.raises(ConstraintError):
        make_type(2, lam=-1)
    for alpha in (0, -1):
        with pytest.raises(ConstraintError):
            make_type(5, alpha=alpha, beta=2)
    with pytest.raises(ConstraintError):
        make_type(7, lam=0, alpha1=1, alpha2=1)
    with pytest.raises(ConstraintError):
        make_type(7, lam=2, alpha1=0, alpha2=1)
    with pytest.raises(ConstraintError):
        make_type(7, lam=2, alpha1=1, alpha2=0)
    with pytest.raises(ConstraintError):
        make_type(7, lam=-1, alpha1=3, alpha2=-4)
    done(12, "excluded parameter tuples raise named-constraint errors")


def test_criterion_13_classify3_robustness():
    rng = random.Random(1234)

    def random_invertible():
        while True:
            m = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(3)]
                                  for _ in range(3)])
            if m.is_invertible():
                return m

    reps = [make_table1(tag) for tag in ("abelian", "n3", "r2_plus_C", "r3", "sl2")]
    reps.append(make_table1("r3_lambda", 2))
    for L in reps:
        expected = classify3(L)
        for _ in range(100):
            assert classify3(change_basis(L, random_invertible())) == expected
    assert classify3(make_table1("r3_lambda", 2)).j_invariant == F(9, 2)
    assert classify3(make_table1("r3_lambda", F(1, 2))).j_invariant == F(9, 2)
    assert j_invariant(2) == j_invariant(F(1, 2)) == F(9, 2)
    done(13, "all six 3-dim classes survive 100 random basis changes; "
             "lambda = 2 and 1/2 share j = 9/2")


def test_criterion_14_double_construction_semisimple():
    sl2 = make_sl2()
    weyl = Matrix.from_columns([(0, 1, 0), (1, 0, 0), (0, 0, -1)])
    for psi in (Matrix.identity(3), weyl):
        for variant in ("nilpotent", "negative"):
            op = double_construction(sl2, psi, variant)
            assert killing_rank(derived_bracket(op)) == 6
    done(14, "double constructions (both variants, two automorphisms) give "
             "semisimple 6-dim derived brackets")
