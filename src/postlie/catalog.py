"""Builtin algebras, subalgebras, operators and the classification witnesses.

Everything here is deterministic: parameters are small rationals chosen to
satisfy every strict inequality with margin, so the test suite is exact and
reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .classify import is_lie_isomorphism
from .exactla import Matrix, Subspace, Vector, coordinates
from .liealg import LieAlgebra, direct_sum, fingerprint
from .pastruct import (
    bracket_tower,
    derived_dim_inequality,
    kernel_ideal_checks,
    triple_decomposition,
)
from .rbops import (
    RBOperator,
    TriangularSplitSpec,
    diagonal_sum,
    double_construction,
    is_rb_operator,
    split_operator,
    triangular_split,
)

F = Fraction


class ConstraintError(ValueError):
    """A named parameter constraint of the classification is violated."""


# ---------------------------------------------------------------------------
# Base algebras
# ---------------------------------------------------------------------------

def make_sl2() -> LieAlgebra:
    """sl2 in the 3-dim table basis: [e1,e2]=e3, [e1,e3]=-2e1, [e2,e3]=2e2."""
    return LieAlgebra.from_brackets(3, {
        (0, 1): [(2, 1)],
        (0, 2): [(0, -2)],
        (1, 2): [(1, 2)],
    })


# Basis order (X1, Y1, H1, X2, Y2, H2): two table-basis sl2 copies, which are
# the 4x4 matrix commutators of X_i = E_{2i-1,2i}, Y_i = E_{2i,2i-1},
# H_i = E_{2i-1,2i-1} - E_{2i,2i}.
_SL2SL2_LABELS = ("X1", "Y1", "H1", "X2", "Y2", "H2")


def make_sl2sl2() -> LieAlgebra:
    return LieAlgebra(6, direct_sum(make_sl2(), make_sl2()).table, _SL2SL2_LABELS)


_TABLE1_TAGS = ("abelian", "n3", "r2_plus_C", "r3", "r3_lambda", "sl2")


def make_table1(tag: str, lam=None) -> LieAlgebra:
    """The six 3-dimensional classes, with the family parameter where needed."""
    if tag not in _TABLE1_TAGS:
        raise ValueError(f"unknown 3-dim class tag {tag!r}")
    if tag == "r3_lambda":
        if lam is None or F(lam) == 0:
            raise ConstraintError("r3_lambda requires a nonzero lambda")
        return LieAlgebra.from_brackets(3, {(0, 1): [(1, 1)], (0, 2): [(2, F(lam))]})
    if lam is not None:
        raise ValueError(f"class {tag!r} takes no parameter")
    if tag == "abelian":
        return LieAlgebra.abelian(3)
    if tag == "n3":
        return LieAlgebra.from_brackets(3, {(0, 1): [(2, 1)]})
    if tag == "r2_plus_C":
        return LieAlgebra.from_brackets(3, {(0, 1): [(1, 1)]})
    if tag == "r3":
        return LieAlgebra.from_brackets(3, {(0, 1): [(1, 1)], (0, 2): [(1, 1), (2, 1)]})
    return make_sl2()


# ---------------------------------------------------------------------------
# Subalgebras of sl2 + sl2 (the Douglas-Repka representatives)
# ---------------------------------------------------------------------------

def _vec(**parts) -> Vector:
    v = [F(0)] * 6
    for label, c in parts.items():
        v[_SL2SL2_LABELS.index(label)] = F(c)
    return tuple(v)


def _span(*vectors: Vector) -> Subspace:
    return Subspace.from_vectors(6, vectors)


# row id -> (required parameter name or None, expected dimension, iso type tag)
SUBALGEBRA_ROWS = {
    "X1": (None, 1, "C"),
    "H1": (None, 1, "C"),
    "X1+X2": (None, 1, "C"),
    "X1+H2": (None, 1, "C"),
    "H1+aH2": ("a", 1, "C"),
    "X1,X2": (None, 2, "C2"),
    "X1,H2": (None, 2, "C2"),
    "H1,H2": (None, 2, "C2"),
    "X1+X2,H1+H2": (None, 2, "r2"),
    "X1,H1+X2": (None, 2, "r2"),
    "X1,H1+aH2": ("a", 2, "r2"),
    "X1,X2,H1+lH2": ("l", 3, "r3_lambda"),
    "X1,H1,H2": (None, 3, "r2_plus_C"),
    "X1,H1,X2": (None, 3, "r2_plus_C"),
    "X1,H1,X2,H2": (None, 4, "r2+r2"),
    "X1,Y1,H1": (None, 3, "sl2"),
    "diagonal": (None, 3, "sl2"),
    "X1,Y1,H1,H2": (None, 4, "sl2+C"),
    "X1,Y1,H1,X2": (None, 4, "sl2+C"),
    "X1,Y1,H1,X2,H2": (None, 5, "sl2+r2"),
}


def make_subalgebra(row: str, **params) -> Subspace:
    """Representative subalgebra of sl2 + sl2 by table row id."""
    if row not in SUBALGEBRA_ROWS:
        raise ValueError(f"unknown subalgebra row {row!r}")
    pname = SUBALGEBRA_ROWS[row][0]
    if pname is not None and pname not in params:
        raise ValueError(f"row {row!r} requires parameter {pname!r}")
    a = F(params[pname]) if pname else None
    if row == "H1+aH2" and a == 0:
        raise ConstraintError("row 'H1+aH2' requires a != 0")
    if row == "X1,X2,H1+lH2" and a == 0:
        raise ConstraintError("row 'X1,X2,H1+lH2' requires l != 0")
    if row == "diagonal":
        return _span(_vec(X1=1, X2=1), _vec(Y1=1, Y2=1), _vec(H1=1, H2=1))
    # Every other row id lists its generators: each label has two characters,
    # and a one-letter prefix is the row parameter ("H1+aH2" is H1 + a*H2).
    return _span(*(_vec(**{t[-2:]: a if len(t) == 3 else 1 for t in gen.split("+")})
                   for gen in row.split(",")))


def table_rows_sampled() -> list[tuple[str, dict, Subspace]]:
    """Every table row, parametric ones at a in {1, 2, -1} (l nonzero only)."""
    out = []
    for row, (pname, _, _) in SUBALGEBRA_ROWS.items():
        if pname is None:
            out.append((row, {}, make_subalgebra(row)))
        else:
            for a in (1, 2, -1):
                out.append((row, {pname: F(a)}, make_subalgebra(row, **{pname: a})))
    return out


# ---------------------------------------------------------------------------
# The eight target families of the 6-dimensional classification
# ---------------------------------------------------------------------------

def make_type(k, **params) -> LieAlgebra:
    """Explicit 6-dim target algebra of the given type at the given parameters."""
    p = {key: F(val) for key, val in params.items() if key != "variant"}
    if k == 1:
        return make_sl2sl2()
    if k == 2:
        lam = p["lam"]
        if lam == -1:
            raise ConstraintError("type (2) requires lam != -1")
        return LieAlgebra.from_brackets(6, {
            (0, 1): [(2, 1)], (0, 2): [(0, -2)], (1, 2): [(1, 2)],
            (3, 4): [(4, 1)], (3, 5): [(5, lam)],
        })
    if k == 3:
        lam, mu = p["lam"], p["mu"]
        if lam == -1 and mu == -1:
            raise ConstraintError("type (3) requires (lam, mu) != (-1, -1)")
        return LieAlgebra.from_brackets(6, {
            (0, 1): [(1, 1)], (0, 2): [(2, lam)],
            (3, 4): [(4, 1)], (3, 5): [(5, mu)],
        })
    if k == 4:
        return LieAlgebra.from_brackets(6, {
            (0, 1): [(1, 1)], (2, 3): [(3, 1)], (4, 5): [(5, 1)],
        })
    if k == 5:
        alpha, beta = p["alpha"], p["beta"]
        if alpha in (0, -1):
            raise ConstraintError("type (5) requires alpha not in {0, -1}")
        if beta in (0, -1):
            raise ConstraintError("type (5) requires beta not in {0, -1}")
        return LieAlgebra.from_brackets(6, {
            (0, 1): [(0, 1)], (2, 5): [(2, 1)], (3, 5): [(3, alpha)],
            (4, 5): [(4, beta)],
        })
    if k == 6:
        lam, alpha = p["lam"], p["alpha"]
        if lam == 0:
            raise ConstraintError("type (6) requires lam != 0")
        if alpha in (0, -1):
            raise ConstraintError("type (6) requires alpha not in {0, -1}")
        return LieAlgebra.from_brackets(6, {
            (1, 3): [(1, 1)], (2, 3): [(2, lam)], (2, 5): [(2, 1)],
            (4, 5): [(4, alpha)],
        })
    if k == 7:
        lam, a1, a2 = p["lam"], p["alpha1"], p["alpha2"]
        if lam == 0:
            raise ConstraintError("type (7) requires lam != 0")
        if a1 == 0 or a2 == 0:
            raise ConstraintError("type (7) requires alpha1, alpha2 != 0")
        if lam == -1 and a2 == -a1 - 1:
            raise ConstraintError(
                "type (7) excludes (lam, alpha1, alpha2) = (-1, alpha1, -alpha1-1)")
        return LieAlgebra.from_brackets(6, {
            (0, 2): [(0, 1)], (1, 2): [(1, lam)], (1, 5): [(1, a1)],
            (3, 5): [(3, 1)], (4, 5): [(4, a2)],
        })
    if k == 8:
        variant = params.get("variant")
        if variant == "a":
            a1, a2, a4, a7 = p["alpha1"], p["alpha2"], p["alpha4"], p["alpha7"]
            if a1 * a2 == 1:
                raise ConstraintError("type (8a) requires alpha1*alpha2 != 1")
            if a4 in (0, -1) or a7 in (0, -1):
                raise ConstraintError("type (8a) requires alpha4, alpha7 not in {0, -1}")
            a3, a5, a6 = F(1), a1 * a7, a2 * a4
        elif variant == "b":
            a1, a2, a3 = p["alpha1"], p["alpha2"], p["alpha3"]
            if a3 - a1 * a2 == 0:
                raise ConstraintError("type (8b) requires alpha3 - alpha1*alpha2 != 0")
            if a1 in (0, 1):
                raise ConstraintError("type (8b) requires alpha1 not in {0, 1}")
            a4, a5 = a1 - 1, -a1
            a6 = a2 * (a1 - 1)
            a7 = a1 * a3 - a1 * a1 * a2 - a3
        else:
            raise ValueError("type (8) requires variant 'a' or 'b'")
        return LieAlgebra.from_brackets(6, {
            (0, 4): [(0, 1)], (1, 4): [(1, a2)], (2, 4): [(2, a4)], (3, 4): [(3, a6)],
            (0, 5): [(0, a1)], (1, 5): [(1, a3)], (2, 5): [(2, a5)], (3, 5): [(3, a7)],
        })
    raise ValueError(f"unknown type {k}")


# ---------------------------------------------------------------------------
# Automorphisms used for conjugation checks
# ---------------------------------------------------------------------------

def _sl2_swap() -> Matrix:
    # e1 <-> e2, e3 -> -e3 in the 3-dim table basis.
    return Matrix.from_columns([(0, 1, 0), (1, 0, 0), (0, 0, -1)])


def _sl2_torus(t) -> Matrix:
    t = F(t)
    return Matrix.from_columns([(t, 0, 0), (0, 1 / t, 0), (0, 0, 1)])


def sl2_automorphisms() -> list[Matrix]:
    return [_sl2_swap(), _sl2_torus(2), _sl2_torus(3)]


def sl2sl2_automorphisms() -> list[Matrix]:
    """Factor swap, first-factor Weyl flip, first-factor torus scaling."""
    zero = Matrix.zero(3, 3)
    ident = Matrix.identity(3)
    swap = Matrix.from_blocks([[zero, ident], [ident, zero]])
    return [swap, Matrix.block_diag(_sl2_swap(), ident),
            Matrix.block_diag(_sl2_torus(2), ident)]


def r2c_automorphisms() -> list[Matrix]:
    """Automorphisms of r2 + C ({e1,e2} = e2, e3 central)."""
    return [
        Matrix.from_columns([(1, 1, 0), (0, 1, 0), (0, 0, 1)]),   # e1 -> e1 + e2
        Matrix.from_columns([(1, 0, 0), (0, 2, 0), (0, 0, 1)]),   # e2 -> 2 e2
        Matrix.from_columns([(1, 0, 0), (0, 1, 0), (0, 0, 3)]),   # e3 -> 3 e3
    ]


def automorphisms_for(L: LieAlgebra) -> list[Matrix]:
    """Three verified automorphisms for each algebra carrying catalog operators."""
    if L.table == make_sl2sl2().table:  # any labelling of sl2 + sl2
        return sl2sl2_automorphisms()
    if L == make_table1("r2_plus_C"):
        return r2c_automorphisms()
    if L == make_sl2():
        return sl2_automorphisms()
    raise ValueError("no stored automorphisms for this algebra")


# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

def example216_matrix(alpha, beta, gamma) -> Matrix:
    """The inner-structure endomorphism on r2 + C; RB of weight 1 iff beta = 0."""
    return Matrix.from_rows([[1, 0, 0], [0, -1, 0], [F(alpha), F(beta), F(gamma)]])


def _case2_split(n: LieAlgebra, a_minus: Sequence[Vector], a_plus: Sequence[Vector],
                 gens: Sequence[Vector], images: Sequence[Vector]) -> RBOperator:
    """Weight-1 triangular split of n = sl2 + sl2 on the spans of a_minus, gens
    and a_plus, with R(gen_i) = image_i on a_zero = span(gens)."""
    a_zero = _span(*gens)
    if a_zero.dim != len(gens):
        raise ValueError("generators must be linearly independent")
    gen_coords = Matrix.from_columns([coordinates(a_zero, g) for g in gens])
    img_coords = Matrix.from_columns([coordinates(a_zero, v) for v in images])
    spec = TriangularSplitSpec(_span(*a_minus), a_zero, _span(*a_plus),
                               img_coords * gen_coords.inverse())
    return triangular_split(n, spec, 1)


def _sl2_split() -> RBOperator:
    """Split operator on sl2 with the Borel and the opposite root line."""
    sl2 = make_sl2()
    borel = Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])
    line = Subspace.from_vectors(3, [(0, 1, 0)])
    return split_operator(sl2, borel, line, 1)


def _sl2_triangular(rho) -> RBOperator:
    """Triangular-split on sl2: zero on <e1>, rho on <e3>, -1 on <e2>."""
    sl2 = make_sl2()
    spec = TriangularSplitSpec(
        a_minus=Subspace.from_vectors(3, [(1, 0, 0)]),
        a_zero=Subspace.from_vectors(3, [(0, 0, 1)]),
        a_plus=Subspace.from_vectors(3, [(0, 1, 0)]),
        r_zero=Matrix.from_rows([[F(rho)]]),
    )
    return triangular_split(sl2, spec, 1)


def _zero_operator(L: LieAlgebra) -> RBOperator:
    return RBOperator(L, Matrix.zero(L.dim, L.dim), F(1))


# ---------------------------------------------------------------------------
# Witnesses
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    name: str
    operator: RBOperator
    target_type: str  # "1".."7", "8a", "8b"
    target: LieAlgebra
    iso: Optional[Matrix] = None
    params: dict = field(default_factory=dict)


def _type5_witness(n: LieAlgebra) -> Witness:
    # Triangular split with rho = 2, nu2 = 1, nu4 = 0, alpha = 1.
    rho, nu2, nu4, alpha = F(2), F(1), F(0), F(1)
    x6 = _vec(H2=1, H1=alpha, X1=-2 * alpha * nu2, X2=-2 * nu4)
    op = _case2_split(n, [_vec(X1=1), _vec(H1=1), _vec(X2=1)],
                      [_vec(Y1=1, X1=-nu2 * nu2, H1=nu2), _vec(Y2=1, X2=-nu4 * nu4, H2=nu4)],
                      [x6], [tuple(rho * c for c in x6)])
    # Explicit basis change from the construction; c is the x3-eigenvalue
    # that gets normalized to 1.
    c = -(rho + 1) / rho
    b1 = _vec(X1=1)
    b2 = _vec(H1=F(-1, 2), X1=nu2)
    b3 = _vec(X2=1)
    b4 = _vec(Y1=1, H1=nu2, X1=-nu2 * nu2)
    b5 = _vec(Y2=1, H2=nu4, X2=-nu4 * nu4)
    pre = tuple(x / (2 * rho) for x in x6)
    mid = tuple(x + alpha * (rho + 1) / rho * y for x, y in zip(pre, b2))
    b6 = tuple(x / c for x in mid)
    B = Matrix.from_columns([b1, b2, b3, b4, b5, b6])
    target = make_type(5, alpha=alpha / c, beta=1 / c)
    return Witness("type5-case2c", op, "5", target, iso=B.inverse(),
                   params={"rho": rho, "nu2": nu2, "nu4": nu4, "alpha": alpha,
                           "target_alpha": alpha / c, "target_beta": 1 / c})


def _type6_witness(n: LieAlgebra) -> Witness:
    # lam = 2, rho = 2, all nu = 0.
    lam, rho = F(2), F(2)
    op = _case2_split(n, [_vec(X1=1), _vec(X2=1), _vec(H1=1, H2=lam)],
                      [_vec(Y1=1), _vec(Y2=1)], [_vec(H2=1)], [_vec(H2=rho)])
    target = make_type(6, lam=lam, alpha=-rho / (1 + rho))
    return Witness("type6-case2c", op, "6", target,
                   params={"lam": lam, "rho": rho,
                           "target_alpha": -rho / (1 + rho)})


def _type7_case2c_witness(n: LieAlgebra) -> Witness:
    # lam = 2, alpha = 1, rho = 2, all nu = 0.
    lam, alpha, rho = F(2), F(1), F(2)
    x6 = _vec(H2=1, H1=alpha)
    op = _case2_split(n, [_vec(X1=1), _vec(X2=1), _vec(H1=1, H2=lam)],
                      [_vec(Y1=1), _vec(Y2=1)], [x6], [tuple(rho * c for c in x6)])
    delta = -rho / (rho + 1)
    alpha_p = (1 - alpha * lam) / delta
    # Basis chain of the construction (nu2 = nu4 = 0 simplifies the vectors).
    y1 = _vec(X1=1)
    y2 = _vec(X2=1)
    y3 = tuple(F(-1, 2) * x for x in _vec(H1=1, H2=lam))
    y4 = _vec(Y2=1)
    y5 = _vec(Y1=1)
    pre = tuple(-x / (2 * (rho + 1)) for x in _vec(H2=1, H1=alpha))
    mid = tuple((p - alpha * q) / delta for p, q in zip(pre, y3))
    cols = [y2, y1, tuple(x / lam for x in y3), y4, y5,
            tuple(m - alpha_p / lam * q for m, q in zip(mid, y3))]
    B = Matrix.from_columns(cols)
    target = make_type(7, lam=1 / lam, alpha1=-alpha_p / lam, alpha2=alpha)
    return Witness("type7-case2c", op, "7", target, iso=B.inverse(),
                   params={"lam": lam, "alpha": alpha, "rho": rho,
                           "target_lam": 1 / lam, "target_alpha1": -alpha_p / lam,
                           "target_alpha2": alpha})


def _case2d_diagonal(n: LieAlgebra, rho1, rho2, xi1, xi2) -> RBOperator:
    """Triangular split of the two-eigenvalue kind with nu1 = nu2 = 0."""
    x5 = _vec(H1=1, H2=xi1)
    x6 = _vec(H2=1, H1=xi2)
    return _case2_split(n, [_vec(X1=1), _vec(X2=1)], [_vec(Y1=1), _vec(Y2=1)], [x5, x6],
                        [tuple(rho1 * c for c in x5), tuple(rho2 * c for c in x6)])


def _type8a_witness(n: LieAlgebra) -> Witness:
    rho1, rho2, xi1, xi2 = F(1), F(2), F(2), F(3)
    op = _case2d_diagonal(n, rho1, rho2, xi1, xi2)
    gamma = -rho1 / (rho1 + 1)
    delta = -rho2 / (rho2 + 1)
    target = make_type(8, variant="a", alpha1=xi2, alpha2=xi1,
                       alpha4=gamma, alpha7=delta)
    return Witness("type8a-case2d", op, "8a", target,
                   params={"rho1": rho1, "rho2": rho2, "xi1": xi1, "xi2": xi2,
                           "alpha1": xi2, "alpha2": xi1, "alpha4": gamma,
                           "alpha7": delta})


def _type7_case2d_witness(n: LieAlgebra) -> Witness:
    # Covers the triple (lam, lam-1, 1) excluded from the 2c construction:
    # xi2 = 0, xi1 = -1 makes the weight pattern match type (7) at (2, 1, 1).
    rho1, rho2 = F(-1, 2), F(-2, 3)
    op = _case2d_diagonal(n, rho1, rho2, F(-1), F(0))
    target = make_type(7, lam=2, alpha1=1, alpha2=1)
    return Witness("type7-case2d", op, "7", target,
                   params={"rho1": rho1, "rho2": rho2, "xi1": F(-1), "xi2": F(0),
                           "target_lam": F(2), "target_alpha1": F(1),
                           "target_alpha2": F(1)})


def _type8b_witness(n: LieAlgebra) -> Witness:
    # Jordan-block action on the torus part: R(x5) = rho1 x5, R(x6) = x5 + rho1 x6.
    rho1, xi, kappa = F(-1, 2), F(1), F(2)
    x5 = _vec(H1=1, H2=xi)
    x6 = _vec(H2=kappa)
    op = _case2_split(n, [_vec(X1=1), _vec(X2=1)], [_vec(Y1=1), _vec(Y2=1)], [x5, x6],
                      [tuple(rho1 * c for c in x5),
                       tuple(a + rho1 * b for a, b in zip(x5, x6))])
    gamma = -rho1 / (rho1 + 1)
    a1 = gamma + 1
    a2 = xi
    a3 = kappa + xi + gamma * xi
    target = make_type(8, variant="b", alpha1=a1, alpha2=a2, alpha3=a3)
    return Witness("type8b-case2d", op, "8b", target,
                   params={"rho1": rho1, "xi": xi, "kappa": kappa,
                           "alpha1": a1, "alpha2": a2, "alpha3": a3})


def witnesses() -> list[Witness]:
    """At least one verified witness per target type (1)-(8); sl2 + sl2 is built once."""
    n = make_sl2sl2()
    sl2 = make_sl2()
    ident6 = Matrix.identity(6)
    out = [
        Witness("type1-zero", _zero_operator(n), "1", n),
        Witness("type1-neg-id", RBOperator(n, ident6.scale(-1), F(1)), "1", n),
        Witness("type1-double-nilpotent-id",
                double_construction(sl2, Matrix.identity(3), "nilpotent"),
                "1", n),
        Witness("type1-double-negative-id",
                double_construction(sl2, Matrix.identity(3), "negative"),
                "1", n),
        Witness("type1-double-nilpotent-weyl",
                double_construction(sl2, _sl2_swap(), "nilpotent"),
                "1", n),
        Witness("type1-double-negative-weyl",
                double_construction(sl2, _sl2_swap(), "negative"),
                "1", n),
        Witness("type1-split-factors",
                split_operator(n, _span(_vec(X2=1), _vec(Y2=1), _vec(H2=1)),
                               _span(_vec(X1=1), _vec(Y1=1), _vec(H1=1)), 1),
                "1", n),
        Witness("type2-split",
                diagonal_sum(_zero_operator(sl2), _sl2_split()),
                "2", make_type(2, lam=0), params={"lam": F(0)}),
        Witness("type2-triangular",
                diagonal_sum(_zero_operator(sl2), _sl2_triangular(2)),
                "2", make_type(2, lam=F(-2, 3)),
                params={"rho": F(2), "lam": F(-2, 3)}),
        Witness("type3-case2b",
                split_operator(n, _span(_vec(X1=1), _vec(X2=1), _vec(H1=1, H2=-1)),
                               _span(_vec(Y1=1), _vec(Y2=1), _vec(H1=1, H2=2)), 1),
                "3", make_type(3, lam=-1, mu=2),
                params={"lam": F(-1), "mu": F(2)}),
        Witness("type3-split-split",
                diagonal_sum(_sl2_split(), _sl2_split()),
                "3", make_type(3, lam=0, mu=0), params={"lam": F(0), "mu": F(0)}),
        Witness("type4-case2a",
                split_operator(n, _span(_vec(X1=1), _vec(H1=1), _vec(X2=1), _vec(H2=1)),
                               _span(_vec(Y1=1), _vec(Y2=1, H1=1)), 1),
                "4", make_type(4)),
        _type5_witness(n),
        _type6_witness(n),
        _type7_case2c_witness(n),
        _type7_case2d_witness(n),
        _type8a_witness(n),
        _type8b_witness(n),
    ]
    return out


def catalog_operators() -> dict[str, RBOperator]:
    """Every catalog operator by name, the non-witness example included."""
    ops = {w.name: w.operator for w in witnesses()}
    ops["example216"] = RBOperator(make_table1("r2_plus_C"),
                                   example216_matrix(1, 0, 1), F(1))
    return ops


# ---------------------------------------------------------------------------
# Witness verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessReport:
    name: str
    steps: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.steps)


def _holds(check) -> bool:
    """Run one check; an ArithmeticError from a failed invariant means False."""
    try:
        return bool(check())
    except ArithmeticError:
        return False


def verify_witness(w: Witness) -> WitnessReport:
    """Run the full certification pipeline for one witness.

    One ``bracket_tower(op, 2)`` per witness gives n, g and g_2 to every
    step, and one ``fingerprint(g)`` serves the fingerprint match and the
    dimension inequality. Each level comes from ``derived_bracket``, which
    raises unless it satisfies Jacobi and R, R+id are homomorphisms to the
    level below; an RB operator on n is RB on g, so level 2 exists whenever
    g does. ``triple_decomposition`` raises unless every invariant holds.
    Every step after the first two needs the tower, so when the RB identity
    or g fails they are reported False without running.
    """
    op = w.operator
    rb = is_rb_operator(op.algebra, op.matrix, op.weight)
    tower = None
    if rb:
        try:
            tower = bracket_tower(op, 2)
        except ArithmeticError:
            pass
    g = tower.levels[1] if tower is not None else None
    g_fp = fingerprint(g) if g is not None else None
    checks = [
        ("kernel_ideals_depth2", lambda: kernel_ideal_checks(tower)),
        ("derived_dim_inequality_depth6",
         lambda: derived_dim_inequality(tower, 6, g_fp.derived_dims)),
        ("triple_decomposition", lambda: triple_decomposition(op) is not None),
        ("fingerprint_match", lambda: g_fp == fingerprint(w.target)),
    ]
    if w.iso is not None:
        checks.append(("explicit_isomorphism",
                       lambda: is_lie_isomorphism(w.iso, g, w.target)))
    steps = [("rb_identity", rb), ("derived_bracket_jacobi", g is not None)]
    steps += [(name, g is not None and _holds(check)) for name, check in checks]
    return WitnessReport(w.name, tuple(steps))
