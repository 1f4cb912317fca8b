"""Rota-Baxter operators: the defining identity and the standard constructions.

An operator R of weight lam on a Lie algebra (n, {,}) satisfies

    {R(x), R(y)} = R({R(x), y} + {x, R(y)} + lam {x, y})

for all x, y; bilinearity makes checking basis pairs sufficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

from .classify import is_lie_isomorphism
from .exactla import (
    Matrix,
    Subspace,
    is_direct_sum,
    subspace_sum,
)
from .liealg import (
    LieAlgebra,
    bilinear_ints,
    brackets_within,
    direct_sum,
    restrict,
    subalgebra_closure,
)


@dataclass(frozen=True)
class RBOperator:
    algebra: LieAlgebra
    matrix: Matrix
    weight: Fraction

    def __post_init__(self):
        if self.matrix.nrows != self.algebra.dim or self.matrix.ncols != self.algebra.dim:
            raise ValueError("operator matrix must be square of the algebra dimension")


def first_rb_failure(n: LieAlgebra, R: Matrix, lam) -> tuple[int, int] | None:
    """First basis pair (i, j), i < j, violating the RB identity, or None.
    With R = P / dr and lam = lp / lq, the inner sum has denominator dr·dn·lq,
    so the right side has dr^2·dn·lq where the left side has dr^2·dn."""
    lam = Fraction(lam)
    if R.nrows != n.dim or R.ncols != n.dim:
        raise ValueError("operator dimension mismatch")
    (sc, _), (rows, dr), zero = n.constants, R.ints, (0,) * n.dim
    cols, lp, lq = list(zip(*rows)), lam.numerator, lam.denominator
    units = Matrix.identity(n.dim).ints[0]
    for i in range(n.dim):
        for j in range(i + 1, n.dim):
            lhs = bilinear_ints(sc, cols[i], cols[j])
            inner = [lq * (a + b) + lp * dr * c for a, b, c in zip(
                bilinear_ints(sc, cols[i], units[j]), bilinear_ints(sc, units[i], cols[j]),
                sc[i].get(j, zero))]
            if any(a * lq != sum(map(mul, r, inner)) for a, r in zip(lhs, rows)):
                return (i, j)
    return None


def is_rb_operator(n: LieAlgebra, R: Matrix, lam) -> bool:
    return first_rb_failure(n, R, lam) is None


def verified_operator(n: LieAlgebra, R: Matrix, lam) -> RBOperator:
    """Wrap a matrix as an RBOperator, insisting the identity holds."""
    pair = first_rb_failure(n, R, lam)
    if pair is not None:
        raise ValueError(f"RB identity fails at basis pair {pair}")
    return RBOperator(n, R, Fraction(lam))


def phi_involution(op: RBOperator) -> RBOperator:
    """R -> -R - lam*id; an involution preserving the RB identity."""
    n = op.algebra.dim
    m = op.matrix.scale(-1) - Matrix.identity(n).scale(op.weight)
    return RBOperator(op.algebra, m, op.weight)


def rescale_to_weight_one(op: RBOperator) -> RBOperator:
    if op.weight == 0:
        raise ValueError("cannot rescale a weight-zero operator")
    if op.weight == 1:
        return op
    return RBOperator(op.algebra, op.matrix.scale(1 / op.weight), Fraction(1))


def is_lie_automorphism(n: LieAlgebra, psi: Matrix) -> bool:
    return psi.nrows == psi.ncols == n.dim and is_lie_isomorphism(psi, n, n)


def conjugate(op: RBOperator, psi: Matrix) -> RBOperator:
    """psi^-1 R psi for an automorphism psi of the underlying algebra."""
    if not is_lie_automorphism(op.algebra, psi):
        raise ValueError("psi is not a Lie algebra automorphism")
    return RBOperator(op.algebra, psi.inverse() * op.matrix * psi, op.weight)


def split_operator(n: LieAlgebra, A1: Subspace, A2: Subspace, lam) -> RBOperator:
    """R(a1 + a2) = -lam a2 for a direct decomposition into subalgebras A1, A2:
    the triangular split with an empty middle block."""
    spec = TriangularSplitSpec(A1, Subspace.zero(n.dim), A2, Matrix.zero(0, 0))
    return triangular_split(n, spec, lam)


def is_split(op: RBOperator) -> bool:
    """Split criterion R(R + lam*id) = 0; requires nonzero weight."""
    if op.weight == 0:
        raise ValueError("split criterion requires nonzero weight")
    n = op.algebra.dim
    return (op.matrix * (op.matrix + Matrix.identity(n).scale(op.weight))).is_zero()


def diagonal_sum(op1: RBOperator, op2: RBOperator) -> RBOperator:
    """Block-diagonal operator on the direct sum of the two algebras."""
    if op1.weight != op2.weight:
        raise ValueError("diagonal sum requires equal weights")
    return RBOperator(direct_sum(op1.algebra, op2.algebra),
                      Matrix.block_diag(op1.matrix, op2.matrix), op1.weight)


def double_construction(s: LieAlgebra, psi: Matrix, variant: str) -> RBOperator:
    """Weight-1 operators on s + s: (a1,a2) -> (0, psi a1) or (-a1, -psi a1)."""
    if not is_lie_automorphism(s, psi):
        raise ValueError("psi is not a Lie algebra automorphism")
    if variant not in ("nilpotent", "negative"):
        raise ValueError("variant must be 'nilpotent' or 'negative'")
    zero = Matrix.zero(s.dim, s.dim)
    if variant == "nilpotent":
        grid = [[zero, zero], [psi, zero]]
    else:
        grid = [[Matrix.identity(s.dim).scale(-1), zero], [psi.scale(-1), zero]]
    return RBOperator(direct_sum(s, s), Matrix.from_blocks(grid), Fraction(1))


@dataclass(frozen=True)
class TriangularSplitSpec:
    """Three-block data: P = 0 on a_minus, r_zero on a_zero, -lam*id on a_plus."""

    a_minus: Subspace
    a_zero: Subspace
    a_plus: Subspace
    r_zero: Matrix


def triangular_split(n: LieAlgebra, spec: TriangularSplitSpec, lam) -> RBOperator:
    lam = Fraction(lam)
    a_m, a_0, a_p = spec.a_minus, spec.a_zero, spec.a_plus
    if not is_direct_sum([a_m, a_0, a_p]) or a_m.dim + a_0.dim + a_p.dim != n.dim:
        raise ValueError("triangular-split parts must decompose the algebra")
    for name, part in (("a_minus", a_m), ("a_zero", a_0), ("a_plus", a_p)):
        if not subalgebra_closure(n, part):
            raise ValueError(f"{name} is not a subalgebra")
    if spec.r_zero.nrows != a_0.dim or spec.r_zero.ncols != a_0.dim:
        raise ValueError("r_zero must act on a_zero coordinates")
    a0_alg = restrict(n, a_0)
    if not is_rb_operator(a0_alg, spec.r_zero, lam):
        raise ValueError("r_zero is not an RB-operator on a_zero")

    basis0 = Matrix.from_columns(a_0.basis)

    def span_image(m: Matrix) -> list:
        # Images of a_zero basis vectors under the coordinate operator m.
        image = basis0 * m
        return [image.column(j) for j in range(a_0.dim)]

    ident0 = Matrix.identity(a_0.dim)
    if not brackets_within(n, span_image(spec.r_zero + ident0), a_m.basis, a_m):
        raise ValueError("a_minus is not a module over (r_zero + id)(a_zero)")
    if not brackets_within(n, span_image(spec.r_zero), a_p.basis, a_p):
        raise ValueError("a_plus is not a module over r_zero(a_zero)")

    cols = list(a_m.basis) + list(a_0.basis) + list(a_p.basis)
    P = Matrix.from_columns(cols)
    block = Matrix.block_diag(Matrix.zero(a_m.dim, a_m.dim), spec.r_zero,
                              Matrix.identity(a_p.dim).scale(-lam))
    return RBOperator(n, P * block * P.inverse(), lam)


def enumerate_split_operators(n: LieAlgebra,
                              candidates: Sequence[Subspace]) -> list[RBOperator]:
    """All weight-1 split operators from ordered candidate pairs (A1, A2)."""
    for S in candidates:
        if not subalgebra_closure(n, S):
            raise ValueError("candidate subspace is not a subalgebra")
    out = []
    for A1 in candidates:
        for A2 in candidates:
            if A1.dim + A2.dim != n.dim:
                continue
            if subspace_sum(A1, A2).dim != n.dim:
                continue
            out.append(split_operator(n, A1, A2, 1))
    return out
