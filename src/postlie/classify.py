"""Isomorphism certification and the classification of 3-dimensional algebras."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exactla import Matrix, coordinates, is_diagonalizable_2x2, unit_vector
from .liealg import (
    LieAlgebra,
    bracket,
    check_jacobi,
    derived_series,
    fingerprint,
    first_hom_failure,
    is_nilpotent,
)


def is_lie_isomorphism(phi: Matrix, g: LieAlgebra, h: LieAlgebra) -> bool:
    """True iff phi is invertible and phi [x,y]_g = [phi x, phi y]_h on basis pairs."""
    if g.dim != h.dim:
        raise ValueError("dimension mismatch")
    if phi.nrows != g.dim or phi.ncols != g.dim:
        raise ValueError("dimension mismatch")
    return phi.is_invertible() and first_hom_failure(phi, g, h) is None


def fingerprint_equal(g: LieAlgebra, h: LieAlgebra) -> bool:
    return fingerprint(g) == fingerprint(h)


@dataclass(frozen=True)
class Class3:
    """Isomorphism class of a 3-dimensional complex Lie algebra.

    For the r3_lambda family the class is keyed by j = (1+lambda)^2/lambda,
    which is rational for rational data and invariant under lambda <-> 1/lambda.
    """

    tag: str  # abelian | n3 | r2_plus_C | r3 | r3_lambda | sl2
    j_invariant: Optional[Fraction] = None


def classify3(L: LieAlgebra) -> Class3:
    """Decision tree on dim L' and the adjoint action on L'."""
    if L.dim != 3:
        raise ValueError("classify3 requires dimension 3")
    if not check_jacobi(L):
        raise ValueError("Jacobi identity fails")
    series = derived_series(L)
    derived = series[1]
    d = derived.dim
    if d == 0:
        return Class3("abelian")
    if d == 1:
        return Class3("n3" if is_nilpotent(L) else "r2_plus_C")
    if d == 2:
        x = next(unit_vector(3, i) for i in range(3)
                 if coordinates(derived, unit_vector(3, i)) is None)
        cols = []
        for b in derived.basis:
            c = coordinates(derived, bracket(L, x, b))
            if c is None:
                raise ArithmeticError("derived subalgebra is not an ideal")
            cols.append(c)
        a = Matrix.from_columns(cols)
        det = a.det()
        if det == 0:
            raise ArithmeticError("degenerate adjoint action on a 2-dim derived algebra")
        if not is_diagonalizable_2x2(a):
            return Class3("r3")
        return Class3("r3_lambda", a.trace() ** 2 / det)
    return Class3("sl2")


def j_invariant(lam) -> Fraction:
    """(1 + lambda)^2 / lambda; the r3_lambda class key."""
    lam = Fraction(lam)
    if lam == 0:
        raise ValueError("lambda must be nonzero")
    return (1 + lam) ** 2 / lam
