"""Structure-constant Lie algebras: brackets, axiom checks, series, invariants.

The checks run on the integer ``LieAlgebra.constants`` and cross-multiply.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from .exactla import (
    Matrix,
    Subspace,
    Vector,
    as_fractions,
    as_ints,
    kernel_ints,
    rank,
    unit_vector,
    vector,
    zero_vector,
)

BracketTable = tuple[tuple[Vector, ...], ...]
SparseSC = Mapping[tuple[int, int], Sequence[tuple[int, object]]]
# (per i: j -> numerators of a nonzero table[i][j]; den): table[i][j][k] = num[k] / den
IntConstants = tuple[tuple[dict[int, tuple[int, ...]], ...], int]


def structure_constants(table: Sequence[Sequence[Sequence]]) -> IntConstants:
    """The sparse integer form of a bilinear table, over one denominator."""
    den = lcm(*(c.denominator for row in table for entry in row for c in entry))
    return tuple({j: tuple(c.numerator * (den // c.denominator) for c in entry)
                  for j, entry in enumerate(row) if any(entry)} for row in table), den


def bilinear_ints(sc, x: Sequence[int], y: Sequence[int]) -> list[int]:
    """sum_ij x_i y_j num_ij for integer x and y, skipping zero x_i, zero
    table entries and zero y_j: the kernel of every bilinear product."""
    out = [0] * len(sc)
    for xi, row in zip(x, sc):
        if xi:
            for j, entry in row.items():
                c = xi * y[j]
                if c:
                    for k, t in enumerate(entry):
                        out[k] += c * t
    return out


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra given by its full antisymmetric bracket table.

    ``table[i][j]`` holds the coordinates of [e_i, e_j]. Antisymmetry is
    enforced by construction; Jacobi is a separate check so malformed tables
    can be diagnosed rather than rejected blindly.
    """

    dim: int
    table: BracketTable
    basis_labels: tuple[str, ...]

    @cached_property
    def constants(self) -> IntConstants:
        """The structure constants as sparse integers over one denominator."""
        return structure_constants(self.table)

    @staticmethod
    def from_brackets(dim: int, sc: SparseSC,
                      basis_labels: Sequence[str] | None = None) -> "LieAlgebra":
        """Build from sparse constants sc[(i, j)] = [(k, c), ...] with i < j."""
        table = [[list(zero_vector(dim)) for _ in range(dim)] for _ in range(dim)]
        for (i, j), terms in sc.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bracket indices ({i},{j}) must satisfy 0 <= i < j < dim")
            for k, c in terms:
                table[i][j][k] += Fraction(c)
                table[j][i][k] -= Fraction(c)
        return LieAlgebra.from_table(dim, table, basis_labels)

    @staticmethod
    def from_table(dim: int, table: Sequence[Sequence[Sequence]],
                   basis_labels: Sequence[str] | None = None) -> "LieAlgebra":
        frozen = tuple(tuple(vector(entry) for entry in row) for row in table)
        L = LieAlgebra(dim, frozen, _labels(dim, basis_labels))
        sc, zero = L.constants[0], (0,) * dim
        if any(a != -b for i in range(dim) for j in range(i, dim)
               for a, b in zip(sc[i].get(j, zero), sc[j].get(i, zero))):
            raise ValueError("bracket table is not antisymmetric")
        return L

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, {})

    def sparse_brackets(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """Nonzero constants for i < j, suitable for emission."""
        return {(i, j): [(k, c) for k, c in enumerate(self.table[i][j]) if c]
                for i in range(self.dim) for j in range(i + 1, self.dim)
                if any(self.table[i][j])}


def _labels(dim: int, basis_labels: Sequence[str] | None) -> tuple[str, ...]:
    """One label per basis vector; e1, e2, ... when none are given."""
    labels = tuple(basis_labels) if basis_labels else tuple(f"e{i+1}" for i in range(dim))
    if len(labels) != dim:
        raise ValueError("label count does not match dimension")
    return labels


def bilinear_sc(constants: IntConstants, x: Sequence, y: Sequence) -> Vector:
    """The bilinear product of rational x and y through integer constants."""
    sc, den = constants
    if len(x) != len(sc) or len(y) != len(sc):
        raise ValueError("dimension mismatch in bracket")
    (xs, dx), (ys, dy) = as_ints(x), as_ints(y)
    return as_fractions(bilinear_ints(sc, xs, ys), den * dx * dy)


def bilinear(table: Sequence[Sequence[Vector]], x: Sequence, y: Sequence) -> Vector:
    """sum_ij x_i y_j table[i][j]: the bilinear extension of a basis table."""
    return bilinear_sc(structure_constants(table), x, y)


def bracket(L: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the structure constants."""
    return bilinear_sc(L.constants, x, y)


def jacobi_failure(L: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple violating the Jacobi identity, or None. The three
    cyclic terms [[e_a, e_b], e_c] share the denominator den^2."""
    sc = L.constants[0]
    for i, j, k in combinations(range(L.dim), 3):
        total = [0] * L.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            for m, t in enumerate(sc[a].get(b, ())):
                if t:
                    for l, u in enumerate(sc[m].get(c, ())):
                        total[l] += t * u
        if any(total):
            return (i, j, k)
    return None


def check_jacobi(L: LieAlgebra) -> bool:
    return jacobi_failure(L) is None


def ad_matrix(L: LieAlgebra, x: Sequence) -> Matrix:
    """Matrix of ad(x): column j is [x, e_j]."""
    xv = vector(x)
    cols = [bracket(L, xv, unit_vector(L.dim, j)) for j in range(L.dim)]
    return Matrix.from_columns(cols)


def direct_sum(L1: LieAlgebra, L2: LieAlgebra) -> LieAlgebra:
    """Block structure constants, no cross terms."""
    n1 = L1.dim
    sc = L1.sparse_brackets()
    for (i, j), terms in L2.sparse_brackets().items():
        sc[(i + n1, j + n1)] = [(k + n1, c) for k, c in terms]
    labels = tuple(f"{l}'" for l in L1.basis_labels) + tuple(f"{l}''" for l in L2.basis_labels)
    return LieAlgebra.from_brackets(n1 + L2.dim, sc, labels)


def bracket_span(L: LieAlgebra, u: Subspace, v: Subspace) -> Subspace:
    """Span of [u, v]."""
    sc = L.constants[0]
    return Subspace.from_ints(L.dim, [bilinear_ints(sc, a, b)
                                      for a in u.ints[0] for b in v.ints[0]])


def brackets_within(L: LieAlgebra, A: Sequence[Sequence], B: Sequence[Sequence],
                    S: Subspace) -> bool:
    """[A, B] is contained in S, checked on the given spanning vectors."""
    if S.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension mismatch")
    sc = L.constants[0]
    bs = [as_ints(b)[0] for b in B]
    return all(S.contains_ints(bilinear_ints(sc, as_ints(a)[0], b)) for a in A for b in bs)


def subalgebra_closure(L: LieAlgebra, S: Subspace) -> bool:
    return brackets_within(L, S.basis, S.basis, S)


def is_ideal(L: LieAlgebra, S: Subspace) -> bool:
    return brackets_within(L, Matrix.identity(L.dim).ints[0], S.basis, S)


def first_hom_failure(phi: Matrix, g: LieAlgebra,
                      h: LieAlgebra) -> tuple[int, int] | None:
    """First basis pair (i, j), i < j, where phi [e_i, e_j]_g differs from
    [phi e_i, phi e_j]_h, or None when phi preserves brackets. With phi = P / dp,
    the two sides have denominators dp·dg and dp^2·dh."""
    rows, dp = phi.ints
    (gs, dg), (hs, dh) = g.constants, h.constants
    cols, zero = list(zip(*rows)), (0,) * g.dim
    for i, j in combinations(range(g.dim), 2):
        lhs = [sum(map(mul, r, gs[i].get(j, zero))) for r in rows]
        if any(a * dp * dh != b * dg
               for a, b in zip(lhs, bilinear_ints(hs, cols[i], cols[j]))):
            return (i, j)
    return None


def _series(L: LieAlgebra, step) -> list[Subspace]:
    chain = [Subspace.full(L.dim)]
    for _ in range(L.dim + 1):
        nxt = step(chain[-1])
        chain.append(nxt)
        if nxt.dim == 0 or nxt == chain[-2]:
            break
    return chain


def derived_series(L: LieAlgebra) -> list[Subspace]:
    """g^(1) = g, g^(i+1) = [g^(i), g^(i)], until stabilization."""
    return _series(L, lambda cur: bracket_span(L, cur, cur))


def lower_central_series(L: LieAlgebra) -> list[Subspace]:
    """g^1 = g, g^(i+1) = [g, g^i], until stabilization."""
    full = Subspace.full(L.dim)
    return _series(L, lambda cur: bracket_span(L, full, cur))


def center(L: LieAlgebra) -> Subspace:
    """{x : [x, e_j] = 0 for all j} as the kernel of the stacked ad system:
    row (j, r) holds the numerators of c_ij^r over i."""
    d, zero, sc = L.dim, (0,) * L.dim, L.constants[0]
    rows = [[sc[i].get(j, zero)[r] for i in range(d)] for j in range(d) for r in range(d)]
    return Subspace.from_ints(d, kernel_ints(rows, d))


def killing_form(L: LieAlgebra) -> Matrix:
    """K_ij = tr(ad e_i ad e_j) = sum_{k,l} c_ik^l c_jl^k, read off the table.

    Only the nonzero c_ik^l are visited, over den^2, and only the upper
    triangle is computed: K is symmetric.
    """
    d, (sc, den), zero = L.dim, L.constants, (0,) * L.dim
    nonzero = [[(k, l, c) for k, entry in row.items() for l, c in enumerate(entry) if c]
               for row in sc]
    K = [[0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            K[i][j] = K[j][i] = sum(c * sc[j].get(l, zero)[k] for k, l, c in nonzero[i])
    return Matrix.from_ints(K, den * den)


def killing_rank(L: LieAlgebra) -> int:
    return rank(killing_form(L))


def is_semisimple(L: LieAlgebra) -> bool:
    """Cartan criterion: the Killing form is nondegenerate (char 0)."""
    return killing_rank(L) == L.dim


def is_unimodular(L: LieAlgebra) -> bool:
    """tr ad e_i = sum_k c_ik^k vanishes for every i."""
    return all(sum(entry[k] for k, entry in row.items()) == 0
               for row in L.constants[0])


def is_solvable(L: LieAlgebra) -> bool:
    return derived_series(L)[-1].dim == 0


def is_nilpotent(L: LieAlgebra) -> bool:
    return lower_central_series(L)[-1].dim == 0


@dataclass(frozen=True)
class Fingerprint:
    """Basis-independent invariants used to certify isomorphism-type claims."""

    dim: int
    derived_dims: tuple[int, ...]
    lcs_dims: tuple[int, ...]
    center_dim: int
    killing_rank: int
    unimodular: bool
    solvable: bool
    nilpotent: bool


def fingerprint(L: LieAlgebra) -> Fingerprint:
    dd = tuple(s.dim for s in derived_series(L))
    ld = tuple(s.dim for s in lower_central_series(L))
    return Fingerprint(
        dim=L.dim,
        derived_dims=dd,
        lcs_dims=ld,
        center_dim=center(L).dim,
        killing_rank=killing_rank(L),
        unimodular=is_unimodular(L),
        solvable=dd[-1] == 0,
        nilpotent=ld[-1] == 0,
    )


def change_basis(L: LieAlgebra, P: Matrix) -> LieAlgebra:
    """Transport structure constants to the basis f_i = P e_i (columns of P):
    with P = rows / dp and P^-1 = Q / dq, [f_i, f_j] is Q [P e_i, P e_j]."""
    message = "basis change must be an invertible dim x dim matrix"
    if P.nrows != L.dim or P.ncols != L.dim:
        raise ValueError(message)
    try:
        inv = P.inverse()
    except ValueError:
        raise ValueError(message) from None
    (rows, dp), (q, dq) = P.ints, inv.ints
    sc, den = L.constants
    cols = list(zip(*rows))
    table = [[[sum(map(mul, r, bilinear_ints(sc, fi, fj))) for r in q] for fj in cols]
             for fi in cols]
    return LieAlgebra.from_table(L.dim, [[as_fractions(e, dq * dp * dp * den) for e in row]
                                         for row in table], L.basis_labels)


def restrict(L: LieAlgebra, S: Subspace,
             basis_labels: Sequence[str] | None = None) -> LieAlgebra:
    """Structure constants of a closed subspace in its own canonical basis:
    the coordinates of [a, b] are its entries at the pivots of S."""
    if not subalgebra_closure(L, S):
        raise ValueError("subspace is not closed under the bracket")
    (sc, den), (rows, ds), pivots = L.constants, S.ints, S.pivots()
    table = [[as_fractions([z[p] for p in pivots], ds * ds * den)
               for z in [bilinear_ints(sc, a, b) for b in rows]] for a in rows]
    return LieAlgebra.from_table(S.dim, table, basis_labels)
