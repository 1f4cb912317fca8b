"""Structure-constant Lie algebras: brackets, axiom checks, series, invariants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .exactla import (
    ZERO,
    Matrix,
    Subspace,
    Vector,
    contains,
    coordinates,
    is_zero_vector,
    kernel,
    rank,
    rat,
    unit_vector,
    vec_add,
    vector,
    zero_vector,
)

BracketTable = tuple[tuple[Vector, ...], ...]
SparseSC = Mapping[tuple[int, int], Sequence[tuple[int, object]]]


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
            for k in range(dim):
                table[j][i][k] = -table[i][j][k]
        frozen = tuple(tuple(tuple(entry) for entry in row) for row in table)
        return LieAlgebra(dim, frozen, _labels(dim, basis_labels))

    @staticmethod
    def from_table(dim: int, table: Sequence[Sequence[Sequence]],
                   basis_labels: Sequence[str] | None = None) -> "LieAlgebra":
        frozen = tuple(tuple(vector(entry) for entry in row) for row in table)
        for i in range(dim):
            for j in range(dim):
                if frozen[i][j] != tuple(-x for x in frozen[j][i]):
                    raise ValueError("bracket table is not antisymmetric")
        return LieAlgebra(dim, frozen, _labels(dim, basis_labels))

    @staticmethod
    def abelian(dim: int) -> "LieAlgebra":
        return LieAlgebra.from_brackets(dim, {})

    def sparse_brackets(self) -> dict[tuple[int, int], list[tuple[int, Fraction]]]:
        """Nonzero constants for i < j, suitable for emission."""
        out: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                terms = [(k, c) for k, c in enumerate(self.table[i][j]) if c != 0]
                if terms:
                    out[(i, j)] = terms
        return out


def _labels(dim: int, basis_labels: Sequence[str] | None) -> tuple[str, ...]:
    """One label per basis vector; e1, e2, ... when none are given."""
    labels = tuple(basis_labels) if basis_labels else tuple(f"e{i+1}" for i in range(dim))
    if len(labels) != dim:
        raise ValueError("label count does not match dimension")
    return labels


def bilinear(table: Sequence[Sequence[Vector]], x: Sequence, y: Sequence) -> Vector:
    """sum_ij x_i y_j table[i][j]: the bilinear extension of a basis table.

    Zero coordinates and zero table entries are skipped.
    """
    if len(x) != len(table) or len(y) != len(table):
        raise ValueError("dimension mismatch in bracket")
    ys = [(j, yj) for j, yj in enumerate(map(rat, y)) if yj]
    out = [ZERO] * len(table)
    for i, xi in enumerate(map(rat, x)):
        if not xi:
            continue
        row = table[i]
        for j, yj in ys:
            coeff = None
            for k, t in enumerate(row[j]):
                if t:
                    if coeff is None:
                        coeff = xi * yj
                    out[k] += coeff * t
    return tuple(out)


def bracket(L: LieAlgebra, x: Sequence, y: Sequence) -> Vector:
    """Bilinear extension of the structure constants."""
    return bilinear(L.table, x, y)


def jacobi_failure(L: LieAlgebra) -> tuple[int, int, int] | None:
    """First basis triple violating the Jacobi identity, or None."""
    for i in range(L.dim):
        ei = unit_vector(L.dim, i)
        for j in range(i + 1, L.dim):
            ej = unit_vector(L.dim, j)
            for k in range(j + 1, L.dim):
                ek = unit_vector(L.dim, k)
                total = vec_add(
                    vec_add(bracket(L, L.table[i][j], ek), bracket(L, L.table[j][k], ei)),
                    bracket(L, L.table[k][i], ej))
                if not is_zero_vector(total):
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
    vecs = [bracket(L, a, b) for a in u.basis for b in v.basis]
    return Subspace.from_vectors(L.dim, vecs)


def brackets_within(L: LieAlgebra, A: Sequence[Sequence], B: Sequence[Sequence],
                    S: Subspace) -> bool:
    """[A, B] is contained in S, checked on the given spanning vectors."""
    if S.ambient_dim != L.dim:
        raise ValueError("subspace ambient dimension mismatch")
    return all(contains(S, bracket(L, a, b)) for a in A for b in B)


def subalgebra_closure(L: LieAlgebra, S: Subspace) -> bool:
    return brackets_within(L, S.basis, S.basis, S)


def is_ideal(L: LieAlgebra, S: Subspace) -> bool:
    units = [unit_vector(L.dim, i) for i in range(L.dim)]
    return brackets_within(L, units, S.basis, S)


def first_hom_failure(phi: Matrix, g: LieAlgebra,
                      h: LieAlgebra) -> tuple[int, int] | None:
    """First basis pair (i, j), i < j, where phi [e_i, e_j]_g differs from
    [phi e_i, phi e_j]_h, or None when phi preserves brackets."""
    for i in range(g.dim):
        ci = phi.column(i)
        for j in range(i + 1, g.dim):
            if phi.apply(g.table[i][j]) != bracket(h, ci, phi.column(j)):
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
    """{x : [x, e_j] = 0 for all j} as the kernel of the stacked ad system."""
    rows = []
    for j in range(L.dim):
        for r in range(L.dim):
            rows.append([L.table[i][j][r] for i in range(L.dim)])
    return kernel(Matrix.from_rows(rows))


def killing_form(L: LieAlgebra) -> Matrix:
    """K_ij = tr(ad e_i ad e_j) = sum_{k,l} c_ik^l c_jl^k, read off the table.

    Only the nonzero c_ik^l are visited, and only the upper triangle is
    computed: K is symmetric.
    """
    d, t = L.dim, L.table
    nonzero = [[(k, l, c) for k in range(d) for l, c in enumerate(t[i][k]) if c]
               for i in range(d)]
    K = [[ZERO] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            tj = t[j]
            s = ZERO
            for k, l, c in nonzero[i]:
                if tj[l][k]:
                    s += c * tj[l][k]
            K[i][j] = K[j][i] = s
    return Matrix(tuple(map(tuple, K)))


def killing_rank(L: LieAlgebra) -> int:
    return rank(killing_form(L))


def is_semisimple(L: LieAlgebra) -> bool:
    """Cartan criterion: the Killing form is nondegenerate (char 0)."""
    return killing_rank(L) == L.dim


def is_unimodular(L: LieAlgebra) -> bool:
    """tr ad e_i = sum_k c_ik^k vanishes for every i."""
    return all(sum(L.table[i][k][k] for k in range(L.dim)) == 0 for i in range(L.dim))


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
    """Transport structure constants to the basis f_i = P e_i (columns of P)."""
    message = "basis change must be an invertible dim x dim matrix"
    if P.nrows != L.dim or P.ncols != L.dim:
        raise ValueError(message)
    try:
        inv = P.inverse()
    except ValueError:
        raise ValueError(message) from None
    table = []
    for i in range(L.dim):
        fi = P.column(i)
        row = []
        for j in range(L.dim):
            fj = P.column(j)
            row.append(inv.apply(bracket(L, fi, fj)))
        table.append(row)
    return LieAlgebra.from_table(L.dim, table, L.basis_labels)


def restrict(L: LieAlgebra, S: Subspace,
             basis_labels: Sequence[str] | None = None) -> LieAlgebra:
    """Structure constants of a closed subspace in its own canonical basis."""
    if not subalgebra_closure(L, S):
        raise ValueError("subspace is not closed under the bracket")
    k = S.dim
    table = []
    for a in S.basis:
        row = []
        for b in S.basis:
            coords = coordinates(S, bracket(L, a, b))
            assert coords is not None
            row.append(coords)
        table.append(row)
    return LieAlgebra.from_table(k, table, basis_labels)
