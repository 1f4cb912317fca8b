"""Exact rational linear algebra: vectors, matrices and canonical subspaces.

All scalars are ``fractions.Fraction``; nothing here ever rounds. Subspaces
are kept in reduced row-echelon form so that equal subspaces are structurally
equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]


ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints and strings like ``-3/7`` to Fraction; Fractions pass as is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vector(coords: Iterable) -> Vector:
    return tuple(map(rat, coords))


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v, strict=True))


def vec_scale(c, v: Vector) -> Vector:
    c = rat(c)
    return tuple(c * a for a in v)


def is_zero_vector(v: Vector) -> bool:
    return all(a == 0 for a in v)


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix; action convention (Mv)_r = sum_c M[r][c] v_c."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        return Matrix(tuple(map(vector, rows)))

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix.from_rows(list(zip(*cols, strict=True)))

    @staticmethod
    def from_blocks(grid: Sequence[Sequence["Matrix"]]) -> "Matrix":
        """Matrix from a grid of block rows. Blocks in one block row must share
        their height: zipping their rows would drop the extra rows of a taller one."""
        rows = []
        for blocks in grid:
            if len({b.nrows for b in blocks}) > 1:
                raise ValueError("blocks of one block row differ in height")
            rows += (sum(parts, ()) for parts in zip(*(b.rows for b in blocks)))
        return Matrix(tuple(rows))

    @staticmethod
    def block_diag(*blocks: "Matrix") -> "Matrix":
        return Matrix.from_blocks([[b if i == j else Matrix.zero(b.nrows, c.ncols)
                                    for j, c in enumerate(blocks)]
                                   for i, b in enumerate(blocks)])

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(tuple(unit_vector(n, i) for i in range(n)))

    @staticmethod
    def zero(nrows: int, ncols: int) -> "Matrix":
        return Matrix(((ZERO,) * ncols,) * nrows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.rows for x in r)

    def row(self, i: int) -> Vector:
        return self.rows[i]

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows, strict=True))) if self.rows else self

    def apply(self, v: Vector) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        terms = [(c, x) for c, x in enumerate(v) if x]
        return tuple(sum((r[c] * x for c, x in terms if r[c]), ZERO) for r in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("dimension mismatch in matrix sum")
        return Matrix(tuple(tuple(a + b for a, b in zip(r1, r2))
                            for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        out = []
        for r in self.rows:
            acc = [ZERO] * other.ncols
            for a, orow in zip(r, other.rows):
                if a:
                    for j, b in enumerate(orow):
                        if b:
                            acc[j] += a * b
            out.append(tuple(acc))
        return Matrix(tuple(out))

    def scale(self, c) -> "Matrix":
        c = rat(c)
        return Matrix(tuple(tuple(c * x for x in r) for r in self.rows))

    def power(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of non-square matrix")
        result = Matrix.identity(self.nrows)
        for _ in range(k):
            result = result * self
        return result

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), ZERO)

    def det(self) -> Fraction:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        # Gaussian elimination with exact pivoting.
        n = self.nrows
        m = [list(r) for r in self.rows]
        d = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if m[r][col] != 0), None)
            if piv is None:
                return ZERO
            if piv != col:
                m[col], m[piv] = m[piv], m[col]
                d = -d
            d *= m[col][col]
            inv = 1 / m[col][col]
            for r in range(col + 1, n):
                f = m[r][col] * inv
                if f:
                    for c in range(col, n):
                        m[r][c] -= f * m[col][c]
        return d

    def inverse(self) -> "Matrix":
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        aug = [list(r) + list(unit_vector(n, i)) for i, r in enumerate(self.rows)]
        reduced, rk = _rref_rows(aug, n)
        if rk < n:
            raise ValueError("matrix is singular")
        return Matrix(tuple(tuple(r[n:]) for r in reduced[:n]))

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0


def _rref_rows(rows: list[list[Fraction]],
               ncols: int | None = None) -> tuple[list[list[Fraction]], int]:
    """In-place-style RREF on a list of row lists; returns (rows, rank).

    Pivots are sought in the first ``ncols`` columns only (default: all), so
    the rank is that of the left block; later columns are carried along.
    """
    m = [list(r) for r in rows]
    nrows = len(m)
    if ncols is None:
        ncols = len(m[0]) if m else 0
    piv_row = 0
    for col in range(ncols):
        piv = next((r for r in range(piv_row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[piv_row], m[piv] = m[piv], m[piv_row]
        inv = 1 / m[piv_row][col]
        m[piv_row] = [x * inv for x in m[piv_row]]
        for r in range(nrows):
            if r != piv_row and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[piv_row])]
        piv_row += 1
        if piv_row == nrows:
            break
    return m, piv_row


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank."""
    if m.nrows == 0:
        return m, 0
    reduced, rank = _rref_rows([list(r) for r in m.rows])
    return Matrix(tuple(tuple(r) for r in reduced)), rank


def rank(m: Matrix) -> int:
    return rref(m)[1]


@dataclass(frozen=True)
class Subspace:
    """Subspace of K^n held as an RREF-canonical row basis.

    Two equal subspaces compare equal structurally: the basis rows have
    leading ones, strictly increasing pivot columns and zeros above pivots.
    """

    ambient_dim: int
    basis: tuple[Vector, ...]

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [list(vector(v)) for v in vectors]
        for r in rows:
            if len(r) != ambient_dim:
                raise ValueError("vector length does not match ambient dimension")
        if not rows:
            return Subspace(ambient_dim, ())
        reduced, rk = _rref_rows(rows)
        return Subspace(ambient_dim, tuple(tuple(r) for r in reduced[:rk]))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim).rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x != 0) for row in self.basis)


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of {v : Mv = 0}."""
    reduced, rk = rref(m)
    ncols = m.ncols
    pivots = Subspace(ncols, reduced.rows[:rk]).pivots()
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.rows[r][f]
        basis.append(v)
    return Subspace.from_vectors(ncols, basis)


def image(m: Matrix) -> Subspace:
    """Column space of m, canonicalized."""
    return Subspace.from_vectors(m.nrows, [m.column(j) for j in range(m.ncols)])


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def intersect(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    # Solve a*U = b*V: kernel of the (n x (du+dv)) matrix [U^T | -V^T].
    cols = [list(row) for row in u.basis] + [[-x for x in row] for row in v.basis]
    m = Matrix.from_columns(cols)
    u_cols = Matrix.from_columns(u.basis)
    vectors = [u_cols.apply(c[: u.dim]) for c in kernel(m).basis]
    return Subspace.from_vectors(u.ambient_dim, vectors)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_vectors(u.ambient_dim, list(u.basis) + list(v.basis))


def contains(u: Subspace, x: Sequence) -> bool:
    if len(x) != u.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return coordinates(u, x) is not None


def is_direct_sum(parts: Sequence[Subspace]) -> bool:
    """True iff the sum of the parts has dimension equal to the dimension sum."""
    if not parts:
        return True
    total = parts[0]
    for p in parts[1:]:
        total = subspace_sum(total, p)
    return total.dim == sum(p.dim for p in parts)


def coordinates(u: Subspace, x: Sequence) -> Vector | None:
    """Coordinates of x in u's RREF basis, or None if x is outside u.

    The RREF basis has a leading one at each pivot and zeros above and below
    it, so the coordinates are x read at the pivots; x is in u iff they
    rebuild it.
    """
    v = vector(x)
    coords = tuple(v[p] for p in u.pivots())
    rebuilt = [ZERO] * u.ambient_dim
    for c, row in zip(coords, u.basis):
        if c:
            for k, b in enumerate(row):
                if b:
                    rebuilt[k] += c * b
    return coords if tuple(rebuilt) == v else None


def char_poly(m: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients, highest degree first (monic).

    Faddeev-LeVerrier over the rationals; exact in characteristic zero.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of non-square matrix")
    n = m.nrows
    coeffs = [ONE]
    acc = Matrix.identity(n)
    for k in range(1, n + 1):
        acc = m * acc
        c = -acc.trace() / k
        coeffs.append(c)
        acc = acc + Matrix.identity(n).scale(c)
    return tuple(coeffs)


def is_diagonalizable_2x2(m: Matrix) -> bool:
    """Diagonalizable iff the discriminant is nonzero, or the matrix is scalar."""
    if m.nrows != 2 or m.ncols != 2:
        raise ValueError("test implemented for 2x2 matrices only")
    disc = m.trace() ** 2 - 4 * m.det()
    if disc != 0:
        return True
    return m.rows[0][1] == 0 and m.rows[1][0] == 0 and m.rows[0][0] == m.rows[1][1]
