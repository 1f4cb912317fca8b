"""Exact rational linear algebra: vectors, matrices and canonical subspaces.

Nothing rounds. The kernels work in ints, on each object's integer numerators
over one denominator (``ints``), with fraction-free elimination; ``Fraction``
appears only at the API boundary. Subspaces are kept in reduced row-echelon
form so that equal subspaces are structurally equal objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Rational = Fraction
Vector = tuple[Fraction, ...]


ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints and strings like ``-3/7`` to Fraction; Fractions pass as is."""
    return x if isinstance(x, Fraction) else Fraction(x)


def as_ints(v: Iterable) -> tuple[list[int], int]:
    """(nums, den): integer numerators of v over its least common denominator."""
    v = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in v]
    den = lcm(*(x.denominator for x in v))
    return [x.numerator * (den // x.denominator) for x in v], den


def as_fractions(nums: Iterable[int], den: int) -> Vector:
    """The vector nums / den; zero entries share ``ZERO``."""
    return tuple(Fraction(x, den) if x else ZERO for x in nums)


def vector(coords: Iterable) -> Vector:
    return tuple(map(rat, coords))


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


@dataclass(frozen=True)
class Matrix:
    """Immutable rectangular matrix; action convention (Mv)_r = sum_c M[r][c] v_c."""

    rows: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.rows:
            width = len(self.rows[0])
            if any(len(r) != width for r in self.rows):
                raise ValueError("ragged matrix")

    @cached_property
    def ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(rows, den): the rows as integer numerators over one denominator."""
        den = lcm(*(x.denominator for r in self.rows for x in r))
        return tuple(tuple(x.numerator * (den // x.denominator) for x in r)
                     for r in self.rows), den

    @staticmethod
    def from_ints(rows: Sequence[Sequence[int]], den: int) -> "Matrix":
        """rows / den, keeping its integer form with the content divided out."""
        g = gcd(den, *(x for r in rows for x in r)) * (1 if den > 0 else -1)
        rows, den = tuple(tuple(x // g for x in r) for r in rows), den // g
        m = Matrix(tuple(as_fractions(r, den) for r in rows))
        m.__dict__["ints"] = (rows, den)
        return m

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

    def column(self, j: int) -> Vector:
        return tuple(r[j] for r in self.rows)

    def transpose(self) -> "Matrix":
        return Matrix(tuple(zip(*self.rows, strict=True))) if self.rows else self

    def apply(self, v: Sequence) -> Vector:
        if len(v) != self.ncols:
            raise ValueError("dimension mismatch in matrix-vector product")
        rows, den = self.ints
        xs, dx = as_ints(v)
        return as_fractions([sum(map(mul, r, xs)) for r in rows], den * dx)

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
        (a, da), (b, db) = self.ints, other.ints
        cols = list(zip(*b))
        return Matrix.from_ints([[sum(map(mul, r, c)) for c in cols] for r in a], da * db)

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
        """det(rows / den) = det(rows) / den^n."""
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        rows, den = self.ints
        pivots, d, sign = _eliminate([list(r) for r in rows], self.ncols)
        return Fraction(sign * d, den ** self.nrows) if len(pivots) == self.nrows else ZERO

    def inverse(self) -> "Matrix":
        """RREF of [rows | den·I] is [I | (rows / den)^-1]."""
        if not self.is_square():
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        rows, den = self.ints
        aug = [list(r) + [den * (i == j) for j in range(n)] for i, r in enumerate(rows)]
        pivots, d, _ = _eliminate(aug, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return Matrix.from_ints([r[n:] for r in aug], d)

    def is_invertible(self) -> bool:
        return self.is_square() and self.det() != 0


def _eliminate(m: list[list[int]], ncols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Bareiss (Math. Comp. 22, 1968), above the pivot too: at pivot p each other
    row becomes (p·row - a·pivot_row) / prev, exact since every entry is a
    minor of the input. Pivots are sought in the first ``ncols`` columns.
    Returns (pivots, d, sign of the row swaps): the pivot rows are the RREF
    times d, and a full-rank square matrix has det sign·d.
    """
    nrows = len(m)
    pivots: list[int] = []
    sign, prev = 1, 1
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][col]), None)
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[col]
        for i in range(nrows):
            if i != r:
                a = m[i][col]
                m[i] = [(p * x - a * y) // prev for x, y in zip(m[i], prow)]
        prev = p
        pivots.append(col)
    return pivots, prev, sign


def rref(m: Matrix) -> tuple[Matrix, int]:
    """Reduced row-echelon form and rank."""
    if m.nrows == 0:
        return m, 0
    rows = [list(r) for r in m.ints[0]]
    pivots, d, _ = _eliminate(rows, m.ncols)
    return Matrix.from_ints(rows, d), len(pivots)


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

    @cached_property
    def ints(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        return Matrix(self.basis).ints

    @staticmethod
    def from_ints(ambient_dim: int, rows: list[list[int]]) -> "Subspace":
        """Span of integer rows (each of any scale), eliminated in place."""
        pivots, d, _ = _eliminate(rows, ambient_dim)
        m = Matrix.from_ints(rows[:len(pivots)], d)
        s = Subspace(ambient_dim, m.rows)
        s.__dict__["ints"] = m.ints
        return s

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = [as_ints(v)[0] for v in vectors]
        if any(len(r) != ambient_dim for r in rows):
            raise ValueError("vector length does not match ambient dimension")
        return Subspace.from_ints(ambient_dim, rows)

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
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.ints[0])

    def contains_ints(self, x: Sequence[int]) -> bool:
        """x (integer numerators) is in the subspace iff its pivot entries rebuild it."""
        rows, den = self.ints
        coords = [x[p] for p in self.pivots()]
        rebuilt = [sum(map(mul, coords, col)) for col in zip(*rows)]
        return (rebuilt or [0] * len(x)) == [den * a for a in x]


def kernel_ints(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """A basis of {v : Mv = 0}; after elimination, row r of M reads
    d·v[p_r] + sum_f rows[r][f]·v[f] = 0 over the free columns f."""
    pivots, d, _ = _eliminate(rows, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[f] = d
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(v)
    return basis


def kernel(m: Matrix) -> Subspace:
    """Canonical basis of {v : Mv = 0}."""
    return Subspace.from_ints(m.ncols, kernel_ints([list(r) for r in m.ints[0]], m.ncols))


def image(m: Matrix) -> Subspace:
    """Column space of m, canonicalized."""
    return Subspace.from_ints(m.nrows, [list(c) for c in zip(*m.ints[0])])


def _check_ambient(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")


def intersect(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    if u.dim == 0 or v.dim == 0:
        return Subspace.zero(u.ambient_dim)
    # Solve a*U = b*V: kernel of the (n x (du+dv)) matrix [U^T | -V^T].
    us, vs = u.ints[0], v.ints[0]
    system = [list(col) for col in zip(*us, *([-x for x in r] for r in vs))]
    vectors = [[sum(map(mul, c[: u.dim], col)) for col in zip(*us)]
               for c in kernel_ints(system, u.dim + v.dim)]
    return Subspace.from_ints(u.ambient_dim, vectors)


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    _check_ambient(u, v)
    return Subspace.from_ints(u.ambient_dim, [list(r) for r in u.ints[0] + v.ints[0]])


def contains(u: Subspace, x: Sequence) -> bool:
    if len(x) != u.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return u.contains_ints(as_ints(x)[0])


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
    return tuple(v[p] for p in u.pivots()) if u.contains_ints(as_ints(v)[0]) else None


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
