"""Post-Lie algebra structures and the derived bracket of a weight-1 operator.

A PA-structure on a pair of brackets ([,], {,}) on one space is a bilinear
product x.y with

    x.y - y.x       = [x,y] - {x,y}
    [x,y].z         = x.(y.z) - y.(x.z)
    x.{y,z}         = {x.y, z} + {y, x.z}

Every weight-1 RB-operator R yields the inner product x.y = {R(x), y} and the
derived bracket [x,y] = {R(x),y} - {R(y),x} + {x,y}.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

from .exactla import (
    Matrix,
    Subspace,
    Vector,
    as_fractions,
    image,
    intersect,
    is_direct_sum,
    kernel,
)
from .liealg import (
    Fingerprint,
    LieAlgebra,
    bilinear_sc,
    bilinear_ints,
    brackets_within,
    check_jacobi,
    derived_series,
    fingerprint,
    first_hom_failure,
    structure_constants,
    is_ideal,
    is_solvable,
    restrict,
    subalgebra_closure,
)
from .rbops import RBOperator

ProductTable = tuple[tuple[Vector, ...], ...]


@dataclass(frozen=True)
class PAProduct:
    """Bilinear product on a pair (g, n) of brackets sharing one space."""

    g: LieAlgebra
    n: LieAlgebra
    coeffs: ProductTable  # coeffs[i][j] = e_i . e_j

    def __post_init__(self):
        if self.g.dim != self.n.dim:
            raise ValueError("pair brackets must share one dimension")

    @cached_property
    def constants(self):
        return structure_constants(self.coeffs)

    def product(self, x: Sequence, y: Sequence) -> Vector:
        return bilinear_sc(self.constants, x, y)


def _pa_failures(p: PAProduct) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Every failing axiom instance as (axiom name, basis indices): the
    difference axiom on pairs first, then per basis triple the representation
    and the derivation axiom, on cross-multiplied integer numerators."""
    d = p.n.dim
    (gs, dg), (ns, dn), (cs, dc) = p.g.constants, p.n.constants, p.constants
    G, N, C = _dense(gs, d), _dense(ns, d), _dense(cs, d)
    units = Matrix.identity(d).ints[0]
    for i in range(d):
        for j in range(i + 1, d):
            # (C_ij - C_ji) / dc = G_ij / dg - N_ij / dn
            if any((a - b) * dg * dn != (x * dn - y * dg) * dc
                   for a, b, x, y in zip(C[i][j], C[j][i], G[i][j], N[i][j])):
                yield ("difference", (i, j))
    for i in range(d):
        for j in range(d):
            for k in range(d):
                # [e_i, e_j]_g . e_k over dg·dc; e_i.(e_j.e_k) - e_j.(e_i.e_k) over dc^2
                lhs = bilinear_ints(cs, G[i][j], units[k])
                rhs = [a - b for a, b in zip(bilinear_ints(cs, units[i], C[j][k]),
                                             bilinear_ints(cs, units[j], C[i][k]))]
                if any(a * dc != b * dg for a, b in zip(lhs, rhs)):
                    yield ("representation", (i, j, k))
                # e_i.{e_j, e_k} and {e_i.e_j, e_k} + {e_j, e_i.e_k}, all over dn·dc
                lhs = bilinear_ints(cs, units[i], N[j][k])
                rhs = [a + b for a, b in zip(bilinear_ints(ns, C[i][j], units[k]),
                                             bilinear_ints(ns, units[j], C[i][k]))]
                if lhs != rhs:
                    yield ("derivation", (i, j, k))


def _dense(sc, d: int) -> list[list[tuple[int, ...]]]:
    """The integer numerators of a sparse table, zero entries included."""
    zero = (0,) * d
    return [[row.get(j, zero) for j in range(d)] for row in sc]


def first_pa_failure(p: PAProduct) -> tuple[str, tuple[int, ...]] | None:
    """First failing axiom instance as (axiom name, basis indices), or None."""
    return next(_pa_failures(p), None)


def check_pa_axioms(p: PAProduct) -> bool:
    return first_pa_failure(p) is None


def left_multiplications_are_derivations(p: PAProduct) -> bool:
    """L(x){y,z} = {L(x)y, z} + {y, L(x)z} on all basis triples."""
    return all(axiom != "derivation" for axiom, _ in _pa_failures(p))


def _require_weight_one(op: RBOperator) -> None:
    if op.weight != 1:
        raise ValueError("derived bracket requires weight 1; rescale first")


def is_lie_homomorphism(phi: Matrix, g: LieAlgebra, n: LieAlgebra) -> bool:
    """phi [x,y]_g = {phi x, phi y}_n on all basis pairs."""
    return first_hom_failure(phi, g, n) is None


def _inner_ints(op: RBOperator) -> tuple[list[list[list[int]]], int]:
    """{R(e_i), e_j}, the inner product on basis pairs, as integers over dr·dn."""
    (sc, dn), (rows, dr) = op.algebra.constants, op.matrix.ints
    units = Matrix.identity(op.algebra.dim).ints[0]
    return [[bilinear_ints(sc, col, u) for u in units] for col in zip(*rows)], dr * dn


def derived_bracket(op: RBOperator) -> LieAlgebra:
    """[x,y] = {R(x),y} - {R(y),x} + {x,y}; verified to be a Lie bracket."""
    _require_weight_one(op)
    n = op.algebra
    d = n.dim
    c, den = _inner_ints(op)
    dr, N = op.matrix.ints[1], _dense(n.constants[0], d)
    table = [[[a - b + dr * x for a, b, x in zip(c[i][j], c[j][i], N[i][j])]
              for j in range(d)] for i in range(d)]
    g = LieAlgebra.from_table(d, [[as_fractions(e, den) for e in row] for row in table],
                              n.basis_labels)
    if not check_jacobi(g):
        raise ArithmeticError("derived bracket fails Jacobi; operator is not RB")
    rid = op.matrix + Matrix.identity(d)
    if not (is_lie_homomorphism(op.matrix, g, n) and is_lie_homomorphism(rid, g, n)):
        raise ArithmeticError("R or R+id fails to be a homomorphism g -> n")
    return g


def inner_pa_from_rb(op: RBOperator) -> PAProduct:
    """x.y = {R(x), y} together with the derived bracket as g."""
    c, den = _inner_ints(op)
    coeffs = tuple(tuple(as_fractions(entry, den) for entry in row) for row in c)
    return PAProduct(derived_bracket(op), op.algebra, coeffs)


@dataclass(frozen=True)
class BracketTower:
    """Levels g_0 = n, g_1, ... of the iterated derived bracket recursion."""

    operator: RBOperator
    levels: tuple[LieAlgebra, ...]


def bracket_tower(op: RBOperator, depth: int) -> BracketTower:
    """[x,y]_{i+1} = [R(x),y]_i - [R(y),x]_i + [x,y]_i, checked level by level.

    Each level comes from ``derived_bracket``, which raises unless it is a Lie
    bracket and R and R+id are homomorphisms from it to the level below.
    """
    _require_weight_one(op)
    levels = [op.algebra]
    for _ in range(depth):
        levels.append(derived_bracket(RBOperator(levels[-1], op.matrix, op.weight)))
    return BracketTower(op, tuple(levels))


def derived_dim_inequality(tower: BracketTower, depth: int,
                           g_dims: Sequence[int] | None = None) -> bool:
    """dim g^(i) <= dim n^(i) for i = 1..depth, with n = levels[0], g = levels[1].
    ``g_dims``, g's derived dimensions, spare the series when a caller has them."""

    if g_dims is None:
        g_dims = [s.dim for s in derived_series(tower.levels[1])]
    n_dims = [s.dim for s in derived_series(tower.levels[0])]
    # A series keeps its last dimension once it has stabilized.
    return all(g_dims[min(i, len(g_dims) - 1)] <= n_dims[min(i, len(n_dims) - 1)]
               for i in range(depth))


def kernel_ideal_checks(tower: BracketTower) -> bool:
    """ker(R^i) and ker((R+id)^i) are ideals in g_j for all 1 <= i <= j <= depth,
    where depth = len(levels) - 1."""
    depth = len(tower.levels) - 1
    r = tower.operator.matrix
    rid = r + Matrix.identity(r.nrows)
    kernels = []  # kernels[i - 1] = (ker R^i, ker (R+id)^i)
    r_pow, rid_pow = r, rid
    for i in range(1, depth + 1):
        if i > 1:
            r_pow, rid_pow = r_pow * r, rid_pow * rid
        kernels.append((kernel(r_pow), kernel(rid_pow)))
    return all(is_ideal(tower.levels[j], ker)
               for j in range(1, depth + 1) for pair in kernels[:j] for ker in pair)


@dataclass(frozen=True)
class TripleDecomposition:
    """n1 = ker R^n, n2 = ker (R+id)^n, n3 = im R^n intersect im (R+id)^n."""

    n1: Subspace
    n2: Subspace
    n3: Subspace


def triple_decomposition(op: RBOperator) -> TripleDecomposition:
    """Canonical three-part decomposition; all invariants verified."""
    _require_weight_one(op)
    d = op.algebra.dim
    rn = op.matrix.power(d)
    ridn = (op.matrix + Matrix.identity(d)).power(d)
    n1 = kernel(rn)
    n2 = kernel(ridn)
    n3 = intersect(image(rn), image(ridn))
    dec = TripleDecomposition(n1, n2, n3)
    report = triple_decomposition_report(op, dec)
    if not all(report.values()):
        failing = [k for k, v in report.items() if not v]
        raise ArithmeticError(f"triple decomposition invariants failed: {failing}")
    return dec


TRIPLE_INVARIANTS = ("direct_sum", "n1_n3_in_n1", "n2_n3_in_n2", "n3_subalgebra",
                     "n3_solvable")


def triple_decomposition_report(op: RBOperator,
                                dec: TripleDecomposition) -> dict[str, bool]:
    """Each of ``TRIPLE_INVARIANTS``, in that order, with whether it holds."""
    n = op.algebra
    values = [
        is_direct_sum([dec.n1, dec.n2, dec.n3])
        and dec.n1.dim + dec.n2.dim + dec.n3.dim == n.dim,
        brackets_within(n, dec.n1.basis, dec.n3.basis, dec.n1),
        brackets_within(n, dec.n2.basis, dec.n3.basis, dec.n2),
        subalgebra_closure(n, dec.n3),
    ]
    values.append(values[-1] and is_solvable(restrict(n, dec.n3)))
    return dict(zip(TRIPLE_INVARIANTS, values, strict=True))


@dataclass(frozen=True)
class KernelDichotomyReport:
    dim_ker_r: int
    dim_ker_r_id: int
    fingerprints_equal: bool
    n_solvable: bool
    consistent: bool
    g_fingerprint: Fingerprint
    n_fingerprint: Fingerprint


def kernel_dichotomy_check(op: RBOperator) -> KernelDichotomyReport:
    """Instance check: non-isomorphic pair forces two nontrivial kernels;
    a non-solvable side forces at least one."""
    _require_weight_one(op)
    d = op.algebra.dim
    g = derived_bracket(op)
    fg, fn = fingerprint(g), fingerprint(op.algebra)
    k1 = kernel(op.matrix).dim
    k2 = kernel(op.matrix + Matrix.identity(d)).dim
    ok = True
    if fg != fn and not (k1 > 0 and k2 > 0):
        ok = False
    if not (fg.solvable and fn.solvable) and not (k1 > 0 or k2 > 0):
        ok = False
    return KernelDichotomyReport(k1, k2, fg == fn, fn.solvable, ok, fg, fn)
