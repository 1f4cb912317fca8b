"""Inputs, requests and expected answers of the benchmark's workloads.

Every request ("op") is a zero-argument callable that performs one
certification request through postlie's public functions and returns a
plain answer. Each op carries the answer it must give. Those answers are
fixed by how the inputs were built (the mathematics of the construction),
never by running the code under test.

Builders take ``pl``, a namespace holding the loaded postlie modules
(``pl.catalog``, ``pl.cli``, ...), so the benchmark can time a fresh import
and tests can pass the modules they already imported.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

WORKLOADS = ("thm41", "thm41-dense", "cli-mix")

# Bases drawn per catalog witness in thm41-dense. 3 x 18 distinct inputs keep
# the latency percentiles steady across seeds; one basis each in a traced pass.
DENSE_BASES = 3

CORE_STEPS = (
    "rb_identity",
    "derived_bracket_jacobi",
    "kernel_ideals_depth2",
    "derived_dim_inequality_depth6",
    "triple_decomposition",
    "fingerprint_match",
)
ISO_STEP = "explicit_isomorphism"


@dataclass(frozen=True)
class Op:
    label: str
    call: Callable[[], object]
    expect: object


# ---------------------------------------------------------------------------
# thm41 and thm41-dense: the witness certification pipeline
# ---------------------------------------------------------------------------

def expected_steps(w) -> tuple:
    """Every step passes; a witness that carries an iso is certified by it."""
    names = CORE_STEPS + ((ISO_STEP,) if w.iso is not None else ())
    return tuple((name, True) for name in names)


def _certify(pl, w) -> tuple:
    report = pl.catalog.verify_witness(w)
    return tuple((name, bool(ok)) for name, ok in report.steps)


def witness_op(pl, w) -> Op:
    return Op(w.name, partial(_certify, pl, w), expected_steps(w))


def random_basis(rng: random.Random, n: int) -> list[list[int]]:
    """Integer basis P = (L U) with permuted columns and det(P) = +-2.

    L is unit lower bidiagonal, U upper bidiagonal with one diagonal 2, both
    with random signs off the diagonal. P^-1 is dense with halves in it, so
    transported tables are dense with non-integer rationals.
    """
    two = rng.randrange(n)
    lower = [[1 if r == c else rng.choice((-1, 1)) if r == c + 1 else 0
              for c in range(n)] for r in range(n)]
    upper = [[(2 if r == two else 1) if r == c else rng.choice((-1, 1)) if c == r + 1 else 0
              for c in range(n)] for r in range(n)]
    perm = list(range(n))
    rng.shuffle(perm)
    lu = [[sum(lower[r][k] * upper[k][c] for k in range(n)) for c in range(n)]
          for r in range(n)]
    return [[lu[r][perm[c]] for c in range(n)] for r in range(n)]


def transport(pl, w, P):
    """The witness in the basis f_i = P e_i: algebra change_basis(n, P),
    operator P^-1 R P, isomorphism iso P; the target is unchanged."""
    op = w.operator
    inv = P.inverse()
    moved = pl.rbops.RBOperator(pl.liealg.change_basis(op.algebra, P),
                                inv * op.matrix * P, op.weight)
    iso = None if w.iso is None else w.iso * P
    return pl.catalog.Witness(w.name, moved, w.target_type, w.target, iso, w.params)


def build_thm41(pl, rng, workdir, traced) -> list[Op]:
    return [witness_op(pl, w) for w in pl.catalog.witnesses()]


def build_dense(pl, rng, workdir, traced) -> list[Op]:
    ws = pl.catalog.witnesses()
    ops = []
    for _ in range(1 if traced else DENSE_BASES):
        for w in ws:
            P = pl.exactla.Matrix.from_rows(random_basis(rng, w.operator.algebra.dim))
            ops.append(witness_op(pl, transport(pl, w, P)))
    return ops


# ---------------------------------------------------------------------------
# cli-mix: many small in-process CLI requests
# ---------------------------------------------------------------------------

def cli_answer(pl, argv, out=None) -> tuple:
    """(exit code, stdout, whether stderr has an error line, first line of out)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = pl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    written = None
    if out is not None and os.path.exists(out):
        with open(out, encoding="ascii") as fh:
            written = fh.readline().rstrip("\n")
        os.remove(out)
    return code, stdout.getvalue(), "error:" in stderr.getvalue(), written


def cli_op(pl, label, argv, code, stdout_lines=(), out=None, written=None) -> Op:
    stdout = "".join(line + "\n" for line in stdout_lines)
    return Op(label, partial(cli_answer, pl, argv, out), (code, stdout, code == 2, written))


RB_HOLDS = "RB identity holds ({} basis pairs checked)"
RB_FAILS_01 = "RB identity fails at basis pair (0, 1)"
PA_HOLDS = "PA axioms hold (difference, representation, derivation)"
TRIPLE_OK = ("direct_sum ok", "n1_n3_in_n1 ok", "n2_n3_in_n2 ok",
             "n3_subalgebra ok", "n3_solvable ok")

# (n1, n2, n3) dims of witnesses whose decomposition follows from their
# construction: R = 0 on A1 and -id on A2 for a split, 0 and -id blocks for
# the double constructions, R = 0 and R = -id themselves.
SPLIT_DIMS = {
    "type1-zero": (6, 0, 0),
    "type1-neg-id": (0, 6, 0),
    "type1-double-nilpotent-id": (6, 0, 0),
    "type1-double-negative-id": (3, 3, 0),
    "type1-double-nilpotent-weyl": (6, 0, 0),
    "type1-double-negative-weyl": (3, 3, 0),
    "type1-split-factors": (3, 3, 0),
    "type2-split": (5, 1, 0),
    "type3-case2b": (3, 3, 0),
    "type3-split-split": (4, 2, 0),
    "type4-case2a": (4, 2, 0),
}
CLI_WITNESSES = 8


def decompose_lines(dims) -> tuple:
    return tuple(f"n{i} dim {d}" for i, d in enumerate(dims, 1)) + TRIPLE_OK


def check_lines(dim, derived, lcs, center, killing, flags) -> tuple:
    summary = ", ".join([f"summary: dim {dim}, killing rank {killing}", *flags])
    return (f"dim {dim}", "derived dims " + " ".join(map(str, derived)),
            "lower central dims " + " ".join(map(str, lcs)),
            f"center dim {center}", f"killing rank {killing}", summary)


def class3_facts(tag, lam=None) -> tuple:
    """``postlie check`` output of a 3-dim class, in any basis."""
    if tag == "abelian":
        return check_lines(3, (3, 0), (3, 0), 3, 0,
                           ("solvable", "nilpotent", "abelian", "unimodular"))
    if tag == "n3":
        return check_lines(3, (3, 1, 0), (3, 1, 0), 1, 0,
                           ("solvable", "nilpotent", "unimodular"))
    if tag == "r2_plus_C":
        return check_lines(3, (3, 1, 0), (3, 1, 1), 1, 1, ("solvable",))
    if tag == "r3":
        return check_lines(3, (3, 2, 0), (3, 2, 2), 0, 1, ("solvable",))
    if tag == "r3_lambda":
        # tr ad(e1) = 1 + lam; the Killing form is (1 + lam^2) e1* e1*.
        flags = ("solvable", "unimodular") if lam == -1 else ("solvable",)
        return check_lines(3, (3, 2, 0), (3, 2, 2), 0, 1, flags)
    return check_lines(3, (3, 3), (3, 3), 0, 3, ("semisimple", "unimodular"))


def random_basis3(rng: random.Random) -> list[list[int]]:
    while True:
        P = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        det = (P[0][0] * (P[1][1] * P[2][2] - P[1][2] * P[2][1])
               - P[0][1] * (P[1][0] * P[2][2] - P[1][2] * P[2][0])
               + P[0][2] * (P[1][0] * P[2][1] - P[1][1] * P[2][0]))
        if det:
            return P


def nonzero_rational(rng: random.Random, exclude=()) -> Fraction:
    while True:
        q = Fraction(rng.choice((-3, -2, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3)))
        if q not in exclude:
            return q


# Malformed inputs: every one must exit 2 with an error line.
MALFORMED_ALGEBRAS = {
    "missing-dim": "basis a b c\n",
    "bracket-before-dim": "bracket 0 1 : 2 1\ndim 3\n",
    "bad-dim": "dim x\n",
    "bad-rational": "dim 3\nbracket 0 1 : 2 1/x\n",
    "index-order": "dim 3\nbracket 1 0 : 2 1\n",
    "target-range": "dim 3\nbracket 0 1 : 5 1\n",
    "duplicate-bracket": "dim 3\nbracket 0 1 : 2 1\nbracket 0 1 : 2 1\n",
    "unknown-key": "dim 3\nfoo 1\n",
    "label-count": "dim 3\nbasis a b\n",
}
MALFORMED_OPERATORS = {
    "row-count": "dim 3\nweight 1\nrow 1 0 0\n",
    "missing-weight": "dim 3\nrow 1 0 0\nrow 0 1 0\nrow 0 0 1\n",
}
# Inputs the CLI contract says must exit 2 but that crashed with a traceback
# when this benchmark was written. They stay outside the timed mix, which
# must not fail, and known_defects() reports how each one ends.
DEFECT_ALGEBRAS = {
    "non-integer-index": "dim 3\nbracket a 1 : 2 1\n",
    "zero-denominator": "dim 3\nbracket 0 1 : 2 1/0\n",
}
NON_ASCII_ALGEBRA = "dim 3\nbasis α b c\nbracket 0 1 : 2 1\n"
# [e1,e2] = e1, [e1,e3] = e2: the one 3-dim triple fails Jacobi.
NON_JACOBI_ALGEBRA = "dim 3\nbracket 0 1 : 0 1\nbracket 0 2 : 1 1\n"


def _write(workdir, name, text) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def build_cli(pl, rng, workdir, traced) -> list[Op]:
    cat, cli, liealg = pl.catalog, pl.cli, pl.liealg
    Matrix, RBOperator = pl.exactla.Matrix, pl.rbops.RBOperator

    def emit_pair(name, op):
        return (_write(workdir, name + ".alg", cli.emit_algebra(op.algebra)),
                _write(workdir, name + ".rbop", cli.emit_operator(op)))

    ops = []
    # 6-dim witnesses in the paper basis, chosen from those with known dims.
    by_name = {w.name: w for w in cat.witnesses()}
    for name in rng.sample(sorted(SPLIT_DIMS), CLI_WITNESSES):
        alg, rbop = emit_pair(name, by_name[name].operator)
        out = os.path.join(workdir, name + ".derived.alg")
        ops += [
            cli_op(pl, f"rb-check {name}", ["rb-check", alg, rbop], 0, [RB_HOLDS.format(15)]),
            cli_op(pl, f"pa-check {name}", ["pa-check", alg, rbop], 0, [PA_HOLDS]),
            cli_op(pl, f"decompose {name}", ["decompose", alg, rbop], 0,
                   decompose_lines(SPLIT_DIMS[name])),
            cli_op(pl, f"rb-derive {name}", ["rb-derive", alg, rbop, out], 0,
                   [f"wrote derived bracket to {out}"], out=out, written="dim 6"),
            cli_op(pl, f"check {name}", ["check", alg], 0,
                   check_lines(6, (6, 6), (6, 6), 0, 6, ("semisimple", "unimodular"))),
        ]

    # t*id on sl2+sl2 is RB of weight 1 iff t^2 + t = 0; otherwise it fails
    # at the first pair with a nonzero bracket, [X1, Y1] = H1.
    n6 = cat.make_sl2sl2()
    ident = Matrix.identity(6)
    bad_t = [nonzero_rational(rng, exclude=(-1,)) for _ in range(2)]
    for t in bad_t + [Fraction(0), Fraction(-1)]:
        alg, rbop = emit_pair(f"tid{t}".replace("/", "_"), RBOperator(n6, ident.scale(t), Fraction(1)))
        if t == 0:
            tid0_alg, tid0_rbop = alg, rbop
        if t in (0, -1):
            dims = (6, 0, 0) if t == 0 else (0, 6, 0)
            ops += [cli_op(pl, f"rb-check t={t}", ["rb-check", alg, rbop], 0, [RB_HOLDS.format(15)]),
                    cli_op(pl, f"decompose t={t}", ["decompose", alg, rbop], 0, decompose_lines(dims))]
            if t == -1:
                ops.append(cli_op(pl, "pa-check t=-1", ["pa-check", alg, rbop], 0, [PA_HOLDS]))
        else:
            ops.append(cli_op(pl, f"rb-check t={t}", ["rb-check", alg, rbop], 1, [RB_FAILS_01]))
            if t == bad_t[0]:
                ops.append(cli_op(pl, f"pa-check t={t}", ["pa-check", alg, rbop], 1, [RB_FAILS_01]))

    # The 3-dim classes, each in a random basis; r3_lambda at known lambdas.
    classes = [("abelian", None), ("n3", None), ("r2_plus_C", None), ("r3", None),
               ("sl2", None)]
    classes += [("r3_lambda", nonzero_rational(rng)) for _ in range(3)]
    for i, (tag, lam) in enumerate(classes):
        L = cat.make_table1(tag, lam)
        moved = liealg.change_basis(L, Matrix.from_rows(random_basis3(rng)))
        path = _write(workdir, f"class{i}.alg", cli.emit_algebra(moved))
        answer = f"r3_lambda, j = {(1 + lam) ** 2 / lam}" if lam is not None else tag
        ops.append(cli_op(pl, f"classify3 {tag}", ["classify3", path], 0, [answer]))
        if lam is None or i == len(classes) - 1:
            ops.append(cli_op(pl, f"check {tag}", ["check", path], 0, class3_facts(tag, lam)))
    non_jacobi = _write(workdir, "non-jacobi.alg", NON_JACOBI_ALGEBRA)
    ops.append(cli_op(pl, "check non-jacobi", ["check", non_jacobi], 1,
                      ["Jacobi identity fails at basis triple (0, 1, 2)"]))

    # example216 on r2 + C is RB of weight 1 iff beta = 0; with beta != 0 the
    # pair (0, 1) fails. With beta = 0 its eigenvalues are 1, -1 and gamma.
    r2c = cat.make_table1("r2_plus_C")
    alpha, gamma = nonzero_rational(rng), nonzero_rational(rng, exclude=(-1,))
    alg, rbop = emit_pair("ex216", RBOperator(r2c, cat.example216_matrix(alpha, 0, gamma),
                                              Fraction(1)))
    out = os.path.join(workdir, "ex216.derived.alg")
    ops += [
        cli_op(pl, "rb-check ex216", ["rb-check", alg, rbop], 0, [RB_HOLDS.format(3)]),
        cli_op(pl, "pa-check ex216", ["pa-check", alg, rbop], 0, [PA_HOLDS]),
        cli_op(pl, "decompose ex216", ["decompose", alg, rbop], 0, decompose_lines((0, 1, 2))),
        cli_op(pl, "rb-derive ex216", ["rb-derive", alg, rbop, out], 0,
               [f"wrote derived bracket to {out}"], out=out, written="dim 3"),
    ]
    beta = nonzero_rational(rng)
    _, bad = emit_pair("ex216-beta", RBOperator(r2c, cat.example216_matrix(alpha, beta, gamma),
                                                Fraction(1)))
    ops += [cli_op(pl, "rb-check ex216 beta", ["rb-check", alg, bad], 1, [RB_FAILS_01]),
            cli_op(pl, "pa-check ex216 beta", ["pa-check", alg, bad], 1, [RB_FAILS_01])]

    # Malformed input: exit 2 and an error line on stderr, nothing on stdout.
    sl2 = _write(workdir, "sl2.alg", cli.emit_algebra(cat.make_sl2()))
    for name, text in MALFORMED_ALGEBRAS.items():
        ops.append(cli_op(pl, f"malformed {name}", ["check", _write(workdir, name + ".alg", text)], 2))
    for name, text in MALFORMED_OPERATORS.items():
        path = _write(workdir, name + ".rbop", text)
        ops.append(cli_op(pl, f"malformed {name}", ["rb-check", sl2, path], 2))
    ops += [
        cli_op(pl, "malformed missing-file",
               ["rb-check", os.path.join(workdir, "absent.alg"), rbop], 2),
        cli_op(pl, "malformed classify3-dim6", ["classify3", tid0_alg], 2),
        cli_op(pl, "malformed dim-mismatch", ["rb-check", sl2, tid0_rbop], 2),
        cli_op(pl, "malformed non-jacobi", ["rb-check", non_jacobi, rbop], 2),
        cli_op(pl, "malformed command", ["no-such-command"], 2),
    ]
    return ops


def known_defects(pl, workdir) -> dict[str, str]:
    """Run the inputs that should exit 2 but crash; name each outcome."""
    sl2 = _write(workdir, "defect-sl2.alg", pl.cli.emit_algebra(pl.catalog.make_sl2()))
    zero = _write(workdir, "defect-zero.rbop",
                  "dim 3\nweight 1\nrow 0 0 0\nrow 0 0 0\nrow 0 0 0\n")
    cases = {name: ["check", _write(workdir, f"defect-{name}.alg", text)]
             for name, text in DEFECT_ALGEBRAS.items()}
    cases["non-ascii"] = ["check", _write(workdir, "defect-non-ascii.alg", NON_ASCII_ALGEBRA)]
    cases["unwritable-output"] = ["rb-derive", sl2, zero,
                                  os.path.join(workdir, "no-such-dir", "out.alg")]
    outcomes = {}
    for name, argv in cases.items():
        try:
            code, _, _, _ = cli_answer(pl, argv)
            outcomes[name] = f"exit {code}"
        except Exception as exc:  # the defect being reported is the crash itself
            outcomes[name] = f"raised {type(exc).__name__}"
    return outcomes


BUILDERS = {"thm41": build_thm41, "thm41-dense": build_dense, "cli-mix": build_cli}


def build(workload, pl, seed, workdir, traced=False) -> list[Op]:
    """The workload's ops, made from the seed alone."""
    return BUILDERS[workload](pl, random.Random(seed), workdir, traced)
