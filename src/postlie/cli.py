"""Command-line front end: file formats, subcommands and line-oriented reports.

Exit codes: 0 success, 1 mathematical falsification, 2 malformed input.

Algebra files (one bracket line per pair i < j, antisymmetric completion
implied; all scalars canonical rational strings):

    dim 3
    basis e1 e2 e3
    bracket 0 1 : 2 1
    bracket 0 2 : 0 -2

Operator files (row-major, action (Rv)_r = sum_c M[r][c] v_c):

    dim 3
    weight 1
    row 0 0 0
    row 0 -1 0
    row 1 0 1
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from .catalog import (
    ConstraintError,
    catalog_operators,
    make_sl2,
    make_sl2sl2,
    make_table1,
    make_type,
    verify_witness,
    witnesses,
)
from .classify import classify3
from .exactla import Matrix
from .liealg import LieAlgebra, fingerprint, is_semisimple, jacobi_failure
from .pastruct import (
    TRIPLE_INVARIANTS,
    derived_bracket,
    first_pa_failure,
    inner_pa_from_rb,
    triple_decomposition,
)
from .rbops import RBOperator, first_rb_failure, rescale_to_weight_one

EXIT_OK = 0
EXIT_MATH = 1
EXIT_PARSE = 2

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[0-9]+)?$")


class ParseError(Exception):
    pass


class Falsified(Exception):
    """A mathematical check failed; the message is the report line."""


def _rational(token: str) -> Fraction:
    if not _RATIONAL_RE.match(token):
        raise ParseError(f"malformed rational {token!r}")
    try:
        return Fraction(token)
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in rational {token!r}") from None


def _index(token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"malformed index {token!r}") from None


def _dim(tokens: list[str], dim: int | None) -> int:
    """Parse a dim line; a file has exactly one."""
    if dim is not None:
        raise ParseError("duplicate dim line")
    if len(tokens) != 2 or not tokens[1].isdigit():
        raise ParseError("bad dim line")
    return int(tokens[1])


def _content_lines(text: str) -> list[list[str]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line.split())
    return out


def parse_algebra(text: str) -> LieAlgebra:
    """Parse an algebra file; antisymmetry holds by construction."""
    dim = None
    labels = None
    sc: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
    for tokens in _content_lines(text):
        key = tokens[0]
        if key == "dim":
            dim = _dim(tokens, dim)
        elif key == "basis":
            if labels is not None:
                raise ParseError("duplicate basis line")
            labels = tuple(tokens[1:])
        elif key == "bracket":
            if dim is None:
                raise ParseError("bracket before dim")
            if len(tokens) < 6 or tokens[3] != ":" or len(tokens) % 2 != 0:
                raise ParseError(f"bad bracket line {' '.join(tokens)!r}")
            i, j = _index(tokens[1]), _index(tokens[2])
            if not (0 <= i < j < dim):
                raise ParseError(f"bracket indices ({i},{j}) out of order or range")
            terms = []
            for k_tok, c_tok in zip(tokens[4::2], tokens[5::2]):
                k = _index(k_tok)
                if not (0 <= k < dim):
                    raise ParseError(f"bracket target index {k} out of range")
                if any(k == seen for seen, _ in terms):
                    raise ParseError(f"bracket target index {k} repeated")
                terms.append((k, _rational(c_tok)))
            if (i, j) in sc:
                raise ParseError(f"duplicate bracket line for pair ({i},{j})")
            sc[(i, j)] = terms
        else:
            raise ParseError(f"unknown line key {key!r}")
    if dim is None:
        raise ParseError("missing dim line")
    if labels is not None and len(labels) != dim:
        raise ParseError("basis label count does not match dim")
    return LieAlgebra.from_brackets(dim, sc, labels)


def parse_operator(text: str) -> tuple[int, Fraction, Matrix]:
    dim = None
    weight = None
    rows = []
    for tokens in _content_lines(text):
        key = tokens[0]
        if key == "dim":
            dim = _dim(tokens, dim)
        elif key == "weight":
            if weight is not None:
                raise ParseError("duplicate weight line")
            if len(tokens) != 2:
                raise ParseError("bad weight line")
            weight = _rational(tokens[1])
        elif key == "row":
            if dim is None:
                raise ParseError("row before dim")
            if len(tokens) != dim + 1:
                raise ParseError("row length does not match dim")
            rows.append([_rational(t) for t in tokens[1:]])
        else:
            raise ParseError(f"unknown line key {key!r}")
    if dim is None or weight is None:
        raise ParseError("missing dim or weight line")
    if len(rows) != dim:
        raise ParseError("row count does not match dim")
    return dim, weight, Matrix.from_rows(rows)


def emit_algebra(L: LieAlgebra) -> str:
    lines = [f"dim {L.dim}", "basis " + " ".join(L.basis_labels)]
    for (i, j), terms in sorted(L.sparse_brackets().items()):
        body = " ".join(f"{k} {c}" for k, c in terms)
        lines.append(f"bracket {i} {j} : {body}")
    return "\n".join(lines) + "\n"


def emit_operator(op: RBOperator) -> str:
    lines = [f"dim {op.matrix.nrows}", f"weight {op.weight}"]
    for r in op.matrix.rows:
        lines.append("row " + " ".join(str(x) for x in r))
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise ParseError(f"cannot write {path}: {exc}") from exc


def _load_verified(alg_path: str, op_path: str) -> RBOperator:
    """Load an algebra and an operator on it; the RB identity must hold."""
    L = parse_algebra(_read(alg_path))
    fail = jacobi_failure(L)
    if fail is not None:
        raise ParseError(f"algebra fails Jacobi at basis triple {fail}")
    dim, weight, m = parse_operator(_read(op_path))
    if dim != L.dim:
        raise ParseError("operator dimension does not match algebra")
    fail = first_rb_failure(L, m, weight)
    if fail is not None:
        raise Falsified(f"RB identity fails at basis pair {fail}")
    return RBOperator(L, m, weight)


def _fingerprint_report(L: LieAlgebra) -> list[str]:
    fp = fingerprint(L)
    flags = []
    if is_semisimple(L):
        flags.append("semisimple")
    if fp.solvable:
        flags.append("solvable")
    if fp.nilpotent:
        flags.append("nilpotent")
    if fp.derived_dims[1] == 0:
        flags.append("abelian")
    if fp.unimodular:
        flags.append("unimodular")
    summary = f"summary: dim {fp.dim}, killing rank {fp.killing_rank}"
    if flags:
        summary += ", " + ", ".join(flags)
    return [
        f"dim {fp.dim}",
        "derived dims " + " ".join(str(d) for d in fp.derived_dims),
        "lower central dims " + " ".join(str(d) for d in fp.lcs_dims),
        f"center dim {fp.center_dim}",
        f"killing rank {fp.killing_rank}",
        summary,
    ]


def cmd_check(args) -> int:
    L = parse_algebra(_read(args.algebra))
    fail = jacobi_failure(L)
    if fail is not None:
        print(f"Jacobi identity fails at basis triple {fail}")
        return EXIT_MATH
    for line in _fingerprint_report(L):
        print(line)
    return EXIT_OK


def cmd_rb_check(args) -> int:
    op = _load_verified(args.algebra, args.operator)
    pairs = op.algebra.dim * (op.algebra.dim - 1) // 2
    print(f"RB identity holds ({pairs} basis pairs checked)")
    return EXIT_OK


def _weight_one(op: RBOperator) -> RBOperator:
    """Rescale to weight 1, printing a notice; weight 0 is a hard failure."""
    if op.weight == 1:
        return op
    if op.weight == 0:
        print("weight 0 operator has no derived bracket")
        raise SystemExit(EXIT_MATH)
    print(f"notice: rescaling weight {op.weight} operator to weight 1")
    return rescale_to_weight_one(op)


def cmd_rb_derive(args) -> int:
    g = derived_bracket(_weight_one(_load_verified(args.algebra, args.operator)))
    _write(args.out, emit_algebra(g))
    print(f"wrote derived bracket to {args.out}")
    return EXIT_OK


def cmd_pa_check(args) -> int:
    p = inner_pa_from_rb(_weight_one(_load_verified(args.algebra, args.operator)))
    bad = first_pa_failure(p)
    if bad is not None:
        axiom, where = bad
        print(f"PA axiom {axiom!r} fails at basis indices {where}")
        return EXIT_MATH
    print("PA axioms hold (difference, representation, derivation)")
    return EXIT_OK


def cmd_decompose(args) -> int:
    op = _weight_one(_load_verified(args.algebra, args.operator))
    try:
        dec = triple_decomposition(op)
    except ArithmeticError as exc:
        print(str(exc))
        return EXIT_MATH
    print(f"n1 dim {dec.n1.dim}")
    print(f"n2 dim {dec.n2.dim}")
    print(f"n3 dim {dec.n3.dim}")
    # triple_decomposition raises unless every invariant of its report holds.
    for key in TRIPLE_INVARIANTS:
        print(f"{key} ok")
    return EXIT_OK


def cmd_classify3(args) -> int:
    L = parse_algebra(_read(args.algebra))
    if L.dim != 3:
        raise ParseError("classify3 requires a 3-dimensional algebra")
    fail = jacobi_failure(L)
    if fail is not None:
        print(f"Jacobi identity fails at basis triple {fail}")
        return EXIT_MATH
    cls = classify3(L)
    if cls.j_invariant is not None:
        print(f"{cls.tag}, j = {cls.j_invariant}")
    else:
        print(cls.tag)
    return EXIT_OK


# Each builtin algebra with the --param keys it accepts.
_BUILTIN_ALGEBRAS = {
    "sl2": (), "sl2sl2": (), "abelian": (), "n3": (), "r2_plus_C": (), "r3": (),
    "r3_lambda": ("lam",), "type1": (), "type2": ("lam",), "type3": ("lam", "mu"),
    "type4": (), "type5": ("alpha", "beta"), "type6": ("lam", "alpha"),
    "type7": ("lam", "alpha1", "alpha2"),
    "type8a": ("alpha1", "alpha2", "alpha4", "alpha7"),
    "type8b": ("alpha1", "alpha2", "alpha3"),
}


def _builtin_algebra(name: str, params: dict[str, Fraction]) -> LieAlgebra:
    if name == "sl2":
        return make_sl2()
    if name == "sl2sl2":
        return make_sl2sl2()
    if name in ("abelian", "n3", "r2_plus_C", "r3"):
        return make_table1(name)
    if name == "r3_lambda":
        return make_table1(name, params.get("lam"))
    if name.startswith("type8"):
        return make_type(8, variant=name[-1], **params)
    return make_type(int(name[4:]), **params)


def cmd_catalog(args) -> int:
    ops = catalog_operators()
    if args.action == "list":
        for name in sorted(ops):
            print(f"operator {name}")
        for name in _BUILTIN_ALGEBRAS:
            print(f"algebra {name}")
        return EXIT_OK
    name = args.name
    if name is None:
        raise ParseError("catalog emit requires a name")
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise ParseError(f"bad --param {item!r}, expected k=v")
        key, _, value = item.partition("=")
        params[key] = _rational(value)
    if name not in ops and name not in _BUILTIN_ALGEBRAS:
        raise ParseError(f"unknown catalog entry {name!r}")
    accepted = _BUILTIN_ALGEBRAS.get(name, ())
    for key in params:
        if key not in accepted:
            raise ParseError(f"unknown --param key {key!r} for {name} "
                             f"(accepted: {', '.join(accepted) or 'none'})")
    if name in ops:
        op = ops[name]
        alg_path = f"{args.out}/{name}.alg"
        op_path = f"{args.out}/{name}.rbop"
        _write(alg_path, emit_algebra(op.algebra))
        _write(op_path, emit_operator(op))
        written = [alg_path, op_path]
    else:
        try:
            L = _builtin_algebra(name, params)
        except (ConstraintError, KeyError) as exc:
            print(f"cannot build {name}: {exc}")
            return EXIT_MATH
        alg_path = f"{args.out}/{name}.alg"
        _write(alg_path, emit_algebra(L))
        written = [alg_path]
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_verify_thm41(args) -> int:
    wanted = None if args.all else str(args.type)
    any_fail = False
    types_seen = set()
    for w in witnesses():
        if wanted is not None and not w.target_type.startswith(wanted):
            continue
        report = verify_witness(w)
        types_seen.add(w.target_type.rstrip("ab"))
        if report.ok:
            print(f"PASS {w.name} (type {w.target_type})")
        else:
            any_fail = True
            failing = [k for k, v in report.steps if not v]
            print(f"FAIL {w.name} (type {w.target_type}): {', '.join(failing)}")
    if not types_seen:
        raise ParseError("no witnesses match the requested type")
    if any_fail:
        print("result: FAIL")
        return EXIT_MATH
    print(f"result: all witnesses pass ({len(types_seen)} types)")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postlie",
        description="Exact toolkit for Rota-Baxter operators and post-Lie "
                    "structures on structure-constant Lie algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate an algebra file and report invariants")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("rb-check", help="verify the Rota-Baxter identity")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(func=cmd_rb_check)

    p = sub.add_parser("rb-derive", help="write the derived bracket algebra file")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.add_argument("out")
    p.set_defaults(func=cmd_rb_derive)

    p = sub.add_parser("pa-check", help="verify the post-Lie axioms of the inner product")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(func=cmd_pa_check)

    p = sub.add_parser("decompose", help="triple decomposition report")
    p.add_argument("algebra")
    p.add_argument("operator")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("classify3", help="classify a 3-dimensional algebra")
    p.add_argument("algebra")
    p.set_defaults(func=cmd_classify3)

    p = sub.add_parser("catalog", help="list or emit builtin algebras and operators")
    p.add_argument("action", choices=("list", "emit"))
    p.add_argument("name", nargs="?")
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("verify-thm41",
                       help="run the full witness certification pipeline")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--type", type=int, choices=range(1, 9))
    group.add_argument("--all", action="store_true")
    p.set_defaults(func=cmd_verify_thm41)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except Falsified as exc:
        print(exc)
        return EXIT_MATH
    except ConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
