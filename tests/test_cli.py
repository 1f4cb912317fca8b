import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from postlie import cli, pastruct
from postlie.catalog import catalog_operators, make_sl2sl2, make_table1
from postlie.cli import (
    ParseError,
    emit_algebra,
    emit_operator,
    parse_algebra,
    parse_operator,
)
from postlie.rbops import RBOperator


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def emit_pair(tmp_path, name):
    op = catalog_operators()[name]
    alg = write(tmp_path / f"{name}.alg", emit_algebra(op.algebra))
    rbop = write(tmp_path / f"{name}.rbop", emit_operator(op))
    return alg, rbop


def test_round_trip_algebra():
    for L in (make_sl2sl2(), make_table1("r3_lambda", F(-2, 3)),
              make_table1("abelian")):
        assert parse_algebra(emit_algebra(L)) == L


def test_round_trip_operator():
    for name, op in catalog_operators().items():
        dim, weight, m = parse_operator(emit_operator(op))
        assert (dim, weight, m) == (op.matrix.nrows, op.weight, op.matrix), name


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_algebra("dim x\n")
    with pytest.raises(ParseError):
        parse_algebra("dim 2\nbracket 1 0 : 0 1\n")
    with pytest.raises(ParseError):
        parse_algebra("dim 2\nbracket 0 1 : 0 1.5\n")
    with pytest.raises(ParseError):
        parse_algebra("dim 2\nwhat 1\n")
    with pytest.raises(ParseError):
        parse_operator("dim 2\nweight 1\nrow 1 0\n")


def test_check_semisimple(tmp_path, capsys):
    alg = write(tmp_path / "n.alg", emit_algebra(make_sl2sl2()))
    assert cli.main(["check", alg]) == 0
    out = capsys.readouterr().out
    assert "dim 6" in out and "killing rank 6" in out and "semisimple" in out


def test_check_abelian(tmp_path, capsys):
    alg = write(tmp_path / "a.alg", emit_algebra(make_table1("abelian")))
    assert cli.main(["check", alg]) == 0
    out = capsys.readouterr().out
    assert "nilpotent" in out and "abelian" in out


def test_check_jacobi_failure(tmp_path, capsys):
    alg = write(tmp_path / "bad.alg",
                "dim 3\nbracket 0 1 : 0 1\nbracket 0 2 : 1 1\n")
    assert cli.main(["check", alg]) == 1
    assert "(0, 1, 2)" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    alg = write(tmp_path / "junk.alg", "dim two\n")
    assert cli.main(["check", alg]) == 2
    assert cli.main(["check", str(tmp_path / "missing.alg")]) == 2


def test_rb_check(tmp_path, capsys):
    alg, rbop = emit_pair(tmp_path, "type3-case2b")
    assert cli.main(["rb-check", alg, rbop]) == 0
    assert "RB identity holds (15 basis pairs checked)" in capsys.readouterr().out


def test_rb_check_failure(tmp_path, capsys):
    alg = write(tmp_path / "n.alg", emit_algebra(make_sl2sl2()))
    ident = "dim 6\nweight 1\n" + "".join(
        "row " + " ".join("1" if c == r else "0" for c in range(6)) + "\n"
        for r in range(6))
    rbop = write(tmp_path / "id.rbop", ident)
    assert cli.main(["rb-check", alg, rbop]) == 1
    assert "fails at basis pair" in capsys.readouterr().out


def test_rb_derive_and_rescale_notice(tmp_path, capsys):
    op = catalog_operators()["type3-case2b"]
    scaled = RBOperator(op.algebra, op.matrix.scale(3), F(3))
    alg = write(tmp_path / "n.alg", emit_algebra(op.algebra))
    rbop = write(tmp_path / "r3.rbop", emit_operator(scaled))
    out_path = tmp_path / "g.alg"
    assert cli.main(["rb-derive", alg, rbop, str(out_path)]) == 0
    report = capsys.readouterr().out
    assert "notice: rescaling weight 3" in report
    from postlie.pastruct import derived_bracket
    assert parse_algebra(out_path.read_text()).table == derived_bracket(op).table


def test_rb_derive_weight_zero(tmp_path, capsys):
    alg = write(tmp_path / "n.alg", emit_algebra(make_sl2sl2()))
    zero = "dim 6\nweight 0\n" + "row 0 0 0 0 0 0\n" * 6
    rbop = write(tmp_path / "z.rbop", zero)
    with pytest.raises(SystemExit) as exc:
        cli.main(["rb-derive", alg, rbop, str(tmp_path / "g.alg")])
    assert exc.value.code == 1


def test_pa_check(tmp_path, capsys):
    alg, rbop = emit_pair(tmp_path, "type5-case2c")
    assert cli.main(["pa-check", alg, rbop]) == 0
    assert "PA axioms hold" in capsys.readouterr().out


def test_decompose(tmp_path, capsys):
    alg, rbop = emit_pair(tmp_path, "type5-case2c")
    assert cli.main(["decompose", alg, rbop]) == 0
    out = capsys.readouterr().out
    assert "n1 dim 3" in out and "n2 dim 2" in out and "n3 dim 1" in out
    assert "FAIL" not in out


def test_classify3_cmd(tmp_path, capsys):
    alg = write(tmp_path / "r.alg", emit_algebra(make_table1("r3_lambda", 2)))
    assert cli.main(["classify3", alg]) == 0
    assert "r3_lambda, j = 9/2" in capsys.readouterr().out
    big = write(tmp_path / "big.alg", emit_algebra(make_sl2sl2()))
    assert cli.main(["classify3", big]) == 2


def test_catalog_list(capsys):
    assert cli.main(["catalog", "list"]) == 0
    out = capsys.readouterr().out
    assert "operator type5-case2c" in out
    assert "algebra sl2sl2" in out


def test_catalog_emit_operator(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "type4-case2a", "--out", str(tmp_path)]) == 0
    alg = parse_algebra((tmp_path / "type4-case2a.alg").read_text())
    assert alg == make_sl2sl2()
    assert cli.main(["rb-check", str(tmp_path / "type4-case2a.alg"),
                     str(tmp_path / "type4-case2a.rbop")]) == 0


def test_catalog_emit_builtin_algebra(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "r3_lambda", "--param", "lam=2",
                     "--out", str(tmp_path)]) == 0
    assert parse_algebra((tmp_path / "r3_lambda.alg").read_text()) == \
        make_table1("r3_lambda", 2)


def test_catalog_emit_constraint_violation(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "type2", "--param", "lam=-1",
                     "--out", str(tmp_path)]) == 1


def test_catalog_emit_unknown(capsys):
    assert cli.main(["catalog", "emit", "nonsense"]) == 2


def test_verify_thm41_single_type(capsys):
    assert cli.main(["verify-thm41", "--type", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS type5-case2c" in out


def test_verify_thm41_all(capsys):
    assert cli.main(["verify-thm41", "--all"]) == 0
    out = capsys.readouterr().out
    assert "result: all witnesses pass (8 types)" in out
    assert "FAIL" not in out


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "postlie", "verify-thm41", "--all"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "result: all witnesses pass (8 types)"


MALFORMED_ALGEBRAS = {
    "non-integer-i": "dim 3\nbracket a 1 : 2 1\n",
    "non-integer-j": "dim 3\nbracket 0 b : 2 1\n",
    "non-integer-k": "dim 3\nbracket 0 1 : c 1\n",
    "zero-denominator": "dim 3\nbracket 0 1 : 2 1/0\n",
    "repeated-dim": "dim 3\nbracket 0 2 : 1 1\ndim 2\n",
    "repeated-basis": "dim 2\nbasis a b\nbasis c d\n",
    "repeated-target": "dim 3\nbracket 0 1 : 2 1 2 1\n",
}


@pytest.mark.parametrize("text", MALFORMED_ALGEBRAS.values(), ids=MALFORMED_ALGEBRAS.keys())
def test_malformed_algebra_exits_2(tmp_path, capsys, text):
    alg = write(tmp_path / "bad.alg", text)
    assert cli.main(["check", alg]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_non_ascii_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text("dim 3\nbasis \u03b1 b c\nbracket 0 1 : 2 1\n", encoding="utf-8")
    assert cli.main(["check", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", [
    "dim 2\nweight 1\nrow 1 0\ndim 3\nrow 1 0 0\nrow 0 1 0\n",
    "dim 2\nweight 1\nweight 2\nrow 0 0\nrow 0 0\n",
], ids=["dim", "weight"])
def test_repeated_header_in_operator_exits_2(tmp_path, capsys, text):
    alg = write(tmp_path / "a.alg", "dim 2\n")
    rbop = write(tmp_path / "r.rbop", text)
    assert cli.main(["rb-check", alg, rbop]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_derived_output_exits_2(tmp_path, capsys):
    alg = write(tmp_path / "sl2.alg", emit_algebra(make_table1("sl2")))
    rbop = write(tmp_path / "zero.rbop", "dim 3\nweight 1\n" + "row 0 0 0\n" * 3)
    out = tmp_path / "no-such-dir" / "out.alg"
    assert cli.main(["rb-derive", alg, rbop, str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unwritable_catalog_output_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing-dir")
    assert cli.main(["catalog", "emit", "type4-case2a", "--out", missing]) == 2
    assert cli.main(["catalog", "emit", "sl2", "--out", missing]) == 2
    assert capsys.readouterr().err.count("error: ") == 2


def test_decompose_runs_the_triple_report_once(tmp_path, capsys, monkeypatch):
    calls = []
    report = pastruct.triple_decomposition_report

    def counted(*args):
        calls.append(args)
        return report(*args)

    monkeypatch.setattr(pastruct, "triple_decomposition_report", counted)
    alg, rbop = emit_pair(tmp_path, "type5-case2c")
    assert cli.main(["decompose", alg, rbop]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == (
        "n1 dim 3\nn2 dim 2\nn3 dim 1\ndirect_sum ok\nn1_n3_in_n1 ok\n"
        "n2_n3_in_n2 ok\nn3_subalgebra ok\nn3_solvable ok\n")


BUILTIN_PARAMS = {
    "sl2": {}, "sl2sl2": {}, "abelian": {}, "n3": {}, "r2_plus_C": {}, "r3": {},
    "r3_lambda": {"lam": "2"}, "type1": {}, "type2": {"lam": "2"},
    "type3": {"lam": "2", "mu": "3"}, "type4": {},
    "type5": {"alpha": "2", "beta": "3"}, "type6": {"lam": "2", "alpha": "3"},
    "type7": {"lam": "2", "alpha1": "3", "alpha2": "5"},
    "type8a": {"alpha1": "2", "alpha2": "3", "alpha4": "5", "alpha7": "7"},
    "type8b": {"alpha1": "2", "alpha2": "3", "alpha3": "5"},
}


def param_args(params):
    return [arg for k, v in params.items() for arg in ("--param", f"{k}={v}")]


@pytest.mark.parametrize("name", sorted(BUILTIN_PARAMS))
def test_catalog_emit_accepts_exactly_its_param_keys(tmp_path, capsys, name):
    params = BUILTIN_PARAMS[name]
    out = str(tmp_path)
    assert cli.main(["catalog", "emit", name, *param_args(params), "--out", out]) == 0
    assert (tmp_path / f"{name}.alg").exists()
    (tmp_path / f"{name}.alg").unlink()
    capsys.readouterr()
    extra = param_args({**params, "nonsense": "3"})
    assert cli.main(["catalog", "emit", name, *extra, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: unknown --param key 'nonsense' for {name} "
                            f"(accepted: {', '.join(params) or 'none'})\n")
    assert not list(tmp_path.iterdir())


def test_catalog_emit_param_on_operator_exits_2(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "type5-case2c", "--param", "lam=2",
                     "--out", str(tmp_path)]) == 2
    assert "error: unknown --param key 'lam'" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_catalog_emit_missing_param_exits_1(tmp_path, capsys):
    assert cli.main(["catalog", "emit", "type3", "--param", "lam=2",
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.startswith("cannot build type3:")
    assert not list(tmp_path.iterdir())
