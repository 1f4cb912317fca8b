"""Tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import cProfile
import pstats
import random
from types import SimpleNamespace

import pytest

from postlie import catalog, classify, cli, exactla, liealg, pastruct, rbops

import hostspeed
import tracer
import workloads

PL = SimpleNamespace(exactla=exactla, liealg=liealg, rbops=rbops, pastruct=pastruct,
                     classify=classify, catalog=catalog, cli=cli)


def witness(name):
    return next(w for w in catalog.witnesses() if w.name == name)


@pytest.mark.parametrize("name", ["type3-case2b", "type5-case2c", "type8b-case2d"])
def test_transport_commutes_with_derived_bracket(name):
    w = witness(name)
    P = exactla.Matrix.from_rows(workloads.random_basis(random.Random(name), 6))
    moved = workloads.transport(PL, w, P)
    assert pastruct.derived_bracket(moved.operator) == liealg.change_basis(
        pastruct.derived_bracket(w.operator), P)
    if w.iso is not None:
        assert classify.is_lie_isomorphism(
            moved.iso, pastruct.derived_bracket(moved.operator), w.target)


def test_random_basis_has_determinant_two():
    rng = random.Random(7)
    for _ in range(20):
        assert abs(exactla.Matrix.from_rows(workloads.random_basis(rng, 6)).det()) == 2


def test_self_times_on_nested_spans():
    # a [0, 100] holds b [10, 40] and c [50, 90]; c holds d [60, 70]; e is a
    # second root named like b.
    spans = [
        (1, 0, "b", 10, 40, 0),
        (3, 2, "d", 60, 70, 0),
        (2, 0, "c", 50, 90, 0),
        (0, -1, "a", 0, 100, 0),
        (4, -1, "b", 200, 205, 1),
    ]
    calls, own = tracer.self_times(spans)
    assert calls == {"a": 1, "b": 2, "c": 1, "d": 1}
    assert own == {"a": 30, "b": 35, "c": 30, "d": 10}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_has_an_expected_answer(workload, tmp_path):
    ops = workloads.build(workload, PL, 3, str(tmp_path))
    assert ops
    for op in ops:
        assert callable(op.call) and op.expect is not None
        if workload == "cli-mix":
            code, stdout, error_line, _ = op.expect
            assert code in (0, 1, 2) and error_line == (code == 2)
            assert (stdout == "") == (code == 2)
        else:
            assert all(passed for _, passed in op.expect)
            assert [name for name, _ in op.expect][:6] == list(workloads.CORE_STEPS)


def test_same_seed_same_inputs(tmp_path):
    first = workloads.build("cli-mix", PL, 5, str(tmp_path))
    second = workloads.build("cli-mix", PL, 5, str(tmp_path))
    assert [(op.label, op.expect) for op in first] == [(op.label, op.expect) for op in second]


def test_cli_mix_answers_match(tmp_path):
    for op in workloads.build("cli-mix", PL, 11, str(tmp_path)):
        assert op.call() == op.expect, op.label


def test_tracer_catches_internal_calls_and_restores():
    op = witness("type1-split-factors").operator
    original = pastruct.is_lie_homomorphism
    t = tracer.Tracer()
    t.install()
    try:
        t.run(0, lambda: pastruct.derived_bracket(op))
    finally:
        t.uninstall()
    assert pastruct.is_lie_homomorphism is original
    counts = t.counts()
    assert counts["calls"]["pastruct.derived_bracket"] == 1
    assert counts["calls"]["pastruct.is_lie_homomorphism"] == 2
    assert counts["calls"]["liealg.jacobi_failure"] == 1
    assert counts["distinct"]["pastruct.is_lie_homomorphism"] == 2
    assert all(op_id == 0 for *_, op_id in t.spans)


def test_fraction_counter_matches_profiler():
    op = witness("type2-split").operator
    profile = cProfile.Profile()
    profile.runcall(pastruct.derived_bracket, op)
    stats = pstats.Stats(profile).stats
    profiled = sum(v[1] for (path, _, fn), v in stats.items()
                   if path.endswith("fractions.py") and fn == "__new__")
    t = tracer.Tracer()
    with t.counting_fractions():
        pastruct.derived_bracket(op)
    assert t.fraction_new == profiled > 0


def test_setup_spans_are_counted_apart():
    op = witness("type1-split-factors").operator
    t = tracer.Tracer()
    t.install()
    try:
        t.run(tracer.SETUP_OP, lambda: pastruct.derived_bracket(op))
        t.run(0, lambda: pastruct.derived_bracket(op))
    finally:
        t.uninstall()
    counts = t.counts()
    assert counts["calls"]["pastruct.derived_bracket"] == 1
    assert counts["setup_calls"]["pastruct.derived_bracket"] == 1
    assert len(t.arguments["pastruct.derived_bracket"]) == 1


def test_host_speed_reference_is_private_and_right():
    import fractions
    assert hostspeed.Fraction is not fractions.Fraction
    identity = [[int(i == j) for j in range(6)] for i in range(6)]
    assert hostspeed.reference_work() == identity
    assert hostspeed.HostSpeed().scale() > 0
