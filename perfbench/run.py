"""Benchmark of the postlie certifier.

    python3 perfbench/run.py --workload thm41 --seed 1 --seconds 38 --trace 0

Run from the root of a checkout; postlie is imported from its ``src/``.
One process, one client, no extra threads: a closed loop sends the next
certification request only after the previous one has returned, and checks
every answer against the answer fixed when the inputs were built.

``--trace 0`` runs ops for ``--seconds`` and reports the end-to-end metrics.
Every pass over the ops starts from a fresh import of postlie and freshly
built inputs, so nothing the library keeps in module state carries over from
one pass to the next; that set-up is timed apart from the ops. Every time is
scaled to nominal host speed (see ``hostspeed.py``).
``--trace 1`` ignores ``--seconds``: it runs a fixed set of ops twice untraced
(the first pass warms up) and twice traced, each pass on a fresh import,
checks that every count repeats exactly, and reports the per-layer metrics.
Spans are written to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from functools import partial
from pathlib import Path
from types import SimpleNamespace

import workloads
from hostspeed import NOMINAL_S, HostSpeed
from tracer import LAYERS, SETUP_OP, USEFUL_RATIO, Tracer, self_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_MIN = 5  # fewest set-ups timed per run; each pass adds one
SPEED_EVERY = 0.2  # seconds of ops between samples of the host's speed


def load_postlie() -> SimpleNamespace:
    """Import postlie afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "postlie" or m.startswith("postlie.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("postlie")
    if Path(package.__file__).resolve().parent != SRC / "postlie":
        raise ImportError(f"postlie imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"postlie.{m}") for m in LAYERS})


def clear(workdir) -> None:
    """Empty the work directory and collect the previous pass's garbage."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()


def setup(workload, seed, workdir, traced=False):
    """Import postlie and build the workload's inputs; return (pl, ops, seconds)."""
    clear(workdir)
    start = time.perf_counter()
    pl = load_postlie()
    ops = workloads.build(workload, pl, seed, workdir, traced)
    return pl, ops, time.perf_counter() - start


def attempt(op) -> bool:
    """Run one op; True if it gives the expected answer."""
    try:
        return op.call() == op.expect
    except Exception:
        traceback.print_exc()
        return False


def measure(workload, seed, seconds, workdir):
    """Closed loop over seeded shuffles of the ops until they have run ``seconds``.

    Each pass sets up afresh; set-up time is recorded apart and not counted
    in the ops' time. The host's speed is sampled before and after each
    set-up and every ``SPEED_EVERY`` seconds of ops, and every time is
    scaled to nominal host speed over the interval it falls in.
    """
    order_rng = random.Random(f"order-{seed}")
    speed = HostSpeed()
    setup_times, latencies, failures = [], [], []
    wall = busy = 0.0
    while True:
        pl, ops, took = setup(workload, seed, workdir)
        setup_times.append(took * speed.scale())
        window, begin = [], time.perf_counter()
        for k, i in enumerate(order_rng.sample(range(len(ops)), len(ops))):
            op = ops[i]
            start = time.perf_counter()
            try:
                answer = op.call()
            except Exception:
                traceback.print_exc()
                answer = None
            end = time.perf_counter()
            window.append(end - start)
            if answer != op.expect:
                failures.append(op.label)
            done = wall + end - begin >= seconds
            if done or k == len(ops) - 1 or end - begin >= SPEED_EVERY:
                scale = speed.scale()
                latencies += [x * scale for x in window]
                wall += end - begin
                busy += (end - begin) * scale
                if done:
                    return pl, len(ops), setup_times, latencies, failures, wall, busy, speed
                window, begin = [], time.perf_counter()


def end_to_end(workload, seed, seconds, workdir):
    pl, distinct, setup_times, latencies, failures, wall, busy, speed = measure(
        workload, seed, seconds, workdir)
    passes = len(setup_times)
    while len(setup_times) < SETUP_MIN:
        setup_times.append(setup(workload, seed, workdir)[2] * speed.scale())
    n = len(latencies)
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    print(f"{workload}: {n} ops in {wall:.2f} s over {passes} passes, {distinct} distinct; "
          f"failed_ratio {len(failures)}/{n}; p50 and p90 from {n} samples, "
          f"{sum(x > p90 for x in latencies)} above p90; setup_s from {len(setup_times)} set-ups")
    print(f"host speed: the reference took {statistics.median(speed.samples) * 1e3:.2f} ms "
          f"(median of {len(speed.samples)}), nominal {NOMINAL_S * 1e3:.2f} ms; "
          f"times are scaled to nominal speed; wall-clock ops_per_s "
          f"{(n - len(failures)) / wall:.4g}")
    for label in sorted(set(failures)):
        print(f"FAILED {label}: {failures.count(label)} times")
    if workload == "cli-mix":
        defects = workloads.known_defects(pl, workdir)
        crashed = sum(v.startswith("raised") for v in defects.values())
        print("known defects, outside the timed mix (each should exit 2): "
              + ", ".join(f"{k}: {v}" for k, v in defects.items()))
        print(f"cli-mix failed_ratio with the known-defect inputs counted: "
              f"{len(failures) + crashed}/{n + len(defects)}")
    metrics = {
        "ops_per_s": ((n - len(failures)) / busy, "1/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return not failures, n, len(failures), metrics


def untraced_pass(workload, seed, workdir):
    """Run every op once on a fresh set-up; return the seconds, failures and ops."""
    _, ops, _ = setup(workload, seed, workdir, traced=True)
    start = time.perf_counter()
    failed = sum(not attempt(op) for op in ops)
    return time.perf_counter() - start, failed, len(ops)


def traced_pass(workload, seed, workdir):
    """Set up afresh and run every op once, traced.

    Set-up runs under op id SETUP_OP and Fractions are counted only while
    the ops run. Returns the tracer, the seconds the ops took and how many
    ops failed.
    """
    clear(workdir)
    pl = load_postlie()
    tracer = Tracer()
    tracer.install()
    try:
        ops = tracer.run(SETUP_OP, partial(workloads.build, workload, pl, seed, workdir,
                                           traced=True))
        with tracer.counting_fractions():
            start = time.perf_counter()
            right = [tracer.run(i, partial(attempt, op)) for i, op in enumerate(ops)]
            took = time.perf_counter() - start
    finally:
        tracer.uninstall()
    return tracer, took, right.count(False)


def per_layer(workload, seed, workdir):
    _, failed, n = untraced_pass(workload, seed, workdir)  # warm-up: first-call costs
    speed = HostSpeed()
    untraced, fails, _ = untraced_pass(workload, seed, workdir)
    untraced *= speed.scale()
    failed += fails

    tracers, took = [], []
    for _ in range(2):
        tracer, seconds, fails = traced_pass(workload, seed, workdir)
        tracers.append(tracer)
        took.append(seconds * speed.scale())
        failed += fails
    counts = [t.counts() for t in tracers]
    repeat = counts[0] == counts[1]

    span_file = OUT / f"spans-{workload}-{seed}.tsv"
    span_file.unlink(missing_ok=True)
    for k, t in enumerate(tracers):
        t.write(span_file, f"pass{k + 1}")

    metrics = {}
    own = [self_times([s for s in t.spans if s[-1] != SETUP_OP])[1] for t in tracers]
    own_setup = [self_times([s for s in t.spans if s[-1] == SETUP_OP])[1] for t in tracers]
    calls = counts[0]["calls"]
    for layer, functions in LAYERS.items():
        layer_ms = setup_ms = 0.0
        for short in functions:
            name = f"{layer}.{short}"
            ms = statistics.mean(o.get(name, 0) for o in own) / 1e6 / n
            layer_ms += ms
            setup_ms += statistics.mean(o.get(name, 0) for o in own_setup) / 1e6
            metrics[f"{name}.calls_per_op"] = (calls.get(name, 0) / n, "calls/op")
            metrics[f"{name}.self_ms_per_op"] = (ms, "ms")
        metrics[f"{layer}.self_ms_per_op"] = (layer_ms, "ms")
        metrics[f"{layer}.setup_self_ms"] = (setup_ms, "ms")
    metrics["exactla.fraction_new_per_op"] = (counts[0]["fraction_new"] / n, "count/op")
    for name in USEFUL_RATIO:
        total = calls.get(name, 0)
        distinct = counts[0]["distinct"][name]
        metrics[f"{name}.useful_ratio"] = (distinct / total if total else 1.0, "ratio")
    overhead = statistics.mean(took) / untraced
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    print(f"{workload}: per-layer numbers come only from the traced run: {n} ops; "
          f"*_per_op figures count only the ops, *.setup_self_ms only one set-up; "
          f"spans in {span_file.relative_to(HERE.parent)}")
    print(f"tracing overhead: traced pass / untraced pass = {overhead:.3f} "
          f"({untraced:.2f} s untraced, at nominal host speed)")
    print(f"counts repeat exactly between the two traced passes: {repeat}")
    return repeat and not failed, 4 * n, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        if args.trace:
            correct, attempted, failed, metrics = per_layer(args.workload, args.seed, workdir)
        else:
            correct, attempted, failed, metrics = end_to_end(
                args.workload, args.seed, args.seconds, workdir)
    except ImportError as exc:
        print(f"error: cannot import postlie from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
