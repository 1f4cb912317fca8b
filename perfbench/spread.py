"""Run the end-to-end benchmark (``--trace 0``) over several seeds; report spreads.

    python3 perfbench/spread.py --workloads thm41 cli-mix --seeds 1-10 --seconds 38

Runs one process at a time and prints, per workload and metric, the median,
the quartiles by ``statistics.quantiles(values, n=4)`` and the spread
(q3 - q1) / median. ``--out FILE`` also saves every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--out")
    args = parser.parse_args()

    results = {}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                capture_output=True, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}")
            runs.append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  flush=True)
        results[workload] = runs
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            print(f"{workload} {name}: median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n", encoding="ascii")


if __name__ == "__main__":
    main()
