"""Record a set of benchmark runs for :mod:`compare`.

    python3 perfbench/sample.py OUT_DIR --workload exact_batch --seeds 1 2 3 [--trace 1]

Runs ``perfbench/run.py`` once per seed, from the root of the checkout,
for ``BENCHMARK.json``'s ``run_seconds``, so every recorded set measures
the same run length.  Each run's output goes to
``OUT_DIR/<workload>-t<trace>-s<seed>.json``.
Stops at the first run that fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        seconds = json.load(handle)["run_seconds"]
    os.makedirs(args.out_dir, exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"seed {seed}: run exited {proc.returncode}", file=sys.stderr)
            return 1
        name = f"{args.workload}-t{args.trace}-s{seed}.json"
        with open(os.path.join(args.out_dir, name), "w") as handle:
            handle.write(proc.stdout.strip().splitlines()[-1] + "\n")
        print(f"{name} written", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
