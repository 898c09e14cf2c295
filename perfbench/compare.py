"""Compare two sets of benchmark runs: ``compare.py OLD_DIR NEW_DIR``.

Each directory holds run outputs as :mod:`sample` writes them
(``<workload>-t<trace>-s<seed>.json``, the run's JSON line).  For every
workload present on both sides it prints each end-to-end metric's median
and quartiles and a verdict against the ``BENCHMARK.json`` bound:

* ``worse`` — the new median is worse than the old by more than the bound;
* ``better`` — the new side wins at least nine tenths of the runs paired
  by seed order, and its median is ahead by more than the old side's own
  spread (the distance between its quartiles);
* ``unresolved`` — either side spreads wider than the bound, and not
  every new run reads better than every old run;
* ``no worse`` — otherwise.

Then, where both sides hold traced runs, it lists the per-layer metrics
whose medians moved most.  Exit status 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import quartiles  # noqa: E402

#: Per-layer metrics listed per workload.
TOP_LAYERS = 8


def load_runs(directory: str) -> dict:
    """``{(workload, trace): [metrics, ...]}`` sorted by seed."""
    runs: dict = {}
    for path in glob.glob(os.path.join(directory, "*-t[01]-s*.json")):
        stem = os.path.basename(path)[: -len(".json")]
        workload, trace, seed = stem.rsplit("-", 2)
        with open(path) as handle:
            result = json.loads(handle.read().strip().splitlines()[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault((workload, int(trace[1:])), []).append(
            (int(seed[1:]), metrics))
    return {key: [m for _s, m in sorted(v, key=lambda item: item[0])]
            for key, v in runs.items()}


def worse_share(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if old == 0:
        return 0.0 if new == old else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old: list, new: list, better: str, bound: float) -> str:
    """The end-to-end verdict for one metric on one workload."""
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    old_spread = (o3 - o1) / abs(om) if om else 0.0
    new_spread = (n3 - n1) / abs(nm) if nm else 0.0
    ahead = -worse_share(om, nm, better)
    if ahead < -bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(worse_share(o, n, better) < 0 for o, n in pairs)
    if pairs and wins >= 0.9 * len(pairs) and ahead > old_spread:
        return "better"
    all_better = all(
        worse_share(o, n, better) < 0 for o in old for n in new
    )
    if (old_spread > bound or new_spread > bound) and not all_better:
        return "unresolved"
    return "no worse"


def compare(old_runs: dict, new_runs: dict, spec: dict, out=sys.stdout) -> int:
    """Print the report; return the number of ``worse`` verdicts."""
    worse = 0
    workloads = sorted({w for w, t in old_runs if (w, t) in new_runs})
    for workload in workloads:
        old, new = old_runs.get((workload, 0)), new_runs.get((workload, 0))
        if old and new:
            print(f"{workload}: {len(old)} old runs, {len(new)} new runs",
                  file=out)
            for metric in spec["end_to_end"]:
                name = metric["name"]
                ov = [run[name] for run in old]
                nv = [run[name] for run in new]
                word = verdict(ov, nv, metric["better"], metric["bound"])
                worse += word == "worse"
                o1, om, o3 = quartiles(ov)
                n1, nm, n3 = quartiles(nv)
                print(f"  {name:<22} {metric['unit']:<6} "
                      f"old {om:.6g} [{o1:.6g}, {o3:.6g}]  "
                      f"new {nm:.6g} [{n1:.6g}, {n3:.6g}]  {word}", file=out)
        old, new = old_runs.get((workload, 1)), new_runs.get((workload, 1))
        if old and new:
            moves = []
            for metric in spec["per_layer"]:
                name = metric["name"]
                om = statistics.median(run[name] for run in old)
                nm = statistics.median(run[name] for run in new)
                if om == nm:
                    continue
                share = (nm - om) / abs(om) if om else float("inf")
                moves.append((abs(share), name, om, nm, share))
            moves.sort(reverse=True)
            print(f"{workload}: per-layer metrics that moved most", file=out)
            for _size, name, om, nm, share in moves[:TOP_LAYERS]:
                print(f"  {name:<44} {om:.6g} -> {nm:.6g} ({share:+.1%})",
                      file=out)
    return worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_dir")
    parser.add_argument("new_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    worse = compare(load_runs(args.old_dir), load_runs(args.new_dir), spec)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
