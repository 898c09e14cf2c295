"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  Every pass runs in a fresh
interpreter (see :mod:`passes`) with ``src`` on the path and the
``REPRO_*`` variables cleared, so no run warms the next.

``--trace 0`` sets up the workload several times, before and after
measuring it untraced for ``--seconds`` (``setup_s`` is the set-ups'
median), and prints every
``end_to_end`` metric of ``BENCHMARK.json``.  ``--trace 1`` runs the same
fixed work untraced and traced, and prints every ``per_layer`` metric;
``trace.overhead_share`` compares the two.  A metric a workload does not
exercise reads 0 on the per-layer side; on the end-to-end side, a
throughput named after another workload's unit reports this workload's
own throughput (see ``perfbench/README.md``).

The exit status is 1 when a correctness check fails or a pass dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import clean_env, share  # noqa: E402

WORKLOADS = ("serve_mixed", "matrix_sweep", "exact_batch")

#: Set-ups per ``--trace 0`` run, before and after the measuring pass;
#: ``setup_s`` is their median.  A set-up is a fraction of a second of
#: CPU work, and this host's speed moves in steps that last seconds, so
#: the set-ups are spread over the whole run rather than taken in one
#: burst.  One more set-up first, not counted, compiles and caches what
#: a fresh checkout has not yet.
SETUP_REPEATS = (5, 4)

#: Wall-clock cap on one pass, well inside the 180 s a run may take.
PASS_TIMEOUT_S = 150


class PassFailed(RuntimeError):
    """A pass exited non-zero or printed no result."""


def run_pass(root, env, workload, mode, seed, seconds, scratch) -> dict:
    """One pass in a fresh interpreter; its JSON result."""
    pass_dir = tempfile.mkdtemp(dir=scratch, prefix=f"{mode}-")
    # A process group of its own, so a timeout can stop the pool workers too.
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "passes.py"), workload, mode,
         str(seed), str(seconds), pass_dir],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{workload} {mode} pass timed out") from None
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise PassFailed(f"{workload} {mode} pass exited {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(declared, setups, measured) -> dict:
    """Every declared end-to-end metric from one untraced run."""
    values = dict(measured["values"])
    values["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    values["peak_rss_mb"] = measured["peak_rss_mb"]
    values["ok_share"] = 1.0 - share(measured["failed"], measured["attempted"])
    own = values.pop("throughput")
    return {name: values.get(name, own) for name in declared}


def per_layer(declared, reference, traced) -> dict:
    """Every declared per-layer metric from the traced pass."""
    layers = dict(traced["layers"])
    layers["trace.overhead_share"] = traced["work_s"] / reference["work_s"] - 1
    layers["trace.dropped"] = traced["dropped"]
    unknown = sorted(set(layers) - set(declared))
    if unknown:
        raise ValueError(f"undeclared per-layer metrics: {', '.join(unknown)}")
    return {name: layers.get(name, 0) for name in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.path.dirname(HERE)
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    env = clean_env(os.path.join(root, "src"))
    scratch_root = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=scratch_root)

    def one(mode):
        return run_pass(root, env, args.workload, mode, args.seed,
                        args.seconds, scratch)

    try:
        if args.trace:
            declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
            passes = [one("reference"), one("traced")]
            metrics = per_layer(declared, *passes)
        else:
            declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            before, after = SETUP_REPEATS
            one("setup")
            setups = [one("setup") for _ in range(before)]
            passes = [one("measure")]
            setups += [one("setup") for _ in range(after)]
            metrics = end_to_end(declared, setups, passes[0])
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it

    for note in sorted({n for p in passes for n in p.get("notes", [])}):
        print(note)
    wrong = sum(p["wrong"] for p in passes)
    result = {
        "correct": wrong == 0,
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": {
            name: {"value": value, "unit": declared[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
