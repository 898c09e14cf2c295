"""One pass of a workload in a fresh interpreter; prints one JSON line.

    python3 perfbench/passes.py WORKLOAD MODE SEED SECONDS SCRATCH

``MODE`` is ``setup`` (time one set-up), ``measure`` (the untraced
end-to-end run), ``reference`` or ``traced`` (the same fixed work without
and with tracing, for the per-layer breakdown).  :mod:`run` starts every
pass with the ``REPRO_*`` variables cleared and ``src`` on the path.
"""

from __future__ import annotations

import json
import os
import sys
import time

import exact_batch
import matrix_sweep
import serve_mixed
from common import peak_rss_mb

MODULES = {
    "serve_mixed": serve_mixed,
    "matrix_sweep": matrix_sweep,
    "exact_batch": exact_batch,
}


def _check_source(root: str) -> None:
    """Refuse to measure any ``repro`` but the checkout's own ``src``."""
    import repro

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not {src}")


def main(argv) -> int:
    workload, mode, seed, seconds, scratch = argv
    module = MODULES[workload]
    seed, seconds = int(seed), float(seconds)
    root = os.getcwd()
    if mode == "setup":
        t0 = time.perf_counter()
        module.setup(scratch)
        result = {"setup_s": time.perf_counter() - t0}
        _check_source(root)
    else:
        _check_source(root)
        if mode == "measure":
            result = module.measure(seed, seconds, scratch)
            result["peak_rss_mb"] = peak_rss_mb()
        else:
            result = module.layer_pass(seed, seconds, mode == "traced", scratch)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
