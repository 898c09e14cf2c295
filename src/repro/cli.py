"""Command-line interface: inspect families, run protocols, print bounds.

    python -m repro family --n 7 --k 2
    python -m repro singular --n 7 --k 2 --seed 1989
    python -m repro protocols --n 3 --k 8 --seed 0
    python -m repro bounds --n 255 --k 8
    python -m repro check
    python -m repro experiments
    python -m repro cache stats --format json
    python -m repro matrix --quick --workers 4
    python -m repro serve-chaos --kinds flip,drop --json
    python -m repro lint --format json
    python -m repro lint --explain ISO301

Every subcommand is a thin shell over the library; anything printed here is
reproducible programmatically through the public API.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence


def _cmd_family(args) -> int:
    from repro.singularity import RestrictedFamily

    fam = RestrictedFamily(args.n, args.k)
    print(fam)
    print(f"  q = {fam.q}, h = {fam.h}, D width = {fam.d_width}, E width = {fam.e_width}")
    print(f"  free cells: C {fam.h}x{fam.h}, D {fam.h}x{fam.d_width}, "
          f"E {fam.h}x{fam.e_width}, y 1x{fam.n - 1}")
    print(f"  free information: {fam.free_bit_count()} bits "
          f"(input total {fam.k * fam.m_size ** 2} bits, k*n^2 = {fam.k * fam.n ** 2})")
    print(f"  C instances (truth-matrix rows): {fam.count_c_instances()}")
    print(f"  B instances (truth-matrix cols): {fam.count_b_instances()}")
    print(f"  u = {list(fam.u())}")
    return 0


def _cmd_singular(args) -> int:
    from repro.exact import determinant, is_singular
    from repro.singularity import RestrictedFamily, complete_and_check_singular
    from repro.util.rng import ReproducibleRNG

    fam = RestrictedFamily(args.n, args.k)
    rng = ReproducibleRNG(args.seed)
    instance = complete_and_check_singular(fam, fam.random_c(rng), fam.random_e(rng))
    m = instance.m_matrix()
    print(f"A singular member of the restricted family (n={args.n}, k={args.k}, "
          f"seed={args.seed}):")
    print(m.pretty())
    print(f"det = {determinant(m)}; singular = {is_singular(m)}")
    print(f"C = {instance.c}")
    print(f"E = {instance.e}")
    print(f"completed D = {instance.d}")
    print(f"completed y = {instance.y}")
    return 0


def _cmd_protocols(args) -> int:
    from repro.comm import MatrixBitCodec, pi_zero
    from repro.exact import Matrix, is_singular
    from repro.protocols import FingerprintProtocol, TrivialProtocol
    from repro.util.rng import ReproducibleRNG

    size = 2 * args.n
    codec = MatrixBitCodec(size, size, args.k)
    partition = pi_zero(codec)
    rng = ReproducibleRNG(args.seed)
    m = Matrix.random_kbit(rng, size, size, args.k)
    print(f"Input: {size}x{size}, {args.k}-bit entries "
          f"({codec.total_bits} bits total); ground truth singular = {is_singular(m)}")
    trivial = TrivialProtocol(codec, partition)
    result = trivial.run_on_matrix(m)
    print(f"  trivial:     answer={result.agreed_output()!s:5} "
          f"bits={result.bits_exchanged:6d} rounds={result.rounds}")
    fingerprint = FingerprintProtocol(codec, partition)
    result = fingerprint.run_on_matrix(m, seed=args.seed)
    print(f"  fingerprint: answer={result.agreed_output()!s:5} "
          f"bits={result.bits_exchanged:6d} rounds={result.rounds} "
          f"(prime bits: {fingerprint.prime_bits})")
    return 0


def _cmd_bounds(args) -> int:
    from repro.singularity import (
        RestrictedFamily,
        TheoremBounds,
        randomized_upper_bound_bits,
        trivial_upper_bound_bits,
    )
    from repro.vlsi import VLSIBounds

    fam = RestrictedFamily(args.n, args.k)
    tb = TheoremBounds(fam)
    lower = tb.yao_lower_bound_bits()
    print(f"n = {args.n}, k = {args.k}:")
    print(f"  Theorem 1.1 lower bound : {lower:16.0f} bits "
          f"(ratio to k*n^2: {lower / tb.knsquared():.4f})")
    print(f"  trivial upper bound     : {trivial_upper_bound_bits(args.n, args.k):16d} bits")
    print(f"  randomized upper bound  : {randomized_upper_bound_bits(args.n, args.k):16d} bits")
    vb = VLSIBounds(args.n, args.k)
    print(f"  A*T^2 >= {vb.at2():.3e}    A*T >= {vb.at():.3e}    "
          f"T >= {vb.min_time():.1f} (at minimum area)")
    return 0


def _cmd_check(args) -> int:
    """Fast self-checks: one pass over the core lemma chain."""
    from repro.singularity import (
        RestrictedFamily,
        check_equivalence,
        complete_and_check_singular,
        corollary_13_holds,
        verify_recovery,
    )
    from repro.singularity.family import FamilyInstance
    from repro.util.rng import ReproducibleRNG

    fam = RestrictedFamily(7, 2)
    rng = ReproducibleRNG(0)
    checks = {
        "lemma 3.2 (random instance)": lambda: check_equivalence(
            FamilyInstance.random(fam, rng)
        ),
        "lemma 3.4 (C recovery)": lambda: verify_recovery(fam, fam.random_c(rng)),
        "lemma 3.5 (completion)": lambda: bool(
            complete_and_check_singular(fam, fam.random_c(rng), fam.random_e(rng))
        ),
        "corollary 1.3": lambda: corollary_13_holds(
            FamilyInstance.random(fam, rng)
        ),
    }
    failures = 0
    for name, check in checks.items():
        try:
            ok = check()
        except Exception as exc:  # pragma: no cover — only on regressions
            ok = False
            print(f"  [FAIL] {name}: {exc}")
        if ok:
            print(f"  [ ok ] {name}")
        else:
            failures += 1
    print("all checks passed" if not failures else f"{failures} check(s) FAILED")
    return 1 if failures else 0


def _cmd_experiments(args) -> int:
    experiments = [
        ("E1", "Theorem 1.1: exact tiny D(f), measured k-sweep, partition min, asymptotics"),
        ("E2", "Figures 1 & 3: the restricted family audit"),
        ("E3", "Lemma 3.2: singularity <=> span membership"),
        ("E4", "Lemma 3.4: distinct spans, exhaustive + recovery"),
        ("E5", "Lemma 3.5 / claim (2a): completions and one-counts"),
        ("E6", "Lemmas 3.3/3.6/3.7 / claim (2b): rectangle caps"),
        ("E7", "the padding reduction"),
        ("E8", "Corollary 1.2: det/rank/QR/SVD/LUP"),
        ("E9", "Corollary 1.3: solvability"),
        ("E10", "the [[I,B],[A,C]] product-rank bridge"),
        ("E11", "deterministic vs randomized, measured"),
        ("E12", "Lemma 3.9: normalization to proper partitions"),
        ("E13", "VLSI: cuts, tradeoffs, Chazelle-Monier, funnel chip"),
        ("E14", "the vector space span problem"),
        ("E15", "Yao's method + the model spectrum"),
        ("E16", "design-choice ablations"),
        ("E17", "chaos: fault injection, ARQ overhead, retry budgets"),
    ]
    print("Experiments (run: pytest benchmarks/bench_eNN_*.py --benchmark-only -s):")
    for eid, description in experiments:
        print(f"  {eid:4s} {description}")
    return 0


def _cmd_matrix(args) -> int:
    import json

    from repro.matrix import (
        render_results,
        render_table,
        run_sweep,
        sweep_report,
    )

    cells = run_sweep(quick=args.quick, seed=args.seed, workers=args.workers)
    report = sweep_report(cells, quick=args.quick, seed=args.seed)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    rendered = None
    if args.render or args.check_render:
        rendered = render_results(report)
    if args.render:
        with open(args.render, "w", encoding="utf-8") as fh:
            fh.write(rendered)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_table(cells).render())
        counts = report["counts"]
        print(
            f"{counts['MATCH']} MATCH, {counts['WITHIN_BOUND']} "
            f"WITHIN_BOUND, {counts['MISMATCH']} MISMATCH"
        )
    if args.check_render:
        try:
            with open(args.check_render, encoding="utf-8") as fh:
                committed = fh.read()
        except OSError:
            committed = None
        if committed != rendered:
            print(
                f"RENDER DRIFT: {args.check_render} does not match this "
                "sweep — regenerate with --render and commit",
                file=sys.stderr,
            )
            return 1
    if not report["ok"]:
        print(
            f"MISMATCH: {report['mismatches']} cell(s) violated the "
            "measured/predicted/bound contract — a real bug, not noise",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import main_lint

    return main_lint(args)


def _cmd_cache(args) -> int:
    import json

    from repro import cache

    store = cache.CacheStore(args.dir) if args.dir else cache.active_store()
    if store is None:
        print(
            "no cache configured: pass --dir or set "
            f"{cache.ENV_VAR}", file=sys.stderr,
        )
        return 2
    if args.action == "stats":
        stats = store.stats()
        if args.format == "json":
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"cache at {stats['dir']}:")
            print(f"  entries : {stats['entries']}")
            print(f"  bytes   : {stats['bytes']}")
            for field, count in stats["fields"].items():
                print(f"  {field:8s}: {count} record(s)")
            for engine, count in stats["engines"].items():
                print(f"  engine {engine}: {count} record(s)")
            sh = stats["shards"]
            print(
                f"  shards  : {sh['shards']} file(s), {sh['bytes']} bytes "
                f"across {sh['builds']} build(s) "
                f"({sh['complete_builds']} complete, "
                f"{sh['partial_builds']} partial, "
                f"{sh['orphaned_shards']} orphaned)"
            )
            ce = stats["cells"]
            print(
                f"  cells   : {ce['entries']} document(s), "
                f"{ce['bytes']} bytes"
            )
            tmp = stats["tmp"]
            print(
                f"  tmp     : {tmp['files']} file(s), "
                f"{tmp['orphaned']} orphaned "
                "(in-flight shard writes are excluded; see `cache "
                "sweep-tmp --help`)"
            )
        return 0
    if args.action == "verify":
        problems = store.verify()
        if args.format == "json":
            print(json.dumps({"problems": problems}, indent=2))
        elif problems:
            for problem in problems:
                print(problem)
        else:
            print("cache verified: every record is canonical and well-formed")
        return 1 if problems else 0
    if args.action == "sweep-tmp":
        swept = store.sweep_tmp()
        if args.format == "json":
            print(json.dumps({"swept_tmp": swept}))
        else:
            print(f"swept {swept} orphaned tmp file(s) from {store.root}")
        return 0
    shard_stats = store.shard_stats()
    removed = store.clear()
    if args.format == "json":
        print(json.dumps(
            {"removed": removed, "shards_removed": shard_stats["shards"]}
        ))
    else:
        print(
            f"removed {removed} record(s) and {shard_stats['shards']} "
            f"shard file(s) from {store.root}"
        )
    return 0


def _serve_config(args):
    """Build a ServiceConfig from the shared serve CLI knobs."""
    from repro.serve.service import ServiceConfig

    return ServiceConfig(
        max_queue=args.max_queue,
        max_inflight_per_tenant=args.max_inflight,
    )


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.server import serve_tcp

    try:
        asyncio.run(
            serve_tcp(
                host=args.host,
                port=args.port,
                config=_serve_config(args),
                max_requests=args.max_requests,
            )
        )
    except KeyboardInterrupt:
        print("repro.serve: interrupted, shutting down")
    return 0


def _cmd_serve_chaos(args) -> int:
    import json

    from repro.serve.chaos import chaos_sweep

    kinds = None
    if args.kinds is not None:
        kinds = tuple(k.strip() for k in args.kinds.split(",") if k.strip())
        if not kinds:
            raise ValueError("--kinds names no fault kind")
    given = {
        "kinds": kinds,
        "rate": args.rate,
        "requests_per_kind": args.requests,
        "clients": args.clients,
        "seed": args.seed,
    }
    points = chaos_sweep(
        config=_serve_config(args),
        **{name: value for name, value in given.items() if value is not None},
    )
    bad = sum(p.silent_wrong + p.hung + p.lost for p in points)
    if args.json:
        print(json.dumps([p.as_dict() for p in points], indent=2))
    else:
        print(
            f"serve chaos sweep: {len(points)} fault kind(s) x "
            f"{points[0].requests} request(s) at rate {points[0].rate}"
        )
        for p in points:
            print(
                f"  {p.kind:9s} ok={p.ok:4d} errors={p.expected_errors:3d} "
                f"lost={p.lost} retries={p.retries:3d} "
                f"silent_wrong={p.silent_wrong} hung={p.hung}"
            )
        print(
            "gate: no silent corruption, no hung connections, no lost requests"
            if bad == 0
            else f"gate VIOLATED: {bad} silent/hung/lost outcome(s)"
        )
    return 1 if bad else 0


def _trace_files(args) -> list:
    """Resolve which trace files a ``repro trace`` action operates on."""
    import os
    from pathlib import Path

    from repro import trace

    if args.file:
        return [Path(args.file)]
    root = args.dir or os.environ.get(trace.ENV_VAR)
    if root is None or not str(root).strip():
        return []
    return sorted(Path(root).glob("*.jsonl"))


def _cmd_trace(args) -> int:
    import json

    from repro import trace

    files = _trace_files(args)
    if not files:
        print(
            "no trace files: pass --file/--dir or set "
            f"{trace.ENV_VAR}", file=sys.stderr,
        )
        return 2
    fmt = args.format or ("json" if args.action == "export" else "text")
    valid = ("json", "jsonl") if args.action == "export" else ("text", "json")
    if fmt not in valid:
        print(
            f"--format {fmt} is not valid for {args.action} "
            f"(choose from {', '.join(valid)})", file=sys.stderr,
        )
        return 2
    args = argparse.Namespace(**{**vars(args), "format": fmt})
    rc = 0
    for path in files:
        events = trace.load_jsonl(path)
        if args.action == "summary":
            summary = trace.summarize(events)
            if args.format == "json":
                print(json.dumps(summary, indent=2, sort_keys=True))
            else:
                print(f"== {path} ==")
                print(trace.render_summary(summary))
        elif args.action == "replay":
            results = trace.replay_all(events)
            if args.format == "json":
                print(json.dumps(
                    [
                        {
                            "run": res.run_id,
                            "runner": res.runner,
                            "outcome": res.report.get("outcome"),
                            "bits": res.transcript.total_bits,
                            "rounds": res.transcript.rounds,
                            "leaf": res.leaf,
                            "verified": res.verified,
                            "problems": list(res.problems),
                        }
                        for res in results
                    ],
                    indent=2,
                ))
            else:
                print(f"== {path} ==")
                print(trace.render_replay(results))
            if any(res.problems for res in results):
                rc = 1
        else:  # export
            if args.format == "json":
                text = json.dumps(
                    {
                        "schema": trace.SCHEMA_VERSION,
                        "events": [ev.as_dict() for ev in events],
                    },
                    indent=2,
                    sort_keys=True,
                )
            else:  # jsonl — canonical passthrough
                text = "".join(trace.encode_event(ev) for ev in events).rstrip(
                    "\n"
                )
            if args.out:
                if len(files) > 1:
                    print(
                        "--out needs exactly one input file; pass --file",
                        file=sys.stderr,
                    )
                    return 2
                from pathlib import Path

                Path(args.out).write_text(text + "\n")
                print(f"wrote {args.out}")
            else:
                print(text)
    return rc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Executable reproduction of Chu & Schnitger (SPAA 1989).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("family", help="inspect a restricted family")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--k", type=int, default=2)
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("singular", help="construct a singular family member")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--seed", type=int, default=1989)
    p.set_defaults(fn=_cmd_singular)

    p = sub.add_parser("protocols", help="run the protocols on a random input")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_protocols)

    p = sub.add_parser("bounds", help="print the bound table for (n, k)")
    p.add_argument("--n", type=int, default=255)
    p.add_argument("--k", type=int, default=8)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("check", help="fast self-checks of the lemma chain")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("experiments", help="list the experiment suite")
    p.set_defaults(fn=_cmd_experiments)

    p = sub.add_parser(
        "matrix",
        help="sweep the scenario matrix: protocols x communication models "
        "x fault regimes, judged MATCH / WITHIN_BOUND / MISMATCH",
    )
    p.add_argument("--quick", action="store_true", help="CI gate size")
    p.add_argument("--seed", type=int, default=0, help="sweep root seed")
    p.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size (default: REPRO_WORKERS or 1); results "
        "are bit-identical at every value",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the schema-v1 JSON report instead of the table",
    )
    p.add_argument(
        "--out", default=None,
        help="also write the JSON report to this path (the CI artifact)",
    )
    p.add_argument(
        "--render", default=None,
        help="write the rendered RESULTS markdown to this path",
    )
    p.add_argument(
        "--check-render", default=None,
        help="fail unless the file at this path matches the rendered "
        "RESULTS byte for byte (the CI drift gate)",
    )
    p.set_defaults(fn=_cmd_matrix)

    p = sub.add_parser(
        "lint",
        help="static invariant checks: exactness (EXA), determinism (DET), "
        "two-party isolation (ISO), wire codec pairing (WIRE)",
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(p)
    p.set_defaults(fn=_cmd_lint)

    p = sub.add_parser(
        "cache",
        help="inspect the persistent exact-search result cache "
        "(stats / clear / verify / sweep-tmp)",
    )
    p.add_argument(
        "action", choices=["stats", "clear", "verify", "sweep-tmp"],
        help="sweep-tmp removes orphaned .tmp scratch files but keeps "
        "in-flight shard writes (tmp at least as new as its build's "
        "manifest); a builder that crashed mid-stream therefore keeps "
        "its scratches until a resumed build recommits the manifest — "
        "`cache clear` removes them unconditionally",
    )
    p.add_argument(
        "--dir", default=None,
        help="cache directory (default: the active store from "
        "REPRO_CACHE_DIR)",
    )
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_cache)

    def add_serve_config_arguments(p):
        p.add_argument(
            "--max-queue", type=int, default=64,
            help="bounded work queue size (beyond it requests are shed)",
        )
        p.add_argument(
            "--max-inflight", type=int, default=4,
            help="per-tenant in-flight admission cap",
        )

    p = sub.add_parser(
        "serve",
        help="run the fault-tolerant multi-tenant protocol service over TCP "
        "(newline-delimited JSON frames, wire schema v1)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 = ephemeral port")
    p.add_argument(
        "--max-requests", type=int, default=None,
        help="serve this many requests then drain (bounded smoke runs)",
    )
    add_serve_config_arguments(p)
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "serve-chaos",
        help="the service-layer fault gate: seeded requests through faulty "
        "frame pipes per fault kind; exit 1 on any silent corruption, hung "
        "connection or lost request",
    )
    # Unset options fall through to repro.serve.chaos_sweep's own defaults.
    p.add_argument(
        "--kinds", default=None,
        help="comma-separated fault kinds (default: all six)",
    )
    p.add_argument(
        "--rate", type=float, default=None, help="per-frame fault probability"
    )
    p.add_argument(
        "--requests", type=int, default=None,
        help="seeded requests per fault kind",
    )
    p.add_argument(
        "--clients", type=int, default=None, help="concurrent clients"
    )
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    add_serve_config_arguments(p)
    p.set_defaults(fn=_cmd_serve_chaos)

    p = sub.add_parser(
        "trace",
        help="inspect recorded trace files: span summaries, transcript "
        "replay with bit-for-bit verification, canonical export",
    )
    p.add_argument("action", choices=["summary", "replay", "export"])
    p.add_argument(
        "--file", default=None, help="one trace JSONL file to operate on"
    )
    p.add_argument(
        "--dir", default=None,
        help="directory of trace files (default: REPRO_TRACE_DIR)",
    )
    p.add_argument(
        "--format", choices=["text", "json", "jsonl"], default=None,
        help="output format (summary/replay: text|json, default text; "
        "export: json|jsonl, default json)",
    )
    p.add_argument(
        "--out", default=None, help="write export output to a file"
    )
    p.set_defaults(fn=_cmd_trace)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
