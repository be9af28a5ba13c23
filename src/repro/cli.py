"""Command-line interface: ``efd`` (or ``python -m repro``).

Subcommands
-----------
- ``efd generate --out data.npz`` — build a synthetic Taxonomist-style
  dataset.
- ``efd fit --data data.npz --out efd.json`` — learn a dictionary.
- ``efd recognize --efd efd.json --data data.npz`` — recognize
  executions.
- ``efd experiment --name normal_fold`` — run one of the paper's five
  experiments end to end.
- ``efd tables`` — render the paper's Tables 1/2/4.
- ``efd info`` — registry and configuration overview.
- ``efd engine ...`` — the sharded/batch recognition engine: ``selftest``
  (smoke-check shard/batch/columnar equivalence), ``shard`` (partition a
  flat dictionary JSON into a columnar shard directory), ``compact``
  (fold a shard directory's pending delta-log into its base, in place
  or to ``--out``), ``reshard`` (rewrite a directory at a new shard
  count without a relearn), ``recognize`` (batch recognition against a
  shard directory), ``info`` (shard occupancy, filters, and pending
  delta-log records, plus ``--stats`` to render a service counter
  snapshot).
- ``efd serve`` — async live-session recognition: NDJSON telemetry
  samples in (stdin, file, or — with ``--listen``/``--uds`` — many
  concurrent network producers), per-job verdicts out, with
  bounded-queue backpressure, optional ``--retention-*`` auto-pruning,
  and graceful drain on SIGTERM; ``--demo`` runs a self-contained
  synthetic stream.
- ``efd replay`` — the producer half: stream a JSONL sample file to a
  listening ``efd serve`` over TCP (``--connect``) or a Unix socket
  (``--uds``), optionally split across ``--producers`` concurrent
  connections.

Every subcommand is documented with examples in ``docs/cli.md``; the
network protocol and serving operations guide live in
``docs/serving.md``.
"""

from __future__ import annotations

import argparse
import sys
import zipfile
from typing import List, Optional

from repro import __version__


def _add_generate(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output .npz path")
    p.add_argument("--metrics", nargs="+", default=["nr_mapped_vmstat"])
    p.add_argument("--repetitions", type=int, default=10)
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--duration-cap", type=float, default=None)


def _add_fit(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("fit", help="learn an EFD from a dataset")
    p.add_argument("--data", required=True, help="dataset .npz path")
    p.add_argument("--out", required=True, help="output dictionary JSON path")
    p.add_argument("--metric", default="nr_mapped_vmstat")
    p.add_argument("--depth", type=int, default=None,
                   help="fixed rounding depth (default: tuned by CV)")
    p.add_argument("--interval", nargs=2, type=float, default=[60.0, 120.0])


def _add_recognize(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("recognize", help="recognize executions with an EFD")
    p.add_argument("--efd", required=True, help="dictionary JSON path")
    p.add_argument("--data", required=True, help="dataset .npz path")
    p.add_argument("--metric", default="nr_mapped_vmstat")
    p.add_argument("--depth", type=int, required=True,
                   help="rounding depth the dictionary was built with")
    p.add_argument("--interval", nargs=2, type=float, default=[60.0, 120.0])


def _add_experiment(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="run one of the paper's experiments")
    p.add_argument(
        "--name",
        required=True,
        choices=["normal_fold", "soft_input", "soft_unknown",
                 "hard_input", "hard_unknown", "figure2"],
    )
    p.add_argument("--repetitions", type=int, default=6)
    p.add_argument("--seed", type=int, default=2021)
    p.add_argument("--metric", default="nr_mapped_vmstat")
    p.add_argument("--folds", type=int, default=5)


def _add_tables(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("tables", help="render the paper's tables")
    p.add_argument("--which", nargs="+", default=["1", "2", "4"],
                   choices=["1", "2", "4"])
    p.add_argument("--repetitions", type=int, default=4)
    p.add_argument("--seed", type=int, default=2021)


def _add_info(sub: argparse._SubParsersAction) -> None:
    sub.add_parser("info", help="registry and configuration overview")


def _add_engine(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("engine", help="sharded / batch recognition engine")
    esub = p.add_subparsers(dest="engine_command", required=True)

    selftest = esub.add_parser(
        "selftest",
        help="smoke-check shard/batch/columnar equivalence against the "
             "flat path",
    )
    selftest.add_argument("--shards", type=int, default=4)
    selftest.add_argument("--seed", type=int, default=7)

    shard = esub.add_parser(
        "shard",
        help="partition a flat dictionary JSON into a columnar shard "
             "directory (raw memory-mapped shards, query-ready at open)",
    )
    shard.add_argument("--efd", required=True, help="flat dictionary JSON path")
    shard.add_argument("--out", required=True, help="output shard directory")
    shard.add_argument("--shards", type=int, default=8)

    compact = esub.add_parser(
        "compact",
        help="fold a shard directory's pending delta-log into its base",
    )
    compact.add_argument("--dir", required=True, dest="directory",
                         help="shard directory with a pending delta-log")
    compact.add_argument("--out", default=None,
                         help="write here instead of folding in place")

    reshard = esub.add_parser(
        "reshard",
        help="rewrite a shard directory at a new shard count without a "
             "relearn (only keys whose stable hash changes assignment "
             "move)",
    )
    reshard.add_argument("--dir", required=True, dest="directory",
                         help="shard directory")
    reshard.add_argument("--shards", type=int, required=True,
                         help="new shard count")
    reshard.add_argument("--out", default=None,
                         help="write here instead of resharding in place")

    recognize = esub.add_parser(
        "recognize",
        help="batch-recognize a dataset against a shard directory",
    )
    recognize.add_argument("--efd-dir", required=True, help="shard directory")
    recognize.add_argument("--data", required=True, help="dataset .npz path")
    recognize.add_argument("--metric", default="nr_mapped_vmstat")
    recognize.add_argument("--depth", type=int, required=True,
                           help="rounding depth the dictionary was built with")
    recognize.add_argument("--interval", nargs=2, type=float,
                           default=[60.0, 120.0])

    info = esub.add_parser(
        "info",
        help="shard directory occupancy, and/or render an "
             "EngineStats snapshot (--stats)",
    )
    info.add_argument("--efd-dir", default=None, help="shard directory")
    info.add_argument("--stats", default=None, metavar="JSON",
                      help="render an EngineStats snapshot written by "
                           "`efd serve --stats-out`")


def _add_serve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="async live-session recognition from JSONL sample streams "
             "(file, stdin, or TCP/UDS network producers)",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--efd", help="flat dictionary JSON path")
    src.add_argument("--efd-dir", help="sharded dictionary directory")
    src.add_argument("--demo", action="store_true",
                     help="self-contained demo: learn a small EFD and replay "
                          "a synthetic interleaved multi-job stream")
    src.add_argument("--remote", action="append", default=None,
                     metavar="SHARDS@HOST:PORT",
                     help="recognize against remote shard servers (`efd "
                          "shardserve`); repeatable, one spec per host — "
                          "SHARDS is a comma list of shard indexes or "
                          "'all', the endpoint HOST:PORT or unix:PATH. "
                          "Requires --remote-shards and --depth.")
    p.add_argument("--remote-shards", type=int, default=None, metavar="N",
                   help="total shard count of the remote dictionary "
                        "(required with --remote)")
    p.add_argument("--remote-deadline", type=float, default=2.0,
                   help="wall-clock budget in seconds per remote "
                        "scatter/gather batch")
    p.add_argument("--remote-try-timeout", type=float, default=0.5,
                   help="per-attempt socket timeout on one remote call")
    p.add_argument("--remote-retries", type=int, default=2,
                   help="bounded retries per remote request")
    p.add_argument("--remote-backoff-base", type=float, default=0.05,
                   help="base seconds of the full-jitter retry backoff")
    p.add_argument("--remote-backoff-cap", type=float, default=1.0,
                   help="ceiling seconds of the retry backoff envelope")
    p.add_argument("--remote-hedge-delay", type=float, default=0.05,
                   help="floor seconds before a quiet primary host is "
                        "hedged to the shard's next replica")
    p.add_argument("--remote-hedge-percentile", type=float, default=0.95,
                   help="latency percentile of recent calls past which a "
                        "hedge launches")
    p.add_argument("--remote-breaker-failures", type=int, default=3,
                   help="consecutive failures that trip a host's circuit "
                        "breaker open")
    p.add_argument("--remote-breaker-reset", type=float, default=1.0,
                   help="seconds an open breaker waits before one "
                        "half-open probe call")
    p.add_argument("--remote-pool-size", type=int, default=4,
                   help="persistent connections kept per shard host")
    p.add_argument("--remote-pipeline-chunk", type=int, default=4096,
                   help="keys per binary v2 probe frame; larger buckets "
                        "pipeline multiple frames per connection")
    p.add_argument("--remote-no-filter-mirrors", action="store_true",
                   help="disable the client-side Bloom filter mirrors "
                        "(every probe then crosses the wire)")
    p.add_argument("--input", default="-",
                   help="JSONL sample stream: a file path, or '-' for stdin "
                        "(ignored with --demo/--listen/--uds)")
    p.add_argument("--listen", default=None, metavar="HOST:PORT",
                   help="accept NDJSON producers over TCP (port 0 binds an "
                        "ephemeral port; may be combined with --uds)")
    p.add_argument("--uds", default=None, metavar="PATH",
                   help="accept NDJSON producers over a Unix domain socket")
    p.add_argument("--publish", default=None, metavar="HOST:PORT",
                   help="publish this columnar --efd-dir to replication "
                        "followers over TCP (port 0 binds an ephemeral "
                        "port; requires --efd-dir)")
    p.add_argument("--publish-uds", default=None, metavar="PATH",
                   help="publish to replication followers over a Unix "
                        "domain socket (may be combined with --publish)")
    p.add_argument("--follow", default=None, metavar="HOST:PORT",
                   help="serve as a replica of the leader publishing at "
                        "this TCP endpoint (requires --efd-dir; the "
                        "directory is bootstrapped if absent)")
    p.add_argument("--follow-uds", default=None, metavar="PATH",
                   help="serve as a replica of the leader publishing at "
                        "this Unix-domain-socket path")
    p.add_argument("--retention-age", type=float, default=None,
                   metavar="SECONDS",
                   help="auto-forget completed sessions this long after "
                        "their verdict (default: retain forever)")
    p.add_argument("--retention-max-done", type=int, default=None,
                   metavar="N",
                   help="retain at most N completed sessions; oldest "
                        "verdicts are forgotten first")
    p.add_argument("--metric", default="nr_mapped_vmstat")
    p.add_argument("--depth", type=int, default=None,
                   help="rounding depth the dictionary was built with "
                        "(required unless --demo)")
    p.add_argument("--interval", nargs=2, type=float, default=[60.0, 120.0])
    p.add_argument("--nodes", type=int, default=4,
                   help="node count for jobs whose samples omit 'nodes'")
    p.add_argument("--queue-size", type=int, default=4096,
                   help="bounded ingest queue capacity")
    p.add_argument("--policy", default="block", choices=["block", "shed"],
                   help="backpressure when the queue is full")
    p.add_argument("--max-sessions", type=int, default=10_000)
    p.add_argument("--batch-size", type=int, default=64,
                   help="max sessions per recognition micro-batch")
    p.add_argument("--batch-delay", type=float, default=0.01,
                   help="longest a ready session waits for batch-mates "
                        "while sessions keep turning ready (seconds)")
    p.add_argument("--session-timeout", type=float, default=None,
                   help="evict sessions idle this many seconds (default: never)")
    p.add_argument("--evict", default="force", choices=["force", "drop"],
                   help="eviction outcome: early verdict, or error")
    p.add_argument("--family", action="store_true",
                   help="serve family-cascade verdicts: a coarse family "
                        "tier at --family-coarse-depth screens probes "
                        "before the full-depth dictionary, and 'same app, "
                        "new version' is reported as near-family instead "
                        "of unknown")
    p.add_argument("--family-coarse-depth", type=int, default=1,
                   help="rounding depth of the coarse family tier "
                        "(must be <= --depth)")
    p.add_argument("--family-spec", default=None, metavar="SPEC.json",
                   help="family spec from `efd family build`; requires "
                        "--family (default: derive families from version "
                        "suffixes of the dictionary's app names)")
    p.add_argument("--no-compact-on-close", action="store_true",
                   help="leave a columnar dictionary's pending delta-log "
                        "unfolded at shutdown (records replay on next load)")
    p.add_argument("--stats-out", default=None, metavar="JSON",
                   help="write the final EngineStats snapshot here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-verdict lines")
    p.add_argument("--demo-jobs", type=int, default=12,
                   help="concurrent jobs in the --demo stream")
    p.add_argument("--seed", type=int, default=7,
                   help="--demo dataset seed")


def _add_shardserve(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "shardserve",
        help="serve a slice of a dictionary's shard space to remote "
             "probe clients (`efd serve --remote`)",
    )
    p.add_argument("--dir", required=True, dest="directory",
                   help="shard directory to serve")
    p.add_argument("--shards", default=None, metavar="A,B,C",
                   help="comma list of shard indexes this host owns "
                        "(default: every shard — a full replica)")
    ep = p.add_mutually_exclusive_group(required=True)
    ep.add_argument("--listen", default=None, metavar="HOST:PORT",
                    help="accept probe clients over TCP (port 0 binds an "
                         "ephemeral port)")
    ep.add_argument("--uds", default=None, metavar="PATH",
                    help="accept probe clients over a Unix domain socket")
    p.add_argument("--stats-out", default=None, metavar="JSON",
                   help="write the final EngineStats snapshot here")


def _add_promote(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "promote",
        help="failover: elect the most-advanced replica among the "
             "candidates, promote it to leader, re-point the rest at it",
    )
    p.add_argument("--candidates", nargs="+", required=True,
                   metavar="HOST:PORT|unix:PATH",
                   help="replication endpoints (`efd serve --publish` "
                        "addresses) of the surviving replicas")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="seconds to wait on each control round-trip")


def _add_replay(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "replay",
        help="stream a JSONL sample file to a listening `efd serve` "
             "over TCP or a Unix socket",
    )
    p.add_argument("--input", required=True,
                   help="JSONL sample file, or '-' for stdin")
    dst = p.add_mutually_exclusive_group(required=True)
    dst.add_argument("--connect", default=None, metavar="HOST:PORT",
                     help="TCP endpoint of the listening server")
    dst.add_argument("--uds", default=None, metavar="PATH",
                     help="Unix-domain-socket path of the listening server")
    p.add_argument("--producers", type=int, default=1,
                   help="split the stream by job id across this many "
                        "concurrent connections")
    p.add_argument("--batch-lines", type=int, default=256,
                   help="lines written between producer-side drain calls")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the per-connection summary lines")


def _add_family(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "family",
        help="hierarchical recognition: group labels into app families, "
             "cascade coarse family tier -> full-depth variant tier",
    )
    fsub = p.add_subparsers(dest="family_command", required=True)

    build = fsub.add_parser(
        "build",
        help="derive a family hierarchy from a dictionary's label->app "
             "mapping (or an explicit spec) and write it as JSON",
    )
    src = build.add_mutually_exclusive_group(required=True)
    src.add_argument("--efd", help="flat dictionary JSON path")
    src.add_argument("--efd-dir", help="sharded dictionary directory")
    build.add_argument("--depth", type=int, required=True,
                       help="rounding depth the dictionary was built with "
                            "(the cascade's fine depth)")
    build.add_argument("--coarse-depth", type=int, default=1,
                       help="rounding depth of the coarse family tier")
    build.add_argument("--map", action="append", default=None,
                       metavar="APP=FAMILY",
                       help="explicit family assignment (repeatable); "
                            "unmapped apps fall back to the version-suffix "
                            "heuristic (app-1.2 -> family 'app')")
    build.add_argument("--out", default=None, metavar="SPEC.json",
                       help="write the family spec JSON here")

    report = fsub.add_parser(
        "report",
        help="cascade a dataset: distinguish 'same app, new version' "
             "(near-family) from 'unknown app' per execution",
    )
    src = report.add_mutually_exclusive_group(required=True)
    src.add_argument("--efd", help="flat dictionary JSON path")
    src.add_argument("--efd-dir", help="sharded dictionary directory")
    report.add_argument("--data", required=True, help="dataset .npz path")
    report.add_argument("--depth", type=int, required=True,
                        help="rounding depth the dictionary was built with")
    report.add_argument("--coarse-depth", type=int, default=1,
                        help="rounding depth of the coarse family tier "
                             "(overridden by --spec's recorded depth)")
    report.add_argument("--spec", default=None, metavar="SPEC.json",
                        help="family spec from `efd family build` "
                             "(default: derive families from version "
                             "suffixes of the dictionary's app names)")
    report.add_argument("--metric", default="nr_mapped_vmstat")
    report.add_argument("--interval", nargs=2, type=float,
                        default=[60.0, 120.0])
    report.add_argument("--quiet", action="store_true",
                        help="suppress per-execution verdict lines")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efd",
        description="Execution Fingerprint Dictionary for HPC application "
                    "recognition (CLUSTER 2021 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub)
    _add_fit(sub)
    _add_recognize(sub)
    _add_experiment(sub)
    _add_tables(sub)
    _add_info(sub)
    _add_engine(sub)
    _add_family(sub)
    _add_serve(sub)
    _add_shardserve(sub)
    _add_promote(sub)
    _add_replay(sub)
    return parser


# ---------------------------------------------------------------------------
# Command implementations (imports deferred so `--help` stays snappy)
# ---------------------------------------------------------------------------

def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.data.io import save_dataset
    from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator

    config = DatasetConfig(
        metrics=tuple(args.metrics),
        repetitions=args.repetitions,
        seed=args.seed,
        duration_cap=args.duration_cap,
    )
    dataset = TaxonomistDatasetGenerator(config).generate()
    save_dataset(dataset, args.out)
    summary = dataset.summary()
    print(
        f"wrote {summary['executions']} executions "
        f"({summary['pairs']} app-input pairs x {args.repetitions} reps, "
        f"{summary['metrics']} metric(s)) to {args.out}"
    )
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from repro.core.recognizer import EFDRecognizer
    from repro.core.serialization import save_dictionary
    from repro.data.io import load_dataset

    dataset = load_dataset(args.data)
    recognizer = EFDRecognizer(
        metric=args.metric,
        interval=(args.interval[0], args.interval[1]),
        depth=args.depth,
    ).fit(dataset)
    save_dictionary(recognizer.dictionary_, args.out)
    stats = recognizer.stats()
    print(
        f"learned EFD: depth={recognizer.depth_}, keys={stats.n_keys}, "
        f"insertions={stats.n_insertions}, "
        f"pruning_ratio={stats.pruning_ratio:.2f} -> {args.out}"
    )
    return 0


def _cmd_recognize(args: argparse.Namespace) -> int:
    from repro.core.fingerprint import build_fingerprints
    from repro.core.matcher import match_fingerprints
    from repro.core.serialization import load_dictionary
    from repro.data.io import load_dataset

    efd = load_dictionary(args.efd)
    dataset = load_dataset(args.data)
    interval = (args.interval[0], args.interval[1])
    correct = 0
    for record in dataset:
        fps = build_fingerprints(record, args.metric, args.depth, interval)
        result = match_fingerprints(efd, fps)
        prediction = result.prediction or "unknown"
        marker = "OK " if prediction == record.app_name else "MISS"
        if prediction == record.app_name:
            correct += 1
        print(
            f"{marker} record {record.record_id:4d} true={record.label:14s} "
            f"predicted={prediction:12s} votes={dict(result.votes)}"
        )
    total = len(dataset)
    print(f"accuracy: {correct}/{total} = {correct / total:.3f}" if total else
          "empty dataset")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
    from repro.experiments.figures import figure2_series, render_figure2
    from repro.experiments.protocol import make_efd_factory, run_experiment

    config = DatasetConfig(
        metrics=(args.metric,), repetitions=args.repetitions, seed=args.seed
    )
    dataset = TaxonomistDatasetGenerator(config).generate()
    if args.name == "figure2":
        series = figure2_series(dataset, efd_metric=args.metric, k=args.folds,
                                seed=args.seed)
        print(render_figure2(series))
        return 0
    result = run_experiment(
        args.name, dataset, make_efd_factory(metric=args.metric, seed=args.seed),
        k=args.folds, seed=args.seed,
    )
    print(result)
    return 0


def _cmd_tables(args: argparse.Namespace) -> int:
    from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
    from repro.experiments.tables import (
        example_efd,
        render_table1,
        render_table2,
        render_table4,
    )

    if "1" in args.which:
        print(render_table1())
        print()
    if "2" in args.which or "4" in args.which:
        config = DatasetConfig(repetitions=args.repetitions, seed=args.seed)
        dataset = TaxonomistDatasetGenerator(config).generate()
        if "2" in args.which:
            print(render_table2(dataset))
            print()
        if "4" in args.which:
            from repro.experiments.tables import render_table4 as _render4

            print(_render4(example_efd(dataset)))
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.telemetry.metrics import default_registry, TABLE3_METRICS
    from repro.workloads.registry import APP_NAMES, STARRED_APPS, default_workloads

    registry = default_registry()
    workloads = default_workloads()
    print(f"repro {__version__} — EFD reproduction (CLUSTER 2021)")
    print(f"metric registry : {len(registry)} metrics in groups {registry.groups()}")
    print(f"paper metrics   : {list(TABLE3_METRICS)[:4]} ...")
    print(f"applications    : {APP_NAMES}")
    print(f"with input L    : {STARRED_APPS}")
    print(f"app-input pairs : {len(workloads.app_input_pairs())}")
    return 0


def _cmd_engine_selftest(args: argparse.Namespace) -> int:
    import tempfile

    from repro.core.fingerprint import build_fingerprints
    from repro.core.matcher import match_fingerprints
    from repro.core.recognizer import EFDRecognizer
    from repro.core.streaming import StreamingRecognizer
    from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator
    from repro.engine import (
        BatchRecognizer,
        ShardedDictionary,
        load_columnar,
        save_columnar,
    )

    config = DatasetConfig(
        metrics=("nr_mapped_vmstat",),
        repetitions=3,
        seed=args.seed,
        duration_cap=150.0,
        apps=("ft", "mg", "lu", "CoMD"),
    )
    dataset = TaxonomistDatasetGenerator(config).generate()
    recognizer = EFDRecognizer(depth=2).fit(dataset)
    flat = recognizer.dictionary_
    records = list(dataset)
    sequential = [
        match_fingerprints(
            flat, build_fingerprints(r, "nr_mapped_vmstat", 2)
        )
        for r in records
    ]
    failures = []

    sharded = ShardedDictionary.from_flat(flat, args.shards)
    for record in records:
        fps = build_fingerprints(record, "nr_mapped_vmstat", 2)
        if match_fingerprints(sharded, fps) != match_fingerprints(flat, fps):
            failures.append(f"sharded lookup mismatch on record {record.record_id}")
            break
    if BatchRecognizer(sharded, depth=2).recognize_records(records) != sequential:
        failures.append("batch mismatch")

    streaming = StreamingRecognizer.from_recognizer(recognizer)
    sessions = []
    for record in records[:8]:
        session = streaming.open_session(n_nodes=record.n_nodes)
        for node in range(record.n_nodes):
            series = record.series("nr_mapped_vmstat", node)
            session.ingest_many(node, series.times, series.values)
        sessions.append(session)
    batch_verdicts = BatchRecognizer(sharded, depth=2).recognize_sessions(
        sessions, force=True
    )
    if batch_verdicts != [s.verdict(force=True) for s in sessions]:
        failures.append("session batch mismatch")

    with tempfile.TemporaryDirectory() as tmp:
        save_columnar(sharded, tmp)
        columnar = load_columnar(tmp)
        engine = BatchRecognizer(columnar, depth=2)
        if engine.recognize_records(records) != sequential:
            failures.append("columnar batch mismatch")
        if list(columnar.entries()) != list(flat.entries()):
            failures.append("columnar round-trip entries mismatch")

    print(
        f"engine selftest: {len(records)} executions, "
        f"{len(flat)} keys across {args.shards} shard(s) "
        f"{sharded.shard_sizes()}"
    )
    print(engine.stats.render())
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS: sharded/batch/streaming/round-trip all equivalent")
    return 0


def _cmd_engine_shard(args: argparse.Namespace) -> int:
    from repro.core.serialization import load_dictionary
    from repro.engine import ShardedDictionary, save_columnar

    flat = load_dictionary(args.efd)
    sharded = ShardedDictionary.from_flat(flat, args.shards)
    save_columnar(sharded, args.out)
    print(
        f"sharded {len(flat)} keys into {args.shards} shard(s) "
        f"{sharded.shard_sizes()} -> {args.out}"
    )
    return 0


def _error_text(exc: BaseException) -> str:
    """One-line message of ``exc`` (a ``KeyError`` prints its message,
    not the repr of its key)."""
    if isinstance(exc, KeyError) and exc.args:
        return str(exc.args[0])
    return str(exc)


#: What a missing or corrupt store or dataset raises on load, and what a
#: dataset without the requested ``--metric`` raises on recognition.
_INPUT_ERRORS = (OSError, ValueError, KeyError, zipfile.BadZipFile)


def _cmd_engine_compact(args: argparse.Namespace) -> int:
    from repro.engine import compact_shards

    try:
        summary = compact_shards(args.directory, out=args.out)
    except _INPUT_ERRORS as exc:
        print(f"engine compact: {_error_text(exc)}", file=sys.stderr)
        return 2
    print(
        f"folded {summary['folded_records']} delta-log record(s) into "
        f"{summary['n_keys']} keys across {summary['n_shards']} "
        f"shard(s): {summary['columnar_bytes']} B columnar "
        f"at {summary['directory']}"
    )
    return 0


def _cmd_engine_reshard(args: argparse.Namespace) -> int:
    from repro.engine import reshard

    try:
        summary = reshard(args.directory, args.shards, out=args.out)
    except _INPUT_ERRORS as exc:
        print(f"engine reshard: {_error_text(exc)}", file=sys.stderr)
        return 2
    print(
        f"resharded {summary['n_keys']} keys: "
        f"{summary['old_shards']} -> {summary['new_shards']} shard(s), "
        f"{summary['moved_keys']} key(s) moved, occupancy "
        f"{summary['shard_sizes']} at {summary['directory']}"
    )
    return 0


def _cmd_engine_recognize(args: argparse.Namespace) -> int:
    from repro.data.io import load_dataset
    from repro.engine import BatchRecognizer, load_columnar

    try:
        store = load_columnar(args.efd_dir)
        records = list(load_dataset(args.data))
        engine = BatchRecognizer(
            store,
            metric=args.metric,
            depth=args.depth,
            interval=(args.interval[0], args.interval[1]),
        )
        predictions = engine.predict(records)
    except _INPUT_ERRORS as exc:
        print(f"engine recognize: {_error_text(exc)}", file=sys.stderr)
        return 2
    correct = sum(
        1 for r, p in zip(records, predictions) if p == r.app_name
    )
    print(engine.stats.render())
    total = len(records)
    print(f"accuracy: {correct}/{total} = {correct / total:.3f}" if total else
          "empty dataset")
    return 0


def _cmd_engine_info(args: argparse.Namespace) -> int:
    if args.efd_dir is None and args.stats is None:
        print("engine info: pass --efd-dir and/or --stats", file=sys.stderr)
        return 2
    if args.efd_dir is not None:
        from repro.engine import load_columnar

        try:
            store = load_columnar(args.efd_dir)
            stats = store.stats()
        except _INPUT_ERRORS as exc:
            # A manifest referencing a missing/corrupt shard, filter,
            # or key-order file names the offender — report it, don't
            # traceback.
            print(f"engine info: {_error_text(exc)}", file=sys.stderr)
            return 2
        print(f"sharded EFD at {args.efd_dir}")
        info = store.filter_info()
        if info is not None:
            print(f"filters     : per-shard Bloom, "
                  f"{info['bits_per_key']} bits/key, "
                  f"fp_bound={info['fp_bound']:.4f}")
        pending = store.delta_pending
        if pending:
            print(f"delta-log   : {pending} pending record(s) "
                  f"(fold with `efd engine compact`)")
        print(f"shards      : {store.n_shards}, occupancy {store.shard_sizes()}")
        print(
            f"keys        : {stats.n_keys} from {stats.n_insertions} insertions "
            f"(pruning_ratio={stats.pruning_ratio:.2f})"
        )
        print(
            f"labels      : {stats.n_labels}, colliding_keys={stats.n_colliding_keys}, "
            f"max_labels_per_key={stats.max_labels_per_key}"
        )
        print(f"metrics     : {store.metrics()}")
    if args.stats is not None:
        import json

        from repro.engine import EngineStats

        try:
            with open(args.stats, "r", encoding="utf-8") as fh:
                snapshot = EngineStats.from_dict(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"engine info: bad stats snapshot {args.stats}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"engine counters from {args.stats}")
        print(snapshot.render())
    return 0


def _parse_hostport(value: str) -> tuple:
    """``HOST:PORT`` / ``:PORT`` / ``PORT`` -> (host, port)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host = ""
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise SystemExit(f"invalid HOST:PORT {value!r}")


def _serve_build_engine(args: argparse.Namespace, listening: bool = False):
    """Dictionary + depth from --efd / --efd-dir / --demo; returns
    (engine, sample iterable, expected labels or None, file to close
    or None).  In ``listening`` mode samples come over the network, so
    no local sample source is opened."""
    from repro.engine import BatchRecognizer
    from repro.serve import interleave_records, read_samples

    if args.demo:
        from repro.core.recognizer import EFDRecognizer
        from repro.data.taxonomist import DatasetConfig, TaxonomistDatasetGenerator

        config = DatasetConfig(
            metrics=(args.metric,),
            repetitions=3,
            seed=args.seed,
            duration_cap=150.0,
            apps=("ft", "mg", "lu", "CoMD"),
        )
        dataset = TaxonomistDatasetGenerator(config).generate()
        # Honor --depth/--interval in demo mode too: the dictionary and
        # the serving engine must agree, or verdicts silently miss.
        recognizer = EFDRecognizer(
            metric=args.metric,
            depth=args.depth if args.depth is not None else 2,
            interval=(args.interval[0], args.interval[1]),
        ).fit(dataset)
        dictionary, depth = recognizer.dictionary_, recognizer.depth_
        # Stride across the (app-sorted) dataset so the demo stream
        # interleaves jobs of different applications.
        everything = list(dataset)
        stride = max(1, len(everything) // max(args.demo_jobs, 1))
        records = everything[::stride][: args.demo_jobs]
        job_ids = [f"job-{i:04d}" for i in range(len(records))]
        samples = interleave_records(records, args.metric, job_ids)
        expected = dict(zip(job_ids, (r.app_name for r in records)))
        stream_fh = None
    else:
        if args.depth is None:
            raise SystemExit("efd serve: --depth is required unless --demo")
        depth = args.depth
        if args.remote is not None:
            dictionary = _serve_remote_backend(args)
        elif args.efd is not None:
            from repro.core.serialization import load_dictionary

            dictionary = load_dictionary(args.efd)
        else:
            from repro.engine import load_columnar

            dictionary = load_columnar(args.efd_dir)
        if listening:
            stream_fh, samples = None, None
        elif args.input == "-":
            stream_fh = None
            samples = read_samples(sys.stdin)
        else:
            stream_fh = open(args.input, "r", encoding="utf-8")
            samples = read_samples(stream_fh)
        expected = None
    if getattr(args, "family", False):
        from repro.family import FamilyCascade, load_family_spec, make_family_engine

        spec = None
        coarse_depth = args.family_coarse_depth
        if args.family_spec is not None:
            spec, coarse_depth, _ = load_family_spec(args.family_spec)
        try:
            cascade = FamilyCascade(
                dictionary, spec=spec, coarse_depth=coarse_depth,
                fine_depth=depth,
            )
        except ValueError as exc:
            raise SystemExit(f"efd serve: {exc}")
        engine = make_family_engine(
            cascade,
            metric=args.metric,
            interval=(args.interval[0], args.interval[1]),
        )
    else:
        engine = BatchRecognizer(
            dictionary,
            metric=args.metric,
            depth=depth,
            interval=(args.interval[0], args.interval[1]),
        )
    if getattr(args, "remote", None) is not None:
        # One stats object end to end: the backend's remote_* counters
        # land in the same EngineStats the service renders at exit.
        dictionary.engine_stats = engine.stats
    return engine, dictionary, samples, expected, stream_fh


def _close_store(store) -> None:
    """Release what an opened store holds (a columnar store's delta-log
    file, a remote client's connections); a no-op for in-memory ones."""
    close = getattr(store, "close", None)
    if close is not None:
        close()


def _serve_remote_backend(args: argparse.Namespace):
    """Build the scatter/gather client for ``efd serve --remote``."""
    from repro.engine.remote import RemoteError, RemoteShardBackend

    if args.remote_shards is None:
        raise SystemExit("efd serve: --remote requires --remote-shards "
                         "(total shard count of the remote dictionary)")
    try:
        remote = RemoteShardBackend(
            args.remote,
            n_shards=args.remote_shards,
            deadline=args.remote_deadline,
            try_timeout=args.remote_try_timeout,
            retries=args.remote_retries,
            backoff_base=args.remote_backoff_base,
            backoff_cap=args.remote_backoff_cap,
            hedge_delay=args.remote_hedge_delay,
            hedge_percentile=args.remote_hedge_percentile,
            breaker_failures=args.remote_breaker_failures,
            breaker_reset=args.remote_breaker_reset,
            pool_size=args.remote_pool_size,
            pipeline_chunk=args.remote_pipeline_chunk,
            filter_mirrors=not args.remote_no_filter_mirrors,
        )
    except (ValueError, RemoteError) as exc:
        raise SystemExit(f"efd serve: {exc}")
    # Recognition needs keys to vote with: a fleet that answers nothing
    # at boot is an operator error, not an empty dictionary.
    if not any(remote.shard_sizes()) and remote.last_sizes_unreachable:
        remote.close()
        shards = ",".join(str(s) for s in remote.last_sizes_unreachable)
        raise SystemExit(
            f"efd serve: no remote host answered for shard(s) {shards} of "
            f"{remote.n_shards} (is efd shardserve running at "
            f"{' '.join(args.remote)}?)"
        )
    return remote


class _VerdictReporter:
    """Shared ``on_verdict`` callback for every serve mode.

    Prints each verdict as it lands (flushed, so piped output streams
    live) and keeps the delivered-verdict tally — the summary source
    that stays correct when retention prunes resolved sessions out of
    ``service.results`` before the run ends.
    """

    def __init__(self, quiet: bool):
        self.quiet = quiet
        self.predictions: dict = {}

    def __call__(self, job, result) -> None:
        self.predictions[job] = result.prediction
        if not self.quiet:
            if hasattr(result, "outcome"):
                # Family-cascade verdict: outcome + family carry more
                # than the bare prediction ("same app, new version").
                print(f"verdict job={job} {result.describe()} "
                      f"votes={dict(result.votes)}", flush=True)
            else:
                app = result.prediction or "unknown"
                print(f"verdict job={job} app={app} "
                      f"votes={dict(result.votes)}", flush=True)


async def _serve_run(engine, samples, config, reporter, chunk_size: int = 256):
    """Feed a (possibly blocking) sample iterator through the service.

    ``chunk_size`` is how many samples each executor read pulls; live
    stdin feeds use 1 so a verdict is never held hostage to a chunk
    that hasn't filled yet.
    """
    import asyncio
    from itertools import islice

    from repro.serve import IngestService

    loop = asyncio.get_running_loop()
    service = IngestService(engine, config, on_verdict=reporter)
    async with service:
        iterator = iter(samples)
        while True:
            # Pull the stream on the default executor so a blocking
            # stdin read never stalls the recognition loop.
            chunk = await loop.run_in_executor(
                None, lambda: list(islice(iterator, chunk_size))
            )
            if not chunk:
                break
            await service.submit_many(chunk)
        await service.drain()
    return service


async def _serve_listen(engine, config, listen, uds, reporter):
    """Run the service behind a TCP/UDS listener until SIGTERM/SIGINT,
    then drain gracefully: stop accepting, flush in-flight producer
    batches, resolve every outstanding session."""
    import asyncio
    import signal

    from repro.serve import IngestService, NetListener

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)

    host, port = _parse_hostport(listen) if listen is not None else (None, None)
    service = IngestService(engine, config, on_verdict=reporter)
    try:
        async with service:
            listener = NetListener(service, host=host or "127.0.0.1",
                                   port=port, uds=uds)
            async with listener:
                for endpoint in listener.endpoints:
                    print(f"listening on {endpoint}", flush=True)
                await stop.wait()
                print("draining: no longer accepting producers", flush=True)
            await service.drain()
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
    return service


async def _serve_replicated(args, config, reporter):
    """Run the service as a replication leader (``--publish``) and/or
    replica (``--follow``) until SIGTERM/SIGINT.

    A replica starts its follower *before* loading the dictionary so an
    empty ``--efd-dir`` bootstraps from the leader's snapshot; once the
    base is on disk the engine is built normally and the follower is
    attached to the live store, applying records under the service's
    engine lock.  A ``--publish`` endpoint re-ships this directory's
    delta-log downstream (fan-out relays work: a node may follow and
    publish at once) and answers ``status``/``promote``/``follow``
    control requests from ``efd promote``.
    """
    import asyncio
    import signal

    from repro.engine.replicate import (
        ReplicationFollower,
        ReplicationPublisher,
        parse_replica_endpoint,
    )
    from repro.serve import IngestService, NetListener

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    follower = publisher = listener = store = None
    try:
        if args.follow or args.follow_uds:
            upstream = (parse_replica_endpoint(args.follow)
                        if args.follow else {"uds": args.follow_uds})
            follower = ReplicationFollower(
                args.efd_dir,
                **upstream,
            )
            await follower.start()
            if not await follower.wait_ready(timeout=60.0):
                await follower.close()
                raise SystemExit(
                    "efd serve: replica never reached the leader's "
                    "generation (is the leader publishing?)"
                )
            print(f"replica synced at generation {follower.generation}",
                  flush=True)
        try:
            engine, store, _, _, _ = _serve_build_engine(args, listening=True)
        except _INPUT_ERRORS as exc:
            print(f"serve: {_error_text(exc)}", file=sys.stderr)
            raise SystemExit(2)
        service = IngestService(engine, config, on_verdict=reporter)
        if follower is not None:
            # Attach before the event loop runs anything else so no
            # records land between the store load and the attach.
            follower.attach(engine.dictionary, lock=service.engine_lock)
            follower.stats = engine.stats
        async with service:
            if args.publish or args.publish_uds:
                pub_kwargs: dict = {}
                if args.publish:
                    pub_kwargs.update(parse_replica_endpoint(args.publish))
                if args.publish_uds:
                    pub_kwargs["uds"] = args.publish_uds
                on_promote = on_follow = None
                if follower is not None:
                    async def on_promote():
                        reply = await follower.promote()
                        publisher.role = "leader"
                        print(f"promoted: serving as leader at generation "
                              f"{reply['generation']}", flush=True)
                        return reply

                    async def on_follow(msg):
                        target = str(msg.get("target", ""))
                        try:
                            endpoint = parse_replica_endpoint(target)
                        except (ValueError, SystemExit) as exc:
                            return {"error": f"bad follow target: {exc}"}
                        await follower.refollow(**endpoint)
                        print(f"re-following {target}", flush=True)
                        return {"ok": True, "target": target}
                publisher = ReplicationPublisher(
                    args.efd_dir,
                    stats=engine.stats,
                    role="replica" if follower is not None else "leader",
                    on_promote=on_promote,
                    on_follow=on_follow,
                    **pub_kwargs,
                )
                await publisher.start()
                for endpoint in publisher.endpoints:
                    print(f"publishing on {endpoint}", flush=True)
            if args.listen is not None or args.uds is not None:
                host, port = (_parse_hostport(args.listen)
                              if args.listen is not None else (None, None))
                listener = NetListener(service, host=host or "127.0.0.1",
                                       port=port, uds=args.uds)
                await listener.start()
                for endpoint in listener.endpoints:
                    print(f"listening on {endpoint}", flush=True)
            try:
                await stop.wait()
                print("draining: no longer accepting producers", flush=True)
            finally:
                if listener is not None:
                    await listener.close()
                if publisher is not None:
                    await publisher.close()
                if follower is not None:
                    await follower.close()
            await service.drain()
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(sig)
        _close_store(store)
    return service


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import dataclasses
    import json

    from repro.serve import ServeConfig

    listening = args.listen is not None or args.uds is not None
    following = args.follow is not None or args.follow_uds is not None
    replicating = (following or args.publish is not None
                   or args.publish_uds is not None)
    if listening and args.demo:
        raise SystemExit("efd serve: --demo cannot be combined with "
                         "--listen/--uds (producers push real streams)")
    if replicating and args.efd_dir is None:
        raise SystemExit("efd serve: --publish/--follow require --efd-dir "
                         "(replication ships a columnar directory)")
    if args.follow and args.follow_uds:
        raise SystemExit("efd serve: --follow and --follow-uds are "
                         "mutually exclusive (one leader at a time)")
    if args.family_spec is not None and not args.family:
        raise SystemExit("efd serve: --family-spec requires --family")
    if replicating:
        engine = store = samples = expected = stream_fh = None
    else:
        try:
            engine, store, samples, expected, stream_fh = _serve_build_engine(
                args, listening=listening
            )
        except _INPUT_ERRORS as exc:
            print(f"serve: {_error_text(exc)}", file=sys.stderr)
            return 2
    config = ServeConfig(
        max_pending_samples=args.queue_size,
        backpressure=args.policy,
        max_sessions=args.max_sessions,
        batch_max_sessions=args.batch_size,
        batch_max_delay=args.batch_delay,
        session_timeout=args.session_timeout,
        evict=args.evict,
        default_nodes=args.nodes,
        retention_max_age=args.retention_age,
        retention_max_done=args.retention_max_done,
        compact_on_close=not args.no_compact_on_close,
    )
    if following:
        # A replica folding its own delta-log would advance its
        # generation past the leader's; only a promote may compact.
        config = dataclasses.replace(config, compact_on_close=False)
    reporter = _VerdictReporter(args.quiet)
    try:
        if replicating:
            service = asyncio.run(_serve_replicated(args, config, reporter))
        elif listening:
            service = asyncio.run(
                _serve_listen(engine, config, args.listen, args.uds, reporter)
            )
        else:
            # Live stdin: read sample-by-sample so verdicts flow as soon
            # as the interval completes; files/demo streams read in
            # chunks.
            chunk_size = 1 if (not args.demo and args.input == "-") else 256
            service = asyncio.run(
                _serve_run(engine, samples, config, reporter, chunk_size)
            )
    finally:
        if stream_fh is not None:
            stream_fh.close()
        _close_store(store)
    # Summarize from the stats gauges and the reporter tally, not the
    # session table — retention may already have pruned resolved
    # sessions out of service.results.
    stats = service.stats
    n_served = stats.sessions_active + stats.sessions_retained + stats.n_pruned
    print(f"served {n_served} session(s), "
          f"{len(reporter.predictions)} verdict(s)")
    print(stats.render())
    if expected is not None:
        correct = sum(
            1 for job, prediction in reporter.predictions.items()
            if prediction == expected.get(job)
        )
        total = len(expected)
        print(f"demo accuracy: {correct}/{total} = {correct / total:.3f}"
              if total else "demo: no jobs")
    if args.stats_out is not None:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats.as_dict(), fh, indent=2)
        print(f"stats snapshot -> {args.stats_out}")
    return 0


def _cmd_shardserve(args: argparse.Namespace) -> int:
    import asyncio
    import json
    import signal

    from repro.engine import load_columnar
    from repro.engine.remote import ShardServer

    try:
        store = load_columnar(args.directory)
    except _INPUT_ERRORS as exc:
        print(f"shardserve: {_error_text(exc)}", file=sys.stderr)
        return 2
    shards = None
    if args.shards is not None:
        try:
            shards = [int(s) for s in args.shards.split(",") if s.strip()]
        except ValueError:
            raise SystemExit(f"efd shardserve: invalid --shards {args.shards!r}")

    async def run() -> ShardServer:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, stop.set)
        if args.uds is not None:
            kwargs = {"uds": args.uds}
        else:
            host, port = _parse_hostport(args.listen)
            kwargs = {"host": host, "port": port}
        try:
            server = ShardServer(store, n_shards=store.n_shards,
                                 shards=shards, **kwargs)
        except ValueError as exc:
            raise SystemExit(f"efd shardserve: {exc}")
        try:
            async with server:
                for endpoint in server.endpoints:
                    print(f"listening on {endpoint}", flush=True)
                owned = ",".join(str(s) for s in server.shards)
                print(f"serving shard(s) {owned} of {store.n_shards} "
                      f"({len(store)} key(s))", flush=True)
                await stop.wait()
        finally:
            for sig in (signal.SIGTERM, signal.SIGINT):
                loop.remove_signal_handler(sig)
        return server

    try:
        server = asyncio.run(run())
    finally:
        _close_store(store)
    print(server.stats.render())
    if args.stats_out is not None:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(server.stats.as_dict(), fh, indent=2)
        print(f"stats snapshot -> {args.stats_out}")
    return 0


def _cmd_promote(args: argparse.Namespace) -> int:
    import asyncio

    from repro.engine.replicate import ReplicationError, elect_and_promote

    try:
        outcome = asyncio.run(
            elect_and_promote(args.candidates, timeout=args.timeout)
        )
    except ReplicationError as exc:
        print(f"efd promote: {exc}", file=sys.stderr)
        return 2
    promoted = outcome["promoted"]
    print(f"promoted {outcome['winner']} to leader at generation "
          f"{promoted.get('generation')} "
          f"({promoted.get('folded', 0)} pending record(s) folded)")
    for cand, status in outcome["statuses"].items():
        marker = "*" if cand == outcome["winner"] else " "
        print(f"{marker} {cand}: generation {status.get('generation')}, "
              f"{status.get('records')} pending record(s)")
    for cand, error in outcome["unreachable"].items():
        print(f"  {cand}: unreachable ({error})")
    for cand, reply in outcome["refollowed"].items():
        if reply.get("ok"):
            print(f"  {cand}: re-following {outcome['winner']}")
        else:
            print(f"  {cand}: re-follow failed: "
                  f"{reply.get('error', reply)}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import read_samples, replay_samples

    if args.producers < 1:
        raise SystemExit("efd replay: --producers must be >= 1")
    if args.input == "-":
        samples = list(read_samples(sys.stdin))
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            samples = list(read_samples(fh))
    host, port = (None, None)
    if args.connect is not None:
        host, port = _parse_hostport(args.connect)
    summaries = asyncio.run(replay_samples(
        samples,
        producers=args.producers,
        host=host or "127.0.0.1",
        port=port,
        uds=args.uds,
        batch_lines=args.batch_lines,
    ))
    accepted = sum(int(s.get("accepted", 0)) for s in summaries)
    errors = [s["error"] for s in summaries if "error" in s]
    if not args.quiet:
        for i, summary in enumerate(summaries):
            print(f"producer {i}: {summary}")
    print(f"replayed {len(samples)} sample(s) over {len(summaries)} "
          f"producer(s): accepted={accepted}, errors={len(errors)}")
    return 1 if errors else 0


def _family_load_dictionary(args: argparse.Namespace):
    from repro.core.serialization import load_dictionary
    from repro.engine import load_columnar

    try:
        if args.efd is not None:
            return load_dictionary(args.efd)
        return load_columnar(args.efd_dir)
    except _INPUT_ERRORS as exc:
        raise SystemExit(
            f"efd family {args.family_command}: {_error_text(exc)}"
        )


def _cmd_family_build(args: argparse.Namespace) -> int:
    from repro.family import FamilyCascade, FamilySpec, save_family_spec

    dictionary = _family_load_dictionary(args)
    apps = dictionary.app_names()
    if not apps:
        raise SystemExit("efd family build: the dictionary holds no labels")
    mapping = {app: FamilySpec().family_of_app(app) for app in apps}
    for entry in args.map or []:
        app, sep, family = entry.partition("=")
        if not sep or not app or not family:
            raise SystemExit(
                f"efd family build: --map expects APP=FAMILY, got {entry!r}"
            )
        mapping[app] = family
    spec = FamilySpec(mapping)
    try:
        cascade = FamilyCascade(
            dictionary, spec=spec, coarse_depth=args.coarse_depth,
            fine_depth=args.depth,
        )
    except ValueError as exc:
        raise SystemExit(f"efd family build: {exc}")
    sizes = cascade.coarse_stats()
    print(f"family hierarchy over {sizes['variants']} app(s):")
    for family, variants in spec.variants_by_family(apps).items():
        print(f"  {family:<16} <- {', '.join(variants)}")
    print(f"coarse tier : {sizes['coarse_keys']} key(s) at depth "
          f"{args.coarse_depth} ({sizes['families']} family label(s))")
    print(f"fine tier   : {sizes['fine_keys']} key(s) at depth {args.depth}")
    if args.out is not None:
        save_family_spec(args.out, spec, args.coarse_depth, args.depth)
        print(f"family spec -> {args.out}")
    return 0


def _cmd_family_report(args: argparse.Namespace) -> int:
    from repro.data.io import load_dataset
    from repro.family import FamilyCascade, load_family_spec

    dictionary = _family_load_dictionary(args)
    spec = None
    coarse_depth = args.coarse_depth
    if args.spec is not None:
        spec, coarse_depth, _ = load_family_spec(args.spec)
    try:
        cascade = FamilyCascade(
            dictionary, spec=spec, coarse_depth=coarse_depth,
            fine_depth=args.depth,
        )
    except ValueError as exc:
        raise SystemExit(f"efd family report: {exc}")
    try:
        records = list(load_dataset(args.data))
        verdicts = cascade.recognize_records(
            records,
            metric=args.metric,
            interval=(args.interval[0], args.interval[1]),
        )
    except _INPUT_ERRORS as exc:
        raise SystemExit(f"efd family report: {_error_text(exc)}")
    tally = {"match": 0, "near-family": 0, "unknown": 0}
    for record, verdict in zip(records, verdicts):
        tally[verdict.outcome] += 1
        if not args.quiet:
            print(f"{record.label:<24} {verdict.describe()}")
    total = len(records)
    print(f"cascaded {total} execution(s): "
          f"{tally['match']} match, "
          f"{tally['near-family']} near-family (same app, new version), "
          f"{tally['unknown']} unknown app")
    sizes = cascade.coarse_stats()
    print(f"tiers: {sizes['coarse_keys']} coarse key(s) at depth "
          f"{coarse_depth} over {sizes['families']} family(ies), "
          f"{sizes['fine_keys']} fine key(s) at depth {args.depth}")
    return 0


_FAMILY_COMMANDS = {
    "build": _cmd_family_build,
    "report": _cmd_family_report,
}


def _cmd_family(args: argparse.Namespace) -> int:
    return _FAMILY_COMMANDS[args.family_command](args)


_ENGINE_COMMANDS = {
    "selftest": _cmd_engine_selftest,
    "shard": _cmd_engine_shard,
    "compact": _cmd_engine_compact,
    "reshard": _cmd_engine_reshard,
    "recognize": _cmd_engine_recognize,
    "info": _cmd_engine_info,
}


def _cmd_engine(args: argparse.Namespace) -> int:
    return _ENGINE_COMMANDS[args.engine_command](args)


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "recognize": _cmd_recognize,
    "experiment": _cmd_experiment,
    "tables": _cmd_tables,
    "info": _cmd_info,
    "engine": _cmd_engine,
    "family": _cmd_family,
    "serve": _cmd_serve,
    "shardserve": _cmd_shardserve,
    "promote": _cmd_promote,
    "replay": _cmd_replay,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
