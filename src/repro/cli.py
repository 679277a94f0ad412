"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``account``
    Print the privacy/utility accounting (P/H factors, SA rule, λ and
    variance bounds across ε) for a census schema.
``figure``
    Regenerate one of the paper's figures at laptop scale and print the
    series (``fig6``/``fig7``/``fig8``/``fig9``/``fig10``/``fig11``).
``publish``
    Generate a synthetic census table, publish it with a chosen
    mechanism, and write the result archive (``.npz``) for later
    querying with :func:`repro.io.load_result`.  ``--shard-by ATTR``
    partitions the table along an ordinal attribute, publishes every
    shard independently at full ε (DP parallel composition) on a thread
    pool, and writes the partition as one archive — ``query`` and
    ``serve`` consume it unchanged.
``ingest``
    Stage synthetic census rows for a **stream** archive's open epoch
    (creating the archive, with its publishing configuration, on
    first use).  Staged rows live in a ``<archive>.staging.npz`` sidecar
    — they are the curator's raw private input and are only published
    when the epoch closes.
``advance-epoch``
    Close one or more epochs of a stream archive: the staged rows
    publish at the full ε (DP parallel composition over disjoint
    epochs), and the archive gains one leaf member per closed epoch — a
    running ``serve`` over the same file picks the new epochs up
    automatically.
``query``
    Answer random range-count queries on a published archive through the
    batch query engine, printing each estimate with its exact noise std
    and confidence interval.  ``--time-range LO HI`` restricts a stream
    archive to an epoch window (answered from two running-prefix
    slices, whatever its length).
``serve``
    Stand up a :class:`~repro.serving.server.ReleaseServer` over one or
    more archives and drive it through a JSONL loop on stdio: one JSON
    request per stdin line, one JSON response per stdout line (answers
    and errors both — a malformed request gets a structured error
    response, never a traceback).  Archives load lazily on first touch.
    ``op=query_batch`` lines carry a whole columnar batch (parallel
    lo/hi arrays per attribute) and get one array-valued response line.
    ``--tcp HOST:PORT`` serves the same protocol from a multi-process
    fleet instead.

``query`` and ``serve`` answer every archive exactly as it was
published: its stored representation and its recorded SA set.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import queue
import signal
import sys
import threading

import numpy as np

from repro.core.accountant import PrivacyAccount
from repro.core.basic import BasicMechanism
from repro.core.privelet import PriveletMechanism
from repro.core.privelet_plus import PriveletPlusMechanism, select_sa
from repro.core.sharding import _publish_sharded
from repro.data.census import BRAZIL, US, census_schema, generate_census_table
from repro.experiments.config import AccuracyConfig, TimingConfig
from repro.experiments.figures import (
    run_relative_error_vs_selectivity,
    run_square_error_vs_coverage,
    run_time_vs_m,
    run_time_vs_n,
)
from repro.data.table import Table
from repro.errors import ReproError, ServingError
from repro.experiments.reporting import format_accuracy_run, format_timing_run
from repro.io import load_result, open_result, save_result
from repro.queries.engine import QueryEngine
from repro.queries.workload import generate_workload
from repro.serving.network import NetworkServer
from repro.serving.requests import ErrorResponse, decode_line, encode_line
from repro.serving.server import ReleaseServer
from repro.streaming import StreamingPublisher

__all__ = ["main", "build_parser"]

_SPECS = {"brazil": BRAZIL, "us": US}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privelet (ICDE 2010) reproduction command-line interface",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    account = commands.add_parser("account", help="print privacy/utility accounting")
    account.add_argument("--dataset", choices=sorted(_SPECS), default="brazil")
    account.add_argument("--scale", type=float, default=1.0)
    account.add_argument("--epsilon", type=float, default=1.0)

    figure = commands.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "name", choices=["fig6", "fig7", "fig8", "fig9", "fig10", "fig11"]
    )
    figure.add_argument("--scale", type=float, default=0.1)
    figure.add_argument("--rows", type=int, default=50_000)
    figure.add_argument("--queries", type=int, default=5_000)
    figure.add_argument("--seed", type=int, default=20100301)
    figure.add_argument(
        "--representation",
        choices=["dense", "coefficients"],
        default="dense",
        help="release representation the accuracy runs publish/serve with",
    )

    publish = commands.add_parser("publish", help="publish a synthetic census table")
    publish.add_argument("output", help="output .npz path")
    publish.add_argument("--dataset", choices=sorted(_SPECS), default="brazil")
    publish.add_argument("--scale", type=float, default=0.1)
    publish.add_argument("--rows", type=int, default=100_000)
    publish.add_argument("--epsilon", type=float, default=1.0)
    publish.add_argument(
        "--mechanism", choices=["basic", "privelet", "privelet+"], default="privelet+"
    )
    publish.add_argument("--seed", type=int, default=0)
    publish.add_argument(
        "--representation",
        choices=["dense", "coefficients"],
        default="dense",
        help="dense writes M*; coefficients never inverts the transform "
        "and writes the noisy coefficients",
    )
    publish.add_argument(
        "--shard-by",
        default=None,
        metavar="ATTR",
        help="partition the table along this ordinal attribute and "
        "publish each shard independently at full epsilon (DP parallel "
        "composition); shards publish on a thread pool",
    )
    publish.add_argument(
        "--shards",
        type=int,
        default=4,
        help="number of balanced shards when --shard-by is given",
    )

    ingest = commands.add_parser(
        "ingest",
        help="stage synthetic rows for a stream archive's open epoch",
    )
    ingest.add_argument("archive", help="stream .npz path (created if missing)")
    ingest.add_argument("--dataset", choices=sorted(_SPECS), default="brazil")
    ingest.add_argument("--scale", type=float, default=0.1)
    ingest.add_argument("--rows", type=int, default=10_000)
    ingest.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="per-epoch privacy budget (default 1.0; fixed at archive "
        "creation — passing a different value later is an error)",
    )
    ingest.add_argument(
        "--mechanism",
        choices=["basic", "privelet", "privelet+"],
        default=None,
        help="publishing mechanism (default privelet+; fixed at archive "
        "creation — passing a different one later is an error)",
    )
    ingest.add_argument("--seed", type=int, default=0)
    ingest.add_argument(
        "--epoch-length",
        type=int,
        default=None,
        help="timestamp units per epoch (default 1; fixed at archive "
        "creation — passing a different value later is an error)",
    )

    advance = commands.add_parser(
        "advance-epoch",
        help="close epoch(s) of a stream archive, publishing staged rows",
    )
    advance.add_argument("archive", help="stream .npz written by `ingest`")
    advance.add_argument(
        "--epochs",
        type=int,
        default=1,
        help="how many epochs to close (beyond the first, noise-only empties)",
    )

    query = commands.add_parser(
        "query", help="answer queries on a published archive with intervals"
    )
    query.add_argument("archive", help="result .npz written by `publish`")
    query.add_argument("--queries", type=int, default=10)
    query.add_argument("--confidence", type=float, default=0.95)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--time-range",
        type=int,
        nargs=2,
        default=None,
        metavar=("LO", "HI"),
        help="epoch window [LO, HI) for stream archives (answered from "
        "two running-prefix slices, whatever its length)",
    )

    serve = commands.add_parser(
        "serve",
        help="serve many release archives through a JSONL request loop",
    )
    serve.add_argument(
        "archives",
        nargs="+",
        help=".npz archives to register; the release name is the file "
        "stem, or use NAME=PATH to override",
    )
    serve.add_argument(
        "--tcp",
        metavar="HOST:PORT",
        default=None,
        help="serve the same JSONL protocol over TCP through a "
        "multi-process shared-memory fleet (port 0 picks a free port; "
        "the resolved address is printed on stderr as "
        "'listening on HOST:PORT')",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes behind --tcp (each maps the published "
        "releases from shared memory, zero copy)",
    )
    return parser


def _cmd_account(args) -> int:
    schema = census_schema(_SPECS[args.dataset].scaled(args.scale))
    print(f"schema: {schema!r}  (m = {schema.num_cells:,})")
    print(f"{'attribute':<12}{'|A|':>8}{'P(A)':>8}{'H(A)':>8}{'in SA?':>8}")
    for attr in schema:
        print(
            f"{attr.name:<12}{attr.size:>8}{attr.sensitivity_factor():>8.1f}"
            f"{attr.variance_factor():>8.1f}"
            f"{'yes' if attr.favours_direct_release() else 'no':>8}"
        )
    sa = select_sa(schema)
    for label, sa_set in (
        ("Basic", tuple(schema.names)),
        ("Privelet", ()),
        (f"Privelet+ SA={set(sa) or '{}'}", sa),
    ):
        account = PrivacyAccount(schema, sa_set)
        print(
            f"{label:<28} lambda={account.lambda_for_epsilon(args.epsilon):>8.1f}  "
            f"variance bound={account.variance_bound(args.epsilon):>12.4g}"
        )
    return 0


def _cmd_figure(args) -> int:
    if args.name in {"fig10", "fig11"}:
        config = TimingConfig()
        run = run_time_vs_n(config) if args.name == "fig10" else run_time_vs_m(config)
        print(format_timing_run(run))
        return 0
    config = AccuracyConfig(
        scale=args.scale,
        num_rows=args.rows,
        num_queries=args.queries,
        seed=args.seed,
    )
    spec = BRAZIL if args.name in {"fig6", "fig8"} else US
    driver = (
        run_square_error_vs_coverage
        if args.name in {"fig6", "fig7"}
        else run_relative_error_vs_selectivity
    )
    print(format_accuracy_run(driver(spec, config, representation=args.representation)))
    return 0


def _cmd_publish(args) -> int:
    spec = _SPECS[args.dataset].scaled(args.scale)
    table = generate_census_table(spec, args.rows, seed=args.seed)
    mechanism = _mechanism_for(args.mechanism)
    if args.shard_by is not None:
        result = _publish_sharded(
            table,
            mechanism,
            args.epsilon,
            shard_by=args.shard_by,
            shards=args.shards,
            seed=args.seed + 1,
            materialize=args.representation == "dense",
        )
    else:
        result = mechanism.publish(
            table,
            args.epsilon,
            seed=args.seed + 1,
            materialize=args.representation == "dense",
        )
    save_result(args.output, result)
    sharding_note = (
        f", {result.release.num_shards} shards by {args.shard_by!r}"
        if args.shard_by is not None
        else ""
    )
    print(
        f"published {table.num_rows} rows with {mechanism.name} at "
        f"epsilon={args.epsilon}: lambda={result.noise_magnitude:.2f}, "
        f"variance bound={result.variance_bound:.4g}, "
        f"representation={result.representation}{sharding_note}"
    )
    print(f"wrote {args.output}")
    return 0


def _staging_path(archive: str) -> str:
    """The sidecar file holding rows staged for the open epoch."""
    return archive + ".staging.npz"


def _mechanism_for(name: str):
    return {
        "basic": BasicMechanism(),
        "privelet": PriveletMechanism(),
        "privelet+": PriveletPlusMechanism(sa_names="auto"),
    }[name]


def _check_ingest_flags_against_header(args, header: dict, schema) -> None:
    """Reject flags that conflict with an existing archive's recorded config.

    ε, the mechanism, and the epoch length are fixed when the archive is
    created; silently ignoring a different value later — especially a
    different ε — would let the curator believe they changed the privacy
    budget when they did not.  The dataset/scale must reproduce the
    recorded schema, or the staged rows could not publish at all.
    """
    if args.epsilon is not None and float(args.epsilon) != float(header["epsilon"]):
        raise ReproError(
            f"--epsilon {args.epsilon} conflicts with the archive's "
            f"epsilon={header['epsilon']} (fixed at creation)"
        )
    if (
        args.mechanism is not None
        and _mechanism_for(args.mechanism).name != header["mechanism_name"]
    ):
        raise ReproError(
            f"--mechanism {args.mechanism} conflicts with the archive's "
            f"mechanism {header['mechanism_name']!r} (fixed at creation)"
        )
    if args.epoch_length is not None and int(args.epoch_length) != int(
        header["epoch_length"]
    ):
        raise ReproError(
            f"--epoch-length {args.epoch_length} conflicts with the "
            f"archive's epoch length {header['epoch_length']} "
            "(fixed at creation)"
        )
    from repro.io import schema_from_dict

    archived = schema_from_dict(header["schema"])
    if archived.names != schema.names or archived.shape != schema.shape:
        raise ReproError(
            f"--dataset/--scale produce schema {schema!r} but the archive "
            f"records {archived!r}; rows staged under a different schema "
            "could not publish"
        )


def _cmd_ingest(args) -> int:
    if args.epoch_length is not None and args.epoch_length < 1:
        raise ReproError(
            f"--epoch-length must be at least 1, got {args.epoch_length}"
        )
    spec = _SPECS[args.dataset].scaled(args.scale)
    schema = census_schema(spec)
    if not os.path.exists(args.archive):
        StreamingPublisher(
            schema,
            _mechanism_for(args.mechanism or "privelet+"),
            1.0 if args.epsilon is None else args.epsilon,
            epoch_length=1 if args.epoch_length is None else args.epoch_length,
            seed=args.seed,
            archive_path=args.archive,
        )
        print(f"created stream archive {args.archive}")
    else:
        # Fail fast on non-stream archives and on flags conflicting with
        # the configuration fixed at creation.
        header = open_result(args.archive).header
        if header["representation"] != "stream":
            raise ReproError(f"{args.archive} is not a stream archive")
        _check_ingest_flags_against_header(args, header, schema)
    table = generate_census_table(spec, args.rows, seed=args.seed + 1)
    staging = _staging_path(args.archive)
    rows = table.rows
    if os.path.exists(staging):
        with np.load(staging) as staged:
            rows = np.concatenate([staged["rows"], rows], axis=0)
    # Write-temp-then-replace: the sidecar is the only copy of the
    # staged (unpublished) rows, so a crash mid-write must leave the
    # previous staging intact rather than a truncated file.  The
    # scratch name keeps the .npz suffix (savez would append one).
    scratch = args.archive + ".staging.tmp.npz"
    np.savez_compressed(scratch, rows=rows)
    os.replace(scratch, staging)
    print(
        f"staged {table.num_rows} rows ({rows.shape[0]} pending) for the "
        f"open epoch of {args.archive}"
    )
    return 0


def _cmd_advance_epoch(args) -> int:
    # Validate everything before touching the staging sidecar: it is
    # the curator's only copy of the pending rows, so it must survive
    # any failure that happens before those rows are published.
    if args.epochs < 1:
        raise ReproError(f"--epochs must be at least 1, got {args.epochs}")
    publisher = StreamingPublisher.open(args.archive)
    staging = _staging_path(args.archive)
    staged = os.path.exists(staging)
    if staged:
        with np.load(staging) as stash:
            rows = stash["rows"]
        publisher.ingest(Table(publisher.schema, rows))
    for index in range(args.epochs):
        epoch = publisher.current_epoch
        pending = publisher.pending_rows
        leaf = publisher.advance_epoch()
        if index == 0 and staged:
            # The staged rows are now published (and appended to the
            # archive); only then is dropping the sidecar safe.
            os.remove(staging)
        print(
            f"closed epoch {epoch}: published {pending} rows at "
            f"epsilon={leaf.epsilon} (lambda={leaf.noise_magnitude:.2f}, "
            f"{leaf.representation})"
        )
    print(f"stream now has {publisher.closed_epochs} epochs; wrote {args.archive}")
    return 0


def _cmd_query(args) -> int:
    result = load_result(args.archive)
    if args.time_range is not None:
        window = getattr(result.release, "window", None)
        if window is None:
            raise ReproError(
                f"{args.archive} is not a stream archive; --time-range "
                "needs one (see the `ingest` command)"
            )
        lo, hi = args.time_range
        result = dataclasses.replace(result, release=window(lo, hi))
    engine = QueryEngine(result)
    queries = generate_workload(
        result.release.schema, args.queries, seed=args.seed
    )
    batch = engine.answer_all_with_intervals(queries, confidence=args.confidence)
    print(
        f"{len(queries)} random range-count queries on {args.archive} "
        f"(epsilon={result.epsilon}, {100 * args.confidence:.0f}% intervals, "
        f"{result.representation} backend)"
    )
    print(f"{'estimate':>12}{'noise std':>12}{'lower':>12}{'upper':>12}  query")
    for query, answer in zip(queries, batch):
        print(
            f"{answer.estimate:>12.1f}{answer.noise_std:>12.2f}"
            f"{answer.lower:>12.1f}{answer.upper:>12.1f}  {query!r}"
        )
    print(f"mean noise std: {float(batch.noise_stds.mean()):.2f}")
    return 0


def _emit(stream, payload: dict) -> None:
    """Write one JSONL response line and flush (client may be pipelined)."""
    stream.write(encode_line(payload).decode())
    stream.flush()


def _op_reply(server: ReleaseServer, payload) -> dict:
    """The in-place answer to a malformed, ``stats``, ``list`` or unknown-op line."""
    if isinstance(payload, ServingError):
        return ErrorResponse.from_exception(payload).to_dict()
    request_id = payload.get("id")
    op = payload.get("op")
    if op == "stats":
        return {"ok": True, "id": request_id, "stats": dataclasses.asdict(server.stats())}
    if op == "list":
        return {
            "ok": True,
            "id": request_id,
            "releases": [server.describe(name) for name in server.names],
        }
    return ErrorResponse("bad-request", f"unknown op {op!r}", request_id).to_dict()


def _answer_run(server: ReleaseServer, run: list, stream) -> int:
    """Answer a run of query payloads in one pass, emit, and empty it."""
    for response in server.answer_payloads(run):
        _emit(stream, response)
    count = len(run)
    run.clear()
    return count


def _serve_loop(server: ReleaseServer, lines, stream) -> int:
    """Drive the JSONL request/response loop until stdin closes.

    Every line produces exactly one response line, in request order.
    Input is consumed through a background reader thread, so the loop
    never blocks in ``readline`` while it holds answers: it waits for
    one line, takes every line already queued behind it, answers each
    run of consecutive query lines in one grouped pass, and answers
    ``stats``, ``list``, malformed and unknown-op lines in place, after
    the queries before them.  A strict request/response client (which
    sends nothing until it reads its answer) therefore always gets one.

    Returns the number of query lines answered.
    """
    feed: queue.SimpleQueue = queue.SimpleQueue()
    done = object()

    def read() -> None:
        for fed_line in lines:
            feed.put(fed_line)
        feed.put(done)

    threading.Thread(target=read, daemon=True, name="repro-serve-stdin").start()
    served = 0
    while True:
        queued = [feed.get()]
        while queued[-1] is not done:
            try:
                queued.append(feed.get_nowait())
            except queue.Empty:
                break
        run: list = []
        for line in queued:
            if line is done or not line.strip():
                continue
            try:
                payload = decode_line(line)
            except ServingError as exc:
                payload = exc
            else:
                op = payload.get("op", "query") if isinstance(payload, dict) else "query"
                if op in ("query", "query_batch"):
                    run.append(payload)
                    continue
            served += _answer_run(server, run, stream)
            _emit(stream, _op_reply(server, payload))
        served += _answer_run(server, run, stream)
        if queued[-1] is done:
            return served


def _parse_archive_spec(spec: str) -> tuple[str | None, str]:
    """Split a ``serve`` archive argument into ``(name, path)``.

    ``NAME=PATH`` overrides the default stem-derived name, but a spec
    that exists on disk as given, or whose prefix contains a path
    separator, is always a bare path — so archives whose *filenames*
    contain ``=`` (``eps=1.0.npz``) stay servable.
    """
    name, sep, path = spec.partition("=")
    if sep and name and os.sep not in name and not os.path.exists(spec):
        return name, path
    return None, spec


def _parse_tcp_spec(spec: str) -> tuple[str, int]:
    """Split ``--tcp HOST:PORT`` (empty host means loopback)."""
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "", spec
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ReproError(
            f"--tcp expects HOST:PORT with an integer port, got {spec!r}"
        ) from None


def _serve_tcp(args) -> int:
    """Run the multi-process TCP fleet until SIGTERM/SIGINT, then drain."""
    host, port = _parse_tcp_spec(args.tcp)
    server = NetworkServer(host=host, port=port, workers=args.workers)
    for spec in args.archives:
        name, path = _parse_archive_spec(spec)
        server.register_archive(path, name=name)
    stop = threading.Event()

    def _on_signal(signum, frame) -> None:
        stop.set()

    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        bound_host, bound_port = server.start()
        # Parseable readiness line: supervisors (and the tests) wait for it.
        print(
            f"listening on {bound_host}:{bound_port} with {args.workers} "
            f"worker(s); releases {list(server.names)}",
            file=sys.stderr,
            flush=True,
        )
        stop.wait()
        try:
            stats = server.stats()
        except Exception:  # noqa: BLE001 - summary is best effort
            stats = None
        # SIGTERM contract: stop accepting, flush every response already
        # owed to connected clients, then stop the workers.
        server.close(drain=True)
    finally:
        server.close(drain=False)
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    if stats is not None:
        print(
            f"served {stats['requests']} request(s) across "
            f"{stats['workers']} worker(s); p99 latency "
            f"{stats['p99_latency_seconds'] * 1e3:.2f} ms, "
            f"{stats['frontend']['worker_respawns']} respawn(s)",
            file=sys.stderr,
        )
    return 0


def _cmd_serve(args) -> int:
    if args.tcp is not None:
        return _serve_tcp(args)
    with ReleaseServer() as server:
        for spec in args.archives:
            name, path = _parse_archive_spec(spec)
            server.register_archive(path, name=name)
        print(
            f"serving {len(server.names)} release(s) {list(server.names)} "
            "over stdin JSONL (one request per line; op=stats / op=list "
            "for introspection)",
            file=sys.stderr,
        )
        served = _serve_loop(server, sys.stdin, sys.stdout)
        stats = server.stats()
    print(
        f"served {served} request(s) in {stats.batches} pass(es); "
        f"p99 latency "
        f"{stats.p99_latency_seconds * 1e3:.2f} ms",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "account": _cmd_account,
        "figure": _cmd_figure,
        "publish": _cmd_publish,
        "ingest": _cmd_ingest,
        "advance-epoch": _cmd_advance_epoch,
        "query": _cmd_query,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
