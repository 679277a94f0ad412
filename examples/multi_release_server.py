"""Serve dashboard traffic against two releases through one server.

A data publisher rarely has *one* release: different datasets, epochs,
and privacy budgets coexist, and consumers address them by name.  This
walkthrough publishes two census releases in coefficient space, writes
them to archives, and stands up a ``ReleaseServer`` over them:

* archives register lazily (header read now, payload on first touch);
* a dashboard render passes its widgets as one list, answered in one
  grouped engine pass on the caller's thread;
* repeated dashboard renders find engines and serving tensors built;
* the server reports requests, passes and p50/p99 latency.

Run:  PYTHONPATH=src python examples/multi_release_server.py
"""

import tempfile
import time
from pathlib import Path

from repro import (
    BRAZIL,
    US,
    PriveletPlusMechanism,
    QueryRequest,
    ReleaseServer,
    generate_census_table,
    save_result,
)


def publish_archives(directory: Path) -> list[Path]:
    paths = []
    for name, spec, seed in (("brazil-2026", BRAZIL, 0), ("us-2026", US, 1)):
        table = generate_census_table(spec.scaled(0.1), 20_000, seed=seed)
        result = PriveletPlusMechanism(sa_names="auto").publish(
            table, epsilon=1.0, seed=seed + 10, materialize=False
        )
        path = directory / f"{name}.npz"
        save_result(path, result)
        paths.append(path)
        print(f"published {name}: shape {result.release.schema.shape}, "
              f"{result.representation} archive at {path.name}")
    return paths


def dashboard(server: ReleaseServer, release: str, widgets: int) -> float:
    """One dashboard render: a fixed set of range widgets, one pass."""
    requests = [
        QueryRequest(release, {"Age": (lo, lo + 15)}) for lo in range(widgets)
    ] + [
        QueryRequest(release, {"Gender": (0, 1), "Age": (lo, lo + 30)})
        for lo in range(widgets)
    ]
    start = time.perf_counter()
    responses = server.query_many(requests)
    seconds = time.perf_counter() - start
    assert all(r.lower <= r.estimate <= r.upper for r in responses)
    return seconds


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        paths = publish_archives(Path(scratch))

        with ReleaseServer() as server:
            for path in paths:
                server.register_archive(path)
            print(f"\nregistered (lazily): {list(server.names)}")
            for name in server.names:
                print(f"  {name}: loaded={server.describe(name)['loaded']}")

            # First render is cold: archive payloads map, engines and
            # their serving tensors build.  Repeats are warm.
            for label, release in (("brazil", "brazil-2026"), ("us", "us-2026")):
                cold = dashboard(server, release, widgets=40)
                warm = min(dashboard(server, release, widgets=40) for _ in range(3))
                print(
                    f"{label}: cold render {cold * 1e3:.1f} ms, "
                    f"warm render {warm * 1e3:.1f} ms "
                    f"({cold / warm:.1f}x faster warm)"
                )

            stats = server.stats()
            print(
                f"\nserver stats: {stats.requests} requests in "
                f"{stats.batches} passes, p50 "
                f"{stats.p50_latency_seconds * 1e3:.2f} ms, p99 "
                f"{stats.p99_latency_seconds * 1e3:.2f} ms"
            )


if __name__ == "__main__":
    main()
