"""Shard a census table, publish every shard at full ε, serve as one.

Privelet's guarantee is per frequency matrix, so disjoint horizontal
partitions of a table each enjoy the *full* privacy budget — that is DP
parallel composition.  This walkthrough:

* partitions a census table along ``Age`` into four shards and
  publishes each one independently (thread pool, coefficient space);
* answers a mixed workload through the ordinary ``QueryEngine`` — the
  ``Partition`` routes every box to only the shards its Age range
  intersects, and exact variances sum across routed shards;
* writes the partition to one archive and reloads it shard-lazily: a
  narrow query reads one shard, the rest stay on disk.

Run:  PYTHONPATH=src python examples/sharded_census.py
"""

import tempfile
from pathlib import Path

from repro import (
    BRAZIL,
    QueryEngine,
    RangeCountQuery,
    generate_census_table,
    generate_workload,
    interval_predicate,
    load_result,
    publish,
    save_result,
)


def main() -> None:
    table = generate_census_table(BRAZIL.scaled(0.1), 40_000, seed=0)
    print(f"table: {table.num_rows} rows over {table.schema.shape}")

    result = publish(
        table,
        1.0,
        shard_by="Age",
        shards=4,
        seed=7,
        representation="coefficients",  # every shard stays in coefficient space
    )
    release = result.release
    print(
        f"published {release.num_shards} shards by {release.attribute!r} "
        f"at cut points {release.bounds} — each shard got the full "
        f"epsilon={result.epsilon} (parallel composition)"
    )

    # The engine serves a sharded release like any other backend.
    engine = QueryEngine(result)
    queries = generate_workload(table.schema, 5, seed=3)
    print("\nmixed workload (boxes may span several shards):")
    for query, answer in zip(queries, engine.answer_all_with_intervals(queries)):
        print(
            f"  {answer.estimate:>10.1f} +- {answer.noise_std:>8.2f}  {query!r}"
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "census_sharded.npz"
        save_result(path, result)
        loaded = load_result(path)
        print(
            f"\narchive reloaded: {loaded.release.shards_loaded}/"
            f"{loaded.release.num_shards} shards in memory"
        )
        lo, hi = release.bounds[0], release.bounds[1]
        narrow = QueryEngine(loaded).answer(
            RangeCountQuery(
                table.schema,
                (interval_predicate(table.schema["Age"], lo, hi - 1),),
            )
        )
        print(
            f"one narrow Age query ([{lo}, {hi}) -> {narrow:.1f}) loaded "
            f"{loaded.release.shards_loaded} shard(s); the other "
            f"{loaded.release.num_shards - loaded.release.shards_loaded} "
            "never left the archive"
        )


if __name__ == "__main__":
    main()
