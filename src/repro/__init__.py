"""repro — a full reproduction of *Differential Privacy via Wavelet Transforms*.

Privelet (Xiao, Wang & Gehrke, ICDE 2010) publishes a relational table
under ε-differential privacy by Laplace-perturbing *wavelet coefficients*
of the table's frequency matrix instead of the matrix itself, bringing
range-count query noise down from Θ(m) to polylog(m) variance.

Quick start::

    from repro import (
        BRAZIL, generate_census_table, PriveletPlusMechanism,
        generate_workload, Workload, RangeSumOracle,
    )

    table = generate_census_table(BRAZIL.scaled(0.1), 50_000, seed=0)
    result = PriveletPlusMechanism(sa_names=("Age", "Gender")).publish(
        table, epsilon=1.0, seed=1
    )
    queries = generate_workload(table.schema, 100, seed=2)
    noisy = RangeSumOracle(result.matrix).answer_all(queries)

See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
figure-by-figure reproduction record.
"""

from repro.analysis import (
    CompiledWorkload,
    basic_bound,
    crossover_coverage,
    haar_bound,
    nominal_bound,
    nominal_vs_haar,
    optimize_sa,
    privelet_plus_bound,
    privelet_vs_basic_small_domain,
    query_noise_variance,
    workload_average_variance,
)
from repro.baselines import BarakMechanism, HayHierarchicalMechanism
from repro.core import (
    BasicMechanism,
    CoefficientRelease,
    ComposedPart,
    ComposedRelease,
    DenseRelease,
    Partition,
    TimeTree,
    PrivacyAccount,
    PriveletMechanism,
    PriveletPlusMechanism,
    PublishingMechanism,
    PublishResult,
    Release,
    clamp_nonnegative,
    convert_result,
    partition_table,
    publish,
    publish_nominal_vector,
    publish_ordinal_vector,
    rescale_total,
    round_to_integers,
    sanitize,
    select_sa,
    shard_bounds,
    shard_seeds,
)
from repro.io import (
    ResultHandle,
    load_result,
    open_result,
    result_from_parts,
    result_to_parts,
    save_result,
)
from repro.data import (
    BRAZIL,
    US,
    CensusSpec,
    FrequencyMatrix,
    Hierarchy,
    Node,
    NominalAttribute,
    OrdinalAttribute,
    Schema,
    Table,
    balanced_hierarchy,
    census_schema,
    flat_hierarchy,
    generate_census_table,
    generate_uniform_table,
    hierarchy_from_spec,
    load_table_csv,
    save_table_csv,
    two_level_hierarchy,
)
from repro.errors import (
    HierarchyError,
    PrivacyError,
    QueryError,
    ReproError,
    SchemaError,
    ServingError,
    StreamingError,
    TransformError,
)
from repro.planner import QueryPlanner
from repro.queries import (
    BatchQueryAnswers,
    QueryAnswer,
    QueryEngine,
    RangeCountQuery,
    RangeSumOracle,
    Workload,
    generate_workload,
    hierarchy_predicate,
    interval_predicate,
    relative_error,
    sanity_bound,
    square_error,
)
from repro.serving import (
    BatchQueryResponse,
    ErrorResponse,
    LatencyRecorder,
    NetworkServer,
    PlanCache,
    QueryBatchRequest,
    QueryRequest,
    QueryResponse,
    ReleaseRegistry,
    ReleaseServer,
    ServerStats,
    ShmAttachment,
    ShmPublication,
    attach_result_from_shm,
    merge_worker_stats,
    publish_result_to_shm,
    sweep_stale_segments,
)
from repro.streaming import StreamingPublisher, dyadic_cover
from repro.transforms import HaarTransform, HNTransform, NominalTransform

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "SchemaError",
    "HierarchyError",
    "TransformError",
    "QueryError",
    "PrivacyError",
    "ServingError",
    "StreamingError",
    # data
    "OrdinalAttribute",
    "NominalAttribute",
    "Hierarchy",
    "Node",
    "flat_hierarchy",
    "two_level_hierarchy",
    "balanced_hierarchy",
    "hierarchy_from_spec",
    "load_table_csv",
    "save_table_csv",
    "Schema",
    "Table",
    "FrequencyMatrix",
    "CensusSpec",
    "BRAZIL",
    "US",
    "census_schema",
    "generate_census_table",
    "generate_uniform_table",
    # transforms
    "HaarTransform",
    "NominalTransform",
    "HNTransform",
    # mechanisms
    "PublishingMechanism",
    "PublishResult",
    "BasicMechanism",
    "PriveletMechanism",
    "PriveletPlusMechanism",
    "select_sa",
    "publish",
    "publish_ordinal_vector",
    "publish_nominal_vector",
    "Release",
    "DenseRelease",
    "CoefficientRelease",
    "ComposedPart",
    "ComposedRelease",
    "Partition",
    "TimeTree",
    "convert_result",
    "partition_table",
    "shard_bounds",
    "shard_seeds",
    "PrivacyAccount",
    "HayHierarchicalMechanism",
    "BarakMechanism",
    "clamp_nonnegative",
    "round_to_integers",
    "rescale_total",
    "sanitize",
    "save_result",
    "load_result",
    "open_result",
    "ResultHandle",
    "result_to_parts",
    "result_from_parts",
    # queries
    "RangeCountQuery",
    "interval_predicate",
    "hierarchy_predicate",
    "RangeSumOracle",
    "QueryEngine",
    "QueryAnswer",
    "BatchQueryAnswers",
    "QueryPlanner",
    "Workload",
    "generate_workload",
    "square_error",
    "relative_error",
    "sanity_bound",
    # analysis
    "basic_bound",
    "haar_bound",
    "nominal_bound",
    "privelet_plus_bound",
    "crossover_coverage",
    "nominal_vs_haar",
    "privelet_vs_basic_small_domain",
    "query_noise_variance",
    "workload_average_variance",
    "CompiledWorkload",
    "optimize_sa",
    # streaming
    "StreamingPublisher",
    "dyadic_cover",
    # serving
    "ReleaseServer",
    "ReleaseRegistry",
    "ServerStats",
    "QueryRequest",
    "QueryResponse",
    "QueryBatchRequest",
    "BatchQueryResponse",
    "PlanCache",
    "ErrorResponse",
    "NetworkServer",
    "LatencyRecorder",
    "merge_worker_stats",
    "ShmPublication",
    "ShmAttachment",
    "publish_result_to_shm",
    "attach_result_from_shm",
    "sweep_stale_segments",
]
