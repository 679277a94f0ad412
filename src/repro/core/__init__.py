"""Core mechanisms: Basic, Privelet, Privelet+, and their accounting."""

from repro.core.accountant import PrivacyAccount
from repro.core.basic import FREQUENCY_MATRIX_SENSITIVITY, BasicMechanism
from repro.core.framework import PublishingMechanism, PublishResult
from repro.core.laplace import (
    epsilon_for_magnitude,
    laplace_log_density,
    laplace_noise,
    laplace_variance,
    magnitude_for_epsilon,
)
from repro.core.privelet import (
    PriveletMechanism,
    publish_nominal_vector,
    publish_ordinal_vector,
)
from repro.core.release import (
    REPRESENTATIONS,
    CoefficientRelease,
    DenseRelease,
    Release,
    convert_result,
    infer_sa_names,
)
from repro.core.postprocess import (
    clamp_nonnegative,
    rescale_total,
    round_to_integers,
    sanitize,
)
from repro.core.compose import (
    ComposedPart,
    ComposedRelease,
    Partition,
    TimeTree,
)
from repro.core.privelet_plus import PriveletPlusMechanism, select_sa
from repro.core.publish import publish
from repro.core.sharding import (
    partition_table,
    shard_bounds,
    shard_schema,
    shard_seeds,
)
from repro.core.sensitivity import (
    empirical_generalized_sensitivity,
    sensitivity_of_schema,
    variance_factor_of_schema,
)

__all__ = [
    "PublishingMechanism",
    "PublishResult",
    "BasicMechanism",
    "FREQUENCY_MATRIX_SENSITIVITY",
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
    "REPRESENTATIONS",
    "convert_result",
    "infer_sa_names",
    "partition_table",
    "shard_bounds",
    "shard_schema",
    "shard_seeds",
    "PrivacyAccount",
    "laplace_noise",
    "laplace_variance",
    "laplace_log_density",
    "magnitude_for_epsilon",
    "epsilon_for_magnitude",
    "empirical_generalized_sensitivity",
    "sensitivity_of_schema",
    "variance_factor_of_schema",
    "clamp_nonnegative",
    "round_to_integers",
    "rescale_total",
    "sanitize",
]
