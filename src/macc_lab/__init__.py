"""Multi-access coded caching with linear subpacketization.

K caches sit on a cycle and each of K users reads L consecutive caches.
Placement splits every file into K subfiles; delivery reduces the leftover
demands to structured index-coding instances, colors them, and precodes the
color classes with an MDS generator over a binary extension field.  Closed
form rate calculators, the constructive pipeline, and brute-force oracles
cross-check each other throughout.

Layers, bottom up:

- :mod:`~macc_lab.macc`: parameters, cyclic index arithmetic, placement.
- :mod:`~macc_lab.icp`: index-coding descriptors, realizations, the
  demand-table reduction, and column pairing.
- :mod:`~macc_lab.coloring`: proper colorings and their local color counts.
- :mod:`~macc_lab.linalg_ff`: GF(2^w) tables, MDS precoding, decode checks.
- :mod:`~macc_lab.oracle`: exhaustive ground truth on tiny instances.
- :mod:`~macc_lab.rates`: exact rate and subpacketization calculators.
- :mod:`~macc_lab.delivery`: end-to-end plan assembly and verification.
- :mod:`~macc_lab.cli`: ``macc-lab`` command-line entry point.
"""

from types import ModuleType as _ModuleType

from .coloring import (
    Coloring,
    closed_color_sets,
    divisor_coloring,
    fractional_coloring,
    fractional_split,
    greedy_coloring,
    interferers,
    is_proper,
    local_count,
)
from .delivery import (
    DeliveryPlan,
    PairPlan,
    PlanCheck,
    assemble,
    pair_instance,
    plan_to_json,
    verify_plan,
)
from .errors import MaccLabError, ParameterError, SizeCapError, VerificationError
from .icp import (
    IcpInstance,
    IcpTable,
    IcpUser,
    StructuredIcpDesc,
    UnionIcpDesc,
    as_icp,
    icp_to_json,
    node_data,
    pair_columns,
    realize_single,
    realize_union_split,
    reduce_macc,
)
from .linalg_ff import (
    FieldSpec,
    TransmissionScheme,
    encode,
    field_for,
    mds_generator,
    rank,
    verify_scheme,
)
from .macc import (
    MaccInstance,
    PlacementMap,
    accessible_subfiles,
    circ_interval,
    demand_vector,
    interval_contains,
    mod1,
    needed_subfiles,
    place,
)
from .oracle import exhaustive_chi_l, mais, min_rank_gf2, node_cap_check
from .rates import (
    RateReport,
    UnionBounds,
    compare,
    corner_points,
    memory_share,
    rate_divisor,
    rate_linear,
    rate_prior_general,
    rate_prior_restricted,
    rate_quadratic,
    single_icp_bound,
    smallest_valid_divisor,
    union_bounds,
)

__version__ = "0.1.0"

# the imports above declare the public surface; the submodules are not part of it
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
