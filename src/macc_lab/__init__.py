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
    can_decode,
    encode,
    field_for,
    mds_generator,
    rank,
    verify_scheme,
)
from .macc import (
    DemandProfile,
    MaccInstance,
    PlacementMap,
    accessible_subfiles,
    as_demand_profile,
    circ_interval,
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

__all__ = [
    "__version__",
    # errors
    "MaccLabError",
    "ParameterError",
    "VerificationError",
    "SizeCapError",
    # problem setting and placement
    "mod1",
    "circ_interval",
    "interval_contains",
    "MaccInstance",
    "DemandProfile",
    "as_demand_profile",
    "PlacementMap",
    "place",
    "accessible_subfiles",
    "needed_subfiles",
    # index coding
    "StructuredIcpDesc",
    "UnionIcpDesc",
    "IcpUser",
    "IcpInstance",
    "node_data",
    "realize_single",
    "realize_union_split",
    "IcpTable",
    "reduce_macc",
    "as_icp",
    "pair_columns",
    "icp_to_json",
    # colorings
    "Coloring",
    "interferers",
    "is_proper",
    "local_count",
    "divisor_coloring",
    "fractional_split",
    "fractional_coloring",
    "greedy_coloring",
    "closed_color_sets",
    # finite-field schemes
    "FieldSpec",
    "field_for",
    "mds_generator",
    "rank",
    "TransmissionScheme",
    "encode",
    "can_decode",
    "verify_scheme",
    # oracles
    "exhaustive_chi_l",
    "mais",
    "min_rank_gf2",
    "node_cap_check",
    # rate calculators
    "RateReport",
    "UnionBounds",
    "single_icp_bound",
    "union_bounds",
    "smallest_valid_divisor",
    "corner_points",
    "rate_prior_restricted",
    "rate_prior_general",
    "rate_divisor",
    "rate_linear",
    "rate_quadratic",
    "compare",
    "memory_share",
    # delivery
    "PairPlan",
    "DeliveryPlan",
    "PlanCheck",
    "assemble",
    "pair_instance",
    "verify_plan",
    "plan_to_json",
]
