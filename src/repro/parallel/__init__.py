"""The parallel framework: discriminating functions, rewrites, execution."""

from .constraints import HashConstraint
from .discriminating import (
    ConstantDiscriminator,
    Discriminator,
    DiscriminatorFamily,
    HashDiscriminator,
    LinearDiscriminator,
    LocalRetentionFamily,
    ModuloDiscriminator,
    PartitionDiscriminator,
    TupleDiscriminator,
    UniformFamily,
    binary_g,
    stable_hash,
)
from .faults import (
    ChannelFault,
    FaultPlan,
    KillFault,
    build_fault_plan,
    parse_fault_spec,
)
from .metrics import CostModel, ParallelMetrics
from .plans import FragmentSpec, ParallelProgram, ProcessorProgram
from .processor import ProcessorRuntime
from .rewrite_general import RuleSpec, auto_specs, rewrite_general
from .routing import (
    BROADCAST,
    Route,
    RouterTable,
    route_positions,
)
from .schemes import (
    example1_scheme,
    example2_scheme,
    example3_scheme,
    hash_scheme,
    position_scheme,
    rewrite_linear_family,
    rewrite_linear_sirup,
    tradeoff_scheme,
    wolfson_scheme,
)
from .simulator import ParallelResult, SimulatedCluster, run_parallel

__all__ = [
    "BROADCAST",
    "ConstantDiscriminator",
    "CostModel",
    "ChannelFault",
    "Discriminator",
    "DiscriminatorFamily",
    "FaultPlan",
    "FragmentSpec",
    "HashConstraint",
    "HashDiscriminator",
    "KillFault",
    "LinearDiscriminator",
    "LocalRetentionFamily",
    "ModuloDiscriminator",
    "ParallelMetrics",
    "ParallelProgram",
    "ParallelResult",
    "PartitionDiscriminator",
    "ProcessorProgram",
    "ProcessorRuntime",
    "Route",
    "RouterTable",
    "RuleSpec",
    "SimulatedCluster",
    "TupleDiscriminator",
    "UniformFamily",
    "auto_specs",
    "binary_g",
    "build_fault_plan",
    "example1_scheme",
    "example2_scheme",
    "example3_scheme",
    "hash_scheme",
    "parse_fault_spec",
    "position_scheme",
    "rewrite_general",
    "rewrite_linear_family",
    "rewrite_linear_sirup",
    "route_positions",
    "run_parallel",
    "stable_hash",
    "tradeoff_scheme",
    "wolfson_scheme",
]
