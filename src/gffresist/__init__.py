"""Effective resistance of resistive multigraphs by three independent routes,
with a machine-checked verification harness for the concavity theorem."""

from .electric import (
    FlowVector,
    ResistiveNetwork,
    VoltageVector,
    dissipated_power,
    effective_resistance,
    kcl_residual,
    kvl_residual,
    laplacian,
    min_energy_flow_oracle,
    node_voltages,
    ohm_flow,
    thomson_flow,
)
from .gaussian import (
    DEGENERATE_ENTROPY,
    ConstraintSet,
    DegenerateEntropy,
    GaussianVector,
    condition_on_value,
    condition_on_zero,
    entropy_scalar,
    independent_gaussian,
    linear_functional_variance,
    sample,
    sum_independent,
)
from .gff import (
    FreeField,
    build_free_field,
    eta_field,
    path_independence_check,
    potential_difference_functional,
    potential_difference_variance,
)
from .graph import (
    Circuit,
    EdgeRecord,
    Multigraph,
    Walk,
    build_multigraph,
    circuit_matrix,
    enumerate_circuits,
    enumerate_simple_walks,
    fundamental_circuits,
    spanning_tree,
    tree_walk_vector,
    walk_between,
    walk_sign_vector,
)
from .verify import (
    AppendixInstance,
    Inequality,
    VerificationReport,
    appendix_check,
    check_concavity_segment,
    check_monotonicity,
    check_scaling,
    check_superadditivity,
    entropy_chain,
    melvin_chain,
    monte_carlo_variance_check,
    random_appendix_instance,
    run_suite,
)

__version__ = "0.1.0"
