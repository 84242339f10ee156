"""Skewed-cache simulator, contention experiments and gate-cost model."""

from .attacks import (
    AttackScenario,
    DetectionReport,
    default_scenario,
    fill_domain_set,
    run_baseline_prime_probe,
    run_collusion_attack,
    run_galois_prime_probe,
    run_scenario,
    sweep_detection_vs_field,
    wilson_interval,
)
from .cache import (
    AccessOutcome,
    CacheConfig,
    ConventionalCache,
    GaloisCache,
    StackedGaloisCache,
    build_cache,
    compose_address,
    conventional_config,
    decompose_address,
    galois_config,
    stacked_config,
)
from .circuit import (
    CostReport,
    XorNetwork,
    emit_netlist,
    matrix_to_network,
    permutation_cost,
    unreduced_serial_depth,
    way_network,
)
from .field import (
    DEFAULT_MODULI,
    BinaryMatrix,
    FieldSpec,
    const_mul_matrix,
    default_modulus,
    from_poly_terms,
    is_irreducible,
    poly_str,
    poly_terms,
)
from .skew import (
    SkewParams,
    VerificationReport,
    domain_layout,
    permute,
    permute_all_ways,
    set_through_cell,
    solve_intersection_way,
    verify_diagonalization,
    verify_way_bijection,
)
from .trace import TraceError, TraceRecord, load_trace, parse_trace_lines, replay

__version__ = "0.1.0"
