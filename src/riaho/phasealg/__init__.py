"""Exact phase-space algebra: polynomials, brackets, catalog, bridge flows."""
from .exact import ExactComplex, rational_sqrt
from .poly import (CANONICAL, CIRCULAR, CANONICAL_VARS, CIRCULAR_VARS,
                   CartanForm, Params, PhasePoly, poisson_bracket,
                   reduce_to_cartan, total_time_derivative)
from .catalog import (GENERATOR_NAMES, angular_momentum, catalog, generator,
                      hamiltonian, hidden_integral, is_true_integral,
                      true_integral_coupling)
from .cbt import (classical_cbt, conformal_k0, dilation_id0, free_hamiltonian,
                  generator_flow, grading_rescale)
from .verify import (SP4_TABLE, verify_casimirs, verify_dynamical_integrals,
                     verify_sp4_table)

__all__ = [
    "ExactComplex", "rational_sqrt",
    "CANONICAL", "CIRCULAR", "CANONICAL_VARS", "CIRCULAR_VARS",
    "CartanForm", "Params", "PhasePoly", "poisson_bracket",
    "reduce_to_cartan", "total_time_derivative",
    "GENERATOR_NAMES", "angular_momentum", "catalog", "generator",
    "hamiltonian", "hidden_integral", "is_true_integral",
    "true_integral_coupling",
    "classical_cbt", "conformal_k0", "dilation_id0", "free_hamiltonian",
    "generator_flow", "grading_rescale",
    "SP4_TABLE", "verify_casimirs", "verify_dynamical_integrals", "verify_sp4_table",
]
