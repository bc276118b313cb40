"""orbitforge: finite groups with a prescribed number of automorphism
orbits, built as explicit Cayley tables, plus the machinery to verify
their orbit structure."""

from .gf_arith import (FiniteField, element_of_order, field_create,
                       frob_table, is_prime, subfield_embed, trace_table)
from .linalg_mod import (identity_mat, mat_det, mat_inv, nullspace_basis,
                         sp_lambda2_submodules, sp_multiplier,
                         standard_symplectic, symplectic_transvection_gens,
                         vec_batch_apply, wedge_power_matrix)
from .group_engine import (CAYLEY_MAGIC, FiniteGroup, automorphism_group,
                           characteristic_core, export_cayley,
                           find_isomorphism, import_cayley)
from .orbit_machine import (AutomorphismSet, brute_force_aut,
                            central_automorphisms, holomorph_rank,
                            induced_pair, inner_automorphisms,
                            invariant_features, linear_split, omega_exact,
                            orbits, verify_automorphism)
from .constructions import (FamilyInstance, dornhoff_P, extraspecial2,
                            gl3_tower, heisenberg_trace, line1_abelian,
                            line2_frobenius, sl3_pair, suzuki_A, suzuki_B)
from .hering import (MatrixGroupGens, gammaL1_gens, group_order, sl_gens,
                     sl2_5_search, solvable_residual, sp_gens,
                     transitive_on_nonzero)
from .permgroup import PermGroup
from .verify_suite import (run_job, special2_map_search, verify_four_orbit,
                           verify_gfgf_iso, verify_hering, verify_irredundant,
                           verify_table_line)

__version__ = "0.1.0"

__all__ = [
    "FiniteField", "element_of_order", "field_create", "frob_table",
    "is_prime", "subfield_embed", "trace_table",
    "identity_mat", "mat_det", "mat_inv", "nullspace_basis",
    "sp_lambda2_submodules", "sp_multiplier",
    "standard_symplectic", "symplectic_transvection_gens", "vec_batch_apply",
    "wedge_power_matrix",
    "CAYLEY_MAGIC", "FiniteGroup", "automorphism_group",
    "characteristic_core", "export_cayley", "find_isomorphism",
    "import_cayley",
    "AutomorphismSet", "brute_force_aut", "central_automorphisms",
    "holomorph_rank", "induced_pair", "inner_automorphisms",
    "invariant_features", "linear_split", "omega_exact", "orbits",
    "verify_automorphism",
    "FamilyInstance", "dornhoff_P", "extraspecial2", "gl3_tower", "heisenberg_trace", "line1_abelian", "line2_frobenius",
    "sl3_pair", "suzuki_A", "suzuki_B",
    "MatrixGroupGens", "gammaL1_gens", "group_order", "sl_gens",
    "sl2_5_search", "solvable_residual", "sp_gens", "transitive_on_nonzero",
    "PermGroup",
    "run_job", "special2_map_search", "verify_four_orbit", "verify_gfgf_iso",
    "verify_hering", "verify_irredundant", "verify_table_line",
    "__version__",
]
