"""Horizontally filtered simplified Bardina model on a periodic strip.

Stream-function solver (per-mode IMEX with a banded implicit biharmonic),
the anisotropic Helmholtz filter, polynomial Sobolev weights with numerical
derivative certification, and diagnostics mirroring the model's energy,
weighted-energy and compactness estimates.
"""

from .strip_grid import (StripDomain, Grid, Field, ModalField, make_grid,
                         to_modal, to_physical, inner_product, l2_norm)
from .operators import OperatorSet
from .horizontal_filter import FilterSpec, apply_Ah, invert_Ah
from .weights import (WeightSpec, WeightField, g_profile, phi_limit, varphi,
                      make_weight_field, weighted_sobolev_norms,
                      certify_lemma_wfuncs, certify_phi_control)
from .solver import (SolverConfig, SolverState, ForcingSpec,
                     InitialConditionSpec, BlowUpError, ImexStepper,
                     run, nse_run)
from .diagnostics import (DiagnosticsRecord, DiagnosticsSeries, energy_budget,
                          weighted_energy_budget, translation_modulus,
                          galerkin_refinement_study, poincare_check,
                          lambda1_estimate)

__version__ = "0.1.0"
