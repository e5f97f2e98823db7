"""Horizontally filtered simplified Bardina model on a periodic strip.

Stream-function solver (per-mode IMEX with a banded implicit biharmonic),
the operators (derivatives, the anisotropic Helmholtz filter and the
advective form) on ``x1`` Fourier coefficients, polynomial Sobolev weights
with numerical derivative certification, and diagnostics mirroring the
model's energy, weighted-energy and compactness estimates.
"""

from .strip_grid import (StripDomain, Grid, Field, make_grid, inner_product,
                         l2_norm)
from .operators import OperatorSet
from .weights import (WeightSpec, WeightField, g_profile, phi_limit, varphi,
                      make_weight_field, certify_lemma_wfuncs,
                      certify_phi_control)
from .solver import (SolverConfig, SolverState, FieldSpec, BlowUpError,
                     ImexStepper, run)
from .diagnostics import (DiagnosticsRecord, DiagnosticsSeries, energy_budget,
                          weighted_energy_budget, StreamingTranslationModulus,
                          poincare_check, lambda1_estimate)
from .verification import galerkin_refinement_study

__version__ = "0.1.0"
