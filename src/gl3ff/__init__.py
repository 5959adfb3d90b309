"""Determinant form factors for three-colour integrable spin chains with a
brute-force validation oracle."""

from .errors import (CollisionError, ConfigError, DegeneracyWarning,
                     DegenerateEigenvalue, Gl3Error, JacobianSingular,
                     NoConvergence, NonFiniteResult, PathCollision, PoleError,
                     SectorMismatch, ZeroArgError, ZeroDenominator)
from .model import (BetheState, ModelFunctions, RootConfig, Twist,
                    bethe_defect, dtau_dkappa, gaudin_matrix, mirror_model,
                    phi_log, tau, tau_twisted, xxx_chain)
from .solver import (SolveRequest, continue_in_twist, distinct_states,
                     solve_bethe, states_equal)
from .formfactor import (FFAssembly, KINDS, appendix_identities, assemble,
                         det_lu, ff_diag, form_factor, norm_squared,
                         omega_vector, prefactor_H, s_function,
                         s_function_reference, sector_shift)
from .oracle import (SpinChainSpec, apply_monodromy, eigen_residual,
                     eigenvector_for_state, invariant_ratio, r_matrix,
                     transfer_matrix)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
