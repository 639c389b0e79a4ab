"""Half-space temperature-jump problem for a massless Bose gas.

Analytic solution of the Milne-type boundary-value problem for the model
transport equation with power-law collision frequency w^alpha: eigenfunction
expansion, Riemann-Hilbert factorisation, the jump coefficient V1(alpha), the
saddle-point approximation, and an independent discrete-ordinates solver for
cross-validation.
"""

from .errors import (AccuracyError, BoseMilneError, ConfigurationError,
                     ConsistencyError, ConvergenceError, DivergenceError,
                     DomainError, ExtractionError, RangeError, ResolutionError)
from .quadrature import PvIntegrand, QuadratureRule, gauss_rule, integrate, pv_integral
from .special import AlphaModel, einstein, moment_l0, xi_alpha
from .dispersion import (DispersionTable, build_theta_table, index_kappa,
                         lambda_boundary, lambda_case, lambda_general)
from .factorization import (FactorizationData, V1Estimate, build_factorization,
                            n_coefficient, v1_coefficient, v_cut, x_boundary)
from .saddle import saddle_root, saddle_root_approx, v1_saddle
from .field import (MilneSolution, boundary_residual, evaluate,
                    mode_equation_residual, solve_milne)
from .dom import DomGrid, DomResult, extract_k0, freq_rule
from .dom import solve as solve_transport

__version__ = "0.1.0"
