"""Penalty-regulated, Tikhonov-regularized splitting dynamics for constrained
variational inequalities: operators, schedules, central paths, integrators,
an exact small-instance oracle and a TV deblurring application."""

from .central_path import (CentralPathPoint, central_path, least_norm_solution,
                           path_derivative_check, path_regularity_check,
                           solve_auxiliary)
from .deblur import DeblurInstance, build_tv_deblur, isnr_series
from .dynamics import (IntegratorSpec, Trajectory, ergodic_average,
                       integrate_fb, integrate_fbf, integrate_sfbp,
                       tracking_report)
from .errors import (ConfigError, ConvergenceFailure, DivergenceError,
                     FormatError, MetricUndefinedError, ParameterError,
                     PreconditionError, UnsupportedInstanceError)
from .imaging import (discrete_gradient, gaussian_blur, gaussian_kernel,
                      gradient_norm_estimate, isnr, make_test_image)
from .instances import CANONICAL_NAMES, build_canonical
from .operators import (MonotoneOperator, affine_op, box_normal_cone,
                        inverse_op, l1_subgradient, project_pair_ball,
                        verify_certificate, yosida_eval, zero_op)
from .oracle import (SolutionCertificate, active_set_solve,
                     high_precision_reference)
from .pgmio import read_pgm, write_pgm
from .problem import LipschitzOperator, PenaltyOperator, ProblemInstance
from .runner import ExitReport, emit_csv, run_experiment
from .schedules import (Schedule, ValidationReport, attouch_czarnecki_check,
                        constant_schedule, polynomial_schedule,
                        validate_schedule)

__version__ = "0.1.0"
