"""leglab: a laboratory for Legendre expansions of piecewise-analytic
functions and the one-dimensional p-version finite element method."""

from .precision import FLOAT64, PrecisionContext, PrecisionError, bigfloat, parse_precision
from .legendre import legendre_eval_range
from .functions import (AbsShiftFamily, ConstrainedFamily, PowerAbsFamily,
                        PowerShiftFamily, SingularFunctionSpec, SpecFamily,
                        StepDerivativeFamily, exact_solution, exact_solution_derivative)
from .coefficients import (Generator, LegendreSeries, abs_shift_coeffs,
                           constrained_pversion_coeffs, derivative_coeffs,
                           power_abs_coeffs, power_shift_coeffs, singular_term_coeffs,
                           spec_coeffs, step_derivative_coeffs)
from .series_eval import ErrorSweep, NormSweep, error_sweep, norm_sweep, partial_sum_values
from .ratefit import (ConstantGrowthFit, FitUnreliable, GibbsReport, RateFit,
                      bounded_oscillation_check, constant_growth, fit_lower_bound,
                      fit_rate, gibbs_probe, pinned_constant, weighted_sup_norm)
from .bounds import BoundReport, theorem1_bound_series
from .pfem import FemSolution, Mesh1D, assemble_and_solve, element_error_series
from .conjecture import ConjectureVerdict, conjecture_suite, powershift_suite
from .runner import ExperimentConfig, run_experiment, run_figures

__version__ = "0.1.0"
