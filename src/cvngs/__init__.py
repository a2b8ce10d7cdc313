"""cvngs: pulsed optomechanical entanglement and engineered photon subtraction.

Simulates the remote preparation of mechanical non-Gaussian states: a short
squeezed pulse entangles light with a mechanical mode, and an amplifier +
multi-photon subtraction + homodyne projection conditions the mechanics into
cat, Fock, or four-component-cat states, with loss, amplifier noise, dark
counts and detector inefficiency included.
"""

from .exceptions import (ContractError, CvngsError, DomainError,
                         NumericalDomainError, TruncationError, ZeroWeightError)
from .gaussian_core import (CONVENTION_TAG, CovMatrix, SigmaMatrix, SqueezeSpec,
                            amplifier_map, apply_symplectic, check_physical,
                            cov_from_sigma, epr_steering_MtoC,
                            initial_covariance, logarithmic_negativity,
                            loss_channel_cov, loss_channel_sigma,
                            sigma_from_cov)
from .metrics_targets import (CatFit, StateMetrics, TargetState, cat_fit,
                              fidelity, parity_indicator, score_state)
from .phase_space import (GridSpec, MultiPoly, PolyGaussian, apply_linear_map,
                          evaluate_grid, gaussian_wigner, marginal,
                          multiply_gaussian_window, normalize, overlap,
                          project_XC, qn_polynomial, wigner_negativity)
from .pulse_dynamics import (PulseSpec, SystemParams, correlation_sweep,
                             covariance_after_pulse)
from .state_synthesis import (EpsStage, MeasurementSpec, PipelineSpec,
                              WavefunctionXM, conversion_rate_gamma,
                              dark_count_mix, db_to_linear, eps_pipeline,
                              four_cat_conditions, four_cat_gains,
                              four_cat_pipeline, four_cat_wavefunction,
                              imperfect_wigner_closed_form, linear_to_db,
                              opa_gain, solve_gain, wavefunction_XM,
                              xi_from_gain)

__version__ = "0.1.0"
