"""Analytics and slotted Monte Carlo simulation for RF-energy-harvesting
transmitters that opportunistically share spectrum under guard zones."""

from .params import (NetworkParams, ChargingGeometry, ParameterError, RegimeWarning,
                     validate, charging_geometry, params_from_dict, params_to_dict,
                     load_params)
from .analytics import (ZoneProbabilities, TransmissionProbability, OutageResult,
                        phi, p_guard, p_harvest, zone_probabilities,
                        pt_single_slot, pt_double_slot, pt_multi_bounds,
                        transmission_probability,
                        tau_primary, tau_secondary, tau_wit,
                        outage_primary, outage_secondary, outage_secondary_paper,
                        wit_outage,
                        spatial_throughput)
from .battery import (CHAIN_KINDS, BatteryChain, StationaryResult,
                      steady_state, transition_matrix, build_chain)
from .sim import (SimConfig, SimEstimate, ConditioningTooRareError, SlotSimulator,
                  estimate_p_t, interference_samples, estimate_outage, outage_curve)
from .optimize import (OptimizationResult, InfeasibleError, mu_primary, mu_secondary,
                       constraint_curves, solve_p1_closed_form, solve_p1_numeric,
                       solve_p2, solve)

__version__ = "0.1.0"
