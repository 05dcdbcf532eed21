"""Finite-state battery chains and their stationary distributions.

The battery level of a harvesting transmitter is a Markov chain over the
per-slot zone-membership events; two exact chains (2x2 and 3x3) cover
single- and double-slot charging, and two 3x3 surrogate chains bound the
behavior for slower charging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytics import ZoneProbabilities

__all__ = [
    "CHAIN_KINDS",
    "BatteryChain",
    "StationaryResult",
    "steady_state",
    "transition_matrix",
    "build_chain",
]

CHAIN_KINDS = ("single-slot", "double-slot", "multi-upper", "multi-lower")

_ROW_SUM_TOL = 1e-12
# Largest balance residual |pi P - pi| (and negative mass) a solve may leave
# before the chain is treated as reducible.
_RESIDUAL_TOL = 1e-8


class StationaryResult(NamedTuple):
    distribution: np.ndarray
    reducible: bool


@dataclass(frozen=True)
class BatteryChain:
    """A battery chain with its stationary solution.

    p_full is the stationary probability of a full battery at a slot start;
    p_transmit = p_full * p_g.  ``reducible`` flags degenerate inputs
    (e.g. no chargers at all) where the returned distribution is the
    absorbing one rather than a unique stationary solution.
    """

    kind: str
    transition: np.ndarray
    steady_state: np.ndarray
    p_full: float
    p_transmit: float
    reducible: bool = False


def steady_state(transition: np.ndarray) -> StationaryResult:
    """Solve pi P = pi, sum(pi) = 1 for a row-stochastic matrix.

    One balance equation is replaced by the normalization row, giving a
    small dense solve.  Singular or inconsistent systems (reducible chains,
    e.g. the identity matrix) fall back to an absorbing-state distribution
    and are flagged instead of raising, because parameter sweeps
    legitimately hit degenerate corners such as zero charger density.
    """
    P = np.asarray(transition, dtype=float)
    n = P.shape[0]
    if P.shape != (n, n):
        raise ValueError("transition matrix must be square")
    rows = P.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > _ROW_SUM_TOL) or P.min() < -_ROW_SUM_TOL:
        raise ValueError("matrix is not row-stochastic")

    A = (P - np.eye(n)).T
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        pi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        pi = None
    if pi is not None and (not np.all(np.isfinite(pi))
                           or np.max(np.abs(pi @ P - pi)) > _RESIDUAL_TOL
                           or pi.min() < -_RESIDUAL_TOL):
        pi = None
    if pi is None:
        # Absorbing fallback: all mass on the first absorbing state.
        pi = np.zeros(n)
        absorbing = np.isclose(np.diag(P), 1.0, atol=1e-12)
        pi[int(np.argmax(absorbing)) if absorbing.any() else 0] = 1.0
        return StationaryResult(pi, True)
    pi = np.clip(pi, 0.0, None)
    pi /= pi.sum()
    # Zero stationary mass on some state means that state is transient,
    # i.e. the chain is reducible (p_h = 0 or p_g = 0 corners).
    return StationaryResult(pi, bool(np.any(pi <= 1e-14)))


def transition_matrix(kind: str, zone_probs: ZoneProbabilities) -> np.ndarray:
    """Assemble the per-slot state-transition matrix for one chain kind.

    States are battery levels: empty, (for 3x3 chains) partially charged in
    [capacity/2, capacity), and full.  Raises if the assembled rows are not
    stochastic, which indicates inconsistent zone probabilities.
    """
    z = zone_probs
    if kind == "single-slot":
        P = np.array([[1.0 - z.p_h, z.p_h],
                      [z.p_g, 1.0 - z.p_g]])
    elif kind == "double-slot":
        P = np.array([[1.0 - z.p_h, z.p_2, z.p_1],
                      [0.0, 1.0 - z.p_h, z.p_h],
                      [z.p_g, 0.0, 1.0 - z.p_g]])
    elif kind == "multi-upper":
        P = np.array([[1.0 - z.p_h, z.p2_prime + z.p_3, z.p_1],
                      [0.0, 1.0 - z.p_h, z.p_h],
                      [z.p_g, 0.0, 1.0 - z.p_g]])
    elif kind == "multi-lower":
        q = z.p_1 + z.p2_prime
        P = np.array([[1.0 - q, z.p2_prime, z.p_1],
                      [0.0, 1.0 - q, q],
                      [z.p_g, 0.0, 1.0 - z.p_g]])
    else:
        raise ValueError(f"unknown chain kind {kind!r}; expected one of {CHAIN_KINDS}")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > _ROW_SUM_TOL) or P.min() < -_ROW_SUM_TOL or P.max() > 1.0 + _ROW_SUM_TOL:
        raise ValueError(
            f"assembled {kind} matrix is not row-stochastic; zone probabilities are inconsistent")
    return np.clip(P, 0.0, 1.0)


def build_chain(kind: str, zone_probs: ZoneProbabilities) -> BatteryChain:
    """Build the chain of the given kind and solve its stationary state."""
    P = transition_matrix(kind, zone_probs)
    pi, reducible = steady_state(P)
    p_full = float(pi[-1])
    return BatteryChain(kind=kind, transition=P, steady_state=pi,
                        p_full=p_full, p_transmit=p_full * zone_probs.p_g,
                        reducible=reducible)
