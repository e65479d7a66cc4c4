"""Weighted energy of the sensitivity rate and the two endpoint bounds.

E(t) integrates c phi^{-1} e^{-2s(eta - eta_ref)} |grad y|^2 in space at
each interior node of the observation window.  The inverse power of phi
and the eta decay kill both window endpoints, which is what makes the
midpoint value E(T') the meaningful scalar here.  Both bounds scale the
same two right-hand terms of bound_terms: the Gamma0 flux norm of the
rate field on the interior window rows and the coefficient mass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import SpaceTimeField
from .grid import GridError, discrete_gradient, space_weights
from .observe import (
    gamma0_traces,
    weighted_boundary_norm,
    weighted_norm_space,
    weighted_norm_spacetime,
)
from .poincare import check_flat_boundary
from .report import EstimateReport, write_csv
from .weights import WeightSet

BOUNDARY_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class EnergyCurve:
    """E at the interior window nodes, with the midpoint value pulled out."""

    times: np.ndarray
    values: np.ndarray
    e_tprime: float

    def to_csv(self, path):
        write_csv(path, ["t", "E"], zip(self.times, self.values))


def _window_rows(y: SpaceTimeField, ws: WeightSet) -> np.ndarray:
    rows = y.window_values(ws.timegrid)
    if np.max(np.abs(rows[:, y.grid.boundary_mask])) > BOUNDARY_TRACE_TOL:
        raise GridError("rate field must vanish on the boundary")
    return rows


def energy(y: SpaceTimeField, c: np.ndarray, ws: WeightSet) -> EnergyCurve:
    grid = ws.grid
    c = np.asarray(c, dtype=float)
    if c.shape != (grid.n_nodes,):
        raise GridError(f"conductivity shape {c.shape}")
    grad = discrete_gradient(_window_rows(y, ws)[1:-1], grid)
    density = c * ws.weight_st(-1) * np.sum(grad**2, axis=-1)
    values = density @ space_weights(grid)
    if not np.all(np.isfinite(values)):
        raise GridError("non-finite energy value")
    return EnergyCurve(times=ws.times_interior.copy(), values=values,
                       e_tprime=float(values[ws.tprime_row]))


def energy_tprime_direct(y: SpaceTimeField, c: np.ndarray,
                         ws: WeightSet) -> float:
    """Second code path for E(T'): midpoint-slice quadrature through the
    T'-specific weight table instead of the full curve."""
    yt = y.at_time(ws.timegrid.t_mid)
    grad = discrete_gradient(yt, ws.grid)
    scaled = np.sqrt(np.asarray(c, dtype=float))[:, None] * grad
    return weighted_norm_space(scaled, ws, -1)


def bound_terms(y: SpaceTimeField, gamma: np.ndarray,
                ws: WeightSet) -> dict:
    """The right-hand terms both bounds scale, once gamma's flat
    boundary is checked: the Gamma0 flux norm of y on the interior
    window rows and gamma's weighted H1 mass."""
    check_flat_boundary(gamma, ws.grid)
    grad = discrete_gradient(gamma, ws.grid)
    return {
        "boundary": weighted_boundary_norm(
            gamma0_traces(_window_rows(y, ws)[1:-1], ws.grid), ws),
        "coeff": (weighted_norm_spacetime(gamma, ws, 0)
                  + weighted_norm_spacetime(grad, ws, 0)),
    }


def snapshot_bound_sides(y: SpaceTimeField, terms: dict,
                         ws: WeightSet) -> EstimateReport:
    """Midpoint mass of the rate field against boundary flux plus the
    fractional-power coefficient mass."""
    lhs = {
        "snapshot": weighted_norm_space(y.at_time(ws.timegrid.t_mid), ws, 0),
    }
    rhs = {
        "boundary": ws.lam**0.5 * terms["boundary"],
        "coeff": ws.s**-0.5 * ws.lam**-0.5 * terms["coeff"],
    }
    return EstimateReport.for_weights("snapshot_bound", lhs, rhs, ws)


def energy_bound_sides(curve: EnergyCurve, terms: dict,
                       ws: WeightSet) -> EstimateReport:
    """E(T') against the s-weighted boundary flux and coefficient mass."""
    lhs = {"energy": curve.e_tprime}
    rhs = {
        "boundary": ws.s * ws.lam * terms["boundary"],
        "coeff": ws.s * terms["coeff"],
    }
    return EstimateReport.for_weights("energy_bound", lhs, rhs, ws)
