"""The coefficient snapshot estimate and its admissibility checks.

Everything here lives on the midpoint slice T' of the observation
window.  The first-order transport operator pairs the gradient of the
base field q_tilde(T') with the gradient of the tested function; its
nondegeneracy against the weight profile (nodal min of
|grad beta . grad base| > 0) is the hypothesis that makes the estimate
usable, so every report carries it.

All T'-slice integrals use the shared normalized factor
e^{-2s(eta(T') - eta_ref)}; both sides of every estimate carry the same
factor, so ratios are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import SpaceTimeField, snapshot_package
from .grid import Grid, GridError, discrete_gradient, normal_derivative
from .observe import weighted_norm_space
from .report import EstimateReport, write_csv
from .weights import WeightSet

DEGENERACY_FLOOR = 1e-12
# |d_nu gamma| relative to sup|gamma|; 0.5 admits quartic-flat bumps from
# n = 16 up (their ratio decays like h^2) while rejecting profiles with a
# genuine boundary slope, whose ratio is O(1/sup) independent of h
FLATNESS_TOL = 0.5


def build_transport_base(b: np.ndarray, ws: WeightSet) -> float:
    """The nodal minimum of |grad beta . grad b|, the transport base's
    nondegeneracy; GridError when it is degenerate."""
    b = np.asarray(b, dtype=float)
    if b.shape != (ws.grid.n_nodes,):
        raise GridError(f"base field has shape {b.shape}")
    transport = np.abs(np.sum(ws.grad_beta_tilde
                              * discrete_gradient(b, ws.grid), axis=1))
    min_transport = float(np.min(transport))
    if min_transport <= DEGENERACY_FLOOR:
        raise GridError(
            "degenerate transport base: min |grad beta . grad base| = "
            f"{min_transport:.3e}"
        )
    return min_transport


def check_flat_boundary(gamma: np.ndarray, grid: Grid):
    """Admissibility of a coefficient perturbation: zero boundary trace
    and a small one-sided normal derivative (the discrete stand-in for
    the gradient trace condition).  Scale-invariant by construction."""
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (grid.n_nodes,):
        raise GridError(f"perturbation has shape {gamma.shape}")
    scale = float(np.max(np.abs(gamma)))
    if scale == 0.0:
        return
    if np.max(np.abs(gamma[grid.boundary_mask])) > 1e-12 * scale:
        raise GridError("perturbation must vanish on the boundary")
    worst = 0.0
    for face in grid.face_names:
        worst = max(worst, float(np.max(np.abs(
            normal_derivative(gamma, grid, face)))))
    if worst > FLATNESS_TOL * scale:
        raise GridError(
            f"perturbation normal derivative {worst:.3e} too large for a "
            "flat boundary trace"
        )


@dataclass(frozen=True)
class PropositionReport:
    """The assembled estimate plus its two internal halves."""

    scalar: EstimateReport
    gradient: EstimateReport
    combined: EstimateReport

    def parts(self):
        return {
            "scalar": self.scalar,
            "gradient": self.gradient,
            "combined": self.combined,
        }


def proposition_sides(gamma: np.ndarray, q_tilde: SpaceTimeField,
                      u: SpaceTimeField, y: SpaceTimeField,
                      ws: WeightSet) -> PropositionReport:
    """Both sides of the coefficient snapshot estimate, with the scalar
    and gradient halves reported separately (their right-hand sides
    carry different weight powers in the source argument; each half is
    evaluated exactly as displayed)."""
    grid, window = ws.grid, ws.timegrid
    check_flat_boundary(gamma, grid)
    min_transport = build_transport_base(q_tilde.at_time(window.t_mid), ws)

    u_snap = snapshot_package(u, grid, window)
    yt = y.at_time(window.t_mid)
    fields = {"coeff": gamma, "grad_coeff": discrete_gradient(gamma, grid),
              "y_val": yt, "y_grad": discrete_gradient(yt, grid),
              "u_lap": u_snap.lap_q, "u_grad": u_snap.grad_q,
              "u_grad_lap": u_snap.grad_lap_q}
    norms = {}   # (term, weight power) -> weighted_norm_space, each once

    def side(terms, scale):
        for key in terms:
            if key not in norms:
                norms[key] = weighted_norm_space(fields[key[0]], ws, key[1])
        return {name: scale * norms[name, k] for name, k in terms}

    def part(name, lhs, rhs):
        return EstimateReport.for_weights(
            name, side(lhs, ws.s**2 * ws.lam**2), side(rhs, 1.0), ws,
            min_transport=min_transport)

    return PropositionReport(
        scalar=part("poincare_scalar", [("coeff", 1)],
                    [("y_val", -1), ("coeff", -1), ("u_lap", 0),
                     ("u_grad", 0)]),
        gradient=part("poincare_gradient", [("grad_coeff", 1)],
                      [("y_grad", -1), ("grad_coeff", -1), ("coeff", -1),
                       ("u_grad_lap", -1), ("u_lap", -1)]),
        combined=part("poincare", [("grad_coeff", 1), ("coeff", 1)],
                      [("y_grad", -1), ("y_val", -1), ("u_grad_lap", 0),
                       ("u_lap", 0), ("u_grad", 0)]))


def proposition_to_csv(report: PropositionReport, path):
    """One row per (part, term): part,term,value."""
    write_csv(path, ["part", "term", "value"],
              ((part_name, term, value)
               for part_name, rep in report.parts().items()
               for term, value in rep.rows()))
