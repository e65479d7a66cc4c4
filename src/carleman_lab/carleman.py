"""Two-sided evaluation of the global weighted smoothing estimate.

For a test function q vanishing on the lateral boundary, both sides of
the estimate are quadratures of the conjugated variable
psi = e^{-s(eta - eta_ref)} q (endpoint slices zero by weight decay):

  LHS = |M1 psi|^2_Q + |M2 psi|^2_Q
        + s lam^2 II phi e^{-2s(eta-eta_ref)} |grad q|^2
        + s^3 lam^4 II phi^3 e^{-2s(eta-eta_ref)} |q|^2
  RHS = s lam II_gamma0 phi e^{-2s(eta-eta_ref)} |d_nu q|^2
        + II e^{-2s(eta-eta_ref)} |d_t q - div(c grad q)|^2

with the first-order factor of M2 carrying a sign switch (the source
text is typographically ambiguous there; the default follows the
standard conjugation, and reports record which sign ran).
"""

from __future__ import annotations

import numpy as np
# make_test_suite's generator; imported with the module so that a
# pipeline imports nothing that start-up has not
import numpy.random  # noqa: F401

from .grid import (
    Grid,
    GridError,
    TimeGrid,
    discrete_gradient,
    divergence_flux,
    normal_derivative,
    space_weights,
)
from .observe import weighted_boundary_norm, weighted_norm_spacetime
from .report import EstimateReport
from .weights import WeightSet


def conjugate(q_values: np.ndarray, ws: WeightSet) -> np.ndarray:
    """psi = e^{-s(eta - eta_ref)} q on the window, zero endpoint rows."""
    psi = np.zeros_like(q_values)
    psi[1:-1] = ws.conjugation * q_values[1:-1]
    return psi


def apply_M1(psi: np.ndarray, c: np.ndarray, ws: WeightSet) -> np.ndarray:
    """Interior-row values of div(c grad psi) + s^2 lam^2 c |grad beta|^2
    phi^2 psi + s (d_t eta) psi."""
    grad_b2, phi = ws.grad_beta_sq, ws.phi
    zero_order = (ws.s**2 * ws.lam**2) * c[None, :] * grad_b2[None, :] * phi**2
    zero_order = zero_order + ws.s * ws.dt_eta
    return divergence_flux(c, psi[1:-1], ws.grid) + zero_order * psi[1:-1]


def apply_M2(psi: np.ndarray, c: np.ndarray, ws: WeightSet,
             sign: float = 1.0) -> np.ndarray:
    """Interior-row values of d_t psi +- 2 s lam phi c grad(beta).grad(psi)
    - 2 s lam^2 phi c |grad beta|^2 psi."""
    grad_b2, phi = ws.grad_beta_sq, ws.phi
    dt = ws.timegrid.dt
    dpsi_dt = (psi[2:] - psi[:-2]) / (2.0 * dt)
    grad_psi = discrete_gradient(psi[1:-1], ws.grid)
    advect = np.sum(ws.grad_beta_tilde * grad_psi, axis=-1)
    return (
        dpsi_dt
        + sign * 2.0 * ws.s * ws.lam * phi * c * advect
        - 2.0 * ws.s * ws.lam**2 * phi * c * grad_b2 * psi[1:-1]
    )


def _plain_st_sq(rows: np.ndarray, grid: Grid, dt: float) -> float:
    return float(dt * np.sum(rows**2 @ space_weights(grid)))


def carleman_sides(q_values: np.ndarray, c: np.ndarray, ws: WeightSet,
                   m2_sign: float = 1.0) -> EstimateReport:
    grid, window = ws.grid, ws.timegrid
    q_values = np.asarray(q_values, dtype=float)
    if q_values.shape != (window.steps + 1, grid.n_nodes):
        raise GridError(f"test function has shape {q_values.shape}")
    if np.max(np.abs(q_values[:, grid.boundary_mask])) > 1e-14:
        raise GridError("test function must vanish on the lateral boundary")

    psi = conjugate(q_values, ws)
    m1 = apply_M1(psi, c, ws)
    m2 = apply_M2(psi, c, ws, sign=m2_sign)

    grad_q = discrete_gradient(q_values, grid)
    dt = window.dt
    resid = np.zeros_like(q_values)  # endpoint rows never integrated
    resid[1:-1] = ((q_values[2:] - q_values[:-2]) / (2.0 * dt)
                   - divergence_flux(c, q_values[1:-1], grid))
    trace = {face: normal_derivative(q_values[1:-1], grid, face)
             for face in grid.gamma0_faces}

    lhs = {
        "m1_sq": _plain_st_sq(m1, grid, dt),
        "m2_sq": _plain_st_sq(m2, grid, dt),
        "grad": ws.s * ws.lam**2 * weighted_norm_spacetime(grad_q, ws, 1),
        "zero": ws.s**3 * ws.lam**4 * weighted_norm_spacetime(q_values, ws, 3),
    }
    rhs = {
        "boundary": ws.s * ws.lam * weighted_boundary_norm(trace, ws),
        "residual": weighted_norm_spacetime(resid, ws, 0),
    }
    return EstimateReport(
        name="carleman",
        lhs_terms=lhs,
        rhs_terms=rhs,
        params={
            "s": ws.s, "lam": ws.lam, "n": grid.n, "steps": window.steps,
            "eta_ref": ws.eta_ref, "m2_sign": m2_sign,
        },
    ).validate()


# -- test-function suite --------------------------------------------------


def make_test_suite(grid: Grid, window: TimeGrid, count: int = 20,
                    seed: int = 42) -> list:
    """Separable test functions sin(k pi x)(sin(k2 pi y)) * w(t) with
    random small wavenumbers and random smooth w; boundary columns are
    zeroed so the lateral trace vanishes exactly."""
    rng = np.random.default_rng(seed)
    tau = (window.times - window.t0) / (window.t_end - window.t0)
    suite = []
    for i in range(count):
        spatial = np.ones(grid.n_nodes)
        for a in range(grid.dimension):
            k = int(rng.integers(1, 4))
            spatial = spatial * np.sin(k * np.pi * grid.coords[:, a])
        coeffs = rng.standard_normal(4)
        w = coeffs[0] + sum(
            coeffs[j] * np.sin(j * np.pi * tau) for j in range(1, 4)
        )
        vals = w[:, None] * spatial[None, :]
        vals[:, grid.boundary_mask] = 0.0
        suite.append((f"test{i:02d}", vals))
    return suite


def carleman_sweep(c: np.ndarray, suite: list, s_list, lam_list, grid: Grid,
                   window: TimeGrid, m_weight: float, x0) -> tuple:
    """One report per (test, s, lam) with the default M2 sign; summary
    maps (s, lam) to the max ratio over the suite."""
    from .weights import build_weights

    if not suite or not list(s_list) or not list(lam_list):
        raise GridError("empty suite or parameter list")
    records = []
    summary = {}
    for s in s_list:
        for lam in lam_list:
            ws = build_weights(grid, window, lam=lam, s=s, m=m_weight, x0=x0)
            worst = 0.0
            for test_id, q_values in suite:
                rep = carleman_sides(q_values, c, ws)
                records.append((test_id, float(s), float(lam), rep))
                worst = max(worst, rep.ratio)
            summary[(float(s), float(lam))] = worst
    return records, summary
