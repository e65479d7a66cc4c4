"""Paper checks that no command runs: the Poincare-type lemma with its
transport operator, the midpoint residual, the plain H1 bound, the
weight's closed form, bounds and time profile, and the stability sweep's
slope summary.  The tests check them against the package's pipelines."""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from carleman_lab.forward import SpaceTimeField
from carleman_lab.grid import (
    Grid,
    GridError,
    TimeGrid,
    discrete_gradient,
    divergence_flux,
)
from carleman_lab.observe import norm_space_plain, weighted_norm_space
from carleman_lab.poincare import (
    DEGENERACY_FLOOR,
    build_transport_base,
    check_flat_boundary,
)
from carleman_lab.report import EstimateReport
from carleman_lab.weights import WeightError, WeightSet


# -- the Poincare-type lemma ----------------------------------------------


@dataclass(frozen=True)
class TransportBase:
    """Gradient of the base field of the first-order operator and the
    nodal minimum of |grad beta . grad base|."""

    gradient: np.ndarray
    min_transport: float


def transport_base(b: np.ndarray, ws: WeightSet) -> TransportBase:
    """The transport base of b, with the package's checked minimum;
    GridError when it is degenerate."""
    min_transport = build_transport_base(b, ws)
    return TransportBase(gradient=discrete_gradient(b, ws.grid),
                         min_transport=min_transport)


def apply_P0(g: np.ndarray, base: TransportBase, grid: Grid) -> np.ndarray:
    """grad(base) . grad(g) nodally; g must vanish on the boundary."""
    g = np.asarray(g, dtype=float)
    if g.shape != (grid.n_nodes,):
        raise GridError(f"test function has shape {g.shape}")
    scale = float(np.max(np.abs(g)))
    if scale > 0.0 and np.max(np.abs(g[grid.boundary_mask])) > 1e-12 * scale:
        raise GridError("test function must vanish on the boundary")
    return np.sum(base.gradient * discrete_gradient(g, grid), axis=1)


def lemma_sides(g: np.ndarray, base: TransportBase,
                ws: WeightSet) -> EstimateReport:
    """Weighted mass of g at T' against the weighted transport image: the
    paper's Poincare-type lemma.  base is checked again here, since a
    caller may build it by hand."""
    if base.min_transport <= DEGENERACY_FLOOR:
        raise GridError(
            "degenerate transport base: min |grad beta . grad base| = "
            f"{base.min_transport:.3e}"
        )
    p0g = apply_P0(g, base, ws.grid)
    lhs = {
        "mass": ws.s**2 * ws.lam**2 * weighted_norm_space(g, ws, 1),
    }
    rhs = {
        "transport": weighted_norm_space(p0g, ws, -1),
    }
    return EstimateReport.for_weights("poincare_lemma", lhs, rhs, ws,
                                      min_transport=base.min_transport)


def cit_residual(gamma: np.ndarray, c: np.ndarray, q_tilde: SpaceTimeField,
                 u: SpaceTimeField, y: SpaceTimeField,
                 window: TimeGrid) -> np.ndarray:
    """Defect of the midpoint-slice decomposition of y into the
    coefficient-difference flux plus the background flux of u; acceptance
    4 checks that it vanishes at first order under refinement."""
    grid = q_tilde.grid
    check_flat_boundary(gamma, grid)
    t_prime = window.t_mid
    qt = q_tilde.at_time(t_prime)
    ut = u.at_time(t_prime)
    yt = y.at_time(t_prime)
    res = (
        yt
        - divergence_flux(gamma, qt, grid, positive=False)
        - divergence_flux(c, ut, grid)
    )
    if not np.all(np.isfinite(res)):
        raise GridError("non-finite residual")
    return res


def coefficient_lower_bound(gamma: np.ndarray, ws: WeightSet) -> tuple:
    """Computable chain: the weighted LHS dominates the plain first-order
    mass of gamma times the worst-case nodal weight factor, the step from
    the weighted estimate to a plain H1 bound."""
    grid = ws.grid
    grad_gamma = discrete_gradient(gamma, grid)
    s2l2 = ws.s**2 * ws.lam**2
    lhs = s2l2 * (weighted_norm_space(grad_gamma, ws, 1)
                  + weighted_norm_space(gamma, ws, 1))
    floor_factor = float(np.min(ws.weight_tprime(1)))
    plain = norm_space_plain(gamma, grid) + norm_space_plain(grad_gamma, grid)
    return lhs, s2l2 * floor_factor * plain


# -- the weights ----------------------------------------------------------


def weight_closed_form(ws: WeightSet, m: float) -> SimpleNamespace:
    """beta_tilde = |x - x0|^2, beta = beta_tilde + K, K = m max
    beta_tilde and C0 = min |grad beta_tilde| of ws, built with m, from
    its gradient grad beta_tilde = 2 (x - x0)."""
    beta_tilde = np.sum(ws.grad_beta_tilde**2, axis=1) / 4.0
    K = m * float(beta_tilde.max())
    C0 = float(np.min(np.linalg.norm(ws.grad_beta_tilde, axis=1)))
    return SimpleNamespace(beta_tilde=beta_tilde, beta=beta_tilde + K, K=K,
                           C0=C0)


@dataclass(frozen=True)
class TimeProfile:
    values: np.ndarray      # 1 / ((t - t0)(T - t)) at interior nodes
    min_value: float


def weight_time_profile(timegrid: TimeGrid) -> TimeProfile:
    """Tabulate 1/w on interior nodes and locate its minimum, which must
    be the window midpoint: the T' the weighted estimates are stated at,
    which acceptance 2 checks."""
    t = timegrid.times[1:-1]
    vals = 1.0 / ((t - timegrid.t0) * (timegrid.t_end - t))
    k = int(np.argmin(vals))
    if k + 1 != timegrid.midpoint_index:
        raise WeightError(
            f"time profile minimum at node {k + 1}, expected midpoint "
            f"{timegrid.midpoint_index}"
        )
    return TimeProfile(values=vals, min_value=float(vals[k]))


def weight_bounds_check(ws: WeightSet) -> dict:
    """Empirical suprema, by name, of the pointwise ratios the proofs
    bound by constants.  Evaluated in log space; the T' row contributes
    zero to the time-derivative ratios because w' vanishes there."""
    log_phi = ws.log_phi
    log_w = np.log(ws.w)[:, None]
    with np.errstate(divide="ignore"):
        log_abs_wp = np.where(ws.w_prime == 0.0, -np.inf,
                              np.log(np.abs(ws.w_prime)))[:, None]
    log_eta = np.log(ws.eta)

    ratios = {
        "dt_eta_over_phi2": np.exp(log_eta + log_abs_wp - log_w - 2.0 * log_phi),
        "dt_phi_over_phi3": np.exp(log_abs_wp - log_w - 2.0 * log_phi),
        "phi_inv_over_phi": np.exp(-2.0 * log_phi),
        "phi_inv2_over_phi_inv": np.exp(-log_phi),
    }
    return {name: float(np.max(r)) for name, r in ratios.items()}


# -- the stability sweep's summary ----------------------------------------


def sweep_summary(family, records) -> dict:
    """The empirical constant of stability_sweep's records with its
    argmax member, a global log-log slope of LHS against plain
    observation distance, per-shape slopes over amplitude scalings, and
    the labels of the family's members the sweep left out (eps 0 or an
    admissible projection of 0)."""
    worst = max(records, key=lambda r: r["ratio"])

    def slope(points):
        xs = np.log([p["rhs_plain"] for p in points])
        ys = np.log([p["lhs"] for p in points])
        return float(np.polyfit(xs, ys, 1)[0])

    shapes = {}
    for rec in records:
        shapes.setdefault(rec["member"].split("_")[0], []).append(rec)
    recorded = {rec["member"] for rec in records}
    return {
        "max_ratio": worst["ratio"],
        "argmax": worst["member"],
        "global_slope": slope(records) if len(records) >= 3 else math.nan,
        "shape_slopes": {name: slope(pts) for name, pts in shapes.items()
                         if len(pts) >= 3},
        "excluded": [label for label, *_ in family if label not in recorded],
    }
