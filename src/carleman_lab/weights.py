"""Anchored quadratic weight functions for the weighted estimates.

beta_tilde(x) = |x - x0|^2 with the anchor x0 outside the closed domain,
beta = beta_tilde + K, K = m * max(beta_tilde), m > 1.  The two time
weights on an observation window (t0, T) are

    phi(x, t) = exp(lam * beta(x)) / w(t),
    eta(x, t) = (exp(2 lam K) - exp(lam beta(x))) / w(t),

with w(t) = (t - t0)(T - t).  Both blow up at the window endpoints, so
they are tabulated on interior time nodes only and every integrand
carrying exp(-2 s eta) is extended by zero at the endpoints.

Two evaluation rules keep this representable in float64:

  * powers of phi are combined in log space (k*log phi - 2 s eta) and
    exponentiated once;
  * exp(-2 s eta) is always used in the normalized form
    exp(-2 s (eta - eta_ref)) with eta_ref = min tabulated eta.  Ratios
    of two integrals carrying the same weight are unchanged.  Report
    params carry eta_ref so absolute scales remain reconstructible, but
    of the CSV files only the snapshot report writes it out.

Without the normalization the raw factor exp(-2 s eta) underflows to
zero at every node for all interesting parameter choices.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .grid import Grid, TimeGrid


class WeightError(ValueError):
    """Raised when weight parameters violate the standing assumptions."""


@dataclass(frozen=True)
class WeightSet:
    """The tabulated weights of one (grid, window, lam, s, m, x0).  The
    derived tables (weight_st, weight_tprime, boundary_weight, phi,
    grad_beta_sq, dt_eta, conjugation, carleman's tables per c) are
    computed on first use and kept read-only: a Carleman cell evaluates
    every test function of its suite on one WeightSet."""

    grid: Grid
    timegrid: TimeGrid
    lam: float
    s: float
    grad_beta_tilde: np.ndarray  # analytic, (n_nodes, dim)
    times_interior: np.ndarray   # window nodes t[1..m-1]
    w: np.ndarray                # (t - t0)(T - t) at interior nodes
    w_prime: np.ndarray          # T + t0 - 2t, exactly 0 at T'
    log_phi: np.ndarray          # (steps-1, n_nodes)
    eta: np.ndarray              # (steps-1, n_nodes)
    eta_ref: float

    # -- row bookkeeping --------------------------------------------------

    @property
    def tprime_row(self) -> int:
        """Row index of T' within the interior-node tabulation."""
        return self.timegrid.midpoint_index - 1

    # -- pointwise factors ------------------------------------------------

    @functools.cached_property
    def _tables(self) -> dict:
        return {}

    def table(self, key, make) -> np.ndarray:
        """make() on the first call for key, the same read-only array
        after it."""
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = make()
            table.flags.writeable = False
        return table

    def log_weight(self, k: float) -> np.ndarray:
        """log of phi^k * exp(-2 s (eta - eta_ref)) on interior slices."""
        return k * self.log_phi - 2.0 * self.s * (self.eta - self.eta_ref)

    def weight_st(self, k: float) -> np.ndarray:
        return self.table(("st", k), lambda: np.exp(self.log_weight(k)))

    def weight_tprime(self, k: float) -> np.ndarray:
        return self.table(
            ("tprime", k),
            lambda: np.exp(self.log_weight(k)[self.tprime_row]))

    def boundary_weight(self, face: str) -> np.ndarray:
        """phi e^{-2s(eta - eta_ref)} on the nodes of one face."""
        return self.table(("boundary", face), lambda: np.exp(
            self.log_weight(1.0)[:, self.grid.face_nodes(face)]))

    @property
    def phi(self) -> np.ndarray:
        return self.table("phi", lambda: np.exp(self.log_phi))

    @property
    def grad_beta_sq(self) -> np.ndarray:
        """|grad beta|^2 at each node."""
        return self.table("grad_beta_sq",
                           lambda: np.sum(self.grad_beta_tilde**2, axis=1))

    @property
    def conjugation(self) -> np.ndarray:
        """e^{-s(eta - eta_ref)}, the factor taking q to psi."""
        return self.table("conjugation",
                           lambda: np.exp(-self.s * (self.eta - self.eta_ref)))

    @property
    def dt_eta(self) -> np.ndarray:
        """Closed-form time derivative of eta; exactly zero on the T' row."""
        return self.table(
            "dt_eta", lambda: -self.eta * (self.w_prime / self.w)[:, None])

    def normal_beta(self, face: str) -> np.ndarray:
        """d_nu beta on one face (beta and beta_tilde share gradients)."""
        nu = self.grid.face_normal(face)
        nodes = self.grid.face_nodes(face)
        return self.grad_beta_tilde[nodes] @ nu


def build_weights(grid: Grid, timegrid: TimeGrid, lam: float, s: float,
                  m: float, x0) -> WeightSet:
    if lam < 1.0 or s < 1.0:
        raise WeightError(f"need lam >= 1 and s >= 1, got lam={lam}, s={s}")
    if m <= 1.0:
        raise WeightError(f"need m > 1, got m={m}")
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape != (grid.dimension,):
        raise WeightError(f"anchor has shape {x0.shape}, grid is {grid.dimension}D")
    if np.all((x0 >= 0.0) & (x0 <= 1.0)):
        raise WeightError(f"anchor {x0.tolist()} lies inside the closed domain")

    diff = grid.coords - x0[None, :]
    beta_tilde = np.sum(diff**2, axis=1)
    grad_bt = 2.0 * diff
    # beta_tilde > 0 at every node also makes min |grad beta_tilde| > 0
    if not np.all(beta_tilde > 0.0):
        raise WeightError("anchor too close to the domain: beta_tilde degenerate")

    # sign condition on the unobserved boundary
    for face in grid.face_names:
        if face in grid.gamma0_faces:
            continue
        vals = grad_bt[grid.face_nodes(face)] @ grid.face_normal(face)
        if np.any(vals > 1e-12):
            raise WeightError(
                f"d_nu beta_tilde > 0 on unobserved face {face!r} "
                f"(max {vals.max():.3g}); move the anchor or enlarge gamma0"
            )

    K = m * float(beta_tilde.max())
    beta = beta_tilde + K

    t = timegrid.times[1:-1]
    w = (t - timegrid.t0) * (timegrid.t_end - t)
    w_prime = timegrid.t_end + timegrid.t0 - 2.0 * t
    ip = timegrid.midpoint_index - 1
    if abs(w_prime[ip]) > 1e-12:
        raise WeightError("midpoint drift exceeds tolerance")
    w_prime[ip] = 0.0  # exact symmetry point of w

    log_phi = lam * beta[None, :] - np.log(w)[:, None]
    # eta = exp(lam beta) * expm1(lam (K - beta_tilde)) / w, the stable
    # form of (exp(2 lam K) - exp(lam beta)) / w
    eta_spatial = np.exp(lam * beta) * np.expm1(lam * (K - beta_tilde))
    eta = eta_spatial[None, :] / w[:, None]
    if not (np.all(np.isfinite(eta)) and np.all(np.isfinite(log_phi))):
        raise WeightError("weight tabulation overflows float64; reduce lam or m")
    if not np.all(eta > 0.0):
        raise WeightError("eta must be strictly positive for m > 1")
    eta_ref = float(eta.min())

    return WeightSet(
        grid=grid, timegrid=timegrid, lam=float(lam), s=float(s),
        grad_beta_tilde=grad_bt, times_interior=t, w=w, w_prime=w_prime,
        log_phi=log_phi, eta=eta, eta_ref=eta_ref,
    )
