"""Crank-Nicolson solver for d_t q = div(c(x) grad q) with Dirichlet data.

The semidiscrete operator is the flux-form stencil from the grid module,
assembled once as sparse matrices split into interior and boundary
columns.  Each step solves the symmetric positive definite system
(I - dt/2 A) v = rhs with one banded Cholesky factor per stepper: the
interior nodes are numbered row-major, so the band is tridiagonal in 1D
and n - 1 wide in 2D.  The boundary drive is tabulated once per (drive,
time grid) and its contribution to every step formed in one product.

The same factor drives the discrete adjoint in the reconstruction
module, so the forward map and its transpose agree to machine precision
in every dimension.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from .grid import Grid, GridError, TimeGrid, divergence_flux
from .report import write_csv


class SolverError(RuntimeError):
    """Linear-solver stall or non-finite state during time stepping."""


@dataclass
class HeatProblem:
    """Conductivity, boundary data, initial state and positivity floor.

    g maps a time to a full-length nodal array; only its boundary entries
    are read.  g must be a pure function of t: solve_heat tabulates it
    once per time grid and reuses the table for every later solve with
    the same g.  verification_mode admits manufactured data violating the
    positivity floor (g = 0 and the like) and skips those checks.
    """

    c: np.ndarray
    g: Callable[[float], np.ndarray]
    q0: np.ndarray
    r: float = 1.0
    verification_mode: bool = False

    def validate(self, grid: Grid):
        c = np.asarray(self.c, dtype=float)
        q0 = np.asarray(self.q0, dtype=float)
        if c.shape != (grid.n_nodes,) or q0.shape != (grid.n_nodes,):
            raise GridError("c and q0 must be nodal fields on the grid")
        if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise GridError("conductivity must be finite and positive")
        if not np.all(np.isfinite(q0)):
            raise GridError("q0 must be finite")
        if not self.verification_mode:
            if not (self.r > 0.0):
                raise GridError("positivity floor r must be > 0")
            if np.any(q0 < self.r - 1e-12):
                raise GridError("q0 violates the positivity floor")


@dataclass
class SpaceTimeField:
    """values[time_index][node] over a full time grid."""

    values: np.ndarray
    grid: Grid
    timegrid: TimeGrid

    def __post_init__(self):
        expect = (self.timegrid.steps + 1, self.grid.n_nodes)
        if self.values.shape != expect:
            raise GridError(f"field shape {self.values.shape} != {expect}")

    def at_time(self, t: float) -> np.ndarray:
        return self.values[self.timegrid.index_of(t)]

    def window_values(self, window: TimeGrid) -> np.ndarray:
        """Rows of this field on the nodes of a sub-window."""
        off = self.timegrid.index_of(window.t0)
        if abs(window.dt - self.timegrid.dt) > 1e-14:
            raise GridError("window must share the step size")
        return self.values[off : off + window.steps + 1]


def flux_matrices(c: np.ndarray, grid: Grid):
    """Sparse interior rows of the flux-form operator.

    Returns (A_int, B_bd, interior_idx, boundary_idx): A_int acts on
    interior values, B_bd on boundary values, and for any full field f
    with interior part v and boundary part b,

        divergence_flux(c, f)[interior] == A_int v + B_bd b

    up to round-off (interior rows share the face-mean formula exactly).
    """
    c = np.asarray(c, dtype=float)
    cg = grid.reshape(c)
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    rows, cols, vals = [], [], []
    inv_h2 = 1.0 / grid.h**2
    for a in range(grid.dimension):
        ia = np.moveaxis(idx, a, 0)
        ca = np.moveaxis(cg, a, 0)
        i0 = ia[:-1].ravel()
        i1 = ia[1:].ravel()
        cf = (0.5 * (ca[:-1] + ca[1:])).ravel() * inv_h2
        rows.extend([i0, i0, i1, i1])
        cols.extend([i1, i0, i0, i1])
        vals.extend([cf, -cf, cf, -cf])
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    ).tocsr()
    interior = np.flatnonzero(grid.interior_mask)
    boundary = np.flatnonzero(grid.boundary_mask)
    rows_int = A[interior]
    return (
        rows_int[:, interior].tocsr(),
        rows_int[:, boundary].tocsr(),
        interior,
        boundary,
    )


class CrankNicolsonStepper:
    """One-step map of the CN scheme for fixed conductivity.

    Exposes the pieces (A matvec, boundary matrix, B solve) so the
    reconstruction adjoint can transpose the exact discrete forward map.
    """

    def __init__(self, c: np.ndarray, grid: Grid, dt: float):
        self.c = np.array(c, dtype=float)
        self.dt = dt
        self.A, self.Bbd, self.interior, self.boundary = flux_matrices(c, grid)
        n = self.A.shape[0]
        B = scipy.sparse.identity(n, format="csr") - 0.5 * dt * self.A
        # upper band storage of the symmetric B: ab[u + i - j, j] = B[i, j]
        upper = scipy.sparse.triu(B, format="coo")
        u = int(np.max(upper.col - upper.row, initial=0))
        ab = np.zeros((u + 1, n))
        ab[u + upper.row - upper.col, upper.col] = upper.data
        self.chol = scipy.linalg.cholesky_banded(ab)
        # raw LAPACK: cho_solve_banded's argument checks cost ten times
        # the solve itself at these sizes
        (self._pbtrs,) = scipy.linalg.get_lapack_funcs(("pbtrs",),
                                                       (self.chol,))

    def solve_B(self, rhs: np.ndarray) -> np.ndarray:
        x, info = self._pbtrs(self.chol, rhs)
        if info != 0:
            raise SolverError(f"banded Cholesky solve failed (info={info})")
        return x

    def step(self, v: np.ndarray, b_old: np.ndarray, b_new: np.ndarray) -> np.ndarray:
        rhs = v + 0.5 * self.dt * (self.A @ v + b_old + b_new)
        return self.solve_B(rhs)


@functools.lru_cache(maxsize=8)
def _drive_table(g: Callable[[float], np.ndarray],
                 timegrid: TimeGrid) -> np.ndarray:
    """Read-only rows g(t) for every t of the time grid, keyed on g and
    the grid's (t0, t_end, steps).  The cache holds g itself, so a
    recycled object id can never hit a stale table."""
    table = np.array([np.asarray(g(t), dtype=float) for t in timegrid.times])
    table.flags.writeable = False
    return table


def solve_heat(problem: HeatProblem, grid: Grid, timegrid: TimeGrid, *,
               stepper: CrankNicolsonStepper | None = None) -> SpaceTimeField:
    """CN solution on the whole time grid.  A caller that also needs the
    factor (the reconstruction adjoint) may pass a stepper built for
    problem.c and timegrid.dt; one built for another conductivity or
    step raises GridError."""
    problem.validate(grid)
    c = np.asarray(problem.c, dtype=float)
    if stepper is None:
        stepper = CrankNicolsonStepper(c, grid, timegrid.dt)
    elif stepper.dt != timegrid.dt or not np.array_equal(stepper.c, c):
        raise GridError("stepper was built for another conductivity or step")
    interior, boundary = stepper.interior, stepper.boundary
    drive = _drive_table(problem.g, timegrid)[:, boundary]
    q0 = np.asarray(problem.q0, dtype=float)
    if np.max(np.abs(q0[boundary] - drive[0])) > 1e-12:
        raise GridError(
            f"q0 and g({timegrid.times[0]}) disagree on the boundary")
    if not problem.verification_mode:
        low = np.any(drive[1:] < problem.r - 1e-12, axis=1)
        if np.any(low):
            t = timegrid.times[1 + int(np.argmax(low))]
            raise GridError(f"boundary data violates the positivity floor at t={t}")

    values = np.empty((timegrid.steps + 1, grid.n_nodes))
    values[:, boundary] = drive
    v = q0[interior]
    values[0, interior] = v
    rhs_bd = (stepper.Bbd @ drive.T).T
    for j in range(1, timegrid.steps + 1):
        v = stepper.step(v, rhs_bd[j - 1], rhs_bd[j])
        values[j, interior] = v
    if not np.all(np.isfinite(values)):
        raise SolverError("non-finite state produced by time stepping")
    return SpaceTimeField(values=values, grid=grid, timegrid=timegrid)


def time_derivative(field: SpaceTimeField) -> SpaceTimeField:
    """Centered time differences, second-order one-sided at the ends.
    A field vanishing on the boundary stays exactly zero there."""
    v = field.values
    if v.shape[0] < 3:
        raise GridError("need at least 3 time slices")
    dt = field.timegrid.dt
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    return SpaceTimeField(values=out, grid=field.grid, timegrid=field.timegrid)


@dataclass
class SnapshotPackage:
    """T' slice of a field with its derived interior quantities."""

    t_prime: float
    q: np.ndarray
    grad_q: np.ndarray
    lap_q: np.ndarray
    grad_lap_q: np.ndarray
    divflux_q: np.ndarray


def snapshot_package(field: SpaceTimeField, grid: Grid, window: TimeGrid,
                     c: np.ndarray) -> SnapshotPackage:
    from .grid import discrete_gradient, discrete_laplacian

    t_prime = window.t_mid
    q = field.at_time(t_prime)
    lap = discrete_laplacian(q, grid)
    return SnapshotPackage(
        t_prime=t_prime,
        q=q.copy(),
        grad_q=discrete_gradient(q, grid),
        lap_q=lap,
        grad_lap_q=discrete_gradient(lap, grid),
        divflux_q=divergence_flux(np.asarray(c, dtype=float), q, grid),
    )


def dump_field_csv(field: SpaceTimeField, path):
    write_csv(path, ["t_index", "node", "value"],
              ((j, i, v) for (j, i), v in np.ndenumerate(field.values)))
