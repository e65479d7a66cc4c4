"""Reference experiment setups: base problems, perturbation families and
twin solves.

The base conductivity is 1; boundary data carry a sinusoidal bump in
time so the twin difference u = q - qtilde and its time derivative have
signal in the observation window.  The data stay at or above 1, a
property of their closed forms that the solver does not check: q0 =
1 + x (+ y), the default drive adds 0.5 sin(pi t / T) * ramp >= 0 on
[0, T], and the probing drive's sine amplitudes sum to 0.9 against a
ramp <= x while its raised cosines are >= 0.  Data are chosen so the
transport nondegeneracy (the gradient of the base solution not
orthogonal to grad beta at T') holds with margin; the poincare module
verifies it at run time.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .forward import HeatProblem, SpaceTimeField, solve_heat, time_derivative
from .grid import Grid, GridError, TimeGrid


@dataclass
class ExperimentSetup:
    """Grid, full solve interval, observation window and base problem."""

    grid: Grid
    timegrid: TimeGrid       # full interval (0, T)
    window: TimeGrid         # (t0, T)
    base: HeatProblem        # the reference problem (conductivity ctilde)

    @property
    def c_tilde(self) -> np.ndarray:
        return np.asarray(self.base.c, dtype=float)


def default_boundary_data(grid: Grid, t_end: float):
    """g(t) = q0 + 0.5 sin(pi t / T) * ramp >= q0 on [0, T], compatible."""
    base, ramp = base_initial_state(grid), np.prod(grid.coords, axis=1)

    def g(t: float) -> np.ndarray:
        return base + 0.5 * np.sin(np.pi * t / t_end) * ramp

    return g


def base_initial_state(grid: Grid) -> np.ndarray:
    # (1 + x) + y: 1 + coords.sum(axis=1) would round differently
    return functools.reduce(np.add, grid.coords.T, 1.0)


def default_setup(dimension: int, n: int, t0: float, t_end: float,
                  steps: int) -> ExperimentSetup:
    gamma0_faces = ("right",) if dimension == 1 else ("north", "east")
    grid = Grid(dimension, n, gamma0_faces)
    timegrid = TimeGrid(0.0, t_end, steps)
    window = timegrid.window(t0)
    base = HeatProblem(
        c=np.ones(grid.n_nodes),
        g=default_boundary_data(grid, t_end),
        q0=base_initial_state(grid),
    )
    return ExperimentSetup(grid=grid, timegrid=timegrid, window=window, base=base)


# A single slow tone barely excites the flux-to-coefficient map: its
# regularized normal equations put the best reachable perturbation error
# near 40%.  Spreading the drive over frequencies up to the inverse
# diffusion time of the domain, and driving the far side with raised
# cosines (nonnegative, so no positivity ceiling on their amplitudes),
# lifts the map's singular values unevenly.  A central-difference
# Jacobian of the observed flux at the prior c = 1 (admissible nodes,
# t0 = 1/16 window; the values quoted agree between two difference
# steps) reads, against the default drive: in 1D n = 32, x5 to x23 on
# the leading ten of 31 values, x13 to x84 on values 11-19 and x175 on
# value 20, past which the default drive's values sink under the
# round-off floor (~5e-11) while this drive's stay above it to value
# 25; in 2D n = 16, only x2.5 to x17 on values 1-163 of 169.
# With an observation window that starts inside the initial transient,
# 200 BB iterations reach 4.0% in 1D.
PROBING_TONES_SIN = ((0.32, 2.0), (0.22, 5.0), (0.16, 9.0), (0.11, 17.0),
                     (0.09, 29.0))
PROBING_TONES_COS = ((1.5, 3.0), (1.2, 7.0), (0.9, 13.0), (0.75, 23.0))


def probing_boundary_data(grid: Grid):
    """Dual-side drive: sine tones on the observed side (amplitudes sum
    to 0.9, keeping the data at or above 1) and raised cosine tones on
    the opposite side."""
    base, ramp = base_initial_state(grid), np.prod(grid.coords, axis=1)
    anti = np.prod(1.0 - grid.coords, axis=1)

    def g(t: float) -> np.ndarray:
        s = 0.0
        for amp, freq in PROBING_TONES_SIN:
            s += amp * np.sin(freq * t)
        sc = 0.0
        for amp, freq in PROBING_TONES_COS:
            sc += amp * (1.0 - np.cos(freq * t))
        return base + s * ramp + sc * anti

    return g


def inversion_setup(dimension: int, n: int) -> ExperimentSetup:
    """Like default_setup but driven by the probing boundary data and
    observed over a window that opens early enough to catch the
    transient (t0 = 1/16 on (0, 2) with 128 steps); use this for
    reconstruction experiments."""
    setup = default_setup(dimension, n, t0=0.0625, t_end=2.0, steps=128)
    return replace(setup, base=replace(
        setup.base, g=probing_boundary_data(setup.grid)))


# -- perturbations --------------------------------------------------------


def bump_shape(grid: Grid, k: int) -> np.ndarray:
    """x^2(1-x)^2 flattened at the boundary, modulated by sin(k pi x)
    for k > 0; tensorized per axis in 2D.  Normalized to sup 1."""
    out = np.ones(grid.n_nodes)
    for a in range(grid.dimension):
        x = grid.coords[:, a]
        out = out * x**2 * (1.0 - x) ** 2
        if k > 0:
            out = out * np.sin(k * np.pi * x)
    peak = np.max(np.abs(out))
    if peak == 0.0:
        raise GridError("degenerate perturbation shape")
    return out / peak


def perturbation_family(grid: Grid) -> list:
    """Named (label, eps, field) perturbations: bump shapes k = 0, 1, 2
    at four sup norms eps from 1e-3 to 1e-1, evenly spaced in log."""
    fam = []
    for k in (0, 1, 2):
        base = bump_shape(grid, k)
        for eps in np.logspace(-3.0, -1.0, 4):
            fam.append((f"shape{k}_eps{eps:.0e}", float(eps), eps * base))
    return fam


# -- twin solves ----------------------------------------------------------


@dataclass
class TwinSolve:
    """Both solutions plus their difference and its time derivative;
    q, u and y carry the member axis of a stack gamma."""

    q: SpaceTimeField          # perturbed coefficient c = ctilde + gamma
    q_tilde: SpaceTimeField    # base coefficient
    u: SpaceTimeField          # q - q_tilde, zero on the boundary

    @functools.cached_property
    def y(self) -> SpaceTimeField:    # d_t u, formed on first read
        return time_derivative(self.u)


def twin_solve(setup: ExperimentSetup, gamma: np.ndarray) -> TwinSolve:
    """Solves for ctilde, the base problem's conductivity, and ctilde +
    gamma, or each of a (K, n_nodes) stack gamma, as one stack."""
    gamma = np.asarray(gamma, dtype=float)
    c = np.vstack((setup.c_tilde, setup.c_tilde + gamma))
    field = solve_heat(replace(setup.base, c=c), setup.grid, setup.timegrid)
    q_tilde = replace(field, values=field.values[0])
    q = replace(field, values=field.values[1:].reshape(
        gamma.shape[:-1] + field.values.shape[1:]))
    return TwinSolve(q=q, q_tilde=q_tilde,
                     u=replace(field, values=q.values - q_tilde.values))
