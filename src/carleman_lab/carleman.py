"""Two-sided evaluation of the global weighted smoothing estimate.

For a test function q vanishing on the lateral boundary, both sides of
the estimate are quadratures of the conjugated variable
psi = e^{-s(eta - eta_ref)} q (endpoint slices zero by weight decay):

  LHS = |M1 psi|^2_Q + |M2 psi|^2_Q
        + s lam^2 II phi e^{-2s(eta-eta_ref)} |grad q|^2
        + s^3 lam^4 II phi^3 e^{-2s(eta-eta_ref)} |q|^2
  RHS = s lam II_gamma0 phi e^{-2s(eta-eta_ref)} |d_nu q|^2
        + II e^{-2s(eta-eta_ref)} |d_t q - div(c grad q)|^2

with the first-order factor of M2 carrying the sign M2_SIGN (the source
text is typographically ambiguous there; the lab follows the standard
conjugation, and reports record the sign as m2_sign).

The operators index time as axis -2 and act on (test, time, node)
stacks: carleman_sweep checks its suite once and evaluates it in stacks
of at most CHUNK_VALUES node values, carleman_sides is the one-test
stack, and each quadrature keeps its per-test order, so no report
depends on the stacking.  The weight-free fields depend on the tests
alone: the sweep forms them once per chunk and keeps them across its
(s, lam) cells within KEEP_VALUES node values; each cell integrates
their Gamma0 traces with observe.weighted_boundary_norm.

Each sweep allocates one _workspace, sized for its largest chunk: psi,
the M1 and M2 fields, grad psi and the weighted integrands are written
into it with out= (a shorter last chunk takes leading slices), so the
cells reuse the same pages instead of faulting in fresh ones.  The
arithmetic and its order are those of the allocating calls;
carleman_sides runs the same code on a one-test workspace.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
# make_test_suite's generator; imported with the module so that a
# pipeline imports nothing that start-up has not
import numpy.random  # noqa: F401

from .grid import (
    Grid,
    GridError,
    TimeGrid,
    centered_difference,
    discrete_gradient,
    divergence_flux,
    space_weights,
)
from .observe import gamma0_traces, weighted_boundary_norm, window_sum
from .report import EstimateReport
from .weights import WeightSet, build_weights


# the sign of M2's first-order factor: the standard conjugation
M2_SIGN = 1.0
# node values per stacked window field in one carleman_sweep chunk
CHUNK_VALUES = 2**15
# node values of weight-free terms carleman_sweep keeps across its cells
KEEP_VALUES = 2**18


def conjugate(q_values: np.ndarray, ws: WeightSet,
              out: np.ndarray) -> np.ndarray:
    """psi = e^{-s(eta - eta_ref)} q on the window, in out, with zero
    endpoint rows."""
    out[..., [0, -1], :] = 0.0
    np.multiply(ws.conjugation, q_values[..., 1:-1, :],
                out=out[..., 1:-1, :])
    return out


def apply_M1(psi: np.ndarray, c: np.ndarray, ws: WeightSet,
             out: np.ndarray) -> np.ndarray:
    """Interior-row values of div(c grad psi) + s^2 lam^2 c |grad beta|^2
    phi^2 psi + s (d_t eta) psi, in out; zero-order table kept on ws per c."""
    grad_b2, phi = ws.grad_beta_sq, ws.phi
    zero_order = ws.table(("M1 zero order", c.tobytes()), lambda: (
        (ws.s**2 * ws.lam**2) * c[None, :] * grad_b2[None, :] * phi**2
        + ws.s * ws.dt_eta))
    inner = psi[..., 1:-1, :]
    out = divergence_flux(c, inner, ws.grid, out)
    out += zero_order * inner
    return out


def apply_M2(psi: np.ndarray, c: np.ndarray, ws: WeightSet,
             out: np.ndarray, gradient: np.ndarray) -> np.ndarray:
    """Interior-row values of d_t psi + M2_SIGN 2 s lam phi c
    grad(beta).grad(psi) - 2 s lam^2 phi c |grad beta|^2 psi, in out;
    gradient is the (..., rows, n_nodes, dim) buffer of grad psi.  Tables
    kept on ws."""
    grad_b2, phi, key = ws.grad_beta_sq, ws.phi, c.tobytes()
    inner = psi[..., 1:-1, :]
    out = centered_difference(psi, -2, ws.timegrid.dt, out=out)
    grad_psi = discrete_gradient(inner, ws.grid, out=gradient)
    grad_psi *= ws.grad_beta_tilde
    advect = np.sum(grad_psi, axis=-1)
    advect *= ws.table(("M2 advection", key),
                       lambda: M2_SIGN * 2.0 * ws.s * ws.lam * phi * c)
    out += advect
    react = ws.table(("M2 reaction", key),
                     lambda: 2.0 * ws.s * ws.lam**2 * phi * c * grad_b2)
    out -= np.multiply(react, inner, out=advect)
    return out


def _checked(test_id, q_values, grid: Grid, window: TimeGrid) -> np.ndarray:
    q_values = np.asarray(q_values, dtype=float)
    if q_values.shape != (window.steps + 1, grid.n_nodes):
        raise GridError(f"test function {test_id} has shape {q_values.shape}, "
                        f"expected {(window.steps + 1, grid.n_nodes)}")
    if np.max(np.abs(q_values[:, grid.boundary_mask])) > 1e-14:
        raise GridError(
            f"test function {test_id} must vanish on the lateral boundary")
    return q_values


def _test_terms(q: np.ndarray, c: np.ndarray, grid: Grid,
                window: TimeGrid) -> tuple:
    """The weight-free fields of a checked (K, steps+1, n_nodes) stack on
    its interior rows (the endpoint rows carry zero weight): the squared
    residual d_t q - div(c grad q), |grad q|^2, q^2, gamma0_traces(q)."""
    inner = q[:, 1:-1]
    resid = (centered_difference(q, -2, window.dt)
             - divergence_flux(c, inner, grid))
    grad2 = np.sum(discrete_gradient(inner, grid) ** 2, axis=-1)
    return resid**2, grad2, inner**2, gamma0_traces(inner, grid)


def _workspace(size: int, grid: Grid, window: TimeGrid) -> SimpleNamespace:
    """The buffers _stacked_sides fills for stacks of up to size tests; a
    shorter stack takes their leading slices.  field holds M1 psi, M2 psi
    and each weighted integrand in turn."""
    rows, nodes = window.steps - 1, grid.n_nodes
    return SimpleNamespace(psi=np.empty((size, rows + 2, nodes)),
                           field=np.empty((size, rows, nodes)),
                           gradient=np.empty((size, rows, nodes,
                                              grid.dimension)))


def _stacked_sides(q: np.ndarray, terms: tuple, c: np.ndarray, ws: WeightSet,
                   work: SimpleNamespace) -> list:
    """One report per test of a checked (K, steps+1, n_nodes) stack and its
    _test_terms: each stencil and quadrature runs once on the stack, in
    the leading slices of work, a _workspace for at least K tests."""
    grid, window = ws.grid, ws.timegrid
    dt, sw, k = window.dt, space_weights(grid), len(q)
    psi, field = work.psi[:k], work.field[:k]
    conjugate(q, ws, out=psi)
    resid2, grad2, zero2, flux = terms

    def squared(values):
        return window_sum(np.square(values, out=values), sw, dt)

    def weighted(values, weight):
        return window_sum(np.multiply(values, weight, out=field), sw, dt)

    lhs = {
        "m1_sq": squared(apply_M1(psi, c, ws, out=field)),
        "m2_sq": squared(apply_M2(psi, c, ws, out=field,
                                  gradient=work.gradient[:k])),
        "grad": ws.s * ws.lam**2 * weighted(grad2, ws.weight_st(1)),
        "zero": ws.s**3 * ws.lam**4 * weighted(zero2, ws.weight_st(3)),
    }
    rhs = {
        "boundary": ws.s * ws.lam * weighted_boundary_norm(flux, ws),
        "residual": weighted(resid2, ws.weight_st(0)),
    }
    return [EstimateReport.for_weights(
        "carleman", {key: float(v[i]) for key, v in lhs.items()},
        {key: float(v[i]) for key, v in rhs.items()}, ws,
        steps=window.steps, m2_sign=M2_SIGN) for i in range(k)]


def carleman_sides(q_values: np.ndarray, c: np.ndarray,
                   ws: WeightSet) -> EstimateReport:
    """Both sides for one test function: the one-test stack."""
    q = _checked("q_values", q_values, ws.grid, ws.timegrid)[None]
    terms = _test_terms(q, c, ws.grid, ws.timegrid)
    work = _workspace(1, ws.grid, ws.timegrid)
    return _stacked_sides(q, terms, c, ws, work)[0]


# -- test-function suite --------------------------------------------------


def make_test_suite(grid: Grid, window: TimeGrid, count: int,
                    seed: int) -> list:
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
    """One report per (test, s, lam); summary maps (s, lam) to the max
    ratio over the suite.  The suite is checked once and evaluated in
    stacks of at most CHUNK_VALUES node values; a stack's _test_terms are
    kept for the later cells while all kept terms fit in KEEP_VALUES node
    values, and formed anew otherwise."""
    if not suite or not list(s_list) or not list(lam_list):
        raise GridError("empty suite or parameter list")
    tests = [_checked(test_id, q, grid, window) for test_id, q in suite]
    size = min(len(tests), max(1, CHUNK_VALUES // tests[0].size))
    work = _workspace(size, grid, window)
    kept, room = {}, KEEP_VALUES
    records = []
    summary = {}
    for s in s_list:
        for lam in lam_list:
            ws = build_weights(grid, window, lam=lam, s=s, m=m_weight, x0=x0)
            reports = []
            for i in range(0, len(tests), size):
                q = np.stack(tests[i:i + size])
                terms = kept.get(i)
                if terms is None:
                    terms = _test_terms(q, c, grid, window)
                    values = sum(a.size for a in (*terms[:3],
                                                  *terms[3].values()))
                    if values <= room:
                        kept[i], room = terms, room - values
                reports += _stacked_sides(q, terms, c, ws, work)
            cell = (float(s), float(lam))
            records += [(test_id, *cell, rep)
                        for (test_id, _), rep in zip(suite, reports)]
            summary[cell] = max([0.0] + [rep.ratio for rep in reports])
    return records, summary
