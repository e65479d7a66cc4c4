"""Test-only helpers: the reference weight set, a vector divergence,
scipy CSR views of the flux-form operator and of a stepper's B_bd for
the bitwise pins, the whole-grid flux map and its full-column transpose
as references, and an adjoint sweep on a fresh buffer."""

import numpy as np
import scipy.sparse

from carleman_lab.forward import CrankNicolsonStepper, _flux_values
from carleman_lab.grid import (FACE_STENCIL, Grid, TimeGrid,
                               centered_difference, first_derivative)
from carleman_lab.observe import gamma0_traces
from carleman_lab.weights import WeightSet, build_weights


def default_weights(setup, lam: float = 1.0, s: float = 1.0,
                    m: float = 1.1, x0=None) -> WeightSet:
    """The setup's weights at the anchor -0.1 on every axis."""
    if x0 is None:
        x0 = [-0.1] * setup.grid.dimension
    return build_weights(setup.grid, setup.window, lam=lam, s=s, m=m, x0=x0)


def discrete_divergence(vec: np.ndarray, grid: Grid) -> np.ndarray:
    """Divergence of a nodal vector field (..., n_nodes, dim), same
    stencils as discrete_gradient componentwise."""
    vec = np.asarray(vec)
    out = np.zeros(vec.shape[:-2] + grid.shape)
    for a in range(grid.dimension):
        out += first_derivative(grid.reshape(vec[..., a]),
                                a - grid.dimension, grid.h)
    return out.reshape(vec.shape[:-1])


def _csr(data: np.ndarray, indices: np.ndarray, indptr: np.ndarray,
         n_cols: int):
    """A scipy CSR matrix on the values.  The copies leave the caller a
    matrix it may modify without touching the shared pattern."""
    return scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                   shape=(indptr.size - 1, n_cols))


def flux_matrices(c: np.ndarray, grid: Grid):
    """Sparse interior rows of the flux-form operator.

    Returns (A_int, B_bd, interior_idx, boundary_idx): A_int acts on
    interior values, B_bd on boundary values, and for any full field f
    with interior part v and boundary part b,

        divergence_flux(c, f)[interior] == A_int v + B_bd b

    up to round-off (interior rows share the face-mean formula exactly).
    """
    p, a_data, b_data = _flux_values(np.asarray(c, dtype=float), grid)
    return (_csr(a_data, p.a_indices, p.a_indptr, p.interior.size),
            _csr(b_data, p.bd[1], p.bd[0], p.boundary.size),
            p.interior, p.boundary)


def stepper_boundary_matrix(st: CrankNicolsonStepper):
    """The stepper's B_bd, its members' rows one after another, as a
    scipy CSR matrix on its own values."""
    indptr, indices, data = st._boundary_matrix
    return _csr(data, indices, indptr, st.boundary.size)


def adjoint_rows(st: CrankNicolsonStepper, source: np.ndarray) -> np.ndarray:
    """st.adjoint_sweep from an (M + 1, n) source, on a buffer whose rows
    the sweep writes hold NaN first, so that a read of one shows."""
    work = np.full((source.shape[0], 2 * source.shape[1]), np.nan)
    work[:, source.shape[1]:] = source
    return st.adjoint_sweep(work)


def observed_flux_reference(values: np.ndarray, grid: Grid,
                            timegrid: TimeGrid, window: TimeGrid) -> dict:
    """observe.observed_flux as the gamma0_traces of the centered time
    difference of the whole grid on the window's rows."""
    off = timegrid.index_of(window.t0)
    return gamma0_traces(
        centered_difference(values[..., off : off + window.steps + 1, :],
                            -2, timegrid.dt), grid)


def observed_flux_transpose_reference(trace_by_face: dict, grid: Grid,
                                      timegrid: TimeGrid,
                                      window: TimeGrid) -> np.ndarray:
    """observe.observed_flux_transpose on every column: the
    (timegrid.steps + 1, n_nodes) S scattered face by face, layer by
    layer, the + part before the - part."""
    source = np.zeros((timegrid.steps + 1, grid.n_nodes))
    off = timegrid.index_of(window.t0)
    rows = source[off : off + window.steps + 1]
    inv2h, half = 1.0 / (2.0 * grid.h), 1.0 / (2.0 * timegrid.dt)
    for face in grid.gamma0_faces:
        weighted = window.dt * grid.face_axis_weights() * trace_by_face[face]
        for layer, coeff in zip(grid.face_layers[face], FACE_STENCIL):
            part = coeff * inv2h * half * weighted
            rows[2:, layer] += part
            rows[:-2, layer] -= part
    return source
