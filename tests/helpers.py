"""Test-only helpers: the reference weight set, a vector divergence, and
scipy CSR views of the flux-form operator for the bitwise pins."""

import numpy as np
import scipy.sparse

from carleman_lab.forward import CrankNicolsonStepper, _flux_values
from carleman_lab.grid import Grid, first_derivative
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
            _csr(b_data, p.b_indices, p.b_indptr, p.boundary.size),
            p.interior, p.boundary)


def stepper_matrix(st: CrankNicolsonStepper):
    """The stepper's A_int as a scipy CSR matrix on its own values."""
    p = st._pattern
    return _csr(st._a_data, p.a_indices, p.a_indptr, st.interior.size)
