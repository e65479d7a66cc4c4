"""Test-only helpers: the reference weight set and a vector divergence."""

import numpy as np

from carleman_lab.grid import Grid, _d1
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
        out += _d1(grid.reshape(vec[..., a]), a - grid.dimension, grid.h)
    return out.reshape(vec.shape[:-1])
