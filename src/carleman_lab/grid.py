"""Uniform tensor-product grids on the unit interval / unit square.

Fields live on nodes and are stored as flat float arrays of length
(n+1)**dim; in 2D the node (ix, iy) sits at flat index ix*(n+1)+iy.
All discrete calculus (gradient, laplacian, conductivity flux form,
trapezoid quadrature, boundary traces) is centralized here so that
every consumer differentiates and integrates the same way; the
laplacian is the unit-conductivity flux form.

Batch convention: every stencil indexes the spatial axes from the end,
so a field may carry leading batch axes, typically a (time, node) stack
of shape (T, n_nodes).  The stencils act elementwise along the batch,
so one call on a stack equals the per-row calls stacked, bit for bit.
Only the conductivity c is a single nodal field.  A stencil given an
out array, of any layout, writes its result there instead of
allocating one, with the same arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

# face name -> (axis, side); side 0 is the low end of the axis
_FACES = {
    1: {"left": (0, 0), "right": (0, 1)},
    2: {"west": (0, 0), "east": (0, 1), "south": (1, 0), "north": (1, 1)},
}


class GridError(ValueError):
    """Raised for malformed grid parameters or invalid fields."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid with an even number of steps.

    The even-step requirement makes the interval midpoint an exact grid
    node, which the weighted snapshot checks rely on.
    """

    t0: float
    t_end: float
    steps: int
    times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.t_end > self.t0 >= 0.0):
            raise GridError(f"need t_end > t0 >= 0, got ({self.t0}, {self.t_end})")
        if self.steps < 2 or self.steps % 2 != 0:
            raise GridError(f"steps must be even and >= 2, got {self.steps}")
        object.__setattr__(
            self, "times", np.linspace(self.t0, self.t_end, self.steps + 1)
        )

    @property
    def dt(self) -> float:
        return (self.t_end - self.t0) / self.steps

    @property
    def midpoint_index(self) -> int:
        return self.steps // 2

    @property
    def t_mid(self) -> float:
        # linspace midpoint of an even grid; pin the analytic value
        return 0.5 * (self.t0 + self.t_end)

    def index_of(self, t: float) -> int:
        i = int(round((t - self.t0) / self.dt))
        if i < 0 or i > self.steps or abs(self.times[i] - t) > 1e-12:
            raise GridError(f"t={t} is not a node of this time grid")
        return i

    def window(self, t0: float) -> "TimeGrid":
        """Sub-grid from t0 to t_end sharing the step size; it must again
        have an even number of steps.  index_of(t0) is the offset of its
        first node in this grid."""
        offset = self.index_of(t0)
        if (self.steps - offset) % 2 != 0 or self.steps - offset < 2:
            raise GridError(f"window ({self.times[offset]}, {self.t_end}) has "
                            f"{self.steps - offset} steps, not an even number >= 2")
        return TimeGrid(self.times[offset], self.t_end, self.steps - offset)


class Grid:
    """Nodes of [0,1]^dim at spacing h = 1/n, with a flagged observation
    boundary (gamma0) given as a list of face names."""

    def __init__(self, dimension: int, n: int, gamma0_faces: tuple[str, ...]):
        if dimension not in (1, 2):
            raise GridError(f"dimension must be 1 or 2, got {dimension}")
        if n < 4:
            raise GridError(f"need at least 4 cells per axis, got n={n}")
        known = _FACES[dimension]
        if not gamma0_faces:
            raise GridError("gamma0_faces must name at least one face")
        for f in gamma0_faces:
            if f not in known:
                raise GridError(f"unknown face {f!r} for dimension {dimension}")
        if len(set(gamma0_faces)) != len(gamma0_faces):
            raise GridError("duplicate face in gamma0_faces")
        if set(gamma0_faces) == set(known):
            raise GridError("gamma0 must be a strict subset of the boundary")

        self.dimension = dimension
        self.n = n
        self.h = 1.0 / n
        self.gamma0_faces = tuple(gamma0_faces)
        self.shape = (n + 1,) * dimension
        self.n_nodes = (n + 1) ** dimension

        axis = np.linspace(0.0, 1.0, n + 1)
        grids = np.meshgrid(*(axis,) * dimension, indexing="ij")
        self.coords = np.stack(grids, axis=-1).reshape(-1, dimension)

        self.lattice = lattice(dimension, n)
        self.boundary_mask = self.lattice.depth == 0

        idx = np.arange(self.n_nodes).reshape(self.shape)
        self.face_names = tuple(known)
        # face -> read-only (3, face_nodes) flat indices of the face layer
        # and the two inward layers, in FACE_STENCIL order
        self.face_layers = {}
        self._face_normals = {}
        for name, (a, side) in known.items():
            rows = [n, n - 1, n - 2] if side else [0, 1, 2]
            layers = np.moveaxis(idx, a, 0)[rows].reshape(3, -1)
            layers.flags.writeable = False
            self.face_layers[name] = layers
            nu = np.zeros(dimension)
            nu[a] = 1.0 if side else -1.0
            self._face_normals[name] = nu

    # -- structure queries ------------------------------------------------

    def face_nodes(self, face: str) -> np.ndarray:
        """Flat indices of the nodes of one closed face, in axis order."""
        return self.face_layers[face][0]

    def face_normal(self, face: str) -> np.ndarray:
        return self._face_normals[face]

    def face_axis_weights(self) -> np.ndarray:
        """Trapezoid weights along a face, the same on every face: the
        product of the axis weights over its d - 1 axes (one 1.0 in 1D)."""
        axes = [_axis_weights(self.n, self.h)] * (self.dimension - 1)
        return functools.reduce(np.multiply.outer, axes, np.ones(1)).ravel()

    def reshape(self, flat: np.ndarray) -> np.ndarray:
        """(..., n_nodes) -> (..., *shape); leading axes are kept."""
        flat = np.asarray(flat)
        return flat.reshape(flat.shape[:-1] + self.shape)

    def __repr__(self):
        return (
            f"Grid(dim={self.dimension}, n={self.n}, "
            f"gamma0={list(self.gamma0_faces)})"
        )


@functools.lru_cache(maxsize=16)
def lattice(dimension: int, n: int) -> SimpleNamespace:
    """Read-only index tables of the (dimension, n) node lattice: depth,
    each node's distance in nodes to the boundary; lo and hi, the lower
    and upper node of each face (lattice edge), numbered axis by axis
    with that axis moved first; up[a, node], the face above node along
    axis a (-1 on the top layer)."""
    shape, axes = (n + 1,) * dimension, range(dimension)
    ijk = np.indices(shape).reshape(dimension, -1)
    ends = [np.moveaxis(np.arange(ijk.shape[1]).reshape(shape), a, 0)
            for a in axes]
    lo = np.concatenate([ia[:-1].ravel() for ia in ends])
    hi = np.concatenate([ia[1:].ravel() for ia in ends])
    up = np.full(ijk.shape, -1)
    up[np.repeat(axes, lo.size // dimension), lo] = np.arange(lo.size)
    tables = SimpleNamespace(depth=np.min(np.minimum(ijk, n - ijk), axis=0),
                             lo=lo, hi=hi, up=up)
    for value in vars(tables).values():
        value.flags.writeable = False
    return tables


# -- stencils -------------------------------------------------------------


def _axis_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


# second-order one-sided outward derivative, over 2h, on Grid.face_layers rows
FACE_STENCIL = (3.0, -4.0, 1.0)


def one_sided(layers, h: float, sign: float = 1.0) -> np.ndarray:
    """FACE_STENCIL on three layers, the end layer first: the outward
    derivative there, or the inward one for sign = -1 (put on the
    coefficients, so signed zeros round as written)."""
    (w0, w1, w2), (v0, v1, v2) = (sign * w for w in FACE_STENCIL), layers
    return (w0 * v0 + w1 * v1 + w2 * v2) / (2.0 * h)


def centered_difference(values: np.ndarray, axis: int, h: float,
                        out: np.ndarray | None = None) -> np.ndarray:
    """(v[k+1] - v[k-1]) / (2h) at the interior indices k of one axis,
    which comes out two entries shorter.  axis is negative."""
    rest = (slice(None),) * (-1 - axis)
    diff = np.subtract(values[(..., slice(2, None), *rest)],
                       values[(..., slice(None, -2), *rest)], out=out)
    return np.divide(diff, 2.0 * h, out=out)


def first_derivative(values: np.ndarray, axis: int, h: float,
                     out: np.ndarray | None = None) -> np.ndarray:
    """Centered first derivative, second-order one-sided at the ends.
    axis is negative: spatial axes count from the end."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    o = np.empty_like(v) if out is None else np.moveaxis(out, axis, -1)
    centered_difference(v, -1, h, out=o[..., 1:-1])
    o[..., 0] = one_sided((v[..., 0], v[..., 1], v[..., 2]), h, sign=-1.0)
    o[..., -1] = one_sided((v[..., -1], v[..., -2], v[..., -3]), h)
    return np.moveaxis(o, -1, axis)


def _flux_axis(c: np.ndarray, values: np.ndarray, axis: int, h: float,
               out: np.ndarray | None = None) -> np.ndarray:
    """d/dx (c d/dx) along one axis: conservative face-mean form at
    interior nodes, c*f'' + c'*f' with one-sided stencils at the ends
    (the 4-point closure of f'' is first-order there, which is all the
    boundary snapshots need).  c carries no batch axes; values may.
    """
    cm = np.moveaxis(c, axis, -1)
    v = np.moveaxis(values, axis, -1)
    o = np.empty_like(v) if out is None else np.moveaxis(out, axis, -1)
    cf = 0.5 * (cm[..., 1:] + cm[..., :-1])  # conductivity on cell faces
    flux = v[..., 1:] - v[..., :-1]
    flux *= cf
    np.subtract(flux[..., 1:], flux[..., :-1], out=o[..., 1:-1])
    o[..., 1:-1] /= h**2

    for i0, i1, i2, i3 in ((0, 1, 2, 3), (-1, -2, -3, -4)):
        d2 = (2.0 * v[..., i0] - 5.0 * v[..., i1] + 4.0 * v[..., i2]
              - v[..., i3]) / h**2
        # c'f' from both inward derivatives: their signs cancel exactly
        dc, d1 = (one_sided((a[..., i0], a[..., i1], a[..., i2]), h,
                            sign=-1.0) for a in (cm, v))
        o[..., i0] = cm[..., i0] * d2 + dc * d1
    return np.moveaxis(o, -1, axis)


def discrete_gradient(f: np.ndarray, grid: Grid,
                      out: np.ndarray | None = None) -> np.ndarray:
    """Nodal gradient, shape (..., n_nodes, dim)."""
    f = np.asarray(f, dtype=float)
    v = grid.reshape(f)
    d = grid.dimension
    if out is None:
        out = np.empty(f.shape + (d,))
    for a in range(d):
        first_derivative(v, a - d, grid.h, out=grid.reshape(out[..., a]))
    return out


def discrete_laplacian(f: np.ndarray, grid: Grid) -> np.ndarray:
    """divergence_flux with unit conductivity."""
    return divergence_flux(np.ones(grid.n_nodes), f, grid)


def divergence_flux(c: np.ndarray, f: np.ndarray, grid: Grid,
                    out: np.ndarray | None = None) -> np.ndarray:
    """div(c grad f) on nodes, for f of shape (..., n_nodes): the axes'
    _flux_axis terms summed in axis order.  c is a conductivity, so it
    must be finite and strictly positive."""
    c = np.asarray(c, dtype=float)
    if c.shape != (grid.n_nodes,):
        raise GridError(f"conductivity shape {c.shape} != ({grid.n_nodes},)")
    if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
        raise GridError("conductivity must be finite and strictly positive")
    f = np.asarray(f, dtype=float)
    cv, v, d = grid.reshape(c), grid.reshape(f), grid.dimension
    o = _flux_axis(cv, v, -d, grid.h,
                   out=None if out is None else grid.reshape(out))
    o += 0.0   # the sum starts at 0.0, which turns -0.0 into 0.0
    for a in range(1, d):
        o += _flux_axis(cv, v, a - d, grid.h)
    return o.reshape(f.shape)


def normal_derivative(f: np.ndarray, grid: Grid, face: str) -> np.ndarray:
    """Outward normal derivative on the nodes of one face, shape
    (..., face_nodes)."""
    # take, unlike f[..., idx], returns C order, so BLAS reductions over
    # a trace stack see the same layout as stacked per-row traces
    return one_sided((np.take(f, layer, axis=-1)
                      for layer in grid.face_layers[face]), grid.h)


# -- quadrature -----------------------------------------------------------


def space_weights(grid: Grid) -> np.ndarray:
    w = _axis_weights(grid.n, grid.h)
    return functools.reduce(np.multiply.outer, [w] * grid.dimension).ravel()
