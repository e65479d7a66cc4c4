"""Measurement extraction and the weighted norms used by every estimate.

The measured data are the normal flux of the time derivative on the
observation boundary over the window (t0, T), plus one interior snapshot
at the window midpoint T' (the field, its gradient, laplacian and
gradient of laplacian).  observed_flux is that flux map, and the data,
the reconstruction misfit and the stability check all go through it,
and the misfit gradient through observed_flux_transpose beside it.
gamma0_traces is the normal trace on the observed faces Gamma0 (that
of observed_flux, bitwise, is formed on the face layers only), and
weighted_boundary_norm its one weighted quadrature over (t0, T) x Gamma0.

Space-time integrals over the window use interior time nodes with
uniform weight dt: the weighted integrands vanish at the endpoints by
construction, and the plain integrals share the same measure so that
weighted/plain comparisons are like for like.

On a stack with a leading member axis, the norms give one value per
member, each reduced as its own field would be.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forward import SnapshotPackage, SpaceTimeField, snapshot_package
from .grid import (FACE_STENCIL, Grid, GridError, TimeGrid,
                   centered_difference, normal_derivative, one_sided,
                   space_weights)
from .report import write_csv
from .weights import WeightSet


@dataclass
class ObservationSet:
    """flux[face] has shape (window interior nodes, face nodes), one entry
    per observed face in the grid's order; snapshot is the field at T'."""

    flux: dict
    snapshot: SnapshotPackage

    def validate(self):
        for face, arr in self.flux.items():
            if not np.all(np.isfinite(arr)):
                raise GridError(f"non-finite flux trace on face {face!r}")
        for name in ("q", "grad_q", "lap_q", "grad_lap_q"):
            if not np.all(np.isfinite(getattr(self.snapshot, name))):
                raise GridError(f"non-finite snapshot {name}")


def gamma0_traces(values: np.ndarray, grid: Grid) -> dict:
    """normal_derivative of a (..., node) stack on each observed face, by
    face in the grid's order."""
    return {face: normal_derivative(values, grid, face)
            for face in grid.gamma0_faces}


def observed_flux(values: np.ndarray, grid: Grid, timegrid: TimeGrid,
                  window: TimeGrid) -> dict:
    """d_nu d_t of a (..., time, node) stack, as ObservationSet.flux: the
    gamma0_traces of the centered time difference on each interior row of
    the window, formed on each observed face's three layers only."""
    off = timegrid.index_of(window.t0)
    rows = values[..., off : off + window.steps + 1, :]
    return {face: one_sided(np.moveaxis(centered_difference(
                np.take(rows, grid.face_layers[face], axis=-1), -3,
                timegrid.dt), -2, 0), grid.h)
            for face in grid.gamma0_faces}


def observed_flux_transpose(trace_by_face: dict, grid: Grid,
                            timegrid: TimeGrid, window: TimeGrid,
                            out: np.ndarray) -> np.ndarray:
    """observed_flux transposed under boundary_norm_plain's quadrature,
    on the interior columns the adjoint reads: out, (timegrid.steps + 1,
    n_interior), becomes those columns of the S with sum(V * S) equal to
    that quadrature of observed_flux(V) * R, R the traces by face."""
    column = np.cumsum(~grid.boundary_mask) - 1   # among the interior
    out[...] = 0.0
    off = timegrid.index_of(window.t0)
    rows = out[off : off + window.steps + 1]   # window rows, a view
    inv2h, half = 1.0 / (2.0 * grid.h), 1.0 / (2.0 * timegrid.dt)
    for face in grid.gamma0_faces:
        weighted = window.dt * grid.face_axis_weights() * trace_by_face[face]
        # each (row, node) pair appears once per index set, and the +
        # part lands before the - part, as in a per-row scatter
        for layer, coeff in zip(grid.face_layers[face], FACE_STENCIL):
            keep = ~grid.boundary_mask[layer]
            part = coeff * inv2h * half * weighted[:, keep]
            cols = column[layer[keep]]
            rows[2:, cols] += part     # rows k + 1
            rows[:-2, cols] -= part    # rows k - 1
    return out


def extract_observations(field: SpaceTimeField, grid: Grid,
                         window: TimeGrid) -> ObservationSet:
    obs = ObservationSet(
        flux=observed_flux(field.values, grid, field.timegrid, window),
        snapshot=snapshot_package(field, grid, window))
    obs.validate()
    return obs


# -- weighted norms -------------------------------------------------------


def _square(field: np.ndarray, grid: Grid) -> np.ndarray:
    """|field|^2 per node; only a trailing (n_nodes, dim) is a vector."""
    field = np.asarray(field, dtype=float)
    if field.shape[-2:] == (grid.n_nodes, grid.dimension):
        return np.sum(field**2, axis=-1)
    return field**2


def _space_quadrature(vals: np.ndarray, grid: Grid):
    """Trapezoid quadrature, member by member for a (K, n_nodes) stack."""
    sw = space_weights(grid)
    return float(sw @ vals) if vals.ndim == 1 else np.array([sw @ v for v in vals])


def _check_finite(integrand: np.ndarray, what: str):
    if not np.all(np.isfinite(integrand)):
        where = np.argwhere(~np.isfinite(integrand))[0]
        raise GridError(f"non-finite {what} integrand at index {tuple(where)}")


def window_sum(integrand: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """dt * sum over the interior window rows of the spatial quadrature
    with weights w: one value per leading index of a (..., rows, nodes)
    stack, each reduced as its own (rows, nodes) array would be."""
    return dt * np.sum(integrand @ w, axis=-1)


def weighted_norm_space(field: np.ndarray, ws: WeightSet, k: float) -> float:
    """integral of phi^k e^{-2s(eta - eta_ref)} |field|^2 at the T' slice."""
    vals = _square(field, ws.grid) * ws.weight_tprime(k)
    _check_finite(vals, "weighted space")
    return _space_quadrature(vals, ws.grid)


def weighted_norm_spacetime(values: np.ndarray, ws: WeightSet, k: float) -> float:
    """Same weight over the whole window for a static field, (nodes,) or
    (nodes, dim), held constant in time."""
    values = np.asarray(values, dtype=float)
    grid = ws.grid
    if values.shape not in ((grid.n_nodes,), (grid.n_nodes, grid.dimension)):
        raise GridError(f"static field has shape {values.shape}")
    vals = _square(values, grid)[None, :] * ws.weight_st(k)
    _check_finite(vals, "weighted space-time")
    return float(window_sum(vals, space_weights(grid), ws.timegrid.dt))


def weighted_boundary_norm(trace_by_face: dict, ws: WeightSet,
                           normal_beta_factor: bool = False) -> float:
    """integral over (t0,T) x gamma0 of phi e^{-2s(eta-eta_ref)} |trace|^2,
    optionally carrying the d_nu(beta) factor the two-sided stability
    check puts on its observation term."""
    grid = ws.grid
    total = 0.0
    for face, trace in trace_by_face.items():
        nodes = grid.face_nodes(face)
        trace = np.asarray(trace, dtype=float)
        if trace.shape[-2:] != (ws.timegrid.steps - 1, nodes.size):
            raise GridError(
                f"trace on face {face!r} has shape {trace.shape}, expected "
                f"({ws.timegrid.steps - 1}, {nodes.size})"
            )
        factor = ws.boundary_weight(face)
        if normal_beta_factor:
            factor = factor * ws.normal_beta(face)[None, :]
        vals = factor * trace**2
        _check_finite(vals, "weighted boundary")
        total = total + window_sum(vals, grid.face_axis_weights(),
                                   ws.timegrid.dt)
    return float(total) if np.ndim(total) == 0 else total


# -- plain (unweighted) companions ---------------------------------------


def norm_space_plain(field: np.ndarray, grid: Grid) -> float:
    vals = _square(field, grid)
    _check_finite(vals, "space")
    return _space_quadrature(vals, grid)


def boundary_norm_plain(trace_by_face: dict, grid: Grid, window: TimeGrid) -> float:
    total = 0.0
    for face, trace in trace_by_face.items():
        trace = np.asarray(trace, dtype=float)
        _check_finite(trace, "boundary trace")
        total = total + window_sum(trace**2, grid.face_axis_weights(),
                                   window.dt)
    return float(total) if np.ndim(total) == 0 else total


def observation_distance_plain(a: ObservationSet, b: ObservationSet,
                               grid: Grid, window: TimeGrid) -> dict:
    """The four-term unweighted data distance: boundary flux difference
    over the window plus the three T'-snapshot derivative differences;
    per member, with the differences formed once, for a stack a."""
    if tuple(a.flux) != tuple(b.flux):
        raise GridError("observation sets cover different faces")
    sa, sb = a.snapshot, b.snapshot
    terms = {
        "flux": boundary_norm_plain({f: a.flux[f] - b.flux[f] for f in a.flux},
                                    grid, window),
        "grad_lap": norm_space_plain(sa.grad_lap_q - sb.grad_lap_q, grid),
        "lap": norm_space_plain(sa.lap_q - sb.lap_q, grid),
        "grad": norm_space_plain(sa.grad_q - sb.grad_q, grid),
    }
    terms["total"] = sum(terms.values())
    return terms


# -- CSV output -----------------------------------------------------------


def observations_to_csv(obs: ObservationSet, path):
    def rows():
        for face, trace in obs.flux.items():
            for (ti, ni), v in np.ndenumerate(trace):
                yield f"flux:{face}", ni, ti, v
        snap = obs.snapshot
        for name in ("q", "lap_q"):
            for ni, v in enumerate(getattr(snap, name)):
                yield name, ni, 0, v
        for name in ("grad_q", "grad_lap_q"):
            for (ni, comp), v in np.ndenumerate(getattr(snap, name)):
                yield name, ni, comp, v
        yield "t_prime", 0, 0, snap.t_prime

    write_csv(path, ["kind", "index1", "index2", "value"], rows())
