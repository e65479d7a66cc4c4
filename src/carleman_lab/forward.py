"""Crank-Nicolson solver for d_t q = div(c(x) grad q) with Dirichlet data.

The semidiscrete operator is the flux-form stencil from the grid module,
split into interior and boundary columns.  Its sparse structure depends
only on the grid, so it is worked out once per (dimension, n) as a
read-only pattern, and each conductivity fills in only the values.
Each step is one CSR kernel call, which forms the explicit half-step,
and one solve of (I - dt/2 A) v = rhs with the stepper's banded
Cholesky factor: the interior nodes are numbered row-major, so the band
is tridiagonal in 1D and n - 1 wide in 2D.  The boundary drive is
tabulated once per (drive, time grid) and its contribution to every
step formed in one product.

A (K, n_nodes) stack of conductivities is one block-diagonal system,
each member's field bitwise its own single solve, swept whole; the
stability sweep, the one caller of many members, caps its stacks.

The stepper's adjoint sweep runs the transposed recurrence on the same
factor for the reconstruction gradient, so the forward map and its
transpose agree to machine precision in every dimension.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Callable

import numpy as np

from .grid import (Grid, GridError, TimeGrid, discrete_gradient,
                   discrete_laplacian, first_derivative, lattice)
from .report import write_csv


class SolverError(RuntimeError):
    """Linear-solver stall or non-finite state during time stepping."""


def _scipy_extension(package: str, name: str):
    """scipy's compiled module package.name, loaded from its file so that
    no scipy __init__ runs, scipy's own included (find_spec of a top-level
    name imports nothing): importing scipy.linalg or scipy.sparse costs
    more start-up time than every solve of a short run."""
    root, spec = importlib.util.find_spec("scipy"), None
    if root is not None:
        finder = importlib.machinery.FileFinder(
            os.path.join(root.submodule_search_locations[0],
                         *package.split(".")[1:]),
            (importlib.machinery.ExtensionFileLoader,
             importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(f"{package}.{name}")
    if spec is None:
        from importlib.metadata import version
        raise ImportError(f"scipy {version('scipy')} has no compiled "
                          f"module {package}.{name}", name=f"{package}.{name}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # CPython files the module in sys.modules as it creates it; a later
    # import of the package then loads it the ordinary way instead, and
    # binds it on the package
    sys.modules.pop(spec.name, None)
    return module


# Private modules: the LAPACK wrappers scipy.linalg.get_lapack_funcs
# hands out, and the kernels behind scipy's CSR @ vector and @ matrix.
# tests/test_forward.py guards their names and bits on every supported
# scipy, tests/test_cli.py that the two packages stay unimported.
_flapack = _scipy_extension("scipy.linalg", "_flapack")
_sparsetools = _scipy_extension("scipy.sparse", "_sparsetools")
_pbtrf, _pbtrs = _flapack.dpbtrf, _flapack.dpbtrs
csr_matvec, csr_matvecs = _sparsetools.csr_matvec, _sparsetools.csr_matvecs


@dataclass
class HeatProblem:
    """Conductivity, boundary data and initial state.

    g maps a time to a full-length nodal array; only its boundary entries
    are read.  g must be a pure function of t: solve_heat tabulates it
    once per time grid and reuses the table for every later solve with
    the same g.  c may be a (K, n_nodes) stack, K conductivities sharing
    the rest.  The solver asks nothing of the data's sign; the setups
    module keeps its own data at or above 1.
    """

    c: np.ndarray
    g: Callable[[float], np.ndarray]
    q0: np.ndarray

    def validate(self, grid: Grid):
        c = np.asarray(self.c, dtype=float)
        q0 = np.asarray(self.q0, dtype=float)
        if c.ndim > 2 or {c.shape[-1:], q0.shape} != {(grid.n_nodes,)}:
            raise GridError("c and q0 must be nodal fields on the grid")
        if not np.all(np.isfinite(c)) or np.any(c <= 0.0):
            raise GridError("conductivity must be finite and positive")
        if not np.all(np.isfinite(q0)):
            raise GridError("q0 must be finite")


@dataclass
class SpaceTimeField:
    """values[..., time_index, node] over a full time grid (members first)."""

    values: np.ndarray
    grid: Grid
    timegrid: TimeGrid

    def __post_init__(self):
        expect = (self.timegrid.steps + 1, self.grid.n_nodes)
        if self.values.shape[-2:] != expect:
            raise GridError(f"field shape {self.values.shape} != {expect}")

    def at_time(self, t: float) -> np.ndarray:
        return self.values[..., self.timegrid.index_of(t), :]

    def window_values(self, window: TimeGrid) -> np.ndarray:
        """Rows of this field on the nodes of a sub-window."""
        off = self.timegrid.index_of(window.t0)
        if abs(window.dt - self.timegrid.dt) > 1e-14:
            raise GridError("window must share the step size")
        return self.values[..., off : off + window.steps + 1, :]


@functools.lru_cache(maxsize=16)
def _flux_pattern(dimension: int, n: int) -> SimpleNamespace:
    """Structure of the flux-form operator on a (dimension, n) grid,
    shared read-only by every conductivity on it.  It is one stencil
    table: row i is interior node p = interior[i] and lists, in
    ascending node order, p - s_a for a = 0 .. d-1, p, then p + s_a for
    a = d-1 .. 0 (s_a = (n+1)^(d-1-a), the node stride of axis a).  An
    off-diagonal entry carries the grid.lattice face between its nodes,
    the diagonal its index after the faces.

    Fields: interior, boundary; diag_faces, the 2d faces at each node in
    the order up[0, p], up[0, p - s_0], up[1, p], up[1, p - s_1] that its
    diagonal sums them in; a_indptr, a_indices and a_gather (into the
    face values followed by the diagonal) of A_int, the table in interior
    columns; b_indptr, b_indices and b_faces of B_bd, the table in
    boundary columns; band_shape, band_slots (flat, Fortran-ordered),
    band_entries (positions in A_int's data) and band_eye (I's entries
    there) of the upper band storage of B = I - dt/2 A_int; fwd_ and
    adj_ indptr, indices, gather (into [dt/2 A_int, dt/2, 1, -1]) and
    blocks (each entry's column block) of the step matrices [dt/2 A + I
    | dt/2 I | 0 | dt/2 I] and [-I | dt/2 A + I] on blocks of n_interior
    columns, A_int's rows with identity entries appended."""
    lat = lattice(dimension, n)
    inside = lat.depth > 0
    interior, boundary = np.flatnonzero(inside), np.flatnonzero(~inside)
    ni, axes = interior.size, np.arange(dimension)
    stride = (n + 1) ** axes[::-1]
    nodes = interior[:, None] + np.concatenate((-stride, [0], stride[::-1]))
    faces = np.column_stack((lat.up[axes, nodes[:, :dimension]],
                             lat.lo.size + np.arange(ni),
                             lat.up[axes[::-1]][:, interior].T))
    # a node's number among the interior or among the boundary nodes
    number = np.where(inside, np.cumsum(inside), np.cumsum(~inside)) - 1
    cols, in_a = number[nodes].astype(np.int32), inside[nodes]

    def csr(keep, *tables):
        """indptr and the kept entries of each table, row by row."""
        indptr = np.append(0, np.cumsum(np.sum(keep, axis=1)))
        return (indptr.astype(np.int32), *(table[keep] for table in tables))

    a_indptr, a_cols, a_gather = csr(in_a, cols, faces)
    a_rows = np.repeat(np.arange(ni, dtype=np.int32), np.diff(a_indptr))
    upper = np.flatnonzero(a_cols >= a_rows)
    u = int(np.max(a_cols[upper] - a_rows[upper]))
    position = np.full(nodes.shape, -1)  # in A_int's data
    position[in_a] = np.arange(a_cols.size)

    def extended(a_block, blocks, values):
        """A_int's rows moved a_block blocks right, then identity entries
        in the given blocks with the given gather values."""
        eye = np.ones((ni, len(blocks)), dtype=bool)
        eye_cols = np.add.outer(np.arange(ni), ni * np.array(blocks))
        tables = (np.hstack((cols + a_block * ni, eye_cols)),
                  np.hstack((position, a_cols.size + eye * np.array(values))),
                  np.hstack((np.full(nodes.shape, a_block),
                             eye * np.array(blocks))))
        return csr(np.hstack((in_a, eye)), *(t.astype(np.int32) for t in tables))

    fwd, adj = extended(0, (1, 3, 0), (0, 0, 1)), extended(1, (1, 0), (1, 2))
    b_indptr, b_indices, b_faces = csr(~in_a, cols, faces)
    # the columns of up[a, p] and up[a, p - s_a], axis by axis
    diag_columns = [k for a in axes for k in (2 * dimension - a, a)]
    pattern = SimpleNamespace(
        interior=interior, boundary=boundary,
        diag_faces=faces[:, diag_columns].T.copy(),
        a_indptr=a_indptr, a_indices=a_cols, a_gather=a_gather,
        b_indptr=b_indptr, b_indices=b_indices, b_faces=b_faces,
        band_shape=(u + 1, ni),
        band_slots=u * (a_cols[upper] + 1) + a_rows[upper],
        band_entries=upper,
        band_eye=(a_cols[upper] == a_rows[upper]).astype(float),
        fwd_indptr=fwd[0], fwd_indices=fwd[1], fwd_gather=fwd[2],
        fwd_blocks=fwd[3], adj_indptr=adj[0], adj_indices=adj[1],
        adj_gather=adj[2], adj_blocks=adj[3],
    )
    for value in vars(pattern).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    return pattern


def _flux_values(c: np.ndarray, grid: Grid):
    """The pattern of grid and the CSR values of A_int and B_bd for c:
    face means c_f / h^2 off the diagonal, and on it the negated face
    values at the node summed in diag_faces' sequence; for a stack c,
    formed with the members last (cheap to index) and returned first."""
    pattern = _flux_pattern(grid.dimension, grid.n)
    ct = c.T
    cf = (0.5 * (ct[grid.lattice.lo] + ct[grid.lattice.hi])) * (1.0 / grid.h**2)
    neg = -cf
    diag = neg[pattern.diag_faces[0]]
    for faces in pattern.diag_faces[1:]:
        diag += neg[faces]
    a_data = np.concatenate((cf, diag))[pattern.a_gather]
    return pattern, a_data.T, cf[pattern.b_faces].T


def _upper_band(pattern: SimpleNamespace, a_data: np.ndarray,
                dt: float) -> np.ndarray:
    """ab[u + i - j, j] = B[i, j] for i <= j, B = I - dt/2 A_int formed
    entry by entry as scipy's I - (dt/2) A does, a_data's members side by
    side (the slots coupling two stay zero); Fortran-ordered, so pbtrf
    factors it in place."""
    (rows, n), at = pattern.band_shape, a_data.T
    ab = np.zeros((rows * n,) + at.shape[1:])
    ab[pattern.band_slots] = (
        pattern.band_eye - 0.5 * dt * at[pattern.band_entries].T).T
    return ab.T.reshape(-1, rows).T


def _block_diagonal(indptr: np.ndarray, indices: np.ndarray,
                    blocks: np.ndarray, data: np.ndarray, width: int) -> tuple:
    """One block-diagonal CSR matrix from a pattern and its (nnz, members)
    data: member m's rows follow member m - 1's, and column b * width + j,
    b = blocks[entry], moves to (b * members + m) * width + j.  blocks
    comes with the pattern, not from indices // width: no other step of
    a reconstruction divides integers, and paging in numpy's division
    loop raised its peak RSS by 64 KB (numpy 2.4, x86-64 Linux)."""
    members = data.size // indices.size
    m = np.arange(members, dtype=np.int32)[:, None]
    cols = indices + width * ((members - 1) * blocks + m)
    ptr = np.append((indptr[:-1] + indptr[-1] * m).ravel(), data.size)
    return ptr.astype(np.int32), cols.ravel().astype(np.int32), data.T.ravel()


class CrankNicolsonStepper:
    """CN time sweeps for fixed conductivity, forward and adjoint.

    The values of A_int, B_bd and the band of B = I - dt/2 A_int are
    filled into the grid's shared pattern; B is factored once with
    LAPACK pbtrf.  A step is one call of the CSR kernel behind A @ v, on
    rows of dt/2 A_int then identity entries, and one pbtrs in place.
    The kernel sums a row from 0.0 in stored order, to ((dt/2 A v + dt/2
    b_old) + dt/2 b_new) + v forward and (dt/2 A lam + lam) - src in the
    adjoint: bitwise v + dt/2 ((A v + b_old) + b_new) and (lam + dt/2 A
    lam) - src when dt/2 is a power of two (dt = 1/64 in every shipped
    setup).  Otherwise dt/2 a rounds, and at 96 steps on (0, 2) the
    fields move by a few parts in 1e15.

    A (K, n_nodes) stack c runs member by member in the unknowns, step
    rows and band columns; the band's zero coupling slots leave each
    member its own stepper's bits (tests/test_forward.py).
    """

    def __init__(self, c: np.ndarray, grid: Grid, dt: float):
        self.c = np.array(c, dtype=float)
        self.dt = dt
        self._pattern, self._a_data, self._b_data = _flux_values(self.c, grid)
        p = self._pattern
        self.interior, self.boundary = p.interior, p.boundary
        self.members = self._a_data.size // p.a_indices.size
        self._n = self.members * self.interior.size
        # dt/2 A_int as _upper_band rounds it: both halves share its bits;
        # formed with the members last, as _flux_values forms A_int
        nnz, ni = p.a_indices.size, self.interior.size
        values = np.empty((nnz + 3,) + self._a_data.shape[:-1])
        np.multiply(0.5 * dt, self._a_data.T, out=values[:nnz])
        values[nnz:].T[...] = (0.5 * dt, 1.0, -1.0)
        self._forward_step = _block_diagonal(
            p.fwd_indptr, p.fwd_indices, p.fwd_blocks, values[p.fwd_gather], ni)
        self._adjoint_step = _block_diagonal(
            p.adj_indptr, p.adj_indices, p.adj_blocks, values[p.adj_gather], ni)
        # raw LAPACK: cholesky_banded and cho_solve_banded's argument
        # checks cost more than the factor and the solve at these sizes
        self.chol, info = _pbtrf(_upper_band(p, self._a_data, dt),
                                 lower=0, overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded Cholesky factor failed (info={info})")
        self._ldab = self.chol.shape[0]

    def boundary_rhs(self, drive: np.ndarray) -> np.ndarray:
        """B_bd b for every row b of drive, (rows, members * n_interior);
        member by member bitwise (B_bd @ drive.T).T, through the kernel
        that product calls."""
        p, rows, ni = self._pattern, drive.shape[0], self.interior.size
        out = np.zeros((self.members, ni, rows))
        x = drive.T.ravel()
        for b_data, member in zip(self._b_data.reshape(self.members, -1), out):
            csr_matvecs(ni, self.boundary.size, rows, p.b_indptr,
                        p.b_indices, b_data, x, member.ravel())
        return out.reshape(self._n, rows).T

    def solve_B(self, rhs: np.ndarray) -> np.ndarray:
        """B^-1 rhs, solved into rhs itself.  f2py would solve into a
        copy of a strided or non-float64 rhs, which a sweep would then
        drop, so that raises."""
        x, info = _pbtrs(self.chol, rhs, 0, self._ldab, 1)
        if x is not rhs:
            raise ValueError("solve_B solves in place: rhs must be a "
                             "contiguous float64 array")
        if info != 0:
            raise SolverError(f"banded Cholesky solve failed (info={info})")
        return x

    def _steps(self, step, windows, outs) -> None:
        """outs[k] = B^-1 (step matrix) windows[k] into zeroed rows."""
        n, chol, ldab = self._n, self.chol, self._ldab
        (indptr, indices, data), width = step, windows.shape[1]
        for window, out in zip(windows, outs):
            csr_matvec(n, width, indptr, indices, data, window, out)
            info = _pbtrs(chol, out, 0, ldab, 1)[1]
            if info != 0:
                raise SolverError(f"banded Cholesky solve failed (info={info})")

    def sweep(self, v0: np.ndarray, rhs_bd: np.ndarray) -> np.ndarray:
        """Rows v_0 .. v_M: v_{k+1} = B^-1 (v_k + dt/2 ((A v_k + rhs_bd[k])
        + rhs_bd[k+1])).  Workspace row k is [v_k | rhs_bd[k]], and step k
        reads [v_k | rhs_bd[k] | v_{k+1} | rhs_bd[k+1]] but not v_{k+1}."""
        n = self._n
        work = np.zeros((rhs_bd.shape[0], 2 * n))
        work[0, :n], work[:, n:] = v0, rhs_bd
        windows = np.ndarray((work.shape[0] - 1, 4 * n), buffer=work,
                             strides=(16 * n, 8))   # float64 rows of 2n
        self._steps(self._forward_step, windows, work[1:, :n])
        return work[:, :n]

    def adjoint_sweep(self, source: np.ndarray) -> np.ndarray:
        """The transpose of sweep from the (M + 1, n) source: B lam_M =
        -source[M], then B lam_i = (lam_{i+1} + dt/2 A lam_{i+1}) -
        source[i], i = M - 1 .. 1.  Workspace row i is [lam_i | source[i]],
        and step i reads [source[i] | lam_{i+1}].  Returns lam_1 .. lam_M."""
        n = self._n
        work = np.zeros((source.shape[0], 2 * n))
        work[:, n:] = source
        self.solve_B(np.negative(source[-1], out=work[-1, :n]))
        windows = np.ndarray((work.shape[0] - 1, 2 * n), buffer=work,
                             offset=8 * n, strides=(16 * n, 8))
        self._steps(self._adjoint_step, windows[-1:0:-1], work[-2:0:-1, :n])
        return work[1:, :n]


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
    """CN solution on the whole time grid, (K, steps + 1, n_nodes) for a
    stack problem.c, swept whole by one stepper.  A caller that also
    needs the factor (the reconstruction adjoint) may pass a stepper
    built for problem.c and timegrid.dt; one built for another
    conductivity or step raises GridError.  Such a caller validates
    problem itself, before it builds the factor."""
    c = np.asarray(problem.c, dtype=float)
    if stepper is None:
        problem.validate(grid)
    elif stepper.dt != timegrid.dt or not np.array_equal(stepper.c, c):
        raise GridError("stepper was built for another conductivity or step")
    pattern = _flux_pattern(grid.dimension, grid.n)
    interior, boundary = pattern.interior, pattern.boundary
    drive = _drive_table(problem.g, timegrid)[:, boundary]
    q0 = np.asarray(problem.q0, dtype=float)
    if np.max(np.abs(q0[boundary] - drive[0])) > 1e-12:
        raise GridError(
            f"q0 and g({timegrid.times[0]}) disagree on the boundary")

    stepper = stepper or CrankNicolsonStepper(c, grid, timegrid.dt)
    k = stepper.members
    values = np.empty((k, timegrid.steps + 1, grid.n_nodes))
    values[:, :, boundary] = drive
    inner = stepper.sweep(np.tile(q0[interior], k), stepper.boundary_rhs(drive))
    values[:, :, interior] = inner.reshape(-1, k, interior.size).swapaxes(0, 1)
    if not np.all(np.isfinite(values)):
        raise SolverError("non-finite state produced by time stepping")
    return SpaceTimeField(values=values.reshape(c.shape[:-1] + values.shape[1:]),
                          grid=grid, timegrid=timegrid)


def time_derivative(field: SpaceTimeField) -> SpaceTimeField:
    """The grid's first_derivative stencil on the time axis.  A field
    vanishing on the boundary stays exactly zero there."""
    return replace(field, values=first_derivative(field.values, -2,
                                                  field.timegrid.dt))


@dataclass
class SnapshotPackage:
    """T' slice of a field with its derived interior quantities."""

    t_prime: float
    q: np.ndarray
    grad_q: np.ndarray
    lap_q: np.ndarray
    grad_lap_q: np.ndarray


def snapshot_package(field: SpaceTimeField, grid: Grid,
                     window: TimeGrid) -> SnapshotPackage:
    t_prime = window.t_mid
    q = field.at_time(t_prime)
    lap = discrete_laplacian(q, grid)
    return SnapshotPackage(
        t_prime=t_prime,
        q=q.copy(),
        grad_q=discrete_gradient(q, grid),
        lap_q=lap,
        grad_lap_q=discrete_gradient(lap, grid),
    )


def dump_field_csv(field: SpaceTimeField, path):
    write_csv(path, ["t_index", "node", "value"],
              ((j, i, v) for (j, i), v in np.ndenumerate(field.values)))
