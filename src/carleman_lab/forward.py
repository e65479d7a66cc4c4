"""Crank-Nicolson solver for d_t q = div(c(x) grad q) with Dirichlet data.

The semidiscrete operator is the flux-form stencil from the grid module,
split into interior and boundary columns.  Its sparse structure depends
only on the grid, so it is worked out once per (dimension, n) as a
read-only pattern, and laid out once per (dimension, n, K) for stacks
of K conductivities: the step matrices, the band of B = I - dt/2 A and
B_bd of K members side by side, one block-diagonal system whose members
each get their own single solve's bits.  A stepper build is work per
conductivity only: the face values, one gather per step matrix, one
scatter into the band and its banded Cholesky factor.  Each step is one
CSR kernel call, which forms the explicit half-step, and one solve of
(I - dt/2 A) v = rhs with that factor: the interior nodes are numbered
row-major, so the band is tridiagonal in 1D and n - 1 wide in 2D.  The
boundary drive is tabulated once per (drive, time grid, lattice) and
its contribution to every step formed in one product.  The stability
sweep, the one caller of many members, caps its stacks.

The stepper's adjoint sweep runs the transposed recurrence on the same
factor for the reconstruction gradient, so the forward map and its
transpose agree to machine precision in every dimension; the gradient's
coefficient part is coefficient_accumulate, the transpose of the face
means.
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
    are read.  g must be a pure function of t: solve_heat tabulates them
    once per time grid and lattice and reuses the table for every later
    solve with the same g.  c may be a (K, n_nodes) stack, K
    conductivities sharing the rest.  The solver asks nothing of the
    data's sign; the setups module keeps its own data at or above 1.
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
def _flux_pattern(dimension: int, n: int, members: int) -> SimpleNamespace:
    """Structure of the flux-form operator on a (dimension, n) grid, laid
    out for stacks of members conductivities and shared read-only by
    them.  It is one stencil table: row i is interior node p = interior[i]
    and lists, in ascending node order, p - s_a for a = 0 .. d-1, p, then
    p + s_a for a = d-1 .. 0 (s_a = (n+1)^(d-1-a), the node stride of
    axis a).  An off-diagonal entry carries the grid.lattice face between
    its nodes, the diagonal its index after the faces.  A stack is one
    block-diagonal system, member m's rows after member m - 1's; in a step
    matrix, member m's column j of block b is (b * members + m) * ni + j
    (ni interior nodes), so each block of a sweep window holds the members
    side by side.  The blocks come with the table, not from indices // ni:
    no other step of a reconstruction divides integers, and paging in
    numpy's division loop raised its peak RSS by 64 KB (numpy 2.4,
    x86-64 Linux).

    Fields: interior, boundary; diag_faces, the 2d faces at each node in
    the order up[0, p], up[0, p - s_0], up[1, p], up[1, p - s_1] that its
    diagonal sums them in; a_gather (into the face values followed by
    the diagonal) of one member's A_int, the table in interior columns,
    and b_faces of its B_bd, the table in boundary columns; bd, the
    stack's B_bd (indptr, indices); fwd and adj, the stack's (indptr,
    indices, take) of the step matrices [dt/2 A + I | dt/2 I | 0 |
    dt/2 I] and [-I | dt/2 A + I] on blocks of ni columns, A_int's rows
    with identity entries appended, take each entry's position in the
    (members, nnz + 3) _step_values; band_rows, band_size, band_slots
    (flat, Fortran-ordered), band_take and band_eye (I's entries there)
    of the upper band storage of B = I - dt/2 A_int, whose slots
    coupling two members stay zero."""
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
    m = np.arange(members)[:, None]

    def csr(keep, *tables):
        """indptr and the kept entries of each table, row by row; member
        by member if a table has a leading member axis."""
        keep, *tables = np.broadcast_arrays(keep, *tables)
        indptr = np.append(0, np.cumsum(np.sum(keep, axis=-1)))
        return (indptr.astype(np.int32), *(table[keep] for table in tables))

    a_indptr, a_cols, a_gather = csr(in_a, cols, faces)
    a_rows = np.repeat(np.arange(ni, dtype=np.int32), np.diff(a_indptr))
    upper = np.flatnonzero(a_cols >= a_rows)
    u, width = int(np.max(a_cols[upper] - a_rows[upper])), a_cols.size + 3
    position = np.full(nodes.shape, -1)  # in A_int's data
    position[in_a] = np.arange(a_cols.size)

    def extended(a_block, blocks, values):
        """A_int's rows moved a_block blocks right, then identity entries
        in the given blocks with the given values, member by member."""
        eye = np.ones((ni, len(blocks)), dtype=bool)
        block = np.hstack((np.full(nodes.shape, a_block), eye * blocks))
        col = np.hstack((cols, eye * np.arange(ni)[:, None]))
        col = col + ni * (members * block + m[:, :, None])
        take = np.hstack((position, a_cols.size + eye * np.array(values)))
        return csr(np.hstack((in_a, eye)), col.astype(np.int32),
                   take + width * m[:, :, None])

    # the columns of up[a, p] and up[a, p - s_a], axis by axis
    diag_columns = [k for a in axes for k in (2 * dimension - a, a)]
    pattern = SimpleNamespace(
        interior=interior, boundary=boundary,
        diag_faces=faces[:, diag_columns].T.copy(),
        a_gather=a_gather, b_faces=faces[~in_a],
        bd=csr(np.tile(~in_a, (members, 1, 1)), cols),
        fwd=extended(0, (1, 3, 0), (0, 0, 1)), adj=extended(1, (1, 0), (1, 2)),
        band_rows=u + 1, band_size=(u + 1) * ni * members,
        band_slots=(u * (a_cols[upper] + 1) + a_rows[upper]
                    + (u + 1) * ni * m).ravel(),
        band_take=(upper + width * m).ravel(),
        band_eye=np.tile((a_cols[upper] == a_rows[upper]) * 1.0, members))
    for value in vars(pattern).values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.flags.writeable = False
    return pattern


def _flux_values(c: np.ndarray, grid: Grid):
    """The pattern of grid and c's stack size, and the CSR values of
    A_int and B_bd for c: face means c_f / h^2 off the diagonal, and on
    it the negated face values at the node summed in diag_faces'
    sequence; for a stack c, formed with the members last (cheap to
    index) and returned first."""
    pattern = _flux_pattern(grid.dimension, grid.n, c.size // grid.n_nodes)
    ct = c.T
    cf = (0.5 * (ct[grid.lattice.lo] + ct[grid.lattice.hi])) * (1.0 / grid.h**2)
    neg = -cf
    diag = neg[pattern.diag_faces[0]]
    for faces in pattern.diag_faces[1:]:
        diag += neg[faces]
    a_data = np.concatenate((cf, diag))[pattern.a_gather]
    return pattern, a_data.T, cf[pattern.b_faces].T


def coefficient_accumulate(lmb: np.ndarray, s: np.ndarray, grid: Grid,
                           terms: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Sum over the rows of (T, n_nodes) stacks and over the lattice
    faces at m of (lmb_p - lmb_q)(s_q - s_p) / (2 h^2); the transpose of
    _flux_values' face means with respect to the coefficient, for the
    reconstruction's gradient.  The terms are added one after another,
    last row first and within a row axis by axis, lower node before
    upper node, so the sum is bitwise that of the adjoint sweep
    accumulating row by row.  They are formed in time order in pair, two
    flat rows of T * n * (n+1)^(dim-1) values, and written at the
    reversed rows of terms, a zeroed (T, dim, 2, *grid.shape) stack,
    always in the same slots, so its pad slots stay zero."""
    lg, sg = grid.reshape(lmb), grid.reshape(s)
    # zero-padded terms: (row, axis, lower/upper node of the face, *shape)
    backward = terms[::-1]
    inv = 1.0 / (2.0 * grid.h**2)
    for a in range(grid.dimension):
        lo = (slice(None),) * (a + 1) + (slice(None, -1),)
        hi = (slice(None),) * (a + 1) + (slice(1, None),)
        val, other = (row.reshape(lg[lo].shape) for row in pair)
        np.multiply(np.subtract(lg[lo], lg[hi], out=val),
                    np.subtract(sg[hi], sg[lo], out=other), out=val)
        val *= inv
        backward[:, a, 0][lo] = val
        backward[:, a, 1][hi] = val
    # add.reduce over the leading axis of a C-ordered stack adds its
    # rows in sequence (no pairwise regrouping)
    return np.add.reduce(terms.reshape(-1, grid.n_nodes), axis=0)


def _step_values(a_data: np.ndarray, dt: float) -> np.ndarray:
    """(members, nnz + 3): each member's dt/2 A_int entries, then dt/2, 1
    and -1; the values the step matrices and the band of B gather."""
    nnz = a_data.shape[-1]
    values = np.empty((a_data.size // nnz, nnz + 3))
    np.multiply(0.5 * dt, a_data, out=values[:, :nnz])
    values[:, nnz:] = (0.5 * dt, 1.0, -1.0)
    return values


def _upper_band(pattern: SimpleNamespace, values: np.ndarray) -> np.ndarray:
    """ab[u + i - j, j] = B[i, j] for i <= j, B = I - dt/2 A_int formed
    entry by entry as scipy's I - (dt/2) A does, from _step_values, the
    members side by side; Fortran-ordered, so pbtrf factors it in place."""
    ab = np.zeros(pattern.band_size)
    ab[pattern.band_slots] = (pattern.band_eye
                              - values.ravel()[pattern.band_take])
    return ab.reshape(-1, pattern.band_rows).T


def cho_factor(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of an SPD matrix, the other triangle left
    as it was: the LAPACK call scipy.linalg.cho_factor makes, and its
    error on a matrix that is not positive definite."""
    chol, info = _flapack.dpotrf(gram, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return chol


def cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a cho_factor factor: scipy.linalg.cho_solve's LAPACK
    call, and its error on a non-finite right-hand side."""
    if not np.all(np.isfinite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    return _flapack.dpotrs(chol, rhs, lower=0)[0]


class CrankNicolsonStepper:
    """CN time sweeps for fixed conductivity, forward and adjoint.

    The values of the step matrices, B_bd and the band of B = I - dt/2
    A_int are gathered into the pattern shared by every stack of its
    size on the grid; B is factored once with LAPACK pbtrf.  A step is one
    call of the CSR kernel behind A @ v, on rows of dt/2 A_int then
    identity entries, and one pbtrs in place.
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
        p, a_data, b_data = _flux_values(np.asarray(c, dtype=float), grid)
        # the step matrices and the band read the same dt/2 A_int entries
        values = _step_values(a_data, dt)
        self.interior, self.boundary = p.interior, p.boundary
        self.members, self._grid_key = len(values), (grid.dimension, grid.n)
        self._n = self.members * p.interior.size
        flat = values.ravel()
        self._forward_step = (*p.fwd[:2], flat[p.fwd[2]])
        self._adjoint_step = (*p.adj[:2], flat[p.adj[2]])
        self._boundary_matrix = (*p.bd, b_data.ravel())
        # raw LAPACK: cholesky_banded and cho_solve_banded's argument
        # checks cost more than the factor and the solve at these sizes
        self.chol, info = _pbtrf(_upper_band(p, values), lower=0,
                                 overwrite_ab=1)
        if info != 0:
            raise SolverError(f"banded Cholesky factor failed (info={info})")
        self._ldab = self.chol.shape[0]

    def boundary_rhs(self, drive: np.ndarray, out: np.ndarray) -> np.ndarray:
        """B_bd b for every column b of drive, a contiguous (n_boundary,
        rows) table, in out, a contiguous buffer of rows * members *
        n_interior values, returned as (rows, members * n_interior):
        member by member bitwise (B_bd @ drive).T, in one call of the
        kernel that product calls."""
        rows = drive.shape[1]
        out = out.reshape(self._n, rows)
        out[...] = 0.0
        csr_matvecs(self._n, self.boundary.size, rows, *self._boundary_matrix,
                    drive, out)
        return out.T

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

    def sweep(self, v0: np.ndarray, rhs_bd: np.ndarray,
              work: np.ndarray) -> np.ndarray:
        """Rows v_0 .. v_M: v_{k+1} = B^-1 (v_k + dt/2 ((A v_k + rhs_bd[k])
        + rhs_bd[k+1])), in work, a contiguous (M + 1, 2n) buffer that it
        overwrites.  Row k becomes [v_k | rhs_bd[k]], and step k reads
        [v_k | rhs_bd[k] | v_{k+1} | rhs_bd[k+1]] but not v_{k+1}."""
        n = self._n
        work[:, n:], work[0, :n], work[1:, :n] = rhs_bd, v0, 0.0
        windows = np.ndarray((work.shape[0] - 1, 4 * n), buffer=work,
                             strides=(16 * n, 8))   # float64 rows of 2n
        self._steps(self._forward_step, windows, work[1:, :n])
        return work[:, :n]

    def adjoint_sweep(self, work: np.ndarray) -> np.ndarray:
        """The transpose of sweep from the (M + 1, n) source held in the
        right half of work, a contiguous (M + 1, 2n) buffer: B lam_M =
        -source[M], then B lam_i = (lam_{i+1} + dt/2 A lam_{i+1}) -
        source[i], i = M - 1 .. 1.  Row i becomes [lam_i | source[i]], and
        step i reads [source[i] | lam_{i+1}].  Returns lam_1 .. lam_M."""
        n = self._n
        work[1:-1, :n] = 0.0
        self.solve_B(np.negative(work[-1, n:], out=work[-1, :n]))
        windows = np.ndarray((work.shape[0] - 1, 2 * n), buffer=work,
                             offset=8 * n, strides=(16 * n, 8))
        self._steps(self._adjoint_step, windows[-1:0:-1], work[-2:0:-1, :n])
        return work[1:, :n]

    def solve(self, g: Callable[[float], np.ndarray], q0: np.ndarray,
              timegrid: TimeGrid, values: np.ndarray,
              work: np.ndarray) -> None:
        """The CN solution for drive g and initial state q0 in values,
        (members, steps + 1, n_nodes), through sweep's buffer work; the
        boundary products are formed in values' storage beforehand."""
        drive = _drive_table(g, timegrid, *self._grid_key)
        q0 = np.asarray(q0, dtype=float)
        if np.max(np.abs(q0[self.boundary] - drive[:, 0])) > 1e-12:
            raise GridError(
                f"q0 and g({timegrid.times[0]}) disagree on the boundary")
        rhs = self.boundary_rhs(drive, values.reshape(-1)[:work.size // 2])
        inner = self.sweep(np.tile(q0[self.interior], self.members), rhs, work)
        values[:, :, self.boundary] = drive.T
        values[:, :, self.interior] = inner.reshape(
            -1, self.members, self.interior.size).swapaxes(0, 1)
        if not np.all(np.isfinite(values)):
            raise SolverError("non-finite state produced by time stepping")


@functools.lru_cache(maxsize=8)
def _drive_table(g: Callable[[float], np.ndarray], timegrid: TimeGrid,
                 dimension: int, n: int) -> np.ndarray:
    """Read-only (n_boundary, steps + 1) table of g(t) on the boundary
    nodes of the (dimension, n) lattice, a column for every t of the
    time grid, keyed on g, the grid's (t0, t_end, steps) and the
    lattice.  The cache holds g itself, so a recycled object id can
    never hit a stale table."""
    boundary = np.flatnonzero(lattice(dimension, n).depth == 0)
    table = np.column_stack([np.asarray(g(t), dtype=float)[boundary]
                             for t in timegrid.times])
    table.flags.writeable = False
    return table


def solve_heat(problem: HeatProblem, grid: Grid,
               timegrid: TimeGrid) -> SpaceTimeField:
    """CN solution on the whole time grid, (K, steps + 1, n_nodes) for a
    stack problem.c, swept whole by one stepper."""
    problem.validate(grid)
    c = np.asarray(problem.c, dtype=float)
    stepper = CrankNicolsonStepper(c, grid, timegrid.dt)
    values = np.empty((stepper.members, timegrid.steps + 1, grid.n_nodes))
    stepper.solve(problem.g, problem.q0, timegrid, values,
                  np.empty((timegrid.steps + 1, 2 * stepper._n)))
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
