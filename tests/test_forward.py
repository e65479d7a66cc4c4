import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from carleman_lab import forward, stability
from carleman_lab.grid import (
    FACE_STENCIL,
    Grid,
    GridError,
    TimeGrid,
    divergence_flux,
    normal_derivative,
)
from carleman_lab.forward import (
    CrankNicolsonStepper,
    HeatProblem,
    SpaceTimeField,
    dump_field_csv,
    snapshot_package,
    solve_heat,
    time_derivative,
)
from carleman_lab.setups import default_setup, inversion_setup
from helpers import (adjoint_rows, a_int_structure, flux_matrices,
                     packaged_setup, stepper_boundary_matrix)


def decaying_sine_problem(grid):
    # c = 1/pi^2 turns d_t q = div(c grad q) into q = e^{-t} sin(pi x)
    x = grid.coords[:, 0]
    return HeatProblem(
        c=np.full(grid.n_nodes, 1.0 / np.pi**2),
        g=lambda t: np.zeros(grid.n_nodes),
        q0=np.sin(np.pi * x),
    )


def test_decaying_sine_pointwise():
    g = Grid(1, 32, ["right"])
    tg = TimeGrid(0.0, 2.0, 128)  # dt = 1/64
    q = solve_heat(decaying_sine_problem(g), g, tg)
    node = 16  # x = 0.5
    got = q.at_time(1.0)[node]
    assert abs(got - np.exp(-1.0)) < 1e-3


def test_steady_state_exact():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 2.0, 32)
    prob = HeatProblem(
        c=np.ones(g.n_nodes),
        g=lambda t: np.ones(g.n_nodes),
        q0=np.ones(g.n_nodes),
    )
    q = solve_heat(prob, g, tg)
    assert np.max(np.abs(q.values - 1.0)) < 1e-13


def test_richardson_refinement_ratio():
    errs = []
    for n, steps in ((16, 64), (32, 128)):
        g = Grid(1, n, ["right"])
        tg = TimeGrid(0.0, 2.0, steps)
        q = solve_heat(decaying_sine_problem(g), g, tg)
        x = g.coords[:, 0]
        exact = np.exp(-1.0) * np.sin(np.pi * x)
        errs.append(np.max(np.abs(q.at_time(1.0) - exact)))
    ratio = errs[0] / errs[1]
    assert 3.0 < ratio < 5.3


def test_2d_manufactured_solution():
    g = Grid(2, 16, ["east"])
    tg = TimeGrid(0.0, 2.0, 64)
    x, y = g.coords[:, 0], g.coords[:, 1]
    prob = HeatProblem(
        c=np.full(g.n_nodes, 1.0 / np.pi**2),
        g=lambda t: np.zeros(g.n_nodes),
        q0=np.sin(np.pi * x) * np.sin(np.pi * y),
    )
    q = solve_heat(prob, g, tg)
    exact = np.exp(-2.0) * np.sin(np.pi * x) * np.sin(np.pi * y)
    assert np.max(np.abs(q.at_time(1.0) - exact)) < 5e-3


@pytest.mark.parametrize("dimension,n", [(1, 17), (1, 32), (2, 16), (2, 17)])
def test_setup_data_stay_at_or_above_one(dimension, n):
    # solve_heat asks nothing of the data's sign: the setups' closed
    # forms keep q0 and every tabulated boundary row at or above 1
    for setup in (packaged_setup(dimension=dimension, n=n),
                  packaged_setup(dimension=dimension, n=n, steps=96),
                  default_setup(dimension, n, t0=0.125, t_end=0.25, steps=16),
                  inversion_setup(dimension, n)):
        drive = forward._drive_table(setup.base.g, setup.timegrid,
                                     dimension, n)
        assert drive.shape == (np.count_nonzero(setup.grid.boundary_mask),
                               setup.timegrid.steps + 1)
        assert np.min(setup.base.q0) >= 1.0
        assert np.min(drive) >= 1.0


def test_compatibility_checked():
    g = Grid(1, 8, ["right"])
    tg = TimeGrid(0.0, 1.0, 8)
    prob = HeatProblem(
        c=np.ones(g.n_nodes),
        g=lambda t: np.full(g.n_nodes, 2.0),
        q0=np.ones(g.n_nodes),
    )
    with pytest.raises(GridError, match="boundary"):
        solve_heat(prob, g, tg)


def test_compatibility_checked_at_grid_start():
    # q0 matches g(0) = 2 at x = 1, but the grid starts at t = 0.5 where
    # the drive reads 2 + 0.5 sin(pi/4)
    setup = packaged_setup(dimension=1, n=32)
    with pytest.raises(GridError, match="boundary"):
        solve_heat(setup.base, setup.grid, TimeGrid(0.5, 2.0, 96))


def test_discrete_maximum_principle():
    # smooth positive data with floor r: solution stays above r - 1e-8
    g = Grid(1, 32, ["right"])
    tg = TimeGrid(0.0, 2.0, 128)
    x = g.coords[:, 0]
    r = 1.0

    def bdata(t):
        vals = np.empty(g.n_nodes)
        vals[:] = r
        vals[-1] = r + 0.5 * np.sin(np.pi * t / 2.0) ** 2
        return vals

    prob = HeatProblem(c=1.0 + 0.5 * x, g=bdata, q0=np.full(g.n_nodes, r))
    q = solve_heat(prob, g, tg)
    assert q.values.min() >= r - 1e-8


def test_affine_superposition_in_data():
    rng = np.random.default_rng(5)
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 1.0, 16)
    c = 1.0 + rng.random(g.n_nodes)

    def make(q0, amp):
        return HeatProblem(
            c=c,
            g=lambda t: amp * np.cos(t) * np.ones(g.n_nodes),
            q0=q0,
        )

    q0a = rng.standard_normal(g.n_nodes)
    q0b = rng.standard_normal(g.n_nodes)
    q0a[g.boundary_mask] = 1.0  # match g(0) = amp*1
    q0b[g.boundary_mask] = 2.0
    qa = solve_heat(make(q0a, 1.0), g, tg).values
    qb = solve_heat(make(q0b, 2.0), g, tg).values
    al = 0.3
    mixed = solve_heat(make(al * q0a + (1 - al) * q0b, al * 1.0 + (1 - al) * 2.0), g, tg)
    assert np.max(np.abs(mixed.values - (al * qa + (1 - al) * qb))) < 1e-10


def test_twin_solves_identical_coefficient():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 2.0, 32)
    x = g.coords[:, 0]
    prob = HeatProblem(
        c=1.0 + 0.5 * x**2,
        g=lambda t: 1.0 + 0.1 * t * np.ones(g.n_nodes),
        q0=np.ones(g.n_nodes),
    )
    q1 = solve_heat(prob, g, tg)
    q2 = solve_heat(prob, g, tg)
    assert np.max(np.abs(q1.values - q2.values)) < 1e-12


def test_stepper_solve_into_reused_buffers_equals_solve_heat():
    # the reconstruction solves into the same values and sweep buffer at
    # every trial point: whatever they held, the field comes out bitwise
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 2.0, 32)
    c = 1.0 + 0.5 * g.coords[:, 0] ** 2
    prob = HeatProblem(c=c, g=lambda t: 1.0 + 0.1 * t * np.ones(g.n_nodes),
                       q0=np.ones(g.n_nodes))
    own = solve_heat(prob, g, tg).values
    st = CrankNicolsonStepper(c, g, tg.dt)
    values = np.full((1, tg.steps + 1, g.n_nodes), np.nan)
    work = np.full((tg.steps + 1, 2 * st.interior.size), np.nan)
    for stale in (np.nan, 7.0):
        values[...], work[...] = stale, -stale
        st.solve(prob.g, prob.q0, tg, values, work)
        assert values[0].tobytes() == own.tobytes()


def test_flux_matrices_match_operator():
    rng = np.random.default_rng(2)
    for dim, n in ((1, 16), (2, 8)):
        g = Grid(dim, n, ["right"] if dim == 1 else ["east"])
        c = 1.0 + rng.random(g.n_nodes)
        f = rng.standard_normal(g.n_nodes)
        A, Bbd, interior, boundary = flux_matrices(c, g)
        lhs = A @ f[interior] + Bbd @ f[boundary]
        rhs = divergence_flux(c, f, g)[interior]
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_time_derivative_analytic():
    g = Grid(1, 32, ["right"])
    node = 16  # x = 0.5
    errs = []
    for steps in (64, 128, 256):
        tg = TimeGrid(0.0, 2.0, steps)
        x = g.coords[:, 0]
        vals = np.exp(-tg.times)[:, None] * np.sin(np.pi * x)[None, :]
        f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
        d = time_derivative(f)
        exact = -np.exp(-tg.times)[:, None] * np.sin(np.pi * x)[None, :]
        errs.append(np.max(np.abs(d.values - exact)))
        if steps == 128:
            assert abs(d.at_time(1.0)[node] + np.exp(-1.0)) < 5e-4
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_time_derivative_is_the_three_point_formula():
    # the grid's first-derivative stencil on the time axis equals the
    # centered difference with one-sided ends written out, bit for bit
    g = Grid(2, 6, ["east"])
    tg = TimeGrid(0.0, 1.3, 10)
    v = np.random.default_rng(4).standard_normal((11, g.n_nodes))
    dt = tg.dt
    expect = np.empty_like(v)
    expect[1:-1] = (v[2:] - v[:-2]) / (2.0 * dt)
    expect[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * dt)
    expect[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * dt)
    got = time_derivative(SpaceTimeField(values=v, grid=g, timegrid=tg))
    np.testing.assert_array_equal(got.values, expect)


def test_time_derivative_constant_and_boundary_zero():
    g = Grid(1, 8, ["right"])
    tg = TimeGrid(0.0, 1.0, 8)
    f = SpaceTimeField(values=np.ones((9, g.n_nodes)), grid=g, timegrid=tg)
    assert np.max(np.abs(time_derivative(f).values)) == 0.0
    rng = np.random.default_rng(1)
    vals = rng.standard_normal((9, g.n_nodes))
    vals[:, g.boundary_mask] = 0.0
    f2 = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    assert np.max(np.abs(time_derivative(f2).values[:, g.boundary_mask])) == 0.0


def test_snapshot_package_sine():
    g = Grid(1, 64, ["right"])
    tg = TimeGrid(0.0, 2.0, 8)
    win = TimeGrid(0.5, 2.0, 6)
    x = g.coords[:, 0]
    vals = np.tile(np.sin(np.pi * x), (9, 1))
    f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    snap = snapshot_package(f, g, win)
    assert snap.t_prime == 1.25
    interior = ~g.boundary_mask
    lap_err = np.abs(snap.lap_q + np.pi**2 * np.sin(np.pi * x))
    assert np.max(lap_err[interior]) < 5e-3
    glap_exact = -np.pi**3 * np.cos(np.pi * x)
    # third derivative: O(h^2) in the interior, O(h) near the boundary
    core = (x > 0.1) & (x < 0.9)
    assert np.max(np.abs(snap.grad_lap_q[:, 0] - glap_exact)[core]) < 0.05
    assert np.max(np.abs(snap.grad_lap_q[:, 0] - glap_exact)) < 1.5


def test_snapshot_package_constant():
    g = Grid(1, 8, ["right"])
    tg = TimeGrid(0.0, 2.0, 8)
    win = TimeGrid(0.5, 2.0, 6)
    vals = np.full((9, g.n_nodes), 3.0)
    f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    snap = snapshot_package(f, g, win)
    assert np.max(np.abs(snap.grad_q)) < 1e-12
    assert np.max(np.abs(snap.lap_q)) < 1e-11
    assert np.max(np.abs(snap.grad_lap_q)) < 1e-10


def test_snapshot_package_2d_refinement():
    errs = []
    for n in (8, 16, 32):
        g = Grid(2, n, ["east"])
        tg = TimeGrid(0.0, 2.0, 8)
        win = TimeGrid(0.5, 2.0, 6)
        x, y = g.coords[:, 0], g.coords[:, 1]
        base = np.sin(np.pi * x) * np.sin(np.pi * y)
        f = SpaceTimeField(values=np.tile(base, (9, 1)), grid=g, timegrid=tg)
        snap = snapshot_package(f, g, win)
        err = np.abs(snap.lap_q + 2.0 * np.pi**2 * base)[~g.boundary_mask]
        errs.append(np.max(err))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_dump_field_csv(tmp_path):
    g = Grid(1, 4, ["right"])
    tg = TimeGrid(0.0, 1.0, 2)
    vals = np.arange(15.0).reshape(3, 5)
    f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    path = tmp_path / "field.csv"
    dump_field_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t_index,node,value"
    assert lines[1] == "0,0,0"
    assert len(lines) == 1 + 15


# -- bitwise pins of the pattern assembly and the kernel matvec ------------

PIN_GRIDS = [(1, 32), (2, 16)]
# the smallest grids and an odd one, where the stencil table's boundary
# columns make up most of each row
SMALL_GRIDS = [(1, 4), (2, 4), (2, 7)]


def pin_grid(dimension, n):
    return Grid(dimension, n, ["right"] if dimension == 1 else ["east"])


def reference_assembly(c, grid, dt):
    """A_int, B_bd, the upper band of B = I - dt/2 A_int and its factor
    as the COO -> CSR assembly, triu and cholesky_banded formed them
    before the pattern fill replaced them."""
    cg = grid.reshape(c)
    idx = np.arange(grid.n_nodes).reshape(grid.shape)
    rows, cols, vals = [], [], []
    inv_h2 = 1.0 / grid.h**2
    for a in range(grid.dimension):
        ia, ca = np.moveaxis(idx, a, 0), np.moveaxis(cg, a, 0)
        i0, i1 = ia[:-1].ravel(), ia[1:].ravel()
        cf = (0.5 * (ca[:-1] + ca[1:])).ravel() * inv_h2
        rows.extend([i0, i0, i1, i1])
        cols.extend([i1, i0, i0, i1])
        vals.extend([cf, -cf, cf, -cf])
    A = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n_nodes, grid.n_nodes),
    ).tocsr()
    interior = np.flatnonzero(~grid.boundary_mask)
    rows_int = A[interior]
    A_int = rows_int[:, interior].tocsr()
    B_bd = rows_int[:, np.flatnonzero(grid.boundary_mask)].tocsr()
    B = scipy.sparse.identity(interior.size, format="csr") - 0.5 * dt * A_int
    upper = scipy.sparse.triu(B, format="coo")
    u = int(np.max(upper.col - upper.row, initial=0))
    ab = np.zeros((u + 1, interior.size))
    ab[u + upper.row - upper.col, upper.col] = upper.data
    return A_int, B_bd, ab, scipy.linalg.cholesky_banded(ab)


def band_of(c, grid, dt):
    """The upper band of B = I - dt/2 A_int that a stepper for c factors,
    its members side by side."""
    p, a_data, _ = forward._flux_values(c, grid)
    return forward._upper_band(p, forward._step_values(a_data, dt))


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_stepper_kernel_matvec_is_bitwise_a_matvec(dimension, n):
    grid = pin_grid(dimension, n)
    rng = np.random.default_rng(21)
    c = 0.5 + 2.0 * rng.random(grid.n_nodes)
    st = CrankNicolsonStepper(c, grid, 2.0 / 128)
    _, B_ref, _, _ = reference_assembly(c, grid, 2.0 / 128)
    # the sweeps' A v, through csr_matvec, is pinned by the recurrence
    # pins below
    drive = rng.standard_normal((st.boundary.size, 9))
    stale = np.full(9 * st.interior.size, np.nan)
    np.testing.assert_array_equal(st.boundary_rhs(drive, stale),
                                  (B_ref @ drive).T)


@pytest.mark.parametrize("dimension,n", PIN_GRIDS + SMALL_GRIDS)
def test_pattern_assembly_matches_coo_reference(dimension, n):
    grid, dt = pin_grid(dimension, n), 2.0 / 128
    rng = np.random.default_rng(22)
    for _ in range(5):
        c = 0.5 + 2.0 * rng.random(grid.n_nodes)
        A_ref, B_ref, ab_ref, chol_ref = reference_assembly(c, grid, dt)
        A, B, interior, boundary = flux_matrices(c, grid)
        st = CrankNicolsonStepper(c, grid, dt)
        for got, ref in ((A, A_ref), (B, B_ref),
                         (stepper_boundary_matrix(st), B_ref)):
            assert got.shape == ref.shape
            np.testing.assert_array_equal(got.indptr, ref.indptr)
            np.testing.assert_array_equal(got.indices, ref.indices)
            np.testing.assert_array_equal(got.data, ref.data)
        np.testing.assert_array_equal(interior,
                                      np.flatnonzero(~grid.boundary_mask))
        np.testing.assert_array_equal(boundary,
                                      np.flatnonzero(grid.boundary_mask))
        np.testing.assert_array_equal(band_of(c, grid, dt), ab_ref)
        np.testing.assert_array_equal(st.chol, chol_ref)


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_solve_heat_and_gradient_match_reference_recurrence(dimension, n):
    inv = inversion_setup(dimension, n)
    grid, tg, dt, window = inv.grid, inv.timegrid, inv.timegrid.dt, inv.window
    rng = np.random.default_rng(23)
    c = 1.0 + stability.admissible_projection(0.3 * rng.random(grid.n_nodes),
                                              grid)
    prob = HeatProblem(c=c, g=inv.base.g, q0=inv.base.q0)

    # the forward recurrence as the stepper formed it with scipy's A @ v
    A, Bbd, _, chol = reference_assembly(c, grid, dt)
    interior = np.flatnonzero(~grid.boundary_mask)
    boundary = np.flatnonzero(grid.boundary_mask)
    drive = np.array([inv.base.g(t) for t in tg.times])[:, boundary]
    rhs_bd = (Bbd @ drive.T).T
    v = inv.base.q0[interior]
    rows = [v]
    for j in range(1, tg.steps + 1):
        rhs = v + 0.5 * dt * (A @ v + rhs_bd[j - 1] + rhs_bd[j])
        v = scipy.linalg.cho_solve_banded((chol, False), rhs)
        rows.append(v)
    values = solve_heat(prob, grid, tg).values
    np.testing.assert_array_equal(values[:, interior], np.array(rows))
    np.testing.assert_array_equal(values[:, boundary], drive)

    # the adjoint recurrence as misfit_and_gradient formed it with
    # scipy's A @ lam, driven by the flux residuals scattered row by row
    data = stability.make_observations(inv, c + 0.01 * (c - 1.0),
                                       sigma=0.0, seed=0)
    cfg = stability.InverseConfig(prior=np.ones(grid.n_nodes))
    off = tg.index_of(window.t0)
    k = off + np.arange(1, window.steps)
    half = 1.0 / (2.0 * dt)
    source = np.zeros_like(values)
    j_ref = 0.0
    for face in grid.gamma0_faces:
        w = grid.face_axis_weights()
        res = (normal_derivative((values[k + 1] - values[k - 1]) * half,
                                 grid, face) - data.flux[face])
        j_ref += 0.5 * window.dt * float(np.sum(res**2 @ w))
        weighted = window.dt * w * res
        for layer, coeff in zip(grid.face_layers[face], FACE_STENCIL):
            part = coeff * (1.0 / (2.0 * grid.h)) * half * weighted
            for row, part_row in zip(k, part):
                source[row + 1, layer] += part_row
                source[row - 1, layer] -= part_row
    source = source[:, interior]
    lam = scipy.linalg.cho_solve_banded((chol, False), -source[tg.steps])
    lams = [lam]
    for i in range(tg.steps - 1, 0, -1):
        rhs = lam + 0.5 * dt * (A @ lam) - source[i]
        lam = scipy.linalg.cho_solve_banded((chol, False), rhs)
        lams.append(lam)
    lam_rows = np.zeros((tg.steps, grid.n_nodes))
    lam_rows[:, interior] = lams[::-1]
    shift = c - cfg.prior
    work = stability._workspace(inv)
    grad_ref = forward.coefficient_accumulate(
        lam_rows, values[:-1] + values[1:], grid, work.terms, work.pair)
    grad_ref *= -0.5 * dt
    grad_ref += stability.ALPHA * stability._h1_apply(shift, grid)
    grad_ref = stability.admissible_projection(grad_ref, grid)
    j_ref += 0.5 * stability.ALPHA * stability.h1_norm_sq(shift, grid)

    j_val, grad = stability.misfit_and_gradient(c, data, inv, cfg)
    assert j_val == j_ref
    np.testing.assert_array_equal(grad, grad_ref)


def max_relative(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_sweeps_match_reference_recurrence_where_half_dt_is_inexact(
        dimension, n):
    # dt = 2/96: dt/2 is no power of two, so scaling A's entries by it
    # rounds, and the sweeps regroup the recurrences' last bits
    inv = inversion_setup(dimension, n)
    grid, tg = inv.grid, TimeGrid(0.0, 2.0, 96)
    dt = tg.dt
    rng = np.random.default_rng(26)
    c = 1.0 + stability.admissible_projection(0.3 * rng.random(grid.n_nodes),
                                              grid)
    A, Bbd, _, chol = reference_assembly(c, grid, dt)
    interior = np.flatnonzero(~grid.boundary_mask)
    boundary = np.flatnonzero(grid.boundary_mask)
    drive = np.array([inv.base.g(t) for t in tg.times])[:, boundary]
    rhs_bd = (Bbd @ drive.T).T
    v = inv.base.q0[interior]
    rows = [v]
    for j in range(1, tg.steps + 1):
        rhs = v + 0.5 * dt * (A @ v + rhs_bd[j - 1] + rhs_bd[j])
        v = scipy.linalg.cho_solve_banded((chol, False), rhs)
        rows.append(v)
    prob = HeatProblem(c=c, g=inv.base.g, q0=inv.base.q0)
    values = solve_heat(prob, grid, tg).values
    assert max_relative(values[:, interior], np.array(rows)) <= 1e-14

    source = rng.standard_normal((tg.steps + 1, interior.size))
    lam = scipy.linalg.cho_solve_banded((chol, False), -source[tg.steps])
    lams = [lam]
    for i in range(tg.steps - 1, 0, -1):
        rhs = lam + 0.5 * dt * (A @ lam) - source[i]
        lam = scipy.linalg.cho_solve_banded((chol, False), rhs)
        lams.append(lam)
    got = adjoint_rows(CrankNicolsonStepper(c, grid, dt), source)
    assert max_relative(got, np.array(lams[::-1])) <= 1e-14


@pytest.mark.parametrize("dimension,n", PIN_GRIDS + SMALL_GRIDS)
def test_step_matrices_extend_A_int_in_stored_order(dimension, n):
    grid, dt = pin_grid(dimension, n), 2.0 / 96
    rng = np.random.default_rng(27)
    c = 0.5 + 2.0 * rng.random(grid.n_nodes)
    st = CrankNicolsonStepper(c, grid, dt)
    p, a_data = forward._flux_values(c, grid)[:2]
    a_indptr, a_indices = a_int_structure(p)
    ni, half = st.interior.size, 0.5 * dt
    # forward rows [dt/2 A | dt/2 I | dt/2 I | I] read [v | b_old | . |
    # b_new] and v again; adjoint rows [dt/2 A | I | -I] read [src | lam]
    for (indptr, indices, data), a_shift, cols, eye in (
            (st._forward_step, 0, (ni, 3 * ni, 0), (half, half, 1.0)),
            (st._adjoint_step, ni, (ni, 0), (1.0, -1.0))):
        assert indptr.dtype == indices.dtype == a_indptr.dtype
        a_pos = []
        for i in range(ni):
            a = slice(a_indptr[i], a_indptr[i + 1])
            row = np.arange(indptr[i], indptr[i + 1])
            k = a_indptr[i + 1] - a_indptr[i]
            np.testing.assert_array_equal(
                indices[row], np.concatenate((a_indices[a] + a_shift,
                                              np.add(cols, i))))
            np.testing.assert_array_equal(data[row[k:]], eye)
            a_pos.extend(row[:k])
        scaled = data[a_pos]
        np.testing.assert_array_equal(scaled, half * a_data)
        # the entries the band of B = I - dt/2 A subtracts from I
        ab = band_of(c, grid, dt)
        np.testing.assert_array_equal(
            ab.ravel(order="F")[p.band_slots],
            p.band_eye - scaled[p.band_take])


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_sweeps_raise_on_a_failed_solve(dimension, n, monkeypatch):
    inv = inversion_setup(dimension, n)
    grid, tg = inv.grid, inv.timegrid
    st = CrankNicolsonStepper(inv.c_tilde, grid, tg.dt)
    monkeypatch.setattr(forward, "_pbtrs", lambda ab, b, *args: (b, -1))
    with pytest.raises(forward.SolverError, match="info=-1"):
        solve_heat(inv.base, grid, tg)
    with pytest.raises(forward.SolverError, match="info=-1"):
        adjoint_rows(st, np.zeros((tg.steps + 1, st.interior.size)))


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_solve_B_solves_in_place_and_refuses_a_copy(dimension, n):
    grid = pin_grid(dimension, n)
    st = CrankNicolsonStepper(np.ones(grid.n_nodes), grid, 2.0 / 128)
    rng = np.random.default_rng(25)
    block = rng.standard_normal((3, st.interior.size))
    expect = scipy.linalg.cho_solve_banded((st.chol, False), block[1])
    row = block[1]
    assert st.solve_B(row) is row
    np.testing.assert_array_equal(block[1], expect)
    # f2py would solve these into a copy and leave the argument as it was
    column = rng.standard_normal((st.interior.size, 2))[:, 0]
    single = rng.standard_normal(st.interior.size).astype(np.float32)
    for rhs in (column, single):
        before = rhs.copy()
        with pytest.raises(ValueError, match="in place"):
            st.solve_B(rhs)
        np.testing.assert_array_equal(rhs, before)


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_loaded_lapack_matches_scipy_linalg(dimension, n):
    """forward loads scipy's LAPACK wrappers from their compiled module;
    they must be the routines, and give the bits, that scipy.linalg's
    lookups and Cholesky wrappers give."""
    grid = pin_grid(dimension, n)
    rng = np.random.default_rng(24)
    pbtrf, pbtrs, potrf, potrs = scipy.linalg.get_lapack_funcs(
        ("pbtrf", "pbtrs", "potrf", "potrs"), dtype=np.float64)
    # random diagonally dominant bands as wide as the stepper's
    width, size = CrankNicolsonStepper(np.ones(grid.n_nodes), grid,
                                       2.0 / 128).chol.shape
    for _ in range(3):
        ab = rng.uniform(-1.0, 1.0, (width, size))
        ab[-1] = 2.0 * width + rng.random(size)
        chol, info = forward._pbtrf(np.asfortranarray(ab), lower=0)
        chol_ref, info_ref = pbtrf(ab, lower=0)
        assert info == info_ref == 0
        np.testing.assert_array_equal(chol, chol_ref)
        np.testing.assert_array_equal(chol, scipy.linalg.cholesky_banded(ab))
        rhs = rng.standard_normal(size)
        np.testing.assert_array_equal(forward._pbtrs(chol, rhs)[0],
                                      pbtrs(chol_ref, rhs)[0])
        np.testing.assert_array_equal(
            forward._pbtrs(chol, rhs)[0],
            scipy.linalg.cho_solve_banded((chol_ref, False), rhs))

    # the H1 Gram matrix of the reconstruction's preconditioner
    inv_grid = inversion_setup(dimension, n).grid
    idx = np.flatnonzero(stability.admissible_mask(inv_grid))
    gram = stability._h1_gram(inv_grid, idx)
    spd = rng.standard_normal((idx.size, idx.size))
    for matrix in (gram, spd @ spd.T + idx.size * np.eye(idx.size)):
        chol = forward.cho_factor(matrix)
        chol_ref, lower = scipy.linalg.cho_factor(matrix)
        assert not lower
        np.testing.assert_array_equal(chol, chol_ref)
        np.testing.assert_array_equal(chol, potrf(matrix, lower=0,
                                                  clean=0)[0])
        for _ in range(3):
            rhs = rng.standard_normal(idx.size)
            x = forward.cho_solve(chol, rhs)
            np.testing.assert_array_equal(
                x, scipy.linalg.cho_solve((chol_ref, False), rhs))
            np.testing.assert_array_equal(x, potrs(chol_ref, rhs,
                                                   lower=0)[0])


def test_missing_scipy_extension_names_module_and_version():
    with pytest.raises(ImportError) as err:
        forward._scipy_extension("scipy.linalg", "_no_such_module")
    assert "scipy.linalg._no_such_module" in str(err.value)
    assert scipy.__version__ in str(err.value)


def member_stack(setup, count, seed):
    """count admissible conductivities on setup's grid, the first its
    base conductivity."""
    rng = np.random.default_rng(seed)
    bumps = (0.3 * rng.random((count - 1, setup.grid.n_nodes))
             * stability.admissible_mask(setup.grid))
    return np.vstack((setup.c_tilde, setup.c_tilde + bumps))


# (dimension, n): the shipped grids, an odd one, and 2D n = 17, whose
# band is 16 wide
STACK_GRIDS = [(1, 32), (1, 17), (2, 16), (2, 17)]


@pytest.mark.parametrize("dimension,n", STACK_GRIDS)
def test_stacked_solve_equals_the_single_solves_bitwise(dimension, n):
    setup = packaged_setup(dimension=dimension, n=n, steps=64)
    grid, tg = setup.grid, setup.timegrid
    cs = member_stack(setup, 5, 31)
    singles = [solve_heat(dataclasses.replace(setup.base, c=c), grid,
                          tg).values for c in cs]
    stacked = solve_heat(dataclasses.replace(setup.base, c=cs), grid, tg)
    assert stacked.values.shape == (5, tg.steps + 1, grid.n_nodes)
    for member, single in zip(stacked.values, singles, strict=True):
        np.testing.assert_array_equal(member, single)
        assert member.tobytes() == single.tobytes()
    # a stepper built for the stack sweeps it as one block
    block = CrankNicolsonStepper(cs, grid, tg.dt)
    assert block.members == 5
    assert block.chol.shape[1] == 5 * block.interior.size
    one = np.empty_like(stacked.values)
    block.solve(setup.base.g, setup.base.q0, tg, one,
                np.empty((tg.steps + 1, 2 * block.chol.shape[1])))
    assert one.tobytes() == stacked.values.tobytes()


@pytest.mark.parametrize("members", [1, 2, 5])
@pytest.mark.parametrize("dimension,n", PIN_GRIDS + [(2, 7)])
def test_member_blocks_are_each_members_own_tables(dimension, n, members):
    # member m's rows of the stacked step matrices and B_bd, its block
    # columns moved back into place, and its columns of the band, are
    # bitwise the tables of a stepper built for that member alone
    grid, dt = pin_grid(dimension, n), 2.0 / 96
    cs = 0.5 + 2.0 * np.random.default_rng(28).random((members,
                                                       grid.n_nodes))

    block = CrankNicolsonStepper(cs, grid, dt)
    stacked_band, ni = band_of(cs, grid, dt), block.interior.size
    for m, c in enumerate(cs):
        own = CrankNicolsonStepper(c, grid, dt)
        single = slice(m * ni, (m + 1) * ni)
        assert stacked_band[:, single].tobytes() == band_of(c, grid,
                                                            dt).tobytes()
        np.testing.assert_array_equal(block.chol[:, single], own.chol)
        for name, steps in (("_forward_step", True), ("_adjoint_step", True),
                            ("_boundary_matrix", False)):
            (indptr, indices, data), want = (getattr(block, name),
                                             getattr(own, name))
            np.testing.assert_array_equal(
                indptr[single.start:single.stop + 1] - indptr[single.start],
                want[0])
            entries = slice(indptr[single.start], indptr[single.stop])
            cols = indices[entries]
            if steps:
                blocks, rest = np.divmod(cols, members * ni)
                assert np.all(rest // ni == m)
                cols = blocks * ni + rest % ni
            np.testing.assert_array_equal(cols, want[1])
            assert data[entries].tobytes() == want[2].tobytes()


@pytest.mark.parametrize("dimension,n", PIN_GRIDS)
def test_steppers_of_one_stack_size_share_every_index_array(dimension, n):
    rng = np.random.default_rng(29)
    for members in (1, 3):
        cs = 0.5 + rng.random((members, (n + 1) ** dimension))
        # a single conductivity is the one-member stack; a second grid
        # object of the same size and another dt share the tables too
        first = CrankNicolsonStepper(cs[0] if members == 1 else cs,
                                     pin_grid(dimension, n), 2.0 / 128)
        second = CrankNicolsonStepper(cs[::-1], pin_grid(dimension, n),
                                      2.0 / 96)
        assert first.interior is second.interior
        assert first.boundary is second.boundary
        for name in ("_forward_step", "_adjoint_step", "_boundary_matrix"):
            ours, theirs = getattr(first, name), getattr(second, name)
            for index in (0, 1):
                assert ours[index] is theirs[index]
                assert not ours[index].flags.writeable
            assert ours[2] is not theirs[2]


@pytest.mark.parametrize("dimension,n", STACK_GRIDS)
def test_stacked_adjoint_sweep_equals_the_single_sweeps(dimension, n):
    setup = packaged_setup(dimension=dimension, n=n, steps=64)
    grid, tg = setup.grid, setup.timegrid
    cs = member_stack(setup, 4, 32)
    block = CrankNicolsonStepper(cs, grid, tg.dt)
    ni = block.interior.size
    source = np.random.default_rng(33).standard_normal((tg.steps + 1, 4 * ni))
    got = adjoint_rows(block, source)
    for m, c in enumerate(cs):
        single = adjoint_rows(CrankNicolsonStepper(c, grid, tg.dt),
                              source[:, m * ni:(m + 1) * ni])
        assert got[:, m * ni:(m + 1) * ni].tobytes() == single.tobytes()


def test_stacked_solve_checks_every_member():
    setup = packaged_setup(dimension=1, n=16, steps=32)
    cs = member_stack(setup, 3, 35)
    cs[2, 5] = -1.0
    with pytest.raises(GridError, match="positive"):
        solve_heat(dataclasses.replace(setup.base, c=cs), setup.grid,
                   setup.timegrid)
    for bad in (cs[:, :-1], cs[None]):
        with pytest.raises(GridError, match="nodal"):
            solve_heat(dataclasses.replace(setup.base, c=bad), setup.grid,
                       setup.timegrid)
