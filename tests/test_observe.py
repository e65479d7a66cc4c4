import dataclasses

import numpy as np
import pytest

from carleman_lab.forward import (HeatProblem, SpaceTimeField, solve_heat,
                                  time_derivative)
from carleman_lab.grid import Grid, GridError, TimeGrid, normal_derivative
from carleman_lab.observe import (
    boundary_norm_plain,
    extract_observations,
    gamma0_traces,
    norm_space_plain,
    observation_distance_plain,
    observations_to_csv,
    observed_flux,
    observed_flux_transpose,
    weighted_boundary_norm,
    weighted_norm_space,
    weighted_norm_spacetime,
    window_sum,
)
from carleman_lab.setups import default_setup
from carleman_lab.weights import build_weights


def sampled_decaying_sine(n=64, steps=128):
    g = Grid(1, n, ["right"])
    tg = TimeGrid(0.0, 2.0, steps)
    x = g.coords[:, 0]
    vals = np.exp(-tg.times)[:, None] * np.sin(np.pi * x)[None, :]
    return g, tg, SpaceTimeField(values=vals, grid=g, timegrid=tg)


def test_flux_trace_analytic():
    g, tg, f = sampled_decaying_sine()
    win, _ = tg.window(0.5)
    obs = extract_observations(f, g, win)
    trace = obs.flux["right"]
    assert trace.shape == (win.steps - 1, 1)
    t_int = win.times[1:-1]
    exact = np.pi * np.exp(-t_int)
    assert np.max(np.abs(trace[:, 0] - exact) / exact) < 5e-3


def test_flux_trace_constant_in_time():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 2.0, 16)
    win, _ = tg.window(0.5)
    x = g.coords[:, 0]
    f = SpaceTimeField(values=np.tile(x**2, (17, 1)), grid=g, timegrid=tg)
    obs = extract_observations(f, g, win)
    assert np.max(np.abs(obs.flux["right"])) == 0.0


@pytest.mark.parametrize("dim", [1, 2])
def test_flux_is_the_trace_of_the_time_derivative(dim):
    # observed_flux differences only the window's interior rows, and
    # gives the trace of the whole field's time derivative on them, bit
    # for bit (dt = 1.3/30 is not a power of two)
    g = Grid(dim, 6, ["right"] if dim == 1 else ["north", "east"])
    tg = TimeGrid(0.0, 1.3, 30)
    win, off = tg.window(tg.times[6])
    vals = np.random.default_rng(dim).standard_normal((31, g.n_nodes))
    f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    rows = time_derivative(f).values[off + 1 : off + win.steps]
    obs = extract_observations(f, g, win)
    assert tuple(obs.flux) == g.gamma0_faces
    for face in g.gamma0_faces:
        np.testing.assert_array_equal(obs.flux[face],
                                      normal_derivative(rows, g, face))


@pytest.mark.parametrize("dim", [1, 2])
def test_observed_flux_transpose_is_the_adjoint(dim):
    # <observed_flux(V), R> in the misfit's boundary quadrature equals
    # sum(V * transpose(R)); in 2D the two faces share a corner node
    g = Grid(dim, 6, ["right"] if dim == 1 else ["north", "east"])
    tg = TimeGrid(0.0, 1.3, 30)
    win, _ = tg.window(tg.times[6])
    rng = np.random.default_rng(10 + dim)
    v = rng.standard_normal((31, g.n_nodes))
    r = {face: rng.standard_normal((win.steps - 1, g.face_nodes(face).size))
         for face in g.gamma0_faces}
    flux = observed_flux(v, g, tg, win)
    lhs = sum(float(window_sum(flux[face] * r[face],
                               g.face_axis_weights(face), win.dt))
              for face in g.gamma0_faces)
    source = observed_flux_transpose(r, g, tg, win)
    assert source.shape == v.shape
    assert float(np.sum(v * source)) == pytest.approx(lhs, rel=1e-13)


def test_twin_observation_distance_zero():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.0, 2.0, 32)
    win, _ = tg.window(0.5)
    x = g.coords[:, 0]
    prob = HeatProblem(
        c=1.0 + 0.5 * x,
        g=lambda t: np.ones(g.n_nodes) + 0.1 * t,
        q0=np.ones(g.n_nodes),
    )
    o1 = extract_observations(solve_heat(prob, g, tg), g, win)
    o2 = extract_observations(solve_heat(prob, g, tg), g, win)
    dist = observation_distance_plain(o1, o2, g, win)
    assert dist["total"] <= 1e-15


@pytest.fixture(scope="module")
def ws_1d():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.5, 2.0, 32)
    return build_weights(g, tg, lam=1.0, s=1.0, m=1.1, x0=[-0.1])


def test_weighted_norm_zero_field(ws_1d):
    z = np.zeros(ws_1d.grid.n_nodes)
    assert weighted_norm_space(z, ws_1d, 3) == 0.0
    assert weighted_norm_spacetime(z, ws_1d, 1) == 0.0


def test_weighted_norm_homogeneity_exact(ws_1d):
    rng = np.random.default_rng(0)
    f = rng.standard_normal(ws_1d.grid.n_nodes)
    assert weighted_norm_space(2.0 * f, ws_1d, 2) == 4.0 * weighted_norm_space(
        f, ws_1d, 2
    )
    assert weighted_norm_spacetime(2.0 * f, ws_1d, 0) == 4.0 * weighted_norm_spacetime(
        f, ws_1d, 0
    )


def test_weighted_norm_unweighted_reduction(ws_1d):
    # zeroing eta and log_phi turns the weighted space norm into plain L^2
    flat = dataclasses.replace(
        ws_1d,
        log_phi=np.zeros_like(ws_1d.log_phi),
        eta=np.ones_like(ws_1d.eta),
        eta_ref=1.0,
    )
    ones = np.ones(flat.grid.n_nodes)
    assert weighted_norm_space(ones, flat, 0) == pytest.approx(1.0, abs=1e-13)
    rng = np.random.default_rng(1)
    f = rng.standard_normal(flat.grid.n_nodes)
    assert weighted_norm_space(f, flat, 0) == pytest.approx(
        norm_space_plain(f, flat.grid), rel=1e-13
    )


def test_weighted_norm_monotone_in_s():
    g = Grid(1, 16, ["right"])
    tg = TimeGrid(0.5, 2.0, 32)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(g.n_nodes)
    prev = None
    for s in (1.0, 2.0, 4.0, 8.0):
        ws = build_weights(g, tg, lam=1.0, s=s, m=1.1, x0=[-0.1])
        val = weighted_norm_spacetime(f, ws, 0)
        if prev is not None:
            assert val <= prev + 1e-15
        prev = val


def test_weighted_norm_rejects_nonfinite(ws_1d):
    f = np.ones(ws_1d.grid.n_nodes)
    f[3] = np.inf
    with pytest.raises(GridError, match="non-finite"):
        weighted_norm_space(f, ws_1d, 0)


def test_weighted_boundary_norm_shapes_and_factor(ws_1d):
    g = ws_1d.grid
    nt = ws_1d.timegrid.steps - 1
    trace = {"right": np.ones((nt, 1))}
    base = weighted_boundary_norm(trace, ws_1d)
    withb = weighted_boundary_norm(trace, ws_1d, normal_beta_factor=True)
    assert base > 0.0
    # d_nu beta on the observed face is 2(1 - x0) = 2.2
    assert withb == pytest.approx(2.2 * base, rel=1e-12)
    with pytest.raises(GridError):
        weighted_boundary_norm({"right": np.ones((nt + 1, 1))}, ws_1d)


def test_plain_boundary_norm_constant():
    g = Grid(1, 8, ["right"])
    win = TimeGrid(0.5, 2.0, 24)
    # constant trace 3 on one endpoint: integral = 9 * (T - t0 - 2 dt)
    trace = {"right": np.full((win.steps - 1, 1), 3.0)}
    expect = 9.0 * win.dt * (win.steps - 1)
    assert boundary_norm_plain(trace, g, win) == pytest.approx(expect, rel=1e-13)


def read_observations(path, grid, window) -> dict:
    """The records of an observations_to_csv file by kind, in arrays laid
    out for the grid and window."""
    n, dim = grid.n_nodes, grid.dimension
    out = {f"flux:{face}": np.zeros((window.steps - 1,
                                     grid.face_nodes(face).size))
           for face in grid.gamma0_faces}
    out.update(q=np.zeros(n), lap_q=np.zeros(n), grad_q=np.zeros((n, dim)),
               grad_lap_q=np.zeros((n, dim)))
    with open(path) as fh:
        assert fh.readline().strip() == "kind,index1,index2,value"
        for line in fh:
            kind, i1, i2, val = line.strip().split(",")
            i1, i2, val = int(i1), int(i2), float(val)
            if kind == "t_prime":
                out[kind] = val
            elif kind.startswith("flux:"):
                out[kind][i2, i1] = val
            elif kind in ("q", "lap_q"):
                out[kind][i1] = val
            else:
                out[kind][i1, i2] = val
    return out


def test_observation_csv_round_trip(tmp_path):
    g, tg, f = sampled_decaying_sine(n=16, steps=32)
    win, _ = tg.window(0.5)
    obs = extract_observations(f, g, win)
    path = tmp_path / "obs.csv"
    observations_to_csv(obs, path)
    loaded = read_observations(path, g, win)
    np.testing.assert_array_equal(loaded["flux:right"], obs.flux["right"])
    np.testing.assert_array_equal(loaded["q"], obs.snapshot.q)
    np.testing.assert_array_equal(loaded["grad_lap_q"],
                                  obs.snapshot.grad_lap_q)
    assert loaded["t_prime"] == obs.snapshot.t_prime


def test_observation_csv_2d_two_faces(tmp_path):
    g = Grid(2, 8, ["north", "east"])
    tg = TimeGrid(0.0, 2.0, 16)
    win, _ = tg.window(0.5)
    x, y = g.coords[:, 0], g.coords[:, 1]
    vals = (1.0 + tg.times[:, None] ** 2) * (x * y + 1.0)[None, :]
    f = SpaceTimeField(values=vals, grid=g, timegrid=tg)
    obs = extract_observations(f, g, win)
    path = tmp_path / "obs2d.csv"
    observations_to_csv(obs, path)
    loaded = read_observations(path, g, win)
    for face in ("north", "east"):
        np.testing.assert_array_equal(loaded[f"flux:{face}"], obs.flux[face])


@pytest.mark.parametrize("dimension", [1, 2])
def test_norms_of_a_member_stack_equal_the_single_norms(dimension):
    # a (members, nodes) stack has ndim 2 like a (nodes, dim) vector
    # field; only the trailing (n_nodes, dim) shape makes a vector field
    g = Grid(dimension, 8,
             ["right"] if dimension == 1 else ["north", "east"])
    tg = TimeGrid(0.5, 2.0, 16)
    ws = build_weights(g, tg, lam=1.0, s=1.0, m=1.1, x0=[-0.1] * dimension)
    rng = np.random.default_rng(9)
    for shape in ((1, g.n_nodes), (3, g.n_nodes), (g.n_nodes, dimension),
                  (3, g.n_nodes, dimension)):
        stack = rng.standard_normal(shape)
        vector = shape[-2:] == (g.n_nodes, dimension)
        members = stack.reshape((-1,) + shape[-1 - vector:])
        for norm in (lambda f: norm_space_plain(f, g),
                     lambda f: weighted_norm_space(f, ws, 1)):
            got = norm(stack)
            want = [norm(member) for member in members]
            if not vector or len(shape) == 3:
                assert np.shape(got) == shape[:-1 - vector]
            assert np.ravel(got).tolist() == want
            assert all(type(v) is float for v in want)
    # a vector field sums its squared components
    field = rng.standard_normal((g.n_nodes, dimension))
    assert norm_space_plain(field, g) == norm_space_plain(
        np.sqrt(np.sum(field**2, axis=1)), g)


@pytest.mark.parametrize("dimension", [1, 2])
def test_distance_of_a_stacked_observation_set_is_per_member(dimension):
    g = Grid(dimension, 8,
             ["right"] if dimension == 1 else ["north", "east"])
    tg = TimeGrid(0.0, 2.0, 16)
    win, _ = tg.window(0.5)
    x = g.coords[:, 0]
    rng = np.random.default_rng(10)
    values = (1.0 + x)[None, None, :] + 0.01 * rng.standard_normal(
        (3, tg.steps + 1, g.n_nodes))
    stack = extract_observations(SpaceTimeField(values, g, tg), g, win)
    base = extract_observations(SpaceTimeField(values[0], g, tg), g, win)
    got = observation_distance_plain(stack, base, g, win)
    for m in range(3):
        one = extract_observations(SpaceTimeField(values[m], g, tg), g, win)
        assert {k: float(v[m]) for k, v in got.items()} == \
            observation_distance_plain(one, base, g, win)
    flux = {face: stack.flux[face] for face in stack.flux}
    assert weighted_boundary_norm(flux, build_weights(
        g, win, lam=1.0, s=1.0, m=1.1, x0=[-0.1] * dimension)).shape == (3,)


@pytest.mark.parametrize("dimension", [1, 2])
def test_gamma0_traces_of_a_member_stack_equal_the_member_traces(dimension):
    # the default 1D grid, and cfg2d's (2D, n=16) north and east faces
    grid = default_setup(dimension=dimension,
                         n=32 if dimension == 1 else 16).grid
    rng = np.random.default_rng(12)
    stack = rng.standard_normal((3, 9, grid.n_nodes))
    got = gamma0_traces(stack, grid)
    assert tuple(got) == grid.gamma0_faces
    assert len(got) == dimension
    for m, member in enumerate(stack):
        for face, trace in gamma0_traces(member, grid).items():
            assert trace.shape == (9, grid.face_nodes(face).size)
            assert got[face][m].tobytes() == trace.tobytes()
            assert trace.tobytes() == normal_derivative(
                member, grid, face).tobytes()
