import numpy as np
import pytest

from carleman_lab.grid import (
    Grid,
    GridError,
    TimeGrid,
    centered_difference,
    discrete_gradient,
    discrete_laplacian,
    divergence_flux,
    first_derivative,
    lattice,
    normal_derivative,
    space_weights,
)
from carleman_lab.observe import norm_space_plain, window_sum
from helpers import discrete_divergence


def test_build_1d_basic():
    g = Grid(1, 10, ["right"])
    assert g.n_nodes == 11
    assert g.h == pytest.approx(0.1)
    assert g.boundary_mask.sum() == 2
    assert g.gamma0_faces == ("right",)
    assert list(g.face_nodes("right")) == [10]
    assert g.face_normal("right")[0] == 1.0
    assert g.face_normal("left")[0] == -1.0


@pytest.mark.parametrize("dimension,n", [(1, 4), (1, 7), (2, 4), (2, 7)])
def test_lattice_tables_agree_with_the_grid(dimension, n):
    g = Grid(dimension, n, ["right"] if dimension == 1 else ["east"])
    lat = g.lattice
    assert lat is lattice(dimension, n)
    assert not any(t.flags.writeable for t in vars(lat).values())
    np.testing.assert_array_equal(g.boundary_mask, lat.depth == 0)
    ijk = np.indices(g.shape).reshape(dimension, -1)
    np.testing.assert_array_equal(lat.depth,
                                  np.min(np.minimum(ijk, n - ijk), axis=0))
    for face in g.face_names:
        layers = g.face_layers[face]
        assert not layers.flags.writeable
        np.testing.assert_array_equal(g.face_nodes(face), layers[0])
    # up[a] inverts lo on axis a's faces, whose upper ends lie one stride up
    for a in range(dimension):
        below = np.flatnonzero(lat.up[a] >= 0)
        np.testing.assert_array_equal(lat.lo[lat.up[a, below]], below)
        np.testing.assert_array_equal(lat.hi[lat.up[a, below]],
                                      below + (n + 1) ** (dimension - 1 - a))
        assert np.all(ijk[a][lat.up[a] < 0] == n)
    assert np.sum(lat.up >= 0) == lat.lo.size == dimension * n * (n + 1) ** (
        dimension - 1)


def test_build_2d_east_face():
    g = Grid(2, 8, ["east"])
    assert g.n_nodes == 81
    # 4 faces of 9 nodes, 4 shared corners
    assert g.boundary_mask.sum() == 32
    assert g.face_nodes("east").size == 9
    assert np.all(g.coords[g.face_nodes("east"), 0] == 1.0)


def test_build_2d_corner_pair():
    g = Grid(2, 8, ["north", "east"])
    # two faces of 9 sharing one corner node
    assert np.union1d(g.face_nodes("north"), g.face_nodes("east")).size == 17


def test_build_rejects_small_n():
    with pytest.raises(GridError):
        Grid(1, 2, ["right"])


def test_build_rejects_full_boundary():
    with pytest.raises(GridError):
        Grid(1, 8, ["left", "right"])


def test_build_rejects_unknown_face():
    with pytest.raises(GridError):
        Grid(2, 8, ["up"])


def test_face_normals_unit_axis_vectors():
    g = Grid(2, 8, ["east"])
    for face in g.face_names:
        nu = g.face_normal(face)
        assert np.abs(nu).sum() == 1.0
        # outward: from the face's nodes the normal leaves the square
        assert np.all((g.coords[g.face_nodes(face)] @ nu) == max(nu.sum(), 0))


def test_timegrid_midpoint_on_grid():
    tg = TimeGrid(0.5, 2.0, 96)
    assert tg.times[tg.midpoint_index] == pytest.approx(1.25, abs=1e-15)
    assert tg.t_mid == 1.25
    with pytest.raises(GridError):
        TimeGrid(0.5, 2.0, 95)  # odd
    with pytest.raises(GridError):
        TimeGrid(2.0, 0.5, 10)


def test_timegrid_window_alignment():
    full = TimeGrid(0.0, 2.0, 128)
    win, off = full.window(0.5)
    assert off == 32
    assert win.steps == 96
    assert win.times[0] == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(GridError):
        full.window(0.51)


def test_laplacian_exact_on_quadratic():
    g = Grid(1, 10, ["right"])
    x = g.coords[:, 0]
    lap = discrete_laplacian(x**2, g)
    assert np.max(np.abs(lap[~g.boundary_mask] - 2.0)) < 1e-11


def second_difference(v, axis, h):
    # the plain second-difference laplacian along one axis: a difference
    # of first differences inside, a 4-point closure at the ends
    v = np.moveaxis(v, axis, -1)
    out = np.empty_like(v)
    d = v[..., 1:] - v[..., :-1]
    out[..., 1:-1] = (d[..., 1:] - d[..., :-1]) / h**2
    out[..., 0] = (2.0 * v[..., 0] - 5.0 * v[..., 1] + 4.0 * v[..., 2]
                   - v[..., 3]) / h**2
    out[..., -1] = (2.0 * v[..., -1] - 5.0 * v[..., -2] + 4.0 * v[..., -3]
                    - v[..., -4]) / h**2
    return np.moveaxis(out, -1, axis)


def test_divflux_unit_c_is_laplacian():
    # the unit-conductivity flux form, which discrete_laplacian is,
    # reproduces the plain second-difference stencil bit for bit
    rng = np.random.default_rng(3)
    for dim, n in ((1, 12), (2, 8)):
        g = Grid(dim, n, ["right"] if dim == 1 else ["east"])
        f = rng.standard_normal(g.n_nodes)
        v = g.reshape(f)
        expect = np.zeros(v.shape)
        for a in range(dim):
            expect += second_difference(v, a - dim, g.h)
        np.testing.assert_array_equal(
            divergence_flux(np.ones(g.n_nodes), f, g), expect.ravel())
        np.testing.assert_array_equal(discrete_laplacian(f, g),
                                      expect.ravel())


def test_divflux_linear_c_linear_f():
    # div((1+x) d/dx x) = 1; exact to round-off at every node and
    # staying there under refinement
    for n in (8, 16, 32):
        g = Grid(1, n, ["right"])
        x = g.coords[:, 0]
        val = divergence_flux(1.0 + x, x, g)
        assert np.max(np.abs(val - 1.0)) < 1e-10


def test_divflux_rejects_bad_c():
    g = Grid(1, 8, ["right"])
    f = np.ones(g.n_nodes)
    with pytest.raises(GridError):
        divergence_flux(np.zeros(g.n_nodes), f, g)
    c = np.ones(g.n_nodes)
    c[3] = -1.0
    with pytest.raises(GridError):
        divergence_flux(c, f, g)


def test_laplacian_refinement_order():
    # observed order >= 1.9 on interior nodes for a smooth field
    errs = []
    for n in (8, 16, 32):
        g = Grid(1, n, ["right"])
        x = g.coords[:, 0]
        f = np.sin(np.pi * x)
        exact = -np.pi**2 * np.sin(np.pi * x)
        err = np.max(np.abs((discrete_laplacian(f, g) - exact)[~g.boundary_mask]))
        errs.append(err)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_gradient_refinement_order_2d():
    errs = []
    for n in (8, 16, 32):
        g = Grid(2, n, ["east"])
        x, y = g.coords[:, 0], g.coords[:, 1]
        f = np.sin(np.pi * x) * np.cos(np.pi * y)
        gx = np.pi * np.cos(np.pi * x) * np.cos(np.pi * y)
        gy = -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y)
        got = discrete_gradient(f, g)
        err = np.max(np.abs(got - np.column_stack([gx, gy])))
        errs.append(err)
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_divflux_bilinear():
    rng = np.random.default_rng(11)
    g = Grid(2, 8, ["east"])
    f1 = rng.standard_normal(g.n_nodes)
    f2 = rng.standard_normal(g.n_nodes)
    c1 = 1.0 + rng.random(g.n_nodes)
    c2 = 1.0 + rng.random(g.n_nodes)
    lhs = divergence_flux(c1, 2.0 * f1 - 3.0 * f2, g)
    rhs = 2.0 * divergence_flux(c1, f1, g) - 3.0 * divergence_flux(c1, f2, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10
    lhs = divergence_flux(c1 + c2, f1, g)
    rhs = divergence_flux(c1, f1, g) + divergence_flux(c2, f1, g)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_quadrature_space_exact_cases():
    g = Grid(1, 10, ["right"])
    assert space_weights(g) @ np.ones(g.n_nodes) == pytest.approx(1.0, abs=1e-14)
    assert space_weights(g) @ g.coords[:, 0] == pytest.approx(0.5, abs=1e-14)


def test_quadrature_space_sin():
    g = Grid(1, 32, ["right"])
    val = space_weights(g) @ np.sin(np.pi * g.coords[:, 0])
    assert abs(val - 2.0 / np.pi) < 2e-3


def test_quadrature_2d_constant():
    g = Grid(2, 8, ["east"])
    assert space_weights(g) @ np.ones(g.n_nodes) == pytest.approx(1.0, abs=1e-13)


def test_quadrature_rejects_nonfinite():
    # the plain norms are the quadratures that check their integrand
    g = Grid(1, 8, ["right"])
    f = np.ones(g.n_nodes)
    f[2] = np.nan
    with pytest.raises(GridError):
        norm_space_plain(f, g)


def test_quadrature_spacetime_linear_exact():
    # window_sum is the trapezoid in time of the trapezoid in space for
    # an integrand that vanishes on the endpoint rows, which it omits:
    # exact for (x + 1) times the hat in t peaking at t = 1
    g = Grid(1, 8, ["right"])
    tg = TimeGrid(0.0, 2.0, 8)
    x = g.coords[:, 0]
    vals = np.array([(x + 1.0) * (1.0 - abs(t - 1.0)) for t in tg.times])
    # integral of (x + 1) over (0,1) times the hat's area 1
    assert window_sum(vals[1:-1], space_weights(g), tg.dt) == pytest.approx(
        1.5, abs=1e-12)


def test_normal_derivative_quadratic():
    g = Grid(1, 16, ["right"])
    x = g.coords[:, 0]
    f = x**2
    assert normal_derivative(f, g, "right")[0] == pytest.approx(2.0, abs=1e-10)
    assert normal_derivative(f, g, "left")[0] == pytest.approx(0.0, abs=1e-10)


def test_normal_derivative_2d_face():
    g = Grid(2, 16, ["east"])
    x, y = g.coords[:, 0], g.coords[:, 1]
    f = x**2 * (1.0 + y)
    got = normal_derivative(f, g, "east")
    yline = np.linspace(0.0, 1.0, 17)
    assert np.max(np.abs(got - 2.0 * (1.0 + yline))) < 1e-9


def test_conservativity_summation_by_parts():
    # volume integral of div(c grad f) matches the boundary flux integral
    # at second order for f vanishing on the boundary
    errs = []
    for n in (8, 16, 32):
        g = Grid(2, n, ["east"])
        x, y = g.coords[:, 0], g.coords[:, 1]
        f = np.sin(np.pi * x) * np.sin(np.pi * y)
        c = 1.0 + 0.4 * x + 0.2 * y * y
        vol = space_weights(g) @ divergence_flux(c, f, g)
        bnd = sum(g.face_axis_weights(face)
                  @ (c[g.face_nodes(face)] * normal_derivative(f, g, face))
                  for face in g.face_names)
        errs.append(abs(vol - bnd))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.5


def _conductivity(g):
    return 1.0 + 0.4 * g.coords[:, 0] + 0.2 * g.coords[:, -1] ** 2


STACK_STENCILS = {
    "gradient": discrete_gradient,
    "laplacian": discrete_laplacian,
    "divergence_flux": lambda f, g, **out: divergence_flux(_conductivity(g),
                                                           f, g, **out),
    "divergence": lambda f, g: discrete_divergence(discrete_gradient(f, g), g),
    "first_derivative": lambda f, g, **out: first_derivative(
        g.reshape(f), -g.dimension, g.h, **out),
    "centered_difference": lambda f, g, **out: centered_difference(
        g.reshape(f), -1, g.h, **out),
}
# the stencils that take an optional out
OUT_STENCILS = ("gradient", "divergence_flux", "first_derivative",
                "centered_difference")
STACK_CASES = [
    (dim, name)
    for dim, faces in ((1, ("left", "right")),
                       (2, ("west", "east", "south", "north")))
    for name in list(STACK_STENCILS) + [f"normal:{face}" for face in faces]
]


def out_buffers(shape):
    """NaN-filled outputs of one shape: a C-ordered array, and a view
    whose first axis is the fastest in memory (a moved axis)."""
    moved = np.full(shape[1:] + shape[:1], np.nan)
    return [np.full(shape, np.nan), np.moveaxis(moved, -1, 0)]


def assert_fills_out_bitwise(call, expected):
    # call(out=...) writes into out, and reads no slot it has not written
    for out in out_buffers(expected.shape):
        assert np.shares_memory(call(out=out), out)
        assert (np.ascontiguousarray(out).tobytes()
                == np.ascontiguousarray(expected).tobytes())


@pytest.mark.parametrize("dim,stencil", STACK_CASES)
def test_stencil_on_time_stack_equals_stacked_rows(dim, stencil):
    # one call on a (T, n_nodes) stack must give the per-row results,
    # stacked, bit for bit, and so must a call that fills an out buffer
    g = Grid(dim, 7, ["right"] if dim == 1 else ["north", "east"])
    if stencil.startswith("normal:"):
        face = stencil.split(":")[1]
        fn = lambda f, grid: normal_derivative(f, grid, face)
    else:
        fn = STACK_STENCILS[stencil]
    stack = np.random.default_rng(dim).standard_normal((5, g.n_nodes))
    batched = fn(stack, g)
    rows = np.stack([fn(row, g) for row in stack])
    assert batched.shape == rows.shape
    np.testing.assert_array_equal(batched, rows)
    if stencil in OUT_STENCILS:
        assert_fills_out_bitwise(lambda out: fn(stack, g, out=out), batched)


@pytest.mark.parametrize("dim", [1, 2])
def test_time_stencils_fill_out_bitwise(dim):
    # the time axis (-2) of a (test, time, node) stack, as the Carleman
    # operators and the observed flux difference it
    g = Grid(dim, 7, ["right"] if dim == 1 else ["north", "east"])
    stack = np.random.default_rng(dim).standard_normal((3, 9, g.n_nodes))
    stack[:, 4] = -0.0
    for fn in (centered_difference, first_derivative):
        assert_fills_out_bitwise(lambda out: fn(stack, -2, 0.25, out=out),
                                 fn(stack, -2, 0.25))


@pytest.mark.parametrize("dim", [1, 2])
def test_stencils_on_an_integer_stack_equal_its_float_copy(dim):
    # an integer stack is differenced as floats: no truncation to the
    # input's dtype, and no casting error on the out paths
    g = Grid(dim, 7, ["right"] if dim == 1 else ["north", "east"])
    ints = np.random.default_rng(dim).integers(-50, 50, (5, g.n_nodes))
    floats = ints.astype(float)
    faces = ("left", "right") if dim == 1 else ("west", "east", "south",
                                                "north")
    cases = dict(STACK_STENCILS)
    cases.update({f"normal:{face}": (lambda f, grid, face=face:
                                     normal_derivative(f, grid, face))
                  for face in faces})
    for name, fn in cases.items():
        want = fn(floats, g)
        assert fn(ints, g).tobytes() == want.tobytes(), name
        if name in OUT_STENCILS:
            assert_fills_out_bitwise(lambda out: fn(ints, g, out=out), want)
    squares = np.array([[0, 1, 4, 9, 16]])
    line = Grid(1, 4, ["right"])
    for fn in (lambda v: first_derivative(v, -1, 0.3),
               lambda v: divergence_flux(np.ones(5), v, line)):
        assert fn(squares).tobytes() == fn(squares.astype(float)).tobytes()
