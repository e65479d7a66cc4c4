"""Energy curve and the two endpoint bounds on twin-solve rate fields."""

import numpy as np
import pytest

from carleman_lab.energy import (
    bound_terms,
    energy,
    energy_bound_sides,
    energy_tprime_direct,
    snapshot_bound_sides,
)
from carleman_lab.forward import SpaceTimeField, time_derivative
from carleman_lab.grid import GridError, divergence_flux
from carleman_lab.poincare import check_flat_boundary
from carleman_lab.setups import bump_shape, default_setup, twin_solve
from helpers import default_weights


def default_twin(eps=0.05, **kwargs):
    setup = default_setup(**kwargs)
    gam = eps * bump_shape(setup.grid)
    tw = twin_solve(setup, gam)
    return setup, gam, tw


def test_energy_zero_rate():
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    zero = SpaceTimeField(
        values=np.zeros((setup.timegrid.steps + 1, setup.grid.n_nodes)),
        grid=setup.grid, timegrid=setup.timegrid)
    curve = energy(zero, setup.c_tilde, ws)
    np.testing.assert_array_equal(curve.values, 0.0)
    assert curve.e_tprime == 0.0


def test_energy_nonnegative_and_midpoint_positive():
    setup, gam, tw = default_twin()
    ws = default_weights(setup, s=4.0)
    curve = energy(tw.y, setup.c_tilde + gam, ws)
    assert np.all(curve.values >= 0.0)
    assert curve.e_tprime > 0.0
    assert curve.values.shape == (setup.window.steps - 1,)


def test_energy_separability():
    # y = w(t) sin(pi x) factors the curve into w(t)^2 times the curve of
    # the static profile
    setup = default_setup()
    ws = default_weights(setup, s=2.0)
    x = setup.grid.coords[:, 0]
    profile = np.sin(np.pi * x)
    times = setup.timegrid.times
    w = 1.5 + np.sin(3.0 * times)
    moving = SpaceTimeField(values=w[:, None] * profile[None, :],
                            grid=setup.grid, timegrid=setup.timegrid)
    static = SpaceTimeField(values=np.tile(profile, (times.size, 1)),
                            grid=setup.grid, timegrid=setup.timegrid)
    c = np.ones(setup.grid.n_nodes)
    e_moving = energy(moving, c, ws)
    g_curve = energy(static, c, ws)
    w_interior = 1.5 + np.sin(3.0 * ws.times_interior)
    np.testing.assert_allclose(
        e_moving.values, w_interior**2 * g_curve.values, rtol=1e-12)


def test_energy_endpoint_decay():
    setup, gam, tw = default_twin()
    ws = default_weights(setup, s=4.0)
    curve = energy(tw.y, setup.c_tilde + gam, ws)
    assert curve.values[0] <= 1e-6 * curve.e_tprime
    assert curve.values[-1] <= 1e-6 * curve.e_tprime


@pytest.mark.parametrize("s", [1.0, 4.0])
def test_energy_two_paths_agree(s):
    setup, gam, tw = default_twin()
    ws = default_weights(setup, s=s)
    c = setup.c_tilde + gam
    curve = energy(tw.y, c, ws)
    direct = energy_tprime_direct(tw.y, c, ws)
    assert curve.e_tprime == pytest.approx(direct, rel=1e-12)


def test_energy_rejects_boundary_trace():
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    vals = np.zeros((setup.timegrid.steps + 1, setup.grid.n_nodes))
    vals[:, 0] = 1e-8
    bad = SpaceTimeField(values=vals, grid=setup.grid,
                         timegrid=setup.timegrid)
    with pytest.raises(GridError, match="vanish"):
        energy(bad, setup.c_tilde, ws)


def test_snapshot_bound_zero_gamma():
    setup = default_setup()
    zero = np.zeros(setup.grid.n_nodes)
    tw = twin_solve(setup, zero)
    ws = default_weights(setup, s=4.0)
    rep = snapshot_bound_sides(tw.y, bound_terms(tw.y, zero, ws), ws)
    assert rep.lhs_total == 0.0
    assert rep.rhs_total == 0.0
    assert rep.ratio == 0.0


def test_snapshot_bound_default_and_s_trend():
    setup, gam, tw = default_twin()
    ratios = {}
    for s in (4.0, 8.0):
        ws = default_weights(setup, s=s)
        rep = snapshot_bound_sides(tw.y, bound_terms(tw.y, gam, ws), ws)
        assert np.isfinite(rep.ratio)
        ratios[s] = rep.ratio
    assert ratios[4.0] == pytest.approx(2.636e-11, rel=1e-2)
    assert ratios[8.0] <= 1.1 * ratios[4.0]


def test_energy_bound_default():
    setup, gam, tw = default_twin()
    ws = default_weights(setup, s=4.0)
    rep = energy_bound_sides(energy(tw.y, setup.c_tilde + gam, ws),
                             bound_terms(tw.y, gam, ws), ws)
    assert np.isfinite(rep.ratio)
    assert rep.ratio == pytest.approx(2.337e-5, rel=1e-2)
    assert set(rep.rhs_terms) == {"boundary", "coeff"}


def test_energy_bound_refinement_at_resolved_grid():
    # the T' weight layer needs roughly one e-fold per cell to stop the
    # ratio tracking h; at s = 2 that means n in the hundreds
    ratios = []
    for n in (256, 512):
        setup, gam, tw = default_twin(n=n, steps=128)
        ws = default_weights(setup, s=2.0)
        ratios.append(energy_bound_sides(
            energy(tw.y, setup.c_tilde + gam, ws),
            bound_terms(tw.y, gam, ws), ws).ratio)
    assert abs(ratios[1] - ratios[0]) < 0.2 * ratios[0]


def test_energy_quadratic_in_perturbation():
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    vals = {}
    for eps in (0.025, 0.05):
        gam = eps * bump_shape(setup.grid)
        tw = twin_solve(setup, gam)
        vals[eps] = energy(tw.y, setup.c_tilde + gam, ws).e_tprime
    assert 4.0 * vals[0.025] == pytest.approx(vals[0.05], rel=0.15)


def test_forcing_diagnostic():
    # the forcing div(gamma grad d_t q_tilde) of the rate equation, on
    # the sign-indefinite coefficient path of divergence_flux
    setup, gam, tw = default_twin()
    check_flat_boundary(gam, setup.grid)
    rate = time_derivative(tw.q_tilde).values

    def forcing(gamma):
        return divergence_flux(gamma, rate, setup.grid, positive=False)

    f = forcing(gam)
    assert np.all(np.isfinite(f))
    sup = np.max(np.abs(f))
    assert 0.01 < sup < 10.0
    np.testing.assert_array_equal(forcing(2.0 * gam), 2.0 * f)


def test_energy_curve_csv(tmp_path):
    setup, gam, tw = default_twin()
    ws = default_weights(setup, s=4.0)
    curve = energy(tw.y, setup.c_tilde + gam, ws)
    out = tmp_path / "energy.csv"
    curve.to_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,E"
    assert len(lines) == 1 + curve.values.size
