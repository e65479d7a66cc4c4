"""Transport operator, midpoint decomposition residual, and the
coefficient snapshot estimate."""

import numpy as np
import pytest

from carleman_lab import poincare
from carleman_lab.grid import GridError
from carleman_lab.poincare import (
    build_transport_base,
    check_flat_boundary,
    proposition_sides,
    proposition_to_csv,
)
from carleman_lab.forward import HeatProblem
from carleman_lab.setups import bump_shape, default_setup, twin_solve
from helpers import default_weights
from paper_checks import (
    TransportBase,
    apply_P0,
    cit_residual,
    coefficient_lower_bound,
    lemma_sides,
    transport_base,
)

import dataclasses


def linear_base(setup, ws):
    return transport_base(setup.grid.coords[:, 0], ws)


def test_default_base_nondegenerate_1d_and_2d():
    # the shipped boundary data keep the midpoint slice monotone along
    # the weight gradient with a comfortable margin over the 0.05 floor
    setup = default_setup()
    ws = default_weights(setup, lam=1.0, s=4.0)
    tw = twin_solve(setup, np.zeros(setup.grid.n_nodes))
    min_transport = build_transport_base(
        tw.q_tilde.at_time(ws.timegrid.t_mid), ws)
    assert min_transport >= 0.05
    assert min_transport == pytest.approx(0.29780, rel=1e-3)

    setup2 = default_setup(dimension=2, n=16, steps=64)
    ws2 = default_weights(setup2, lam=1.0, s=4.0)
    tw2 = twin_solve(setup2, np.zeros(setup2.grid.n_nodes))
    min_transport2 = build_transport_base(
        tw2.q_tilde.at_time(ws2.timegrid.t_mid), ws2)
    assert min_transport2 >= 0.05


def test_apply_p0_quadratic_exact():
    setup = default_setup()
    ws = default_weights(setup)
    base = linear_base(setup, ws)
    x = setup.grid.coords[:, 0]
    got = apply_P0(x * (1.0 - x), base, setup.grid)
    # centered and 3-point one-sided stencils are exact on quadratics
    np.testing.assert_allclose(got, 1.0 - 2.0 * x, atol=1e-13)


def test_apply_p0_zero_and_homogeneity():
    setup = default_setup()
    ws = default_weights(setup)
    base = linear_base(setup, ws)
    grid = setup.grid
    np.testing.assert_array_equal(
        apply_P0(np.zeros(grid.n_nodes), base, grid), 0.0)
    x = grid.coords[:, 0]
    g = np.sin(np.pi * x)
    g[grid.boundary_mask] = 0.0
    np.testing.assert_array_equal(apply_P0(2.0 * g, base, grid),
                                  2.0 * apply_P0(g, base, grid))


def test_apply_p0_rejects_boundary_values():
    setup = default_setup()
    ws = default_weights(setup)
    base = linear_base(setup, ws)
    with pytest.raises(GridError, match="vanish"):
        apply_P0(setup.grid.coords[:, 0], base, setup.grid)


def test_apply_p0_2d_refinement():
    errs = []
    for n in (8, 16, 32):
        setup = default_setup(dimension=2, n=n, steps=32)
        ws = default_weights(setup)
        grid = setup.grid
        x, y = grid.coords[:, 0], grid.coords[:, 1]
        g = np.sin(np.pi * x) * np.sin(np.pi * y)
        g[grid.boundary_mask] = 0.0
        base = transport_base(x, ws)
        got = apply_P0(g, base, grid)
        exact = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
        errs.append(np.max(np.abs((got - exact)[~grid.boundary_mask])))
    assert np.log2(errs[0] / errs[1]) > 1.9
    assert np.log2(errs[1] / errs[2]) > 1.9


def test_lemma_zero_case():
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    base = linear_base(setup, ws)
    rep = lemma_sides(np.zeros(setup.grid.n_nodes), base, ws)
    assert rep.lhs_total == 0.0
    assert rep.rhs_total == 0.0
    assert rep.ratio == 0.0


def test_lemma_bounded_over_s():
    # the s^2 prefactor loses to the sharpening weight; no pointwise
    # decay is asserted, only a fixed empirical ceiling
    setup = default_setup()
    x = setup.grid.coords[:, 0]
    g = x * (1.0 - x)
    ratios = {}
    for s in (2.0, 4.0, 8.0):
        ws = default_weights(setup, lam=1.0, s=s)
        rep = lemma_sides(g, linear_base(setup, ws), ws)
        assert np.isfinite(rep.ratio)
        ratios[s] = rep.ratio
    assert ratios[2.0] == pytest.approx(9.527e-3, rel=1e-3)
    assert max(ratios.values()) < 0.02


def test_lemma_homogeneity_exact():
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    base = linear_base(setup, ws)
    x = setup.grid.coords[:, 0]
    g = x * (1.0 - x)
    assert lemma_sides(2.0 * g, base, ws).ratio == lemma_sides(g, base, ws).ratio


def test_lemma_rejects_degenerate_base():
    # a hand-built base: transport_base would refuse to make it
    setup = default_setup()
    ws = default_weights(setup, s=4.0)
    flat = TransportBase(gradient=np.zeros((setup.grid.n_nodes, 1)),
                         min_transport=0.0)
    with pytest.raises(GridError, match="degenerate"):
        lemma_sides(setup.grid.coords[:, 0] * 0.0, flat, ws)


@pytest.mark.parametrize("dimension", [1, 2])
def test_transport_base_of_a_constant_field_raises(dimension):
    setup = default_setup(dimension=dimension, n=16, steps=64)
    ws = default_weights(setup, s=4.0)
    with pytest.raises(GridError, match="degenerate transport base"):
        build_transport_base(np.ones(setup.grid.n_nodes), ws)


def test_flatness_guard():
    setup = default_setup()
    grid = setup.grid
    x = grid.coords[:, 0]
    check_flat_boundary(0.05 * bump_shape(grid), grid)
    check_flat_boundary(np.zeros(grid.n_nodes), grid)
    with pytest.raises(GridError, match="normal derivative"):
        check_flat_boundary(x * (1.0 - x), grid)
    bad = 0.05 * bump_shape(grid)
    bad[0] = 1e-3
    with pytest.raises(GridError, match="vanish"):
        check_flat_boundary(bad, grid)


def test_cit_residual_zero_twin_exact():
    setup = default_setup()
    zero = np.zeros(setup.grid.n_nodes)
    tw = twin_solve(setup, zero)
    res = cit_residual(zero, setup.c_tilde, tw.q_tilde, tw.u, tw.y,
                       setup.window)
    np.testing.assert_array_equal(res, 0.0)


def test_cit_residual_refinement_order():
    norms = []
    for n, steps in ((16, 64), (32, 128), (64, 256)):
        setup = default_setup(n=n, steps=steps)
        x = setup.grid.coords[:, 0]
        gam = 0.1 * x**2 * (1.0 - x) ** 2
        tw = twin_solve(setup, gam)
        res = cit_residual(gam, setup.c_tilde, tw.q_tilde, tw.u, tw.y,
                           setup.window)
        norms.append(np.max(np.abs(res)))
    assert np.log2(norms[0] / norms[1]) >= 1.5
    assert np.log2(norms[1] / norms[2]) >= 1.5


def test_cit_residual_scales_with_data():
    setup = default_setup()
    x = setup.grid.coords[:, 0]
    gam = 0.1 * x**2 * (1.0 - x) ** 2
    tw = twin_solve(setup, gam)
    res = cit_residual(gam, setup.c_tilde, tw.q_tilde, tw.u, tw.y,
                       setup.window)

    base = setup.base
    doubled = dataclasses.replace(
        setup,
        base=HeatProblem(c=base.c, g=lambda t: 2.0 * base.g(t),
                         q0=2.0 * base.q0),
    )
    tw2 = twin_solve(doubled, gam)
    res2 = cit_residual(gam, doubled.c_tilde, tw2.q_tilde, tw2.u, tw2.y,
                        doubled.window)
    np.testing.assert_allclose(res2, 2.0 * res, rtol=1e-12, atol=1e-15)


def test_proposition_zero_gamma():
    setup = default_setup()
    zero = np.zeros(setup.grid.n_nodes)
    tw = twin_solve(setup, zero)
    ws = default_weights(setup, s=4.0)
    rep = proposition_sides(zero, tw.q_tilde, tw.u, tw.y, ws)
    for part in rep.parts().values():
        assert part.lhs_total == 0.0
    assert rep.combined.ratio == 0.0


def test_proposition_amplitude_stability():
    setup = default_setup()
    ws = default_weights(setup, lam=1.0, s=4.0)
    ratios = {}
    for eps in (0.01, 0.05, 0.1):
        gam = eps * bump_shape(setup.grid)
        tw = twin_solve(setup, gam)
        rep = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
        for part in rep.parts().values():
            assert np.isfinite(part.ratio) and part.ratio >= 0.0
        ratios[eps] = rep.combined.ratio
    anchor = ratios[0.05]
    assert anchor == pytest.approx(1.0962e-3, rel=5e-3)
    for val in ratios.values():
        assert abs(val - anchor) <= 0.25 * anchor


def test_proposition_2d_smoke():
    # 2D weighted masses concentrate near the observed corner at the
    # default anchor; only structure is asserted here
    setup = default_setup(dimension=2, n=16, steps=64)
    gam = 0.05 * bump_shape(setup.grid)
    tw = twin_solve(setup, gam)
    ws = default_weights(setup, lam=1.0, s=4.0)
    rep = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
    for name, part in rep.parts().items():
        assert np.isfinite(part.ratio) and part.ratio >= 0.0
    assert set(rep.parts()) == {"scalar", "gradient", "combined"}


@pytest.mark.parametrize("dimension", [1, 2])
def test_proposition_evaluates_each_weighted_norm_once(dimension,
                                                       monkeypatch):
    # the three parts report 18 terms over 11 (field, weight power) pairs
    setup = (default_setup() if dimension == 1
             else default_setup(dimension=2, n=16, steps=64))
    gam = 0.05 * bump_shape(setup.grid)
    tw = twin_solve(setup, gam)
    ws = default_weights(setup, lam=1.0, s=4.0)
    ref = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
    calls = []
    original = poincare.weighted_norm_space

    def counting(field, ws, k):
        calls.append(k)
        return original(field, ws, k)

    monkeypatch.setattr(poincare, "weighted_norm_space", counting)
    rep = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
    assert len(calls) == 11
    assert sum(len(part.lhs_terms) + len(part.rhs_terms)
               for part in rep.parts().values()) == 18
    assert rep == ref


def test_lower_bound_chain():
    setup = default_setup()
    ws = default_weights(setup, lam=1.0, s=4.0)
    gam = 0.05 * bump_shape(setup.grid)
    lhs, lower = coefficient_lower_bound(gam, ws)
    assert lhs >= lower * (1.0 - 1e-12)
    assert lower > 0.0


def test_proposition_csv(tmp_path):
    setup = default_setup()
    gam = 0.05 * bump_shape(setup.grid)
    tw = twin_solve(setup, gam)
    ws = default_weights(setup, s=4.0)
    rep = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
    out = tmp_path / "prop.csv"
    proposition_to_csv(rep, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "part,term,value"
    expected = sum(len(part.rows()) for part in rep.parts().values())
    assert len(lines) == 1 + expected
    assert any(line.startswith("combined,ratio,") for line in lines)
