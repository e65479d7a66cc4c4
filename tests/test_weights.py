import numpy as np
import pytest

from carleman_lab.grid import Grid, TimeGrid
from carleman_lab.weights import WeightError, build_weights
from paper_checks import (
    weight_bounds_check,
    weight_closed_form,
    weight_time_profile,
)


def dt_phi(ws):
    """Closed-form time derivative of phi: -phi w'/w, zero on the T' row."""
    return -ws.phi * (ws.w_prime / ws.w)[:, None]


def ref_setup(lam=1.0, s=1.0, steps=16):
    g = Grid(1, 10, ["right"])
    tg = TimeGrid(0.0, 2.0, steps)
    return g, tg, build_weights(g, tg, lam=lam, s=s, m=2.0, x0=[-1.0])


def test_anchored_quadratic_closed_form():
    g, tg, ws = ref_setup()
    cf = weight_closed_form(ws, m=2.0)
    # beta_tilde(x) = (x+1)^2 on [0,1]
    assert cf.beta_tilde.min() == pytest.approx(1.0, abs=1e-14)
    assert cf.beta_tilde.max() == pytest.approx(4.0, abs=1e-14)
    assert cf.K == pytest.approx(8.0, abs=1e-13)
    assert cf.beta.min() == pytest.approx(9.0, abs=1e-13)
    assert cf.beta.max() == pytest.approx(12.0, abs=1e-13)
    assert cf.C0 == pytest.approx(2.0, abs=1e-14)
    # outward derivative of beta_tilde at x=0 is -(d/dx)(x+1)^2 = -2
    left = ws.normal_beta("left")
    assert left[0] == pytest.approx(-2.0, abs=1e-13)
    assert np.all(left <= 1e-12)


def test_midpoint_closed_forms():
    g, tg, ws = ref_setup(lam=1.0)
    beta = weight_closed_form(ws, m=2.0).beta
    row = ws.tprime_row
    # (T' - t0)(T - T') = 1, so phi(T') = e^{lam beta} and
    # eta(T') = e^{16 lam} - e^{lam beta}
    np.testing.assert_allclose(np.exp(ws.log_phi[row]), np.exp(beta), rtol=1e-12)
    np.testing.assert_allclose(
        ws.eta[row], np.exp(16.0) - np.exp(beta), rtol=1e-12
    )


def test_anchor_inside_rejected():
    g = Grid(1, 10, ["right"])
    tg = TimeGrid(0.0, 2.0, 16)
    with pytest.raises(WeightError):
        build_weights(g, tg, lam=1.0, s=1.0, m=2.0, x0=[0.5])
    g2 = Grid(2, 8, ["north", "east"])
    with pytest.raises(WeightError):
        build_weights(g2, tg, lam=1.0, s=1.0, m=2.0, x0=[0.5, 0.5])


def test_parameter_floors():
    g = Grid(1, 10, ["right"])
    tg = TimeGrid(0.0, 2.0, 16)
    with pytest.raises(WeightError):
        build_weights(g, tg, lam=0.5, s=1.0, m=2.0, x0=[-1.0])
    with pytest.raises(WeightError):
        build_weights(g, tg, lam=1.0, s=0.2, m=2.0, x0=[-1.0])
    with pytest.raises(WeightError):
        build_weights(g, tg, lam=1.0, s=1.0, m=1.0, x0=[-1.0])


def test_sign_condition_violation_detected():
    # anchor left of the domain but observing on the left: the right
    # face is unobserved and has d_nu beta_tilde = +4 there
    g = Grid(1, 10, ["left"])
    tg = TimeGrid(0.0, 2.0, 16)
    with pytest.raises(WeightError, match="unobserved face"):
        build_weights(g, tg, lam=1.0, s=1.0, m=2.0, x0=[-1.0])


def test_2d_corner_pair_accepted_single_face_rejected():
    tg = TimeGrid(0.5, 2.0, 16)
    g = Grid(2, 8, ["north", "east"])
    ws = build_weights(g, tg, lam=1.0, s=1.0, m=1.1, x0=[-0.1, -0.1])
    assert weight_closed_form(ws, m=1.1).C0 > 0.0
    for face in ("west", "south"):
        assert np.all(ws.normal_beta(face) <= 1e-12)
    # with only the east face observed the north face fails the sign test
    g1 = Grid(2, 8, ["east"])
    with pytest.raises(WeightError):
        build_weights(g1, tg, lam=1.0, s=1.0, m=1.1, x0=[-0.1, -0.1])


def test_eta_positive_and_normalized_factor_in_unit_interval():
    g, tg, ws = ref_setup(s=2.0)
    assert np.all(ws.eta > 0.0)
    fac = ws.weight_st(0.0)
    assert np.all(fac >= 0.0)
    assert np.all(fac <= 1.0 + 1e-15)
    # the reference value sits on the T' row, so that row attains 1
    assert ws.weight_tprime(0.0).max() == pytest.approx(1.0, abs=1e-13)


def test_monotonicity_in_K_and_lambda():
    g = Grid(1, 10, ["right"])
    tg = TimeGrid(0.0, 2.0, 16)
    w_small = build_weights(g, tg, lam=1.0, s=1.0, m=1.5, x0=[-1.0])
    w_big = build_weights(g, tg, lam=1.0, s=1.0, m=2.0, x0=[-1.0])
    assert (weight_closed_form(w_big, m=2.0).K
            > weight_closed_form(w_small, m=1.5).K)
    assert np.all(w_big.eta >= w_small.eta - 1e-12)
    w_l1 = build_weights(g, tg, lam=1.0, s=1.0, m=2.0, x0=[-1.0])
    w_l2 = build_weights(g, tg, lam=2.0, s=1.0, m=2.0, x0=[-1.0])
    assert np.all(w_l2.log_phi > w_l1.log_phi)


def test_time_derivatives_vanish_at_midpoint_exactly():
    g, tg, ws = ref_setup()
    assert np.all(ws.dt_eta[ws.tprime_row] == 0.0)
    assert np.all(dt_phi(ws)[ws.tprime_row] == 0.0)


def test_closed_form_time_derivatives_match_differences():
    # centered differences of the tabulated weights converge to the
    # closed forms at second order; compared on the middle half of the
    # window, away from the 1/w blowup where no finite dt resolves
    g = Grid(1, 6, ["right"])
    errs = []
    for steps in (32, 64, 128):
        tg = TimeGrid(0.5, 2.0, steps)
        ws = build_weights(g, tg, lam=1.0, s=1.0, m=1.1, x0=[-0.1])
        dt = tg.dt
        t_mid = ws.times_interior[1:-1]
        sel = (t_mid > 1.0) & (t_mid < 1.5)
        worst = 0.0
        for tab, closed in ((ws.eta, ws.dt_eta), (np.exp(ws.log_phi), dt_phi(ws))):
            diff = (tab[2:] - tab[:-2]) / (2.0 * dt)
            resid = np.abs(diff - closed[1:-1])[sel]
            scale = np.max(np.abs(closed[1:-1][sel]))
            worst = max(worst, float(np.max(resid) / scale))
        errs.append(worst)
    assert np.log2(errs[0] / errs[1]) >= 1.9
    assert np.log2(errs[1] / errs[2]) >= 1.9


def test_time_profile_examples():
    def value(t, t0, t_end):
        tg = TimeGrid(t0, t_end, 16)
        return weight_time_profile(tg).values[tg.index_of(t) - 1]

    assert value(1.0, 0.0, 2.0) == pytest.approx(1.0, abs=1e-14)
    assert value(0.5, 0.0, 2.0) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert value(0.5, 0.0, 1.0) == pytest.approx(4.0, abs=1e-14)

    tg = TimeGrid(0.0, 2.0, 16)
    prof = weight_time_profile(tg)
    assert np.argmin(prof.values) + 1 == tg.midpoint_index
    assert prof.min_value == pytest.approx(1.0, abs=1e-14)


def test_time_profile_random_windows():
    rng = np.random.default_rng(7)
    for _ in range(20):
        t0 = float(rng.uniform(0.0, 1.0))
        span = float(rng.uniform(0.5, 3.0))
        steps = 2 * int(rng.integers(3, 40))
        prof = weight_time_profile(TimeGrid(t0, t0 + span, steps))
        assert np.argmin(prof.values) + 1 == steps // 2
        # closed-form minimum 4/(T-t0)^2
        assert prof.min_value == pytest.approx(4.0 / span**2, rel=1e-12)


def test_bounds_check_finite_and_stable_under_refinement():
    g = Grid(1, 10, ["right"])
    tg1 = TimeGrid(0.5, 2.0, 32)
    tg2 = TimeGrid(0.5, 2.0, 64)
    ws1 = build_weights(g, tg1, lam=1.0, s=1.0, m=1.1, x0=[-0.1])
    ws2 = build_weights(g, tg2, lam=1.0, s=1.0, m=1.1, x0=[-0.1])
    r1 = weight_bounds_check(ws1)
    r2 = weight_bounds_check(ws2)
    assert np.all(np.isfinite(list(r1.values()) + list(r2.values())))
    for name in r1:
        a, b = r1[name], r2[name]
        assert a > 0.0
        assert abs(a - b) / a < 0.05


def test_bounds_check_reference_setup_finite():
    _, _, ws = ref_setup()
    rep = weight_bounds_check(ws)
    assert np.all(np.isfinite(list(rep.values())))
    assert all(v > 0.0 for v in rep.values())
