"""Shipping gate: the eight end-to-end checks the build must satisfy.

Each test records one PASS/FAIL verdict; conftest echoes the collected
lines after the run, past pytest's output capture, so the tee'd log
always ends with one ACCEPTANCE line per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np

from carleman_lab.carleman import carleman_sides, carleman_sweep, make_test_suite
from carleman_lab.cli import run
from carleman_lab.energy import (
    bound_terms,
    energy,
    energy_bound_sides,
    energy_tprime_direct,
    snapshot_bound_sides,
)
from carleman_lab.forward import CrankNicolsonStepper, HeatProblem, solve_heat
from carleman_lab.grid import Grid, TimeGrid
from carleman_lab.poincare import proposition_sides
from carleman_lab.setups import (
    bump_shape,
    default_setup,
    inversion_setup,
    perturbation_family,
    twin_solve,
)
from carleman_lab.stability import (
    InverseConfig,
    admissible_projection,
    make_observations,
    misfit_and_gradient,
    reconstruct,
    stability_sweep,
)
from helpers import default_weights, flux_matrices
from paper_checks import (
    cit_residual,
    sweep_summary,
    weight_closed_form,
    weight_time_profile,
)


VERDICTS = []


@contextmanager
def verdict(number, name):
    try:
        yield
    except BaseException:
        VERDICTS.append(f"ACCEPTANCE {number} {name}: FAIL")
        print(VERDICTS[-1])
        raise
    VERDICTS.append(f"ACCEPTANCE {number} {name}: PASS")
    print(VERDICTS[-1])


def test_acceptance_1_forward_solver():
    with verdict(1, "forward solver"):
        t_start = time.perf_counter()
        errors = []
        for n, steps in ((32, 128), (64, 256)):
            grid = Grid(1, n, ["right"])
            tg = TimeGrid(0.0, 2.0, steps)   # dt = 1/64 at n = 32
            x = grid.coords[:, 0]
            prob = HeatProblem(
                c=np.full(grid.n_nodes, 1.0 / np.pi**2),
                g=lambda t: np.zeros(grid.n_nodes),
                q0=np.sin(np.pi * x),
            )
            q = solve_heat(prob, grid, tg)
            exact = np.exp(-tg.times)[:, None] * np.sin(np.pi * x)[None, :]
            errors.append(float(np.max(np.abs(q.values - exact))))
        assert errors[0] <= 1e-3
        order = np.log2(errors[0] / errors[1])
        assert order >= 1.8
        assert time.perf_counter() - t_start < 5.0


def test_acceptance_2_weight_invariants():
    with verdict(2, "weight invariants"):
        for dimension, n in ((1, 32), (2, 16)):
            setup = default_setup(dimension=dimension, n=n)
            ws = default_weights(setup)
            assert weight_closed_form(ws, m=1.1).C0 > 0.0
            observed = set(setup.grid.gamma0_faces)
            all_faces = {"left", "right"} if dimension == 1 else \
                {"west", "east", "south", "north"}
            for face in sorted(all_faces - observed):
                assert np.all(ws.normal_beta(face) <= 1e-12)
            assert np.all(ws.eta >= 0.0)
            assert np.all(ws.dt_eta[ws.tprime_row] == 0.0)
            prof = weight_time_profile(setup.window)
            assert (np.argmin(prof.values) + 1
                    == setup.window.midpoint_index)


def test_acceptance_3_carleman_estimate():
    with verdict(3, "carleman estimate"):
        t_start = time.perf_counter()
        setup = default_setup()
        c = np.ones(setup.grid.n_nodes)
        suite = make_test_suite(setup.grid, setup.window, count=20, seed=42)
        s_list, lam_list = (1.0, 2.0, 4.0, 8.0), (1.0, 2.0)
        records, summary = carleman_sweep(
            c, suite, s_list, lam_list, setup.grid, setup.window,
            m_weight=1.1, x0=[-0.1])
        assert all(np.isfinite(rep.ratio) for _, _, _, rep in records)
        for lam in lam_list:
            for s in (1.0, 2.0, 4.0):
                assert summary[(2.0 * s, lam)] <= 1.1 * summary[(s, lam)]
        ws = default_weights(setup)
        base = carleman_sides(suite[0][1], c, ws)
        doubled = carleman_sides(2.0 * suite[0][1], c, ws)
        assert abs(doubled.ratio - base.ratio) <= 1e-12 * base.ratio
        assert time.perf_counter() - t_start < 120.0


def test_acceptance_4_poincare_lemma_proposition():
    with verdict(4, "poincare lemma and proposition"):
        setup = default_setup()
        ws = default_weights(setup)
        for _, _, gam in perturbation_family(setup.grid):
            tw = twin_solve(setup, gam)
            rep = proposition_sides(gam, tw.q_tilde, tw.u, tw.y, ws)
            for part in rep.parts().values():
                assert np.isfinite(part.ratio)

        norms = []
        for n, steps in ((16, 64), (32, 128), (64, 256)):
            fine = default_setup(n=n, steps=steps)
            x = fine.grid.coords[:, 0]
            gam = 0.1 * x**2 * (1.0 - x) ** 2
            tw = twin_solve(fine, gam)
            res = cit_residual(gam, fine.c_tilde, tw.q_tilde, tw.u, tw.y,
                               fine.window)
            norms.append(np.max(np.abs(res)))
        assert np.log2(norms[0] / norms[1]) >= 1.0
        assert np.log2(norms[1] / norms[2]) >= 1.0

        bump = 0.05 * bump_shape(setup.grid)
        tw_bump = twin_solve(setup, bump)
        scale = proposition_sides(bump, tw_bump.q_tilde, tw_bump.u,
                                  tw_bump.y, ws).combined
        zero = np.zeros(setup.grid.n_nodes)
        tw0 = twin_solve(setup, zero)
        rep0 = proposition_sides(zero, tw0.q_tilde, tw0.u, tw0.y,
                                 ws).combined
        assert rep0.lhs_total <= 1e-12 * scale.lhs_total
        assert rep0.rhs_total <= 1e-12 * scale.rhs_total


def test_acceptance_5_snapshot_and_energy_bounds():
    with verdict(5, "snapshot and energy bounds"):
        setup = default_setup()
        gam = 0.05 * bump_shape(setup.grid)
        tw = twin_solve(setup, gam)
        c = setup.c_tilde + gam
        ws = default_weights(setup, s=4.0)
        terms = bound_terms(tw.y, gam, ws)
        curve = energy(tw.y, c, ws)
        assert np.isfinite(snapshot_bound_sides(tw.y, terms, ws).ratio)
        assert np.isfinite(energy_bound_sides(curve, terms, ws).ratio)
        assert np.all(curve.values >= 0.0)
        assert curve.values[0] <= 1e-6 * curve.e_tprime
        direct = energy_tprime_direct(tw.y, c, ws)
        assert abs(curve.e_tprime - direct) <= 1e-12 * abs(direct)


def test_acceptance_6_stability_two_sided():
    with verdict(6, "stability two-sided experiment"):
        t_start = time.perf_counter()
        setup = default_setup()
        ws = default_weights(setup)
        family = perturbation_family(setup.grid)
        assert len(family) == 12
        records = stability_sweep(family, setup, ws)
        summary = sweep_summary(family, records)
        assert np.isfinite(summary["max_ratio"])
        for slope in summary["shape_slopes"].values():
            assert 0.8 <= slope <= 1.2
        assert time.perf_counter() - t_start < 300.0


def test_acceptance_7_inverse_solver():
    with verdict(7, "inverse solver"):
        setup = default_setup()
        grid, dt = setup.grid, setup.timegrid.dt
        c_var = 1.0 + 0.3 * np.abs(np.sin(3.0 * grid.coords[:, 0]))
        stepper = CrankNicolsonStepper(c_var, grid, dt)
        A = flux_matrices(c_var, grid)[0]
        rng = np.random.default_rng(7)
        ni = stepper.interior.size
        for _ in range(5):
            xv = rng.standard_normal(ni)
            yv = rng.standard_normal(ni)
            ex = xv + 0.5 * dt * (A @ xv)
            lhs = float(stepper.solve_B(ex) @ yv)
            by = stepper.solve_B(yv)
            rhs = float(xv @ (by + 0.5 * dt * (A @ by)))
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

        inv = inversion_setup(dimension=1, n=32)
        x = inv.grid.coords[:, 0]
        truth = 1.0 + 0.05 * x**2 * (1.0 - x) ** 2
        prior = np.ones(inv.grid.n_nodes)
        data = make_observations(inv, truth)
        icfg = InverseConfig(prior=prior)
        c0 = prior + admissible_projection(0.02 * np.sin(2.0 * np.pi * x),
                                           inv.grid)
        _, grad = misfit_and_gradient(c0, data, inv, icfg)
        tau = 1e-5
        for _ in range(5):
            d = admissible_projection(rng.standard_normal(inv.grid.n_nodes),
                                      inv.grid)
            d /= np.linalg.norm(d)
            jp, _ = misfit_and_gradient(c0 + tau * d, data, inv, icfg)
            jm, _ = misfit_and_gradient(c0 - tau * d, data, inv, icfg)
            fd = (jp - jm) / (2.0 * tau)
            assert abs(fd - float(grad @ d)) <= 1e-5 * abs(fd)

        result = reconstruct(data, inv, icfg, truth=truth)
        assert result.iterations <= 200
        assert result.log[-1][3] <= 0.05

        errs = [result.log[-1][3]]
        for sigma in (1e-4, 1e-3, 1e-2):
            noisy = make_observations(inv, truth, sigma=sigma, seed=0)
            res = reconstruct(noisy, inv, InverseConfig(prior=prior),
                              truth=truth)
            errs.append(res.log[-1][3])
        for lo, hi in zip(errs, errs[1:]):
            assert hi >= 0.8 * lo


def test_acceptance_8_cli_determinism(tmp_path):
    with verdict(8, "cli determinism"):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("all", out=str(first)) == 0
        assert run("all", out=str(second)) == 0
        csvs = sorted(p.name for p in first.iterdir()
                      if p.suffix == ".csv")
        assert len(csvs) == 6
        for name in csvs:
            assert (first / name).read_bytes() == \
                (second / name).read_bytes()
