"""Two-sided stability experiment, the sweep, and the inverse solver."""

import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

from carleman_lab import forward, setups, stability
from carleman_lab.cli import RunContext
from carleman_lab.config import load_config
from carleman_lab.forward import (CrankNicolsonStepper, HeatProblem,
                                  coefficient_accumulate)
from carleman_lab.grid import GridError, space_weights
from carleman_lab.setups import (
    bump_shape,
    inversion_setup,
    perturbation_family,
)
from carleman_lab.stability import (
    InverseConfig,
    _h1_gram,
    _workspace,
    admissible_mask,
    admissible_projection,
    h1_norm_sq,
    make_observations,
    make_pair,
    misfit_and_gradient,
    reconstruct,
    relative_h1_error,
    stability_sides,
    stability_sweep,
    sweep_to_csv,
)
from helpers import (default_weights, flux_matrices, packaged_setup,
                     stepper_boundary_matrix)
from paper_checks import sweep_summary


def bump_truth(grid, eps=0.05):
    x = grid.coords[:, 0]
    bump = eps * x**2 * (1.0 - x) ** 2
    if grid.dimension == 2:
        # the tensor analogue with the same peak, as in bench/cfg2d.json
        y = grid.coords[:, 1]
        bump = bump * 16.0 * y**2 * (1.0 - y) ** 2
    return 1.0 + bump


# -- admissible set and pairs ---------------------------------------------


def test_admissible_mask_counts():
    s1 = packaged_setup(dimension=1, n=32)
    mask = admissible_mask(s1.grid)
    assert int(mask.sum()) == 31          # end nodes pinned
    assert not mask[0] and not mask[-1]
    s2 = packaged_setup(dimension=2, n=16, steps=64)
    mask2 = admissible_mask(s2.grid)
    assert int(mask2.sum()) == 13 * 13    # two rings pinned


def test_admissible_projection_idempotent():
    s1 = packaged_setup(dimension=1, n=32)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(s1.grid.n_nodes)
    p = admissible_projection(v, s1.grid)
    np.testing.assert_array_equal(p, admissible_projection(p, s1.grid))
    assert p[0] == 0.0 and p[-1] == 0.0
    np.testing.assert_array_equal(p[1:-1], v[1:-1])


def test_make_pair_projects_and_checks_positivity():
    setup = packaged_setup(dimension=1, n=32)
    g = 0.05 * bump_shape(setup.grid, 0) + 0.01
    pair = make_pair(np.ones(setup.grid.n_nodes), g, setup.grid)
    assert pair.gamma[0] == 0.0 and pair.gamma[-1] == 0.0
    np.testing.assert_array_equal(pair.gamma[1:-1], g[1:-1])
    np.testing.assert_array_equal(pair.c, pair.c_tilde + pair.gamma)
    with pytest.raises(GridError, match="positivity"):
        make_pair(np.ones(setup.grid.n_nodes),
                  -2.0 * np.ones(setup.grid.n_nodes), setup.grid)


# -- estimate sides --------------------------------------------------------


def test_stability_sides_zero_gamma():
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    pair = make_pair(np.ones(setup.grid.n_nodes),
                     np.zeros(setup.grid.n_nodes), setup.grid)
    rep = stability_sides(pair, setup, ws)
    assert rep.weighted.lhs_total == 0.0
    assert rep.weighted.ratio == 0.0
    assert rep.plain.ratio == 0.0


def test_stability_sides_default_bump():
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    pair = make_pair(np.ones(setup.grid.n_nodes),
                     0.05 * bump_shape(setup.grid, 0), setup.grid)
    rep = stability_sides(pair, setup, ws)
    assert set(rep.weighted.rhs_terms) == {"flux", "u_grad_lap", "u_lap",
                                           "u_grad"}
    assert set(rep.plain.rhs_terms) == {"flux", "grad_lap", "lap", "grad"}
    assert rep.weighted.lhs_total == pytest.approx(8.599562e-05, rel=1e-5)
    assert rep.weighted.ratio == pytest.approx(1.630684e-03, rel=1e-5)
    assert rep.plain.ratio == pytest.approx(8.643686e-05, rel=1e-5)


def test_stability_sides_swap_exact():
    # swapping (c, ctilde) negates u and y but leaves every squared
    # quantity bitwise unchanged
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    gamma = 0.05 * bump_shape(setup.grid, 0)
    pair = make_pair(np.ones(setup.grid.n_nodes), gamma, setup.grid)
    swapped = make_pair(pair.c, -gamma, setup.grid)
    rep = stability_sides(pair, setup, ws)
    rep_sw = stability_sides(swapped, setup, ws)
    assert rep_sw.weighted.lhs_total == rep.weighted.lhs_total
    assert rep_sw.weighted.rhs_total == rep.weighted.rhs_total
    assert rep_sw.plain.rhs_total == rep.plain.rhs_total


def test_stability_sides_linear_regime():
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    ratios = {}
    for eps in (0.01, 0.005):
        pair = make_pair(np.ones(setup.grid.n_nodes),
                         eps * bump_shape(setup.grid, 0), setup.grid)
        rep = stability_sides(pair, setup, ws)
        ratios[eps] = (rep.weighted.ratio, rep.plain.ratio)
    for k in range(2):
        drift = abs(ratios[0.01][k] - ratios[0.005][k]) / ratios[0.01][k]
        assert drift < 0.10


# -- sweep -----------------------------------------------------------------


def test_stability_sweep_family():
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    fam = perturbation_family(setup.grid)
    assert len(fam) == 12
    records = stability_sweep(fam, setup, ws)
    summary = sweep_summary(fam, records)
    assert len(records) == 12
    assert all(np.isfinite(r["ratio"]) for r in records)
    assert summary["max_ratio"] == max(r["ratio"] for r in records)
    assert summary["argmax"] == "shape0_eps1e-03"
    assert summary["max_ratio"] == pytest.approx(1.679305e-03, rel=1e-5)
    assert summary["global_slope"] == pytest.approx(0.94685, rel=1e-3)
    for slope in summary["shape_slopes"].values():
        assert 0.8 <= slope <= 1.2
    assert summary["excluded"] == []


def test_stability_sweep_excludes_zero_member():
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    fam = perturbation_family(setup.grid)[:2]
    fam.append(("zero", 0.0, np.zeros(setup.grid.n_nodes)))
    records = stability_sweep(fam, setup, ws)
    summary = sweep_summary(fam, records)
    assert len(records) == 2
    assert summary["excluded"] == ["zero"]


def test_stability_sweep_solves_base_field_once(monkeypatch):
    # the sweep solves one stack of conductivities: each row counts
    solved = []
    original = stability.solve_heat

    def recording(problem, *args, **kwargs):
        solved.extend(np.atleast_2d(np.asarray(problem.c, dtype=float)).copy())
        return original(problem, *args, **kwargs)

    monkeypatch.setattr(stability, "solve_heat", recording)
    monkeypatch.setattr(setups, "solve_heat", recording)
    setup = packaged_setup(dimension=1, n=32)
    fam = perturbation_family(setup.grid)[:3]
    records = stability_sweep(fam, setup, default_weights(setup))
    assert len(records) == 3
    assert len(solved) == len(records) + 1
    assert sum(np.array_equal(c, setup.c_tilde) for c in solved) == 1
    for _, _, gamma in fam:
        c = make_pair(setup.c_tilde, gamma, setup.grid).c
        assert sum(np.array_equal(c, row) for row in solved) == 1


def test_twin_derivative_is_formed_on_first_read(monkeypatch):
    formed = []
    original = setups.time_derivative

    def recording(field):
        formed.append(field)
        return original(field)

    monkeypatch.setattr(setups, "time_derivative", recording)
    setup = packaged_setup(dimension=1, n=32)
    fam = perturbation_family(setup.grid)[:3]
    records = stability_sweep(fam, setup, default_weights(setup))
    assert len(records) == 3 and formed == []

    twin = setups.twin_solve(setup, fam[0][2])
    assert formed == []
    y = twin.y
    assert formed == [twin.u] and twin.y is y
    np.testing.assert_array_equal(y.values,
                                  forward.time_derivative(twin.u).values)


def sweep_case(dimension):
    if dimension == 1:
        setup = packaged_setup(dimension=1, n=32)
    else:
        setup = packaged_setup(dimension=2, n=16, steps=64)
    return setup, default_weights(setup)


@pytest.mark.parametrize("dimension", [1, 2])
def test_stability_sweep_excludes_members_that_project_to_zero(dimension):
    # supported on the pinned end nodes (1D) or outer two rings (2D), the
    # member projects to gamma = 0, and left in it would put log(0) into
    # the slope fit
    setup, ws = sweep_case(dimension)
    fam = perturbation_family(setup.grid)[:3]
    pinned = np.where(admissible_mask(setup.grid), 0.0, 1e-2)
    fam.insert(1, ("pinned", 1e-2, pinned))
    records = stability_sweep(fam, setup, ws)
    summary = sweep_summary(fam, records)
    assert [r["member"] for r in records] == [fam[i][0] for i in (0, 2, 3)]
    assert summary["excluded"] == ["pinned"]
    assert np.isfinite(summary["global_slope"])


@pytest.mark.parametrize("dimension", [1, 2])
def test_stability_sweep_records_equal_the_one_pair_sides(dimension):
    setup, ws = sweep_case(dimension)
    fam = perturbation_family(setup.grid)[::4]
    records = stability_sweep(fam, setup, ws)
    for (label, eps, gamma), rec in zip(fam, records, strict=True):
        rep = stability_sides(make_pair(setup.c_tilde, gamma, setup.grid),
                              setup, ws)
        assert rec == {
            "member": label,
            "eps": eps,
            "lhs": rep.weighted.lhs_total,
            "rhs_weighted": rep.weighted.rhs_total,
            "rhs_plain": rep.plain.rhs_total,
            "ratio": rep.weighted.ratio,
        }
        # the plain ratio, which the records leave out, follows from them
        assert rep.plain.ratio == rec["lhs"] / rec["rhs_plain"]


def test_stability_sweep_records_equal_the_one_pair_sides_in_split_blocks(
        monkeypatch):
    # 2D, with the family cap at five and a half members' unknowns: the
    # six members go in chunks of four and two, each stacked with the base
    setup, ws = sweep_case(2)
    fam = perturbation_family(setup.grid)[::2]
    blocks = []

    class Counting(CrankNicolsonStepper):
        def __init__(self, c, *args):
            super().__init__(c, *args)
            blocks.append(self.members)

    monkeypatch.setattr(forward, "CrankNicolsonStepper", Counting)
    ni = (setup.grid.n - 1) ** 2
    monkeypatch.setattr(stability, "BLOCK_UNKNOWNS", 11 * ni // 2)
    records = stability_sweep(fam, setup, ws)
    assert blocks == [5, 3]
    # below the base and one member's unknowns each member is its own chunk
    blocks.clear()
    monkeypatch.setattr(stability, "BLOCK_UNKNOWNS", ni - 1)
    assert stability_sweep(fam, setup, ws) == records
    assert blocks == [2] * 6
    monkeypatch.undo()
    for (label, eps, gamma), rec in zip(fam, records, strict=True):
        rep = stability_sides(make_pair(setup.c_tilde, gamma, setup.grid),
                              setup, ws)
        assert rec == {
            "member": label,
            "eps": eps,
            "lhs": rep.weighted.lhs_total,
            "rhs_weighted": rep.weighted.rhs_total,
            "rhs_plain": rep.plain.rhs_total,
            "ratio": rep.weighted.ratio,
        }


def test_stability_sweep_memory_is_capped_on_a_large_2d_grid():
    # bench/cfg2d.json's sweep at n = 32 (the same setup and reference
    # weights): the family in one stack peaked at 48.6 MB, the capped
    # chunks at 19.3 MB; the default 1D and cfg2d sweeps read 1.75 and
    # 13.87 MB either way
    setup = packaged_setup(dimension=2, n=32)
    ws, fam = default_weights(setup), perturbation_family(setup.grid)
    tracemalloc.start()
    try:
        stability_sweep(fam, setup, ws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 25 * 2**20


@pytest.mark.parametrize("dimension", [1, 2])
def test_twin_solve_of_a_stack_equals_the_single_twin_solves(dimension):
    setup, _ = sweep_case(dimension)
    gammas = np.array([gamma for *_, gamma in
                       perturbation_family(setup.grid)[::4]])
    stacked = setups.twin_solve(setup, gammas)
    assert stacked.u.values.shape == (3,) + stacked.q_tilde.values.shape
    for m, gamma in enumerate(gammas):
        single = setups.twin_solve(setup, gamma)
        assert single.q_tilde.values.tobytes() == \
            stacked.q_tilde.values.tobytes()
        for name in ("q", "u", "y"):
            assert getattr(single, name).values.tobytes() == \
                getattr(stacked, name).values[m].tobytes()


def test_stability_sweep_extracts_base_observations_once(monkeypatch):
    # the observations of a stack count once per member
    extracted = []
    original = stability.extract_observations

    def recording(field, grid, window):
        extracted.extend(field.values.reshape((-1,) + field.values.shape[-2:])
                         .copy())
        return original(field, grid, window)

    monkeypatch.setattr(stability, "extract_observations", recording)
    setup = packaged_setup(dimension=1, n=32)
    fam = perturbation_family(setup.grid)[:3]
    records = stability_sweep(fam, setup, default_weights(setup))
    assert len(records) == 3
    assert len(extracted) == len(records) + 1
    base = forward.solve_heat(setup.base, setup.grid, setup.timegrid).values
    assert sum(np.array_equal(v, base) for v in extracted) == 1


def test_sweep_to_csv(tmp_path):
    setup = packaged_setup(dimension=1, n=32)
    ws = default_weights(setup)
    records = stability_sweep(perturbation_family(setup.grid)[:3],
                              setup, ws)
    path = tmp_path / "sweep.csv"
    sweep_to_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "member,eps,lhs,rhs_weighted,rhs_plain,ratio"
    assert len(lines) == 4


# -- discrete adjoint ------------------------------------------------------


@pytest.mark.parametrize("dimension", [1, 2])
def test_one_step_adjoint_identity(dimension):
    # <B^-1 E x, y> = <x, E B^-1 y> for the CN update, B and E symmetric
    setup = packaged_setup(dimension=dimension, n=32 if dimension == 1 else 16)
    grid, dt = setup.grid, setup.timegrid.dt
    c = 1.0 + 0.3 * np.abs(np.sin(3.0 * grid.coords.sum(axis=1)))
    st = CrankNicolsonStepper(c, grid, dt)
    A = flux_matrices(c, grid)[0]
    rng = np.random.default_rng(7)
    ni = st.interior.size
    for _ in range(5):
        xv = rng.standard_normal(ni)
        yv = rng.standard_normal(ni)
        ex = xv + 0.5 * dt * (A @ xv)
        lhs = float(st.solve_B(ex) @ yv)
        by = st.solve_B(yv)
        rhs = float(xv @ (by + 0.5 * dt * (A @ by)))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


@pytest.mark.parametrize("dimension", [1, 2])
def test_coefficient_accumulate_matches_row_by_row_sweep(dimension):
    # reference: the sum taken row by row, last time row first, as the
    # adjoint recursion visits the rows; the batched sum must match it
    # bit for bit
    setup = packaged_setup(dimension=dimension,
                          n=32 if dimension == 1 else 16, steps=64)
    grid = setup.grid
    rng = np.random.default_rng(8)
    lam = rng.standard_normal((64, grid.n_nodes))
    s = rng.standard_normal((64, grid.n_nodes))
    inv = 1.0 / (2.0 * grid.h**2)

    def row_by_row(rows):
        out = np.zeros(grid.n_nodes)
        og = out.reshape(grid.shape)
        for i in rows:
            lg, sg = grid.reshape(lam[i]), grid.reshape(s[i])
            for a in range(dimension):
                la, sa, oa = (np.moveaxis(v, a, 0) for v in (lg, sg, og))
                val = (la[:-1] - la[1:]) * (sa[1:] - sa[:-1]) * inv
                oa[:-1] += val
                oa[1:] += val
        return out

    def accumulate(lmb, src, work):
        return coefficient_accumulate(lmb, src, grid, work.terms, work.pair)

    batched = accumulate(lam, s, _workspace(setup))
    np.testing.assert_array_equal(batched, row_by_row(range(63, -1, -1)))
    # the order is pinned: summing first row first changes the bits
    assert not np.array_equal(batched, row_by_row(range(64)))
    # a workspace that a run reuses: every call writes the same terms
    # slots, so its pad slots stay zero, and the whole face-product
    # scratch, so successive calls on other inputs give a fresh
    # workspace's bytes whatever the scratch held
    work = _workspace(setup)
    for lmb, src in ((lam, s), (3.0 * s[::-1], lam - 0.5)):
        want = accumulate(lmb, src, _workspace(setup))
        work.pair[...] = np.nan
        got = accumulate(lmb, src, work)
        assert got.tobytes() == want.tobytes()


def test_reconstruct_evaluates_each_point_once_with_one_factor(monkeypatch):
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    built = []

    class CountingStepper(CrankNicolsonStepper):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    points, factors = [], []
    original = stability._misfit

    def recording(c, *args, **kwargs):
        points.append(np.asarray(c, dtype=float).tobytes())
        before = len(built)
        out = original(c, *args, **kwargs)
        factors.append(len(built) - before)
        return out

    monkeypatch.setattr(forward, "CrankNicolsonStepper", CountingStepper)
    monkeypatch.setattr(stability, "CrankNicolsonStepper", CountingStepper)
    monkeypatch.setattr(stability, "_misfit", recording)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes), max_iters=5)
    res = reconstruct(data, inv, cfg, truth=truth)
    assert res.iterations == 5
    assert factors == [1] * len(points)
    assert len(set(points)) == len(points)


def _short_run(dimension):
    """A reconstruction short enough for a test; its first line search
    rejects trials (5 in 1D, 2 in 2D)."""
    inv = inversion_setup(dimension=dimension, n=32 if dimension == 1 else 16)
    truth = bump_truth(inv.grid)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes), max_iters=3)
    return inv, truth, make_observations(inv, truth, sigma=0.0, seed=0), cfg


@pytest.mark.parametrize("dimension", [1, 2])
def test_reconstruct_runs_the_adjoint_only_at_accepted_points(monkeypatch,
                                                              dimension):
    inv, truth, data, cfg = _short_run(dimension)
    built, adjoints, points = [], [], []

    class CountingStepper(CrankNicolsonStepper):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

        def adjoint_sweep(self, work):
            adjoints.append(1)
            return super().adjoint_sweep(work)

    misfit = stability._misfit

    def recording(c, *args):
        points.append(np.asarray(c, dtype=float).tobytes())
        return misfit(c, *args)

    monkeypatch.setattr(stability, "CrankNicolsonStepper", CountingStepper)
    monkeypatch.setattr(stability, "_misfit", recording)
    res = reconstruct(data, inv, cfg, truth=truth)
    assert res.iterations == cfg.max_iters
    assert len(points) > res.iterations + 1   # some trials were rejected
    assert len(adjoints) == res.iterations + 1
    assert len(built) == len(points)
    assert len(set(points)) == len(points)


@pytest.mark.parametrize("dimension", [1, 2])
def test_reconstruct_gradients_equal_misfit_and_gradient(monkeypatch,
                                                         dimension):
    # the run's J and gradient at every accepted point, formed in the
    # run's one workspace, which rejected trials wrote in between, are
    # bitwise what the one-point function gives there on a fresh one
    inv, truth, data, cfg = _short_run(dimension)
    misfit, gradient = stability._misfit, stability._gradient
    last, accepted, trials = [], [], []

    def recording_misfit(c, *args):
        last[:] = [np.array(c, dtype=float)]
        trials.append(1)
        return misfit(c, *args)

    def recording_gradient(*args):
        grad = gradient(*args)
        accepted.append((last[0], grad))
        return grad

    monkeypatch.setattr(stability, "_misfit", recording_misfit)
    monkeypatch.setattr(stability, "_gradient", recording_gradient)
    res = reconstruct(data, inv, cfg, truth=truth)
    assert len(accepted) == len(res.log) == res.iterations + 1
    assert len(trials) > len(accepted)   # some trials were rejected
    assert accepted[-1][0].tobytes() == res.c_hat.tobytes()
    monkeypatch.undo()
    for (point, grad), row in zip(accepted, res.log):
        j_val, want = misfit_and_gradient(point, data, inv, cfg)
        assert grad.tobytes() == want.tobytes()
        assert (j_val, float(np.linalg.norm(want))) == row[1:3]


# tracemalloc peak of the 10-iteration reconstruction of bench/cfg2d.json
# (the recon-2d workload's), numpy 2.4: 3,195,646 B with one workspace,
# about 3,880,000 B when every evaluation allocated its own field-sized
# arrays; the bound, 10% above the first, stays below the second
CFG2D_RECONSTRUCT_PEAK = 3_195_646


def test_reconstruct_allocates_its_field_sized_arrays_once(tmp_path):
    cfg = load_config(pathlib.Path(__file__).resolve().parents[1]
                      / "bench" / "cfg2d.json")
    ctx = RunContext(cfg, str(tmp_path), False)
    inv = inversion_setup(cfg.dimension, cfg.n)
    truth = make_pair(ctx.background, ctx.gamma, inv.grid).c
    data = make_observations(inv, truth, sigma=cfg.sigma, seed=cfg.seed)
    icfg = InverseConfig(prior=ctx.background, max_iters=10)
    tracemalloc.start()
    try:
        res = reconstruct(data, inv, icfg, truth=truth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.iterations == 10
    assert peak <= 1.1 * CFG2D_RECONSTRUCT_PEAK


def test_reconstruct_builds_one_read_only_pattern_per_grid():
    forward._flux_pattern.cache_clear()
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes), max_iters=5)
    assert reconstruct(data, inv, cfg, truth=truth).iterations == 5
    assert forward._flux_pattern.cache_info().misses == 1
    pattern = forward._flux_pattern(1, 32, 1)
    arrays = [item for value in vars(pattern).values()
              for item in (value if isinstance(value, tuple) else (value,))
              if isinstance(item, np.ndarray)]
    assert arrays and not any(a.flags.writeable for a in arrays)

    other = inversion_setup(dimension=1, n=16)
    st = CrankNicolsonStepper(np.ones(other.grid.n_nodes), other.grid,
                              other.timegrid.dt)
    assert forward._flux_pattern.cache_info().misses == 2
    assert st.interior.size == 15
    assert forward._flux_pattern(1, 16, 1) is not pattern
    with pytest.raises(ValueError, match="read-only"):
        st.interior[0] = 0
    # the scipy matrix owns its index arrays
    stepper_boundary_matrix(st).indices[:] = -1
    assert forward._flux_pattern(1, 16, 1).bd[1].min() == 0


def test_zero_data_misfit_is_the_regularization_alone():
    # zero drive and state: every solve the misfit and its gradient run
    # on swapped conductivities gives zero flux
    setup = packaged_setup(dimension=1, n=8)
    grid, zero = setup.grid, np.zeros(setup.grid.n_nodes)
    setup = dataclasses.replace(setup, base=dataclasses.replace(
        setup.base, g=lambda t: zero, q0=zero))
    gamma = 0.05 * bump_shape(grid, 0)
    c = 1.0 + admissible_projection(gamma, grid)
    data = make_observations(setup, c, sigma=0.0, seed=0)
    assert all(not np.any(flux) for flux in data.flux.values())
    cfg = InverseConfig(prior=np.ones(grid.n_nodes))
    j_val, grad = misfit_and_gradient(c, data, setup, cfg)
    assert j_val == 0.5 * stability.ALPHA * h1_norm_sq(c - cfg.prior, grid)
    assert np.all(np.isfinite(grad))


def test_admissible_mask_is_cached_read_only():
    grid = inversion_setup(dimension=2, n=16).grid
    mask = admissible_mask(grid)
    assert admissible_mask(packaged_setup(dimension=2, n=16).grid) is mask
    assert not mask.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        mask[0] = True
    assert admissible_mask(inversion_setup(dimension=2, n=8).grid).size == 81


def test_misfit_zero_at_truth(monkeypatch):
    monkeypatch.setattr(stability, "ALPHA", 0.0)
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes))
    j_prior, _ = misfit_and_gradient(np.ones(inv.grid.n_nodes), data, inv,
                                     cfg)
    j_true, grad = misfit_and_gradient(truth, data, inv, cfg)
    assert j_true <= 1e-14 * j_prior
    assert float(np.linalg.norm(grad)) <= 1e-8 * (1.0 + j_prior)


@pytest.mark.parametrize("dimension", [1, 2])
def test_misfit_gradient_matches_finite_differences(dimension):
    inv = inversion_setup(dimension=dimension, n=32 if dimension == 1 else 16)
    x = inv.grid.coords[:, 0]
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes))
    c0 = np.ones(inv.grid.n_nodes) + admissible_projection(
        0.02 * np.sin(2.0 * np.pi * x), inv.grid)
    _, grad = misfit_and_gradient(c0, data, inv, cfg)
    rng = np.random.default_rng(7)
    tau = 1e-5
    for _ in range(5):
        d = admissible_projection(rng.standard_normal(inv.grid.n_nodes),
                                  inv.grid)
        d /= np.linalg.norm(d)
        jp, _ = misfit_and_gradient(c0 + tau * d, data, inv, cfg)
        jm, _ = misfit_and_gradient(c0 - tau * d, data, inv, cfg)
        fd = (jp - jm) / (2.0 * tau)
        assert abs(fd - float(grad @ d)) <= 1e-5 * abs(fd)


def test_misfit_vanishes_exactly_at_the_truth():
    # the data and the misfit share one flux map, so noiseless data and
    # a prior at the truth give J == 0 exactly, also when dt = 1/30 is
    # not a power of two
    base = setups.default_setup(dimension=2, n=8, t0=0.2, t_end=2.0,
                                steps=60)
    setup = dataclasses.replace(base, base=dataclasses.replace(
        base.base, g=setups.probing_boundary_data(base.grid)))
    truth = bump_truth(setup.grid)
    data = make_observations(setup, truth, sigma=0.0, seed=0)
    j_val, _ = misfit_and_gradient(truth, data, setup,
                                   InverseConfig(prior=truth))
    assert j_val == 0.0


def test_misfit_regularizer_vanishes_at_prior(monkeypatch):
    inv = inversion_setup(dimension=1, n=32)
    data = make_observations(inv, bump_truth(inv.grid), sigma=0.0, seed=0)
    prior = np.ones(inv.grid.n_nodes)
    j = {}
    for alpha in (0.0, 0.5):
        monkeypatch.setattr(stability, "ALPHA", alpha)
        j[alpha], _ = misfit_and_gradient(prior, data, inv,
                                          InverseConfig(prior=prior))
    assert j[0.5] == j[0.0]


def test_h1_gram_matches_quadratic_form():
    setup = packaged_setup(dimension=1, n=32)
    idx = np.flatnonzero(admissible_mask(setup.grid))
    gram = _h1_gram(setup.grid, idx)
    rng = np.random.default_rng(5)
    v = admissible_projection(rng.standard_normal(setup.grid.n_nodes),
                              setup.grid)
    quad = float(v[idx] @ (gram @ v[idx]))
    assert quad == pytest.approx(h1_norm_sq(v, setup.grid), rel=1e-12)


@pytest.mark.parametrize("dimension,n", [(1, 20), (1, 32), (2, 13), (2, 16)])
def test_h1_apply_and_norm_equal_the_per_axis_sums(dimension, n):
    # H v and v H v against the form written axis by axis: trapezoid
    # mass plus h^d / h^2 times the squared differences along each axis
    grid = packaged_setup(dimension=dimension, n=n).grid
    v = np.random.default_rng(n).standard_normal(grid.n_nodes)
    coef = grid.h**grid.dimension / grid.h**2
    vg = grid.reshape(v)
    acc = np.zeros(grid.shape)
    norm = float(space_weights(grid) @ v**2)
    for a in range(dimension):
        va, aa = np.moveaxis(vg, a, 0), np.moveaxis(acc, a, 0)
        d = (va[1:] - va[:-1]) * coef
        aa[1:] += d
        aa[:-1] -= d
        norm += coef * float(np.sum((va[1:] - va[:-1]) ** 2))
    apply = space_weights(grid) * v + acc.ravel()
    np.testing.assert_allclose(stability._h1_apply(v, grid), apply,
                               rtol=1e-13, atol=1e-13 * np.max(np.abs(apply)))
    assert h1_norm_sq(v, grid) == pytest.approx(norm, rel=1e-13)


@pytest.mark.parametrize("dimension,n", [(1, 20), (1, 32), (2, 13), (2, 16)])
def test_h1_gram_equals_edge_loop(dimension, n):
    # the Gram matrix as a double loop over lattice edges fills it,
    # bit for bit: the preconditioner's factor depends on its bits
    grid = packaged_setup(dimension=dimension, n=n).grid
    idx = np.flatnonzero(admissible_mask(grid))
    pos = -np.ones(grid.n_nodes, dtype=int)
    pos[idx] = np.arange(idx.size)
    loop = np.diag(space_weights(grid)[idx])
    coef = grid.h**grid.dimension / grid.h**2
    node = np.arange(grid.n_nodes).reshape(grid.shape)
    for a in range(grid.dimension):
        na = np.moveaxis(node, a, 0)
        for i, j in zip(na[:-1].ravel(), na[1:].ravel()):
            pi, pj = pos[i], pos[j]
            if pi >= 0:
                loop[pi, pi] += coef
            if pj >= 0:
                loop[pj, pj] += coef
            if pi >= 0 and pj >= 0:
                loop[pi, pj] -= coef
                loop[pj, pi] -= coef
    np.testing.assert_array_equal(_h1_gram(grid, idx), loop)


# -- reconstruction --------------------------------------------------------


def test_reconstruct_noiseless_bump():
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes), max_iters=200)
    res = reconstruct(data, inv, cfg, truth=truth)
    assert res.iterations <= 200
    final_err = res.log[-1][3]
    assert final_err <= 0.05
    assert final_err == pytest.approx(0.0403, abs=0.005)
    assert res.log[-1][1] < 1e-7 * res.log[0][1]
    assert len(res.log) == res.iterations + 1


def test_reconstruct_prior_data_returns_prior():
    inv = inversion_setup(dimension=1, n=32)
    prior = np.ones(inv.grid.n_nodes)
    data = make_observations(inv, prior, sigma=0.0, seed=0)
    res = reconstruct(data, inv, InverseConfig(prior=prior), truth=prior)
    assert res.converged
    assert res.iterations <= 2
    np.testing.assert_array_equal(res.c_hat, prior)


def test_reconstruct_noise_monotone():
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    prior = np.ones(inv.grid.n_nodes)
    errs = []
    for sigma in (1e-4, 1e-3, 1e-2):
        data = make_observations(inv, truth, sigma=sigma, seed=0)
        res = reconstruct(data, inv, InverseConfig(prior=prior),
                          truth=truth)
        errs.append(res.log[-1][3])
    assert errs[1] >= 0.8 * errs[0]
    assert errs[2] >= 0.8 * errs[1]
    assert errs[0] == pytest.approx(0.1483, rel=1e-2)
    assert errs[2] == pytest.approx(14.567, rel=1e-2)


def test_reconstruct_stops_on_stagnation(monkeypatch):
    # a flat objective passes the nonmonotone Armijo test on every step
    # without decreasing, which trips the consecutive-nondecrease stop
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    calls = []

    def flat(c, *args, **kwargs):
        calls.append(1)
        return (1.0 if len(calls) == 1 else 0.999), None

    def flat_gradient(*args, **kwargs):
        return admissible_projection(1e-6 * np.ones(inv.grid.n_nodes),
                                     inv.grid)

    monkeypatch.setattr(stability, "_misfit", flat)
    monkeypatch.setattr(stability, "_gradient", flat_gradient)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes))
    res = reconstruct(data, inv, cfg, truth=truth)
    assert res.message == "objective stagnated for 10 accepted steps"
    assert res.iterations == 10
    assert not res.converged


def test_make_observations_seeded():
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    d1 = make_observations(inv, truth, sigma=1e-3, seed=11)
    d2 = make_observations(inv, truth, sigma=1e-3, seed=11)
    d3 = make_observations(inv, truth, sigma=1e-3, seed=12)
    for face in d1.flux:
        np.testing.assert_array_equal(d1.flux[face], d2.flux[face])
        assert not np.array_equal(d1.flux[face], d3.flux[face])


def test_reconstruction_log_csv(tmp_path):
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    res = reconstruct(make_observations(inv, truth, sigma=0.0, seed=0), inv,
                      InverseConfig(prior=np.ones(inv.grid.n_nodes),
                                    max_iters=3), truth=truth)
    path = tmp_path / "log.csv"
    res.log_to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,J,grad_norm,h1_error"
    assert len(lines) == len(res.log) + 1


def test_relative_h1_error_endpoints():
    setup = packaged_setup(dimension=1, n=32)
    v = bump_shape(setup.grid, 0)
    zero = np.zeros_like(v)
    gap = h1_norm_sq(v - zero, setup.grid)
    assert relative_h1_error(v, v, setup.grid, gap) == 0.0
    assert relative_h1_error(zero, v, setup.grid, gap) == 1.0


def test_inverse_config_rejects_bad_fields():
    setup = packaged_setup(dimension=1, n=32)
    prior = np.ones(setup.grid.n_nodes)
    for bad in (InverseConfig(prior=prior, max_iters=0),
                InverseConfig(prior=1e-4 * prior)):
        with pytest.raises(GridError):
            bad.validate(setup.grid)


def test_misfit_validates_once_and_before_the_factor(monkeypatch):
    inv = inversion_setup(dimension=1, n=32)
    data = make_observations(inv, bump_truth(inv.grid), sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes))
    built, checked = [], []

    class CountingStepper(CrankNicolsonStepper):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    validate = HeatProblem.validate

    def counting_validate(self, grid):
        checked.append(1)
        return validate(self, grid)

    monkeypatch.setattr(stability, "CrankNicolsonStepper", CountingStepper)
    monkeypatch.setattr(HeatProblem, "validate", counting_validate)
    misfit_and_gradient(bump_truth(inv.grid), data, inv, cfg)
    assert (len(checked), len(built)) == (1, 1)
    node = inv.grid.n_nodes // 2
    for bad in (np.nan, np.inf, 0.5 * stability.C_MIN, -1.0):
        c = np.ones(inv.grid.n_nodes)
        c[node] = bad
        with pytest.raises(GridError):
            misfit_and_gradient(c, data, inv, cfg)
    assert len(built) == 1  # no factor of an invalid coefficient


def test_preconditioner_rejects_nonfinite_gradient_and_non_spd_gram(
        monkeypatch):
    inv = inversion_setup(dimension=1, n=32)
    truth = bump_truth(inv.grid)
    data = make_observations(inv, truth, sigma=0.0, seed=0)
    cfg = InverseConfig(prior=np.ones(inv.grid.n_nodes), max_iters=3)

    gram = stability._h1_gram
    with monkeypatch.context() as patch:
        patch.setattr(stability, "_h1_gram",
                      lambda grid, idx: -gram(grid, idx))
        with pytest.raises(np.linalg.LinAlgError,
                           match="not positive definite"):
            reconstruct(data, inv, cfg, truth=truth)

    def nan_gradient(*args):
        return np.full(inv.grid.n_nodes, np.nan)

    monkeypatch.setattr(stability, "_gradient", nan_gradient)
    with pytest.raises(ValueError, match="infs or NaNs"):
        reconstruct(data, inv, cfg, truth=truth)
