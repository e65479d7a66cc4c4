"""Both sides of the weighted smoothing estimate on synthetic test functions.

The interesting checks here are exact: homogeneity of the ratio under
q -> 2q, the decomposition identity for the second-order block, and the
zero cases.  The inequality itself is probed empirically through the
seeded sweep; the expected trends (non-growth in s, refinement
stability once the weight layer is mesh-resolved) were measured first
and then frozen.
"""

import dataclasses
import sys

import numpy as np
import pytest

from carleman_lab import carleman
from carleman_lab.carleman import (
    apply_M1,
    apply_M2,
    carleman_sides,
    carleman_sweep,
    conjugate,
    make_test_suite,
)
from carleman_lab.forward import HeatProblem, solve_heat
from carleman_lab.grid import (
    Grid,
    GridError,
    TimeGrid,
    discrete_laplacian,
    space_weights,
)
from carleman_lab.weights import WeightSet, build_weights
from helpers import discrete_divergence

S_LIST = [1.0, 2.0, 4.0, 8.0]
LAM_LIST = [1.0, 2.0]


def setup_1d(n=32, steps=128):
    grid = Grid(1, n, ["right"])
    timegrid = TimeGrid(0.0, 2.0, steps)
    window = timegrid.window(0.5)
    return grid, window


def default_ws(grid, window, lam=1.0, s=1.0):
    return build_weights(grid, window, lam=lam, s=s, m=1.1, x0=[-0.1])


def variable_c(grid):
    return 1.0 + 0.5 * grid.coords[:, 0]


def m1(psi, c, ws):
    """apply_M1 into a NaN-filled buffer, so that a slot it leaves
    unwritten shows."""
    return apply_M1(psi, c, ws, np.full(psi[..., 1:-1, :].shape, np.nan))


def m2(psi, c, ws):
    """apply_M2 into NaN-filled field and gradient buffers."""
    shape = psi[..., 1:-1, :].shape
    return apply_M2(psi, c, ws, np.full(shape, np.nan),
                    np.full(shape + (ws.grid.dimension,), np.nan))


def test_conjugate_endpoints_and_linearity():
    grid, window = setup_1d()
    ws = default_ws(grid, window)
    suite = make_test_suite(grid, window, count=1, seed=7)
    q = suite[0][1]
    psi = conjugate(q, ws, np.empty_like(q))
    np.testing.assert_array_equal(psi[0], 0.0)
    np.testing.assert_array_equal(psi[-1], 0.0)
    # doubling is an exponent shift, exact in floating point
    np.testing.assert_array_equal(conjugate(2.0 * q, ws, np.empty_like(q)),
                                  2.0 * psi)


def test_operators_vanish_on_zero():
    grid, window = setup_1d(n=16, steps=32)
    ws = default_ws(grid, window)
    psi = np.zeros((window.steps + 1, grid.n_nodes))
    c = np.ones(grid.n_nodes)
    np.testing.assert_array_equal(m1(psi, c, ws), 0.0)
    np.testing.assert_array_equal(m2(psi, c, ws), 0.0)


def test_m1_decomposition_identity_unit_c():
    # with c = 1 the second-order block is the plain laplacian, so M1
    # minus (laplacian + closed-form zero-order factors) must be exactly 0
    grid, window = setup_1d(n=24, steps=64)
    ws = default_ws(grid, window, lam=1.0, s=1.0)
    suite = make_test_suite(grid, window, count=1, seed=11)
    psi = conjugate(suite[0][1], ws, np.empty_like(suite[0][1]))
    c = np.ones(grid.n_nodes)
    got = m1(psi, c, ws)

    grad_b2 = np.sum(ws.grad_beta_tilde**2, axis=1)
    phi = np.exp(ws.log_phi)
    zero_order = (ws.s**2 * ws.lam**2) * c[None, :] * grad_b2[None, :] * phi**2
    zero_order = zero_order + ws.s * ws.dt_eta
    expected = np.stack([discrete_laplacian(row, grid) for row in psi[1:-1]])
    expected = expected + zero_order * psi[1:-1]
    np.testing.assert_array_equal(got, expected)


def test_m2_dual_evaluation_converges():
    # II M2(psi) psi evaluated nodally versus its integrated-by-parts
    # form; the two agree in the limit, and the gap shrinks under
    # simultaneous refinement (the weight layer slows the rate at the
    # coarse end, hence the loose absolute ceiling).
    diffs = []
    for n, steps in ((16, 64), (32, 128), (64, 256)):
        grid = Grid(1, n, ["right"])
        timegrid = TimeGrid(0.0, 2.0, steps)
        window = timegrid.window(0.5)
        ws = default_ws(grid, window)
        q = make_test_suite(grid, window, count=1, seed=3)[0][1]
        c = np.ones(grid.n_nodes)
        psi = conjugate(q, ws, np.empty_like(q))
        sw = space_weights(grid)
        dt = window.dt
        nodal = dt * float(np.sum((m2(psi, c, ws) * psi[1:-1]) @ sw))

        phi = np.exp(ws.log_phi)
        gb2 = np.sum(ws.grad_beta_tilde**2, axis=1)
        ibp = 0.0
        for i in range(phi.shape[0]):
            flux = phi[i][:, None] * c[:, None] * ws.grad_beta_tilde
            div_flux = discrete_divergence(flux, grid)
            integrand = (
                -ws.s * ws.lam * div_flux
                - 2.0 * ws.s * ws.lam**2 * phi[i] * c * gb2
            ) * psi[1 + i] ** 2
            ibp += dt * float(sw @ integrand)
        diffs.append(abs(nodal - ibp) / abs(nodal))
    assert diffs[0] > diffs[1] > diffs[2]
    assert diffs[2] < 0.15


def test_sides_zero_case():
    grid, window = setup_1d(n=16, steps=32)
    ws = default_ws(grid, window)
    q = np.zeros((window.steps + 1, grid.n_nodes))
    rep = carleman_sides(q, np.ones(grid.n_nodes), ws)
    assert rep.ratio == 0.0
    assert rep.lhs_total == 0.0
    assert rep.rhs_total == 0.0


def test_sides_rejects_bad_input():
    grid, window = setup_1d(n=16, steps=32)
    ws = default_ws(grid, window)
    c = np.ones(grid.n_nodes)
    with pytest.raises(GridError, match="shape"):
        carleman_sides(np.zeros((3, grid.n_nodes)), c, ws)
    q = np.zeros((window.steps + 1, grid.n_nodes))
    q[5, 0] = 1e-3
    with pytest.raises(GridError, match="vanish"):
        carleman_sides(q, c, ws)


def test_heat_solution_dominated_by_boundary_term():
    # an exact solution of the evolution makes the residual term drop to
    # discretization level, leaving the boundary flux to carry the RHS
    grid, window = setup_1d()
    timegrid = TimeGrid(0.0, 2.0, 128)
    x = grid.coords[:, 0]
    prob = HeatProblem(
        c=np.full(grid.n_nodes, 1.0 / np.pi**2),
        g=lambda t: np.zeros(grid.n_nodes),
        q0=np.sin(np.pi * x),
    )
    field = solve_heat(prob, grid, timegrid)
    offset = timegrid.index_of(window.t0)
    q_win = field.values[offset:offset + window.steps + 1]
    ws = default_ws(grid, window)
    rep = carleman_sides(q_win, prob.c, ws)
    assert np.isfinite(rep.ratio)
    assert rep.rhs_terms["boundary"] > 1e6 * rep.rhs_terms["residual"]


def test_suite_is_seeded_and_admissible():
    grid, window = setup_1d()
    suite_a = make_test_suite(grid, window, count=20, seed=42)
    suite_b = make_test_suite(grid, window, count=20, seed=42)
    assert len(suite_a) == 20
    for (ida, qa), (idb, qb) in zip(suite_a, suite_b):
        assert ida == idb
        np.testing.assert_array_equal(qa, qb)
        np.testing.assert_array_equal(qa[:, grid.boundary_mask], 0.0)
    other = make_test_suite(grid, window, count=20, seed=43)
    assert any(
        not np.array_equal(qa, qo)
        for (_, qa), (_, qo) in zip(suite_a, other)
    )


def test_scaling_covariance_exact():
    grid, window = setup_1d()
    ws = default_ws(grid, window, lam=1.0, s=2.0)
    c = variable_c(grid)
    q = make_test_suite(grid, window, count=1, seed=5)[0][1]
    base = carleman_sides(q, c, ws)
    doubled = carleman_sides(2.0 * q, c, ws)
    for key in base.lhs_terms:
        assert doubled.lhs_terms[key] == 4.0 * base.lhs_terms[key]
    for key in base.rhs_terms:
        assert doubled.rhs_terms[key] == 4.0 * base.rhs_terms[key]
    assert doubled.ratio == base.ratio


def test_sweep_trends_default_grid():
    grid, window = setup_1d()
    suite = make_test_suite(grid, window, count=20, seed=42)
    records, summary = carleman_sweep(
        variable_c(grid), suite, S_LIST, LAM_LIST, grid, window,
        m_weight=1.1, x0=[-0.1],
    )
    assert len(records) == 20 * len(S_LIST) * len(LAM_LIST)
    assert all(np.isfinite(v) for v in summary.values())
    for lam in LAM_LIST:
        for s in (1.0, 2.0, 4.0):
            assert summary[(2.0 * s, lam)] <= 1.1 * summary[(s, lam)]


def test_sweep_concentration_limit():
    # at lam = 2 the weight mass collapses onto the observed face and the
    # ratio approaches lam*h/2 exactly: the surviving gradient term samples
    # the face node with spatial weight h/2 against face weight 1
    grid, window = setup_1d()
    suite = make_test_suite(grid, window, count=20, seed=42)
    _, summary = carleman_sweep(
        variable_c(grid), suite, [8.0], [2.0], grid, window,
        m_weight=1.1, x0=[-0.1],
    )
    assert summary[(8.0, 2.0)] == pytest.approx(2.0 * grid.h / 2.0, rel=1e-5)


def test_sweep_refinement_stability_resolved_grid():
    # the max ratio is grid-stable once the spatial decay of the weight is
    # resolved (roughly s*lam*h*max|d_x eta| below 1, n >= 128 here); at
    # the working resolution n = 32 the sharpest (s, lam) cells are still
    # converging and the max can drift, which is recorded, not asserted
    maxima = []
    for n in (128, 256):
        grid = Grid(1, n, ["right"])
        timegrid = TimeGrid(0.0, 2.0, 128)
        window = timegrid.window(0.5)
        suite = make_test_suite(grid, window, count=20, seed=42)
        _, summary = carleman_sweep(
            variable_c(grid), suite, S_LIST, LAM_LIST, grid, window,
            m_weight=1.1, x0=[-0.1],
        )
        maxima.append(max(summary.values()))
    assert maxima[0] == pytest.approx(9.745, rel=1e-3)
    assert abs(maxima[1] - maxima[0]) < 0.2 * maxima[0]


def test_m2_sign_switch_recorded_and_mild(monkeypatch):
    # the other sign of M2's first-order factor, on a WeightSet with
    # empty tables: M2's advection table does not key on the sign
    grid, window = setup_1d()
    ws = default_ws(grid, window)
    c = variable_c(grid)
    q = make_test_suite(grid, window, count=1, seed=1)[0][1]
    plus = carleman_sides(q, c, ws)
    monkeypatch.setattr(carleman, "M2_SIGN", -1.0)
    minus = carleman_sides(q, c, dataclasses.replace(ws))
    assert plus.params["m2_sign"] == 1.0
    assert minus.params["m2_sign"] == -1.0
    assert np.isfinite(plus.ratio) and np.isfinite(minus.ratio)
    assert abs(plus.ratio - minus.ratio) <= 0.1 * plus.ratio


def test_sweep_rejects_empty_inputs():
    grid, window = setup_1d(n=16, steps=32)
    suite = make_test_suite(grid, window, count=1, seed=42)
    c = np.ones(grid.n_nodes)
    with pytest.raises(GridError, match="empty"):
        carleman_sweep(c, [], S_LIST, LAM_LIST, grid, window, 1.1, [-0.1])
    with pytest.raises(GridError, match="empty"):
        carleman_sweep(c, suite, [], LAM_LIST, grid, window, 1.1, [-0.1])


def stack_case(dimension):
    """A grid, window, conductivity, weights and suite whose sweep spans
    several stacked chunks, the last one short."""
    if dimension == 1:
        grid, window = setup_1d()
        count = 25
    else:
        grid = Grid(2, 8, ["north", "east"])
        window = TimeGrid(0.0, 2.0, 64).window(0.5)
        count = 20
    c = 1.0 + 0.5 * grid.coords[:, 0] + 0.25 * grid.coords[:, -1] ** 2
    x0 = [-0.1] * dimension
    suite = make_test_suite(grid, window, count=count, seed=9)
    per_chunk = carleman.CHUNK_VALUES // suite[0][1].size
    assert 1 < per_chunk < count and count % per_chunk != 0
    ws = build_weights(grid, window, lam=2.0, s=4.0, m=1.1, x0=x0)
    return grid, window, c, x0, ws, suite


def assert_bitwise(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dimension", [1, 2])
def test_operators_on_a_stack_equal_the_per_test_results(dimension,
                                                         monkeypatch):
    # one call on a (test, time, node) stack is the per-test calls
    # stacked, bit for bit, each filling NaN buffers; M2 under both
    # signs, each on its own WeightSet
    _, _, c, _, ws, suite = stack_case(dimension)
    q = np.stack([vals for _, vals in suite[:7]])
    psi = conjugate(q, ws, np.full(q.shape, np.nan))
    assert_bitwise(psi, np.stack([conjugate(row, ws, np.empty_like(row))
                                  for row in q]))
    assert_bitwise(m1(psi, c, ws), np.stack([m1(row, c, ws) for row in psi]))
    for sign in (1.0, -1.0):
        monkeypatch.setattr(carleman, "M2_SIGN", sign)
        signed = dataclasses.replace(ws)
        assert_bitwise(m2(psi, c, signed),
                       np.stack([m2(row, c, signed) for row in psi]))


@pytest.mark.parametrize("dimension", [1, 2])
def test_operator_tables_are_kept_per_conductivity_and_sign(dimension,
                                                             monkeypatch):
    # apply_M1 and apply_M2 keep their coefficient tables on ws: one ws
    # per sign of M2, shared by two conductivities, gives every call what
    # a ws with empty tables gives
    _, _, c, _, ws, suite = stack_case(dimension)
    q = np.stack([vals for _, vals in suite[:3]])
    psi = conjugate(q, ws, np.empty_like(q))
    for cc in (c, 2.0 * c, c):
        assert_bitwise(m1(psi, cc, ws), m1(psi, cc, dataclasses.replace(ws)))
    for sign in (1.0, -1.0):
        monkeypatch.setattr(carleman, "M2_SIGN", sign)
        signed = dataclasses.replace(ws)
        for cc in (c, 2.0 * c, c):
            assert_bitwise(m2(psi, cc, signed),
                           m2(psi, cc, dataclasses.replace(ws)))


def term_values(terms):
    resid2, grad2, zero2, flux2 = terms
    return resid2.size + grad2.size + zero2.size + sum(
        f.size for f in flux2.values())


def assert_sweep_records_equal_the_one_test_sides(dimension, keep,
                                                  monkeypatch):
    # each record is carleman_sides of its test alone, the kept terms fit
    # the budget, and a chunk's terms are formed once if kept and once per
    # cell if not
    grid, window, c, x0, _, suite = stack_case(dimension)
    per_chunk = carleman.CHUNK_VALUES // suite[0][1].size
    first = np.stack([q for _, q in suite[:per_chunk]])
    chunk_values = term_values(carleman._test_terms(first, c, grid, window))
    budget = {"none": 0, "one_chunk": chunk_values,
              "default": carleman.KEEP_VALUES}[keep]
    monkeypatch.setattr(carleman, "KEEP_VALUES", budget)
    formed, used = [], []
    test_terms, stacked_sides = carleman._test_terms, carleman._stacked_sides

    def forming(*args):
        formed.append(test_terms(*args))
        return formed[-1]

    def using(q, terms, *args):
        used.append(terms)
        return stacked_sides(q, terms, *args)

    monkeypatch.setattr(carleman, "_test_terms", forming)
    monkeypatch.setattr(carleman, "_stacked_sides", using)
    s_list, lam_list = [1.0, 8.0], [1.0, 2.0]
    records, summary = carleman_sweep(c, suite, s_list, lam_list, grid,
                                      window, 1.1, x0)
    n_cells = len(s_list) * len(lam_list)
    n_chunks = -(-len(suite) // per_chunk)
    kept = [t for t in formed if sum(u is t for u in used) > 1]
    assert all(sum(u is t for u in used) in (1, n_cells) for t in formed)
    assert sum(term_values(t) for t in kept) <= budget
    assert len(kept) == {"none": 0, "one_chunk": 1, "default": n_chunks}[keep]
    assert len(formed) == len(kept) + n_cells * (n_chunks - len(kept))
    monkeypatch.undo()
    assert len(records) == len(suite) * n_cells
    cells = [(s, lam) for s in s_list for lam in lam_list]
    for k, (s, lam) in enumerate(cells):
        ws = build_weights(grid, window, lam=lam, s=s, m=1.1, x0=x0)
        cell = records[k * len(suite):(k + 1) * len(suite)]
        for (test_id, q), (rec_id, rec_s, rec_lam, rep) in zip(suite, cell,
                                                               strict=True):
            ref = carleman_sides(q, c, ws)
            assert (rec_id, rec_s, rec_lam) == (test_id, s, lam)
            assert rep.lhs_terms == ref.lhs_terms
            assert rep.rhs_terms == ref.rhs_terms
            assert rep.params == ref.params
        assert summary[(s, lam)] == max(rep.ratio for *_, rep in cell)


@pytest.mark.parametrize("dimension", [1, 2])
def test_sweep_records_equal_the_one_test_sides(dimension, monkeypatch):
    assert_sweep_records_equal_the_one_test_sides(dimension, "default",
                                                  monkeypatch)


@pytest.mark.parametrize("keep", ["none", "one_chunk"])
@pytest.mark.parametrize("dimension", [1, 2])
def test_sweep_records_equal_the_one_test_sides_at_small_keep_budgets(
        dimension, keep, monkeypatch):
    assert_sweep_records_equal_the_one_test_sides(dimension, keep,
                                                  monkeypatch)


def test_sweep_forms_the_residual_once_per_chunk(monkeypatch):
    # the default 1D sweep: two chunks of ten tests in eight cells; the
    # residual's divergence runs once per chunk, M1's once per cell and
    # chunk
    grid, window = setup_1d()
    suite = make_test_suite(grid, window, count=20, seed=42)
    callers = []
    original = carleman.divergence_flux

    def recording(*args):
        callers.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(carleman, "divergence_flux", recording)
    carleman_sweep(variable_c(grid), suite, S_LIST, LAM_LIST, grid, window,
                   1.1, [-0.1])
    assert callers.count("_test_terms") == 2
    assert callers.count("apply_M1") == 16
    assert len(callers) == 18


@pytest.mark.parametrize("dimension", [1, 2])
def test_sweep_reads_no_unwritten_workspace_slot(dimension, monkeypatch):
    # one workspace per sweep, filled with NaN when made and again before
    # every chunk: a stale or unwritten slot that is read shows up as a
    # changed record
    grid, window, c, x0, _, suite = stack_case(dimension)
    s_list, lam_list = [1.0, 8.0], [1.0, 2.0]
    expected, _ = carleman_sweep(c, suite, s_list, lam_list, grid, window,
                                 1.1, x0)
    made, chunks = [], []
    workspace, stacked_sides = carleman._workspace, carleman._stacked_sides

    def poisoned(work):
        for buffer in vars(work).values():
            buffer.fill(np.nan)
        return work

    def making(*args):
        made.append(poisoned(workspace(*args)))
        return made[-1]

    def using(q, terms, c, ws, work):
        assert work is made[-1]
        chunks.append(len(q))
        return stacked_sides(q, terms, c, ws, poisoned(work))

    monkeypatch.setattr(carleman, "_workspace", making)
    monkeypatch.setattr(carleman, "_stacked_sides", using)
    records, _ = carleman_sweep(c, suite, s_list, lam_list, grid, window,
                                1.1, x0)
    assert len(made) == 1
    assert len(made[0].psi) == max(chunks) > min(chunks)
    assert len(records) == len(expected)
    for (*key, rep), (*ref_key, ref) in zip(records, expected, strict=True):
        assert key == ref_key
        assert rep.lhs_terms == ref.lhs_terms
        assert rep.rhs_terms == ref.rhs_terms


@pytest.mark.parametrize("dimension", [1, 2])
def test_sweep_names_the_inadmissible_test(dimension):
    grid, window, c, x0, _, suite = stack_case(dimension)
    suite = list(suite[:4])
    short = (suite[2][0], suite[2][1][:-1])
    with pytest.raises(GridError, match=r"test02 has shape"):
        carleman_sweep(c, suite[:2] + [short] + suite[3:], [1.0], [1.0],
                       grid, window, 1.1, x0)
    leaky = suite[3][1].copy()
    leaky[5, np.flatnonzero(grid.boundary_mask)[0]] = 1e-3
    with pytest.raises(GridError, match=r"test03 must vanish"):
        carleman_sweep(c, suite[:3] + [(suite[3][0], leaky)], [1.0], [1.0],
                       grid, window, 1.1, x0)


class UncachedWeights(WeightSet):
    """A WeightSet that forms every table anew on each use, with the
    formulas the cached tables are made by."""

    def weight_st(self, k):
        return np.exp(self.log_weight(k))

    def weight_tprime(self, k):
        return np.exp(self.log_weight(k)[self.tprime_row])

    def boundary_weight(self, face):
        return np.exp(self.log_weight(1.0)[:, self.grid.face_nodes(face)])

    phi = property(lambda self: np.exp(self.log_phi))
    grad_beta_sq = property(
        lambda self: np.sum(self.grad_beta_tilde**2, axis=1))
    conjugation = property(
        lambda self: np.exp(-self.s * (self.eta - self.eta_ref)))
    dt_eta = property(
        lambda self: -self.eta * (self.w_prime / self.w)[:, None])


def test_cached_weight_tables_are_read_only_and_change_no_report():
    grid, window = setup_1d()
    c = variable_c(grid)
    suite = make_test_suite(grid, window, count=20, seed=5)
    records, _ = carleman_sweep(c, suite, [4.0], [2.0], grid, window, 1.1,
                                [-0.1])
    ws = default_ws(grid, window, lam=2.0, s=4.0)
    reference = UncachedWeights(**{f.name: getattr(ws, f.name)
                                   for f in dataclasses.fields(ws)})
    for (_, q), (_, _, _, rep) in zip(suite, records, strict=True):
        ref = carleman_sides(q, c, reference)
        assert rep.lhs_terms == ref.lhs_terms
        assert rep.rhs_terms == ref.rhs_terms

    carleman_sides(suite[0][1], c, ws)
    tables = [ws.weight_st(k) for k in (0, 1, 3)]
    tables += [ws.weight_tprime(k) for k in (0, 1)]
    tables += [ws.boundary_weight(face) for face in grid.gamma0_faces]
    tables += [ws.phi, ws.grad_beta_sq, ws.conjugation, ws.dt_eta]
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
    assert ws.weight_st(3) is tables[2]
    assert ws.weight_st(3.0) is tables[2]
    assert ws.conjugation is tables[-2]
