"""Coefficient stability experiment and output-least-squares recovery.

The estimate side solves the twin problems for a coefficient pair,
forms the rate field, and compares the weighted midpoint mass of the
coefficient difference against the observed boundary flux (weighted
form) and against the unweighted observation distance (plain form).
A sweep stacks its base with capped chunks of members, runs each
stencil once on a chunk's (member, time, node) stack and each norm per
member, so a record is bitwise stability_sides of its pair.

The inverse side minimizes

    J(c) = 1/2 |d_nu d_t q[c] - d|^2 + ALPHA/2 |c - prior|^2_H1

by projected gradient descent.  J is computed literally: d_nu d_t is
observe.observed_flux, which made the data d, and |v|^2_H1 is v H v for
the one H1 operator H, _h1_apply.  The gradient transposes the exact
Crank-Nicolson update, so the finite-difference check is sharp.  The
descent forms J at every trial point and the gradient only at accepted
ones (_misfit, then _gradient on the same factor, which
misfit_and_gradient composes at one point), in one _workspace per run
holding the field and adjoint rows, their pair sums, the sweep buffer
and the accumulation stack: no evaluation after the first allocates
anything of field size.  Each transpose lives next to the map it
transposes: the adjoint's source is observe.observed_flux_transpose
applied to the flux residual, the adjoint sweep in the forward module
reuses the same prefactored B = I - dt/2 A (symmetric, so B and its
transpose share the factorization), and the coefficient derivative,
forward.coefficient_accumulate, accumulates over lattice faces beside
the face-mean flux assembly it mirrors node for node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np
# make_observations' generator; imported with the module so that a
# pipeline imports nothing that start-up has not
import numpy.random  # noqa: F401

from .forward import (CrankNicolsonStepper, cho_factor, cho_solve,
                      coefficient_accumulate, solve_heat, snapshot_package)
from .grid import Grid, GridError, discrete_gradient, lattice, space_weights
from .observe import (
    ObservationSet,
    boundary_norm_plain,
    extract_observations,
    observation_distance_plain,
    observed_flux,
    observed_flux_transpose,
    weighted_boundary_norm,
    weighted_norm_space,
)
from .poincare import build_transport_base
from .report import EstimateReport, write_csv
from .setups import ExperimentSetup, twin_solve
from .weights import WeightSet

# -- admissible set -------------------------------------------------------

C_MIN = 1e-3  # positivity floor of every coefficient pair, prior and iterate


def admissible_mask(grid: Grid) -> np.ndarray:
    """Interior nodes whose perturbations keep the coefficient boundary
    layer flat: the two end nodes are pinned in 1D, the outer two rings
    in 2D.  (In 1D, pinning the first interior node as well would bias
    any reconstruction of a quartic-flat bump by more than the target
    accuracy, so only the trace is enforced there.)  Read-only, shared
    by every caller on a grid of the same dimension and n."""
    return _admissible_mask(grid.dimension, grid.n)


@functools.lru_cache(maxsize=16)
def _admissible_mask(dimension: int, n: int) -> np.ndarray:
    keep = lattice(dimension, n).depth >= (1 if dimension == 1 else 2)
    keep.flags.writeable = False
    return keep


def admissible_projection(v: np.ndarray, grid: Grid) -> np.ndarray:
    out = np.asarray(v, dtype=float).copy()
    out[~admissible_mask(grid)] = 0.0
    return out


@dataclass(frozen=True)
class CoefficientPair:
    """Positive coefficient pair with an admissible difference."""

    c: np.ndarray
    c_tilde: np.ndarray
    gamma: np.ndarray


def make_pair(c_tilde: np.ndarray, gamma: np.ndarray,
              grid: Grid) -> CoefficientPair:
    """Projects the difference onto the admissible set, then validates
    that both coefficients stay above C_MIN."""
    c_tilde = np.asarray(c_tilde, dtype=float)
    if c_tilde.shape != (grid.n_nodes,):
        raise GridError(f"coefficient shape {c_tilde.shape}")
    gamma = admissible_projection(gamma, grid)
    c = c_tilde + gamma
    if np.any(c_tilde < C_MIN) or np.any(c < C_MIN):
        raise GridError("coefficient pair dips below the positivity floor")
    if not (np.all(np.isfinite(c)) and np.all(np.isfinite(c_tilde))):
        raise GridError("non-finite coefficient")
    return CoefficientPair(c=c, c_tilde=c_tilde, gamma=gamma)


# -- the two-sided experiment ---------------------------------------------


@dataclass(frozen=True)
class StabilityReport:
    """Shared weighted LHS against the weighted and the plain RHS."""

    weighted: EstimateReport
    plain: EstimateReport


def _family_sides(gammas: np.ndarray, setup: ExperimentSetup,
                  ws: WeightSet) -> list:
    """Both reports for each admissible difference in a (K, n_nodes)
    stack on setup's conductivity, from one twin_solve of the stack; the
    transport base at T' is nondegenerate, or build_transport_base raises."""
    grid, window = setup.grid, setup.window
    twin = twin_solve(setup, gammas)
    min_transport = build_transport_base(
        twin.q_tilde.at_time(window.t_mid), ws)
    coeff = weighted_norm_space(gammas, ws, 1)
    grad_coeff = weighted_norm_space(discrete_gradient(gammas, grid), ws, 1)
    traces = observed_flux(twin.u.values, grid, setup.timegrid, window)
    u_snap = snapshot_package(twin.u, grid, window)
    weighted_rhs = {
        "flux": weighted_boundary_norm(traces, ws, normal_beta_factor=True),
        "u_grad_lap": weighted_norm_space(u_snap.grad_lap_q, ws, 0),
        "u_lap": weighted_norm_space(u_snap.lap_q, ws, 0),
        "u_grad": weighted_norm_space(u_snap.grad_q, ws, 0),
    }
    dist = observation_distance_plain(
        extract_observations(twin.q, grid, window),
        extract_observations(twin.q_tilde, grid, window), grid, window)
    reports = []
    for m in range(len(gammas)):
        lhs = {"coeff": float(coeff[m]), "grad_coeff": float(grad_coeff[m])}
        weighted = EstimateReport.for_weights(
            "stability_weighted", lhs,
            {k: float(v[m]) for k, v in weighted_rhs.items()}, ws,
            min_transport=min_transport)
        plain = EstimateReport.for_weights(
            "stability_plain", dict(lhs),
            {k: float(v[m]) for k, v in dist.items() if k != "total"}, ws,
            min_transport=min_transport)
        reports.append(StabilityReport(weighted=weighted, plain=plain))
    return reports


def stability_sides(pair: CoefficientPair, setup: ExperimentSetup,
                    ws: WeightSet) -> StabilityReport:
    """Both reports for one pair: the one-pair stack of _family_sides."""
    setup = replace(setup, base=replace(setup.base, c=pair.c_tilde))
    return _family_sides(pair.gamma[None], setup, ws)[0]


# interior unknowns per _family_sides stack, base included: 2D n = 32 chunks
# keep the sweep's traced peak at 17.3 MB, where one stack took 48.6 MB.
# One solve_heat of 13 conductivities against 13 single ones, 2-core Xeon:
# 1D n = 32 (403 unknowns) 1.6 against 3.9 ms, but 2D n = 16 (2,925) 16.7
# against 15.1 ms and n = 40 (19,773) 200 against 171 ms
BLOCK_UNKNOWNS = 2**12


def stability_sweep(family, setup: ExperimentSetup, ws: WeightSet) -> list:
    """One record per member: its two reports' totals and ratios.  Each
    capped chunk of members is one stack with the base (_family_sides);
    a member is left out when eps is 0 or its admissible projection is 0."""
    members = []
    for label, eps, gamma in family:
        pair = None if eps == 0.0 else make_pair(setup.c_tilde, gamma,
                                                 setup.grid)
        if pair is not None and np.any(pair.gamma):
            members.append((label, float(eps), pair.gamma))
    if not members:
        raise GridError("stability family left no admissible members")
    gammas, grid = np.array([gamma for *_, gamma in members]), setup.grid
    size = max(1, BLOCK_UNKNOWNS // (grid.n - 1) ** grid.dimension - 1)
    reports = []
    for i in range(0, len(gammas), size):
        reports += _family_sides(gammas[i : i + size], setup, ws)
    return [{
        "member": label,
        "eps": eps,
        "lhs": rep.weighted.lhs_total,
        "rhs_weighted": rep.weighted.rhs_total,
        "rhs_plain": rep.plain.rhs_total,
        "ratio": rep.weighted.ratio,
    } for (label, eps, _), rep in zip(members, reports)]


# -- misfit, adjoint gradient, reconstruction -----------------------------


ALPHA = 1e-8       # Tikhonov weight of J's H1 term

# fixed controls of the descent in reconstruct
ARMIJO = 1e-4      # sufficient-decrease fraction of the Armijo test
SHRINK = 0.5       # backtracking factor of a rejected trial step
GROWTH = 2.0       # trial-step growth when the BB quotients are unusable
STEP0 = 1.0        # first trial step
MEMORY = 25        # the Armijo reference is the worst of this many J values
GRAD_TOL = 1e-10   # gradient-norm stop


@dataclass
class InverseConfig:
    """The prior of J and the iteration budget.  J's Tikhonov weight is
    the constant ALPHA; the descent's controls are the constants ARMIJO,
    SHRINK, GROWTH, STEP0, MEMORY and GRAD_TOL; C_MIN floors every
    iterate."""

    prior: np.ndarray
    max_iters: int = 200

    def validate(self, grid: Grid):
        prior = np.asarray(self.prior, dtype=float)
        if prior.shape != (grid.n_nodes,):
            raise GridError(f"prior shape {prior.shape}")
        if self.max_iters < 1:
            raise GridError("max_iters must be at least 1")
        if np.any(prior < C_MIN):
            raise GridError("prior dips below the positivity floor")


def _h1_apply(v: np.ndarray, grid: Grid) -> np.ndarray:
    """H v, the gradient of 1/2 h1_norm_sq: trapezoid mass on the
    diagonal, and per lattice face (lo, hi) coef (v[hi] - v[lo]),
    coef = h^d / h^2, added at hi and subtracted at lo."""
    lat = grid.lattice
    d = (v[lat.hi] - v[lat.lo]) * (grid.h**grid.dimension / grid.h**2)
    out = space_weights(grid) * v
    np.add.at(out, lat.hi, d)
    np.subtract.at(out, lat.lo, d)
    return out


def h1_norm_sq(v: np.ndarray, grid: Grid) -> float:
    """v H v: trapezoid mass plus midpoint-rule gradient mass; the
    quadratic form behind the regularizer and the error metric."""
    v = np.asarray(v, dtype=float)
    return float(v @ _h1_apply(v, grid))


def _h1_gram(grid: Grid, idx: np.ndarray) -> np.ndarray:
    """The H of _h1_apply as a dense matrix restricted to the nodes in
    idx; the preconditioner of the descent metric.  Every lattice face
    adds coef to the diagonal at each end in idx, and subtracts it off
    the diagonal when both ends are; all addends are equal, so their
    order does not change the bits."""
    pos = np.full(grid.n_nodes, -1)
    pos[idx] = np.arange(idx.size)
    lo, hi = pos[grid.lattice.lo], pos[grid.lattice.hi]
    coef = grid.h**grid.dimension / grid.h**2
    diag = space_weights(grid)[idx]
    ends = np.concatenate((lo, hi))
    np.add.at(diag, ends[ends >= 0], coef)
    gram = np.diag(diag)
    both = (lo >= 0) & (hi >= 0)
    gram[lo[both], hi[both]] -= coef
    gram[hi[both], lo[both]] -= coef
    return gram


def relative_h1_error(estimate: np.ndarray, truth: np.ndarray,
                      grid: Grid, gap: float) -> float:
    """H1 norm of estimate - truth relative to that of truth - prior, the
    error reconstruct logs, given gap = h1_norm_sq(truth - prior, grid),
    formed once; the absolute norm when truth is the prior."""
    err = h1_norm_sq(estimate - np.asarray(truth, dtype=float), grid)
    return math.sqrt(err if gap == 0.0 else err / gap)


def make_observations(setup: ExperimentSetup, c_true: np.ndarray,
                      sigma: float = 0.0, seed: int = 0) -> ObservationSet:
    """Synthetic data: solve with the true coefficient; white noise on
    the flux traces only (interior snapshots stay clean)."""
    field = solve_heat(replace(setup.base, c=c_true), setup.grid,
                       setup.timegrid)
    obs = extract_observations(field, setup.grid, setup.window)
    if sigma > 0.0:
        rng = np.random.default_rng(seed)
        noisy = {face: vals + sigma * rng.standard_normal(vals.shape)
                 for face, vals in obs.flux.items()}
        obs = replace(obs, flux=noisy)
    return obs


def _workspace(setup: ExperimentSetup) -> SimpleNamespace:
    """A reconstruction's field-sized arrays, made once per run: field
    holds the forward rows, then (once vsum holds v_k + v_{k+1}) the
    adjoint rows; one allocation serves as the sweep buffer and then as
    the face-product pair; terms is the accumulation's zeroed stack."""
    grid, steps = setup.grid, setup.timegrid.steps
    sweep = (steps + 1, 2 * np.count_nonzero(~grid.boundary_mask))
    pair = (2, steps * grid.n * (grid.n + 1)**(grid.dimension - 1))
    scratch = np.empty(max(math.prod(sweep), math.prod(pair)))
    return SimpleNamespace(
        field=np.empty((steps + 1, grid.n_nodes)),
        vsum=np.empty((steps, grid.n_nodes)),
        sweep=scratch[:math.prod(sweep)].reshape(sweep),
        pair=scratch[:math.prod(pair)].reshape(pair),
        terms=np.zeros((steps, grid.dimension, 2) + grid.shape))


def _misfit(c_current: np.ndarray, data: ObservationSet,
            setup: ExperimentSetup, config: InverseConfig,
            work: SimpleNamespace):
    """The first half of misfit_and_gradient, run at every trial point:
    every check on c_current, the forward solve into work.field and J.
    Returns J and the state _gradient reads; the caller validated config."""
    grid, tg, window = setup.grid, setup.timegrid, setup.window
    c_current = np.asarray(c_current, dtype=float)
    if np.any(c_current < C_MIN):
        raise GridError("coefficient below the positivity floor")

    prob = replace(setup.base, c=c_current)
    # validated here, before the factor, which would fail less clearly
    prob.validate(grid)
    # one factor of B = I - dt/2 A serves the forward solve and the adjoint
    stepper = CrankNicolsonStepper(c_current, grid, tg.dt)
    stepper.solve(prob.g, prob.q0, tg, work.field[None], work.sweep)
    # the flux map that made the data, so J vanishes at the truth
    residual = {face: trace - data.flux[face] for face, trace
                in observed_flux(work.field, grid, tg, window).items()}
    j_mis = 0.5 * boundary_norm_plain(residual, grid, window)

    shift = c_current - config.prior
    j_total = j_mis + 0.5 * ALPHA * h1_norm_sq(shift, grid)
    return j_total, (stepper, residual, shift)


def _gradient(state, setup: ExperimentSetup,
              work: SimpleNamespace) -> np.ndarray:
    """The second half of misfit_and_gradient: the exact discrete
    gradient of J at the point the last _misfit on work evaluated, by the
    adjoint sweep on its stepper; once, as it overwrites work.field."""
    grid, tg = setup.grid, setup.timegrid
    stepper, residual, shift = state
    vsum = np.add(work.field[:-1], work.field[1:], out=work.vsum)
    # row i of lam pairs with the step from time i to i + 1; the
    # adjoint's source, the gradient of j_mis in the field, drives it
    # through the interior columns (boundary values carry data, not c)
    observed_flux_transpose(residual, grid, tg, setup.window,
                            work.sweep[:, stepper.interior.size:])
    lam = work.field[:-1]
    lam[:, stepper.boundary] = 0.0
    lam[:, stepper.interior] = stepper.adjoint_sweep(work.sweep)
    grad_c = coefficient_accumulate(lam, vsum, grid, work.terms, work.pair)
    grad_c *= -0.5 * tg.dt
    grad_c += ALPHA * _h1_apply(shift, grid)
    return admissible_projection(grad_c, grid)


def misfit_and_gradient(c_current: np.ndarray, data: ObservationSet,
                        setup: ExperimentSetup, config: InverseConfig):
    """J and its exact discrete gradient: _misfit, then _gradient."""
    config.validate(setup.grid)
    work = _workspace(setup)
    j_total, state = _misfit(c_current, data, setup, config, work)
    return j_total, _gradient(state, setup, work)


@dataclass
class ReconstructionResult:
    c_hat: np.ndarray
    log: list = field(init=False, default_factory=list)
    converged: bool = field(init=False, default=False)
    iterations: int = field(init=False, default=0)
    message: str = field(init=False, default="")

    def log_to_csv(self, path):
        write_csv(path, ["iter", "J", "grad_norm", "h1_error"], self.log)


def _project(c: np.ndarray, config: InverseConfig, grid: Grid) -> np.ndarray:
    prior = np.asarray(config.prior, dtype=float)
    shifted = prior + admissible_projection(c - prior, grid)
    return np.maximum(shifted, C_MIN)


def reconstruct(data: ObservationSet, setup: ExperimentSetup,
                config: InverseConfig,
                truth: np.ndarray) -> ReconstructionResult:
    """Projected gradient descent with backtracking.  Three refinements,
    together needed to reach the true coefficient within a small
    iteration budget on the badly conditioned flux misfit: the descent
    direction is the H1 Riesz representative of the gradient (raw
    gradient flow dumps near-boundary roughness into modes the data
    cannot see), the trial step alternates the two Barzilai-Borwein
    formulas (else GROWTH times the accepted step; STEP0 at first), and
    the Armijo test (fraction ARMIJO, backtracking by SHRINK) compares
    against the worst of the last MEMORY objective values so the
    spectral steps are not truncated.  It stops at gradient norm
    GRAD_TOL, on a failed line search, after 10 accepted steps without
    decrease, or after config.max_iters iterations.  Every trial point
    gets _misfit; only an accepted one gets _gradient, on the stepper its
    _misfit built, and the config check, the _workspace and the error's
    denominator are made once per run.  The logged error is that
    of the recovered perturbation c_hat - prior, relative to truth - prior."""
    grid = setup.grid
    config.validate(grid)
    prior = np.asarray(config.prior, dtype=float)
    work = _workspace(setup)
    c = prior.copy()
    j_val, state = _misfit(c, data, setup, config, work)
    grad = _gradient(state, setup, work)
    step = STEP0
    result = ReconstructionResult(c_hat=c)
    flat_run = 0

    idx = np.flatnonzero(admissible_mask(grid))
    gram = _h1_gram(grid, idx)
    chol = cho_factor(gram)

    def direction(g):
        d = np.zeros_like(g)
        d[idx] = cho_solve(chol, g[idx])
        return d

    gap = h1_norm_sq(truth - prior, grid)

    def h1_err(current):
        return relative_h1_error(current, truth, grid, gap)

    gnorm = float(np.linalg.norm(grad))
    result.log.append((0, j_val, gnorm, h1_err(c)))
    history = [j_val]
    for it in range(1, config.max_iters + 1):
        if gnorm <= GRAD_TOL:
            result.converged = True
            result.message = "gradient tolerance reached"
            break
        desc = direction(grad)
        reference = max(history[-MEMORY:])
        accepted = False
        t = step
        while t > 1e-16:
            trial = _project(c - t * desc, config, grid)
            decrease = float(grad @ (c - trial))
            j_trial, state = _misfit(trial, data, setup, config, work)
            if j_trial <= reference - ARMIJO * decrease:
                accepted = True
                break
            t *= SHRINK
        if not accepted:
            result.message = "line search failed"
            break
        if j_trial >= j_val:
            flat_run += 1
            if flat_run >= 10:
                result.message = "objective stagnated for 10 accepted steps"
                break
        else:
            flat_run = 0
        c_prev, grad_prev = c, grad
        c = trial
        j_val = j_trial
        grad = _gradient(state, setup, work)
        history.append(j_val)
        step = t * GROWTH
        # alternate BB1 and BB2, both taken in the H1 metric
        s_vec = c - c_prev
        y_vec = grad - grad_prev
        sy = float(s_vec @ y_vec)
        if sy > 0.0:
            if it % 2 == 1:
                sa = s_vec[idx]
                step = min(float(sa @ (gram @ sa)) / sy, 1e12)
            else:
                yy = float(y_vec @ direction(y_vec))
                if yy > 0.0:
                    step = min(sy / yy, 1e12)
        gnorm = float(np.linalg.norm(grad))
        result.iterations = it
        result.log.append((it, j_val, gnorm, h1_err(c)))
    else:
        result.message = "iteration budget exhausted"
    result.c_hat = c
    return result


def sweep_to_csv(records, path):
    columns = ["member", "eps", "lhs", "rhs_weighted", "rhs_plain", "ratio"]
    write_csv(path, columns, ([rec[k] for k in columns] for rec in records))
