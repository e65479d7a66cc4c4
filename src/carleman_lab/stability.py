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
misfit_and_gradient composes at one point).  Each transpose lives next
to the map it transposes: the adjoint's source is
observe.observed_flux_transpose applied to the flux residual, the
adjoint sweep in the forward module reuses the same prefactored
B = I - dt/2 A (symmetric, so B and its transpose share the
factorization), and the coefficient derivative accumulates over lattice
faces, mirroring the face-mean flux assembly node for node.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
# make_observations' generator; imported with the module so that a
# pipeline imports nothing that start-up has not
import numpy.random  # noqa: F401

from .forward import (
    CrankNicolsonStepper,
    _flapack,
    solve_heat,
    snapshot_package,
)
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


# interior unknowns per _family_sides stack, base included.  Stepping 13
# conductivities on a 2-core Xeon (2 MB L2), stacks of ~4,000 beat single
# sweeps (2D n = 16: 12.0 -> 10.3 ms) and larger ones lose (n = 40: 81.9
# -> 104.7 ms); 2D n = 32 chunks cut the sweep's traced peak 48.6 -> 19.3 MB
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
        "ratio_plain": rep.plain.ratio,
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


def _cho_factor(gram: np.ndarray) -> np.ndarray:
    """Upper Cholesky factor of an SPD matrix, the other triangle left
    as it was: the LAPACK call scipy.linalg.cho_factor makes, and its
    error on a matrix that is not positive definite."""
    chol, info = _flapack.dpotrf(gram, lower=0, clean=0)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the array is not positive definite")
    return chol


def _cho_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with a _cho_factor factor: scipy.linalg.cho_solve's LAPACK
    call, and its error on a non-finite right-hand side."""
    if not np.all(np.isfinite(rhs)):
        raise ValueError("array must not contain infs or NaNs")
    return _flapack.dpotrs(chol, rhs, lower=0)[0]


def relative_h1_error(estimate: np.ndarray, truth: np.ndarray,
                      prior: np.ndarray, grid: Grid,
                      gap: float | None = None) -> float:
    """H1 norm of estimate - truth relative to that of truth - prior, the
    error reconstruct logs; the absolute norm when truth is the prior.
    A caller may pass gap = h1_norm_sq(truth - prior, grid), formed once."""
    truth = np.asarray(truth, dtype=float)
    if gap is None:
        gap = h1_norm_sq(truth - prior, grid)
    err = h1_norm_sq(estimate - truth, grid)
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


def _coefficient_accumulate(lmb: np.ndarray, s: np.ndarray, grid: Grid,
                            terms: np.ndarray | None = None) -> np.ndarray:
    """Sum over the rows of (T, n_nodes) stacks and over the lattice
    faces at m of (lmb_p - lmb_q)(s_q - s_p) / (2 h^2); the transpose of
    the face-mean flux assembly with respect to the coefficient.  The
    terms are added one after another, last row first and within a row
    axis by axis, lower node before upper node, so the sum is bitwise
    that of the adjoint sweep accumulating row by row.  terms, when
    given, is a zeroed (T, dim, 2, *grid.shape) stack that a run reuses:
    every call writes the same slots, so its pad slots stay zero.  The
    terms are formed in time order and written at the reversed rows."""
    lg = grid.reshape(lmb)
    sg = grid.reshape(s)
    dim = grid.dimension
    # zero-padded terms: (row, axis, lower/upper node of the face, *shape)
    if terms is None:
        terms = np.zeros((lmb.shape[0], dim, 2) + grid.shape)
    backward = terms[::-1]
    inv = 1.0 / (2.0 * grid.h**2)
    for a in range(dim):
        lo = (slice(None),) * (a + 1) + (slice(None, -1),)
        hi = (slice(None),) * (a + 1) + (slice(1, None),)
        val = (lg[lo] - lg[hi]) * (sg[hi] - sg[lo]) * inv
        backward[:, a, 0][lo] = val
        backward[:, a, 1][hi] = val
    # add.reduce over the leading axis of a C-ordered stack adds its
    # rows in sequence (no pairwise regrouping)
    return np.add.reduce(terms.reshape(-1, grid.n_nodes), axis=0)


def _misfit(c_current: np.ndarray, data: ObservationSet,
            setup: ExperimentSetup, config: InverseConfig):
    """The first half of misfit_and_gradient, run at every trial point:
    every check on c_current, the forward solve and J.  Returns J and
    the state _gradient reads.  The caller has validated config."""
    grid, tg, window = setup.grid, setup.timegrid, setup.window
    c_current = np.asarray(c_current, dtype=float)
    if np.any(c_current < C_MIN):
        raise GridError("coefficient below the positivity floor")

    prob = replace(setup.base, c=c_current)
    # validated here, before the factor, which would fail less clearly;
    # solve_heat does not repeat it for a caller's stepper
    prob.validate(grid)
    # one factor of B = I - dt/2 A serves the forward solve and the adjoint
    stepper = CrankNicolsonStepper(c_current, grid, tg.dt)
    fieldvals = solve_heat(prob, grid, tg, stepper=stepper).values
    # the flux map that made the data, so J vanishes at the truth
    residual = {face: trace - data.flux[face] for face, trace
                in observed_flux(fieldvals, grid, tg, window).items()}
    j_mis = 0.5 * boundary_norm_plain(residual, grid, window)

    shift = c_current - config.prior
    j_total = j_mis + 0.5 * ALPHA * h1_norm_sq(shift, grid)
    return j_total, (stepper, fieldvals, residual, shift)


def _gradient(state, setup: ExperimentSetup, config: InverseConfig,
              terms: np.ndarray | None = None) -> np.ndarray:
    """The second half of misfit_and_gradient: the exact discrete
    gradient of J at the point _misfit evaluated into state, by the
    adjoint sweep on that point's stepper."""
    grid, tg = setup.grid, setup.timegrid
    stepper, fieldvals, residual, shift = state
    # row i of lam_rows pairs with the step from time i to i + 1; the
    # adjoint's source, the gradient of j_mis in the field, drives it
    # through the interior columns (boundary values carry data, not c)
    source = observed_flux_transpose(residual, grid, tg, setup.window)[
        :, stepper.interior]
    lam_rows = np.zeros((tg.steps, grid.n_nodes))
    lam_rows[:, stepper.interior] = stepper.adjoint_sweep(source)
    grad_c = _coefficient_accumulate(lam_rows, fieldvals[:-1] + fieldvals[1:],
                                     grid, terms)
    grad_c *= -0.5 * tg.dt
    grad_c += ALPHA * _h1_apply(shift, grid)
    return admissible_projection(grad_c, grid)


def misfit_and_gradient(c_current: np.ndarray, data: ObservationSet,
                        setup: ExperimentSetup, config: InverseConfig):
    """J and its exact discrete gradient: _misfit, then _gradient."""
    config.validate(setup.grid)
    j_total, state = _misfit(c_current, data, setup, config)
    return j_total, _gradient(state, setup, config)


@dataclass
class ReconstructionResult:
    c_hat: np.ndarray
    log: list = field(default_factory=list)   # (iter, J, grad_norm, h1_err)
    converged: bool = False
    iterations: int = 0
    message: str = ""

    def log_to_csv(self, path):
        write_csv(path, ["iter", "J", "grad_norm", "h1_error"], self.log)


def _project(c: np.ndarray, config: InverseConfig, grid: Grid) -> np.ndarray:
    prior = np.asarray(config.prior, dtype=float)
    shifted = prior + admissible_projection(c - prior, grid)
    return np.maximum(shifted, C_MIN)


def reconstruct(data: ObservationSet, setup: ExperimentSetup,
                config: InverseConfig,
                truth: np.ndarray | None = None) -> ReconstructionResult:
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
    _misfit built, and the config check, the accumulation stack and the
    error's denominator are made once per run.  The logged error is that
    of the recovered perturbation c_hat - prior, relative to truth - prior."""
    grid = setup.grid
    config.validate(grid)
    prior = np.asarray(config.prior, dtype=float)
    terms = np.zeros((setup.timegrid.steps, grid.dimension, 2) + grid.shape)
    c = _project(prior.copy(), config, grid)
    j_val, state = _misfit(c, data, setup, config)
    grad = _gradient(state, setup, config, terms)
    step = STEP0
    result = ReconstructionResult(c_hat=c)
    flat_run = 0

    idx = np.flatnonzero(admissible_mask(grid))
    gram = _h1_gram(grid, idx)
    chol = _cho_factor(gram)

    def direction(g):
        d = np.zeros_like(g)
        d[idx] = _cho_solve(chol, g[idx])
        return d

    gap = None if truth is None else h1_norm_sq(truth - prior, grid)

    def h1_err(current):
        if truth is None:
            return math.nan
        return relative_h1_error(current, truth, prior, grid, gap)

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
            j_trial, state = _misfit(trial, data, setup, config)
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
        grad = _gradient(state, setup, config, terms)
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
