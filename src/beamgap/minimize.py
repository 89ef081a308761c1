"""Penalized-energy minimization over obstacle-constrained beam profiles.

The descent iterates on the nodal values: at each step the potential is
solved at the current profile, the force density g is extracted, and the
residual

    r = beta D4 u - (tau + alpha ||u'||^2) D2 u + A (u - k)_+ + g(u)

is turned into a step direction by L-BFGS (Nocedal, Math. Comp. 35, 1980;
Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16(5), 1995): the two-loop
recursion over at most _PAIRS = 8 secant pairs s = du, y = dr of consecutive
accepted iterates, taken on the interior nodes off the obstacle and kept only
if s.y > 0, with the SPD matrix M = beta D4 - coef D2 + A diag(u > k) (the
exact Hessian of the force-frozen part) as its initial Hessian. M leaves out
the softening electrostatic Hessian, which the pairs supply at no extra
solve, so the descent takes about half the iterations of the
M-preconditioned step alone (V = 3 at 128x64: 5 against 10). The memory is
cleared when the active set changes, and when its direction is not a descent
direction for r (then -M^-1 r is taken); with no pairs the direction is
-M^-1 r exactly, so every run's first iteration is the plain preconditioned
step. D4 and D2 are differences of ``DeflectionProfile.padded``, so the
boundary rule is the profile's; M folds the same ghost rule into its edge
rows. Trial points are clamped to the obstacle and accepted by backtracking on
the penalized energy that ``total_energy`` reports. Its mechanical and
penalty parts have nodal gradient exactly h (r - g) at interior nodes, so the
residual is the gradient of the energy the descent decreases, up to the
force g standing in for the gradient of the discrete electrostatic energy.
The report of the accepted profile is the result's energy. Convergence is
declared on the variational inequality: |r| small on nodes off the obstacle,
r bounded below by -tol on nodes at the obstacle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import solveh_banded

from .energy import EnergyReport, grad_sq_norm, second_differences, total_energy
from .force import compute_force
from .geometry import DeflectionProfile
from .model import DielectricModel, ModelConstants
from .solver import PotentialField, solve_potential

__all__ = [
    "MinimizeOptions",
    "VIResidual",
    "HistoryRow",
    "MinimizeResult",
    "minimize",
    "vi_residual",
    "sup_bound_check",
]

# backtracking line search: first trial step, step factor per rejected
# trial, and rejections allowed before the search fails
_STEP0 = 1.0
_SHRINK = 0.5
_MAX_BACKTRACKS = 40
# secant pairs the quasi-Newton direction keeps
_PAIRS = 8


@dataclass(frozen=True)
class MinimizeOptions:
    """Descent configuration; k = None selects the computed penalty level kappa0."""

    k: float | None = None
    max_iters: int = 100
    tol_stationarity: float = 1e-8
    tol_active: float = 1e-8
    n_eta: int = 128
    gap_threshold: float | None = None


@dataclass(frozen=True)
class VIResidual:
    """Nodal residual of the discrete variational inequality.

    ``r`` is full-length with zeros at the fixed endpoints; ``active_mask``
    marks nodes at the obstacle. Stationarity is max |r| over inactive
    interior nodes; complementarity is min r over active nodes (+inf when no
    node is active) and must be bounded below by -tol for a VI solution.
    """

    r: np.ndarray
    active_mask: np.ndarray
    stationarity: float
    complementarity: float

    def satisfied(self, tol_stationarity: float = 1e-8, tol_active: float = 1e-8) -> bool:
        return self.stationarity <= tol_stationarity and self.complementarity >= -tol_active


@dataclass(frozen=True)
class HistoryRow:
    """One accepted step: the new profile's energies, the stationarity and
    active count of the profile it left, the step and its rejected trials,
    the potential solves made so far and max |du| of the step."""

    iteration: int
    e_mechanical: float
    e_electrostatic: float
    e_penalized: float
    stationarity: float
    active_count: int
    step_size: float
    backtracks: int
    solves: int
    max_du: float


@dataclass
class SolveCounts:
    """Work of a descent: potential solves (every trial point, accepted or
    not), SuperLU factorizations, conjugate-gradient iterations of the
    lagged-factor solves, the largest relative residual of any component
    solve, rejected trial points (a failed line search's included), and
    clearings of a non-empty secant-pair memory."""

    solves: int = 0
    factorizations: int = 0
    linear_iterations: int = 0
    linear_residual_max: float = 0.0
    backtracks: int = 0
    qn_resets: int = 0

    def add(self, field: PotentialField) -> None:
        self.solves += 1
        for comp in field.components:
            self.factorizations += comp.factored
            self.linear_iterations += comp.iterations
            self.linear_residual_max = max(self.linear_residual_max, comp.residual)


@dataclass(frozen=True)
class MinimizeResult:
    """Final state of a descent; ``field`` is the potential solved at ``profile``."""

    profile: DeflectionProfile
    energy: EnergyReport
    residual: VIResidual
    history: list[HistoryRow] = dc_field(repr=False)
    field: PotentialField = dc_field(repr=False)
    converged: bool = False
    iterations: int = 0
    status: str = ""
    counts: SolveCounts = dc_field(default_factory=SolveCounts)


# ------------------------------------------------------- discrete operators


def _apply_d4(profile: DeflectionProfile) -> np.ndarray:
    """Fourth difference at the interior nodes, on ``profile.padded()``."""
    up, h = profile.padded(), profile.spacing
    return (up[:-4] - 4.0 * up[1:-3] + 6.0 * up[2:-2] - 4.0 * up[3:-1] + up[4:]) / h**4


def _banded_hessian(
    n_free: int, h: float, ghost_sign: float, beta: float, coef: float, pen_diag: np.ndarray
) -> np.ndarray:
    """Upper-banded form of M = beta D4 - coef D2 + diag(pen_diag).

    The ghost rule folds ghost_sign * beta / h^4 into the two edge rows.
    Returns the (3, n_free) array consumed by scipy.linalg.solveh_banded;
    SPD for beta > 0, coef >= 0, pen_diag >= 0.
    """
    ab = np.zeros((3, n_free))
    ab[2, :] = 6.0 * beta / h**4 + 2.0 * coef / h**2 + pen_diag
    ab[2, 0] += ghost_sign * beta / h**4
    ab[2, -1] += ghost_sign * beta / h**4
    ab[1, 1:] = -4.0 * beta / h**4 - coef / h**2
    ab[0, 2:] = beta / h**4
    return ab


def _residual_vector(
    profile: DeflectionProfile, constants: ModelConstants, k: float, g: np.ndarray
) -> np.ndarray:
    """Interior-node residual r of the discrete variational inequality."""
    u = profile.u
    coef = constants.tau + constants.alpha * grad_sq_norm(profile)
    r = constants.beta * _apply_d4(profile)
    r -= coef * second_differences(profile)[1:-1]
    r += constants.A * np.maximum(u[1:-1] - k, 0.0)
    r += g[1:-1]
    return r


class _SecantPairs:
    """L-BFGS memory of the descent (Nocedal, Math. Comp. 35, 1980).

    Pairs s = du, y = dr join consecutive accepted iterates on the interior
    nodes off the obstacle (zero at active nodes); at most _PAIRS are kept,
    and only those with s.y > 0. A change of the active set clears the
    memory, and so does a direction that is not a descent direction.
    ``resets`` counts the clearings of a non-empty memory.
    """

    def __init__(self):
        self.pairs: deque = deque(maxlen=_PAIRS)
        self.resets = 0
        self._last: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def clear(self) -> None:
        self.resets += bool(self.pairs)
        self.pairs.clear()

    def observe(self, u_int: np.ndarray, r_int: np.ndarray, free: np.ndarray) -> None:
        """Take the pair from the previous accepted iterate to this one."""
        if self._last is not None:
            u_prev, r_prev, free_prev = self._last
            if not np.array_equal(free, free_prev):
                self.clear()
            else:
                s = np.where(free, u_int - u_prev, 0.0)
                y = np.where(free, r_int - r_prev, 0.0)
                sy = float(s @ y)
                if sy > 0.0:
                    self.pairs.append((s, y, 1.0 / sy))
        self._last = (u_int, r_int, free)

    def apply(self, ab: np.ndarray, q: np.ndarray) -> np.ndarray:
        """H q by the two-loop recursion, with M^-1 (``ab`` banded) as H0.

        With no pairs this is exactly ``solveh_banded(ab, q)``.
        """
        q = q.copy()
        alphas = []
        for s, y, rho in reversed(self.pairs):
            alphas.append(rho * float(s @ q))
            q -= alphas[-1] * y
        z = solveh_banded(ab, q)
        for (s, y, rho), alpha in zip(self.pairs, reversed(alphas)):
            z += (alpha - rho * float(y @ z)) * s
        return z


def _classify(profile: DeflectionProfile, r_int: np.ndarray, tol_active: float) -> VIResidual:
    u = profile.u
    active = np.zeros(u.size, dtype=bool)
    active[1:-1] = u[1:-1] <= -profile.H + tol_active
    r = np.zeros(u.size)
    r[1:-1] = r_int
    inactive_int = ~active[1:-1]
    stationarity = float(np.max(np.abs(r_int[inactive_int]))) if np.any(inactive_int) else 0.0
    complementarity = float(np.min(r_int[active[1:-1]])) if np.any(active) else float("inf")
    return VIResidual(r=r, active_mask=active, stationarity=stationarity, complementarity=complementarity)


# ------------------------------------------------------------- entry points


def vi_residual(
    profile: DeflectionProfile,
    model: DielectricModel,
    constants: ModelConstants,
    k: float | None = None,
    n_eta: int = 128,
    gap_threshold: float | None = None,
    tol_active: float = 1e-8,
) -> VIResidual:
    """Variational-inequality residual at a profile, with a fresh field solve."""
    if k is None:
        k = constants.kappa0
    if k < constants.H:
        raise ValueError(f"penalty level k = {k} is below H = {constants.H}")
    fld = solve_potential(profile, model, n_eta=n_eta, gap_threshold=gap_threshold)
    g = compute_force(profile, model, fld).g
    r_int = _residual_vector(profile, constants, k, g)
    return _classify(profile, r_int, tol_active)


def sup_bound_check(profile: DeflectionProfile, constants: ModelConstants) -> tuple[bool, float]:
    """Check max u <= kappa0; returns (ok, margin kappa0 - max u)."""
    margin = constants.kappa0 - float(np.max(profile.u))
    return margin >= 0.0, margin


def minimize(
    initial: DeflectionProfile,
    model: DielectricModel,
    constants: ModelConstants,
    options: MinimizeOptions | None = None,
) -> MinimizeResult:
    """Minimize the penalized energy over admissible profiles.

    Projected descent with backtracking: directions are L-BFGS steps with M
    as the initial Hessian (see the module docstring), trial points are
    clamped to the obstacle with the endpoint
    rows pinned, and a step is accepted only if the discrete penalized energy
    does not increase (up to round-off slack). The potential is solved and
    the energy reported once per trial point, so accepted iterates have
    non-increasing discrete energy. The field and report of an accepted point
    serve its force, its history row and, at the end, ``MinimizeResult``:
    no profile is solved twice. Every solve takes the one path of
    ``solve_potential``, and the descent owns one cache of SuperLU factors
    for all of them, where a plain call makes one per call: so most profiles
    are solved by a few conjugate-gradient iterations preconditioned with
    the factor of an earlier one, each stopping at its best iterate;
    ``MinimizeResult.counts`` records that work, the rejected
    trial points and the clearings of the pair memory. The line
    search has one failure exit: when all _MAX_BACKTRACKS + 1 trial steps
    of an iteration are rejected, the descent stops and returns the last
    accepted state with status 'line_search_failure'. Raises ValueError for
    max_iters < 0 or k < H, before any solve.
    """
    opts = options or MinimizeOptions()
    if opts.max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {opts.max_iters}")
    k = constants.kappa0 if opts.k is None else float(opts.k)
    if k < constants.H:
        raise ValueError(f"penalty level k = {k} is below H = {constants.H}")

    profile = initial
    h = profile.spacing
    history: list[HistoryRow] = []
    counts = SolveCounts()
    factors: dict = {}
    memory = _SecantPairs()

    def evaluate(p: DeflectionProfile) -> tuple[EnergyReport, PotentialField]:
        fld = solve_potential(p, model, n_eta=opts.n_eta, gap_threshold=opts.gap_threshold, factors=factors)
        counts.add(fld)
        return total_energy(p, model, constants, k=k, field=fld), fld

    report, field = evaluate(profile)
    g = compute_force(profile, model, field).g

    status = "max_iters"
    converged = False
    for iteration in range(opts.max_iters + 1):
        r_int = _residual_vector(profile, constants, k, g)
        residual = _classify(profile, r_int, opts.tol_active)
        if residual.satisfied(opts.tol_stationarity, opts.tol_active):
            status = "converged"
            converged = True
            break
        if iteration == opts.max_iters:
            break

        u = profile.u
        memory.observe(u[1:-1], r_int, ~residual.active_mask[1:-1])
        coef = constants.tau + constants.alpha * grad_sq_norm(profile)
        pen_diag = constants.A * (u[1:-1] > k).astype(float)
        ab = _banded_hessian(u.size - 2, h, profile.ghost_sign, constants.beta, coef, pen_diag)
        direction = -memory.apply(ab, r_int)
        if memory.pairs and float(direction @ r_int) >= 0.0:
            memory.clear()
            direction = -memory.apply(ab, r_int)

        step = _STEP0
        slack = 1e-12 * (1.0 + abs(report.e_penalized))
        for backtracks in range(_MAX_BACKTRACKS + 1):
            trial_u = u.copy()
            trial_u[1:-1] = np.maximum(u[1:-1] + step * direction, -profile.H)
            trial = profile.with_values(trial_u)
            trial_report, trial_field = evaluate(trial)
            if trial_report.e_penalized <= report.e_penalized + slack:
                break
            step *= _SHRINK
        else:
            counts.backtracks += _MAX_BACKTRACKS + 1
            status = "line_search_failure"
            break

        counts.backtracks += backtracks
        max_du = float(np.max(np.abs(trial_u - u)))
        profile = trial
        report = trial_report
        field = trial_field
        g = compute_force(profile, model, field).g

        history.append(
            HistoryRow(
                iteration=iteration + 1,
                e_mechanical=report.e_mechanical,
                e_electrostatic=report.e_electrostatic,
                e_penalized=report.e_penalized,
                stationarity=residual.stationarity,
                active_count=int(np.count_nonzero(residual.active_mask)),
                step_size=step,
                backtracks=backtracks,
                solves=counts.solves,
                max_du=max_du,
            )
        )

    counts.qn_resets = memory.resets
    return MinimizeResult(
        profile=profile,
        energy=report,
        residual=residual,
        history=history,
        field=field,
        converged=converged,
        iterations=iteration,
        status=status,
        counts=counts,
    )

