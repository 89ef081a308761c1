"""Correctness checks on the program's outputs.

Each check compares an output with a computation made here, apart from the
program, or with a property the method must have. None compares with a
stored copy of an earlier output. A failed check raises CheckError naming
what was wrong; the tolerances are stated next to each check with the
figure measured on the seed code in README.md.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from beamgap import electrostatic_energy, vi_residual
from beamgap.cli import build_model
from beamgap.geometry import DeflectionProfile


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _fail(msg: str) -> None:
    raise CheckError(msg)


# ------------------------------------------------------------ run artifacts


def read_profile_csv(path) -> dict[str, np.ndarray]:
    """Columns of a ``profile.csv`` (x, u, g, contact) as float arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 4:
        _fail(f"{path}: expected 4 columns x,u,g,contact, got {data.shape[1]}")
    return {"x": data[:, 0], "u": data[:, 1], "g": data[:, 2], "contact": data[:, 3]}


def read_history_energies(path) -> np.ndarray:
    """The ``e_penalized`` column of a ``history.csv``."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, header.index("e_penalized")] if data.size else np.zeros(0)


def check_status(code: int, summary: dict) -> None:
    """The run verb reports a converged equilibrium and exit code 0."""
    if code != 0 or not summary.get("converged") or summary.get("status") != "converged":
        _fail(f"run not converged: exit {code}, status {summary.get('status')!r}")


def check_profile_bounds(x: np.ndarray, u: np.ndarray, L: float, H: float, kappa0: float) -> None:
    """u >= -H, u(+-L) = 0 on the grid over [-L, L], and max u <= kappa0."""
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(x))):
        _fail("profile has non-finite values")
    if x[0] != -L or x[-1] != L:
        _fail(f"profile grid spans [{x[0]}, {x[-1]}], expected [{-L}, {L}]")
    if u[0] != 0.0 or u[-1] != 0.0:
        _fail(f"u(+-L) = ({u[0]}, {u[-1]}), expected 0")
    if np.min(u) < -H:
        _fail(f"obstacle violated: min u = {np.min(u)} < -H = {-H}")
    if np.max(u) > kappa0:
        _fail(f"a-priori bound violated: max u = {np.max(u)} > kappa0 = {kappa0}")


def check_force_sign(g: np.ndarray) -> None:
    """g >= 0 at every node.

    For the example family frak_h = 0 and h_x = h_z + h_w = 0 on the graph
    and at z = w = -H, so the force density reduces to its squared-jump term
    1/2 (1 + u'^2)(d_z psi - h_z - h_w)^2 (or 1/2 h_w^2 on contact): the field
    only pulls the plate towards the ground plate.
    """
    if not np.all(np.isfinite(g)):
        _fail("force density has non-finite values")
    if np.min(g) < 0.0:
        j = int(np.argmin(g))
        _fail(f"force density negative: g[{j}] = {g[j]}")


#: the descent accepts a trial point when its energy is at most the current
#: one plus this round-off allowance times (1 + |E|)
HISTORY_SLACK = 1e-12


def check_history(e_penalized: np.ndarray) -> None:
    """Accepted iterates have non-increasing penalized energy (up to round-off)."""
    e = np.asarray(e_penalized, dtype=float)
    if e.size == 0:
        return
    if not np.all(np.isfinite(e)):
        _fail("history has non-finite energies")
    rise = np.diff(e) - HISTORY_SLACK * (1.0 + np.abs(e[:-1]))
    if np.any(rise > 0.0):
        i = int(np.argmax(rise))
        _fail(f"energy increased from iteration {i + 1} to {i + 2}: {e[i]!r} -> {e[i + 1]!r}")


SYMMETRY_TOL = 1e-9  # relative to max |u|; the seed code sits near 1e-11


def check_symmetry(u: np.ndarray) -> None:
    """For an even sigma the equilibrium is mirror-symmetric: u(-x) = u(x)."""
    scale = float(np.max(np.abs(u)))
    if scale == 0.0:
        return
    err = float(np.max(np.abs(u - u[::-1]))) / scale
    if err > SYMMETRY_TOL:
        _fail(f"profile not mirror-symmetric under even sigma: relative gap {err:.3e}")


def flat_gap_load(V: float, sigma: float, H: float) -> float:
    """Force density of the flat plate, V^2 sigma^2 / (2 (1 + sigma H)^2).

    At u = 0 the potential is the 1-D profile V (1 + sigma (H + z)) / (1 + sigma H),
    whose field jump at the plate gives this load.
    """
    return V**2 * sigma**2 / (2.0 * (1.0 + sigma * H) ** 2)


def beam_deflection(x: np.ndarray, load: float, beta: float, L: float, bc_mode: str) -> np.ndarray:
    """Closed-form beam under the uniform load beta u'''' = -load on (-L, L)."""
    r = L**2 - x**2
    if bc_mode == "clamped":
        return -load * r**2 / (24.0 * beta)
    return -load * r * (5.0 * L**2 - x**2) / (24.0 * beta)


BEAM_TOL = 5e-4  # relative sup-norm gap; O(h^2) plus the O(u/H) change of the load


def check_beam_oracle(x, u, V, sigma, H, beta, L, bc_mode) -> float:
    """Small-V equilibrium against the clamped or pinned beam under the flat-gap load."""
    ref = beam_deflection(np.asarray(x, dtype=float), flat_gap_load(V, sigma, H), beta, L, bc_mode)
    err = float(np.max(np.abs(u - ref))) / float(np.max(np.abs(ref)))
    if not err <= BEAM_TOL:
        _fail(f"small-V profile differs from the closed-form {bc_mode} beam by {err:.3e} relative")
    return err


# ------------------------------------------------------------ field evaluation

PSI_TOL = 1e-6  # times V, as in the discrete maximum principle of the solver tests


def check_max_principle(psi_by_component, V: float) -> None:
    """0 <= psi <= V on every component (boundary data lie in [0, V])."""
    tol = PSI_TOL * V
    for k, psi in enumerate(psi_by_component):
        lo, hi = float(np.min(psi)), float(np.max(psi))
        if not (np.all(np.isfinite(psi)) and lo >= -tol and hi <= V + tol):
            _fail(f"maximum principle violated on component {k}: psi in [{lo}, {hi}], V = {V}")


def check_components(n_found: int, n_expected: int) -> None:
    if n_found != n_expected:
        _fail(f"{n_found} non-contact components, expected {n_expected}")


FLAT_TOL = 1e-10


def check_flat_closed_forms(chi_by_component, e_e: float, g: np.ndarray, V, sigma, H, L) -> None:
    """At u = 0 with constant sigma: chi = 0, E_e = -L V^2 sigma / (1 + sigma H), g = flat load.

    h itself solves the problem there, so chi vanishes, and the energy is
    minus half the Dirichlet integral of the 1-D profile plus its Robin term.
    """
    chi_max = max(float(np.max(np.abs(c))) for c in chi_by_component)
    if not chi_max <= FLAT_TOL * V:
        _fail(f"chi does not vanish at u = 0: sup |chi| = {chi_max:.3e}")
    e_ref = -L * V**2 * sigma / (1.0 + sigma * H)
    if not abs(e_e - e_ref) <= FLAT_TOL * abs(e_ref):
        _fail(f"E_e at u = 0 is {e_e!r}, closed form {e_ref!r}")
    g_ref = flat_gap_load(V, sigma, H)
    g_err = float(np.max(np.abs(np.asarray(g) - g_ref)))
    if not g_err <= FLAT_TOL * g_ref:
        _fail(f"force at u = 0 differs from the flat-gap load {g_ref!r} by {g_err:.3e}")


def simpson(values: np.ndarray, h: float) -> float:
    n = values.size
    if n < 3 or (n - 1) % 2:
        raise ValueError("Simpson's rule needs an even number of cells")
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(np.sum(w * values) * h / 3.0)


def interior_bump(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """C^1 bump (1 - t^2)^2 on the middle half of [lo, hi], zero elsewhere."""
    c, w = 0.5 * (lo + hi), 0.25 * (hi - lo)
    t = (x - c) / w
    return np.where(np.abs(t) < 1.0, (1.0 - t**2) ** 2, 0.0)


FD_TOL = 2e-5  # relative; the seed code gives at most 5e-6 at 512x256 without contact


def check_fd_pairing(e_plus: float, e_minus: float, s: float, g: np.ndarray, theta: np.ndarray, h: float) -> float:
    """Central difference of E_e along theta against the force pairing int g theta."""
    fd = (e_plus - e_minus) / (2.0 * s)
    pairing = simpson(np.asarray(g) * theta, h)
    gap = abs(fd - pairing) / max(abs(pairing), 1e-300)
    if not (math.isfinite(gap) and gap <= FD_TOL):
        _fail(f"dE_e/ds = {fd!r} but int g theta = {pairing!r} (relative gap {gap:.3e})")
    return gap


FD_STEP = 1e-3  # times H


def check_fd_along_bump(profile: DeflectionProfile, model, g: np.ndarray, n_eta: int) -> float:
    """Central difference of E_e along an interior bump on a profile without contact."""
    theta = interior_bump(profile.x_nodes, -profile.L, profile.L)
    s = FD_STEP * profile.H
    e_plus = electrostatic_energy(profile.with_values(profile.u + s * theta), model, n_eta=n_eta).total
    e_minus = electrostatic_energy(profile.with_values(profile.u - s * theta), model, n_eta=n_eta).total
    return check_fd_pairing(e_plus, e_minus, s, g, theta, profile.spacing)


# ------------------------------------------------------------ entry points


def check_run(out_dir: Path, cfg: dict, code: int, summary: dict, even_sigma: bool, beam_oracle: bool) -> None:
    """Every check on one ``run``: status, written profile and history, VI residual."""
    check_status(code, summary)
    model, constants = build_model(cfg)
    prof = read_profile_csv(Path(out_dir) / cfg["outputs"]["csv"])
    x, u = prof["x"], prof["u"]
    check_profile_bounds(x, u, constants.L, constants.H, constants.kappa0)
    check_force_sign(prof["g"])
    check_history(read_history_energies(Path(out_dir) / cfg["outputs"]["history"]))

    mo, grid = cfg["minimize"], cfg["grid"]
    k = constants.kappa0 if mo["k"] == "auto" else float(mo["k"])
    profile = DeflectionProfile(x_nodes=x, u=u, bc_mode=cfg["bc_mode"], H=constants.H)
    vi = vi_residual(
        profile, model, constants, k=k, n_eta=grid["neta"], gap_threshold=grid["gap_threshold"], tol_active=mo["tol_active"]
    )
    if not (vi.stationarity <= mo["tol_stationarity"] and vi.complementarity >= -mo["tol_active"]):
        _fail(f"VI residual of profile.csv: stationarity {vi.stationarity:.3e}, complementarity {vi.complementarity:.3e}")

    if even_sigma:
        check_symmetry(u)
    if beam_oracle:
        die, mat = cfg["dielectric"], cfg["material"]
        check_beam_oracle(x, u, die["V"], die["sigma"]["value"], constants.H, mat["beta"], constants.L, cfg["bc_mode"])


def check_field(field, e_e: float, g: np.ndarray, V: float, n_components: int, zero_sigma: float | None) -> None:
    """Every per-profile check on one field evaluation.

    ``zero_sigma`` is the constant sigma of a u = 0 profile, whose closed
    forms then apply, and None otherwise.
    """
    check_components(len(field.components), n_components)
    check_max_principle([field.psi_on(k) for k in range(len(field.components))], V)
    check_force_sign(g)
    if zero_sigma is not None:
        p = field.profile
        check_flat_closed_forms([c.chi for c in field.components], e_e, g, V, zero_sigma, p.H, p.L)
