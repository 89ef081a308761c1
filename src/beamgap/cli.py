"""Command-line front end: configuration, orchestration, sweeps, artifacts.

Verbs:

* ``run``    -- solve, minimize, and verify one configuration; writes the
  profile CSV, the run JSON, and the iteration-history CSV.
* ``sweep``  -- repeat ``run`` over a list of values for one dotted config
  path, in a process pool, with per-value isolation.
* ``verify`` -- run the oracle suite and write a verification JSON.
* ``kappa0`` -- print the derived model constants as JSON.

Configs are JSON files; unknown keys anywhere are rejected so typos cannot
silently fall back to defaults. All artifacts are written atomically and are
byte-identical across reruns except for the ``metadata`` block of the JSONs.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from .force import compute_force
from .geometry import DeflectionProfile
from .minimize import MinimizeOptions, minimize, sup_bound_check
from .model import (
    DielectricModel,
    ModelConstants,
    compute_constants,
    make_example_model,
    sigma_polynomial,
    sigma_tabulated,
)
from .oracles import (
    AnalyticDeflection,
    identity_check_mapped,
    identity_check_rect,
    inequality_battery,
    solve_beam_oracle,
)
from .solver import solve_potential  # noqa: F401  # bound here for benchmark/tracing.py

__all__ = ["DEFAULT_CONFIG", "load_config", "build_model", "main"]


DEFAULT_CONFIG: dict = {
    "geometry": {"L": 1.0, "H": 1.0},
    "material": {"beta": 1.0, "tau": 0.0, "alpha": 0.0},
    "dielectric": {
        "family": "example",
        "V": 0.1,
        "sigma": {"kind": "constant", "value": 1.0},
        "K": None,
    },
    "grid": {"nx": 256, "neta": 128, "gap_threshold": None},
    "minimize": {
        "k": "auto",
        "max_iters": 100,
        "tol_stationarity": 1e-8,
        "tol_active": 1e-8,
    },
    "bc_mode": "clamped",
    "outputs": {"csv": "profile.csv", "json": "run.json", "history": "history.csv"},
    "sweep": None,
}

# the keys besides "kind" that each sigma kind takes, as its alternative forms
_SIGMA_FORMS = {
    "constant": [{"value"}],
    "polynomial": [{"coeffs"}],
    "tabulated": [{"path"}, {"x", "values"}],
}

# the keys of each config section are those of its default; the sweep's default is null
_SECTION_KEYS = {name: set(block) for name, block in DEFAULT_CONFIG.items() if isinstance(block, dict)}
_SECTION_KEYS["sweep"] = {"parameter", "values"}


class ConfigError(Exception):
    """Raised for malformed or physically invalid configurations."""


def _check_keys(section: str, block: dict, allowed: set[str]) -> None:
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{section}': {sorted(unknown)}")


def load_config(path: str | os.PathLike | None) -> dict:
    """Read and validate a config, merging it over the defaults.

    Unknown keys at any level raise ConfigError, as do grid and descent
    settings the discretization cannot use and physically invalid values
    (delegated to the module constructors via a dry model build).
    """
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                user = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys("config", user, set(DEFAULT_CONFIG))
        for section, value in user.items():
            if section == "bc_mode":
                cfg["bc_mode"] = value
                continue
            if section == "sweep":
                if value is not None:
                    if not isinstance(value, dict):
                        raise ConfigError("'sweep' must be an object or null")
                    _check_keys("sweep", value, _SECTION_KEYS["sweep"])
                cfg["sweep"] = value
                continue
            if not isinstance(value, dict):
                raise ConfigError(f"'{section}' must be an object")
            _check_keys(section, value, _SECTION_KEYS[section])
            cfg[section].update(value)
    _check_values(cfg)
    return cfg


def _check_values(cfg: dict) -> None:
    """Checks on a merged config: data family, numbers, sigma spec, grid, a dry model build, descent settings."""
    family = cfg["dielectric"]["family"]
    if family != "example":
        raise ConfigError(
            f"unknown dielectric family {family!r}: the only family is \"example\", and V = 0 gives the homogeneous data"
        )
    die = cfg["dielectric"]
    numbers = {f"{section}.{key}": value for section in ("geometry", "material") for key, value in cfg[section].items()}
    numbers["dielectric.V"] = die["V"]
    if die["K"] is not None:
        numbers["dielectric.K"] = die["K"]
    for name, value in numbers.items():
        if not _is_finite(value):
            raise ConfigError(f"'{name}' must be a finite number, got {value!r}")
    _check_sigma(die["sigma"])
    _check_grid(cfg["grid"])

    try:
        _, constants = build_model(cfg)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    _check_minimize(cfg["minimize"], constants.H)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_sigma(spec) -> None:
    """A known kind with exactly the keys of one of its forms, and finite numbers."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise ConfigError("'dielectric.sigma' must be an object with a 'kind'")
    kind = spec["kind"]
    if kind not in _SIGMA_FORMS:
        raise ConfigError(f"unknown sigma kind {kind!r}; expected one of {sorted(_SIGMA_FORMS)}")
    forms = _SIGMA_FORMS[kind]
    _check_keys("dielectric.sigma", spec, {"kind"}.union(*forms))
    given = set(spec) - {"kind"}
    if given not in forms:
        expected = " or ".join(str(sorted(form)) for form in forms)
        raise ConfigError(f"a {kind} sigma takes the keys {expected}, got {sorted(given)}")
    if "path" in given and not isinstance(spec["path"], str):
        raise ConfigError(f"'dielectric.sigma.path' must be a string, got {spec['path']!r}")
    if "value" in given and not _is_finite(spec["value"]):
        raise ConfigError(f"'dielectric.sigma.value' must be a finite number, got {spec['value']!r}")
    for key in sorted(given & {"coeffs", "x", "values"}):
        value = spec[key]
        if not (isinstance(value, list) and value and all(_is_finite(v) for v in value)):
            raise ConfigError(f"'dielectric.sigma.{key}' must be a non-empty list of finite numbers, got {value!r}")


def _check_grid(grid: dict) -> None:
    """nx: a cell count of at least 4 (5-node profile); neta >= 3; gap_threshold null or > 0."""
    nx, neta, gap = grid["nx"], grid["neta"], grid["gap_threshold"]
    if not _is_int(nx) or nx < 4:
        raise ConfigError(f"'grid.nx' must be an integer of at least 4, got {nx!r}")
    if not _is_int(neta) or neta < 3:
        raise ConfigError(f"'grid.neta' must be an integer of at least 3, got {neta!r}")
    if gap is not None and not (_is_finite(gap) and gap > 0.0):
        raise ConfigError(f"'grid.gap_threshold' must be null or a finite positive number, got {gap!r}")


def _check_minimize(block: dict, H: float) -> None:
    """k: "auto" or a number >= H; max_iters: an integer >= 0; tolerances finite and >= 0."""
    k = block["k"]
    if k != "auto" and not (_is_finite(k) and k >= H):
        raise ConfigError(f"'minimize.k' must be \"auto\" or a number of at least H = {H}, got {k!r}")
    if not _is_int(block["max_iters"]) or block["max_iters"] < 0:
        raise ConfigError(f"'minimize.max_iters' must be a nonnegative integer, got {block['max_iters']!r}")
    for name in ("tol_stationarity", "tol_active"):
        tol = block[name]
        if not (_is_finite(tol) and tol >= 0.0):
            raise ConfigError(f"'minimize.{name}' must be a finite nonnegative number, got {tol!r}")


def _build_sigma(spec: dict, L: float):
    kind = spec["kind"]
    if kind == "constant":
        return sigma_polynomial([float(spec["value"])], domain=(-L, L))
    if kind == "polynomial":
        return sigma_polynomial(spec["coeffs"], domain=(-L, L))
    if "path" in spec:
        try:
            data = np.loadtxt(spec["path"], delimiter=",", dtype=float, ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read the sigma table {spec['path']!r}: {exc}") from exc
        if data.shape[1] < 2:
            raise ConfigError(f"the sigma table {spec['path']!r} needs two columns, x and sigma")
        return sigma_tabulated(data[:, 0], data[:, 1], domain=(-L, L))
    return sigma_tabulated(spec["x"], spec["values"], domain=(-L, L))


def build_model(cfg: dict) -> tuple[DielectricModel, ModelConstants]:
    """Construct the dielectric model and derived constants from a config."""
    geo = cfg["geometry"]
    mat = cfg["material"]
    die = cfg["dielectric"]
    L, H = float(geo["L"]), float(geo["H"])
    model = make_example_model(V=float(die["V"]), sigma=_build_sigma(die["sigma"], L), H=H, K=die["K"])
    constants = compute_constants(
        model,
        beta=float(mat["beta"]),
        tau=float(mat["tau"]),
        alpha=float(mat["alpha"]),
        L=L,
        H=H,
        bc_mode=cfg["bc_mode"],
    )
    return model, constants


# ------------------------------------------------------------------ artifacts


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(value):
    """Strict-JSON copy: non-finite floats become None, numpy scalars floats."""
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.integer):
        return int(value)
    return value


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False) + "\n")


def _metadata() -> dict:
    """The run-dependent block; everything outside it is reproducible byte for byte."""
    return {"written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"), "tool": "beamgap"}


def _write_verification(out_dir: Path, verification: dict) -> Path:
    path = out_dir / "verification.json"
    _write_json(path, {**verification, "metadata": _metadata()})
    return path


def _write_profile_csv(path: Path, profile: DeflectionProfile, g: np.ndarray, contact: np.ndarray) -> None:
    lines = ["x,u,g,contact"]
    for xi, ui, gi, ci in zip(profile.x_nodes, profile.u, g, contact):
        lines.append(f"{float(xi)!r},{float(ui)!r},{float(gi)!r},{int(ci)}")
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_history_csv(path: Path, history) -> None:
    lines = [
        "iteration,e_mechanical,e_electrostatic,e_penalized,stationarity,active_count,step_size,solves,max_du,"
        "backtracks"
    ]
    for row in history:
        lines.append(
            f"{row.iteration},{float(row.e_mechanical)!r},{float(row.e_electrostatic)!r},"
            f"{float(row.e_penalized)!r},{float(row.stationarity)!r},{row.active_count},"
            f"{float(row.step_size)!r},{row.solves},{float(row.max_du)!r},{row.backtracks}"
        )
    _atomic_write(path, "\n".join(lines) + "\n")


# ------------------------------------------------------------------ pipeline


def run_single(cfg: dict, out_dir: Path, verify: bool = False) -> tuple[int, dict]:
    """One full pipeline run; returns (exit code, summary dict).

    If the descent or a solve raises, run.json is still written, flagged
    partial with status "error" and the exception, and the exception
    propagates.
    """
    model, constants = build_model(cfg)
    grid = cfg["grid"]
    mopts = cfg["minimize"]
    k = constants.kappa0 if mopts["k"] == "auto" else float(mopts["k"])
    options = MinimizeOptions(
        k=k,
        max_iters=int(mopts["max_iters"]),
        tol_stationarity=float(mopts["tol_stationarity"]),
        tol_active=float(mopts["tol_active"]),
        n_eta=int(grid["neta"]),
        gap_threshold=grid["gap_threshold"],
    )
    initial = DeflectionProfile.zero(
        L=constants.L, H=constants.H, n_cells=int(grid["nx"]), bc_mode=cfg["bc_mode"]
    )

    outputs = cfg["outputs"]
    try:
        result = minimize(initial, model, constants, options)
        profile = result.profile
        force = compute_force(profile, model, result.field)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        partial = {"k": k, "converged": False, "status": "error", "partial": True, "error": error}
        _write_json(out_dir / outputs["json"], {**partial, "metadata": _metadata()})
        raise
    coincidence = result.field.coincidence
    ok_sup, margin = sup_bound_check(profile, constants)

    _write_profile_csv(out_dir / outputs["csv"], profile, force.g, coincidence.contact_mask)
    _write_history_csv(out_dir / outputs["history"], result.history)

    rep = result.energy
    summary = {
        "k": k,
        "converged": result.converged,
        "status": result.status,
        "iterations": result.iterations,
        "partial": not result.converged,
        "energies": {
            "bending": rep.mechanical.bending,
            "stretching": rep.mechanical.stretching,
            "self_stretching": rep.mechanical.self_stretching,
            "field_term": rep.electrostatic.field_term,
            "boundary_term": rep.electrostatic.boundary_term,
            "mechanical": rep.e_mechanical,
            "electrostatic": rep.e_electrostatic,
            "total": rep.e_total,
            "penalty": rep.penalty,
            "penalized": rep.e_penalized,
        },
        "residual": {
            "stationarity": result.residual.stationarity,
            "complementarity": result.residual.complementarity,
            "active_count": int(np.count_nonzero(result.residual.active_mask)),
            "linear_max": max((c.residual for c in result.field.components), default=0.0),
        },
        "diagnostics": {**dataclasses.asdict(result.counts), "contact_components": coincidence.contact_components},
        "profile": {
            "min_u": float(np.min(profile.u)),
            "max_u": float(np.max(profile.u)),
            "min_gap": float(np.min(profile.gap())),
            "contact_fraction": coincidence.contact_fraction,
        },
        "kappa0_margin": margin,
        "sup_bound_ok": ok_sup,
        "force_min": force.min_value,
        "constants": {
            "A": constants.A,
            "G0": constants.G0,
            "kappa0": constants.kappa0,
            "K": model.K,
            "sigma_bar": model.sigma_bar,
        },
    }
    _write_json(out_dir / outputs["json"], {**summary, "metadata": _metadata()})

    if verify:
        verification = run_verification(cfg)
        _write_verification(out_dir, verification)
        if not verification["all_ok"]:
            return 1, summary

    return (0 if result.converged else 1), summary


def run_verification(cfg: dict) -> dict:
    """Oracle-suite sweep: identities, beam oracle, inequality battery."""
    geo = cfg["geometry"]
    L, H = float(geo["L"]), float(geo["H"])

    rect = {f"n{n}": identity_check_rect(1.0, n_cells=n) for n in (64, 128, 256)}
    rect_var = identity_check_rect(lambda xx: 1.5 + 0.4 * np.sin(xx), n_cells=256)
    rect_ratio = rect["n64"] / rect["n128"] if rect["n128"] > 0.0 else float("inf")

    # constant-mu mapped case (flat deflection) carries the absolute check;
    # the bump drives mu through the graph map and carries the order check
    flat = AnalyticDeflection.flat(L, H, 0.3 * H)
    bump = AnalyticDeflection.bump(L, H, 0.5 * H)
    mapped = {f"n{n}": identity_check_mapped(bump, sigma=1.0, n_cells=n) for n in (64, 128, 256)}
    mapped_flat = identity_check_mapped(flat, sigma=1.0, n_cells=256)
    mapped_ratio = mapped["n64"] / mapped["n128"] if mapped["n128"] > 0.0 else float("inf")

    canonical = solve_beam_oracle(4, -1.0, 1.0, G0=24.0, beta=1.0, tau=0.0, H=1.0)
    xs = np.linspace(-1.0, 1.0, 2001)
    s_vals = canonical.evaluate(xs)
    beam = {
        "max_value": float(np.max(s_vals)),
        "positivity": bool(np.all(s_vals[1:-1] > 0.0)),
        "sup_norm": canonical.sup_norm(),
        "bound": canonical.case_bound(1.0),
        "bc_residual_max": float(np.max(canonical.bc_residuals())),
        "ode_residual": canonical.ode_residual(),
    }
    rng = np.random.default_rng(2024)
    worst_bc = 0.0
    worst_ode = 0.0
    bound_ok = True
    for _ in range(100):
        case = int(rng.integers(1, 5))
        a = float(rng.uniform(-1.0, 0.5))
        b = float(rng.uniform(a + 0.3, 1.0))
        if case in (2, 4):
            a = -1.0
        if case in (3, 4):
            b = 1.0
        sol = solve_beam_oracle(
            case, a, b,
            G0=float(rng.uniform(0.5, 30.0)),
            beta=float(rng.uniform(0.5, 2.0)),
            tau=float(rng.uniform(0.0, 5.0)),
            H=float(rng.uniform(0.5, 2.0)),
        )
        worst_bc = max(worst_bc, float(np.max(sol.bc_residuals())))
        worst_ode = max(worst_ode, sol.ode_residual())
        bound_ok = bound_ok and sol.sup_norm() <= sol.case_bound(1.0)
    beam["random_bc_residual_max"] = worst_bc
    beam["random_ode_residual_max"] = worst_ode
    beam["random_bound_ok"] = bound_ok

    battery = inequality_battery(bump, n_samples=50, r_values=(2, 4, 8), n_cells=64, seed=7)

    checks = {
        "rect_identity_small": rect["n256"] <= 1e-8,
        # variable mu runs through finite differences of 1/mu, which caps
        # the attainable accuracy, hence the looser threshold
        "rect_identity_variable_mu": rect_var <= 1e-6,
        "rect_identity_order": 12.8 <= rect_ratio <= 19.2,
        "mapped_identity_small": mapped_flat <= 1e-8,
        "mapped_identity_order": 12.8 <= mapped_ratio <= 19.2,
        "beam_oracle_canonical": abs(beam["max_value"] - 1.0) <= 1e-10
        and beam["positivity"]
        and beam["sup_norm"] <= beam["bound"],
        "beam_oracle_random": worst_bc <= 1e-10 and worst_ode <= 1e-10 and bound_ok,
        "battery_zero_violations": len(battery.violations) == 0,
    }
    return {
        "rect_identity": {**rect, "variable_mu_n256": rect_var, "ratio_64_128": rect_ratio},
        "mapped_identity": {**mapped, "flat_n256": mapped_flat, "ratio_64_128": mapped_ratio},
        "beam_oracle": beam,
        "battery": {
            "worst_margins": battery.worst_margins,
            "violations": battery.violations,
            "n_samples": battery.n_samples,
        },
        "checks": checks,
        "all_ok": all(checks.values()),
    }


# --------------------------------------------------------------------- sweep


def _set_dotted(cfg: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"sweep parameter {dotted!r} does not exist in the config")
        node = node[p]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"sweep parameter {dotted!r} does not exist in the config")
    node[parts[-1]] = value


def _sweep_worker(packed: tuple[int, dict, str, str]) -> tuple[int, dict]:
    index, cfg, out_dir, parameter = packed
    try:
        code, summary = run_single(cfg, Path(out_dir))
        summary["sweep_index"] = index
        summary["sweep_value"] = _get_dotted(cfg, parameter)
        summary["error"] = ""
        return code, summary
    except Exception as exc:  # per-value isolation: a bad value must not kill the sweep
        return 1, {
            "sweep_index": index,
            "sweep_value": _get_dotted(cfg, parameter),
            "error": f"{type(exc).__name__}: {exc}",
        }


def _get_dotted(cfg: dict, dotted: str):
    node = cfg
    for p in dotted.split("."):
        node = node[p]
    return node


def run_sweep(cfg: dict, out_dir: Path, max_workers: int | None = None) -> tuple[int, list[dict]]:
    """Run the config once per sweep value; one artifact directory per value.

    Every swept config passes the checks of ``load_config`` before the pool
    starts, so an invalid value raises ConfigError before any solve.
    """
    sweep = cfg.get("sweep")
    if not sweep:
        raise ConfigError("config has no 'sweep' block")
    parameter = sweep["parameter"]
    values = sweep["values"]
    if not isinstance(values, list) or not values:
        raise ConfigError("'sweep.values' must be a non-empty list")

    jobs = []
    for i, value in enumerate(values):
        sub = copy.deepcopy(cfg)
        sub["sweep"] = None
        _set_dotted(sub, parameter, value)
        try:
            _check_values(sub)
        except ConfigError as exc:
            raise ConfigError(f"sweep value {value!r} of {parameter!r}: {exc}") from exc
        jobs.append((i, sub, str(out_dir / f"value_{i}"), parameter))

    rows: list[dict] = []
    worst = 0
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        for code, summary in pool.map(_sweep_worker, jobs):
            worst = max(worst, code)
            rows.append(summary)

    lines = ["index,value,converged,e_total,e_mechanical,e_electrostatic,penalty,min_gap,contact_fraction,stationarity,error"]
    for row in rows:
        if row["error"]:
            lines.append(f"{row['sweep_index']},{row['sweep_value']!r},,,,,,,,,{row['error']}")
        else:
            e = row["energies"]
            p = row["profile"]
            lines.append(
                f"{row['sweep_index']},{row['sweep_value']!r},{int(row['converged'])},"
                f"{e['total']!r},{e['mechanical']!r},{e['electrostatic']!r},{e['penalty']!r},"
                f"{p['min_gap']!r},{p['contact_fraction']!r},{row['residual']['stationarity']!r},"
            )
    _atomic_write(out_dir / "sweep_summary.csv", "\n".join(lines) + "\n")
    return worst, rows


# ----------------------------------------------------------------------- cli


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    code, summary = run_single(cfg, Path(args.out), verify=args.verify)
    print(json.dumps({k: summary[k] for k in ("converged", "status", "iterations")}, indent=2))
    return code


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    code, rows = run_sweep(cfg, Path(args.out), max_workers=args.workers)
    failures = [r for r in rows if r.get("error")]
    print(f"sweep finished: {len(rows) - len(failures)}/{len(rows)} values succeeded")
    return code


def _cmd_verify(args) -> int:
    cfg = load_config(args.config)
    verification = run_verification(cfg)
    out = _write_verification(Path(args.out), verification)
    print(f"verification {'passed' if verification['all_ok'] else 'FAILED'}: {out}")
    return 0 if verification["all_ok"] else 1


def _cmd_kappa0(args) -> int:
    cfg = load_config(args.config)
    _, constants = build_model(cfg)
    print(json.dumps(dataclasses.asdict(constants), indent=2))
    return 0


def main(argv: list[str] | None = None) -> int:
    # The shared flags are accepted before or after the verb. The per-verb
    # copies default to SUPPRESS so they never clobber a value the main
    # parser already read; the real defaults live on the main parser, whose
    # actions must stay distinct from the parent's (parents= shares action
    # objects, and mutating their defaults would leak into the subparsers).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS, help="JSON config path (defaults are built in)")
    common.add_argument("--out", default=argparse.SUPPRESS, help="output directory")

    parser = argparse.ArgumentParser(prog="beamgap", description=__doc__.splitlines()[0])
    parser.add_argument("--config", default=None, help="JSON config path (defaults are built in)")
    parser.add_argument("--out", default=".", help="output directory")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="solve and minimize one configuration", parents=[common])
    p_run.add_argument("--verify", action="store_true", help="also run the oracle suite")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run once per sweep value", parents=[common])
    p_sweep.add_argument("--workers", type=int, default=None, help="process pool size")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the oracle suite only", parents=[common])
    p_verify.set_defaults(fn=_cmd_verify)

    p_kappa = sub.add_parser("kappa0", help="print the derived constants", parents=[common])
    p_kappa.set_defaults(fn=_cmd_kappa0)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
