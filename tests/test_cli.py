from __future__ import annotations

import importlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import count_solves

from beamgap import cli

minimize_module = importlib.import_module("beamgap.minimize")  # the package re-exports the function


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


SMALL = {
    "dielectric": {"V": 0.1, "K": 1.0},
    "grid": {"nx": 32, "neta": 16},
}


# ---------------------------------------------------------------- config loading


def test_defaults_load_and_build():
    cfg = cli.load_config(None)
    assert cfg == cli.DEFAULT_CONFIG
    model, constants = cli.build_model(cfg)
    assert constants.kappa0 > 0.0
    assert constants.A == 8.0 * (model.K**4 / constants.beta + 2.0 * model.K**2)


def test_unknown_keys_rejected(tmp_path):
    path = write_config(tmp_path, {"geometry": {"L": 1.0, "depth": 3.0}})
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    assert cli.main(["run", "--config", path, "--out", str(tmp_path)]) == 2

    path2 = write_config(tmp_path, {"turbo": True}, name="c2.json")
    assert cli.main(["kappa0", "--config", path2]) == 2


def test_invalid_physics_rejected(tmp_path):
    path = write_config(tmp_path, {"material": {"beta": 0.0}})
    assert cli.main(["kappa0", "--config", path]) == 2


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["kappa0", "--config", str(path)]) == 2


def test_unknown_sigma_kind_rejected(tmp_path):
    path = write_config(tmp_path, {"dielectric": {"sigma": {"kind": "mystery"}}})
    assert cli.main(["kappa0", "--config", path]) == 2


@pytest.mark.parametrize(
    "payload",
    [
        {"grid": {"nx": 64, "neta": 2}},
        {"grid": {"nx": 2, "neta": 32}},
        {"grid": {"nx": 64.0, "neta": 32}},
        {"grid": {"gap_threshold": -1.0}},
        {"minimize": {"k": 0.5}},
        {"minimize": {"max_iters": -1}},
        {"minimize": {"max_iters": "ten"}},
        {"minimize": {"tol_stationarity": -1.0}},
        {"dielectric": {"V": math.nan}},
        {"dielectric": {"V": True}},
        {"dielectric": {"K": math.inf}},
        {"geometry": {"L": math.nan}},
        {"material": {"beta": math.nan}},
        {"dielectric": {"sigma": {"kind": "constant", "value": math.nan}}},
        {"dielectric": {"sigma": {"kind": "polynomial", "coeffs": [1.0, math.nan]}}},
        {"dielectric": {"sigma": {"kind": "tabulated", "x": [-1.0, 0.0, 0.5, 1.0], "values": [1.0, math.inf, 1, 1]}}},
        {"dielectric": {"sigma": {"kind": "constant"}}},
        {"dielectric": {"sigma": {"kind": "polynomial"}}},
        {"dielectric": {"sigma": {"kind": "tabulated"}}},
        {"dielectric": {"sigma": {"kind": "tabulated", "x": [-1.0, 0.0, 0.5, 1.0]}}},
        {"dielectric": {"sigma": {"kind": "tabulated", "path": "no_such_table.csv"}}},
        {"dielectric": {"sigma": {"kind": "tabulated", "path": "one_column.csv"}}},
    ],
    ids=[
        "grid0", "grid1", "grid2", "gap_threshold", "k_below_H", "max_iters_negative", "max_iters_str", "tol_negative",
        "V_nan", "V_bool", "K_inf", "L_nan", "beta_nan", "sigma_value_nan", "sigma_coeffs_nan", "sigma_values_inf",
        "sigma_no_value", "sigma_no_coeffs", "table_no_data", "table_x_only", "table_missing_file", "table_one_column",
    ],
)
def test_invalid_grid_rejected_before_any_solve(tmp_path, monkeypatch, payload):
    """Invalid grid, number, sigma and descent settings exit 2 before any solve and write nothing."""

    def no_solve(*args, **kwargs):
        raise AssertionError("an invalid config must be rejected before any solve")

    monkeypatch.setattr(cli, "minimize", no_solve)
    monkeypatch.chdir(tmp_path)  # a table path is read relative to the working directory
    (tmp_path / "one_column.csv").write_text("-1.0\n0.0\n0.5\n1.0\n", encoding="utf-8")
    path = write_config(tmp_path, payload)
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_zero_family_rejected_before_any_solve(tmp_path, monkeypatch, capsys):
    """The homogeneous data are the example family at V = 0; a "zero" family exits 2 and says so."""

    def no_solve(*args, **kwargs):
        raise AssertionError("an invalid config must be rejected before any solve")

    monkeypatch.setattr(cli, "minimize", no_solve)
    path = write_config(tmp_path, {"dielectric": {"family": "zero"}, "grid": {"nx": 16, "neta": 8}})
    with pytest.raises(cli.ConfigError, match="V = 0"):
        cli.load_config(path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert "V = 0" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_bc_mode_rejected_before_any_solve(tmp_path, monkeypatch):
    calls = count_solves(monkeypatch, ("cli", "minimize", "energy", "force"))
    path = write_config(tmp_path, {"bc_mode": "free", "grid": {"nx": 16, "neta": 8}})
    with pytest.raises(cli.ConfigError):
        cli.load_config(path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


def test_missing_verb_exits(capsys):
    with pytest.raises(SystemExit):
        cli.main([])


# ---------------------------------------------------------------- kappa0 verb


def test_kappa0_prints_frozen_constants(tmp_path, capsys):
    path = write_config(tmp_path, {"dielectric": {"K": 1.0}})
    assert cli.main(["kappa0", "--config", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["A"] == 24.0
    assert out["G0"] == 3.0
    assert out["kappa0"] == 73.0


def test_tabulated_sigma_path_matches_inline(tmp_path, capsys):
    x = np.linspace(-1.0, 1.0, 9)
    values = 1.0 + 0.3 * x + 0.2 * x**2
    csv = tmp_path / "sigma.csv"
    np.savetxt(csv, np.column_stack([x, values]), delimiter=",")
    by_path = write_config(tmp_path, {"dielectric": {"sigma": {"kind": "tabulated", "path": str(csv)}}}, "p.json")
    inline = {"kind": "tabulated", "x": x.tolist(), "values": values.tolist()}
    by_value = write_config(tmp_path, {"dielectric": {"sigma": inline}}, "i.json")

    assert cli.main(["kappa0", "--config", by_path]) == 0
    out_path = capsys.readouterr().out
    assert cli.main(["kappa0", "--config", by_value]) == 0
    assert out_path == capsys.readouterr().out
    assert cli.main(["kappa0"]) == 0
    assert out_path != capsys.readouterr().out  # the tabulated sigma reached the constants


@pytest.mark.parametrize("form", ["inline", "path"])
def test_tabulated_sigma_short_of_the_plate_rejected_before_any_solve(tmp_path, monkeypatch, form):
    """A sigma table that stops short of [-L, L] exits 2 before any solve and writes nothing.

    Beyond the table the spline extrapolates, here to sigma = -3.77 at x = +-1.
    """
    calls = count_solves(monkeypatch, ("cli", "minimize", "energy", "force"))
    x, values = [-0.5, -0.2, 0.0, 0.2, 0.5], [1.0, 0.5, 0.2, 0.5, 1.0]
    if form == "inline":
        sigma = {"kind": "tabulated", "x": x, "values": values}
    else:
        csv = tmp_path / "sigma.csv"
        np.savetxt(csv, np.column_stack([x, values]), delimiter=",")
        sigma = {"kind": "tabulated", "path": str(csv)}
    path = write_config(tmp_path, {"dielectric": {"sigma": sigma}, "grid": {"nx": 32, "neta": 16}})
    with pytest.raises(cli.ConfigError, match="covers"):
        cli.load_config(path)
    assert cli.main(["kappa0", "--config", path]) == 2
    out = tmp_path / "out"
    assert cli.main(["run", "--config", path, "--out", str(out)]) == 2
    assert calls == []
    assert not out.exists()


# ---------------------------------------------------------------- run verb


def test_run_writes_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0

    echoed = json.loads(capsys.readouterr().out)
    assert echoed["converged"] is True

    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert summary["converged"] is True
    assert summary["constants"]["A"] == 24.0
    assert summary["constants"]["G0"] == 3.0
    assert summary["energies"]["total"] < 0.0
    assert summary["residual"]["stationarity"] <= 1e-8
    assert "metadata" in summary

    lines = (out / "profile.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,u,g,contact"
    assert len(lines) == 34  # header + 33 nodes
    for line in lines[1:]:
        x, u, g, contact = line.split(",")
        assert float(u) >= -1.0
        assert contact == "0"

    history = (out / "history.csv").read_text(encoding="utf-8").splitlines()
    assert history[0].startswith("iteration,e_mechanical,e_electrostatic")
    assert len(history) >= 2


def test_default_run_reports_linear_residual(tmp_path):
    """run.json carries the largest relative residual of the final profile's linear solves."""
    out = tmp_path / "out"
    assert cli.main(["run", "--out", str(out)]) == 0
    residual = json.loads((out / "run.json").read_text(encoding="utf-8"))["residual"]
    assert 0.0 < residual["linear_max"] <= 1e-10


@pytest.mark.parametrize(
    "payload, iterations, factorizations",
    [({}, 2, 1), ({"dielectric": {"V": 3.0}, "grid": {"nx": 128, "neta": 64}}, 5, 2)],
)
def test_descent_factors_about_once(tmp_path, payload, iterations, factorizations):
    """The descent reuses its first factor: the default run factors once, V = 3
    at 128x64 at most twice over its 5 quasi-Newton iterations (one per solve
    without the cache: 3 and 6), and both converge."""
    out = tmp_path / "out"
    assert cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)]) == 0
    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    diagnostics = summary["diagnostics"]
    assert summary["status"] == "converged"
    assert abs(summary["iterations"] - iterations) <= 1
    assert diagnostics["factorizations"] <= factorizations
    assert diagnostics["solves"] == summary["iterations"] + 1
    assert diagnostics["linear_iterations"] > 0
    assert diagnostics["linear_residual_max"] <= 1e-10


@pytest.mark.parametrize("payload, runs", [({}, 0), ({"dielectric": {"V": 10.0}, "grid": {"nx": 64, "neta": 32}}, 1)])
def test_diagnostics_count_contact_components(tmp_path, payload, runs):
    """``diagnostics.contact_components`` is the number of contact runs of the
    returned profile, as its ``profile.csv`` contact column shows them. V = 10
    at 64x32 touches down over one middle run (and ends in
    ``line_search_failure``, ROADMAP item 1)."""
    out = tmp_path / "out"
    cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)])
    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    contact = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)[:, 3]
    assert summary["diagnostics"]["contact_components"] == runs
    assert np.count_nonzero(np.diff(contact) == 1) == runs


POLY_SIGMA = {"kind": "polynomial", "coeffs": [1.0, 0.5, 0.5]}


@pytest.mark.parametrize(
    "payload, max_solves, touchdown",
    [
        pytest.param(
            {"dielectric": {"V": 7.0}, "grid": {"nx": 64, "neta": 32}, "minimize": {"max_iters": 59}},
            60,
            True,
            id="touchdown_v7",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the residual's continuum force is not the discrete energy's gradient beside contact "
                "(ROADMAP item 1), so the line search stalls at stationarity ~0.6",
            ),
        ),
        pytest.param(
            {"dielectric": {"V": 5.0, "sigma": POLY_SIGMA}, "grid": {"nx": 128, "neta": 64}},
            20,
            False,
            id="poly_sigma_v5",
        ),
    ],
)
def test_quasi_newton_converges_within_budget(tmp_path, payload, max_solves, touchdown):
    """Configurations the M-preconditioned descent could not finish converge
    within a solve budget (V = 7: 7,098 solves to max_iters before; polynomial
    sigma at V = 5: 659 solves to max_iters)."""
    out = tmp_path / "out"
    cli.main(["run", "--config", write_config(tmp_path, payload), "--out", str(out)])
    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert summary["status"] == "converged"
    assert summary["diagnostics"]["solves"] <= max_solves
    assert (summary["residual"]["active_count"] > 0) == touchdown


def test_odd_cell_count_runs(tmp_path):
    """An odd nx converges to a mirror-symmetric profile; run.json reports the minimized energy."""
    cfg = write_config(tmp_path, {"dielectric": {"V": 0.5, "K": 1.0}, "grid": {"nx": 63, "neta": 16}})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0

    u = np.loadtxt(out / "profile.csv", delimiter=",", skiprows=1)[:, 1]
    assert u.size == 64
    assert np.min(u) < 0.0
    assert np.max(np.abs(u - u[::-1])) <= 1e-12

    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    last = (out / "history.csv").read_text(encoding="utf-8").splitlines()[-1].split(",")
    assert summary["energies"]["penalized"] == float(last[3])


def test_run_single_adds_no_solve(tmp_path, monkeypatch):
    """The run solves each trial point of the descent once and nothing after it."""
    calls = count_solves(monkeypatch, ("cli", "minimize", "energy", "force"))
    cfg = cli.load_config(write_config(tmp_path, {"dielectric": {"V": 0.5, "K": 1.0}, "grid": {"nx": 64, "neta": 32}}))
    code, summary = cli.run_single(cfg, tmp_path / "out")
    assert code == 0 and summary["converged"]

    rows = (tmp_path / "out" / "history.csv").read_text(encoding="utf-8").splitlines()[1:]
    backtracks = sum(int(row.split(",")[-1]) for row in rows)
    assert len(calls) == len(rows) + 1 + backtracks
    assert len({p.u.tobytes() for p in calls}) == len(calls)


def test_runtime_error_leaves_partial_run_json(tmp_path, monkeypatch, capsys):
    """A solve that raises mid-descent still leaves run.json, flagged partial; the error reaches main (exit 1)."""
    original = minimize_module.solve_potential
    calls = []

    def failing(*args, **kwargs):
        calls.append(args[0])
        if len(calls) == 2:
            raise RuntimeError("solver broke")
        return original(*args, **kwargs)

    monkeypatch.setattr(minimize_module, "solve_potential", failing)
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 1
    assert "RuntimeError: solver broke" in capsys.readouterr().err

    summary = json.loads((out / "run.json").read_text(encoding="utf-8"))
    assert summary["partial"] is True
    assert summary["converged"] is False
    assert summary["status"] == "error"
    assert summary["error"] == "RuntimeError: solver broke"
    assert "metadata" in summary


def test_flags_accepted_before_verb(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "pre"
    assert cli.main(["--config", cfg, "--out", str(out), "run"]) == 0
    assert (out / "run.json").exists()


def test_run_with_verify_writes_verification(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out), "--verify"]) == 0
    verification = json.loads((out / "verification.json").read_text(encoding="utf-8"))
    assert verification["all_ok"] is True
    assert all(verification["checks"].values())
    assert verification["metadata"]["tool"] == "beamgap"


# ---------------------------------------------------------------- verify verb


def test_verify_verb(tmp_path, capsys):
    out = tmp_path / "v"
    assert cli.main(["verify", "--out", str(out)]) == 0
    assert "passed" in capsys.readouterr().out
    verification = json.loads((out / "verification.json").read_text(encoding="utf-8"))
    assert verification["all_ok"] is True
    assert verification["battery"]["violations"] == []


# ---------------------------------------------------------------- sweep verb


def test_sweep_over_voltage(tmp_path, capsys):
    payload = dict(SMALL)
    payload["sweep"] = {"parameter": "dielectric.V", "values": [0.0, 0.1]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", cfg, "--out", str(out), "--workers", "1"]) == 0
    assert "2/2 values succeeded" in capsys.readouterr().out

    lines = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("0,0.0,1,0.0,")  # zero voltage keeps zero energy
    assert lines[2].startswith("1,0.1,1,-")

    run0 = json.loads((out / "value_0" / "run.json").read_text(encoding="utf-8"))
    run1 = json.loads((out / "value_1" / "run.json").read_text(encoding="utf-8"))
    assert run0["energies"]["total"] == 0.0
    assert run1["energies"]["total"] < 0.0


def test_sweep_requires_sweep_block(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


def test_sweep_unknown_parameter(tmp_path):
    payload = dict(SMALL)
    payload["sweep"] = {"parameter": "dielectric.volts", "values": [0.1]}
    cfg = write_config(tmp_path, payload)
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize(
    ("parameter", "value"),
    [("minimize.k", 0.5), ("grid.nx", 2)],
    ids=["k_below_H", "nx_too_small"],
)
def test_sweep_rejects_invalid_value_before_any_solve(tmp_path, monkeypatch, parameter, value):
    """A swept value that load_config would refuse exits 2 before the pool starts and writes nothing."""

    def no_pool(*args, **kwargs):
        raise AssertionError("an invalid sweep value must be rejected before the pool starts")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
    payload = {"grid": {"nx": 16, "neta": 8}, "sweep": {"parameter": parameter, "values": [value]}}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    with pytest.raises(cli.ConfigError, match="sweep value"):
        cli.run_sweep(cli.load_config(cfg), out)
    assert cli.main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------- determinism


def test_repeat_runs_identical_outside_metadata(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0

    for name in ("profile.csv", "history.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    ja = json.loads((out_a / "run.json").read_text(encoding="utf-8"))
    jb = json.loads((out_b / "run.json").read_text(encoding="utf-8"))
    ja.pop("metadata")
    jb.pop("metadata")
    assert ja == jb


# ---------------------------------------------------------------- process entry


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "beamgap.cli", "kappa0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["kappa0"] > 0.0
