"""Each correctness check of the benchmark rejects a deliberately wrong output.

Run from the repository root with ``python3 -m pytest benchmark/test_checks.py``.
The correct outputs come from the program on small grids; each test then
breaks one of them and expects the check to raise.
"""

import copy
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from beamgap import cli, compute_force, electrostatic_energy, solve_potential  # noqa: E402
from beamgap.geometry import DeflectionProfile  # noqa: E402


def _load(tmp: Path, *args, **kwargs) -> dict:
    """The loaded form of ``workloads.config(*args, **kwargs)``."""
    tmp.mkdir(parents=True, exist_ok=True)
    path = tmp / "config.json"
    path.write_text(json.dumps(workloads.config(*args, **kwargs)), encoding="utf-8")
    return cli.load_config(path)


def _run(tmp: Path, V: float, grid=(128, 64), bc_mode="clamped"):
    cfg = _load(tmp, V, {"kind": "constant", "value": 1.0}, bc_mode=bc_mode, grid=grid)
    code, summary = cli.run_single(cfg, tmp / "out")
    return cfg, code, summary


@pytest.fixture(scope="module")
def equilibrium(tmp_path_factory):
    """A converged V = 1 run at 128x64 with constant sigma (even, so symmetric)."""
    tmp = tmp_path_factory.mktemp("run")
    cfg, code, summary = _run(tmp, 1.0)
    return tmp, cfg, code, summary


def _copy_artifacts(equilibrium, tmp_path: Path) -> tuple[Path, dict, int, dict]:
    src, cfg, code, summary = equilibrium
    out = tmp_path / "out"
    shutil.copytree(src / "out", out)
    return out, cfg, code, copy.deepcopy(summary)


def _edit_column(path: Path, column: str, edit) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    j = lines[0].split(",").index(column)
    rows = [line.split(",") for line in lines[1:]]
    values = edit(np.array([float(r[j]) for r in rows]))
    for r, v in zip(rows, values):
        r[j] = repr(float(v))
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n", encoding="utf-8")


def test_run_checks_accept_the_program_output(equilibrium, tmp_path):
    out, cfg, code, summary = _copy_artifacts(equilibrium, tmp_path)
    checks.check_run(out, cfg, code, summary, even_sigma=True, beam_oracle=False)


def test_run_checks_reject_a_scaled_profile(equilibrium, tmp_path):
    out, cfg, code, summary = _copy_artifacts(equilibrium, tmp_path)
    _edit_column(out / "profile.csv", "u", lambda u: 1.01 * u)
    with pytest.raises(checks.CheckError, match="VI residual"):
        checks.check_run(out, cfg, code, summary, even_sigma=True, beam_oracle=False)


def test_run_checks_reject_an_energy_increase(equilibrium, tmp_path):
    out, cfg, code, summary = _copy_artifacts(equilibrium, tmp_path)

    def bump_one(e):
        e = e.copy()
        e[len(e) // 2] = e[len(e) // 2 - 1] + 1e-9
        return e

    _edit_column(out / "history.csv", "e_penalized", bump_one)
    with pytest.raises(checks.CheckError, match="energy increased"):
        checks.check_run(out, cfg, code, summary, even_sigma=True, beam_oracle=False)


def test_run_checks_reject_a_flipped_force(equilibrium, tmp_path):
    out, cfg, code, summary = _copy_artifacts(equilibrium, tmp_path)
    _edit_column(out / "profile.csv", "g", lambda g: -g)
    with pytest.raises(checks.CheckError, match="force density negative"):
        checks.check_run(out, cfg, code, summary, even_sigma=True, beam_oracle=False)


def test_run_checks_reject_an_unconverged_status(equilibrium, tmp_path):
    out, cfg, _, summary = _copy_artifacts(equilibrium, tmp_path)
    summary.update(converged=False, status="max_iters")
    with pytest.raises(checks.CheckError, match="not converged"):
        checks.check_run(out, cfg, 1, summary, even_sigma=True, beam_oracle=False)


def test_profile_bounds_reject_obstacle_endpoint_and_kappa0_violations():
    x = np.linspace(-1.0, 1.0, 9)
    u = -0.5 * (1.0 - x**2)
    checks.check_profile_bounds(x, u, 1.0, 1.0, 10.0)
    for bad, msg in [(u - 0.6, "u\\(\\+-L\\)"), (np.where(x == 0.0, -1.01, u), "obstacle"), (u + 20.0 * (1 - x**2), "a-priori")]:
        with pytest.raises(checks.CheckError, match=msg):
            checks.check_profile_bounds(x, bad, 1.0, 1.0, 10.0)


def test_symmetry_rejects_a_tilted_profile():
    x = np.linspace(-1.0, 1.0, 65)
    u = -(1.0 - x**2) ** 2
    checks.check_symmetry(u)
    with pytest.raises(checks.CheckError, match="mirror"):
        checks.check_symmetry(u * (1.0 + 1e-6 * x))


def test_beam_oracle_accepts_small_v_and_rejects_a_scaled_profile(tmp_path):
    for bc_mode, V in (("clamped", 0.1), ("pinned", 0.05)):
        cfg, code, _ = _run(tmp_path / bc_mode, V, grid=(256, 128), bc_mode=bc_mode)
        assert code == 0
        prof = checks.read_profile_csv(tmp_path / bc_mode / "out" / "profile.csv")
        args = (V, 1.0, 1.0, 1.0, 1.0, bc_mode)
        assert checks.check_beam_oracle(prof["x"], prof["u"], *args) <= checks.BEAM_TOL
        with pytest.raises(checks.CheckError, match="closed-form"):
            checks.check_beam_oracle(prof["x"], 1.01 * prof["u"], *args)


# ------------------------------------------------------------ field evaluation


def _field(tmp: Path, u_fn, V=1.0, sigma=None, n=64):
    sigma = sigma or {"kind": "constant", "value": 1.0}
    model, _ = cli.build_model(_load(tmp, V, sigma))
    x = np.linspace(-1.0, 1.0, n + 1)
    u = u_fn(x)
    u[0] = u[-1] = 0.0
    profile = DeflectionProfile(x_nodes=x, u=u, bc_mode="clamped", H=1.0)
    field = solve_potential(profile, model, n_eta=n // 2)
    e_e = electrostatic_energy(profile, model, n_eta=n // 2, field=field).total
    return profile, model, field, e_e, compute_force(profile, model, field).g


class _ShiftedPsi:
    """A field whose reconstructed psi is moved up by ``shift``."""

    def __init__(self, field, shift):
        self._field, self._shift = field, shift
        self.components = field.components

    def psi_on(self, k):
        return self._field.psi_on(k) + self._shift


def test_field_checks_accept_the_program_output(tmp_path):
    _, _, field, e_e, g = _field(tmp_path, np.zeros_like, V=0.8, sigma={"kind": "constant", "value": 1.3})
    checks.check_field(field, e_e, g, 0.8, 1, zero_sigma=1.3)
    _, _, field, e_e, g = _field(tmp_path, lambda x: np.maximum(-1.4 * (1 - x**2) ** 2, -1.0))
    checks.check_field(field, e_e, g, 1.0, 2, zero_sigma=None)


def test_max_principle_rejects_psi_shifted_above_v(tmp_path):
    _, _, field, e_e, g = _field(tmp_path, lambda x: -0.4 * (1 - x**2) ** 2)
    with pytest.raises(checks.CheckError, match="maximum principle"):
        checks.check_field(_ShiftedPsi(field, 1e-3), e_e, g, 1.0, 1, zero_sigma=None)


def test_component_count_rejects_a_missed_contact_set(tmp_path):
    _, _, field, e_e, g = _field(tmp_path, lambda x: np.maximum(-1.4 * (1 - x**2) ** 2, -1.0))
    with pytest.raises(checks.CheckError, match="components"):
        checks.check_field(field, e_e, g, 1.0, 1, zero_sigma=None)


def test_flat_closed_forms_reject_flipped_force_and_wrong_energy(tmp_path):
    _, _, field, e_e, g = _field(tmp_path, np.zeros_like, V=0.8)
    with pytest.raises(checks.CheckError, match="force density negative"):
        checks.check_field(field, e_e, -g, 0.8, 1, zero_sigma=1.0)
    with pytest.raises(checks.CheckError, match="flat-gap load"):
        checks.check_flat_closed_forms([c.chi for c in field.components], e_e, 1.01 * g, 0.8, 1.0, 1.0, 1.0)
    with pytest.raises(checks.CheckError, match="closed form"):
        checks.check_flat_closed_forms([c.chi for c in field.components], 1.01 * e_e, g, 0.8, 1.0, 1.0, 1.0)
    with pytest.raises(checks.CheckError, match="chi does not vanish"):
        chi = [c.chi + 1e-6 for c in field.components]
        checks.check_flat_closed_forms(chi, e_e, g, 0.8, 1.0, 1.0, 1.0)


def test_fd_pairing_accepts_the_force_and_rejects_it_flipped(tmp_path):
    profile, model, _, _, g = _field(
        tmp_path,
        lambda x: -0.3 * (1 - x**2) ** 2 * (1 + 0.2 * x), sigma={"kind": "polynomial", "coeffs": [1.0, 0.5, 0.5]}, n=256
    )
    assert checks.check_fd_along_bump(profile, model, g, 128) <= checks.FD_TOL
    with pytest.raises(checks.CheckError, match="int g theta"):
        checks.check_fd_along_bump(profile, model, -g, 128)


def test_history_accepts_round_off_and_rejects_a_rise():
    e = np.array([-1.0, -1.5, -1.75, -1.75 + 1e-13, -1.8])
    checks.check_history(e)
    e[3] = -1.7
    with pytest.raises(checks.CheckError, match="energy increased"):
        checks.check_history(e)
