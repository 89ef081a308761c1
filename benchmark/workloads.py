"""Seeded input generation for the three benchmark workloads.

Every workload is a list of case kinds run in a fixed order per round; a
round is one operation per kind. The seed draws the parameters of each kind
from a narrow band around its centre, afresh for every round, so no two
operations of a run share an input while every round costs about the same.
The bands were checked to converge on the seed code (see README.md); widening
them can cross into the configurations that fail today.

Nothing here calls the program: configs are plain dicts, written as JSON
files for ``cli.load_config``, and profiles are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: every case sets these explicitly; keys it leaves out take the package defaults
L, H = 1.0, 1.0


@dataclass(frozen=True)
class RunCase:
    """One configuration for the ``run`` verb, plus what its checks may assume."""

    kind: str
    config: dict
    even_sigma: bool  # sigma(-x) = sigma(x): the equilibrium must be mirror-symmetric
    beam_oracle: bool  # tau = alpha = 0 and small V: compare with the closed-form beam


@dataclass(frozen=True)
class FieldCase:
    """One admissible profile for a field evaluation, with its dielectric data."""

    kind: str
    u: np.ndarray
    config: dict  # the dielectric model; its grid block is the field grid
    components: int  # expected number of non-contact components
    zero: bool  # u = 0 under constant sigma: closed forms apply
    fd_probe: bool = False  # no contact anywhere: a bump probe stays away from contact edges


def _jitter(rng: np.random.Generator, centre: float, rel: float) -> float:
    return float(centre * (1.0 + rng.uniform(-rel, rel)))


def config(V, sigma, bc_mode="clamped", tau=0.0, alpha=0.0, grid=(256, 128)) -> dict:
    """A config file's content: the example family at voltage V with the given sigma block."""
    return {
        "geometry": {"L": L, "H": H},
        "material": {"beta": 1.0, "tau": tau, "alpha": alpha},
        "dielectric": {"family": "example", "V": V, "sigma": sigma},
        "grid": {"nx": grid[0], "neta": grid[1]},
        "bc_mode": bc_mode,
    }


def _const(rng, centre=1.0, rel=0.05) -> dict:
    return {"kind": "constant", "value": _jitter(rng, centre, rel)}


def _poly(rng, coeffs, rel=0.05) -> dict:
    return {"kind": "polynomial", "coeffs": [_jitter(rng, c, rel) if c else 0.0 for c in coeffs]}


# ------------------------------------------------------------------ equilibrium

# the default 256x128 grid; 2-8 descent iterations each
def _equilibrium_round(rng: np.random.Generator) -> list[RunCase]:
    return [
        RunCase("smallv_clamped", config(_jitter(rng, 0.1, 0.05), _const(rng)), True, True),
        RunCase("smallv_pinned", config(_jitter(rng, 0.05, 0.05), _const(rng), "pinned"), True, True),
        RunCase(
            "tension_clamped",
            config(_jitter(rng, 0.95, 0.03), _const(rng), tau=_jitter(rng, 1.0, 0.1), alpha=_jitter(rng, 1.0, 0.1)),
            True,
            False,
        ),
        RunCase("evenpoly_pinned", config(_jitter(rng, 0.53, 0.03), _poly(rng, [1.0, 0.0, 0.5]), "pinned"), True, False),
        RunCase("poly_clamped", config(_jitter(rng, 1.0, 0.03), _poly(rng, [1.0, 0.5, 0.5])), False, False),
    ]


# --------------------------------------------------------------------- descent


def _descent_round(rng: np.random.Generator) -> list[RunCase]:
    g = (128, 64)
    return [
        RunCase("const_v2", config(_jitter(rng, 2.0, 0.03), _const(rng), grid=g), True, False),
        RunCase("const_v3", config(_jitter(rng, 3.0, 0.03), _const(rng), grid=g), True, False),
        RunCase("const_v4", config(_jitter(rng, 4.0, 0.03), _const(rng), grid=g), True, False),
        RunCase("const_v5", config(_jitter(rng, 5.0, 0.02), _const(rng, rel=0.02), grid=g), True, False),
        RunCase("poly_v2", config(_jitter(rng, 2.0, 0.03), _poly(rng, [1.0, 0.5, 0.5]), grid=g), False, False),
        RunCase("poly_v3", config(_jitter(rng, 3.0, 0.03), _poly(rng, [1.0, 0.5, 0.5]), grid=g), False, False),
        RunCase("evenpoly_v3", config(_jitter(rng, 3.0, 0.03), _poly(rng, [1.0, 0.0, 0.5]), grid=g), True, False),
    ]


# ------------------------------------------------------------------ field_eval

FIELD_NX, FIELD_NETA = 512, 256


def _clip(u: np.ndarray) -> np.ndarray:
    u = np.maximum(u, -H)
    u[0] = 0.0
    u[-1] = 0.0
    return u


def _field_round(rng: np.random.Generator, x: np.ndarray) -> list[FieldCase]:
    s = (1.0 - x**2) ** 2  # smooth dip, vanishing with its slope at the walls
    tilt = 1.0 + rng.uniform(-0.3, 0.3) * x
    two = np.sin(np.pi * (x + 1.0)) ** 2  # two dips, touching zero at 0 and the walls

    def data(sigma: dict) -> dict:
        return config(_jitter(rng, 1.0, 0.5), sigma, grid=(FIELD_NX, FIELD_NETA))

    return [
        FieldCase("zero_const", np.zeros_like(x), data(_const(rng, rel=0.5)), 1, True),
        FieldCase("dip_const", _clip(-rng.uniform(0.2, 0.6) * H * s), data(_const(rng, rel=0.5)), 1, False),
        FieldCase("dip_poly", _clip(-rng.uniform(0.2, 0.6) * H * s * tilt), data(_poly(rng, [1.0, 0.5, 0.5])), 1, False, True),
        FieldCase("clip2_const", _clip(-rng.uniform(1.15, 1.6) * H * s), data(_const(rng, rel=0.5)), 2, False),
        FieldCase("clip3_poly", _clip(-rng.uniform(1.15, 1.6) * H * two), data(_poly(rng, [1.0, 0.5, 0.5])), 3, False),
    ]


def field_grid() -> np.ndarray:
    return np.linspace(-L, L, FIELD_NX + 1)


WORKLOADS = ("equilibrium", "descent", "field_eval")


def rounds(workload: str, seed: int):
    """Endless generator of rounds (lists of cases) for ``workload``.

    The same seed yields the same sequence of rounds.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "field_eval":
        x = field_grid()
        while True:
            yield _field_round(rng, x)
    build = _equilibrium_round if workload == "equilibrium" else _descent_round
    while True:
        yield build(rng)
