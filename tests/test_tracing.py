"""The benchmark's tracer rebinds only names the package still binds, and restores them.

``benchmark/tracing.py`` replaces functions by name in each module that calls
them, so deleting one of those bindings (an import kept only for the tracer,
say) breaks ``benchmark/run.py --trace 1``. This test catches that in the
tier-1 suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from beamgap.geometry import DeflectionProfile
from beamgap.model import make_example_model

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_and_uninstall_restore_every_binding():
    tracing = load_tracing()
    sites = [site for bound in tracing.BINDINGS.values() for site in bound]
    originals = [getattr(module, attr) for module, attr in sites]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(getattr(module, attr) is not fn for (module, attr), fn in zip(sites, originals))
        tracer.active = True
        tracer.begin_op(0)
        p = DeflectionProfile.from_callable(lambda x: -0.3 * (1.0 - x**2) ** 2, L=1.0, H=1.0, n_cells=16)
        field = tracing.minimize.solve_potential(p, make_example_model(V=1.0, sigma=1.0, H=1.0, K=1.0), n_eta=8)
        tracer.end_op()
    finally:
        tracer.uninstall()

    assert all(getattr(module, attr) is fn for (module, attr), fn in zip(sites, originals))
    assert np.all(np.isfinite(field.top_dz))
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"solve_potential", "detect_coincidence", "build_mapped_mesh", "assemble", "splu", "backsolve"} <= names
