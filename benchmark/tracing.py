"""Per-layer spans recorded around calls into the package's modules.

The tracer replaces a public function by a timing wrapper in every module
that calls it, as the name is bound there (``beamgap.minimize.solve_potential``,
``beamgap.solver.assemble``, ...), so the program itself is unchanged. Spans
keep their parent, which gives each layer's self time, and the operation
they belong to. They stay in memory and are written out once at the end.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from pathlib import Path

import beamgap

# by module path: the package namespace re-exports the function ``minimize``
cli, energy, force, minimize, solver = (
    importlib.import_module(f"beamgap.{name}") for name in ("cli", "energy", "force", "minimize", "solver")
)

# span name -> the (module, attribute) bindings it replaces
BINDINGS = {
    "detect_coincidence": [(solver, "detect_coincidence")],
    "build_mapped_mesh": [(solver, "build_mapped_mesh")],
    "solve_potential": [(beamgap, "solve_potential"), (cli, "solve_potential"), (minimize, "solve_potential"),
                        (energy, "solve_potential"), (force, "solve_potential")],
    "assemble": [(solver, "assemble")],
    "splu": [(solver, "splu")],
    "electrostatic_energy": [(beamgap, "electrostatic_energy"), (energy, "electrostatic_energy"),
                             (force, "electrostatic_energy")],
    "mechanical_energy": [(energy, "mechanical_energy")],
    "total_energy": [(beamgap, "total_energy"), (minimize, "total_energy")],
    "compute_force": [(beamgap, "compute_force"), (cli, "compute_force"), (minimize, "compute_force")],
    "minimize": [(beamgap, "minimize"), (cli, "minimize")],
    "run_single": [(cli, "run_single")],
    "build_model": [(cli, "build_model")],
}

# span record fields
NAME, START, END, PARENT, OP, ATTRS = range(6)


class _TracedLU:
    """SuperLU factor whose back-solves are recorded as ``backsolve`` spans."""

    def __init__(self, lu, tracer: "Tracer"):
        self._lu = lu
        self.solve = tracer.wrap("backsolve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Records spans while ``active``; ``op`` tags them with the current operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self.op: int | None = None
        self.op_walls: list[tuple[float, float]] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording

    def wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, tracer.op, None]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                span[ATTRS] = on_result(args, result)
            return result

        return traced

    def install(self) -> None:
        hooks = {
            "solve_potential": _solve_attrs,
            "assemble": lambda args, system: {"dofs": int(system.rhs.size)},
            "minimize": _minimize_attrs,
        }
        wrappers = {
            name: self.wrap(name, getattr(*sites[0]), hooks.get(name)) for name, sites in BINDINGS.items() if name != "splu"
        }
        factor = self.wrap("splu", solver.splu)
        wrappers["splu"] = functools.wraps(solver.splu)(lambda *a, **k: _TracedLU(factor(*a, **k), self))
        for name, sites in BINDINGS.items():
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrappers[name])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def begin_op(self, index: int) -> None:
        self.op = index
        self.op_walls.append((time.perf_counter(), 0.0))

    def end_op(self) -> None:
        start, _ = self.op_walls[-1]
        self.op_walls[-1] = (start, time.perf_counter())
        self.op = None

    # -- reduction

    def metrics(self, per_call_overhead_s: float, op_scales=None, setup_scale: float = 1.0) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: seconds and counts per operation unless named otherwise.

        Durations inside operation k are multiplied by ``op_scales[k]``, those
        outside any operation by ``setup_scale``; the shares use raw times.
        """
        n_ops = len(self.op_walls)
        scales = op_scales if op_scales is not None else [1.0] * n_ops

        def dur(s) -> float:
            return (s[END] - s[START]) * (setup_scale if s[OP] is None else scales[s[OP]])

        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                child[s[PARENT]] += dur(s)

        total: dict[str, float] = {}
        own: dict[str, float] = {}
        count: dict[str, int] = {}
        covered = 0.0
        in_ops = [(i, s) for i, s in enumerate(self.spans) if s[OP] is not None]
        for i, s in in_ops:
            d = dur(s)
            total[s[NAME]] = total.get(s[NAME], 0.0) + d
            own[s[NAME]] = own.get(s[NAME], 0.0) + d - child[i]
            count[s[NAME]] = count.get(s[NAME], 0) + 1
            if s[PARENT] is None:
                covered += s[END] - s[START]

        solves = [s for _, s in in_ops if s[NAME] == "solve_potential"]
        distinct = len({(s[OP], s[ATTRS]["key"]) for s in solves})
        dofs = sum(s[ATTRS]["dofs"] for _, s in in_ops if s[NAME] == "assemble")
        runs = [s[ATTRS] for _, s in in_ops if s[NAME] == "minimize"]
        trials = sum(r["trials"] for r in runs)
        builds = [dur(s) for s in self.spans if s[NAME] == "build_model"]
        walls = [b - a for a, b in self.op_walls]
        scaled_walls = [w * k for w, k in zip(walls, scales)]

        def per_op(d: dict, name: str) -> float:
            return d.get(name, 0.0) / n_ops

        return {
            "geometry.coincidence_s": (per_op(total, "detect_coincidence"), "s"),
            "geometry.mesh_s": (per_op(total, "build_mapped_mesh"), "s"),
            "geometry.meshes": (per_op(count, "build_mapped_mesh"), "count"),
            "solver.solve_s": (per_op(total, "solve_potential"), "s"),
            "solver.solves": (per_op(count, "solve_potential"), "count"),
            "solver.assemble_s": (per_op(total, "assemble"), "s"),
            "solver.assemblies": (per_op(count, "assemble"), "count"),
            "solver.factor_s": (per_op(total, "splu"), "s"),
            "solver.factorizations": (per_op(count, "splu"), "count"),
            "solver.backsolve_s": (per_op(total, "backsolve"), "s"),
            "solver.dofs_per_solve": (dofs / len(solves) if solves else 0.0, "count"),
            "solver.linear_residual_max": (max((s[ATTRS]["residual"] for s in solves), default=0.0), "ratio"),
            "solver.distinct_profile_ratio": (distinct / len(solves) if solves else 0.0, "ratio"),
            "energy.electrostatic_s": (per_op(own, "electrostatic_energy"), "s"),
            "energy.mechanical_s": (per_op(total, "mechanical_energy"), "s"),
            "energy.total_energy_calls": (per_op(count, "total_energy"), "count"),
            "force.compute_s": (per_op(total, "compute_force"), "s"),
            "force.calls": (per_op(count, "compute_force"), "count"),
            "minimize.iterations": (sum(r["iterations"] for r in runs) / n_ops, "count"),
            "minimize.trial_points": (trials / n_ops, "count"),
            "minimize.backtracks": (sum(r["backtracks"] for r in runs) / n_ops, "count"),
            "minimize.accept_ratio": (sum(r["accepted"] for r in runs) / trials if trials else 0.0, "ratio"),
            "minimize.self_s": (per_op(own, "minimize"), "s"),
            "cli.run_single_self_s": (per_op(own, "run_single"), "s"),
            "model.build_s": (statistics.fmean(builds) if builds else 0.0, "s"),
            "trace.op_p50_s": (statistics.median(scaled_walls), "s"),
            "trace.uncovered_share": (1.0 - covered / sum(walls), "ratio"),
            "trace.overhead_share": (per_call_overhead_s * len(in_ops) / sum(walls), "ratio"),
        }

    def write(self, path: Path) -> None:
        """Dump spans (times relative to the first span) and operation walls as JSON."""
        t0 = self.spans[0][START] if self.spans else 0.0
        payload = {
            "fields": ["name", "start_s", "end_s", "parent", "op", "attrs"],
            "spans": [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[OP], s[ATTRS]] for s in self.spans],
            "ops": [[a - t0, b - t0] for a, b in self.op_walls],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _solve_attrs(args, field) -> dict:
    profile = args[0]
    return {
        "key": hash((profile.u.tobytes(), profile.bc_mode)),
        "residual": max((c.residual for c in field.components), default=0.0),
    }


def _minimize_attrs(args, result) -> dict:
    backtracks = sum(row.backtracks for row in result.history)
    return {
        "iterations": result.iterations,
        "accepted": len(result.history),
        "backtracks": backtracks,
        "trials": backtracks + len(result.history),
    }


def wrapper_overhead_s(repeats: int = 20000) -> float:
    """Measured cost of one traced call over a plain call, in seconds."""
    tracer = Tracer()
    tracer.active = True
    tracer.op = 0

    def noop():
        return None

    traced = tracer.wrap("noop", noop)
    samples = []
    for _ in range(5):
        t = time.perf_counter()
        for _ in range(repeats):
            noop()
        plain = time.perf_counter() - t
        tracer.spans.clear()
        t = time.perf_counter()
        for _ in range(repeats):
            traced()
        samples.append((time.perf_counter() - t - plain) / repeats)
    return max(statistics.median(samples), 0.0)
