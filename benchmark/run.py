"""beamgap benchmark: converged equilibria, long descents and field evaluations.

Usage, from the repository root:

    python3 benchmark/run.py --workload equilibrium --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each run generates its inputs from ``--seed``, repeats whole rounds of
operations until ``--seconds`` of operation time have passed, checks every
output (see checks.py) and prints one JSON object as its last line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
``--workload all`` runs each workload in its own process, one after another.
See README.md for the workloads, metrics and reference figures.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any numerical import

import os  # noqa: E402

# One BLAS thread: on a 2-core host shared with other loads, the threaded BLAS
# inside SuperLU swings wall times by 20-30 % from run to run; one thread
# repeats to about 5 %. Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 3  # set-ups per run: this process plus SETUP_SAMPLES - 1 fresh processes


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0, help="operation time to measure, in whole rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# ------------------------------------------------------------------ workloads


class RunWorkload:
    """``equilibrium`` and ``descent``: the run verb on generated config files."""

    def __init__(self, bench):
        self.b = bench
        self.artifacts = bench.workdir / "artifacts"

    def prepare(self, cases) -> list:
        return [(case, self.b.write_config(i, case.config)) for i, case in enumerate(cases)]

    def run(self, item):
        cli = self.b.cli
        return cli.run_single(cli.load_config(item[1]), self.artifacts)

    @staticmethod
    def failure(result) -> str | None:
        code, summary = result
        return None if code == 0 else f"exit {code}, status {summary.get('status')!r}"

    def check(self, item, result) -> None:
        case, path = item
        cfg = self.b.cli.load_config(path)
        self.b.checks.check_run(self.artifacts, cfg, *result, case.even_sigma, case.beam_oracle)


class FieldWorkload:
    """``field_eval``: solve -> energy -> force on a stream of unrelated profiles."""

    def __init__(self, bench):
        self.b = bench
        self.n_eta = bench.workloads.FIELD_NETA
        self.fd_done = False

    def prepare(self, cases) -> list:
        b = self.b
        items = []
        for i, case in enumerate(cases):
            cfg = b.cli.load_config(b.write_config(i, case.config))
            model, _ = b.cli.build_model(cfg)
            profile = b.DeflectionProfile(x_nodes=b.workloads.field_grid(), u=case.u, bc_mode=cfg["bc_mode"], H=cfg["geometry"]["H"])
            items.append((case, cfg["dielectric"], model, profile))
        return items

    def run(self, item):
        _, _, model, profile = item
        bg = self.b.beamgap
        field = bg.solve_potential(profile, model, n_eta=self.n_eta)
        e_e = bg.electrostatic_energy(profile, model, n_eta=self.n_eta, field=field)
        force = bg.compute_force(profile, model, field)
        return field, e_e.total, force.g

    @staticmethod
    def failure(result) -> str | None:
        return None

    def check(self, item, result) -> None:
        c = self.b.checks
        case, die, model, profile = item
        field, e_e, g = result
        c.check_field(field, e_e, g, die["V"], case.components, die["sigma"]["value"] if case.zero else None)
        if case.fd_probe and not self.fd_done:  # two more solves, so once per run
            self.fd_done = True
            c.check_fd_along_bump(profile, model, g, self.n_eta)


# --------------------------------------------------------------------- runner


class Bench:
    """Modules, inputs and working directory of one benchmark process."""

    def __init__(self, workload: str, seed: int, trace: bool):
        sys.path.insert(0, str(SRC))
        import beamgap
        from beamgap import cli
        from beamgap.geometry import DeflectionProfile

        import checks
        import workloads

        self.beamgap, self.cli, self.DeflectionProfile = beamgap, cli, DeflectionProfile
        self.checks, self.workloads = checks, workloads
        self.tracer = None
        if trace:
            from tracing import Tracer

            self.tracer = Tracer()
            self.tracer.install()
            self.tracer.active = True  # set-up spans count towards model.build_s
        self.rounds = workloads.rounds(workload, seed)
        self.workdir = OUT / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = FieldWorkload(self) if workload == "field_eval" else RunWorkload(self)

    def write_config(self, index: int, cfg: dict) -> Path:
        path = self.workdir / f"config_{index}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return path

    def next_round(self) -> list:
        return self.workload.prepare(next(self.rounds))

    def close(self) -> None:
        if self.tracer:
            self.tracer.active = False
            self.tracer.uninstall()
        shutil.rmtree(self.workdir, ignore_errors=True)


class HostSpeed:
    """Timings of a fixed reference kernel (hostspeed.py), taken around every operation.

    The host's speed drifts by 20-30 % within a minute, in CPU time as much
    as in wall time, so raw times of two runs are not comparable. A time is
    therefore multiplied by REFERENCE_S over the median of the reference
    timings taken within WINDOW samples of it: every reported time is in
    seconds on a host where the reference kernel takes REFERENCE_S. The
    median over about ten samples (some 10 s of a run) follows the drift but
    not a single disturbed timing. The kernel runs in a helper process, only
    while this one waits for it.
    """

    REFERENCE_S = 0.04
    WINDOW = 4

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "hostspeed.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self.close()
            raise RuntimeError("reference kernel process did not start")
        self.samples: list[float] = []

    def sample(self) -> int:
        """Take one timing; returns its index."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        self.samples.append(float(self._proc.stdout.readline()))
        return len(self.samples) - 1

    def scale(self, first: int, last: int) -> float:
        """Factor for a time measured between samples ``first`` and ``last``."""
        near = self.samples[max(0, first - self.WINDOW) : last + 1 + self.WINDOW]
        return self.REFERENCE_S / statistics.median(near)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)


def setup_samples(args, own: float, speed: HostSpeed) -> list[tuple[float, int]]:
    """Set-up times of this process and of SETUP_SAMPLES - 1 fresh ones, each with a sample taken after it."""
    samples = [(own, speed.sample())]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]), speed.sample()))
    return samples


def measure(args) -> int:
    if not (SRC / "beamgap" / "__init__.py").is_file():
        print(f"benchmark: no package source under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, bool(args.trace))
    try:
        items = bench.next_round()
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return report(args, bench, items, setup_s)
    finally:
        bench.close()


def report(args, bench: Bench, items: list, setup_s: float) -> int:
    speed = HostSpeed()
    try:
        return measure_ops(args, bench, items, setup_s, speed)
    finally:
        speed.close()


def measure_ops(args, bench: Bench, items: list, setup_s: float, speed: HostSpeed) -> int:
    tracer, w = bench.tracer, bench.workload
    setups = [] if tracer else setup_samples(args, setup_s, speed)

    attempted = failed = 0
    correct = True
    ops: list[tuple[str, float, int, bool]] = []  # kind, seconds as measured, first sample, succeeded
    elapsed = 0.0
    while True:
        for item in items:
            kind = item[0].kind
            first = speed.sample()
            if tracer:
                tracer.begin_op(attempted)
            attempted += 1
            t = time.perf_counter()
            try:
                result = w.run(item)
                why = w.failure(result)
            except Exception as exc:  # an operation that raises counts as failed; the run goes on
                result, why = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t
            if tracer:
                tracer.end_op()
                tracer.active = False  # the reference kernel and the checks below are not part of any layer
            speed.sample()
            elapsed += dt
            ops.append((kind, dt, first, why is None))
            if why is not None:
                failed += 1
                print(f"operation {attempted} ({kind}) failed: {why}", file=sys.stderr)
            else:
                try:
                    w.check(item, result)
                except bench.checks.CheckError as exc:
                    correct = False
                    print(f"operation {attempted} ({kind}) wrong: {exc}", file=sys.stderr)
            result = None  # release the field before the next operation
            if tracer:
                tracer.active = True
        if elapsed >= args.seconds:
            break
        items = bench.next_round()

    scales = [speed.scale(first, first + 1) for _, _, first, _ in ops]
    for i, ((kind, dt, _, _), k) in enumerate(zip(ops, scales), 1):
        print(f"operation {i} ({kind}): {dt:.4f} s as measured, {dt * k:.4f} s scaled", file=sys.stderr)
    if tracer:
        tracer.active = False
        from tracing import wrapper_overhead_s

        overhead = wrapper_overhead_s()
        raw = tracer.metrics(overhead)
        scaled = tracer.metrics(overhead, scales, speed.scale(0, len(speed.samples)))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

        def e2e(setup: list[float], times: list[float]) -> dict:
            ok = [t for t, (_, _, _, good) in zip(times, ops) if good]
            return {
                "setup_s": (statistics.median(setup), "s"),
                "ops_per_s": (len(ok) / sum(times), "1/s"),
                "op_p50_s": (statistics.median(ok) if ok else 0.0, "s"),
                "peak_rss_mb": rss,
            }

        raw = e2e([t for t, _ in setups], [dt for _, dt, _, _ in ops])
        scaled = e2e([t * speed.scale(i, i) for t, i in setups], [dt * k for (_, dt, _, _), k in zip(ops, scales)])
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in scaled.items()}
    print(f"{args.workload:12s} reference kernel {statistics.median(speed.samples):.4f} s (median), nominal {speed.REFERENCE_S} s")
    for name, m in metrics.items():
        measured = f"  (as measured: {raw[name][0]:.6g})" if m["unit"] in ("s", "1/s") else ""
        print(f"{args.workload:12s} {name:32s} {m['value']:.6g} {m['unit']}{measured}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is that workload's alone."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"workload {workload} exited {done.returncode}", file=sys.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else measure(args)


if __name__ == "__main__":
    sys.exit(main())
