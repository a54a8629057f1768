"""discvar benchmark: time to a verified solution, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's operations from the seed (see workloads.py), then runs
passes over them in one process, one call at a time, until another pass
would overrun S seconds (at least one pass).  Every outcome goes through the
correctness gate (gate.py) outside the timing.  Typed solver failures
(NoConvergence, SingularJacobian, StepSolveFailed, ``discvar solve`` exit 2)
count as failed operations; an operation that reports success but fails the
gate also makes the run incorrect.

The report lines name every metric with its unit.  The last line is one JSON
object {"correct", "attempted", "failed", "metrics"} whose metrics are the
``end_to_end`` list of BENCHMARK.json with --trace 0 and its ``per_layer``
list with --trace 1.  A traced run makes one untraced pass first, then
traced passes (spans.py), and reports per-layer figures per traced pass plus
the standalone Lie-kernel rows (kernels.py).

End-to-end times are scaled to a reference host speed that a probe samples
while each operation runs (speed.py); the raw wall times are printed as
``raw.*`` report lines.  Set-up (a fresh interpreter's import of numpy and
discvar, then building the operations and one warm-up operation) is repeated
and its median reported.

--size smoke runs every workload at its smallest size (see smoke.py).
"""

import os

# must precede the first numpy import: BLAS runs on one thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
# cli.main hands DISCVAR_LOG to logging, which rejects an empty level
os.environ.pop("DISCVAR_LOG", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

import numpy as np  # noqa: E402

sys.path.insert(0, SRC)
import discvar  # noqa: E402

if not os.path.abspath(discvar.__file__).startswith(SRC + os.sep):
    raise ImportError(f"discvar must be imported from {SRC}, not {discvar.__file__}")

from discvar.errors import NoConvergence, SingularJacobian, StepSolveFailed  # noqa: E402

import gate  # noqa: E402
import kernels  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

TYPED_FAILURES = (NoConvergence, SingularJacobian, StepSolveFailed,
                  workloads.CliSolveFailed)
SETUP_REPEATS = 7
LAYERS = ("lie", "mech", "tboc", "lgoc", "solvers", "systems", "cli")
_SOLVERS = ("solvers.newton", "solvers.levenberg_marquardt")
_FD = "solvers.fd_jacobian"
_RESIDUALS = ("lgoc.general_residual", "tboc.optimality_residual")

# Times a fresh interpreter's import of numpy and discvar, then reads the
# host's speed with a few reference chunks (after one warm-up chunk).
_IMPORT_PROBE = """
import json, sys
from time import perf_counter
t0 = perf_counter()
import numpy
sys.path.insert(0, {src!r})
from discvar import cli, lgoc, lie, mech, solvers, systems, tboc
import_s = perf_counter() - t0
sys.path.insert(0, {here!r})
import speed
chunks = []
for _ in range(9):
    t0 = perf_counter()
    speed.reference_work()
    chunks.append(perf_counter() - t0)
print(json.dumps([import_s, chunks[1:]]))
"""


def import_seconds():
    """(raw, chunks) of one import of numpy and discvar in a fresh interpreter."""
    code = _IMPORT_PROBE.format(src=SRC, here=os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return json.loads(out.strip().splitlines()[-1])


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "cpus": len(os.sched_getaffinity(0)),
    }


class Pass:
    def __init__(self):
        self.op_s = []  # wall seconds per operation, reference chunks taken out
        self.chunks = []  # reference-chunk seconds per operation
        self.elapsed = 0.0
        self.failed = 0
        self.wrong = []
        self.steps = 0

    @property
    def wall(self):
        return sum(self.op_s)

    def scaled_op_s(self):
        return [speed.scaled(t, c) for t, c in zip(self.op_s, self.chunks)]


def run_op(op, tracer, record, probe=None):
    """Time one operation (sampling the host's speed if ``probe`` is given),
    gate its outcome and record it in ``record``."""
    failure = None
    t0 = perf_counter()
    with probe.sampling() if probe else contextlib.nullcontext([]) as chunks:
        try:
            outcome = op.run()
        except TYPED_FAILURES as exc:
            failure = exc
    elapsed = perf_counter() - t0
    record.elapsed += elapsed
    record.op_s.append(elapsed - sum(chunks))
    record.chunks.append(chunks)
    if failure is not None:
        record.failed += 1
        print(f"failed {op.name}: {type(failure).__name__}: {failure}", file=sys.stderr)
        return
    record.steps += op.steps
    with tracer.paused():
        failures = gate.evaluate(op, outcome)
    if failures:
        record.failed += 1
        record.wrong.append(f"{op.name}: {'; '.join(failures)}")


def run_passes(workload, tracer, seconds, elapsed=0.0, probe=None):
    """Passes until another pass would take the measured time past ``seconds``."""
    passes = []
    while True:
        record = Pass()
        for op in workload.ops:
            run_op(op, tracer, record, probe)
        passes.append(record)
        elapsed += record.elapsed
        if elapsed + record.elapsed > seconds:
            return passes


def percentiles(samples):
    """Median plus each higher percentile that has at least ten samples above it."""
    out = {"op_s.p50": statistics.median(samples)}
    for q in (90, 99):
        if len(samples) * (100 - q) / 100 >= 10:
            out[f"op_s.p{q}"] = statistics.quantiles(samples, n=100)[q - 1]
    return out


def end_to_end(passes, names, setup_s, setup_raw_s):
    """Times at the reference speed (speed.py), plus the raw wall times."""
    op_s = [t for p in passes for t in p.scaled_op_s()]
    wall = statistics.fmean(sum(p.scaled_op_s()) for p in passes)
    attempted = sum(len(p.op_s) for p in passes)
    m = {"wall_s": (wall, "s")}
    m.update({k: (v, "s") for k, v in percentiles(op_s).items()})
    m["op_s.samples"] = (len(op_s), "count")
    m["fail_frac"] = (sum(p.failed for p in passes) / attempted, "1")
    if passes[0].steps:
        m["steps_per_s"] = (passes[0].steps / wall, "1/s")
    for i, op_name in enumerate(names):
        m[f"op.{op_name}_s"] = (
            statistics.median(p.scaled_op_s()[i] for p in passes), "s")
    m["setup_s"] = (setup_s, "s")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    m["passes"] = (len(passes), "count")
    chunks = [c for p in passes for cs in p.chunks for c in cs]
    m["raw.wall_s"] = (statistics.fmean(p.wall for p in passes), "s")
    m["raw.op_s.p50"] = (statistics.median(t for p in passes for t in p.op_s), "s")
    m["raw.setup_s"] = (setup_raw_s, "s")
    m["speed.chunk_ms"] = (statistics.fmean(chunks) * 1e3, "ms")
    m["speed.chunks"] = (len(chunks), "count")
    return m


def per_layer(totals, n_passes, traced_wall, overhead_s):
    t, P = totals, n_passes
    jac = t.calls[_FD]

    def per_call_ms(name):
        return t.incl[name] / t.calls[name] * 1e3 if t.calls[name] else 0.0

    m = {
        "solvers.jac_builds": (jac / P, "count"),
        "solvers.jac_s": (t.incl[_FD] / P, "s"),
        "solvers.jac_share": (100.0 * t.incl[_FD] / traced_wall, "%"),
        "solvers.resid_per_jac": (
            t.children_of({_FD}, _RESIDUALS) / jac if jac else 0.0, "count"),
        "solvers.self_s": (sum(t.self_s[n] for n in _SOLVERS) / P, "s"),
        "solvers.newton_entries": (t.calls["solvers.newton"] / P, "count"),
        "solvers.lm_entries": (t.calls["solvers.levenberg_marquardt"] / P, "count"),
        "solvers.fallbacks": (sum(t.errors[n] for n in _SOLVERS) / P, "count"),
        "solvers.failed_jac_builds": (
            t.children_of(_SOLVERS, {_FD}, failed_parents_only=True) / P, "count"),
        "lgoc.residual_calls": (t.calls["lgoc.general_residual"] / P, "count"),
        "lgoc.residual_ms": (per_call_ms("lgoc.general_residual"), "ms"),
        "lgoc.integrate_s": (t.incl["lgoc.integrate_reduced"] / P, "s"),
        "tboc.residual_calls": (t.calls["tboc.optimality_residual"] / P, "count"),
        "tboc.residual_ms": (per_call_ms("tboc.optimality_residual"), "ms"),
        "mech.lagrangian_calls": (t.calls["mech.lagrangian"] / P, "count"),
        "mech.lagrangian_s": (t.incl["mech.lagrangian"] / P, "s"),
        "mech.integrate_s": (t.incl["mech.integrate"] / P, "s"),
        "systems.cost_s": (t.incl["systems.cost"] / P, "s"),
        "systems.drift_s": (t.incl["systems.drift"] / P, "s"),
        "systems.potential_s": (t.incl["systems.potential"] / P, "s"),
        "cli.self_s": (t.self_s["cli.main"] / P, "s"),
        "cli.verify_s": (t.incl["cli.verify"] / P, "s"),
    }
    for fn in spans.LIE_FNS:
        name = f"lie.{fn}"
        calls = t.calls[name]
        m[f"{name}.calls"] = (calls / P, "count")
        m[f"{name}.s"] = (t.self_s[name] / P, "s")
        m[f"{name}.elems_per_call"] = (t.elems[name] / calls if calls else 0.0, "count")
    for layer in LAYERS:
        m[f"{layer}.self_share"] = (100.0 * t.layer_self(layer) / traced_wall, "%")
    m["trace.overhead_s"] = (overhead_s, "s")
    m["trace.passes"] = (P, "count")
    return m


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    spec = benchmark_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]

    print("env " + json.dumps(environment(), sort_keys=True))
    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        probe = speed.Probe()
        warm = Pass()
        setup_raw, setup = [], []
        for _ in range(SETUP_REPEATS):
            import_s, import_chunks = import_seconds()
            t0 = perf_counter()
            with probe.sampling() as chunks:
                workload = workloads.build(args.workload, args.seed, args.size, workdir)
                run_op(workload.warmup, tracer, warm)
            build_s = perf_counter() - t0 - sum(chunks)
            setup_raw.append(import_s + build_s)
            setup.append(speed.scaled(import_s, import_chunks)
                         + speed.scaled(build_s, chunks))
        setup_raw_s, setup_s = statistics.median(setup_raw), statistics.median(setup)

        if not args.trace:
            passes = run_passes(workload, tracer, args.seconds, probe=probe)
            metrics = end_to_end(passes, [op.name for op in workload.ops], setup_s,
                                 setup_raw_s)
        else:
            baseline = run_passes(workload, tracer, 0.0)
            with tracer.installed():
                tracer.enabled = True
                passes = run_passes(workload, tracer, args.seconds, baseline[0].wall)
            traced_wall = sum(p.wall for p in passes)
            overhead = statistics.median(p.wall for p in passes) - baseline[0].wall
            metrics = per_layer(spans.Totals(tracer.spans), len(passes), traced_wall,
                                overhead)
            metrics.update((k, (v, "us")) for k, v in kernels.measure().items())
            passes = baseline + passes

    wrong = warm.wrong + [w for p in passes for w in p.wrong]
    for line in wrong:
        print(f"incorrect {line}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"metric {args.workload} {name} = {value!r} {unit}")
    missing = [d["name"] for d in declared if d["name"] not in metrics]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(len(p.op_s) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {d["name"]: {"value": metrics[d["name"]][0],
                                "unit": metrics[d["name"]][1]} for d in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
