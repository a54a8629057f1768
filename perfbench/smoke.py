"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smallest size, untraced and traced, and checks
that each run prints every metric named below and in BENCHMARK.json with its
unit, and ends in a well-formed result line.  Then checks that the
correctness gate rejects deliberately perturbed outcomes.  Exits non-zero on
the first failed check.
"""

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

import run  # pins BLAS threads and imports discvar from the checkout
import gate
import kernels
import spans
import workloads

END_TO_END = {"wall_s": "s", "op_s.p50": "s", "fail_frac": "1", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "solvers.jac_builds": "count", "solvers.jac_s": "s",
    "solvers.resid_per_jac": "count", "solvers.self_s": "s",
    "solvers.fallbacks": "count", "solvers.failed_jac_builds": "count",
    "solvers.newton_entries": "count", "solvers.lm_entries": "count",
    "lgoc.residual_calls": "count", "lgoc.residual_ms": "ms",
    "lgoc.integrate_s": "s", "tboc.residual_calls": "count",
    "tboc.residual_ms": "ms", "mech.lagrangian_calls": "count",
    "mech.lagrangian_s": "s", "mech.integrate_s": "s",
    "systems.cost_s": "s", "systems.drift_s": "s", "systems.potential_s": "s",
    "cli.self_s": "s", "cli.verify_s": "s", "trace.overhead_s": "s",
}
PER_LAYER.update({f"lie.{fn}.{k}": u for fn in spans.LIE_FNS
                  for k, u in (("calls", "count"), ("s", "s"),
                               ("elems_per_call", "count"))})
PER_LAYER.update({name: "us" for name in kernels.row_names()})


def fail(message):
    print(f"smoke: FAIL {message}", file=sys.stderr)
    sys.exit(1)


def check_run(name, trace, spec):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "perfbench", "run.py"),
         "--workload", name, "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        fail(f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{name} trace={trace}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        fail(f"{name} trace={trace}: {lines[-1]}\n{proc.stderr}")
    declared = spec["per_layer" if trace else "end_to_end"]
    printed = {d["name"]: d["unit"] for d in declared}
    if {k: v["unit"] for k, v in result["metrics"].items()} != printed:
        fail(f"{name} trace={trace}: result metrics differ from BENCHMARK.json")
    reported = {}
    for line in lines[:-1]:
        words = line.split()
        if words[:2] == ["metric", name] and len(words) == 6:
            reported[words[2]] = words[5]
    expected = dict(PER_LAYER if trace else END_TO_END)
    if name == "simulate" and not trace:
        expected["steps_per_s"] = "1/s"
    expected.update(printed)
    wrong = {k: (u, reported.get(k)) for k, u in expected.items() if reported.get(k) != u}
    if wrong:
        fail(f"{name} trace={trace}: metric (unit, printed unit) {wrong}")
    print(f"smoke: ok {name} trace={trace}: {len(reported)} metrics, "
          f"{result['attempted']} ops, {result['failed']} failed")


def bumped(a, delta):
    """Copy of ``a`` with the entries of its second row moved by ``delta``."""
    out = a.copy()
    out[1] += delta
    return out


def check_gate_rejects(workdir):
    """Perturbed solutions and integrations must fail the gate."""
    group = workloads.build("ocp-group", 7, "smoke", workdir)
    flat = workloads.build("ocp-flat", 7, "smoke", workdir)
    sim = workloads.build("simulate", 7, "smoke", workdir)
    lie_op, rn_op, body_op = group.ops[0], flat.ops[0], sim.ops[0]
    sol, rn_sol, (gs, xis, mus) = lie_op.run(), rn_op.run(), body_op.run()
    cases = [
        ("lgoc solution", lie_op, sol, dataclasses.replace(sol, xis=bumped(sol.xis, 1e-4))),
        ("tboc solution", rn_op, rn_sol, dataclasses.replace(rn_sol, qs=bumped(rn_sol.qs, 1e-4))),
        ("cost", dataclasses.replace(lie_op, ref=lie_op.ref * (1.0 + 1e-5)), sol, sol),
        ("free body", body_op, (gs, xis, mus), (gs, xis, bumped(mus, 1e-9))),
    ]
    for label, op, good, bad in cases:
        if label != "cost" and gate.evaluate(op, good):
            fail(f"gate rejects the unperturbed {label}: {gate.evaluate(op, good)}")
        found = gate.evaluate(op, bad)
        if not found:
            fail(f"gate accepts a perturbed {label}")
        print(f"smoke: ok gate rejects perturbed {label}: {found[0]}")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            check_run(name, trace, spec)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        check_gate_rejects(workdir)
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
