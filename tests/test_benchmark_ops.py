"""The benchmark's ops at full size, seed 901, as perfbench/workloads.py
builds them: the lgoc solves end with the same method, iteration count and
cost, and drawn-2 still fails; every simulate op passes the benchmark's
correctness gate."""

import os
import sys

import pytest

from discvar.errors import NoConvergence

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# op -> (method, iterations, cost); None where the solve ends in NoConvergence
OUTCOMES = {
    "ocp-group": {
        "rb-cay": ("newton", 4, 4.652989632553596),
        "rb-exp": ("newton", 4, 4.991009955026449),
        "heavy-top": ("newton", 4, 4.765663988905182),
    },
    "ocp-under": {
        "test-target": ("newton", 10, 4.469772128591645),
        "drawn-1": ("newton", 12, 16.387065821021427),
        "drawn-2": None,
    },
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    yield workloads
    for name in ("workloads", "gate"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", list(OUTCOMES))
def test_benchmark_lgoc_ops_keep_their_outcome(workload, workloads, tmp_path):
    ops = {op.name: op for op in workloads.build(workload, 901, "full", str(tmp_path)).ops}
    for name, outcome in OUTCOMES[workload].items():
        if outcome is None:
            with pytest.raises(NoConvergence):
                ops[name].run()
            continue
        sol = ops[name].run()
        method, iterations, cost = outcome
        assert (sol.report.method, sol.report.iterations) == (method, iterations), name
        assert sol.report.converged
        assert sol.cost == pytest.approx(cost, rel=1e-9), name


@pytest.mark.parametrize("name", ["rb-cay-free", "rb-exp-free", "uuv-forced", "pm-forced"])
def test_benchmark_simulate_ops_pass_the_gate(name, workloads, tmp_path):
    # free-body momentum and energy, forced DEL continuity: an integrator
    # change fails here before the benchmark calls its outputs incorrect
    ops = {op.name: op for op in workloads.build("simulate", 901, "full", str(tmp_path)).ops}
    op = ops[name]
    assert sys.modules["gate"].evaluate(op, op.run()) == []
