"""The benchmark's ops at full size, as perfbench/workloads.py builds them:
the lgoc and tboc solves end with the same method, iteration count and cost
at seeds 901 and 5301, and drawn-2 still fails; the ocp-under ops keep their
residual passes, so no stacked pass falls back to rows; every simulate op passes the
benchmark's correctness gate, the point mass's windows take one update each,
the group marches keep their windows and evaluations and build an operator
only when Newton needs a new one, and they are bitwise those of the general
window linearization; the point mass makes no scan call, and only the
forced group march scans its momentum carry."""

import os
import sys

import pytest

from discvar.errors import NoConvergence, SingularJacobian

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")

# op -> (method, iterations, cost); None where the solve ends in NoConvergence.
# Each seed's image of a problem is the same problem up to rounding, so both
# seeds give these outcomes
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
    "ocp-flat": {
        "pm1-N64": ("newton", 1, 5.997071742313324),
        "pm3-N16": ("newton", 1, 17.86046511627907),
    },
}


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    yield workloads
    for name in ("workloads", "gate"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("seed", [901, 5301])
@pytest.mark.parametrize("workload", list(OUTCOMES))
def test_benchmark_solve_ops_keep_their_outcome(workload, seed, workloads, tmp_path):
    ops = {op.name: op for op in workloads.build(workload, seed, "full", str(tmp_path)).ops}
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


def _newton_attempts(workloads, tmp_path, seed, newton, monkeypatch):
    """The ocp-under ops run with ``newton`` as lgoc's: per op, its outcome
    and every Newton attempt's report."""
    from discvar import lgoc

    attempts = []

    def logged(*args, **kwargs):
        try:
            point, report = newton(*args, **kwargs)
        except (NoConvergence, SingularJacobian) as exc:
            attempts.append(exc.report)
            raise
        attempts.append(report)
        return point, report

    monkeypatch.setattr(lgoc, "newton", logged)
    out = {}
    for op in workloads.build("ocp-under", seed, "full", str(tmp_path)).ops:
        attempts.clear()
        try:
            sol = op.run()
            outcome = ("ok", sol.xis.tobytes(), sol.cost)
        except NoConvergence as exc:
            outcome = ("NoConvergence", exc.best_x.tobytes(), exc.best_residual)
        out[op.name] = (outcome, list(attempts))
    return out


@pytest.mark.parametrize("seed", [901, 5301])
def test_ocp_under_newton_accepts_the_steps_of_the_sequential_search(seed, workloads, tmp_path,
                                                                     monkeypatch):
    # Newton's stacked trial steps against the search that evaluated them
    # one at a time: every attempt accepts the same iterates, bitwise, so
    # the residual histories, methods, iteration counts and outcomes agree;
    # the stacks evaluate more points in fewer passes
    from test_solvers import sequential_newton

    from discvar import solvers

    new = _newton_attempts(workloads, tmp_path, seed, solvers.newton, monkeypatch)
    sequential = _newton_attempts(workloads, tmp_path, seed, sequential_newton, monkeypatch)
    assert list(new) == ["test-target", "drawn-1", "drawn-2"]
    for name, (outcome, attempts) in new.items():
        expected, expected_attempts = sequential[name]
        assert outcome == expected, name
        assert len(attempts) == len(expected_attempts) == 1
        a, b = attempts[0], expected_attempts[0]
        assert (a.method, a.iterations, a.converged) == (b.method, b.iterations, b.converged)
        assert a.residual_history == b.residual_history, name
        assert a.residual_passes < b.residual_evaluations == b.residual_passes
        assert a.residual_evaluations > b.residual_evaluations


# ocp-under op -> (method, residual passes, residual evaluations) of each
# attempt, in order: auto runs Newton, then LM from the guess when Newton
# fails.  Both seeds give these counts.  A stacked pass that raises falls
# back to evaluating its rows one at a time, each a pass of its own, with
# the same residuals, so only these counts show it.  drawn-2's 46 passes are
# its two attempts' 25 and 21
PASSES = {
    "test-target": [("newton", 19, 73)],
    "drawn-1": [("newton", 20, 38)],
    "drawn-2": [("newton", 25, 61), ("levenberg_marquardt", 21, 21)],
}


@pytest.mark.parametrize("seed", [901, 5301])
def test_ocp_under_ops_keep_their_residual_passes(seed, workloads, tmp_path, monkeypatch):
    from discvar import lgoc

    attempts = []

    def record(report):
        attempts.append((report.method, report.residual_passes, report.residual_evaluations))

    def logged(attempt):
        def run(*args, **kwargs):
            try:
                point, report = attempt(*args, **kwargs)
            except (NoConvergence, SingularJacobian) as exc:
                record(exc.report)
                raise
            record(report)
            return point, report

        return run

    for name in ("newton", "levenberg_marquardt"):
        monkeypatch.setattr(lgoc, name, logged(getattr(lgoc, name)))
    passes = {}
    for op in workloads.build("ocp-under", seed, "full", str(tmp_path)).ops:
        attempts.clear()
        try:
            op.run()
        except NoConvergence:
            pass
        passes[op.name] = list(attempts)
    assert passes == PASSES


@pytest.mark.parametrize("name", ["rb-cay-free", "rb-exp-free", "uuv-forced", "pm-forced"])
def test_benchmark_simulate_ops_pass_the_gate(name, workloads, tmp_path):
    # free-body momentum and energy, forced DEL continuity: an integrator
    # change fails here before the benchmark calls its outputs incorrect
    ops = {op.name: op for op in workloads.build("simulate", 901, "full", str(tmp_path)).ops}
    op = ops[name]
    assert sys.modules["gate"].evaluate(op, op.run()) == []


def test_benchmark_point_mass_windows_take_one_update(workloads, tmp_path, monkeypatch):
    # pm-forced's DEL is linear: in the velocity coordinates of the window's
    # update every window of the op converges in one update
    from discvar import solvers

    ops = {op.name: op for op in workloads.build("simulate", 901, "full", str(tmp_path)).ops}
    windows = []
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((len(x), out[1], out[2]))
        return out

    monkeypatch.setattr(solvers, "window_newton", window)
    ops["pm-forced"].run()
    assert len(windows) == 40
    assert all(updates == 1 and solved == size for size, updates, solved in windows)


# op -> (windows, evaluations) at seed 901: the windows and the residual
# evaluations of Newton's method on them
WINDOWS = {
    "rb-cay-free": (16, 79),
    "rb-exp-free": (8, 39),
    "uuv-forced": (8, 46),
    "pm-forced": (40, 80),
}
# group op -> the operators its march may build, the commits' included; a
# build for every evaluation would make 79, 39 and 46
MOST_BUILDS = {"rb-cay-free": 48, "rb-exp-free": 24, "uuv-forced": 36}


@pytest.mark.parametrize("name", list(MOST_BUILDS))
def test_benchmark_group_marches_build_operators_only_when_needed(name, workloads, tmp_path,
                                                                   monkeypatch):
    # one dtau_inv_matrix call per evaluation and one dtau_inv_deriv_along
    # call per operator built; nothing forms dtau_inv's derivative tensor
    from discvar import lie, solvers

    ops = {op.name: op for op in workloads.build("simulate", 901, "full", str(tmp_path)).ops}
    calls, windows = [], []

    def count(name):
        original = getattr(lie.GroupSpec, name)

        def counted(self, *args):
            calls.append(name)
            return original(self, *args)

        monkeypatch.setattr(lie.GroupSpec, name, counted)

    for kernel in ("dtau_inv_matrix", "dtau_inv_deriv_along", "dtau_inv_deriv"):
        count(kernel)
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append(out[1] + 1)
        return out

    monkeypatch.setattr(solvers, "window_newton", window)
    ops[name].run()
    assert (len(windows), sum(windows)) == WINDOWS[name]
    # the march's start forms mu_0 through one more dtau_inv_matrix call
    assert calls.count("dtau_inv_matrix") == WINDOWS[name][1] + 1
    assert 0 < calls.count("dtau_inv_deriv_along") <= MOST_BUILDS[name]
    assert "dtau_inv_deriv" not in calls


@pytest.mark.parametrize("name", list(WINDOWS))
def test_benchmark_marches_keep_their_windows_and_scans(name, workloads, tmp_path, monkeypatch):
    # the point mass's window update and its commit are cumulative sums and
    # make no scan call; a group march forms one scan's maps per operator
    # it builds, and a forced one one more per window it commits, for its
    # momentum carry, which the free bodies make step by step
    from discvar import lie, solvers

    ops = {op.name: op for op in workloads.build("simulate", 901, "full", str(tmp_path)).ops}
    calls, windows = [], []

    def counted(owner, attr):
        original = getattr(owner, attr)

        def count(*args):
            calls.append(attr)
            return original(*args)

        monkeypatch.setattr(owner, attr, count)

    for scan in ("scan_maps", "scan_apply"):
        counted(solvers, scan)
    counted(lie.GroupSpec, "dtau_inv_deriv_along")
    window_newton = solvers.window_newton

    def window(x, linearize):
        out = window_newton(x, linearize)
        windows.append((out[1] + 1, bool(out[2])))
        return out

    monkeypatch.setattr(solvers, "window_newton", window)
    ops[name].run()
    assert (len(windows), sum(evaluations for evaluations, _ in windows)) == WINDOWS[name]
    builds = calls.count("dtau_inv_deriv_along")
    commits = sum(committed for _, committed in windows)
    if name == "pm-forced":
        assert calls == []
    elif name == "uuv-forced":
        assert calls.count("scan_maps") == builds + commits
    else:
        assert calls.count("scan_maps") == builds


@pytest.mark.parametrize("seed", [901, 5301])
@pytest.mark.parametrize("name", ["rb-cay-free", "rb-exp-free", "uuv-forced"])
def test_benchmark_group_marches_linearize_their_start_bitwise(name, seed, workloads, tmp_path,
                                                                monkeypatch):
    # each window's first linearization works from the one velocity it
    # starts at; handed a copy of that start, every window takes the general
    # path at its 2W-1 points, and the march's gs, xis and mus are the same
    # bytes
    from discvar import lgoc, solvers

    ops = {op.name: op for op in workloads.build("simulate", seed, "full", str(tmp_path)).ops}
    constant, windows = [], []
    window_system, window_newton = lgoc._window_system, solvers.window_newton

    def recorded(*args):
        constant.append(args[-1])
        return window_system(*args)

    def window(x, linearize):
        windows.append(len(x))
        return window_newton(x, linearize)

    monkeypatch.setattr(lgoc, "_window_system", recorded)
    monkeypatch.setattr(solvers, "window_newton", window)
    got = ops[name].run()
    assert constant.count(True) == len(windows) >= 8
    monkeypatch.setattr(solvers, "window_newton",
                        lambda x, linearize: window_newton(x.copy(), linearize))
    constant.clear()
    expected = ops[name].run()
    assert constant and not any(constant)
    for a, b in zip(got, expected):
        assert a.tobytes() == b.tobytes()
