"""The benchmark's workloads: operation lists built from a seed.

Every operation is one closed-loop call into discvar's public API (the next
one starts when the previous returns).  The seed picks a symmetry image of
each base problem: a random left translation of the boundary configurations
(the rigid body and the vehicle are left-invariant; the heavy top only about
the spatial vertical), a half-turn about a body principal axis for the rigid
body (it preserves the diagonal inertia, the actuated axis set and the
heavy-top potential), the mirror y -> -y for the vehicle, and a translation
and per-axis reflection for the point mass.  Images of one base problem are
the same problem to the solver up to rounding, so different seeds give
different inputs that cost the same work and have the same optimal cost.
Integrations work the same way: their base initial velocities and controls
are fixed, and the seed picks the initial configuration (a left translation
for the free body and the vehicle, whose drift acts on body velocities) and
the half-turn or per-axis reflection image of the rest.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from discvar import cli, lgoc, lie, mech, systems, tboc

import gate

WORKLOADS = ("ocp-group", "ocp-under", "ocp-flat", "simulate")

_REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                               "reference.json")

# half-turns about the body principal axes, as sign patterns on so(3)
_HALF_TURNS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], float)

_RB_INERTIA = (1.0, 2.0, 3.0)
_RB_TARGET = np.array([0.3, -0.2, 0.6])

# The underactuated-test target, then two targets drawn once (unit normal
# direction, angle uniform in 0.2-0.8 rad) and kept fixed.  When the
# references were recorded the first two converged (through the LM -> Newton
# fallback) and the third ended in NoConvergence.
_UNDER_TARGETS = (
    ("test-target", np.array([0.5, 0.2, 0.0])),
    ("drawn-1", np.array([-0.268, -0.025, -0.144])),
    ("drawn-2", np.array([-0.235, 0.158, 0.571])),
)

SIZES = {
    "full": {
        "group_N": (32, 16, 16), "group_h": (0.05, 0.1, 0.1), "uuv_N": 8,
        "under_N": 8, "under_h": 0.2, "under_max_iter": 12,
        "under_targets": 3,
        "flat": ((1, 64), (3, 16), (3, 32)),
        "sim_steps": (2000, 1000, 1000, 5000),
    },
    "smoke": {
        "group_N": (4, 4, 4), "group_h": (0.25, 0.25, 0.25), "uuv_N": 4,
        "under_N": 4, "under_h": 0.4, "under_max_iter": 2,
        "under_targets": 1,
        "flat": ((1, 4), (3, 4), (3, 4)),
        "sim_steps": (20, 20, 20, 20),
    },
}


class CliSolveFailed(Exception):
    """``discvar solve`` exited with code 2: a typed solve failure."""


@dataclass
class Op:
    """One operation: ``run`` is the timed call into discvar; ``check`` is the
    correctness gate applied to its outcome (a list of failed checks);
    ``cost`` recovers the optimal cost, which must match ``ref``."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    cost: Optional[Callable[[object], float]] = None
    ref: Optional[float] = None
    steps: int = 0


@dataclass
class Workload:
    name: str
    ops: list
    warmup: Op


def load_reference():
    with open(_REFERENCE_PATH) as fh:
        return json.load(fh)


def _rotation(rng):
    return lie.so3(lie.EXPONENTIAL).tau(rng.normal(size=3))


def _half_turn(rng):
    return _HALF_TURNS[rng.integers(len(_HALF_TURNS))]


def _lie_op(name, problem, tol, ref, **solve_kw):
    def run():
        return lgoc.solve(problem, tol=tol, **solve_kw)

    return Op(name, run,
              check=lambda sol: gate.check_lie(problem, sol.xis, sol.nus[1:-1],
                                               sol.lambdas, tol),
              cost=lambda sol: gate.effort_cost(problem.h, sol.controls), ref=ref)


def _rn_op(name, problem, tol, ref):
    def run():
        return tboc.solve(problem, tol=tol)

    return Op(name, run,
              check=lambda sol: gate.check_rn(problem, sol.qs, sol.ps,
                                              sol.lambdas, sol.controls, tol),
              cost=lambda sol: gate.effort_cost(problem.h, sol.controls), ref=ref)


def _cli_op(name, workdir, cfg, ref):
    """``discvar solve`` then ``discvar verify`` on a config file, in process."""
    path = os.path.join(workdir, name + ".json")
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    out = os.path.join(workdir, name)
    kind, problem = cli.build_setup(cfg)
    tol = cfg["solver"]["tol"]

    def run():
        # verify prints its checks; keep stdout for the benchmark's report
        with contextlib.redirect_stdout(sys.stderr):
            code = cli.main(["solve", path, "--out", out])
            if code == 2:
                raise CliSolveFailed(f"discvar solve {name} exited with code 2")
            if code != 0:
                raise RuntimeError(f"discvar solve {name} exited with code {code}")
            return cli.main(["verify", path, out])

    def check(verify_code):
        failures = [] if verify_code == 0 else [f"verify exited {verify_code}"]
        return failures + gate.check_artifacts(kind, problem, out, tol)

    def cost(_):
        return gate.effort_cost(problem.h, gate.read_artifacts(kind, problem, out)[-1])

    return Op(name, run, check, cost, ref)


def _element(g):
    return {"rotation": g[:3, :3].tolist(), "translation": g[:3, 3].tolist()}


# ---------------------------------------------------------------------------
# ocp-group
# ---------------------------------------------------------------------------

def _ocp_group(rng, size, refs, workdir):
    N, h = size["group_N"], size["group_h"]
    ops = []
    cases = (
        ("rb-cay", lie.CAYLEY, None),
        ("rb-exp", lie.EXPONENTIAL, None),
        ("heavy-top", lie.CAYLEY, systems.HeavyTopPotential(1.0)),
    )
    for (name, retraction, potential), Nk, hk in zip(cases, N, h):
        system = systems.make_rigid_body_so3(_RB_INERTIA, actuated=(0, 1, 2),
                                             retraction=retraction,
                                             potential=potential)
        if potential is None:
            g0 = _rotation(rng)
        else:
            g0 = lie.so3(lie.EXPONENTIAL).tau(np.array([0.0, 0.0, rng.uniform(-np.pi, np.pi)]))
        target = system.group.tau(_half_turn(rng) * _RB_TARGET)
        problem = lgoc.OcProblemLie(
            system=system, g0=g0, xi0=np.zeros(3), gT=g0 @ target,
            xiT=np.zeros(3), N=Nk, h=hk, cost=systems.L2Cost(),
        )
        ops.append(_lie_op(name, problem, 1e-9, refs.get(name)))

    # the vehicle config of the CLI tests, mirrored y -> -y on half the draws
    uuv_N = size["uuv_N"]
    angle = np.pi / 6.0 * rng.choice([-1.0, 1.0])
    se3 = lie.se3()
    target = np.eye(4)
    target[:3, :3] = lie.so3(lie.EXPONENTIAL).tau(np.array([0.0, 0.0, angle]))
    target[:3, 3] = [1.0, 0.0, 0.0]
    g0 = np.eye(4)
    g0[:3, :3] = _rotation(rng)
    g0[:3, 3] = rng.uniform(-1.0, 1.0, size=3)
    cfg = {
        "system": {"type": "uuv_se3"},
        "problem": {"N": uuv_N, "h": 4.0 / uuv_N,
                    "boundary": {"g0": _element(g0),
                                 "gT": _element(se3.multiply(g0, target))}},
        "solver": {"method": "lm", "tol": 1e-6, "max_iter": 60},
    }
    ops.append(_cli_op("uuv-cli", workdir, cfg, refs.get("uuv-cli")))
    return ops


# ---------------------------------------------------------------------------
# ocp-under
# ---------------------------------------------------------------------------

def _ocp_under(rng, size, refs, workdir):
    system = systems.make_rigid_body_so3(_RB_INERTIA, actuated=(0, 1))
    ops = []
    for name, target in _UNDER_TARGETS[: size["under_targets"]]:
        g0 = _rotation(rng)
        problem = lgoc.OcProblemLie(
            system=system, g0=g0, xi0=np.zeros(3),
            gT=g0 @ system.group.tau(_half_turn(rng) * target), xiT=np.zeros(3),
            N=size["under_N"], h=size["under_h"], cost=systems.L2Cost(),
        )
        ops.append(_lie_op(name, problem, 1e-7, refs.get(name), method="auto",
                           max_iter=size["under_max_iter"]))
    return ops


# ---------------------------------------------------------------------------
# ocp-flat
# ---------------------------------------------------------------------------

def _ocp_flat(rng, size, refs, workdir):
    ops = []
    for i, (n, N) in enumerate(size["flat"]):
        h = 1.0 / N
        x0 = rng.uniform(-1.0, 1.0, size=n)
        xT = x0 + rng.choice([-1.0, 1.0], size=n)
        name = f"pm{n}-N{N}" + ("-cli" if i == 2 else "")
        if i == 2:
            cfg = {
                "system": {"type": "point_mass", "n": n},
                "problem": {"N": N, "h": h,
                            "boundary": {"x0": x0.tolist(), "p0": [0.0] * n,
                                         "xT": xT.tolist(), "pT": [0.0] * n}},
                "solver": {"tol": 1e-9},
            }
            ops.append(_cli_op(name, workdir, cfg, refs.get(name)))
            continue
        lagrangian, forces = systems.make_point_mass(n, h=h)
        problem = tboc.OcProblemRn(
            lagrangian=lagrangian, forces=forces,
            cost=tboc.QuadraticControlCost(h),
            x0=x0, p0=np.zeros(n), xT=xT, pT=np.zeros(n), N=N,
        )
        ops.append(_rn_op(name, problem, 1e-9, refs.get(name)))
    return ops


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def _free_body_op(name, retraction, steps, rng):
    system = systems.make_rigid_body_so3(_RB_INERTIA, actuated=(0, 1, 2),
                                         retraction=retraction)
    g0 = _rotation(rng)
    w0 = _half_turn(rng) * np.array([0.2, 1.0, -0.5])

    def run():
        return lgoc.integrate_reduced(system, g0, w0, 0.01, steps)

    return Op(name, run, check=lambda out: gate.check_free_body(system, *out),
              steps=steps)


# base velocities and controls of the forced integrations, drawn once
_FORCED_BASE_SEED = 20120303


def _forced_uuv_op(steps, rng):
    system = systems.make_uuv_system()
    base = np.random.default_rng(_FORCED_BASE_SEED)
    xi0 = 0.1 * base.normal(size=6)
    controls = 0.1 * base.normal(size=(steps, 2, system.m))
    g0 = np.eye(4)
    g0[:3, :3] = _rotation(rng)
    g0[:3, 3] = rng.uniform(-1.0, 1.0, size=3)
    h = 0.05

    def run():
        return lgoc.integrate_reduced(system, g0, xi0, h, steps, controls=controls)

    return Op("uuv-forced", run,
              check=lambda out: gate.check_forced_lie(system, h, out[1], controls),
              steps=steps)


def _forced_point_mass_op(steps, rng):
    # Oscillating controls u = A sin(w t + phi) with the initial velocity that
    # cancels their mean: the mass stays within a few units of q0.  (Under
    # white-noise forcing |q| random-walks until mech.integrate's absolute
    # 1e-12 step tolerance falls below rounding and the step raises
    # StepSolveFailed.)
    n, h = 3, 0.01
    lagrangian, forces = systems.make_point_mass(n, h=h)
    base = np.random.default_rng(_FORCED_BASE_SEED)
    amp = base.uniform(0.5, 1.5, size=n)
    omega = base.uniform(1.0, 3.0, size=n)
    phase = base.uniform(0.0, 2.0 * np.pi, size=n)
    sign = rng.choice([-1.0, 1.0], size=n)
    t = h * (np.arange(steps)[:, None, None] + np.array([0.0, 1.0])[None, :, None])
    controls = sign * amp * np.sin(omega * t + phase)
    q0 = rng.uniform(-1.0, 1.0, size=n)
    q1 = q0 - h * sign * amp * np.cos(phase) / omega

    def run():
        return mech.integrate(lagrangian, forces, q0, q1, steps, controls=controls)

    return Op("pm-forced", run,
              check=lambda qs: gate.check_forced_rn(lagrangian, forces, qs, controls),
              steps=steps)


def _simulate(rng, size, refs, workdir):
    s_cay, s_exp, s_uuv, s_pm = size["sim_steps"]
    return [
        _free_body_op("rb-cay-free", lie.CAYLEY, s_cay, rng),
        _free_body_op("rb-exp-free", lie.EXPONENTIAL, s_exp, rng),
        _forced_uuv_op(s_uuv, rng),
        _forced_point_mass_op(s_pm, rng),
    ]


_BUILDERS = {
    "ocp-group": _ocp_group,
    "ocp-under": _ocp_under,
    "ocp-flat": _ocp_flat,
    "simulate": _simulate,
}


def build(name, seed, size, workdir, references=None):
    """The workload's operations at ``size`` plus its warm-up operation, the
    first operation at smoke size.  CLI configs and outputs go under
    ``workdir``.  ``references`` (workload -> size -> op -> cost) defaults to
    reference.json, which must then have an entry for every solve; the entry
    is null for a solve that failed when the references were recorded."""
    refs = load_reference() if references is None else references

    def ops_at(size, subdir):
        path = os.path.join(workdir, subdir)
        os.makedirs(path, exist_ok=True)
        known = refs.get(name, {}).get(size, {})
        ops = _BUILDERS[name](np.random.default_rng(seed), SIZES[size], known, path)
        missing = [op.name for op in ops if op.cost and op.name not in known]
        if references is None and missing:
            raise KeyError(f"reference.json has no entry for {name}/{size}: {missing}")
        return ops

    return Workload(name, ops_at(size, size), ops_at("smoke", "warmup")[0])
