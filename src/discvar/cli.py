"""Command line interface.

    discvar simulate CONFIG [--out DIR]
    discvar solve    CONFIG [--out DIR] [--tol T] [--max-iter K]
    discvar verify   CONFIG DIR [--tol T]

CONFIG is a JSON file; see the README for the schema.  Outputs are
trajectory.csv (node states), controls.csv (per-interval data) and
report.json.  Exit codes: 0 success, 1 configuration or usage error,
2 solve/verification failure (artifacts still written from the best
iterate).

The environment variable DISCVAR_LOG sets the log level (e.g. DEBUG); unset
or empty means WARNING, and an unknown level is a usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import logging
import os
import sys
import time

import numpy as np

from . import lgoc, lie, mech, systems, tboc
from .errors import (ConfigError, DimensionMismatch, DiscvarError, NoConvergence, NotInvertible,
                     RankDeficient, SingularJacobian)

log = logging.getLogger("discvar")


def _write_csv(path, header, rows):
    """The header line and one line per row of the float array ``rows``,
    each value as "%.17g", in the CSV dialect ``csv.writer`` writes: comma
    separated, no quoting (no field holds a comma or a quote), "\r\n"
    terminated."""
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + (line * len(rows)) % tuple(rows.ravel().tolist()))


def _read_csv(path):
    """(header, data) of a CSV file of numbers; one that cannot be read or
    parsed is a ConfigError."""
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            data = np.array([[float(v) for v in row] for row in reader])
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return header, data


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def load_config(path):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or "system" not in cfg:
        raise ConfigError("config must be a JSON object with a 'system' section")
    return cfg


def _floats(value):
    return np.asarray(value, dtype=float)


def _number(value, key, kind=float):
    """``kind(value)``; a value it cannot convert raises ConfigError naming
    ``key``.  ``kind`` is float, int or ``_floats`` for a list.  A count
    (int) must be a number with an integral value, such as 8 or 8.0: 8.7, a
    boolean or a string raise ConfigError too."""
    try:
        out = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key} must be numeric, got {value!r}") from exc
    if kind is int and (isinstance(value, bool) or out != value):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return out


def _group_element(group, value, key):
    """Parse the group element ``key``: raw nested list, or
    axis/angle/translation dict.  One that is not an element of ``group``
    (a rotation block that is not orthonormal, a wrong shape) raises a
    ConfigError naming ``key``."""
    if isinstance(value, list):
        with _keyed(key):
            return group.check(_number(value, key, _floats))
    if not isinstance(value, dict):
        raise ConfigError("group elements must be lists or objects")
    if "rotation" in value:
        R = _number(value["rotation"], "rotation", _floats)
        if R.shape != (3, 3):
            raise ConfigError(f"{key}: rotation must be a 3x3 matrix")
    else:
        angle = _number(value.get("rotation_angle", 0.0), "rotation_angle")
        axis = _number(value.get("rotation_axis", [0.0, 0.0, 1.0]), "rotation_axis",
                       _floats)
        nrm = np.linalg.norm(axis)
        if nrm == 0.0:
            raise ConfigError("rotation axis must be nonzero")
        R = lie.so3(lie.EXPONENTIAL).tau(axis / nrm * angle)
    g = R
    if group.name == "SE3":
        translation = _number(value.get("translation", [0.0, 0.0, 0.0]), "translation",
                              _floats)
        if translation.shape != (3,):
            raise ConfigError(f"{key}: translation must have length 3")
        g = group.identity()
        g[:3, :3], g[:3, 3] = R, translation
    with _keyed(key):
        return group.check(g, tol=1e-8)


def _build_cost(cfg, m):
    """The running cost of a ``problem.cost`` section, for m controls."""
    kind = cfg.get("kind", "l2").lower()
    if kind == "l2":
        return systems.L2Cost()
    if kind == "smoothed_l1":
        bounds = {}
        for bound in ("u_min", "u_max"):
            if np.shape(cfg.get(bound)) not in ((), (m,)):
                raise ConfigError(f"cost {bound} must be a number or a list of {m}")
            if cfg.get(bound) is not None:
                bounds[bound] = _number(cfg[bound], bound, _floats)
        return systems.SmoothedL1Cost(
            eps=_number(cfg.get("eps", 1e-4), "eps"),
            weight=_number(cfg.get("weight", 1e3), "weight"),
            **bounds,
        )
    raise ConfigError(f"unknown cost kind {kind!r}")


@contextlib.contextmanager
def _keyed(*keys):
    """A constructor or check run inside the block that refuses its
    arguments (DimensionMismatch, NotInvertible, RankDeficient) raises a
    ConfigError naming the config ``keys`` they came from."""
    try:
        yield
    except (DimensionMismatch, NotInvertible, RankDeficient) as exc:
        raise ConfigError(f"{', '.join(keys)}: {exc}") from None


def _actuated_axes(value):
    """The rigid body's ``actuated`` axes: distinct integers in 0..2."""
    axes = [_number(a, "actuated", int) for a in value] if isinstance(value, list) else None
    if axes is None or any(not 0 <= a <= 2 for a in axes) or len(set(axes)) < len(axes):
        raise ConfigError(f"actuated must list distinct axes among 0, 1 and 2, "
                          f"got {value!r}")
    return tuple(axes)


def _potential(value):
    """The rigid body's optional ``potential``: None, or the heavy top
    {"kind": "heavy_top", "mgl": x}, x finite."""
    if value is None:
        return None
    if not isinstance(value, dict) or value.get("kind") != "heavy_top":
        raise ConfigError(f"potential kind must be heavy_top, got {value!r}")
    mgl = _number(value.get("mgl"), "mgl")
    if not np.isfinite(mgl):
        raise ConfigError(f"mgl must be finite, got {value['mgl']!r}")
    return systems.HeavyTopPotential(mgl)


def build_setup(cfg):
    """Returns ("lie", problem) or ("rn", problem) from a config dict."""
    sys_cfg = cfg["system"]
    prob_cfg = cfg.get("problem", {})
    stype = sys_cfg.get("type")
    retraction = prob_cfg.get("retraction", lie.CAYLEY)
    if retraction not in (lie.CAYLEY, lie.EXPONENTIAL):
        raise ConfigError(f"unknown retraction {retraction!r}")
    try:
        N = _number(prob_cfg["N"], "N", int)
        h = _number(prob_cfg["h"], "h")
    except KeyError as exc:
        raise ConfigError(f"problem section is missing {exc}") from exc
    if not h > 0.0:
        raise ConfigError(f"h must be positive, got {prob_cfg['h']!r}")
    if N < 2:
        raise ConfigError(f"N must be at least 2, got {N}")
    bnd = prob_cfg.get("boundary", {})
    cost_cfg = prob_cfg.get("cost", {})

    if stype == "point_mass":
        n = _number(sys_cfg.get("n", 1), "n", int)
        if n < 1:
            raise ConfigError(f"n must be at least 1, got {n}")
        mass = _number(sys_cfg.get("mass", 1.0), "mass", _floats)
        if mass.shape not in ((), (n,), (n, n)):
            raise ConfigError(f"mass must be a number, a list of {n} or a {n}x{n} matrix, "
                              f"got {sys_cfg['mass']!r}")
        with _keyed("mass", "force_convention"):
            try:
                lagrangian, forces = systems.make_point_mass(
                    n, mass=mass, h=h,
                    force_convention=sys_cfg.get("force_convention", "trapezoidal"),
                )
            except NotInvertible:
                raise ConfigError(f"mass must be positive definite, "
                                  f"got {sys_cfg['mass']!r}") from None
        try:
            # the problem's length check names the key: "x0 must have length 1"
            with _keyed("boundary"):
                problem = tboc.OcProblemRn(
                    lagrangian=lagrangian, forces=forces,
                    cost=_build_cost(cost_cfg, forces.control_dim),
                    **{key: _number(bnd[key], key, _floats)
                       for key in ("x0", "p0", "xT", "pT")},
                    N=N,
                )
        except KeyError as exc:
            raise ConfigError(f"boundary section is missing {exc}") from exc
        return "rn", problem

    if stype == "rigid_body_so3":
        actuated = _actuated_axes(sys_cfg.get("actuated", [0, 1, 2]))
        potential = _potential(sys_cfg.get("potential"))
        with _keyed("inertia"):
            system = systems.make_rigid_body_so3(
                _number(sys_cfg.get("inertia", [1.0, 1.0, 1.0]), "inertia", _floats),
                actuated=actuated, retraction=retraction, potential=potential,
            )
    elif stype == "uuv_se3":
        # the vehicle's scalar parameters; those the config leaves out keep
        # UuvParams' defaults
        keys = [f.name for f in dataclasses.fields(systems.UuvParams)
                if f.default is not dataclasses.MISSING]
        params = systems.UuvParams(**{key: _number(sys_cfg[key], key)
                                      for key in keys if key in sys_cfg})
        with _keyed(*keys):
            system = systems.make_uuv_system(params, retraction=retraction)
    else:
        raise ConfigError(f"unknown system type {stype!r}")

    group = system.group
    try:
        # g0 and gT raise their own ConfigError; the problem checks xi0 and xiT
        with _keyed("xi0", "xiT"):
            problem = lgoc.OcProblemLie(
                system=system,
                g0=_group_element(group, bnd.get("g0", group.identity().tolist()), "g0"),
                xi0=_number(bnd.get("xi0", np.zeros(group.dim)), "xi0", _floats),
                gT=_group_element(group, bnd["gT"], "gT"),
                xiT=_number(bnd.get("xiT", np.zeros(group.dim)), "xiT", _floats),
                N=N, h=h, cost=_build_cost(cost_cfg, system.m),
            )
    except KeyError as exc:
        raise ConfigError(f"boundary section is missing {exc}") from exc
    return "lie", problem


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _control_columns(m, unactuated):
    return ([f"um{i}" for i in range(m)] + [f"up{i}" for i in range(m)]
            + [f"lm{i}" for i in range(unactuated)] + [f"lp{i}" for i in range(unactuated)])


def _lie_headers(problem):
    """The columns of a group solution's trajectory.csv and controls.csv,
    for its writer and for ``verify``."""
    n, m = problem.system.n, problem.system.m
    gsize = problem.system.group.matrix_size
    trajectory = ["k", "t"] + [f"g{i}{j}" for i in range(gsize) for j in range(gsize)]
    trajectory += [f"nu{i}" for i in range(n)]
    return trajectory, ["k"] + [f"xi{i}" for i in range(n)] + _control_columns(m, n - m)


def _rn_headers(problem):
    """The columns of a T*R^n solution's trajectory.csv and controls.csv."""
    n, m = problem.n, problem.m
    trajectory = ["k", "t"] + [f"x{i}" for i in range(n)] + [f"p{i}" for i in range(n)]
    return trajectory, ["k"] + _control_columns(m, n - m)


def _write_solution(problem, sol, outdir, headers, nodes, lead):
    """trajectory.csv with the row (k, t_k, *nodes[k]) per node, and
    controls.csv with (k, *lead[k], u^-_k, u^+_k, lambda^-_k, lambda^+_k)
    per interval, under ``headers``."""
    trajectory, controls = headers
    k = np.arange(problem.N + 1)
    _write_csv(os.path.join(outdir, "trajectory.csv"), trajectory,
               np.column_stack([k, k * problem.h, nodes]))
    columns = [k[:-1], lead, sol.controls[:, 0], sol.controls[:, 1]]
    if sol.lambdas is not None:
        columns += [sol.lambdas[:, 0], sol.lambdas[:, 1]]
    _write_csv(os.path.join(outdir, "controls.csv"), controls, np.column_stack(columns))


def _write_lie_solution(problem, sol, outdir):
    nodes = np.concatenate([sol.gs.reshape(problem.N + 1, -1), sol.nus], axis=1)
    _write_solution(problem, sol, outdir, _lie_headers(problem), nodes, sol.xis)


def _write_rn_solution(problem, sol, outdir):
    nodes = np.concatenate([sol.qs, sol.ps], axis=1)
    _write_solution(problem, sol, outdir, _rn_headers(problem), nodes,
                    np.zeros((problem.N, 0)))


def _read_solution(directory, headers, N):
    """The data of trajectory.csv (N + 1 rows) and controls.csv (N rows) in
    ``directory``, whose headers must be ``headers``: other columns or
    another row count mean the files belong to another problem than the
    config's, a ConfigError."""
    out = []
    for name, header, rows in zip(("trajectory.csv", "controls.csv"), headers,
                                  (N + 1, N)):
        got, data = _read_csv(os.path.join(directory, name))
        if got != header:
            raise ConfigError(f"{name} has the columns {','.join(got)}, "
                              f"the config gives {','.join(header)}")
        if data.shape != (rows, len(header)):
            raise ConfigError(f"{name} has {len(data)} rows of data, "
                              f"the config's N = {N} gives {rows}")
        out.append(data)
    return out


def _write_report(outdir, payload):
    with open(os.path.join(outdir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _perturbed_guess(problem, mod, solver_cfg):
    """Optional seeded perturbation of the initial guess (study aid)."""
    scale = _number(solver_cfg.get("guess_perturbation", 0.0), "guess_perturbation")
    if scale == 0.0:
        return None
    rng = np.random.default_rng(_number(solver_cfg.get("seed", 0), "seed", int))
    first, second, lams = mod.initial_guess(problem)
    first = first + scale * rng.normal(size=np.shape(first))
    second = second + scale * rng.normal(size=np.shape(second))
    return first, second, lams


def cmd_solve(args):
    cfg = load_config(args.config)
    kind, problem = build_setup(cfg)
    solver_cfg = cfg.get("solver", {})
    tol = args.tol if args.tol is not None else _number(solver_cfg.get("tol", 1e-6), "tol")
    max_iter = args.max_iter if args.max_iter is not None else _number(
        solver_cfg.get("max_iter", 100), "max_iter", int)
    method = solver_cfg.get("method", "auto")
    mod, write = ((lgoc, _write_lie_solution) if kind == "lie"
                  else (tboc, _write_rn_solution))
    guess = _perturbed_guess(problem, mod, solver_cfg)
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    t0 = time.perf_counter()
    failed = None
    try:
        sol = mod.solve(problem, tol=tol, max_iter=max_iter, method=method,
                        guess=guess)
    except (NoConvergence, SingularJacobian) as exc:
        failed = exc
        # artifacts are still written from the best iterate
        sol = mod.assemble_solution(problem, exc.best_x, report=exc.report)
    elapsed = time.perf_counter() - t0
    write(problem, sol, outdir)
    converged = failed is None and bool(sol.report.converged)
    _write_report(outdir, {
        **sol.report.as_dict(),
        "command": "solve",
        "cost": float(sol.cost),
        "elapsed_s": elapsed,
    })
    if failed is not None:
        log.error("solve failed: %s", failed)
        return 2
    log.info("solved in %d iterations (%d residual and %d Jacobian "
             "evaluations, %d Jacobian reuses), residual %.3e, cost %.6f",
             sol.report.iterations, sol.report.residual_evaluations,
             sol.report.jacobian_evaluations, sol.report.jacobian_reuses,
             sol.report.residual_norm, sol.cost)
    return 0 if converged else 2


def cmd_simulate(args):
    cfg = load_config(args.config)
    kind, problem = build_setup(cfg)
    sim_cfg = cfg.get("simulate", {})
    steps = _number(sim_cfg.get("steps", problem.N), "simulate.steps", int)
    if steps < 1:
        raise ConfigError(f"simulate.steps must be at least 1, got {steps}")
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    k = np.arange(steps + 1)
    t0 = time.perf_counter()
    if kind == "lie":
        system = problem.system
        gs, xis, mus = lgoc.integrate_reduced(
            system, problem.g0, problem.xi0, problem.h, steps
        )
        n = system.n
        gsize = system.group.matrix_size
        header = ["k", "t"] + [f"g{i}{j}" for i in range(gsize) for j in range(gsize)]
        _write_csv(os.path.join(outdir, "trajectory.csv"), header,
                   np.column_stack([k, k * problem.h, gs.reshape(steps + 1, -1)]))
        header = ["k"] + [f"xi{i}" for i in range(n)] + [f"mu{i}" for i in range(n)]
        _write_csv(os.path.join(outdir, "controls.csv"), header,
                   np.column_stack([k[:-1], xis, mus]))
    else:
        lagrangian, forces = problem.lagrangian, problem.forces
        x0 = problem.x0
        v0 = lagrangian.mass_inv @ problem.p0
        x1 = _number(sim_cfg.get("x1", x0 + problem.h * v0), "x1", _floats)
        qs = mech.integrate(lagrangian, forces, x0, x1, steps)
        ps = mech.node_momenta(lagrangian, forces, qs)
        _write_csv(os.path.join(outdir, "trajectory.csv"), _rn_headers(problem)[0],
                   np.column_stack([k, k * problem.h, qs, ps]))
    _write_report(outdir, {
        "command": "simulate", "steps": steps,
        "elapsed_s": time.perf_counter() - t0,
    })
    return 0


def _verify_lie(problem, args):
    sys_ = problem.system
    n, m, N = sys_.n, sys_.m, problem.N
    gsize = sys_.group.matrix_size
    traj, ctrl = _read_solution(args.directory, _lie_headers(problem), N)
    gs = traj[:, 2 : 2 + gsize * gsize].reshape(N + 1, gsize, gsize)
    nus = traj[:, 2 + gsize * gsize : 2 + gsize * gsize + n]
    xis = ctrl[:, 1 : 1 + n]
    um = ctrl[:, 1 + n : 1 + n + m]
    up = ctrl[:, 1 + n + m : 1 + n + 2 * m]
    lambdas = None
    if not sys_.fully_actuated:
        lambdas = ctrl[:, 1 + n + 2 * m :].reshape(N, 2, n - m)
    # dynamics: the written controls give the written node momenta through
    # the forced discrete Legendre transforms
    res, path, left, right, phim, phip = lgoc.verify_terms(problem, xis, nus, um, up, lambdas)
    checks = {
        "optimality_residual": float(np.max(np.abs(res))),
        "dynamics_residual": float(max(np.max(np.abs(left - nus[:-1])),
                                       np.max(np.abs(right - nus[1:])))),
        "boundary_nu0": float(np.max(np.abs(nus[0] - problem.nu0))),
        "boundary_nuN": float(np.max(np.abs(nus[-1] - problem.nuN))),
        "reconstruction_gT": float(np.max(np.abs(path[-1] - problem.gT))),
        # the written configurations must be the path the velocities generate
        "trajectory_g": float(np.max(np.abs(gs - path))),
    }
    if not sys_.fully_actuated:
        checks["constraint_phi"] = float(max(np.max(np.abs(phim)), np.max(np.abs(phip))))
    return checks


def _verify_rn(problem, args):
    n, m, N = problem.n, problem.m, problem.N
    traj, ctrl = _read_solution(args.directory, _rn_headers(problem), N)
    qs = traj[:, 2 : 2 + n]
    ps = traj[:, 2 + n : 2 + 2 * n]
    lambdas = None
    if not problem.fully_actuated:
        lambdas = ctrl[:, 1 + 2 * m :].reshape(N, 2, n - m)
    res = tboc.optimality_residual(problem, qs, ps, lambdas)
    um = ctrl[:, 1 : 1 + m]
    up = ctrl[:, 1 + m : 1 + 2 * m]
    # dynamics: forced discrete Euler-Lagrange at interior nodes
    dyn = mech.forced_del_residual(problem.lagrangian, problem.forces,
                                   qs[:-2], qs[1:-1], qs[2:], up[:-1], um[1:])
    return {
        "optimality_residual": float(np.max(np.abs(res))),
        "dynamics_residual": float(np.max(np.abs(dyn))),
        "boundary_x0": float(np.max(np.abs(qs[0] - problem.x0))),
        "boundary_xT": float(np.max(np.abs(qs[-1] - problem.xT))),
        "boundary_p0": float(np.max(np.abs(ps[0] - problem.p0))),
        "boundary_pT": float(np.max(np.abs(ps[-1] - problem.pT))),
    }


def _solve_report(directory):
    """The solve's report in ``directory``'s report.json, which verify keeps
    under its ``solve`` key: an earlier verify's report passes on the one it
    kept.  None where there is no readable report."""
    try:
        with open(os.path.join(directory, "report.json")) as fh:
            found = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(found, dict):
        return None
    return found.get("solve") if found.get("command") == "verify" else found


def cmd_verify(args):
    cfg = load_config(args.config)
    kind, problem = build_setup(cfg)
    tol = args.tol if args.tol is not None else 1e-6
    checks = _verify_lie(problem, args) if kind == "lie" else _verify_rn(problem, args)
    ok = all(v <= tol for v in checks.values())
    for name, value in sorted(checks.items()):
        print(f"{name}: {value:.3e} {'ok' if value <= tol else 'FAIL'}")
    payload = {"command": "verify", "passed": bool(ok), "tolerance": tol,
               "checks": checks}
    solve_report = _solve_report(args.directory)
    if solve_report is not None:
        payload["solve"] = solve_report
    _write_report(args.directory, payload)
    return 0 if ok else 2


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def make_parser():
    """The ``discvar`` parser, built once.  Each subcommand's name is
    dispatched by ``main`` at call time."""
    parser = argparse.ArgumentParser(
        prog="discvar",
        description="discrete variational optimal control on R^n and Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="JSON configuration file")
        p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("simulate", help="integrate the forced dynamics forward")
    common(p)

    p = sub.add_parser("solve", help="solve the two-point optimal control problem")
    common(p)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)

    p = sub.add_parser("verify", help="re-check residuals of a saved solution")
    p.add_argument("config")
    p.add_argument("directory", help="directory holding trajectory.csv etc.")
    p.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None):
    try:
        logging.basicConfig(
            level=(os.environ.get("DISCVAR_LOG") or "WARNING").upper(),
            format="%(levelname)s %(name)s: %(message)s",
        )
    except ValueError as exc:
        print(f"config error: DISCVAR_LOG: {exc}", file=sys.stderr)
        return 1
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    command = {"simulate": cmd_simulate, "solve": cmd_solve, "verify": cmd_verify}
    try:
        return command[args.command](args)
    except ConfigError as exc:
        log.error("%s", exc)
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DiscvarError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
