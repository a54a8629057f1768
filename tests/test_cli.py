"""Command line interface: configs, artifacts, exit codes, determinism."""

import argparse
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import discvar
from discvar import cli, solvers


def write_config(path, cfg):
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return str(path)


def point_mass_cfg(N=16):
    return {
        "system": {"type": "point_mass", "n": 1},
        "problem": {
            "N": N, "h": 1.0 / N,
            "boundary": {"x0": [0.0], "p0": [0.0], "xT": [1.0], "pT": [0.0]},
        },
        "solver": {"tol": 1e-10},
    }


def rigid_body_cfg(N=8):
    return {
        "system": {"type": "rigid_body_so3", "inertia": [1.0, 2.0, 3.0],
                   "actuated": [0, 1, 2]},
        "problem": {
            "N": N, "h": 0.1,
            "boundary": {
                "gT": {"rotation_axis": [0.0, 0.0, 1.0], "rotation_angle": 0.7},
            },
        },
        "solver": {"tol": 1e-9},
    }


def uuv_cfg(N=16):
    return {
        "system": {"type": "uuv_se3"},
        "problem": {
            "N": N, "h": 4.0 / N,
            "boundary": {
                "gT": {"rotation_axis": [0.0, 0.0, 1.0],
                       "rotation_angle": np.pi / 6.0,
                       "translation": [1.0, 0.0, 0.0]},
            },
        },
        "solver": {"method": "lm", "tol": 1e-6, "max_iter": 60},
    }


def read_report(outdir):
    with open(os.path.join(outdir, "report.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# solve / verify round trips
# ---------------------------------------------------------------------------

def test_point_mass_solve_and_verify(tmp_path):
    cfg = write_config(tmp_path / "c.json", point_mass_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    report = read_report(out)
    assert report["converged"] is True
    assert report["residual_norm"] <= 1e-10
    assert len(report["residual_history"]) == report["iterations"] + 1
    assert report["residual_history"][-1] == report["residual_norm"]
    assert abs(report["cost"] - 6.0) < 0.1
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "controls.csv"))
    assert cli.main(["verify", cfg, out]) == 0
    assert read_report(out)["passed"] is True


def test_rigid_body_solve_and_verify(tmp_path):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    assert cli.main(["verify", cfg, out]) == 0
    checks = read_report(out)["checks"]
    assert checks["optimality_residual"] <= 1e-6
    assert checks["reconstruction_gT"] <= 1e-8


def test_uuv_solve_and_verify(tmp_path):
    cfg = write_config(tmp_path / "c.json", uuv_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    assert cli.main(["verify", cfg, out]) == 0
    checks = read_report(out)["checks"]
    assert checks["constraint_phi"] <= 1e-6


def test_verify_detects_tampering(tmp_path):
    cfg = write_config(tmp_path / "c.json", point_mass_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[5].split(",")
    cells[2] = format(float(cells[2]) + 0.05, ".17g")
    lines[5] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    assert cli.main(["verify", cfg, out]) == 2
    assert read_report(out)["passed"] is False


def test_verify_checks_the_written_configurations(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    path = os.path.join(out, "trajectory.csv")
    with open(path) as fh:
        lines = fh.readlines()
    cells = lines[4].split(",")
    cells[3] = format(float(cells[3]) + 1e-3, ".17g")  # g01 at node 3
    lines[4] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert cli.main(["verify", cfg, out]) == 2
    assert "trajectory_g: 1.000e-03 FAIL" in capsys.readouterr().out
    checks = read_report(out)["checks"]
    assert [name for name, value in checks.items() if value > 1e-6] == ["trajectory_g"]


def _point_mass_n2():
    cfg = point_mass_cfg()
    cfg["system"]["n"] = 2
    cfg["problem"]["boundary"] = {"x0": [0.0, 0.0], "p0": [0.0, 0.0],
                                  "xT": [1.0, -1.0], "pT": [0.0, 0.0]}
    return cfg


def _rigid_body_on_two_axes():
    cfg = rigid_body_cfg()
    cfg["system"]["actuated"] = [0, 1]
    return cfg


@pytest.mark.parametrize("solved, verified, complaint", [
    (_point_mass_n2, point_mass_cfg, "columns"),
    (rigid_body_cfg, _rigid_body_on_two_axes, "columns"),
    (point_mass_cfg, lambda: point_mass_cfg(N=8), "rows"),
    (rigid_body_cfg, lambda: rigid_body_cfg(N=4), "rows"),
], ids=["point mass n", "rigid body actuation", "point mass N", "rigid body N"])
def test_verify_rejects_the_artifacts_of_another_problem(tmp_path, capsys, solved,
                                                         verified, complaint):
    # verify reads the headers the writer wrote: a config for another
    # problem is a config error (exit 1), not failed checks (exit 2)
    out = str(tmp_path / "out")
    assert cli.main(["solve", write_config(tmp_path / "s.json", solved()), "--out", out]) == 0
    capsys.readouterr()
    assert cli.main(["verify", write_config(tmp_path / "v.json", verified()), out]) == 1
    captured = capsys.readouterr()
    assert "config error" in captured.err and complaint in captured.err
    assert captured.out == ""


def test_verify_without_artifacts_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", point_mass_cfg())
    assert cli.main(["verify", cfg, str(tmp_path / "nothing")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_solve_byte_determinism(tmp_path):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", cfg, "--out", out1]) == 0
    assert cli.main(["solve", cfg, "--out", out2]) == 0
    for name in ("trajectory.csv", "controls.csv"):
        with open(os.path.join(out1, name), "rb") as fh:
            a = fh.read()
        with open(os.path.join(out2, name), "rb") as fh:
            b = fh.read()
        assert a == b


def test_seeded_guess_perturbation_is_deterministic(tmp_path):
    base = rigid_body_cfg()
    base["solver"]["guess_perturbation"] = 0.05
    base["solver"]["seed"] = 42
    cfg = write_config(tmp_path / "c.json", base)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", cfg, "--out", out1]) == 0
    assert cli.main(["solve", cfg, "--out", out2]) == 0
    with open(os.path.join(out1, "controls.csv"), "rb") as fh:
        a = fh.read()
    with open(os.path.join(out2, "controls.csv"), "rb") as fh:
        b = fh.read()
    assert a == b


def test_retraction_override(tmp_path):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    exp = rigid_body_cfg()
    exp["problem"]["retraction"] = "exp"
    cfg_exp = write_config(tmp_path / "e.json", exp)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["solve", cfg, "--out", out1]) == 0
    assert cli.main(["solve", cfg_exp, "--out", out2]) == 0
    _, t1 = cli._read_csv(os.path.join(out1, "controls.csv"))
    _, t2 = cli._read_csv(os.path.join(out2, "controls.csv"))
    # both converge but to different discrete solutions
    assert np.max(np.abs(t1 - t2)) > 1e-6


def test_exp_solution_passes_verify(tmp_path):
    # the config is the only place the retraction is chosen, so verify
    # rebuilds the problem solve solved
    base = rigid_body_cfg()
    base["problem"]["retraction"] = "exp"
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out, "--retraction", "exp"]) == 1
    assert cli.main(["solve", cfg, "--out", out]) == 0
    assert cli.main(["verify", cfg, out]) == 0
    assert read_report(out)["passed"] is True


def test_simulate_writes_trajectory(tmp_path):
    base = rigid_body_cfg()
    base["problem"]["boundary"]["xi0"] = [0.3, 0.8, -0.4]
    base["simulate"] = {"steps": 20}
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg, "--out", out]) == 0
    header, traj = cli._read_csv(os.path.join(out, "trajectory.csv"))
    assert traj.shape[0] == 21
    assert header[:2] == ["k", "t"]
    # rotation blocks stay orthonormal
    R = traj[-1, 2:11].reshape(3, 3)
    assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-9
    assert read_report(out)["command"] == "simulate"


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_missing_config_file_is_config_error(tmp_path):
    assert cli.main(["solve", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 1


def test_missing_boundary_is_config_error(tmp_path):
    bad = point_mass_cfg()
    del bad["problem"]["boundary"]["xT"]
    cfg = write_config(tmp_path / "c.json", bad)
    assert cli.main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1


def test_unknown_system_type_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "c.json", {
        "system": {"type": "pendulum_on_a_cart"},
        "problem": {"N": 4, "h": 0.1},
    })
    assert cli.main(["solve", cfg, "--out", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("command, section, key, value", [
    ("solve", ("problem", "cost"), "eps", "small"),
    ("solve", ("problem",), "N", "eight"),
    ("solve", ("problem", "boundary"), "x0", ["a"]),
    ("simulate", ("simulate",), "steps", "many"),
], ids=["eps", "N", "x0", "steps"])
def test_non_numeric_value_is_config_error(tmp_path, capsys, command, section, key,
                                           value):
    base = point_mass_cfg()
    base["problem"]["cost"] = {"kind": "smoothed_l1", "eps": 0.1}
    base["simulate"] = {"steps": 8}
    entry = base
    for name in section:
        entry = entry[name]
    entry[key] = value
    cfg = write_config(tmp_path / "c.json", base)
    assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be numeric" in err


# the integer counts of a config: (command, section, key)
_COUNTS = [
    ("solve", ("problem",), "N"),
    ("solve", ("system",), "n"),
    ("simulate", ("simulate",), "steps"),
    ("solve", ("solver",), "max_iter"),
    ("solve", ("solver",), "seed"),
]


def _counts_cfg():
    base = point_mass_cfg(N=8)
    base["simulate"] = {"steps": 8}
    # the seed is read only for a perturbed guess
    base["solver"].update(max_iter=60, seed=3, guess_perturbation=1e-3)
    return base


@pytest.mark.parametrize("value", [8.7, True], ids=["fraction", "boolean"])
@pytest.mark.parametrize("command, section, key", _COUNTS, ids=[c[2] for c in _COUNTS])
def test_non_integral_count_is_config_error(tmp_path, capsys, command, section, key,
                                            value):
    # 8.7 used to run as 8 and true as 1
    base = _counts_cfg()
    entry = base
    for name in section:
        entry = entry[name]
    entry[key] = value
    cfg = write_config(tmp_path / "c.json", base)
    assert cli.main([command, cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{key} must be an integer" in err


def test_integral_float_counts_are_accepted(tmp_path):
    base = _counts_cfg()
    base["problem"]["N"] = 8.0
    base["system"]["n"] = 1.0
    base["simulate"]["steps"] = 8.0
    base["solver"].update(max_iter=60.0, seed=3.0)
    cfg = write_config(tmp_path / "c.json", base)
    as_ints = write_config(tmp_path / "d.json", _counts_cfg())
    for command in ("solve", "simulate"):
        outs = [str(tmp_path / f"{command}-{i}") for i in range(2)]
        assert cli.main([command, cfg, "--out", outs[0]]) == 0
        assert cli.main([command, as_ints, "--out", outs[1]]) == 0
        name = "controls.csv" if command == "solve" else "trajectory.csv"
        with open(os.path.join(outs[0], name), "rb") as a, \
                open(os.path.join(outs[1], name), "rb") as b:
            assert a.read() == b.read()


def test_bad_usage_is_exit_one():
    assert cli.main(["frobnicate"]) == 1


def test_parser_is_built_once(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "pm.json", point_mass_cfg(N=8))
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    built = []

    class Counted(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(argparse, "ArgumentParser", Counted)
    for _ in range(2):
        assert cli.main(["solve", cfg, "--out", out]) == 0
        assert cli.main(["verify", cfg, out]) == 0
        assert cli.main(["frobnicate"]) == 1
    assert built == []


def test_tol_and_max_iter_are_solve_options(tmp_path):
    base = rigid_body_cfg()
    base["solver"]["tol"] = 1e-16  # below the attainable residual floor
    base["solver"]["max_iter"] = 3
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", cfg, "--out", out, "--tol", "1e-3"]) == 1
    assert cli.main(["simulate", cfg, "--out", out, "--max-iter", "5"]) == 1
    assert cli.main(["solve", cfg, "--out", out]) == 2
    assert cli.main(["solve", cfg, "--out", out, "--tol", "1e-8"]) == 0
    assert read_report(out)["residual_norm"] <= 1e-8
    assert cli.main(["solve", cfg, "--out", out, "--tol", "1e-8", "--max-iter", "0"]) == 2
    assert read_report(out)["iterations"] == 0


def test_nonconvergence_still_writes_artifacts(tmp_path):
    base = rigid_body_cfg()
    base["solver"]["tol"] = 1e-16  # below the attainable residual floor
    base["solver"]["max_iter"] = 3
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 2
    report = read_report(out)
    assert report["converged"] is False
    # the failed attempt's calls: a Jacobian per iteration, and at least one
    # residual per iteration past the first evaluation
    assert report["jacobian_evaluations"] == report["iterations"] == 3
    assert report["residual_evaluations"] >= report["iterations"] + 1
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "controls.csv"))


def test_solve_logs_its_residual_and_jacobian_evaluations(tmp_path, caplog):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    out = str(tmp_path / "out")
    caplog.set_level(logging.INFO, logger="discvar")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    report = read_report(out)
    assert report["method"] == "newton"
    assert report["jacobian_evaluations"] == report["iterations"] > 0
    assert report["residual_evaluations"] >= report["iterations"] + 1
    assert (f"solved in {report['iterations']} iterations "
            f"({report['residual_evaluations']} residual and "
            f"{report['jacobian_evaluations']} Jacobian evaluations)") in caplog.text


def test_point_mass_honours_solver_method(tmp_path):
    base = point_mass_cfg(N=8)
    base["solver"]["method"] = "lm"
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    report = read_report(out)
    assert report["converged"] is True
    assert report["method"] == "levenberg_marquardt"
    assert cli.main(["verify", cfg, out]) == 0


@pytest.mark.parametrize("make_cfg", [point_mass_cfg, rigid_body_cfg])
def test_unknown_solver_method_is_config_error(tmp_path, capsys, make_cfg):
    base = make_cfg(N=4)
    base["solver"]["method"] = "gradient_descent"
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "gradient_descent" in err
    assert not os.path.exists(os.path.join(out, "report.json"))


def test_singular_jacobian_still_writes_artifacts(tmp_path, monkeypatch):
    # an all-zero Jacobian stalls LM, then the Newton fallback finds it
    # singular: the SingularJacobian must not escape before artifacts exist
    base = rigid_body_cfg(N=4)
    base["system"]["actuated"] = [0, 1]
    base["solver"]["method"] = "lm_then_newton"
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    monkeypatch.setattr(solvers.ResidualSystem, "jac",
                        lambda self, x: np.zeros((self.dim, self.dim)))
    assert cli.main(["solve", cfg, "--out", out]) == 2
    report = read_report(out)
    assert report["converged"] is False
    assert report["method"] == "newton"
    # Newton evaluated z0, then stopped at its first Jacobian
    assert report["residual_evaluations"] == report["jacobian_evaluations"] == 1
    assert os.path.exists(os.path.join(out, "trajectory.csv"))
    assert os.path.exists(os.path.join(out, "controls.csv"))


def test_empty_log_level_means_warning(tmp_path):
    # in a subprocess: under pytest the root logger already has handlers, so
    # logging.basicConfig would not check the level at all
    base = point_mass_cfg(N=4)
    base["simulate"] = {"steps": 4}
    cfg = write_config(tmp_path / "c.json", base)
    src = os.path.dirname(os.path.dirname(os.path.abspath(discvar.__file__)))
    # an unknown level is a usage error, not a traceback
    for level, code in (("", 0), ("bogus", 1)):
        env = dict(os.environ, DISCVAR_LOG=level,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from discvar import cli; sys.exit(cli.main())",
             "simulate", cfg, "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
    assert "config error" in proc.stderr and "BOGUS" in proc.stderr


def test_rotation_matrix_boundary_accepted(tmp_path):
    base = rigid_body_cfg()
    th = 0.7
    R = [[np.cos(th), -np.sin(th), 0.0],
         [np.sin(th), np.cos(th), 0.0],
         [0.0, 0.0, 1.0]]
    base["problem"]["boundary"]["gT"] = {"rotation": R}
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    # same target as the axis/angle form, up to roundoff in the parser
    out2 = str(tmp_path / "out2")
    cfg2 = write_config(tmp_path / "c2.json", rigid_body_cfg())
    assert cli.main(["solve", cfg2, "--out", out2]) == 0
    _, a = cli._read_csv(os.path.join(out, "controls.csv"))
    _, b = cli._read_csv(os.path.join(out2, "controls.csv"))
    assert np.max(np.abs(a - b)) < 1e-7


def test_invalid_rotation_matrix_rejected(tmp_path):
    base = rigid_body_cfg()
    base["problem"]["boundary"]["gT"] = {"rotation": [[1.0, 0.0, 0.0],
                                                      [0.0, 2.0, 0.0],
                                                      [0.0, 0.0, 1.0]]}
    cfg = write_config(tmp_path / "c.json", base)
    assert cli.main(["solve", cfg, "--out", str(tmp_path / "out")]) == 2


def test_verify_checks_the_written_controls(tmp_path, capsys):
    cfg = write_config(tmp_path / "c.json", rigid_body_cfg())
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 0
    path = os.path.join(out, "controls.csv")
    with open(path) as fh:
        lines = fh.readlines()
    header = lines[0].strip().split(",")
    cells = lines[4].split(",")
    column = header.index("um0")
    cells[column] = format(float(cells[column]) + 0.5, ".17g")  # u^-_3, axis 0
    lines[4] = ",".join(cells)
    with open(path, "w") as fh:
        fh.writelines(lines)
    capsys.readouterr()
    assert cli.main(["verify", cfg, out]) == 2
    # h/2 times the control change moves the node momentum nu_3
    assert "dynamics_residual: 2.500e-02 FAIL" in capsys.readouterr().out
    checks = read_report(out)["checks"]
    assert [name for name, value in checks.items() if value > 1e-6] == ["dynamics_residual"]


@pytest.mark.parametrize("kind", ["smoothed_l1", "nonsense"])
def test_point_mass_rejects_a_cost_it_ignores(tmp_path, kind):
    # point_mass ignores no cost kind: it solves with every kind the other
    # system types take and rejects only an unknown one.  At the default eps
    # of 1e-4 the solve stalls above this config's tol of 1e-10 (best
    # residual 6.5e-9), so the smoothing is widened to 0.1
    base = point_mass_cfg()
    base["problem"]["cost"] = {"kind": kind, "eps": 0.1}
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    if kind == "nonsense":
        assert cli.main(["solve", cfg, "--out", out]) == 1
    else:
        assert cli.main(["solve", cfg, "--out", out]) == 0
        assert cli.main(["verify", cfg, out]) == 0
    good = point_mass_cfg()
    good["problem"]["cost"] = {"kind": "l2"}
    assert cli.build_setup(good)[0] == "rn"


@pytest.mark.parametrize("bound", [[-1.0, -1.0], [[-1.0, -1.0, -1.0]]],
                         ids=["two numbers", "nested list"])
def test_cost_bound_of_the_wrong_length_is_config_error(tmp_path, capsys, bound):
    # the rigid body has m = 3 controls: a bound is a number or 3 numbers
    base = rigid_body_cfg(N=4)
    base["problem"]["cost"] = {"kind": "smoothed_l1", "u_min": bound}
    cfg = write_config(tmp_path / "c.json", base)
    out = str(tmp_path / "out")
    assert cli.main(["solve", cfg, "--out", out]) == 1
    assert "config error" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "report.json"))
    for good in (-1.0, [-1.0, -2.0, -3.0]):
        base["problem"]["cost"]["u_min"] = good
        assert cli.build_setup(base)[0] == "lie"
