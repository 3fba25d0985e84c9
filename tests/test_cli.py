import json

import pytest

from mchcontrol.cli import main

BASE = {
    "domain": {"L": 2.0, "n_interior": 24},
    "time": {"T": 0.5, "n_steps": 60},
    "model": {"epsilon": 0.1, "k": 0.4},
    "initial": {"kind": "sine_mix", "coefficients": [0.3, 0.1]},
    "control": {"kind": "bump", "amplitude": 0.6},
}


def write_cfg(tmp_path, name="cfg.json", **overrides):
    raw = json.loads(json.dumps(BASE))
    for section, vals in overrides.items():
        if isinstance(vals, dict):
            raw.setdefault(section, {}).update(vals)
        else:
            raw[section] = vals
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def run(command, cfg_path, out_dir, *extra):
    return main([command, "--config", str(cfg_path), "--out", str(out_dir),
                 *extra])


def test_forward_outputs_and_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("forward", cfg, out1) == 0
    assert run("forward", cfg, out2) == 0
    for name in ("trajectory.csv", "trajectory.json", "run.json"):
        f1, f2 = out1 / name, out2 / name
        assert f1.is_file()
        assert f1.read_bytes() == f2.read_bytes()
    report = json.loads((out1 / "run.json").read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "forward"
    assert len(report["config_sha256"]) == 64
    lines = (out1 / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = next(l for l in lines if not l.startswith("#"))
    assert header.split(",") == ["t", "x", "y", "u"]


def test_seed_override_changes_hash(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("forward", cfg, out1) == 0
    assert run("forward", cfg, out2, "--seed", "777") == 0
    h1 = json.loads((out1 / "run.json").read_text())["config_sha256"]
    h2 = json.loads((out2 / "run.json").read_text())["config_sha256"]
    assert h1 != h2
    assert run("forward", cfg, out2, "--seed", "-3") == 2


def test_config_errors_exit_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"domain": {"L": 2.0, "n_interior": 8},
                                   "time": {"T": 0.5, "n_steps": 4},
                                   "model": {}}))
    assert run("forward", missing, tmp_path / "o") == 2
    assert "'model.epsilon'" in capsys.readouterr().err
    unknown = write_cfg(tmp_path, "unknown.json", model={"nu": 0.1})
    assert run("forward", unknown, tmp_path / "o") == 2
    assert "'model.nu'" in capsys.readouterr().err
    observer = write_cfg(tmp_path, "observer.json",
                         cost={"observer": "identity_L2H"})
    assert run("forward", observer, tmp_path / "o") == 2
    assert "'cost.observer'" in capsys.readouterr().err
    assert run("forward", tmp_path / "absent.json", tmp_path / "o") == 2
    assert "not found" in capsys.readouterr().err
    # json.load accepts NaN and Infinity; every numeric field must be finite
    nan, inf = float("nan"), float("inf")
    for i, (command, field, override) in enumerate((
            ("forward", "model.k", {"model": {"k": nan}}),
            ("forward", "model.epsilon", {"model": {"epsilon": 10 ** 400}}),
            ("optimize", "cost.delta", {"cost": {"delta": inf}}),
            ("optimize", "optimizer.tol_g", {"optimizer": {"tol_g": nan}}),
            ("forward", "control.amplitude", {"control": {"amplitude": -inf}}),
            ("forward", "initial.coefficients",
             {"initial": {"coefficients": [0.3, nan]}}),
            ("gradcheck", "gradcheck.taylor_steps",
             {"gradcheck": {"taylor_steps": [1e-2, inf]}}),
            ("gradcheck", "gradcheck.fd_step", {"gradcheck": {"fd_step": 0.0}}),
            ("gradcheck", "gradcheck.n_directions",
             {"gradcheck": {"n_directions": 0}}),
            ("optimize", "optimizer.memory", {"optimizer": {"memory": 0}}),
            ("optimize", "optimizer.max_iters",
             {"optimizer": {"max_iters": -1}}),
            ("optimize", "optimizer.step0", {"optimizer": {"step0": 0.0}}),
            ("optimize", "optimizer.tol_g", {"optimizer": {"tol_g": -1e-6}}),
            ("optimize", "optimizer.tol_g_abs",
             {"optimizer": {"tol_g_abs": -1e-6}}),
            ("optimize", "optimizer.memory", {"optimizer": {"memory": None}}),
            ("optimize", "optimizer.method", {"optimizer": {"method": "gd"}}),
            ("gradcheck", "gradcheck.taylor_steps",
             {"gradcheck": {"taylor_steps": []}}),
            ("gradcheck", "gradcheck.taylor_steps",
             {"gradcheck": {"taylor_steps": [1e-3]}}),
            ("gradcheck", "gradcheck.taylor_steps",
             {"gradcheck": {"taylor_steps": [1e-3, 1e-3]}}),
            ("gradcheck", "gradcheck.tol_rel",
             {"gradcheck": {"tol_rel": -1e-6}}),
            ("gradcheck", "gradcheck.amplitude",
             {"gradcheck": {"amplitude": 0.0}}),
            ("verify", "verify.gronwall_C", {"verify": {"gronwall_C": 1.0}}),
            ("verify", "verify.n_hessian_samples",
             {"verify": {"n_hessian_samples": 0}}),
            ("verify", "verify.n_embed_samples",
             {"verify": {"n_embed_samples": 0}}),
            ("verify", "verify.smallness_C_eps",
             {"verify": {"smallness_C_eps": -0.5}}))):
        bad = write_cfg(tmp_path, f"bad{i}.json", **override)
        assert run(command, bad, tmp_path / "o") == 2, field
        assert field in capsys.readouterr().err


def test_adjoint_runs(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert run("adjoint", cfg, out) == 0
    report = json.loads((out / "run.json").read_text())
    assert report["lambda_terminal_max"] == 0.0
    assert report["mu_minus_lambda0_max"] == 0.0
    assert (out / "adjoint.csv").is_file()


def test_gradcheck_pass_and_sabotage(tmp_path):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert run("gradcheck", cfg, out) == 0
    report = json.loads((out / "gradcheck.json").read_text())
    assert report["passed"] is True
    assert report["max_rel_error"] <= 1e-6
    assert report["taylor_order"] >= 1.9
    bad = write_cfg(tmp_path, "bad.json", debug={"sabotage_gradient": True})
    assert run("gradcheck", bad, tmp_path / "ob") == 1
    rep = json.loads((tmp_path / "ob" / "gradcheck.json").read_text())
    assert rep["passed"] is False
    zero = write_cfg(tmp_path, "zero.json", control={"amplitude": 0.0},
                     gradcheck={"amplitude": 0.0})
    assert run("gradcheck", zero, tmp_path / "oz") == 2


def test_optimize_and_twin(tmp_path):
    cfg = write_cfg(tmp_path, cost={"z_d": "twin"},
                    optimizer={"tol_g": 1e-5, "max_iters": 60})
    out = tmp_path / "o"
    assert run("optimize", cfg, out) == 0
    log = (out / "optimize_log.csv").read_text().splitlines()
    assert log[0].split(",") == ["iter", "J", "grad_norm", "step",
                                 "feasibility"]
    assert len(log) >= 3
    report = json.loads((out / "run.json").read_text())
    assert report["converged"] is True
    assert report["first_order"]["lambda_T"] == 0.0

    out_t = tmp_path / "t"
    assert run("twin", cfg, out_t) == 0
    twin = json.loads((out_t / "twin.json").read_text())
    assert twin["J_drop_factor"] > 10.0
    assert twin["lambda_ratio"] < 1.0
    assert (out_t / "omega_true.csv").is_file()
    assert (out_t / "omega_opt.csv").is_file()


def test_verify_passes_and_prints_table(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert run("verify", cfg, out) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    names = [c["name"] for c in report["hard"]]
    assert "helmholtz_round_trip" in names
    assert "gradient_vs_fd" in names
    assert all(c["passed"] for c in report["hard"])
    # only estimates that can fail are reported, each computed once
    assert [c["name"] for c in report["soft"]] == [
        "smallness", "multiplier_energy_bound", "tangent_kernel_bound"]
    so = report["second_order"]
    assert report["soft"][2]["lhs"] == so["kernel_bound_ratio"]
    assert not [k for k in so
                if k.startswith("lambda_bound_") or k == "kernel_bound_pass"]


def test_verify_determinism(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("verify", cfg, out1) == 0
    assert run("verify", cfg, out2) == 0
    assert (out1 / "verify.json").read_bytes() == \
        (out2 / "verify.json").read_bytes()


def test_verify_detects_corruption(tmp_path, capsys):
    cfg = write_cfg(tmp_path, debug={"corrupt_trajectory": True})
    out = tmp_path / "o"
    assert run("verify", cfg, out) == 1
    report = json.loads((out / "verify.json").read_text())
    failed = [c["name"] for c in report["hard"] if not c["passed"]]
    assert failed == ["weak_residual"]


def test_verify_zero_data(tmp_path):
    cfg = write_cfg(tmp_path, initial={"kind": "zero"},
                    control={"kind": "zero"})
    assert run("verify", cfg, tmp_path / "o") == 0


def test_twin_zero_control_trivial(tmp_path):
    cfg = write_cfg(tmp_path, cost={"z_d": "twin"},
                    control={"kind": "zero"})
    out = tmp_path / "o"
    assert run("twin", cfg, out) == 0
    twin = json.loads((out / "twin.json").read_text())
    assert twin["n_iters"] == 0


def test_blowup_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, model={"epsilon": 1e-4},
                    initial={"coefficients": [60.0]},
                    control={"kind": "zero"})
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = run("forward", cfg, tmp_path / "o")
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err
