import json
import tracemalloc
import warnings

import pytest

from conftest import HUGE_STATES
from mchcontrol import cli
from mchcontrol.analysis import make_report
from mchcontrol.cli import main
from mchcontrol.runners import format_verify_table

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
    # a file that is not UTF-8, and JSON nested past the recursion limit
    for name, blob in (
            ("latin1.json", json.dumps(BASE).replace("sine_mix", "sine\xe9mix")
             .encode("latin-1")),
            ("deep.json", b"[" * 100000 + b"]" * 100000)):
        (tmp_path / name).write_bytes(blob)
        assert run("forward", tmp_path / name, tmp_path / "o") == 2, name
        assert f"config file {tmp_path / name} is not valid JSON" in \
            capsys.readouterr().err
    # json.load accepts NaN and Infinity; every numeric field must be finite
    nan, inf = float("nan"), float("inf")
    for i, (command, field, override) in enumerate((
            ("forward", "model.k", {"model": {"k": nan}}),
            ("forward", "model.epsilon", {"model": {"epsilon": 10 ** 400}}),
            # an int field other than seed must fit in int64
            ("forward", "domain.n_interior",
             {"domain": {"n_interior": 10 ** 400}}),
            ("forward", "time.n_steps", {"time": {"n_steps": 2 ** 63}}),
            ("twin", "optimizer.memory", {"optimizer": {"memory": 2 ** 63}}),
            # nested deep enough that a recursive copy would overflow
            ("forward", "initial.coefficients",
             {"initial": {"coefficients": json.loads("[" * 600 + "]" * 600)}}),
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
            # gone: its old default is an unknown field now
            ("optimize", "optimizer.step0", {"optimizer": {"step0": 1.0}}),
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
            # a sample stack past the 2**63 bytes an array can hold
            ("verify", "verify.n_hessian_samples",
             {"verify": {"n_hessian_samples": 2 ** 59}}),
            ("verify", "verify.n_embed_samples",
             {"verify": {"n_embed_samples": 2 ** 59}}),
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
    assert set(report) == {"schema_version", "config_sha256", "command",
                           "grad_norm", "lambda_max"}
    assert report["lambda_max"] > 0.0
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


def test_gradcheck_memory_does_not_grow_with_directions(tmp_path):
    """gradcheck keeps one direction, the Taylor test's, however many it
    checks: its peak at 12 directions is within one lattice of its peak at
    2 (a kept direction per check would add 10)."""
    lattice = 241 * 24 * 8
    peaks = []
    for count in (2, 12):
        cfg = write_cfg(tmp_path, f"g{count}.json", time={"n_steps": 240},
                        gradcheck={"n_directions": count})
        tracemalloc.start()
        try:
            assert run("gradcheck", cfg, tmp_path / f"g{count}") == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < lattice


def test_optimize_and_twin(tmp_path):
    cfg = write_cfg(tmp_path, cost={"z_d": "twin"},
                    optimizer={"tol_g": 1e-5, "max_iters": 60})
    out = tmp_path / "o"
    assert run("optimize", cfg, out) == 0
    log = (out / "optimize_log.csv").read_text().splitlines()
    assert log[0].split(",") == ["iter", "J", "grad_norm", "step"]
    assert len(log) >= 3
    assert all(len(row.split(",")) == 4 for row in log[1:])
    report = json.loads((out / "run.json").read_text())
    assert report["converged"] is True
    assert set(report["first_order"]) == {"state_residual", "adjoint_residual",
                                          "adjoint_residual_rel"}

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
    so = report["second_order"]
    assert report["soft"][1]["lhs"] == so["kernel_bound_ratio"]


def test_format_verify_table_lines():
    """One line per entry, hard before soft, with the name padded to 28
    columns and lhs, rhs and a signed margin in 7 significant digits; the
    verdict line follows the passed flag alone."""
    hard = [make_report("helmholtz_round_trip", 1.5e-13, 1e-10)]
    soft = [make_report("tangent_kernel_bound", 2.0, 0.5)]
    entries = [
        "PASS  [hard] helmholtz_round_trip         lhs=1.500000e-13  "
        "rhs=1.000000e-10  margin=+9.985000e-11",
        "FAIL  [soft] tangent_kernel_bound         lhs=2.000000e+00  "
        "rhs=5.000000e-01  margin=-1.500000e+00"]
    for passed, verdict in ((True, "VERIFY PASS"), (False, "VERIFY FAIL")):
        text = format_verify_table(hard, soft, passed)
        assert text.split("\n") == entries + [verdict]


def test_verify_report_keys(tmp_path):
    """verify.json holds exactly these fields: only estimates that can
    fail are reported, each computed once."""
    cfg = write_cfg(tmp_path)
    out = tmp_path / "o"
    assert run("verify", cfg, out) == 0
    report = json.loads((out / "verify.json").read_text())
    assert set(report) == {"schema_version", "config_sha256", "command",
                           "hard", "soft", "first_order", "second_order",
                           "optimizer", "passed"}
    assert {frozenset(c) for c in report["hard"] + report["soft"]} == {
        frozenset({"name", "lhs", "rhs", "margin", "passed"})}
    assert [c["name"] for c in report["soft"]] == [
        "multiplier_energy_bound", "tangent_kernel_bound"]
    assert set(report["first_order"]) == {
        "state_residual", "adjoint_residual", "adjoint_residual_rel"}
    assert set(report["second_order"]) == {
        "c0", "c1", "c2", "c_embed", "kappa1", "kappa2", "n_samples",
        "empirical_min_ratio", "kernel_bound_ratio", "cond1_lhs",
        "cond1_rhs", "cond1_pass", "cond2_lhs", "cond2_rhs", "cond2_pass"}
    assert set(report["optimizer"]) == {"converged", "n_iters", "J_final",
                                        "grad_norm_final"}


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


# eps^2 underflows to 0 at 1e-200, so 4/eps^2 reads inf there
@pytest.mark.parametrize("epsilon", [1e-5, 1e-200],
                         ids=["epsilon-1e-5", "epsilon-1e-200"])
def test_verify_reports_overflowing_constants(tmp_path, capsys, epsilon):
    """A growth factor past the float range reads inf: only soft checks
    read it, so verify passes instead of leaving with a traceback."""
    cfg = write_cfg(tmp_path, model={"epsilon": epsilon})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("verify", cfg, out) == 0
    assert capsys.readouterr().out.endswith("VERIFY PASS\n")
    so = json.loads((out / "verify.json").read_text())["second_order"]
    assert (so["c1"], so["kappa1"], so["kappa2"]) == ("inf", "-inf", "-inf")


def test_verify_survives_overflowing_epsilon_square(tmp_path, capsys):
    """eps^2 past the float range reads inf (4/eps^2 = 0): verify writes its
    report and returns its checks' verdict instead of a traceback."""
    cfg = write_cfg(tmp_path, model={"epsilon": 1e306})
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run("verify", cfg, out) == 1
    assert "Traceback" not in capsys.readouterr().err
    report = json.loads((out / "verify.json").read_text())
    assert report["second_order"]["c1"] == 9.0
    failed = [c["name"] for c in report["hard"] if not c["passed"]]
    assert failed == ["weak_residual", "energy_identity"]


@pytest.mark.parametrize("L", [1e308, 1e-300])
def test_grid_spacing_out_of_float_range_exits_2(tmp_path, capsys, L):
    """h^2 overflows at L = 1e308 and 1/h^2 at L = 1e-300: the grid is a
    config error for every command, not a traceback in the solver."""
    cfg = write_cfg(tmp_path, domain={"L": L})
    for cmd in ("forward", "adjoint", "gradcheck", "optimize", "twin",
                "verify"):
        assert run(cmd, cfg, tmp_path / cmd) == 2, cmd
        assert "config error: Domain1D: h^2" in capsys.readouterr().err
        assert not (tmp_path / cmd).exists()


@pytest.mark.parametrize("grid", [{"time": {"n_steps": 10 ** 16}},
                                  {"domain": {"n_interior": 10 ** 16}},
                                  {"time": {"n_steps": 2 ** 62}},
                                  {"time": {"n_steps": 2 ** 63 - 1}}],
                         ids=["n_steps", "n_interior", "n_steps_2**62",
                              "n_steps_2**63-1"])
def test_grid_past_the_address_space_exits_2(tmp_path, capsys, grid):
    """A grid whose node or frame coordinates cannot be allocated is a
    config error for every command, not a traceback, and it names the
    size and its value."""
    cfg = write_cfg(tmp_path, **grid)
    [(section, sizes)] = grid.items()
    [(key, value)] = sizes.items()
    for cmd in ("forward", "adjoint", "gradcheck", "optimize", "twin",
                "verify"):
        assert run(cmd, cfg, tmp_path / cmd) == 2, cmd
        err = capsys.readouterr().err
        assert err.startswith(
            "config error: the grid does not fit in memory: "
            f"{section}.{key} = {value}: "), err
        assert not (tmp_path / cmd).exists()


def test_memory_error_in_a_command_exits_2(tmp_path, capsys, monkeypatch):
    """A grid that resolves but whose march lattice cannot be allocated
    leaves through the config-error exit."""
    def out_of_memory(cfg, out_dir):
        raise MemoryError("Unable to allocate 182. TiB")

    monkeypatch.setitem(cli._COMMANDS, "forward", out_of_memory)
    assert run("forward", write_cfg(tmp_path), tmp_path / "o") == 2
    assert capsys.readouterr().err == ("config error: the grid does not fit "
                                       "in memory: Unable to allocate 182. "
                                       "TiB\n")


def test_twin_zero_control_trivial(tmp_path):
    cfg = write_cfg(tmp_path, cost={"z_d": "twin"},
                    control={"kind": "zero"})
    out = tmp_path / "o"
    assert run("twin", cfg, out) == 0
    twin = json.loads((out / "twin.json").read_text())
    assert twin["n_iters"] == 0


# (overrides, command, exit code, failing step or None); the steps are those
# of the indexed step loops on this config, which the in-place loops keep
BLOWUPS = {
    "stiff-large-state": ({"model": {"epsilon": 1e-4},
                           "initial": {"coefficients": [60.0]},
                           "control": {"kind": "zero"}}, "forward", 3, 6),
    "amplitude-1e300": ({"control": {"amplitude": 1e300}}, "forward", 3, 18),
    "T-1e300": ({"time": {"T": 1e300}}, "forward", 3, 37),
    "k-1e308": ({"model": {"k": 1e308}}, "forward", 3, 2),
    "coefficient-1e308": ({"initial": {"coefficients": [1e308, 0.1]}},
                          "forward", 3, 1),
    "T-1e-300": ({"time": {"T": 1e-300}}, "forward", 0, None),
    "delta-1e300": ({"cost": {"delta": 1e300}}, "twin", 1, None),
    "fd_step-1e300": ({"gradcheck": {"fd_step": 1e300}}, "gradcheck", 3, 17),
    "taylor_steps-1e300": ({"gradcheck": {"taylor_steps": [1e300, 1e-3]}},
                           "gradcheck", 3, 17),
    # the difference quotient reads 0, so the gradient check fails
    "fd_step-1e-300": ({"gradcheck": {"fd_step": 1e-300}}, "gradcheck", 1,
                       None),
}


@pytest.mark.parametrize("case", list(BLOWUPS))
def test_blowup_exits_3(tmp_path, capsys, case):
    """Overflow fails with exit 3 at its step; a float field near the end
    of the range that does not overflow exits 0, or 1 with the optimizer's
    stop reason or a failed gradient check; none leaves a traceback."""
    overrides, command, code, step = BLOWUPS[case]
    cfg = write_cfg(tmp_path, **overrides)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = run(command, cfg, tmp_path / "o")
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    if step is not None:
        assert ("numerical failure: forward state lost finiteness at step "
                f"{step}/60") in err
    if command == "twin":
        twin = json.loads((tmp_path / "o" / "twin.json").read_text())
        assert twin["converged"] is False
        assert twin["message"].startswith("line search stalled at iter 1")
    if command == "gradcheck" and code == 1:
        rep = json.loads((tmp_path / "o" / "gradcheck.json").read_text())
        assert rep["max_rel_error"] == 1.0


@pytest.mark.parametrize("check", list(HUGE_STATES))
def test_verify_threshold_past_float_range_exits_3(tmp_path, capsys, check):
    """A hard check whose threshold does not fit in a float gives no
    verdict (an inf one would pass any lhs): exit 3, naming the check,
    where forward on the same config exits 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(HUGE_STATES[check]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run("forward", cfg, tmp_path / "f") == 0
        assert run("verify", cfg, tmp_path / "o") == 3
    assert capsys.readouterr().err == (
        f"numerical failure: {check}: threshold past the float range\n")


def test_unusable_out_path_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a regular file, not a directory\n")
    assert run("forward", cfg, taken) == 2
    assert "io error" in capsys.readouterr().err
    assert taken.read_text() == "a regular file, not a directory\n"
