"""Experiment drivers behind the command-line subcommands.

Every runner takes a resolved config dict and an output directory, writes its
artifacts there, and returns a process exit code: 0 on success, 1 when a
check misses its threshold. Config and numerics errors propagate as
exceptions; the CLI maps them to exit codes 2 and 3. Outputs are
deterministic for a fixed config: floats serialize through repr, JSON keys
are sorted, and nothing records wall-clock time.
"""

import json
import math
import os

import numpy as np

from .errors import ConfigError
from .grid import Domain1D, TimeGrid, norm_h
from .helmholtz import get_operator
from .forward import (ModelParams, ControlWindow, apply_B, restrict_B,
                      norm_q0, inner_q0, solve_forward, weak_residual,
                      trajectory_from_arrays, export_trajectory_csv)
from .tangent_adjoint import pairing_defect
from .control import (TrackingProblem, OptimOptions, cost, reduced_gradient,
                      optimize, lagrangian, first_order_residuals, constants,
                      lambda_bound_check, coercivity_check)
from .analysis import (make_report, energy_identity, momentum_identity,
                       smallness_margin)
from .config import config_hash, build_problem_pieces, initial_field, \
    control_field

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """Recursively coerce numpy scalars/arrays; spell non-finite floats out."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def write_json(path, payload: dict):
    with open(path, "w", newline="\n") as f:
        json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
        f.write("\n")


def _report_stub(cfg: dict, command: str) -> dict:
    return {"schema_version": SCHEMA_VERSION,
            "config_sha256": config_hash(cfg),
            "command": command}


def _prep_out(out_dir) -> str:
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def _csv_params(cfg: dict, command: str) -> dict:
    p = cfg["model"]
    return {"command": command, "epsilon": p["epsilon"], "k": p["k"],
            "seed": cfg["seed"]}


def write_log_csv(path, rows):
    """Optimizer iteration log with exact-representation floats."""
    with open(path, "w", newline="\n") as f:
        f.write("iter,J,grad_norm,step,feasibility\n")
        for it, J, gn, st, feas in rows:
            f.write(f"{it},{J!r},{gn!r},{st!r},{feas!r}\n")


# ---------------------------------------------------------------------------
# problem assembly


def make_target(cfg: dict, domain: Domain1D, tg: TimeGrid, p: ModelParams,
                window: ControlWindow, y0, rng):
    """Target trajectory per cost.z_d; returns (z_d, omega_true or None)."""
    kind = cfg["cost"]["z_d"]
    if kind == "zero":
        return np.zeros((tg.n_steps + 1, domain.n_interior)), None
    if kind == "uncontrolled":
        return solve_forward(domain, tg, p, y0).y, None
    omega_true = control_field(cfg, window, rng)
    ft = solve_forward(domain, tg, p, y0, apply_B(window, omega_true))
    return ft.y, omega_true


def build_problem(cfg: dict, rng):
    """TrackingProblem plus the synthetic truth control when z_d is a twin."""
    domain, tg, p, window = build_problem_pieces(cfg)
    y0 = initial_field(cfg, domain)
    z_d, omega_true = make_target(cfg, domain, tg, p, window, y0, rng)
    problem = TrackingProblem(domain, tg, p, window, y0, z_d,
                              cfg["cost"]["delta"])
    return problem, omega_true


def optim_options(cfg: dict) -> OptimOptions:
    o = cfg["optimizer"]
    return OptimOptions(tol_g=o["tol_g"], tol_g_abs=o["tol_g_abs"],
                        max_iters=o["max_iters"], memory=o["memory"],
                        step0=o["step0"])


# ---------------------------------------------------------------------------
# subcommand runners


def run_forward(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    h = config_hash(cfg)
    domain, tg, p, window = build_problem_pieces(cfg)
    rng = np.random.default_rng(cfg["seed"])
    y0 = initial_field(cfg, domain)
    omega = control_field(cfg, window, rng)
    ftraj = solve_forward(domain, tg, p, y0, apply_B(window, omega))
    export_trajectory_csv(os.path.join(out, "trajectory.csv"), ftraj,
                          _csv_params(cfg, "forward"), h)
    report = _report_stub(cfg, "forward")
    report.update({
        "max_abs_y": float(np.max(np.abs(ftraj.y))),
        "max_abs_u": float(np.max(np.abs(ftraj.u))),
        "final_norm_y": norm_h(domain, ftraj.y[-1]),
        "control_norm": norm_q0(window, omega),
    })
    write_json(os.path.join(out, "run.json"), report)
    return 0


def run_adjoint(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    h = config_hash(cfg)
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    omega = control_field(cfg, problem.window, rng)
    g, info = reduced_gradient(problem, omega)
    adj, ftraj = info["adjoint"], info["ftraj"]
    export_trajectory_csv(os.path.join(out, "adjoint.csv"), ftraj,
                          _csv_params(cfg, "adjoint"), h,
                          value_names=("lambda",), values=(adj.lam,))
    report = _report_stub(cfg, "adjoint")
    report.update({
        "grad_norm": norm_q0(problem.window, g),
        "lambda_terminal_max": float(np.max(np.abs(adj.lam[-1]))),
        "mu_minus_lambda0_max": float(np.max(np.abs(adj.mu - adj.lam[0]))),
        "lambda_max": float(np.max(np.abs(adj.lam))),
    })
    write_json(os.path.join(out, "run.json"), report)
    return 0


def run_gradcheck(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    gc = cfg["gradcheck"]
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    window = problem.window
    omega = control_field(cfg, window, rng)
    J0, _ = cost(problem, omega)
    g, _ = reduced_gradient(problem, omega)
    if cfg["debug"]["sabotage_gradient"]:
        # negative control: bias the reported gradient so FD disagrees
        g = g + 0.1 * (1.0 + norm_q0(window, g)) * window.mask

    fd_rows = []
    eps_fd = gc["fd_step"]
    directions = []
    for i in range(gc["n_directions"]):
        q = window.random_control(rng, amplitude=gc["amplitude"])
        qn = norm_q0(window, q)
        if qn == 0.0:
            raise ConfigError("gradcheck produced the degenerate direction "
                              "q == 0; enlarge the window")
        q = q / qn
        directions.append(q)
        Jp, _ = cost(problem, omega + eps_fd * q)
        Jm, _ = cost(problem, omega - eps_fd * q)
        fd = (Jp - Jm) / (2.0 * eps_fd)
        directional = inner_q0(window, g, q)
        denom = max(abs(fd), abs(directional), 1e-300)
        fd_rows.append({"direction": i, "fd": fd, "adjoint": directional,
                        "rel_error": abs(fd - directional) / denom})
    max_rel = max(r["rel_error"] for r in fd_rows)

    q0 = directions[0]
    d0 = inner_q0(window, g, q0)
    taylor_rows = []
    for hc in gc["taylor_steps"]:
        Jh, _ = cost(problem, omega + hc * q0)
        rem = abs(Jh - J0 - hc * d0)
        taylor_rows.append({"h": float(hc), "remainder": rem})
    hs = np.array([r["h"] for r in taylor_rows])
    rems = np.array([max(r["remainder"], 1e-300) for r in taylor_rows])
    order = float(np.polyfit(np.log(hs), np.log(rems), 1)[0])

    passed = bool(max_rel <= gc["tol_rel"] and order >= 1.9)
    report = _report_stub(cfg, "gradcheck")
    report.update({
        "fd_table": fd_rows,
        "taylor_table": taylor_rows,
        "max_rel_error": max_rel,
        "taylor_order": order,
        "tol_rel": gc["tol_rel"],
        "passed": passed,
    })
    write_json(os.path.join(out, "gradcheck.json"), report)
    return 0 if passed else 1


def run_optimize(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    h = config_hash(cfg)
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    omega0 = control_field(cfg, problem.window, rng)
    state = optimize(problem, omega0, optim_options(cfg))
    write_log_csv(os.path.join(out, "optimize_log.csv"), state.log_rows())
    export_trajectory_csv(os.path.join(out, "omega.csv"), state.ftraj,
                          _csv_params(cfg, "optimize"), h,
                          value_names=("omega",), values=(state.omega,))
    fo = first_order_residuals(problem, state.omega, state.ftraj,
                               state.adjoint)
    report = _report_stub(cfg, "optimize")
    report.update({
        "J_initial": state.costs[0],
        "J_final": state.costs[-1],
        "grad_norm_initial": state.grad_norms[0],
        "grad_norm_final": state.grad_norms[-1],
        "n_iters": state.n_iters,
        "converged": state.converged,
        "stalled": state.stalled,
        "message": state.message,
        "first_order": fo,
    })
    write_json(os.path.join(out, "run.json"), report)
    return 0 if state.converged else 1


def run_twin(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    h = config_hash(cfg)
    domain, tg, p, window = build_problem_pieces(cfg)
    rng = np.random.default_rng(cfg["seed"])
    y0 = initial_field(cfg, domain)
    omega_true = control_field(cfg, window, rng)
    z_d = solve_forward(domain, tg, p, y0, apply_B(window, omega_true)).y
    problem = TrackingProblem(domain, tg, p, window, y0, z_d,
                              cfg["cost"]["delta"])
    state = optimize(problem, window.zero_control(), optim_options(cfg))
    write_log_csv(os.path.join(out, "optimize_log.csv"), state.log_rows())

    export_trajectory_csv(os.path.join(out, "omega_true.csv"), state.ftraj,
                          _csv_params(cfg, "twin"), h,
                          value_names=("omega_true",), values=(omega_true,))
    export_trajectory_csv(os.path.join(out, "omega_opt.csv"), state.ftraj,
                          _csv_params(cfg, "twin"), h,
                          value_names=("omega",), values=(state.omega,))

    J0, Jf = state.costs[0], state.costs[-1]
    drop = J0 / Jf if Jf > 0 else (1.0 if J0 == 0 else math.inf)
    lam_n = norm_q0(window, restrict_B(window, state.adjoint.lam))
    lam_ratio = norm_q0(window, state.grad) / lam_n if lam_n > 0 else math.inf
    _, parts = cost(problem, state.omega, state.ftraj)
    true_n = norm_q0(window, omega_true)
    ctrl_err = norm_q0(window, state.omega - omega_true)
    report = _report_stub(cfg, "twin")
    report.update({
        "J_initial": J0,
        "J_final": Jf,
        "J_drop_factor": drop,
        "grad_norm_initial": state.grad_norms[0],
        "grad_norm_final": state.grad_norms[-1],
        "n_iters": state.n_iters,
        "converged": state.converged,
        "stalled": state.stalled,
        "message": state.message,
        "tracking_error_sq": 2.0 * parts["tracking"],
        "control_error": ctrl_err,
        "control_error_rel": ctrl_err / true_n if true_n > 0 else 0.0,
        "control_true_norm": true_n,
        "lambda_ratio": lam_ratio,
    })
    write_json(os.path.join(out, "twin.json"), report)
    return 0 if state.converged else 1


# ---------------------------------------------------------------------------
# verification battery


def _hard_checks(cfg, problem, state, fo, rng):
    """Exact identities and frozen oracles at the optimizer's final state;
    these gate the exit code. fo is first_order_residuals there."""
    omega, ftraj = state.omega, state.ftraj
    domain, tg = problem.domain, problem.tg
    p, window = problem.model, problem.window
    dt, hx = tg.dt, domain.h
    checks = []

    op = get_operator(domain)
    ys = rng.standard_normal((20, domain.n_interior))
    err = norm_h(domain, op.apply(op.solve(ys)) - ys) / norm_h(domain, ys)
    checks.append(make_report("helmholtz_round_trip", np.max(err), 1e-10))

    worst = 0.0
    for _ in range(3):
        q = window.random_control(rng)
        s = rng.standard_normal((tg.n_steps + 1, domain.n_interior))
        worst = max(worst, pairing_defect(ftraj, window, q, s, p))
    checks.append(make_report("transpose_identity", worst, 1e-10))

    g = state.grad
    eps_fd = cfg["gradcheck"]["fd_step"]
    worst = 0.0
    for _ in range(2):
        q = window.random_control(rng)
        qn = norm_q0(window, q)
        if qn == 0.0:
            continue
        q = q / qn
        Jp, _ = cost(problem, omega + eps_fd * q)
        Jm, _ = cost(problem, omega - eps_fd * q)
        fd = (Jp - Jm) / (2.0 * eps_fd)
        dg = inner_q0(window, g, q)
        worst = max(worst, abs(fd - dg) / max(abs(fd), abs(dg), 1e-300))
    checks.append(make_report("gradient_vs_fd", worst, 1e-6))

    wtraj = ftraj
    if cfg["debug"]["corrupt_trajectory"]:
        # negative control: one frame perturbed, velocity kept consistent
        ybad = ftraj.y.copy()
        ybad[tg.n_steps // 2] += 1e-2
        ubad = op.solve(ybad)
        wtraj = trajectory_from_arrays(domain, tg, ybad, ubad)
    scale = 1.0 + float(np.max(np.abs(ftraj.y))) ** 3
    wr = weak_residual(wtraj, apply_B(window, omega), p)
    checks.append(make_report("weak_residual", wr,
                              20.0 * (dt + hx ** 2) * scale))

    J, _ = cost(problem, omega, ftraj)
    lam = rng.standard_normal((tg.n_steps + 1, domain.n_interior))
    mu = rng.standard_normal(domain.n_interior)
    L = lagrangian(problem, omega, ftraj.y, lam, mu, c=1.7)
    checks.append(make_report("lagrangian_feasible", abs(L - J),
                              1e-12 * (1.0 + abs(J))))

    checks.append(make_report("adjoint_terminal_zero", fo["lambda_T"], 0.0))
    checks.append(make_report("multiplier_matches_lambda0",
                              fo["mu_minus_lambda0"], 0.0))
    checks.append(make_report("state_equation_exact", fo["state_residual"],
                              1e-12 * (1.0 + float(np.max(np.abs(ftraj.y))))))

    dev = _constants_oracle_deviation()
    checks.append(make_report("constants_unit_values", dev, 1e-12))

    worst = np.max(momentum_identity(domain, ftraj.y)[2])
    checks.append(make_report("momentum_identity", worst, 50.0 * hx ** 2))

    en = energy_identity(ftraj, p, omega=omega, window=window)
    esc = 1.0 + float(np.max(en["energy"])) ** 2
    checks.append(make_report("energy_identity", en["max_abs"],
                              50.0 * (dt + hx ** 2) * esc))

    total, parts = cost(problem, omega, ftraj)
    bad = max(-total, abs(total - parts["tracking"] - parts["regularization"]))
    checks.append(make_report("cost_consistency", bad,
                              1e-15 * (1.0 + abs(total))))
    return checks


def _constants_oracle_deviation() -> float:
    """Max deviation of constants() from its three frozen unit values."""
    d = Domain1D(1.0, 7)
    z = np.zeros((3, 7))
    _, _, c1_a = constants(d, TimeGrid(1.0, 2), z, ModelParams(epsilon=1.0))
    dev = abs(c1_a - 13.0)
    y = np.zeros((3, 7))
    y[0, 0] = math.sqrt(6.0) / math.sqrt(d.h)   # ||y||_C(H)^2 = 6
    _, c2_b, _ = constants(d, TimeGrid(1.0, 2), y, ModelParams(epsilon=0.5))
    dev = max(dev, abs(c2_b - 1.0))
    y[0, 0] = 1.0 / math.sqrt(d.h)              # ||y||_C(H) = 1
    c0_c, _, _ = constants(d, TimeGrid(1.0, 2), y, ModelParams(epsilon=1.0))
    return max(dev, abs(c0_c - 8.0625))


def _soft_checks(cfg, problem, state, so):
    """Inequalities whose constants the theory leaves existential, at the
    optimizer's final state; reported with margins, never gating. so is
    coercivity_check there."""
    lb = lambda_bound_check(problem, state.omega, state.ftraj, state.adjoint)
    return [
        smallness_margin(problem.domain, problem.tg, problem.window,
                         problem.y0, state.omega,
                         cfg["verify"]["smallness_C_eps"]),
        make_report("multiplier_energy_bound", lb["lhs"], lb["rhs"],
                    meta={"c0": lb["c0"]}),
        make_report("tangent_kernel_bound", so.kernel_bound_ratio, so.c1),
    ]


def run_verify(cfg: dict, out_dir) -> int:
    out = _prep_out(out_dir)
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    window = problem.window

    omega0 = control_field(cfg, window, rng)
    state = optimize(problem, omega0, optim_options(cfg))
    omega, ftraj, adj = state.omega, state.ftraj, state.adjoint

    fo = first_order_residuals(problem, omega, ftraj, adj)
    hard = _hard_checks(cfg, problem, state, fo, rng)
    so = coercivity_check(problem, omega, rng,
                          n_samples=cfg["verify"]["n_hessian_samples"],
                          n_embed_samples=cfg["verify"]["n_embed_samples"],
                          ftraj=ftraj, adj=adj)
    soft = _soft_checks(cfg, problem, state, so)

    passed = all(r.passed for r in hard)
    report = _report_stub(cfg, "verify")
    report.update({
        "hard": [r.to_dict() for r in hard],
        "soft": [r.to_dict() for r in soft],
        "first_order": fo,
        "second_order": so.to_dict(),
        "optimizer": {"converged": state.converged,
                      "n_iters": state.n_iters,
                      "J_final": state.costs[-1],
                      "grad_norm_final": state.grad_norms[-1]},
        "passed": passed,
    })
    write_json(os.path.join(out, "verify.json"), report)
    print(format_verify_table(hard, soft, passed))
    return 0 if passed else 1


def format_verify_table(hard, soft, passed: bool) -> str:
    lines = []
    for kind, reports in (("hard", hard), ("soft", soft)):
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            lines.append(f"{status}  [{kind}] {r.name:28s} "
                         f"lhs={r.lhs:.6e}  rhs={r.rhs:.6e}  "
                         f"margin={r.margin:+.6e}")
    lines.append("VERIFY " + ("PASS" if passed else "FAIL"))
    return "\n".join(lines)
