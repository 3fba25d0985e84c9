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

from . import cmarch
from .grid import d2, norm_h
from .helmholtz import get_operator
from .forward import (apply_B, norm_q0, inner_q0, solve_forward,
                      weak_residual, trajectory_from_arrays,
                      export_trajectory_csv)
from .tangent_adjoint import pairing_defect
from .control import (TrackingProblem, OptimOptions, cost, reduced_gradient,
                      central_difference, optimize, lagrangian,
                      first_order_residuals, lambda_bound_check,
                      coercivity_check)
from .analysis import growth, make_report, energy_identity, momentum_identity
from .errors import NumericsError
from .config import config_hash, build_problem_pieces, initial_field, \
    control_field

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    """A report with its dicts, lists and tuples walked and its non-finite
    floats spelled out ("nan", "inf", "-inf"); anything else as it is."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else ("inf" if obj > 0 else "-inf")
    return obj


def _optim_summary(state) -> dict:
    """The optimizer's end points and stop reason, as optimize and twin
    report them."""
    return {"J_initial": state.costs[0], "J_final": state.costs[-1],
            "grad_norm_initial": state.grad_norms[0],
            "grad_norm_final": state.grad_norms[-1],
            "n_iters": state.n_iters, "converged": state.converged,
            "stalled": state.stalled, "message": state.message}


class _Output:
    """One command's output directory and the stamp on every artifact.

    The JSON report, each trajectory CSV and its sidecar carry the sha256
    of the resolved config; the report adds schema_version and the command,
    the sidecar the command, epsilon, k and seed.
    """

    def __init__(self, cfg: dict, out_dir, command: str):
        cmarch.library()  # first: a command that cannot build it makes no dir
        self.dir = str(out_dir)
        os.makedirs(self.dir, exist_ok=True)
        self.command = command
        self.hash = config_hash(cfg)
        p = cfg["model"]
        self.params = {"command": command, "epsilon": p["epsilon"],
                       "k": p["k"], "seed": cfg["seed"]}

    def csv(self, name, domain, tg, columns: dict):
        export_trajectory_csv(os.path.join(self.dir, name), domain, tg,
                              columns, self.params, self.hash)

    def log(self, state):
        """Optimizer iteration log with exact-representation floats; its
        first line is the header, so it carries no stamp."""
        with open(os.path.join(self.dir, "optimize_log.csv"), "w",
                  newline="\n") as f:
            f.write("iter,J,grad_norm,step\n")
            for it, J, gn, st in state.log_rows():
                f.write(f"{it},{J!r},{gn!r},{st!r}\n")

    def report(self, name, **fields):
        payload = {"schema_version": SCHEMA_VERSION,
                   "config_sha256": self.hash, "command": self.command,
                   **fields}
        with open(os.path.join(self.dir, name), "w", newline="\n") as f:
            json.dump(_jsonable(payload), f, indent=2, sort_keys=True)
            f.write("\n")


# ---------------------------------------------------------------------------
# problem assembly


def build_problem(cfg: dict, rng):
    """TrackingProblem with the target per cost.z_d, plus the synthetic
    truth control when that is a twin (None otherwise). A marched target
    keeps a copy of its momentum frames only: its .y is a view into the
    march's joint block with the velocities."""
    domain, tg, p, window = build_problem_pieces(cfg)
    y0 = initial_field(cfg, domain)
    kind, omega_true = cfg["cost"]["z_d"], None
    if kind == "zero":
        z_d = np.zeros(window.shape)
    elif kind == "uncontrolled":
        z_d = solve_forward(domain, tg, p, y0).y.copy()
    else:
        omega_true = control_field(cfg, window, rng)
        z_d = solve_forward(domain, tg, p, y0, window, omega_true).y.copy()
    problem = TrackingProblem(domain, tg, p, window, y0, z_d,
                              cfg["cost"]["delta"])
    return problem, omega_true


# ---------------------------------------------------------------------------
# subcommand runners


def run_forward(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "forward")
    domain, tg, p, window = build_problem_pieces(cfg)
    rng = np.random.default_rng(cfg["seed"])
    y0 = initial_field(cfg, domain)
    omega = control_field(cfg, window, rng)
    ftraj = solve_forward(domain, tg, p, y0, window, omega)
    out.csv("trajectory.csv", domain, tg, {"y": ftraj.y, "u": ftraj.u})
    out.report("run.json", max_abs_y=float(np.max(np.abs(ftraj.y))),
               max_abs_u=float(np.max(np.abs(ftraj.u))),
               final_norm_y=norm_h(domain, ftraj.y[-1]),
               control_norm=norm_q0(window, omega))
    return 0


def run_adjoint(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "adjoint")
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    omega = control_field(cfg, problem.window, rng)
    g, info = reduced_gradient(problem, omega)
    adj = info["adjoint"]
    out.csv("adjoint.csv", problem.domain, problem.tg, {"lambda": adj.lam})
    out.report("run.json", grad_norm=norm_q0(problem.window, g),
               lambda_max=float(np.max(np.abs(adj.lam))))
    return 0


def run_gradcheck(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "gradcheck")
    gc = cfg["gradcheck"]
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    window = problem.window
    omega = control_field(cfg, window, rng)
    g, info = reduced_gradient(problem, omega)
    J0, _ = cost(problem, omega, info["ftraj"])
    if cfg["debug"]["sabotage_gradient"]:
        # negative control: bias the reported gradient so FD disagrees
        g = g + 0.1 * (1.0 + norm_q0(window, g))

    fd_rows = []
    for i in range(gc["n_directions"]):
        q = window.random_control(rng)
        q = q / norm_q0(window, q)
        if i == 0:
            q0 = q  # the Taylor test's direction; the others are dropped
        fd, directional, rel = central_difference(problem, omega, g, q,
                                                  gc["fd_step"])
        fd_rows.append({"direction": i, "fd": fd, "adjoint": directional,
                        "rel_error": rel})
    max_rel = max(r["rel_error"] for r in fd_rows)

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
    out.report("gradcheck.json", fd_table=fd_rows, taylor_table=taylor_rows,
               max_rel_error=max_rel, taylor_order=order,
               tol_rel=gc["tol_rel"], passed=passed)
    return 0 if passed else 1


def run_optimize(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "optimize")
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    state = optimize(problem, control_field(cfg, problem.window, rng),
                     OptimOptions(**cfg["optimizer"]))
    out.log(state)
    out.csv("omega.csv", problem.domain, problem.tg,
            {"omega": apply_B(problem.window, state.omega)})
    fo = first_order_residuals(problem, state)
    out.report("run.json", **_optim_summary(state), first_order=fo)
    return 0 if state.converged else 1


def run_twin(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "twin")
    rng = np.random.default_rng(cfg["seed"])
    # twin tracks the configured control's trajectory, whatever cost.z_d is
    cfg_twin = dict(cfg, cost=dict(cfg["cost"], z_d="twin"))
    problem, omega_true = build_problem(cfg_twin, rng)
    window = problem.window
    state = optimize(problem, window.zero_control(),
                     OptimOptions(**cfg["optimizer"]))
    out.log(state)
    for name, col, omega in (("omega_true.csv", "omega_true", omega_true),
                             ("omega_opt.csv", "omega", state.omega)):
        out.csv(name, problem.domain, problem.tg,
                {col: apply_B(window, omega)})

    J0, Jf = state.costs[0], state.costs[-1]
    drop = J0 / Jf if Jf > 0 else (1.0 if J0 == 0 else math.inf)
    lam_n = norm_q0(window, state.adjoint.lam[window.block])  # ||B* lambda||
    lam_ratio = state.grad_norms[-1] / lam_n if lam_n > 0 else math.inf
    _, parts = cost(problem, state.omega, state.ftraj)
    true_n = norm_q0(window, omega_true)
    ctrl_err = norm_q0(window, state.omega - omega_true)
    out.report(
        "twin.json", **_optim_summary(state), J_drop_factor=drop,
        tracking_error_sq=2.0 * parts["tracking"], control_error=ctrl_err,
        control_error_rel=ctrl_err / true_n if true_n > 0 else 0.0,
        control_true_norm=true_n, lambda_ratio=lam_ratio)
    return 0 if state.converged else 1


# ---------------------------------------------------------------------------
# verification battery


def _hard_checks(cfg, problem, state, fo, rng):
    """Exact identities and consistency checks at the optimizer's final
    state, each of which the run can fail; these gate the exit code. fo is
    first_order_residuals there."""
    omega, ftraj = state.omega, state.ftraj
    domain, tg = problem.domain, problem.tg
    p, window = problem.model, problem.window
    dt, hx = tg.dt, domain.h
    checks = []

    ys = rng.standard_normal((20, domain.n_interior))
    u = get_operator(domain).solve(ys)
    err = norm_h(domain, u - d2(domain, u) - ys) / norm_h(domain, ys)
    checks.append(make_report("helmholtz_round_trip", np.max(err), 1e-10))

    worst = 0.0
    for _ in range(3):
        q = window.random_control(rng)
        s = rng.standard_normal((tg.n_steps + 1, domain.n_interior))
        worst = max(worst, pairing_defect(ftraj, window, q, s, p))
    checks.append(make_report("transpose_identity", worst, 1e-10))

    step = cfg["gradcheck"]["fd_step"]
    worst = max(central_difference(problem, omega, state.grad,
                                   q / norm_q0(window, q), step)[2]
                for q in (window.random_control(rng) for _ in range(2)))
    checks.append(make_report("gradient_vs_fd", worst, 1e-6))

    wtraj = ftraj
    if cfg["debug"]["corrupt_trajectory"]:
        # negative control: one frame perturbed, velocity kept consistent
        ybad = ftraj.y.copy()
        ybad[tg.n_steps // 2] += 1e-2
        ubad = get_operator(domain).solve(ybad)
        wtraj = trajectory_from_arrays(domain, tg, ybad, ubad)
    ymax = float(np.max(np.abs(ftraj.y)))
    scale = 1.0 + growth(lambda m: m ** 3, ymax)
    wr = weak_residual(wtraj, p, window, omega)
    checks.append(make_report("weak_residual", wr,
                              20.0 * (dt + hx ** 2) * scale))

    J = state.costs[-1]  # cost(problem, omega, ftraj), bit for bit
    lam = rng.standard_normal((tg.n_steps + 1, domain.n_interior))
    mu = rng.standard_normal(domain.n_interior)
    L = lagrangian(problem, omega, ftraj.y, lam, mu, c=1.7)
    checks.append(make_report("lagrangian_feasible", abs(L - J),
                              1e-12 * (1.0 + abs(J))))

    checks.append(make_report("state_equation_exact", fo["state_residual"],
                              1e-12 * (1.0 + ymax)))

    worst = np.max(momentum_identity(domain, ftraj.y)[2])
    checks.append(make_report("momentum_identity", worst, 50.0 * hx ** 2))

    en = energy_identity(ftraj, p, window, omega)
    esc = 1.0 + growth(lambda m: m ** 2, float(np.max(en["energy"])))
    checks.append(make_report("energy_identity", en["max_abs"],
                              50.0 * (dt + hx ** 2) * esc))
    for r in checks:
        if not math.isfinite(r["rhs"]):  # inf would pass any lhs: no verdict
            raise NumericsError(f"{r['name']}: threshold past the float "
                                "range")
    return checks


def _soft_checks(problem, state, so):
    """Inequalities whose constants the theory leaves existential, at the
    optimizer's final state; reported with margins, never gating. so is
    coercivity_check there, whose c0 the multiplier bound reads."""
    lb = lambda_bound_check(problem, state, so["c0"])
    return [
        make_report("multiplier_energy_bound", lb["lhs"], lb["rhs"]),
        make_report("tangent_kernel_bound", so["kernel_bound_ratio"],
                    so["c1"]),
    ]


def run_verify(cfg: dict, out_dir) -> int:
    out = _Output(cfg, out_dir, "verify")
    rng = np.random.default_rng(cfg["seed"])
    problem, _ = build_problem(cfg, rng)
    state = optimize(problem, control_field(cfg, problem.window, rng),
                     OptimOptions(**cfg["optimizer"]))

    fo = first_order_residuals(problem, state)
    hard = _hard_checks(cfg, problem, state, fo, rng)
    so = coercivity_check(problem, state, rng,
                          n_samples=cfg["verify"]["n_hessian_samples"],
                          n_embed_samples=cfg["verify"]["n_embed_samples"])
    soft = _soft_checks(problem, state, so)

    passed = all(r["passed"] for r in hard)
    out.report("verify.json", hard=hard, soft=soft, first_order=fo,
               second_order=so,
               optimizer={"converged": state.converged,
                          "n_iters": state.n_iters,
                          "J_final": state.costs[-1],
                          "grad_norm_final": state.grad_norms[-1]},
               passed=passed)
    print(format_verify_table(hard, soft, passed))
    return 0 if passed else 1


def format_verify_table(hard, soft, passed: bool) -> str:
    lines = []
    for kind, reports in (("hard", hard), ("soft", soft)):
        for r in reports:
            status = "PASS" if r["passed"] else "FAIL"
            lines.append(f"{status}  [{kind}] {r['name']:28s} "
                         f"lhs={r['lhs']:.6e}  rhs={r['rhs']:.6e}  "
                         f"margin={r['margin']:+.6e}")
    lines.append("VERIFY " + ("PASS" if passed else "FAIL"))
    return "\n".join(lines)
