"""In-memory span tracing of mchcontrol, installed from outside the package.

The tracer wraps the public functions of each module and the public methods
of its classes, and patches every place they are looked up: the defining
module, each module that imported the name, and the class attribute. A span
is (name, start, end, parent index); a layer is the module a span's function
lives in, and its self time is the spans' durations minus the part their
child spans cover. The stencils d1/d2 are counted without spans, and the
shape validators as_field/as_trajectory are left alone: both run on every
step, and their time stays with the caller.

Probe is the light variant installed on every command, traced or not: it
counts marches and keeps the optimizer's final state, and adds no spans.
"""

import importlib
import inspect
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "helmholtz", "forward", "tangent_adjoint", "control",
          "analysis", "config", "runners", "cli")
# reported together as runners.self_s, the time no numerical layer claims
RUNNER_LAYERS = ("runners", "config", "cli")
COUNT_ONLY = frozenset({"grid.d1", "grid.d2"})
UNTRACED = frozenset({"grid.as_field", "grid.as_trajectory"})
# non-public methods that still get a span
EXTRA_METHODS = frozenset({"helmholtz.ShiftedLaplacianSolver.__init__"})
EXPORT = "forward.export_trajectory_csv"

MARCHES = {
    "forward": ("mchcontrol.forward", "solve_forward"),
    "tangent": ("mchcontrol.tangent_adjoint", "solve_tangent"),
    "adjoint": ("mchcontrol.tangent_adjoint", "solve_adjoint_discrete"),
    "adjoint_continuous": ("mchcontrol.tangent_adjoint",
                           "solve_adjoint_continuous"),
}


class Patches:
    """Replaces objects in mchcontrol's namespaces; undo() restores them."""

    def __init__(self):
        self._undo = []

    def swap_functions(self, replacements: dict):
        """replacements maps id(old function) -> new object, everywhere."""
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "mchcontrol"
                                   or name.startswith("mchcontrol.")):
                continue
            for attr, val in list(vars(mod).items()):
                new = replacements.get(id(val))
                if new is not None:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, new)

    def swap_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def traced_callables():
    """(span name, owning class or None, attribute, function) to wrap."""
    found = []
    for layer in LAYERS:
        mod = importlib.import_module("mchcontrol." + layer)
        for name, obj in list(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                qual = f"{layer}.{name}"
                if qual not in UNTRACED:
                    found.append((qual, None, name, obj))
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    qual = f"{layer}.{name}.{mname}"
                    public = (not mname.startswith("_")
                              or qual in EXTRA_METHODS)
                    if inspect.isfunction(meth) and public:
                        found.append((qual, obj, mname, meth))
    return found


class Tracer:
    """Spans and counts for one command at a time; install, run, uninstall."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.export_paths = []
        self._stack = []
        self._patches = Patches()

    def reset(self):
        self.spans = []
        self.counts = Counter()
        self.export_paths = []
        self._stack.clear()

    def _span_wrapper(self, name, fn):
        stack, clock = self._stack, time.perf_counter
        tracer = self
        is_export = name == EXPORT

        def wrapper(*args, **kwargs):
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
                if is_export:
                    tracer.export_paths.append(
                        args[0] if args else kwargs["csv_path"])
        return wrapper

    def _count_wrapper(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        functions = {}
        for qual, cls, attr, fn in traced_callables():
            make = (self._count_wrapper if qual in COUNT_ONLY
                    else self._span_wrapper)
            if cls is None:
                functions[id(fn)] = make(qual, fn)
            else:
                self._patches.swap_method(cls, attr, make(qual, fn))
        self._patches.swap_functions(functions)

    def uninstall(self):
        self._patches.undo()


class Probe:
    """Counts marches and keeps the last optimizer state; no spans."""

    def __init__(self):
        self._patches = Patches()
        self.reset()

    def reset(self):
        self.marches = Counter()
        self.opt_state = None

    def install(self):
        """Wrap whatever is current, so it stacks on top of a Tracer."""
        functions = {}
        for kind, (modname, attr) in MARCHES.items():
            fn = getattr(sys.modules[modname], attr)
            functions[id(fn)] = self._counter(kind, fn)
        opt = sys.modules["mchcontrol.control"].optimize
        functions[id(opt)] = self._capture(opt)
        self._patches.swap_functions(functions)

    def uninstall(self):
        self._patches.undo()

    def _counter(self, kind, fn):
        probe = self

        def wrapper(*args, **kwargs):
            probe.marches[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _capture(self, fn):
        probe = self

        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            probe.opt_state = state
            return state
        return wrapper


def _file_bytes(path) -> int:
    total = 0
    for p in (str(path), str(path).rsplit(".", 1)[0] + ".json"):
        try:
            total += os.path.getsize(p)
        except OSError:
            pass
    return total


def summarize(tracer: Tracer, wall_s: float, iters: int) -> dict:
    """Per-layer metrics of one traced command, plus the self-time check."""
    spans = tracer.spans
    dur = [end - start for _, start, end, _ in spans]
    child = [0.0] * len(spans)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
    layer_self = dict.fromkeys(LAYERS, 0.0)
    calls = Counter()
    incl = defaultdict(float)
    for i, (name, _, _, _) in enumerate(spans):
        layer_self[name.split(".", 1)[0]] += dur[i] - child[i]
        calls[name] += 1
        incl[name] += dur[i]

    def mean(*names):
        n = sum(calls[x] for x in names)
        return sum(incl[x] for x in names) / n if n else 0.0

    opt = {i for i, sp in enumerate(spans) if sp[0] == "control.optimize"}
    opt_children = [i for i, sp in enumerate(spans) if sp[3] in opt]
    trials = sum(1 for i in opt_children
                 if spans[i][0] == "control.TrackingProblem.solve") - len(opt)
    feasibility = sum(dur[i] for i in opt_children
                      if spans[i][0] == "control.state_equation_residual")
    opt_self = sum(dur[i] - child[i] for i in opt)
    adjoints = ("tangent_adjoint.solve_adjoint_discrete",
                "tangent_adjoint.solve_adjoint_continuous")
    solve = "helmholtz.ShiftedLaplacianSolver.solve"
    metrics = {
        "helmholtz.solves": calls[solve],
        "helmholtz.solve_us": mean(solve) * 1e6,
        "helmholtz.busy_s": layer_self["helmholtz"],
        "helmholtz.factorizations":
            calls["helmholtz.ShiftedLaplacianSolver.__init__"],
        "grid.stencils": tracer.counts["grid.d1"] + tracer.counts["grid.d2"],
        "grid.vstar_solves": calls["grid.norm_vstar"],
        "grid.norm_busy_s": layer_self["grid"],
        "grid.norm_wv_ms": mean("grid.norm_wv") * 1e3,
        "forward.marches": calls["forward.solve_forward"],
        "forward.march_ms": mean("forward.solve_forward") * 1e3,
        "forward.self_s": layer_self["forward"],
        "forward.weak_residual_ms": mean("forward.weak_residual") * 1e3,
        "forward.export_s": incl[EXPORT],
        "forward.export_mb":
            sum(_file_bytes(p) for p in tracer.export_paths) / 1e6,
        "tangent_adjoint.tangent_marches":
            calls["tangent_adjoint.solve_tangent"],
        "tangent_adjoint.tangent_march_ms":
            mean("tangent_adjoint.solve_tangent") * 1e3,
        "tangent_adjoint.adjoint_marches": sum(calls[x] for x in adjoints),
        "tangent_adjoint.adjoint_march_ms": mean(*adjoints) * 1e3,
        "tangent_adjoint.adjoint_residual_ms":
            mean("tangent_adjoint.adjoint_equation_residual") * 1e3,
        "tangent_adjoint.self_s": layer_self["tangent_adjoint"],
        "control.iters": iters,
        "control.grad_evals": calls["control.reduced_gradient"],
        "control.ls_trials": trials,
        "control.ls_accept_ratio": iters / trials if trials > 0 else 0.0,
        "control.feasibility_s": feasibility,
        "control.self_ms_per_iter": opt_self / iters * 1e3 if iters else 0.0,
        "control.coercivity_s": incl["control.coercivity_check"],
        "control.self_s": layer_self["control"],
        "analysis.busy_s": layer_self["analysis"],
        "runners.self_s": sum(layer_self[x] for x in RUNNER_LAYERS),
    }
    self_sum = sum(layer_self.values())
    return {
        "metrics": metrics,
        "layer_self_s": layer_self,
        "self_sum_s": self_sum,
        "wall_s": wall_s,
        "n_spans": len(spans),
        # every layer's self time plus runners.self_s is the traced wall
        "accounting_ok": abs(self_sum - wall_s) <= 0.01 * wall_s + 5e-3,
    }


def write_spans(tracer: Tracer, path):
    """Dump spans as CSV: index, name, start_s, end_s, parent (-1 = root)."""
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w", newline="\n") as f:
        f.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            f.write(f"{i},{name},{start - t0:.9f},{end - t0:.9f},{parent}\n")
