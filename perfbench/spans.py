"""Spans around the library's public functions, recorded from outside it.

`Patches` rebinds a function in every `epsoliton` module that holds it and
restores the originals afterwards; `Tracer` uses it to wrap each function in
TARGETS with a span recorder.  A span is (name, start, end, parent, pass id),
kept in flat arrays while the pass runs and written out at the end.  Per-layer
metrics are derived from the spans and from the reports the wrapped functions
return (EllipticSolveReport, DecomposeReport, OdeResult.nfev).
"""

import sys
import time
from array import array

import numpy as np

LAYERS = ("grid", "profile", "elliptic", "dynamics", "modulation",
          "linearized", "evans", "diagnostics")


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name.startswith("epsoliton.") and m is not None]


class Patches:
    """Attribute rebinding with undo, applied in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, new):
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, new)

    def rebind_everywhere(self, orig, new):
        """Point every package-module name bound to `orig` at `new`."""
        for mod in _package_modules():
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    self.set(mod, attr, new)

    def undo(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


_MISSING = object()


def _add_nfev(key):
    def hook(tracer, args, kwargs, out):
        tracer.count(key, out.nfev)
    return hook


def _poisson_report(tracer, args, kwargs, out):
    rep = out[1]
    tracer.sample("elliptic.solve_poisson.iters", rep.iterations)
    tracer.sample("elliptic.solve_poisson.residual", rep.residual)


def _decompose_report(tracer, args, kwargs, out):
    tracer.sample("modulation.decompose.newton_iters", out[4].iterations)


def _scan_refinement(tracer, args, kwargs, out):
    tracer.count("evans.evans_scan.points_in", len(args[0]))
    tracer.count("evans.evans_scan.points_out", len(out.lam))


# (span name, module, attribute, where to rebind, result hook).
# "everywhere" rebinds every package-module name bound to the function;
# "here" rebinds only the named module's attribute (used for SciPy's
# solve_ivp, whose counts are kept apart per calling module); "class"
# wraps a class's __init__ so the span covers construction.  Functions with
# no metric of their own are wrapped so that their time counts towards
# their own module's self time, not their caller's.
TARGETS = (
    ("grid.derivative", "grid", "derivative", "everywhere", None),
    ("grid.norms", "grid", "norms", "everywhere", None),
    ("grid.default_weights", "grid", "default_weights", "everywhere", None),
    ("profile.build_profile", "profile", "build_profile", "everywhere", None),
    ("profile.solve_ivp", "profile", "solve_ivp", "here",
     _add_nfev("profile.ode_nfev")),
    ("elliptic.solve_poisson", "elliptic", "solve_poisson", "everywhere",
     _poisson_report),
    ("elliptic.apply_inv_schrodinger", "elliptic", "apply_inv_schrodinger",
     "everywhere", None),
    ("dynamics.evolve", "dynamics", "evolve", "everywhere", None),
    ("dynamics.rhs", "dynamics", "rhs", "everywhere", None),
    ("modulation.ModulationContext", "modulation", "ModulationContext",
     "class", None),
    ("modulation.decompose", "modulation", "decompose", "everywhere",
     _decompose_report),
    ("modulation.kernel_vectors", "modulation", "kernel_vectors", "everywhere",
     None),
    ("modulation.track", "modulation", "track", "everywhere", None),
    ("linearized.evolve_linear", "linearized", "evolve_linear", "everywhere",
     None),
    ("linearized.apply_Lc", "linearized", "apply_Lc", "everywhere", None),
    ("linearized.dispersive_decay_experiment", "linearized",
     "dispersive_decay_experiment", "everywhere", None),
    ("linearized.kato_smoothing_experiment", "linearized",
     "kato_smoothing_experiment", "everywhere", None),
    ("evans.evans", "evans", "evans", "everywhere", None),
    ("evans.evans_scan", "evans", "evans_scan", "everywhere", _scan_refinement),
    ("evans.evans_derivs_at0", "evans", "evans_derivs_at0", "everywhere", None),
    ("evans.dispersion_roots", "evans", "dispersion_roots", "everywhere", None),
    ("evans.CoefficientCache", "evans", "CoefficientCache", "class", None),
    ("evans.solve_ivp", "evans", "solve_ivp", "here",
     _add_nfev("evans.jost_nfev")),
    ("diagnostics.stability_experiment", "diagnostics", "stability_experiment",
     "everywhere", None),
    ("diagnostics.virial_ratio_monitor", "diagnostics", "virial_ratio_monitor",
     "everywhere", None),
    ("diagnostics.norm_bundle_series", "diagnostics", "norm_bundle_series",
     "everywhere", None),
)


class Tracer:
    """Span recorder; install() wraps TARGETS, uninstall() restores them."""

    def __init__(self, pass_id=1, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = pass_id
        self.counts = {}
        self.samples = {}
        self._stack = [-1]
        self._patches = Patches()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def open(self, name):
        """Start a span under the innermost open one; returns its index."""
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.start.append(self.clock())
        self.end.append(float("nan"))
        self.parent.append(self._stack[-1])
        self.pass_id.append(self.current_pass)
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.end[idx] = self.clock()
        self._stack.pop()

    def wrap(self, name, fn, hook=None):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in _package_modules()}
        for name, modname, attr, where, hook in TARGETS:
            mod = mods[modname]
            orig = getattr(mod, attr)
            if where == "class":
                self._patches.set(orig, "__init__",
                                  self.wrap(name, orig.__init__, hook))
            elif where == "here":
                self._patches.set(mod, attr, self.wrap(name, orig, hook))
            else:
                self._patches.rebind_everywhere(orig, self.wrap(name, orig, hook))

    def uninstall(self):
        self._patches.undo()

    def arrays(self):
        """Spans as NumPy arrays (name ids index self.names)."""
        return {"name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy()}

    def write(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent):
    """Each span's duration minus the time its direct children cover.

    Children run inside their parent and one at a time, so the covered time
    is the sum of the children's durations.
    """
    dur = np.asarray(end) - np.asarray(start)
    covered = np.zeros_like(dur)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def _tail(durations):
    """The highest percentile with at least 10 samples above it: the 11th
    largest sample, the 100 (n - 10) / n percentile of n (0 when n <= 10)."""
    d = np.sort(durations)
    return float(d[-11]) if len(d) > 10 else 0.0


def layer_metrics(tracer):
    """Per-layer metrics of the pass a tracer recorded, keyed by name."""
    a = tracer.arrays()
    names = np.array(tracer.names, dtype=str)[a["name_id"]]
    dur = a["end"] - a["start"]
    own = self_times(a["start"], a["end"], a["parent"])

    def pick(name):
        return names == name

    def calls(name):
        return int(np.count_nonzero(pick(name)))

    def total(name):
        return float(dur[pick(name)].sum())

    def self_s(name):
        return float(own[pick(name)].sum())

    def mean(key):
        vals = tracer.samples.get(key, [])
        return float(np.mean(vals)) if vals else 0.0

    evans_d = dur[pick("evans.evans")]
    pts_in = tracer.counts.get("evans.evans_scan.points_in", 0)
    pts_out = tracer.counts.get("evans.evans_scan.points_out", 0)
    residuals = tracer.samples.get("elliptic.solve_poisson.residual", [])

    m = {
        "grid.derivative.calls": calls("grid.derivative"),
        "grid.derivative.s": total("grid.derivative"),
        "grid.norms.calls": calls("grid.norms"),
        "grid.norms.s": total("grid.norms"),
        "profile.build_profile.calls": calls("profile.build_profile"),
        "profile.build_profile.s": total("profile.build_profile"),
        "profile.ode_nfev": int(tracer.counts.get("profile.ode_nfev", 0)),
        "elliptic.solve_poisson.calls": calls("elliptic.solve_poisson"),
        "elliptic.solve_poisson.s": total("elliptic.solve_poisson"),
        "elliptic.solve_poisson.iters": mean("elliptic.solve_poisson.iters"),
        "elliptic.solve_poisson.residual_max":
            float(max(residuals)) if residuals else 0.0,
        "elliptic.apply_inv_schrodinger.calls":
            calls("elliptic.apply_inv_schrodinger"),
        "elliptic.apply_inv_schrodinger.s":
            total("elliptic.apply_inv_schrodinger"),
        "dynamics.evolve.s": total("dynamics.evolve"),
        # classical RK4: four tendency evaluations per step
        "dynamics.evolve.steps": calls("dynamics.rhs") // 4,
        "dynamics.rhs.calls": calls("dynamics.rhs"),
        "dynamics.rhs.self_s": self_s("dynamics.rhs"),
        "modulation.ModulationContext.self_s":
            self_s("modulation.ModulationContext"),
        "modulation.decompose.calls": calls("modulation.decompose"),
        "modulation.decompose.s": total("modulation.decompose"),
        "modulation.decompose.newton_iters":
            mean("modulation.decompose.newton_iters"),
        "modulation.kernel_vectors.s": total("modulation.kernel_vectors"),
        "linearized.evolve_linear.s": total("linearized.evolve_linear"),
        "linearized.evolve_linear.steps": calls("linearized.apply_Lc") // 4,
        "linearized.apply_Lc.calls": calls("linearized.apply_Lc"),
        "linearized.apply_Lc.self_s": self_s("linearized.apply_Lc"),
        "evans.evans.calls": calls("evans.evans"),
        "evans.evans.s": float(np.median(evans_d)) if len(evans_d) else 0.0,
        "evans.evans.s_tail": _tail(evans_d),
        "evans.jost_nfev": int(tracer.counts.get("evans.jost_nfev", 0)),
        "evans.dispersion_roots.calls": calls("evans.dispersion_roots"),
        "evans.dispersion_roots.s": total("evans.dispersion_roots"),
        "evans.evans_scan.refine_frac":
            (pts_out - pts_in) / pts_in if pts_in else 0.0,
        "evans.CoefficientCache.s": total("evans.CoefficientCache"),
        "diagnostics.stability_experiment.self_s":
            self_s("diagnostics.stability_experiment"),
        "diagnostics.virial_ratio_monitor.s":
            total("diagnostics.virial_ratio_monitor"),
        "diagnostics.norm_bundle_series.s":
            total("diagnostics.norm_bundle_series"),
    }
    module = np.array([n.split(".")[0] for n in names])
    for layer in LAYERS + ("bench",):
        m[f"{layer}.self_s"] = float(own[module == layer].sum())
    m["trace.spans"] = len(names)
    m["trace.self_sum_s"] = float(own.sum())
    return m


def unit_of(name):
    if name.endswith(("_s", ".s", ".s_tail")):
        return "s"
    if name.endswith(("residual_max", "refine_frac")):
        return "1"
    if name.endswith("iters"):
        return "iter"
    return "count"
