"""Per-layer call counts and self times, recorded from outside the package.

The tracer replaces selected functions of carleman_lab with timing
wrappers.  The modules import each other's functions by name
(``from .grid import divergence_flux``), so a wrapper installed only in
the defining module would count nothing: install() rebinds every
reference held by any carleman_lab module or class, and unpatched()
proves afterwards that no original is left reachable.

A span's self time is its duration minus the durations of the wrapped
spans it encloses.  The package runs single-threaded here (--jobs 1),
so one stack of open spans suffices.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped as spans; reported as module.function
FUNCTIONS = (
    ("grid", "divergence_flux"),
    ("grid", "discrete_gradient"),
    ("grid", "normal_derivative"),
    ("carleman", "carleman_sides"),
    ("carleman", "apply_M1"),
    ("carleman", "apply_M2"),
    ("forward", "solve_heat"),
    ("stability", "misfit_and_gradient"),
    ("stability", "stability_sides"),
    ("observe", "extract_observations"),
    ("observe", "weighted_norm_spacetime"),
    ("observe", "weighted_boundary_norm"),
    ("weights", "build_weights"),
    ("poincare", "proposition_sides"),
    ("energy", "energy"),
    ("energy", "snapshot_bound_sides"),
    ("energy", "energy_bound_sides"),
    ("config", "evaluate_field"),
    ("report", "report_to_csv"),
    ("poincare", "proposition_to_csv"),
    ("stability", "sweep_to_csv"),
)

# (module, class, method) -> reported span name
METHODS = {
    ("forward", "CrankNicolsonStepper", "solve_B"): "forward.solve_B",
    ("energy", "EnergyCurve", "to_csv"): "energy.EnergyCurve.to_csv",
    ("stability", "ReconstructionResult", "log_to_csv"):
        "stability.ReconstructionResult.log_to_csv",
}

# factories of the boundary-drive closures g(t); every closure they
# return is wrapped as the span setups.drive_evals
DRIVE_FACTORIES = ("default_boundary_data", "probing_boundary_data")

# spans whose inclusive time makes up report.csv_s
CSV_WRITERS = (
    "report.report_to_csv",
    "poincare.proposition_to_csv",
    "stability.sweep_to_csv",
    "energy.EnergyCurve.to_csv",
    "stability.ReconstructionResult.log_to_csv",
)

PACKAGE = "carleman_lab"


def _need_gradient(args, kwargs) -> bool:
    # misfit_and_gradient(c, data, setup, config, need_gradient=True)
    if "need_gradient" in kwargs:
        return bool(kwargs["need_gradient"])
    return bool(args[4]) if len(args) > 4 else True


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self._open = []          # child time accumulated by each open span
        self._originals = []     # every function object replaced

    def span(self, name, fn, classify=None):
        """fn wrapped to record one call of `name`; classify(args,
        kwargs) may name one extra counter to bump per call."""
        calls, self_s, total_s, open_ = (self.calls, self.self_s,
                                         self.total_s, self._open)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if classify is not None:
                calls[classify(args, kwargs)] += 1
            open_.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_.pop()
                calls[name] += 1
                self_s[name] += elapsed - inner
                total_s[name] += elapsed
                if open_:
                    open_[-1] += elapsed

        return wrapper

    def _modules(self):
        return [m for key, m in sorted(sys.modules.items())
                if key == PACKAGE or key.startswith(PACKAGE + ".")]

    def _rebind(self, original, replacement):
        """Point every module-level name bound to original at
        replacement."""
        self._originals.append(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)

    def install(self):
        pkg = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name != "__main__":
                importlib.import_module(f"{PACKAGE}.{info.name}")
        for mod_name, fn_name in FUNCTIONS:
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(mod, fn_name)
            classify = None
            if fn_name == "misfit_and_gradient":
                classify = lambda a, k: ("stability.gradient_evals"
                                         if _need_gradient(a, k)
                                         else "stability.misfit_evals")
            self._rebind(original, self.span(f"{mod_name}.{fn_name}",
                                             original, classify))
        for (mod_name, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], cls_name)
            original = cls.__dict__[meth]
            self._originals.append(original)
            setattr(cls, meth, self.span(name, original))
        setups = sys.modules[f"{PACKAGE}.setups"]
        for factory_name in DRIVE_FACTORIES:
            factory = getattr(setups, factory_name)
            self._rebind(factory, self._drive_factory(factory))

    def _drive_factory(self, factory):
        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            return self.span("setups.drive_evals", factory(*args, **kwargs))

        return wrapped_factory

    def unpatched(self) -> list:
        """Names under which a module or class still reaches an original
        function; empty when every call goes through a wrapper."""
        originals = {id(fn) for fn in self._originals}
        found = []
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    found.append(f"{mod.__name__}.{attr}")
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    for meth, fn in vars(value).items():
                        if id(fn) in originals:
                            found.append(f"{mod.__name__}.{attr}.{meth}")
        return found

    def report(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "total_s": dict(self.total_s), "unpatched": self.unpatched()}
