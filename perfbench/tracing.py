"""Outside-in tracing of slowsound's layers.

The tracer wraps each public function (a module's `__all__`, plus the
functions the per-layer metrics name) where it is defined and at every
slowsound module that imported it by name, so `slowsound.gpe.fft` and
`slowsound.scenarios.g_quadrature` are both covered.  `cli.main` reaches the
scenarios through `scenarios.SCENARIOS`, so those entries are wrapped too.

Most functions record a span per call: name, start, end, parent and run id,
kept in memory and written out once the pass ends.  Functions called ten
thousand times or more in one pass (`AGGREGATED`, and the integrand handed
to `integrate_line`) record only a call count and a total time.  A span's
self time is its duration minus the time of the spans and counted calls
made inside it.

A function that no longer exists is reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "cli",
    "scenarios",
    "params",
    "qutrit",
    "bogoliubov",
    "coupling",
    "decay",
    "bloch",
    "response",
    "gpe",
    "numerics",
    "output",
    "svg",
)

SCENARIO_NAMES = (
    "spectrum",
    "decay",
    "couplings",
    "susceptibility",
    "dispersion",
    "groupvel",
    "eigenstates",
    "pulse",
    "validate",
)

# Public functions called 10^4 or more times in one pass of some workload
# (10^6 in reference_chain and bound_states).  The svg pixel maps are local
# to line_plot and cannot be wrapped from outside; they stay in its span.
AGGREGATED = frozenset({"numerics.fft", "numerics.ifft", "output.format_number"})
INTEGRAND = "numerics.integrand"

# Functions the per-layer metrics read; each is wrapped even when it is not
# in its module's __all__, and reported absent when it is gone.
NAMED = (
    "cli.main",
    "coupling.g_quadrature",
    "coupling.g0_closed",
    "coupling.g1_closed",
    "numerics.integrate_line",
    "numerics.fft",
    "numerics.ifft",
    "numerics.solve_dense",
    "numerics.find_root",
    "numerics.rk4_evolve",
    "numerics.hilbert_transform",
    "gpe.imaginary_time_eigenstates",
    "qutrit.spectrum",
    "bogoliubov.resonant_wavevector",
    "decay.decay_rates",
    "decay.cascade",
    "bloch.steady_state_lindblad",
    "bloch.evolve_master_equation",
    "response.susceptibility_curve",
    "response.group_velocity_curve",
    "response.propagate_envelope",
    "output.write_csv",
    "output.write_json",
    "output.write_manifest",
    "svg.line_plot",
)
IMPURITY_STATES = "qutrit.ImpurityStates"
OUTPUT_WRITERS = ("output.write_csv", "output.write_json", "output.write_manifest", "svg.line_plot")


class Tracer:
    """Wraps slowsound in place, records spans and counts, and undoes it."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, run id,
        #             time of calls made inside it, outermost of its name].
        self.spans = []
        self.counters = {}  # name -> [calls, seconds]
        self.extra = defaultdict(int)  # counts read from arguments and results
        self.absent = []
        self.run_id = 0
        self._stack = []
        self._open = defaultdict(int)  # name -> spans of that name now open
        self._undo = []

    # -- wrappers ------------------------------------------------------

    def span(self, name, fn, prepare=None, observe=None):
        """Wrap fn so that each call records a span.

        prepare(bound_arguments, outermost) may replace arguments before the
        call; observe(bound_arguments, result) reads counts after it.
        """
        spans, stack, opened = self.spans, self._stack, self._open
        signature = inspect.signature(fn) if (prepare or observe) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = opened[name] == 0
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                if prepare is not None:
                    prepare(bound, outermost)
                args, kwargs = bound.args, bound.kwargs
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.run_id, 0.0, outermost]
            spans.append(record)
            stack.append(len(spans) - 1)
            opened[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened[name] -= 1
                stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    spans[parent][5] += end - start
            if observe is not None:
                observe(bound, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrap fn so that calls only add to a count and a total time.

        Counted functions are leaves: none calls another wrapped function.
        """
        counter = self.counters.setdefault(name, [0, 0.0])
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            counter[0] += 1
            counter[1] += elapsed
            if stack:
                spans[stack[-1]][5] += elapsed
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner, key, value, item=False):
        if item:
            self._undo.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key), False))
            setattr(owner, key, value)

    def install(self, named=NAMED):
        """Wrap every public slowsound function at all of its module bindings."""
        package = importlib.import_module("slowsound")
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"slowsound.{layer}")
            except ImportError:
                self.absent.append(layer)
        bindings = list(modules.values()) + [package]

        targets = {}
        for layer, module in modules.items():
            wanted = set(getattr(module, "__all__", ()))
            wanted |= {n.split(".", 1)[1] for n in named if n.split(".", 1)[0] == layer}
            for attr in sorted(wanted):
                qualified = f"{layer}.{attr}"
                fn = getattr(module, attr, None)
                if fn is None:
                    if qualified in named:
                        self.absent.append(qualified)
                    continue
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    targets[fn] = qualified
        self.absent += [n for n in named if n.split(".", 1)[0] not in modules]

        for fn, qualified in targets.items():
            wrapper = self._wrap(qualified, fn)
            for module in bindings:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, attr, wrapper)

        qutrit = modules.get("qutrit")
        cls = getattr(qutrit, "ImpurityStates", None)
        if cls is None:
            self.absent.append(IMPURITY_STATES)
        else:
            self._replace(cls, "__init__", self.span(IMPURITY_STATES, cls.__init__))

        table = getattr(modules.get("scenarios"), "SCENARIOS", {})
        for scenario in SCENARIO_NAMES:
            if scenario in table:
                self._replace(table, scenario,
                              self.span(f"scenarios.{scenario}", table[scenario]), item=True)
            else:
                self.absent.append(f"scenarios.{scenario}")

    def uninstall(self):
        for owner, key, original, item in reversed(self._undo):
            if item:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._undo.clear()

    def _wrap(self, name, fn):
        if name in AGGREGATED:
            return self.counted(name, fn)
        prepare = observe = None
        if name == "numerics.integrate_line":
            prepare = self._count_integrand
        elif name == "gpe.imaginary_time_eigenstates":
            observe = self._descent_report
        elif name == "decay.cascade":
            observe = self._cascade_grid
        elif name == "response.susceptibility_curve":
            observe = self._detunings
        elif name == "output.write_csv":
            prepare, observe = self._csv_rows, self._file_bytes
        elif name == "svg.line_plot":
            observe = self._svg_points
        elif name in OUTPUT_WRITERS:
            observe = self._file_bytes
        return self.span(name, fn, prepare, observe)

    # -- argument and result readers -----------------------------------

    def _count_integrand(self, bound, outermost):
        # integrate_line re-enters itself for half-infinite ranges; the
        # integrand is counted once, at the outermost call.
        if outermost:
            bound.arguments["f"] = self.counted(INTEGRAND, bound.arguments["f"])

    def _descent_report(self, bound, report):
        self.extra["gpe.iterations"] += report.iterations
        self.extra["gpe.converged"] += int(bool(report.converged))

    def _cascade_grid(self, bound, result):
        self.extra["decay.cascade.grid_points"] += (
            len(result.k_grid) * len(result.p_grid) * len(result.times)
        )

    def _detunings(self, bound, curve):
        self.extra["response.detuning_points"] += len(curve.detunings)

    def _csv_rows(self, bound, outermost):
        rows = list(bound.arguments["rows"])
        bound.arguments["rows"] = rows
        self.extra["output.csv_rows"] += len(rows)

    def _file_bytes(self, bound, result):
        self.extra["output.bytes"] += os.path.getsize(bound.arguments["path"])

    def _svg_points(self, bound, result):
        self._file_bytes(bound, result)
        self.extra["svg.points"] += len(bound.arguments["x"]) * len(bound.arguments["series"])

    # -- results -------------------------------------------------------

    def write_spans(self, path):
        """Write every span as one JSON list per line."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, _, _ in self.spans:
                fh.write(json.dumps([name, start, end, parent, run_id]) + "\n")


class Stats:
    """Per-function calls, inclusive time and self time of one traced pass.

    wall is the traced pass's wall time.
    """

    def __init__(self, tracer, wall):
        self.wall = wall
        self.calls = defaultdict(int)  # outermost calls
        self.total = defaultdict(float)  # inclusive time of outermost calls
        self.self_time = defaultdict(float)
        for name, start, end, _, _, child, outermost in tracer.spans:
            self.self_time[name] += end - start - child
            if outermost:
                self.calls[name] += 1
                self.total[name] += end - start
        for name, (calls, seconds) in tracer.counters.items():
            self.calls[name] += calls
            self.total[name] += seconds
            self.self_time[name] += seconds
        self.extra = dict(tracer.extra)

    def layer_self(self, layer):
        return sum(t for name, t in self.self_time.items() if name.split(".", 1)[0] == layer)

    def metrics(self):
        """Every per-layer metric but trace.overhead_s, which needs an untraced pass."""
        return {name: value(self) for name, _, _, _, value in PER_LAYER if value is not None}


def _share(*names):
    return lambda s: sum(s.total[n] for n in names) / s.wall


def _calls(*names):
    return lambda s: sum(s.calls[n] for n in names)


def _total(name):
    return lambda s: s.total[name]


def _self(name):
    return lambda s: s.self_time[name]


def _extra(key):
    return lambda s: s.extra.get(key, 0)


_RC, _QR = "reference_chain", "wall_s on reference_chain"
_DS = "op_p50_s and ok_per_s on drive_sweep"

# name, unit, better, the end-to-end metric and workload it should move, value.
PER_LAYER = [
    ("coupling.g_quadrature.calls", "count", "lower",
     f"{_QR}; 0 on drive_sweep and bound_states", _calls("coupling.g_quadrature")),
    ("coupling.g_quadrature.self_s", "s", "lower", _QR, _self("coupling.g_quadrature")),
    ("coupling.closed.calls", "count", "lower",
     f"{_QR}; 0 on bound_states", _calls("coupling.g0_closed", "coupling.g1_closed")),
    ("numerics.integrate_line.calls", "count", "lower", _QR, _calls("numerics.integrate_line")),
    ("numerics.integrate_line.s", "s", "lower", _QR, _total("numerics.integrate_line")),
    ("numerics.integrand_evals", "count", "lower", _QR, _calls(INTEGRAND)),
    ("numerics.integrand_evals_per_call", "count/call", "lower", _QR,
     lambda s: s.calls[INTEGRAND] / max(s.calls["numerics.integrate_line"], 1)),
    ("numerics.fft.calls", "count", "lower", "wall_s on bound_states",
     _calls("numerics.fft", "numerics.ifft")),
    ("numerics.fft.s", "s", "lower", "wall_s on bound_states",
     lambda s: s.total["numerics.fft"] + s.total["numerics.ifft"]),
    ("numerics.solve_dense.calls", "count", "lower", f"{_QR} (validate)",
     _calls("numerics.solve_dense")),
    ("numerics.solve_dense.s", "s", "lower", f"{_QR} (validate)", _total("numerics.solve_dense")),
    ("numerics.find_root.calls", "count", "lower", f"{_QR} (validate)",
     _calls("numerics.find_root")),
    ("numerics.rk4_evolve.s", "s", "lower", f"{_QR} (validate)", _total("numerics.rk4_evolve")),
    ("numerics.hilbert_transform.s", "s", "lower", f"{_QR} (validate)",
     _total("numerics.hilbert_transform")),
    ("gpe.imaginary_time_eigenstates.s", "s", "lower", "wall_s and peak_rss_mb on bound_states",
     _total("gpe.imaginary_time_eigenstates")),
    ("gpe.iterations", "count", "lower", "wall_s on bound_states", _extra("gpe.iterations")),
    ("gpe.converged", "count", "higher", "wall_s on bound_states", _extra("gpe.converged")),
    ("qutrit.ImpurityStates.calls", "count", "lower", _QR, _calls(IMPURITY_STATES)),
    ("qutrit.ImpurityStates.s", "s", "lower", _QR, _total(IMPURITY_STATES)),
    ("qutrit.spectrum.calls", "count", "lower", f"op_p50_s on drive_sweep; {_QR}",
     _calls("qutrit.spectrum")),
    ("bogoliubov.resonant_wavevector.calls", "count", "lower", f"op_p50_s on drive_sweep; {_QR}",
     _calls("bogoliubov.resonant_wavevector")),
    ("bogoliubov.resonant_wavevector.s", "s", "lower", f"op_p50_s on drive_sweep; {_QR}",
     _total("bogoliubov.resonant_wavevector")),
    ("decay.decay_rates.calls", "count", "lower", _QR, _calls("decay.decay_rates")),
    ("decay.decay_rates.s", "s", "lower", _QR, _total("decay.decay_rates")),
    ("decay.cascade.self_s", "s", "lower", _QR, _self("decay.cascade")),
    ("decay.cascade.grid_points", "count", "lower", _QR, _extra("decay.cascade.grid_points")),
    ("bloch.steady_state_lindblad.calls", "count", "lower", _QR,
     _calls("bloch.steady_state_lindblad")),
    ("bloch.steady_state_lindblad.s", "s", "lower", _QR, _total("bloch.steady_state_lindblad")),
    ("bloch.evolve_master_equation.s", "s", "lower", _QR, _total("bloch.evolve_master_equation")),
    ("response.susceptibility_curve.calls", "count", "lower", _DS,
     _calls("response.susceptibility_curve")),
    ("response.susceptibility_curve.s", "s", "lower", _DS, _total("response.susceptibility_curve")),
    ("response.detuning_points", "count", "lower", _DS, _extra("response.detuning_points")),
    ("response.group_velocity_curve.s", "s", "lower", _DS, _total("response.group_velocity_curve")),
    ("response.propagate_envelope.s", "s", "lower", _DS, _total("response.propagate_envelope")),
    ("output.write_csv.s", "s", "lower", _DS, _total("output.write_csv")),
    ("output.csv_rows", "count", "lower", _DS, _extra("output.csv_rows")),
    ("output.bytes", "B", "lower", _DS, _extra("output.bytes")),
    ("output.write_json.s", "s", "lower", _DS, _total("output.write_json")),
    ("svg.line_plot.s", "s", "lower", _DS, _total("svg.line_plot")),
    ("svg.points", "count", "lower", _DS, _extra("svg.points")),
    *[(f"scenarios.{n}.s", "s", "lower", f"wall_s of the workload that runs {n}",
       _total(f"scenarios.{n}")) for n in SCENARIO_NAMES],
    ("cli.self_s", "s", "lower", "op_p50_s on drive_sweep", _self("cli.main")),
    *[(f"layer.{layer}.self_s", "s", "lower", "wall_s of the workload where the layer dominates",
       lambda s, layer=layer: s.layer_self(layer)) for layer in LAYERS],
    ("share.quadrature", "ratio", "lower", "wall_s on reference_chain (predicted dominant)",
     _share("numerics.integrate_line")),
    ("share.descent", "ratio", "lower", "wall_s on bound_states (predicted dominant)",
     _share("gpe.imaginary_time_eigenstates")),
    ("share.output", "ratio", "lower", "op_p50_s on drive_sweep (predicted dominant)",
     _share(*OUTPUT_WRITERS)),
    ("trace.wall_s", "s", "lower", "nothing: wall time of the traced pass", lambda s: s.wall),
    ("trace.overhead_s", "s", "lower",
     "nothing: traced minus untraced wall time of one pass", None),
]

# The layer each workload's wall time is predicted to be spent in, as the
# share metric that names it, and the functions predicted never to run there.
PREDICTIONS = {
    "reference_chain": ("share.quadrature", ()),
    "bound_states": ("share.descent", ()),
    "drive_sweep": ("share.output", ("coupling.g_quadrature", "coupling.g0_closed",
                                     "coupling.g1_closed", "gpe.imaginary_time_eigenstates")),
}
