"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` wraps every public function of the program's layer
modules and rebinds the wrapper under every name the package binds the
function to (so ``homotopy.spectrum``, ``checks.spectrum`` and
``cli.spectrum`` are traced along with ``pencil.spectrum``).
The benchmark installs it only in the forked child that runs a traced op,
so untraced ops run the program unchanged.  Spans are kept in memory as
lists ``[id, parent, op, name, start, end, error, extra]``.
"""

import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("sturm", "pencil", "linalg", "homotopy", "rootfind", "checks",
          "serialize", "cli")
PACKAGE = "gyropencil"

# per-layer metrics: name -> unit, in the order they are printed
UNITS = {
    "pencil.spectrum_calls": "count", "pencil.spectrum_s": "s",
    "pencil.self_s": "s", "pencil.evaluate_calls": "count",
    "pencil.evaluate_s": "s", "pencil.choose_shift_s": "s",
    "pencil.records": "count", "pencil.discarded_infinite": "count",
    "linalg.eig_calls": "count", "linalg.eig_s": "s",
    "linalg.eig_gflop_computed": "GFLOP", "linalg.rank_calls": "count",
    "linalg.rank_s": "s", "linalg.smallest_sv_calls": "count",
    "sturm.discretize_s": "s", "sturm.charfn_points": "count",
    "sturm.charfn_s": "s",
    "homotopy.spectra_solved": "count", "homotopy.useful_frac": "ratio",
    "homotopy.grid_points": "count", "homotopy.events": "count",
    "homotopy.derivative_calls": "count", "homotopy.self_s": "s",
    "rootfind.find_zeros_calls": "count", "rootfind.winding_calls": "count",
    "rootfind.f_points": "count", "rootfind.self_s": "s",
    "rootfind.boundary_zero": "count",
    "checks.spectrum_calls": "count", "checks.used_spectra_frac": "ratio",
    "checks.self_s": "s", "checks.failed": "count",
    "serialize.emit_s": "s", "serialize.payload_bytes": "bytes",
    "cli.self_s": "s", "cli.fail_frac": "ratio",
    "trace_overhead_frac": "ratio",
}

_EMIT = {"dumps", "pencil_to_dict", "spectrum_to_dict", "zeros_to_list",
         "report_to_dict", "resonant_to_dict", "tracks_to_csv", "events_to_csv"}


def _extra(name, args, out):
    """Counts recorded at the boundary, from arguments or results."""
    if name == "pencil.spectrum":
        return (len(out.records), out.discarded_infinite)
    if name == "linalg.eigen_standard":
        return np.shape(args[0])[0]
    if name in ("sturm.omega", "sturm.shoot_charfn"):
        return int(np.size(args[0]))
    if name == "homotopy.track":
        return (len(out.eta_grid), len(out.events))
    return None


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._wrapped = {}      # original function -> (span name, wrapper)
        self._bindings = []     # (module, attribute, original)
        modules = [importlib.import_module("%s.%s" % (PACKAGE, m)) for m in LAYERS]
        for mod in modules:
            short = mod.__name__.split(".")[-1]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = "%s.%s" % (short, attr)
                    self._wrapped[fn] = (name, self._wrap(name, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith(PACKAGE):
                continue
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in self._wrapped:
                    self._bindings.append((mod, attr, obj))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, self.op, name,
                   clock(), 0.0, None, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
                rec[7] = _extra(name, args, out)
                return out
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[5] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def install(self):
        for mod, attr, fn in self._bindings:
            setattr(mod, attr, self._wrapped[fn][1])


def layer_metrics(spans, rounds, targets, payload_bytes, checks_failed,
                  fail_frac, overhead):
    """Per-round per-layer metrics from the spans of ``rounds`` traced
    rounds.  Self time is a span's duration minus its children's."""
    child_time = [0.0] * len(spans)
    children = {}
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[5] - s[4]
            children.setdefault(s[1], []).append(s)

    def dur(s):
        return s[5] - s[4]

    def selft(s):
        return dur(s) - child_time[s[0]]

    def under(s, layer):
        p = s[1]
        while p >= 0:
            if spans[p][3].startswith(layer):
                return True
            p = spans[p][1]
        return False

    by = {}
    for s in spans:
        by.setdefault(s[3], []).append(s)

    def named(name):
        return by.get(name, [])

    def total(name):
        return sum(dur(s) for s in named(name))

    def layer_self(layer, skip=()):
        return sum(selft(s) for s in spans
                   if s[3].split(".")[0] == layer and s[3] not in skip)

    spectra = named("pencil.spectrum")
    tracked = sum(1 for s in spectra if under(s, "homotopy.track"))
    checked = [s for s in spectra if under(s, "checks.")]
    # run_all solves the axis spectra before check_type1_axes; when that
    # check raises, those spectra were wasted
    wasted = 0
    for ra in named("checks.run_all"):
        kids = children.get(ra[0], [])
        first_check = min((k[4] for k in kids if k[3].startswith("checks.check_")),
                          default=ra[5])
        axes = [k for k in kids if k[3] == "pencil.spectrum" and k[4] > first_check]
        if any(k[3] == "checks.check_type1_axes" and k[6] for k in kids):
            wasted += len(axes)
    emit = [s for s in spans if s[3].startswith("serialize.")
            and s[3].split(".")[1] in _EMIT
            and not (s[1] >= 0 and spans[s[1]][3].startswith("serialize."))]
    f_points = sum(s[7] or 0 for s in named("sturm.omega") + named("sturm.shoot_charfn"))
    eig = named("linalg.eigen_standard")
    tracks = named("homotopy.track")

    raw = {
        "pencil.spectrum_calls": len(spectra),
        "pencil.spectrum_s": total("pencil.spectrum"),
        "pencil.self_s": layer_self("pencil", skip=("pencil.evaluate",)),
        "pencil.evaluate_calls": len(named("pencil.evaluate")),
        "pencil.evaluate_s": total("pencil.evaluate"),
        "pencil.choose_shift_s": total("pencil.choose_shift"),
        "pencil.records": sum(s[7][0] for s in spectra if s[7]),
        "pencil.discarded_infinite": sum(s[7][1] for s in spectra if s[7]),
        "linalg.eig_calls": len(eig),
        "linalg.eig_s": total("linalg.eigen_standard"),
        "linalg.eig_gflop_computed": sum(25.0 * s[7] ** 3 for s in eig if s[7]) / 1e9,
        "linalg.rank_calls": len(named("linalg.rank_with_tol")),
        "linalg.rank_s": total("linalg.rank_with_tol"),
        "linalg.smallest_sv_calls": len(named("linalg.smallest_singular_value")),
        "sturm.discretize_s": total("sturm.discretize"),
        "sturm.charfn_points": sum(s[7] or 0 for s in named("sturm.shoot_charfn")),
        "sturm.charfn_s": total("sturm.shoot_charfn"),
        "homotopy.spectra_solved": tracked,
        "homotopy.grid_points": sum(s[7][0] for s in tracks if s[7]),
        "homotopy.events": sum(s[7][1] for s in tracks if s[7]),
        "homotopy.derivative_calls": len(named("homotopy.lambda_derivative")),
        "homotopy.self_s": layer_self("homotopy"),
        "rootfind.find_zeros_calls": len(named("rootfind.find_zeros")),
        "rootfind.winding_calls": len(named("rootfind.winding_count")),
        "rootfind.f_points": f_points,
        "rootfind.self_s": layer_self("rootfind"),
        # raised out of the root finder to its caller, not retried inside
        "rootfind.boundary_zero": sum(
            1 for s in spans if s[6] == "BoundaryZero" and s[3].startswith("rootfind.")
            and not (s[1] >= 0 and spans[s[1]][3].startswith("rootfind."))),
        "checks.spectrum_calls": len(checked),
        "checks.self_s": layer_self("checks"),
        "serialize.emit_s": sum(dur(s) for s in emit),
        "cli.self_s": layer_self("cli"),
    }
    out = {k: v / rounds for k, v in raw.items()}
    out["homotopy.useful_frac"] = targets * rounds / tracked if tracked else 0.0
    out["checks.used_spectra_frac"] = ((len(checked) - wasted) / len(checked)
                                       if checked else 0.0)
    out["checks.failed"] = checks_failed
    out["serialize.payload_bytes"] = payload_bytes
    out["cli.fail_frac"] = fail_frac
    out["trace_overhead_frac"] = overhead
    return {k: {"value": out[k], "unit": UNITS[k]} for k in UNITS}
