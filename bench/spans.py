"""Span tracer for the traced benchmark run.

The tracer measures leglab from outside.  Each traced public function is
replaced by a timing wrapper in every leglab module namespace that holds it,
so the wrapper sits at the name a caller looks up: ``runner``,
``conjecture`` and ``ratefit`` import their collaborators by name, and
``functions`` imports coefficient generators from ``coefficients`` at call
time.  Nothing is installed unless a traced run asks for it.

A span records its name, start, end, parent span, run id and a few
arguments; spans stay in memory and are written to a trace file when the
run ends.  ``layer_metrics`` reduces them to the per-layer figures listed
in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# (module, function) pairs wrapped in a traced run: the public entry points
# of every layer a workload reaches.  Hot inner helpers such as
# legendre_eval_range are left alone, so the overhead stays per call of a
# layer, not per term.
TARGETS = {
    "coefficients": ["step_derivative_coeffs", "abs_shift_coeffs",
                     "constrained_pversion_coeffs", "power_abs_coeffs",
                     "singular_term_coeffs", "power_shift_coeffs_appendixA",
                     "spec_coeffs", "derivative_coeffs"],
    "series_eval": ["error_sweep", "partial_sum_values", "norm_sweep"],
    "legendre": ["legendre_range_array"],
    "ratefit": ["fit_rate", "fit_lower_bound", "pinned_constant", "constant_growth",
                "gibbs_probe", "weighted_sup_norm", "bounded_oscillation_check"],
    "bounds": ["theorem1_bound_series"],
    "pfem": ["assemble_and_solve", "element_error_series"],
    "conjecture": ["conjecture_suite", "powershift_suite", "measured_rate",
                   "clause1_interior", "clause2_boundary_growth",
                   "clause3_singular_growth", "clause4_endpoints",
                   "clause5_singular_point"],
    "runner": ["run_experiment"],
}

COEFF_SPANS = ["coefficients." + n for n in TARGETS["coefficients"]]
CLOSED_FORM_SPANS = ["coefficients.step_derivative_coeffs", "coefficients.abs_shift_coeffs",
                     "coefficients.constrained_pversion_coeffs"]

# arguments kept on a span, by span name
_KEEP_ARGS = {
    "series_eval.error_sweep": ("pmax", "ctx", "series"),
    "series_eval.partial_sum_values": ("pmax",),
    "coefficients.power_shift_coeffs_appendixA": ("P",),
    "ratefit.constant_growth": ("pmax",),
    "conjecture.measured_rate": ("pmax",),
}


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []  # dicts, in end order
        self._stack = []  # open spans: [id, name, start, child_time]
        self._next_id = 0
        self._restore = []

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame, attrs, error):
        end = time.perf_counter()
        self._stack.pop()
        sid, name, start, child = frame
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        self.spans.append({"id": sid, "name": name, "run": self.run_id, "start": start,
                           "end": end, "self": dur - child,
                           "parent": parent[0] if parent else None,
                           "attrs": attrs, "error": error})

    def wrap(self, name, fn):
        """fn, recording a span named name around every call."""
        keep = _KEEP_ARGS.get(name)
        coeff = name.startswith("coefficients.")
        sig = inspect.signature(fn) if (keep or coeff) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = {}
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if coeff:
                    attrs["key"] = repr(tuple((k, getattr(v, "series_id", v))
                                              for k, v in bound.arguments.items()))
                    attrs["P"] = bound.arguments.get("P")
                for k in keep or ():
                    attrs[k] = bound.arguments.get(k)
                if "ctx" in attrs:
                    ctx = attrs.pop("ctx") or attrs["series"].ctx
                    attrs["mode"] = ctx.mode
                attrs.pop("series", None)
            frame = self._open(name)
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = type(exc).__name__
                raise
            finally:
                self._close(frame, attrs, error)

        return traced

    def install(self):
        """Replace each target in every leglab namespace that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "leglab" or n.startswith("leglab."))]
        for short, names in TARGETS.items():
            home = sys.modules["leglab." + short]
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{short}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "spans": self.spans}, fh, default=str)


def work_signature(spans) -> list:
    """Series sizes and sweep lengths of a pass, as sorted (span name, size) pairs.

    Two inputs with the same signature do the same work; the admissible
    sets of the conjecture workload are built from that rule.
    """
    sizes = []
    for s in spans:
        if s["name"] in COEFF_SPANS:
            sizes.append((s["name"], s["attrs"]["P"]))
        elif s["name"] in ("series_eval.error_sweep", "series_eval.partial_sum_values"):
            sizes.append((s["name"], s["attrs"]["pmax"]))
    return sorted(sizes, key=repr)


def layer_metrics(spans, wall_s):
    """Per-layer metrics from one traced pass whose operations took wall_s."""
    by_id = {s["id"]: s for s in spans}
    incl, self_t = {}, {}
    for s in spans:
        n = s["name"]
        incl[n] = incl.get(n, 0.0) + (s["end"] - s["start"])
        self_t[n] = self_t.get(n, 0.0) + s["self"]

    def total(names):
        return sum(incl.get(n, 0.0) for n in names)

    def ancestor(s, names):
        p = s["parent"]
        while p is not None:
            anc = by_id[p]
            if anc["name"] in names:
                return anc
            p = anc["parent"]
        return None

    # closed forms are cheap, so calls and distinct count only the generators
    # whose repeats cost real time
    coeff_calls = [s for s in spans
                   if s["name"] in COEFF_SPANS and s["name"] not in CLOSED_FORM_SPANS]
    distinct = len({(s["name"], s["attrs"]["key"]) for s in coeff_calls})
    sweeps = [s for s in spans if s["name"] == "series_eval.error_sweep"]
    f64 = [s for s in sweeps if s["attrs"]["mode"] == "f64"]
    big = [s for s in sweeps if s["attrs"]["mode"] != "f64"]

    def ns_per_term(group):
        terms = sum(s["attrs"]["pmax"] for s in group)
        return 1e9 * sum(s["end"] - s["start"] for s in group) / terms if terms else 0.0

    escalations = {"ratefit.constant_growth": 0, "conjecture.measured_rate": 0}
    for s in sweeps + [s for s in spans if s["name"] == "series_eval.partial_sum_values"]:
        anc = ancestor(s, escalations)
        if anc is not None and s["attrs"]["pmax"] > anc["attrs"]["pmax"]:
            escalations[anc["name"]] += 1
    appendix = [s for s in spans if s["name"] == "coefficients.power_shift_coeffs_appendixA"]
    bits = 0
    if appendix:
        from leglab.coefficients import appendixA_precision_bits
        bits = max(appendixA_precision_bits(s["attrs"]["P"]) for s in appendix)
    layer_self = sum(s["self"] for s in spans if s["name"] != "op")

    out = {
        "coefficients.calls": len(coeff_calls),
        "coefficients.distinct": distinct,
        "coefficients.reuse_ratio": distinct / len(coeff_calls) if coeff_calls else 0.0,
        "coefficients.singular_term_s": incl.get("coefficients.singular_term_coeffs", 0.0),
        "coefficients.power_abs_s": incl.get("coefficients.power_abs_coeffs", 0.0),
        "coefficients.appendixA_s": incl.get("coefficients.power_shift_coeffs_appendixA", 0.0),
        "coefficients.appendixA_bits": bits,
        "coefficients.closed_form_s": total(CLOSED_FORM_SPANS),
        "series_eval.sweep_calls": len(sweeps),
        "series_eval.terms": sum(s["attrs"]["pmax"] for s in sweeps),
        "series_eval.f64_ns_per_term": ns_per_term(f64),
        "series_eval.big_ns_per_term": ns_per_term(big),
        "series_eval.partial_sum_values_s": incl.get("series_eval.partial_sum_values", 0.0),
        "series_eval.norm_sweep_s": incl.get("series_eval.norm_sweep", 0.0),
        "ratefit.fit_rate_s": incl.get("ratefit.fit_rate", 0.0),
        "ratefit.unreliable": sum(1 for s in spans if s["name"] == "ratefit.fit_rate"
                                  and s["error"] == "FitUnreliable"),
        "ratefit.constant_growth_self_s": self_t.get("ratefit.constant_growth", 0.0),
        "ratefit.escalations": escalations["ratefit.constant_growth"],
        "conjecture.escalations": escalations["conjecture.measured_rate"],
        "ratefit.gibbs_probe_s": incl.get("ratefit.gibbs_probe", 0.0),
        "legendre.range_array_s": incl.get("legendre.legendre_range_array", 0.0),
        "pfem.solve_s": incl.get("pfem.assemble_and_solve", 0.0),
        "pfem.element_sweep_s": incl.get("pfem.element_error_series", 0.0),
        "bounds.theorem1_series_s": incl.get("bounds.theorem1_bound_series", 0.0),
        "runner.self_s": self_t.get("runner.run_experiment", 0.0),
        "trace.attributed_ratio": layer_self / wall_s if wall_s else 0.0,
    }
    for c, name in enumerate(TARGETS["conjecture"][3:], 1):
        out[f"conjecture.clause{c}_s"] = incl.get("conjecture." + name, 0.0)
    return out
