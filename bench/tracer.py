"""Per-layer tracing from outside the library.

`install` wraps the listed public functions and methods of each `rittkit`
module and rebinds every copy of them: the defining module's name, each
module that imported the name, the package namespace and class aliases
such as `__rmul__ = __mul__`.  A wrapped call records a span with its
parent.  Spans are aggregated in memory per function (calls, total,
self) and per parent edge, so a traced pass costs no memory per call.
Only the traced worker imports this module; timed runs never load it.
"""

from __future__ import annotations

import importlib
import sys
import time

# Module -> wrapped names.  A dotted name is a method on a class.
TARGETS = {
    "field": ("CycElem.__mul__", "CycElem.inverse", "nth_roots"),
    "poly": ("Poly.__mul__", "Poly.__add__", "Poly.evaluate", "compose",
             "iterate", "poly_divmod", "poly_gcd", "squarefree_part",
             "poly_nth_root"),
    "bivar": ("BivarPoly.__mul__", "resultant_univar", "resultant_y",
              "lagrange_interpolate", "bivar_gcd", "bivar_squarefree"),
    "roots": ("in_field_roots",),
    "decompose": ("right_factor_solve", "normalized_right_factor",
                  "complete_decompositions"),
    "conjugacy": ("classify", "equivalence_witness"),
    "symmetry": ("gamma_group", "m_infinity"),
    "semiconj": ("solve_eta", "solve_intertwiner"),
    "msclass": ("curve_image", "curve_period", "ms_diagonal_curves"),
    "dml": ("orbit", "return_set_modp", "preperiodic_check"),
    "bounds": ("bound_c",),
    "parser": ("parse_poly", "parse_curve"),
    "cli": ("run_command",),
}

KEYS = tuple(f"{mod}.{name}" for mod, names in TARGETS.items()
             for name in names)

DERIVED = ("poly.Poly.__mul__.max_degree", "poly.poly_divmod.max_coeff_bits",
           "poly.poly_nth_root.hit_ratio",
           "decompose.right_factor_solve.hit_ratio",
           "msclass.curve_image.resultant_y_per_call")

_FAILED = object()


def _bits(c) -> int:
    parts = getattr(c, "coeffs", (c,))
    return max((max(v.numerator.bit_length(), v.denominator.bit_length())
                for v in parts), default=0)


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []
        self.stats = {key: [0, 0.0, 0.0] for key in KEYS}  # calls, total, self
        self.edges = {}                                   # (parent, key) -> [calls, total]
        self.top_s = 0.0
        self.counts = {}
        self.max_degree = 0
        self.max_coeff_bits = 0

    def reset(self):
        for s in self.stats.values():
            s[0], s[1], s[2] = 0, 0.0, 0.0
        self.edges.clear()
        self.top_s = 0.0
        self.counts.clear()
        self.max_degree = 0
        self.max_coeff_bits = 0

    def bump(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, key, fn):
        tracer, stack, edges = self, self.stack, self.edges
        stats = self.stats[key]
        observe = _OBSERVERS.get(key)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            result = _FAILED
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                edge = (parent[0] if parent else None, key)
                e = edges.get(edge)
                if e is None:
                    edges[edge] = [1, dur]
                else:
                    e[0] += 1
                    e[1] += dur
                if parent is None:
                    tracer.top_s += dur
                else:
                    parent[1] += dur
                if observe is not None:
                    t1 = clock()
                    observe(tracer, result)
                    if parent is not None:
                        parent[1] += clock() - t1

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        return traced

    def in_span(self, key) -> bool:
        return any(frame[0] == key for frame in self.stack)

    def snapshot(self) -> dict:
        """Per-layer metrics of everything traced since the last reset."""
        out = {}
        for key, (calls, _total, self_s) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_s"] = self_s
        c = self.counts
        out["poly.Poly.__mul__.max_degree"] = self.max_degree
        out["poly.poly_divmod.max_coeff_bits"] = self.max_coeff_bits
        out["poly.poly_nth_root.hit_ratio"] = _ratio(
            c.get("nth_root_hits", 0), self.stats["poly.poly_nth_root"][0])
        out["decompose.right_factor_solve.hit_ratio"] = _ratio(
            c.get("right_factor_hits", 0),
            self.stats["decompose.right_factor_solve"][0])
        out["msclass.curve_image.resultant_y_per_call"] = _ratio(
            c.get("image_resultants", 0), self.stats["msclass.curve_image"][0])
        return out

    def span_edges(self) -> list:
        return [{"parent": p, "name": k, "calls": n, "total_s": t}
                for (p, k), (n, t) in sorted(self.edges.items(),
                                             key=lambda kv: -kv[1][1])]


def _ratio(num, den):
    return num / den if den else 0.0


def _observe_mul(tracer, result):
    if result is not _FAILED and result.degree > tracer.max_degree:
        tracer.max_degree = result.degree


def _observe_divmod(tracer, result):
    if result is not _FAILED:
        bits = max((_bits(c) for c in result[1].coeffs), default=0)
        if bits > tracer.max_coeff_bits:
            tracer.max_coeff_bits = bits


def _observe_nth_root(tracer, result):
    if result is not _FAILED and result is not None:
        tracer.bump("nth_root_hits")


def _observe_right_factor(tracer, result):
    if result is not _FAILED and result:
        tracer.bump("right_factor_hits")


def _observe_resultant_y(tracer, result):
    if tracer.in_span("msclass.curve_image"):
        tracer.bump("image_resultants")


_OBSERVERS = {
    "poly.Poly.__mul__": _observe_mul,
    "poly.poly_divmod": _observe_divmod,
    "poly.poly_nth_root": _observe_nth_root,
    "decompose.right_factor_solve": _observe_right_factor,
    "bivar.resultant_y": _observe_resultant_y,
}


def install(tracer: Tracer) -> list:
    """Wrap every target and rebind all its copies; returns the undo list."""
    modules = {name: importlib.import_module(f"rittkit.{name}")
               for name in TARGETS}
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if name == "rittkit" or name.startswith("rittkit.")]
    undo = []
    for modname, names in TARGETS.items():
        mod = modules[modname]
        for name in names:
            holders = list(namespaces)
            if "." in name:
                cls_name, attr = name.split(".")
                cls = getattr(mod, cls_name)
                orig = vars(cls)[attr]
                holders.append(cls)
            else:
                orig = getattr(mod, name)
            wrapped = tracer.wrap(f"{modname}.{name}", orig)
            for holder in holders:
                for alias, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, alias, wrapped)
                        undo.append((holder, alias, orig))
    return undo


def uninstall(undo: list) -> None:
    for holder, alias, orig in reversed(undo):
        setattr(holder, alias, orig)
