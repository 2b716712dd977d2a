"""Outside-in tracing of kgconformal's layers, for the traced benchmark run.

Nothing in the package is edited.  ``Tracer.installed()`` wraps the public
entry points of each module and rebinds every name that refers to them in
every kgconformal module (``_diff`` is bound by name in confmap, oscillator
and coulomb, ``hermite`` in oscillator, and so on); leaving the block
restores the originals.

Each wrapped call is a span (name, start, end, parent).  A span's self
time is its duration minus that of its child spans; a layer's self time is
the sum over its spans.  Spans of the coarse layers are kept in memory
and written out at the end; the fine layers (field evaluation, special
functions, differentiation, operators) make millions of spans per pass,
so they are kept only as per-name count, total and self time.  HyperDual
constructions and lifts and stencil samples are counted, not timed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

from kgconformal import confmap, core, coulomb, diffengine, dual, harness, oscillator, report, shooting, specfun

# module -> public entry points wrapped as spans of the module's layer
FUNCTIONS = {
    specfun: ("hermite", "sph_harm_cartesian", "radial_polynomial"),
    diffengine: ("_diff",),
    confmap: (
        "d_z", "d_zstar", "dzstar_dz", "dz_dzstar", "_laplacian",
        "qprop_identity_residual", "d2z_identity_residual",
        "independence_check", "holomorphy_residual",
    ),
    oscillator: (
        "eigenfunction_x", "eigenfunction_z", "kg_residual_x", "kg_residual_z",
        "ladder_apply", "number_operator_apply", "make_state", "oscillator_map",
    ),
    coulomb: (
        "eigenfunction_x", "eigenfunction_z", "kg_residual_x", "kg_residual_z",
        "ground_state_flatness", "make_state", "coulomb_map",
    ),
    harness: (
        "run_suite", "generate_test_field", "_field_sample_points", "_with_energy",
        "_suite_oscillator_x", "_suite_oscillator_z", "_suite_ladder",
        "_suite_coulomb_x", "_suite_coulomb_z", "_suite_map_independence",
        "_suite_holomorphy", "_suite_operator_identities", "_suite_reductions",
    ),
    shooting: ("shooting_eigenvalue",),
}
# (module, class, method) wrapped as spans of the module's layer
METHODS = (
    (core, "ComplexField", "__call__"),
    (core, "ComplexField", "at"),
    (specfun, "RadialPolynomial", "__call__"),
    (harness, "Grid", "points"),
    (report, "ResidualReport", "merge"),
    (report, "ResidualReport", "to_json"),
)
COARSE = ("harness", "report", "shooting", "oscillator", "coulomb")
# layers with spans; dual is only counted
LAYERS = ("core", "specfun", "diffengine", "confmap", "oscillator", "coulomb", "harness", "report", "shooting")


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    """Spans and counts for one traced pass."""

    def __init__(self):
        self.counts = defaultdict(int)  # span name or counter -> calls
        self.self_s = defaultdict(float)  # span name -> self seconds
        self.total_s = defaultdict(float)  # span name -> inclusive seconds
        self.spans = []  # coarse spans: [name, start, end, parent index or -1]
        self._stack = [[0.0, -1]]  # open spans: [child seconds, coarse span index]
        self._t0 = perf_counter()

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, keep):
        stack, spans, counts, self_s, total_s = self._stack, self.spans, self.counts, self.self_s, self.total_s
        t_origin = self._t0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            t0 = perf_counter()
            if keep:
                idx = len(spans)
                spans.append([name, t0 - t_origin, None, parent[1]])
                frame = [0.0, idx]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                parent[0] += dt
                counts[name] += 1
                total_s[name] += dt
                self_s[name] += dt - frame[0]
                if keep:
                    spans[idx][2] = t1 - t_origin

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _solve_ivp(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sol = fn(*args, **kwargs)
            counts["shooting.rhs_evals"] += sol.nfev
            return sol

        return self._span("shooting.solve_ivp", wrapper, keep=True)

    def _to_json(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            text = fn(*args, **kwargs)
            counts["report.bytes"] += len(text.encode())
            return text

        return wrapper

    # -- install / restore -----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items()) if n == "kgconformal" or n.startswith("kgconformal.")]
        undo = []

        def rebind(original, wrapped):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

        def patch(cls, attr, wrapped):
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapped)

        try:
            for mod, names in FUNCTIONS.items():
                layer = _layer(mod)
                for name in names:
                    fn = getattr(mod, name)
                    rebind(fn, self._span(f"{layer}.{name}", fn, keep=layer in COARSE))
            for mod, cls_name, meth in METHODS:
                layer = _layer(mod)
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                if meth == "to_json":
                    fn = self._to_json(fn)
                patch(cls, meth, self._span(f"{layer}.{cls_name}.{meth}", fn, keep=layer in COARSE))
            patch(dual.HyperDual, "__init__", self._counter("dual.constructions", dual.HyperDual.__init__))
            patch(dual.HyperDual, "_lift", self._counter("dual.lifts", dual.HyperDual._lift))
            rebind(diffengine._sample, self._counter("diffengine.samples", diffengine._sample))
            rebind(shooting.solve_ivp, self._solve_ivp(shooting.solve_ivp))
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    # -- summaries -------------------------------------------------------

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return out

    def calls(self, layer: str) -> int:
        """Spans opened in a layer."""
        return sum(n for name, n in self.counts.items() if name.startswith(layer + ".") and name in self.self_s)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "aggregate": {
                name: {"count": self.counts[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
                for name in sorted(self.self_s)
            },
            "counters": {name: n for name, n in sorted(self.counts.items()) if name not in self.self_s},
        }
