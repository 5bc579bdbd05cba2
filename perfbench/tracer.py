"""Span tracing of confsphere from outside the library.

`Tracer.install()` replaces the public functions of each confsphere module
with thin wrappers that record one span per call: (name, start, end,
parent index).  The wrappers are installed on the defining module AND on
every module that bound the same function through `from .x import name`,
so a call is traced whichever binding the caller uses.  One original
function gets one wrapper, and every span is named after the module that
defines it (`sphgrid.legendre_table`, never `mero.legendre_table`).

Work counts are computed at the wrapper from the arguments and their
shapes (kernel entries, synthesis terms, tanh-sinh nodes, ...), so they
repeat exactly for the same inputs.  Names the per-layer metrics expect but
the library no longer has are reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np

PACKAGE = "confsphere"
MODULES = ("lorentz", "special", "sphgrid", "spectral_ops", "reps", "mero",
           "trilinear", "verify")

# Methods traced on classes (the engines whose set-up and use differ).
METHODS = {"trilinear.TripleEngine": ("__init__", "value")}

# Per-element helpers called from inside the loops of the vectorized
# layers (thousands of calls per transform); a span around each would cost
# more than the helper and distort its caller's self time.
SKIP = frozenset({"sphgrid.plm_index", "sphgrid.flat_lm_index",
                  "spectral_ops.laplacian_multiplier",
                  "spectral_ops.gjms_multiplier",
                  "spectral_ops.bernstein_multiplier",
                  "special.complex_gamma"})

# Names the per-layer metrics read, plus the ones the open refactors are
# expected to delete; any that are missing are reported as absent.
EXPECTED = (
    "trilinear.chordal_power", "trilinear.TripleEngine",
    "trilinear.singular_form", "trilinear.generic_form_alpha3_family",
    "sphgrid.sht_forward_columns", "sphgrid.sht_synthesize_columns",
    "sphgrid.legendre_table", "sphgrid.synth_at_points",
    "sphgrid.sht_forward", "sphgrid.sht_inverse",
    "sphgrid.kernel_eigenvalues", "reps.pi_act", "reps.pi_act_coeffs",
    "special.tanhsinh_unit", "special.gamma_ratio",
    "spectral_ops.knapp_stein_multipliers", "spectral_ops.multiplier_family",
    "spectral_ops.MultiplierFamily", "mero.pair_distance_power",
    "mero.residue_ring", "mero.sht_matrices", "lorentz.act",
    "lorentz.conformal_factor", "verify.run_all",
)


# ---------------------------------------------------------------------------
# work counters: counter(tracer, args, kwargs) -> (args, kwargs)


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _ring_layout(points):
    """(distinct polar values, points on the fullest ring) of a point set.
    Grid nodes on one latitude ring share their first coordinate exactly."""
    _, counts = np.unique(np.asarray(points)[:, 0], return_counts=True)
    return counts.size, int(counts.max())


def _count_chordal_power(tr, args, kwargs):
    P, Q = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "Q")
    entries = P.shape[0] * Q.shape[0]
    nt_p, n_phi = _ring_layout(P)
    nt_q, _ = _ring_layout(Q)
    tr.add("trilinear.chordal_power.entries", entries)
    # an azimuth-circulant kernel between two grids with n_phi points per
    # ring has nt * nt' * n_phi distinct values
    tr.add("trilinear.chordal_power.unique_entries",
           min(entries, nt_p * nt_q * n_phi))
    return args, kwargs


def _count_columns(name, arg_name):
    def counter(tr, args, kwargs):
        tr.add(name + ".columns", np.shape(_arg(args, kwargs, 1, arg_name))[1])
        return args, kwargs
    return counter


def _count_legendre(tr, args, kwargs):
    L = int(_arg(args, kwargs, 0, "L"))
    u = np.ascontiguousarray(_arg(args, kwargs, 1, "u"), dtype=float)
    tr.repeat("sphgrid.legendre_table", (L, u.shape, u.tobytes()))
    return args, kwargs


def _count_synth(tr, args, kwargs):
    coeffs = _arg(args, kwargs, 0, "coeffs")
    points = np.asarray(_arg(args, kwargs, 1, "points"))
    n_points = points.size // points.shape[-1]
    tr.add("sphgrid.synth_at_points.terms", n_points * (coeffs.L + 1) ** 2)
    return args, kwargs


def _count_tanhsinh(tr, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(u, *rest):
        tr.add("special.tanhsinh_unit.nodes", np.size(u))
        return f(u, *rest)

    if args:
        return (counted,) + tuple(args[1:]), kwargs
    return args, dict(kwargs, f=counted)


def _count_descent(tr, args, kwargs):
    # steps of +2 the Bernstein-Sato descent needs before the exponent
    # -rho + alpha is directly integrable with the given margin
    dim = _arg(args, kwargs, 0, "dim")
    alpha = complex(_arg(args, kwargs, 1, "alpha"))
    margin = float(_arg(args, kwargs, 3, "margin", 0.5))
    s = alpha.real - dim.rho
    target = -(dim.n - 1.0) + margin
    steps = 0 if s > target else math.floor((target - s) / 2.0) + 1
    tr.add("spectral_ops.knapp_stein_multipliers.descent_steps", steps)
    return args, kwargs


def _count_family(tr, args, kwargs):
    dim = _arg(args, kwargs, 0, "dim")
    key = (dim.n, int(_arg(args, kwargs, 1, "L")), _arg(args, kwargs, 2, "kind"),
           complex(_arg(args, kwargs, 3, "param", 0.0)))
    tr.repeat("spectral_ops.multiplier_family", key)
    return args, kwargs


def _count_ring(tr, args, kwargs):
    tr.add("mero.residue_ring.samples", int(_arg(args, kwargs, 3, "m", 16)))
    return args, kwargs


def _count_act(tr, args, kwargs):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    tr.add("lorentz.act.points", x.size // x.shape[-1])
    return args, kwargs


COUNTERS = {
    "trilinear.chordal_power": _count_chordal_power,
    "sphgrid.sht_forward_columns": _count_columns("sphgrid.sht_forward_columns", "V"),
    "sphgrid.sht_synthesize_columns": _count_columns("sphgrid.sht_synthesize_columns", "C"),
    "sphgrid.legendre_table": _count_legendre,
    "sphgrid.synth_at_points": _count_synth,
    "special.tanhsinh_unit": _count_tanhsinh,
    "spectral_ops.knapp_stein_multipliers": _count_descent,
    "spectral_ops.multiplier_family": _count_family,
    "mero.residue_ring": _count_ring,
    "lorentz.act": _count_act,
}


# ---------------------------------------------------------------------------


class Tracer:
    """Span recorder for one traced pass.  Spans are kept in memory and
    summarized after the pass."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.seen: dict = {}
        self.absent: list = []
        self.wrapped: list = []

    # counters ------------------------------------------------------------

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def repeat(self, name: str, key) -> None:
        """Count a call and whether an identical call came before it."""
        seen = self.seen.setdefault(name, set())
        self.add(name + ".repeats", int(key in seen))
        self.add(name + ".keyed_calls", 1)
        seen.add(key)

    # installation --------------------------------------------------------

    def _wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                args, kwargs = counter(tracer, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def install(self) -> None:
        modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        wrappers = {}

        def defining_name(fn):
            mod = getattr(fn, "__module__", "") or ""
            if not mod.startswith(PACKAGE + "."):
                return None
            short = mod[len(PACKAGE) + 1:]
            if short not in modules:
                return None
            return f"{short}.{fn.__name__}"

        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                name = defining_name(obj)
                if name is None or name in SKIP:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrapper(name, obj)
                    self.wrapped.append(name)
                setattr(mod, attr, wrappers[obj])

        for qual, methods in METHODS.items():
            short, cls_name = qual.split(".", 1)
            cls = getattr(modules[short], cls_name, None)
            for meth in methods:
                fn = getattr(cls, meth, None) if cls is not None else None
                if fn is None:
                    self.absent.append(f"{qual}.{meth}")
                    continue
                setattr(cls, meth, self._wrapper(f"{qual}.{meth}", fn))
                self.wrapped.append(f"{qual}.{meth}")

        for qual in EXPECTED:
            short, attr = qual.split(".", 1)
            if not hasattr(modules[short], attr):
                self.absent.append(qual)

    # summary -------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (the
        duration minus the part covered by direct child spans), plus the
        duration covered by top-level spans."""
        table: dict = {}
        child_time = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            dur = end - start
            if parent >= 0:
                child_time[parent] += dur
            else:
                top_level += dur
        for idx, (name, start, end, parent) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child_time[idx]
        return {"layers": table, "top_level_s": top_level,
                "spans": len(self.spans)}
