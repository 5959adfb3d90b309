"""Per-layer timings taken from outside the package.

The tracer wraps public functions of the ``gl3ff`` modules and rebinds every
module-level name that refers to the original function, in every loaded
module.  Rebinding only the defining module would miss the copies that other
modules took with ``from .model import phi_log`` and would silently read
zero; :meth:`Tracer.install` therefore refuses to finish while any loaded
module still holds an original.

Each wrapped function is a span: call count, inclusive time (outermost calls
only, so recursion is not counted twice) and self time (inclusive time minus
the time of wrapped calls made inside it).
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np


class Span:
    __slots__ = ("calls", "s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: dict = {}
        self.counters: dict = {}
        self._stack: list = []
        self._originals: dict = {}  # id(original) -> (original, wrapper)
        self._rebound: list = []    # (module, attr, original)

    # -- recording -------------------------------------------------------

    def span(self, name: str) -> Span:
        return self.spans.setdefault(name, Span())

    def count(self, name: str, amount=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, fn, span: Span, after=None):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            span.depth += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                span.depth -= 1
                span.calls += 1
                span.self_s += dt - frame[0]
                if span.depth == 0:
                    span.s += dt
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    # -- installation ----------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each ``(module, function name, span name, after-hook)``.

        ``after(args, kwargs, result)`` runs after a successful call and may
        add counters.  Several functions may share one span name.
        """
        for module, attr, name, after in targets:
            original = getattr(module, attr)
            if id(original) in self._originals:
                raise ValueError(f"{module.__name__}.{attr} wrapped twice")
            wrapper = self._wrap(original, self.span(name), after)
            self._originals[id(original)] = (original, wrapper)
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for attr, value in list(space.items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._rebound.append((mod, attr, value))
        stale = self.stale_bindings()
        if stale:
            raise RuntimeError(f"tracer left original bindings: {stale}")

    def stale_bindings(self) -> list:
        """Names in loaded modules that still refer to an unwrapped target."""
        out = []
        for mod in list(sys.modules.values()):
            space = getattr(mod, "__dict__", None)
            if not isinstance(space, dict):
                continue
            for attr, value in list(space.items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    out.append(f"{mod.__name__}.{attr}")
        return out

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()
        self._originals.clear()


# ---------------------------------------------------------------------------
# the gl3ff layers

KERNEL_PRODUCTS = ("g_prod", "f_prod", "h_prod", "t_prod", "inv_f_prod",
                   "inv_h_prod", "inv_g_prod", "delta", "delta_prime")


def gl3ff_targets(tracer: Tracer) -> list:
    """Span and counter definitions for every per-layer metric."""
    from gl3ff import cli, formfactor, kernel, model, oracle, solver

    def monodromy_bytes(args, kwargs, out):
        tracer.count("oracle.monodromy.bytes_computed", out.nbytes)

    def lu_flops(args, kwargs, out):
        n = np.asarray(args[0]).shape[0]
        # complex LU: (2/3) n^3 multiply-adds at 8 real flops each
        tracer.count("formfactor.det_lu.flops_computed", 8 * n ** 3 // 3)

    def finite_check(args, kwargs, out):
        if not np.isfinite(out):
            tracer.count("formfactor.nonfinite")

    distinct = tracer.span("solver.distinct_states")

    def states_found(args, kwargs, out):
        tracer.count("solver.states_found", len(out))

    def newton_step(args, kwargs, out):
        # inside distinct_states the only Gaudin-matrix caller is the Newton
        # Jacobian, one call per step
        if distinct.depth:
            tracer.count("solver.newton_steps")

    targets = [
        (oracle, "monodromy", "oracle.monodromy", monodromy_bytes),
        (oracle, "transfer_matrix", "oracle.transfer_matrix", None),
        (oracle, "eigenvector_for_state", "oracle.eigenvector_for_state", None),
        (cli, "prepare_states", "cli.prepare_states", None),
        (solver, "distinct_states", "solver.distinct_states", states_found),
        (model, "gaudin_matrix", "model.gaudin_matrix", newton_step),
        (model, "phi_log", "model.phi_log", None),
        (formfactor, "form_factor", "formfactor.form_factor", finite_check),
        (formfactor, "norm_squared", "formfactor.norm_squared", finite_check),
        (formfactor, "assemble", "formfactor.assemble", None),
        (formfactor, "n_matrix", "formfactor.n_matrix", None),
        (formfactor, "prefactor_H", "formfactor.prefactor_H", None),
        (formfactor, "det_lu", "formfactor.det_lu", lu_flops),
    ]
    targets += [(kernel, name, "kernel.prod", None) for name in KERNEL_PRODUCTS]
    return targets


# (metric name, unit, source): source is ("span", span name, field) or
# ("counter", counter name)
PER_LAYER = (
    ("oracle.monodromy.calls", "count", ("span", "oracle.monodromy", "calls")),
    ("oracle.monodromy.s", "s", ("span", "oracle.monodromy", "s")),
    ("oracle.monodromy.bytes_computed", "B",
     ("counter", "oracle.monodromy.bytes_computed")),
    ("oracle.transfer_matrix.calls", "count",
     ("span", "oracle.transfer_matrix", "calls")),
    ("oracle.transfer_matrix.s", "s", ("span", "oracle.transfer_matrix", "s")),
    ("oracle.eigenvector_for_state.calls", "count",
     ("span", "oracle.eigenvector_for_state", "calls")),
    ("oracle.eigenvector_for_state.s", "s",
     ("span", "oracle.eigenvector_for_state", "s")),
    ("oracle.eigenvector_for_state.self_s", "s",
     ("span", "oracle.eigenvector_for_state", "self_s")),
    ("cli.prepare_states.calls", "count", ("span", "cli.prepare_states", "calls")),
    ("cli.prepare_states.s", "s", ("span", "cli.prepare_states", "s")),
    ("solver.distinct_states.calls", "count",
     ("span", "solver.distinct_states", "calls")),
    ("solver.distinct_states.s", "s", ("span", "solver.distinct_states", "s")),
    ("solver.distinct_states.self_s", "s",
     ("span", "solver.distinct_states", "self_s")),
    ("solver.states_found", "count", ("counter", "solver.states_found")),
    ("solver.newton_steps", "count", ("counter", "solver.newton_steps")),
    ("model.gaudin_matrix.calls", "count", ("span", "model.gaudin_matrix", "calls")),
    ("model.gaudin_matrix.s", "s", ("span", "model.gaudin_matrix", "s")),
    ("model.phi_log.calls", "count", ("span", "model.phi_log", "calls")),
    ("model.phi_log.s", "s", ("span", "model.phi_log", "s")),
    ("formfactor.form_factor.calls", "count",
     ("span", "formfactor.form_factor", "calls")),
    ("formfactor.form_factor.s", "s", ("span", "formfactor.form_factor", "s")),
    ("formfactor.assemble.s", "s", ("span", "formfactor.assemble", "s")),
    ("formfactor.n_matrix.s", "s", ("span", "formfactor.n_matrix", "s")),
    ("formfactor.prefactor_H.s", "s", ("span", "formfactor.prefactor_H", "s")),
    ("formfactor.det_lu.calls", "count", ("span", "formfactor.det_lu", "calls")),
    ("formfactor.det_lu.s", "s", ("span", "formfactor.det_lu", "s")),
    ("formfactor.det_lu.flops_computed", "flop",
     ("counter", "formfactor.det_lu.flops_computed")),
    ("formfactor.nonfinite", "count", ("counter", "formfactor.nonfinite")),
    ("kernel.prod.calls", "count", ("span", "kernel.prod", "calls")),
    ("kernel.prod.s", "s", ("span", "kernel.prod", "s")),
)


def snapshot(tracer: Tracer) -> dict:
    """Current value of every per-layer metric except the derived ones."""
    out = {}
    for name, _unit, source in PER_LAYER:
        if source[0] == "span":
            span = tracer.spans.get(source[1])
            out[name] = getattr(span, source[2]) if span else 0
        else:
            out[name] = tracer.counters.get(source[1], 0)
    return out
