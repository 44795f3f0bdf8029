"""Span tracer that wraps ghmc's layer boundaries from outside the package.

Nothing in the engine changes: the traced run hands the engine instrumented
copies of the model and kinetic, and swaps the names ``ghmc.sampler`` and
``ghmc.runspec`` look up for the duration of the run.  Each wrapped call
records a span (name, start, end, parent) in flat in-memory arrays; the spans
are written out once the run ends.  A span's self time is its duration minus
the time its direct children cover.
"""

import copy
import time
from array import array
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

import ghmc.runspec
import ghmc.sampler

KINETIC_METHODS = ("energy", "grad_p", "grad_q", "sample_momentum", "lambda_at")


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")
        self._child = array("q")
        self._stack = []
        self.integrate_steps = []  # num_steps of each integrate call, in call order
        self.reflections = 0

    def wrap(self, name, fn):
        """Return fn wrapped so that every call records a ``name`` span."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        names, parents, starts, ends, child = (
            self._name, self._parent, self._start, self._end, self._child
        )
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            parent = stack[-1] if stack else -1
            names.append(nid)
            parents.append(parent)
            ends.append(0)
            child.append(0)
            stack.append(idx)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                if parent >= 0:
                    child[parent] += t1 - t0

        return traced

    def instrument(self, model, kinetic):
        """Copies of model and kinetic whose callables and methods record spans."""
        w = self.wrap
        constraints = tuple(
            replace(
                c,
                value=w("model.constraint_value", c.value),
                grad=w("model.constraint_grad", c.grad),
            )
            for c in model.constraints
        )
        model = replace(
            model,
            potential=w("model.potential", model.potential),
            gradient=w("model.gradient", model.gradient),
            hessian=None if model.hessian is None else w("model.hessian", model.hessian),
            constraints=constraints,
        )
        field = copy.copy(kinetic.field)
        if isinstance(field, ghmc.GraphMetric):
            field.model = model
        field.state_at = w("metric.state_at", field.state_at)
        field.sample_gaussian = w("metric.sample_gaussian", field.sample_gaussian)
        kinetic = copy.copy(kinetic)
        kinetic.field = field
        for method in KINETIC_METHODS:
            setattr(kinetic, method, w(f"kinetic.{method}", getattr(kinetic, method)))
        return model, kinetic

    def traced_run_chain(self, run_chain):
        """run_chain that instruments its model and kinetic, inside a span."""
        span = self.wrap("sampler.run_chain", run_chain)

        def run(model, kinetic, cfg, initial=None):
            model, kinetic = self.instrument(model, kinetic)
            return span(model, kinetic, cfg, initial)

        return run

    @contextmanager
    def patched(self):
        """Trace the names ghmc.sampler and ghmc.runspec look up, then restore them."""
        integrate = ghmc.sampler.integrate

        def counted_integrate(model, kinetic, state, config):
            self.integrate_steps.append(config.num_steps)
            traj = integrate(model, kinetic, state, config)
            self.reflections += traj.reflection_count
            return traj

        saved = [
            (ghmc.sampler, "integrate", self.wrap("integrator.integrate", counted_integrate)),
            (ghmc.sampler, "hamiltonian",
             self.wrap("sampler.hamiltonian", ghmc.sampler.hamiltonian)),
            (ghmc.sampler, "effective_sample_size",
             self.wrap("sampler.effective_sample_size", ghmc.sampler.effective_sample_size)),
            (ghmc.runspec, "run_chain", self.traced_run_chain(ghmc.runspec.run_chain)),
        ]
        originals = [(module, attr, getattr(module, attr)) for module, attr, _ in saved]
        for module, attr, fn in saved:
            setattr(module, attr, fn)
        try:
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def spans(self):
        """(name id, duration ns, self ns, parent) arrays over all spans."""
        dur = _copy(self._end) - _copy(self._start)
        return _copy(self._name), dur, dur - _copy(self._child), _copy(self._parent)

    def durations(self, name):
        """Durations in ns of every ``name`` span, in call order."""
        if name not in self._ids:
            return np.empty(0, dtype=np.int64)
        ids, dur, _, _ = self.spans()
        return dur[ids == self._ids[name]]

    def calls(self, name) -> int:
        return int(self.durations(name).size)

    def layer_self_ns(self):
        """Self time per layer (the span-name prefix) and the total root time."""
        ids, dur, self_ns, parent = self.spans()
        per_name = np.bincount(ids, weights=self_ns, minlength=len(self.names))
        layers = {}
        for name, ns in zip(self.names, per_name):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + float(ns)
        return layers, float(dur[parent == -1].sum())

    def dump(self, path):
        """Write every span (name, start, end, parent) to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            name=_copy(self._name),
            start=_copy(self._start),
            end=_copy(self._end),
            parent=_copy(self._parent),
        )


def _copy(arr):
    # A copy, so no live view blocks the array from growing later.
    return np.array(arr, dtype=np.int64 if arr.typecode == "q" else np.int32)
