"""Per-layer spans recorded from outside the library.

Each traced function is replaced, at the module attribute the pipeline looks
it up through, by a wrapper that times the call and charges it to a layer.
A layer's self time is its spans' durations minus the time of the spans they
caused; what the benchmark itself computes inside a span (the backward-error
probe, byte counts) is charged to ``trace.probe`` instead, so that the self
times plus the unattributed remainder add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict

import numpy as np

import diospec.dynamics
import diospec.eig
import diospec.report
from diospec.polynomials import evaluate
from reference import clock

RHS_LAYER = "dynamics.rhs"


class Tracer:
    """Span bookkeeping for one traced run; install() patches the library."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._stack = []

    def wrap(self, layer, fn, observe=None):
        stack = self._stack

        def traced(*args, **kwargs):
            # An RHS that calls another RHS (zeta flows through gamma flows)
            # is one evaluation of the integrator's right-hand side.
            if layer == RHS_LAYER and stack and stack[-1][0] == RHS_LAYER:
                return fn(*args, **kwargs)
            entry = [layer, 0.0]
            stack.append(entry)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - entry[1]
                self.calls[layer] += 1
                probe = 0.0
                if observe is not None:
                    observe(args, kwargs, result, exc)
                    probe = clock() - end
                    self.self_s["trace.probe"] += probe
                if stack:
                    stack[-1][1] += duration + probe

        return traced

    # --- observers: read what a call returned, outside its span -------------

    def _roots(self, args, kwargs, result, exc):
        if "start_phase" in kwargs:
            self.counts["roots_retries"] += 1
        if exc is not None:
            self.counts["roots_raised"] += 1
            return
        poly, zeros = args[0], result.zeros
        if poly.coefficients[-1] == 0:
            # c_N = 0 makes 0 an exact root, and there the componentwise
            # backward error is 1 for any z != 0, however close: leave out
            # the root nearest 0.
            zeros = np.delete(zeros, np.argmin(np.abs(zeros)))
        weights = np.concatenate([[1.0], np.abs(poly.coefficients)])
        scale = np.polyval(weights, np.abs(zeros))
        backward = float(np.max(np.abs(evaluate(poly, zeros)) / scale))
        self.maxima["root_backward_error"] = max(
            self.maxima["root_backward_error"], backward)

    def _spectrum(self, args, kwargs, result, exc):
        if exc is None:
            self.maxima["max_deviation"] = max(self.maxima["max_deviation"],
                                               result.max_deviation)

    def _eigenvalues(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["qr_steps"] += result.iterations

    def _serialize(self, args, kwargs, result, exc):
        if exc is None:
            self.counts["bytes_out"] += len(result.encode())

    def _integrate(self, args, kwargs, result, exc):
        if exc is None:
            accepted, rejected = result.step_stats
            self.counts["steps_accepted"] += accepted
            self.counts["steps_rejected"] += rejected

    def _targets(self):
        report, dynamics = diospec.report, diospec.dynamics
        return [
            (report, "run_verification", "report.run_verification", None),
            (report, "report_to_json", "report.serialize", self._serialize),
            (report, "report_to_csv", "report.serialize", self._serialize),
            (report, "roots", "polynomials.roots", self._roots),
            (report, "build_m1", "matrices.build", None),
            (report, "build_m2", "matrices.build", None),
            (report, "spectrum_check", "matrices.spectrum_check", self._spectrum),
            # matrices.spectrum_check calls eig.eigenvalues on the module.
            (diospec.eig, "eigenvalues", "eig.eigenvalues", self._eigenvalues),
            (dynamics, "integrate", "dynamics.integrate", self._integrate),
            (dynamics, "rhs_gamma_first", RHS_LAYER, None),
            (dynamics, "rhs_zeta_first", RHS_LAYER, None),
            (dynamics, "rhs_gamma_second", RHS_LAYER, None),
            (dynamics, "rhs_zeta_second", RHS_LAYER, None),
        ]

    @contextlib.contextmanager
    def install(self):
        """Patch every traced name for the duration of the block."""
        saved = []
        try:
            for module, name, layer, observe in self._targets():
                original = getattr(module, name, None)
                if original is None:
                    print(f"# trace: {module.__name__}.{name} not found; "
                          f"layer {layer} is not traced there", file=sys.stderr)
                    continue
                saved.append((module, name, original))
                setattr(module, name, self.wrap(layer, original, observe))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)
