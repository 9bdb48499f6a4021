"""Outside-in instrumentation of sspkit for the benchmark.

Two instruments, both installed by rebinding public names in the imported
sspkit modules, so nothing under src/ changes and every call the program
makes through a rebound name passes through the wrapper:

* ``Recorder`` -- always on.  A bare counter at ``problem.f`` (the exact
  fev of a run), and a record of every ``bench.run_single`` row and
  ``bench.reference_endpoint`` result for the correctness checks.
* ``Tracer`` -- only in the traced run.  A span around each public layer
  function, aggregated per span name into calls, inclusive time and self
  time (inclusive minus the time covered by child spans).  Spans are
  aggregated as they close rather than stored one by one: a sweep makes
  about a million RHS calls.
"""

from __future__ import annotations

import sys
import time
import types

clock = time.perf_counter

# span names whose individual durations are kept (for percentiles)
KEEP_SAMPLES = ("bench.run_single",)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if isinstance(m, types.ModuleType) and (name == "sspkit" or name.startswith("sspkit."))]


def rebind(original, replacement) -> None:
    """Point every sspkit module attribute bound to ``original`` at
    ``replacement``."""
    for mod in _modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


class Tracer:
    """Aggregated spans: ``spans[name] = [calls, inclusive_s, self_s]``."""

    def __init__(self):
        self.stack: list[list] = []       # open spans: [name, child_seconds]
        self.spans: dict[str, list] = {}
        self.samples: dict[str, list] = {}
        self.cost_evals = 0               # sum of optimizer n_eval seen at the boundary

    def reset(self) -> None:
        self.stack.clear()
        self.spans.clear()
        self.samples.clear()
        self.cost_evals = 0

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "samples": {k: list(v) for k, v in self.samples.items()},
            "cost_evals": self.cost_evals,
        }

    def wrap(self, name, fn):
        """Span-timed ``fn``.  ``name`` is a string or a callable
        ``name(args, stack)`` that picks the span name per call."""
        stack, spans, samples = self.stack, self.spans, self.samples
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            label = fixed or name(args, stack)
            frame = [label, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get(label)
                if rec is None:
                    rec = spans[label] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if label in KEEP_SAMPLES:
                    samples.setdefault(label, []).append(dt)

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer (call after Recorder.install)."""
        from sspkit import analysis, bench, controller, integrator, optimizer, problems, tableau

        def rewrap(mod, attr, name):
            current = getattr(mod, attr)
            rebind(current, self.wrap(name, current))

        # integrator: rk_step under integrate_fixed is its own span, since the
        # fixed-step path skips the norm and the controller
        def step_name(args, stack):
            fixed = stack and stack[-1][0] == "integrator.integrate_fixed"
            return "integrator.rk_step.fixed" if fixed else "integrator.rk_step"

        rewrap(integrator, "rk_step", step_name)
        for attr in ("error_norm", "initial_step", "integrate_adaptive", "integrate_fixed"):
            rewrap(integrator, attr, f"integrator.{attr}")

        # controller methods, per controller kind where the ratios need it
        cls = controller.ControllerState
        for attr in ("propose_factor", "on_reject"):
            setattr(cls, attr, self.wrap(
                lambda args, stack, a=attr: f"controller.{a}.{args[0].kind}", getattr(cls, attr)))
        for attr in ("clamp", "on_accept"):
            setattr(cls, attr, self.wrap(f"controller.{attr}", getattr(cls, attr)))

        rewrap(tableau, "resolve", "tableau.resolve")

        opt = optimizer.optimize_embedded

        def optimize_counted(*args, **kwargs):
            res = opt(*args, **kwargs)
            self.cost_evals += res.n_eval
            return res

        rebind(opt, self.wrap("optimizer.optimize_embedded", optimize_counted))
        for attr in ("objective", "ssp_feasible"):
            rewrap(optimizer, attr, f"optimizer.{attr}")

        for attr in analysis.__all__:
            if isinstance(getattr(analysis, attr), types.FunctionType):
                rewrap(analysis, attr, f"analysis.{attr}")

        rewrap(bench, "reference_endpoint",
               lambda args, stack: f"bench.reference_endpoint.{args[0]}")
        rewrap(bench, "run_single", "bench.run_single")
        rewrap(bench, "run_bench", "bench.run_bench")
        rewrap(problems, "make_problem", "problems.make_problem")


class Recorder:
    """Bare RHS counter plus a log of bench rows and reference endpoints."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.fev = [0]
        self.rows: list = []   # (WorkPrecisionRow, counted fev)
        self.refs: list = []   # (problem id, endpoint, counted fev)

    def reset(self) -> None:
        self.fev[0] = 0
        self.rows.clear()
        self.refs.clear()

    def count_rhs(self, prob):
        """Route ``prob.f`` through the counter (and a span when tracing)."""
        f, box = prob.f, self.fev

        def counted(t, u):
            box[0] += 1
            return f(t, u)

        prob.f = counted
        if self.tracer is not None:
            prob.f = self.tracer.wrap(f"problems.rhs.{prob.name}", counted)
        return prob

    def install(self) -> None:
        from sspkit import bench, problems

        make = problems.make_problem
        rebind(make, lambda *a, **k: self.count_rhs(make(*a, **k)))

        single = bench.run_single

        def run_single(*args, **kwargs):
            n0 = self.fev[0]
            row = single(*args, **kwargs)
            self.rows.append((row, self.fev[0] - n0))
            return row

        rebind(single, run_single)

        ref = bench.reference_endpoint

        def reference_endpoint(problem_id, *args, **kwargs):
            n0 = self.fev[0]
            u = ref(problem_id, *args, **kwargs)
            self.refs.append((problem_id, u, self.fev[0] - n0))
            return u

        rebind(ref, reference_endpoint)
