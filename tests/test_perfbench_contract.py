"""The names the benchmark harness (perfbench/) wraps or rebinds.

perfbench instruments the program from outside: it rebinds module
functions, wraps controller methods on the class, and routes each
problem's ``f`` through a counter.  A refactor that renames or inlines
one of these would silently drop a span or the work count, so this test
pins them.  It runs in well under a second.
"""

import types

import numpy as np

from sspkit import analysis, bench, controller, integrator, optimizer, problems, tableau

from conftest import perfbench_worker

FUNCTIONS = {
    problems: ["make_problem"],
    tableau: ["resolve", "catalog_ids"],
    integrator: ["rk_step", "error_norm", "initial_step", "integrate_adaptive", "integrate_fixed"],
    optimizer: ["optimize_embedded", "objective", "ssp_feasible"],
    bench: ["reference_endpoint", "run_single", "run_bench"],
    analysis: ["analyze_method", "ssp_coefficient_arrays", "stability_radii",
               "error_measures", "classify_order", "is_non_defective"],
}


def test_rebound_module_functions_exist():
    for mod, names in FUNCTIONS.items():
        for name in names:
            assert isinstance(getattr(mod, name), types.FunctionType), f"{mod.__name__}.{name}"
    assert set(FUNCTIONS[analysis]) <= set(analysis.__all__)
    assert hasattr(bench, "BenchPlan") and hasattr(optimizer, "OptimizationSpec")


def test_the_benchmark_plans_are_canonical_as_written():
    # the ode-sweep row keys ode|<controller>|<method>|<problem>|<tol> are
    # read from the plan, so a plan that re-spelled an id would move them
    worker = perfbench_worker()
    for kind in worker.CONTROLLERS:
        plan = bench.BenchPlan(methods=worker.SWEEP_PAIRS, problems=worker.SWEEP_PROBLEMS,
                               tolerances=worker.SWEEP_TOLS, controller=kind,
                               seed=worker.PLAN_SEED)
        assert (plan.methods, plan.problems, plan.controller) == (
            worker.SWEEP_PAIRS, worker.SWEEP_PROBLEMS, kind)


def test_controller_methods_are_wrappable_on_the_class():
    cls = controller.ControllerState
    for name in ("propose_factor", "on_reject", "clamp", "on_accept"):
        assert isinstance(getattr(cls, name), types.FunctionType), name
    assert controller.make_controller("pi").kind == "pi"


def test_problem_rhs_is_assignable_and_the_grid_readable():
    prob = problems.make_problem("advection", n_cells=8)
    f = prob.f
    prob.f = lambda t, u: f(t, u)
    assert prob.f(0.0, prob.u0).shape == (8,)
    assert prob.grid.n_cells == 8


def test_w_variant_resolves_its_base_through_the_module_function(monkeypatch):
    # the -w base must be looked up through tableau.resolve, so a rebound
    # resolve sees that call; the weight search itself is stubbed out
    calls = []
    original = tableau.resolve

    def spy(method, *args, **kwargs):
        calls.append(method)
        return original(method, *args, **kwargs)

    monkeypatch.setattr(tableau, "resolve", spy)
    monkeypatch.setattr(optimizer, "optimize_embedded",
                        lambda spec: types.SimpleNamespace(w=np.full(3, 1.0 / 3.0)))
    t = original("ssp3,3-w", seed=20_180_622)  # a seed no other test asks for
    assert calls == ["ssp3,3"]
    assert t.id == "ssp3,3-w" and t.b_tilde.tolist() == [1.0 / 3.0] * 3
