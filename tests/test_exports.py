"""Every exported name resolves and has a caller outside the tests, every
defaulted parameter is set by such a caller, and the removed names and
keywords stay removed.

Importing a module never reads its ``__all__``, so a stale entry only
shows up on ``from module import *``; this test reads every list.  It
runs in well under a second.
"""

import ast
import importlib
import pkgutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sspkit
from sspkit import analysis, bench, controller, integrator, optimizer, problems, tableau

from conftest import sine_average

# the constructor checks a tableau's structure, so no separate validator
REMOVED = ("ssperk_s2", "ssperk_n2_3", "ssperk_3_3", "ssperk_10_4", "literature_pair", "to_json_dict",
           "validate")
# test-only accessors and wrappers: one Euler primitive path, no WENO5
# accessor beside the one face kernel, no string-switched SSP wrapper, and
# numpy's polyval in place of a hand-written Horner loop; make_problem is
# the one constructor of the four benchmark problems, the sine profile
# only the tests read, and a method id is its canonical string, which only
# resolve parses
REMOVED_ACCESSORS = ("EulerState", "weno5_weights", "ssp_coefficient", "psi_eval",
                     "weno5_reconstruct", "ssp_catalog_ids", "with_advancing_weights",
                     "vdp", "brusselator", "advection", "euler_sod", "sine_average",
                     "MethodId", "parse_method_id", "format_method_id")
ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "sspkit").glob("*.py"))
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
# exported for users though nothing in the package calls them: the
# README's total-variation (TVD) check kit
BUILDING_BLOCKS = ["problems.total_variation", "problems.upwind_advection"]
# exported names that the benchmark harness reads only by string, to span
# them, and that no code calls, each with the reason it stays
SPANNED_ONLY = {
    "optimizer.objective": "the search's cost of one embedded weight vector, for users to evaluate",
}
# defaulted parameters that no call in the package or the benchmark harness
# sets, each with the reason it stays (the TVD kit is the README's
# total-variation check)
KEPT_DEFAULTS = {
    "cli.main(argv)": "the console script calls main() to read sys.argv; the tests pass argv",
    "integrator.integrate_fixed(callback)": "TVD kit: a TVD check watches every step of a run",
    "problems.upwind_advection(n_cells)": "TVD kit: the size of the grid a TVD check runs on",
}


def test_every_name_in_every_all_resolves():
    modules = [importlib.import_module(f"sspkit.{m.name}") for m in pkgutil.iter_modules(sspkit.__path__)]
    assert modules
    for mod in modules:
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod.__name__}.{name}"


def test_the_removed_constructors_are_not_exported():
    for name in REMOVED:
        assert not hasattr(sspkit, name), name
        assert name not in tableau.__all__, name
        assert not hasattr(tableau, name), name


def test_the_removed_accessors_are_not_exported():
    for mod in (sspkit, problems, analysis, tableau):
        for name in REMOVED_ACCESSORS:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name not in getattr(mod, "__all__", ()), f"{mod.__name__}.__all__ has {name}"


def _loads(path):
    """The "<module>.<name>" of each module binding that the file at path
    loads: a bare name in the module itself or imported from the module
    by ``from`` import, or ``<module>.<name>``.  An attribute of another
    object that shares the name is none, nor is a store or a lookup by
    string."""
    tree = ast.parse(path.read_text())
    owner = {a.asname or a.name: node.module.rpartition(".")[2]
             for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module
             for a in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield f"{owner.get(node.id, path.stem)}.{node.id}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
              and isinstance(node.value, ast.Name)):
            yield f"{node.value.id}.{node.attr}"


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a use is a load of the name's own binding in the package or the
    # benchmark harness; a def or class line, an __all__ entry, a
    # docstring and the package's own re-exports in __init__.py are none
    files = [f for f in PACKAGE if f.name != "__init__.py"]
    used = {name for f in files + HARNESS for name in _loads(f)}
    exported = [f"{f.stem}.{name}" for f in files for name in importlib.import_module(f"sspkit.{f.stem}").__all__]
    unused = [name for name in exported if name not in used]
    assert sorted(unused) == sorted(BUILDING_BLOCKS + list(SPANNED_ONLY))


def _public_defs(tree):
    """(qualified name, def node, 1 for a bound method else 0) of each
    public module-level function and public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, 0 if static else 1


def _sets(call, position, name):
    """Whether the call passes the parameter by name or, when it has a
    position, by position (a ``*args`` or ``**kwargs`` passes anything)."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_by_a_caller_outside_the_tests():
    # a default that only tests override is configuration nothing uses; a
    # call counts when its callee's name or attribute is the def's name
    calls = {}
    for f in PACKAGE + HARNESS:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = []
    for f in PACKAGE:
        for qual, fn, bound in _public_defs(ast.parse(f.read_text())):
            a = fn.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(i - bound, p.arg) for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            unset += [f"{f.stem}.{qual}({name})" for position, name in defaulted
                      if not any(_sets(c, position, name) for c in calls.get(fn.name, ()))]
    assert sorted(unset) == sorted(KEPT_DEFAULTS)


# keywords no caller set: each decision has one module constant instead
# (analysis.ORDER_TOL, the SSP slack, the bisection widths), the reference
# solve has no seed, the profiles, the problems' horizons and the total
# variation are fixed, a controller's gains are GAINS[kind], and an
# adaptive run takes its starting step from initial_step and its budget
# from integrator.MAX_ATTEMPTS
_T = tableau.resolve("ssp4,3-b1")
_OC = analysis.OrderConditions(_T.A)
_PSI = analysis.stability_polynomial(_T.A, _T.b)
_GRID = problems.Grid1D(8, -1.0, 1.0)
_VDP = problems.make_problem("vdp")
_PID = controller.make_controller("pid")
REMOVED_KEYWORDS = {
    "OrderConditions.classify": lambda: _OC.classify(_T.b, tol=1e-10),
    "OrderConditions.vacuous": lambda: _OC.vacuous(3, tol=1e-10),
    "OrderConditions.non_defective": lambda: _OC.non_defective(_T.b_tilde, 3, tol=1e-10),
    "OrderConditions.non_defective(exempt=)": lambda: _OC.non_defective(_T.b_tilde, 3, exempt=frozenset()),
    "classify_order": lambda: analysis.classify_order(_T.A, _T.b, tol=1e-10),
    "is_non_defective": lambda: analysis.is_non_defective(_T, tol=1e-10),
    "ssp_coefficient_arrays": lambda: analysis.ssp_coefficient_arrays(_T.A, _T.b, tol=1e-6),
    "real_axis_inclusion": lambda: analysis.real_axis_inclusion(_PSI, tol=1e-6),
    "imag_axis_inclusion": lambda: analysis.imag_axis_inclusion(_PSI, tol=1e-6),
    "circle_contractivity_radius": lambda: analysis.circle_contractivity_radius(_PSI, tol=1e-6),
    "absolute_monotonicity_radius": lambda: analysis.absolute_monotonicity_radius(_PSI, tol=1e-8),
    "optimizer.ssp_feasible": lambda: optimizer.ssp_feasible(_T.A, _T.b, 1.0, tol=1e-10),
    "reference_endpoint(seed=)": lambda: bench.reference_endpoint("vdp", seed=0),
    "square_wave_average(lo=)": lambda: problems.square_wave_average(_GRID, lo=-0.5),
    "square_wave_average(hi=)": lambda: problems.square_wave_average(_GRID, hi=0.5),
    "sine_average(shift=)": lambda: sine_average(_GRID, shift=0.0),
    "total_variation(periodic=)": lambda: problems.total_variation(np.zeros(3), periodic=True),
    "make_controller(k1=)": lambda: controller.make_controller("pi", k1=0.7),
    "make_controller(k2=)": lambda: controller.make_controller("i", k2=0.31),
    "make_controller(k3=)": lambda: controller.make_controller("pid", k3=0.0),
    "ControllerState(kind, k1)": lambda: controller.ControllerState("pi", 0.8),
    "dt0": lambda: integrator.integrate_adaptive(_VDP, _T, _PID, 1e-3, 1e-3, dt0=0.1),
    "max_attempts": lambda: integrator.integrate_adaptive(_VDP, _T, _PID, 1e-3, 1e-3, max_attempts=3),
    "profile": lambda: problems.make_problem("advection", 8, profile="sine"),
    "t_final": lambda: problems.make_problem("euler", 8, t_final=0.1),
    # a PDE right-hand side is built once per grid and called as f(t, u)
    "advection_rhs(u, grid)": lambda: problems.advection_rhs(np.zeros(8), _GRID),
    "euler_rhs(q, grid)": lambda: problems.euler_rhs(np.zeros(24), _GRID),
    "upwind_rhs(u, grid)": lambda: problems.upwind_rhs(np.zeros(8), _GRID),
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
def test_the_removed_keywords_are_refused(name):
    with pytest.raises(TypeError):
        REMOVED_KEYWORDS[name]()


# every integer argument refuses a bool and anything that is not an
# integer, naming the parameter and the value, as Grid1D refuses n_cells
_PLAN = dict(methods=("ssp2,2-b2",), problems=("vdp",), tolerances=(1e-2,))
INTEGER_ARGUMENTS = {
    "BenchPlan(n_jobs)": (lambda v: bench.BenchPlan(**_PLAN, n_jobs=v), "n_jobs must be an integer, got {}"),
    "BenchPlan(seed)": (lambda v: bench.BenchPlan(**_PLAN, seed=v),
                        "seed must be a non-negative integer, got {}"),
    "OptimizationSpec(seeds)": (lambda v: optimizer.OptimizationSpec(_T, seeds=v),
                                "seeds must be an integer of at least 1, got {}"),
    "OptimizationSpec(budget)": (lambda v: optimizer.OptimizationSpec(_T, budget=v),
                                 "budget must be an integer of at least 1, got {}"),
    "OptimizationSpec(seed)": (lambda v: optimizer.OptimizationSpec(_T, seed=v),
                               "seed must be a non-negative integer, got {}"),
    "EmbeddedTableau(p)": (lambda v: tableau.EmbeddedTableau(id="x", A=_T.A, b=_T.b, p=v),
                           "tableau 'x': order p must be an integer, got {}"),
    "stability_region_grid(nx)": (lambda v: analysis.stability_region_grid(_PSI, nx=v),
                                  "nx must be an integer of at least 2, got {}"),
    "stability_region_grid(ny)": (lambda v: analysis.stability_region_grid(_PSI, ny=v),
                                  "ny must be an integer of at least 2, got {}"),
    "order_condition_residuals(q_max)": (lambda v: analysis.order_condition_residuals(_T.A, _T.b, q_max=v),
                                         "q_max must be an integer between 1 and 5, got {}"),
    "OrderConditions.tau(w, q)": (lambda v: _OC.tau(_T.b, v), "order {} is outside the engine's range 1..5"),
    "OrderConditions.up_to(q)": (lambda v: _OC.up_to(v), "order {} is outside the engine's range 1..5"),
    # after a call at order 1, whose cached set True would find
    "OrderConditions.vacuous(order)": (lambda v: (_OC.vacuous(1), _OC.vacuous(v)),
                                       "order {} is outside the engine's range 1..5"),
    "Grid1D(n_cells)": (lambda v: problems.Grid1D(v, 0.0, 1.0), "n_cells must be an integer, got {}"),
}


@pytest.mark.parametrize("value", [True, False, 2.5, np.float64(3.0)], ids=repr)
@pytest.mark.parametrize("name", sorted(INTEGER_ARGUMENTS))
def test_each_integer_argument_refuses_a_bool_or_a_float(name, value):
    call, message = INTEGER_ARGUMENTS[name]
    with pytest.raises(ValueError) as exc:
        call(value)
    assert str(exc.value) == message.format(repr(value))


def test_a_tableau_holds_its_pair_and_what_follows_from_it():
    # the integrator derives its own stage layout from A and c
    assert {f.name for f in fields(tableau.EmbeddedTableau)} == {
        "id", "A", "b", "c", "s", "p", "b_tilde", "p_tilde", "ssp_claimed"}


def test_each_tolerance_has_one_name():
    assert analysis.ORDER_TOL == 1e-10
    assert not hasattr(optimizer, "_ORDER_TOL")
    assert "order" not in {f.name for f in fields(analysis.NonDefectiveReport)}
