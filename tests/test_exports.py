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
# README's total-variation (TVD) check kit, and the one-call WENO5
# right-hand sides, which build their buffers per call and so stay
# reentrant where each problem's f reuses its own
BUILDING_BLOCKS = ["problems.advection_rhs", "problems.euler_rhs", "problems.total_variation",
                   "problems.upwind_advection"]
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


def test_every_exported_name_has_a_caller_outside_the_tests():
    # a use is a Name or an Attribute node in the package or the benchmark
    # harness; a def or class line, an __all__ entry, a docstring and the
    # package's own re-exports in __init__.py are none
    files = [f for f in PACKAGE if f.name != "__init__.py"]
    used = set()
    for f in files + HARNESS:
        for node in ast.walk(ast.parse(f.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [f"{f.stem}.{name}" for f in files
              for name in importlib.import_module(f"sspkit.{f.stem}").__all__ if name not in used]
    assert sorted(unused) == BUILDING_BLOCKS


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
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
def test_the_removed_keywords_are_refused(name):
    with pytest.raises(TypeError):
        REMOVED_KEYWORDS[name]()


def test_a_tableau_holds_its_pair_and_what_follows_from_it():
    # the integrator derives its own stage layout from A and c
    assert {f.name for f in fields(tableau.EmbeddedTableau)} == {
        "id", "A", "b", "c", "s", "p", "b_tilde", "p_tilde", "ssp_claimed"}


def test_each_tolerance_has_one_name():
    assert analysis.ORDER_TOL == 1e-10
    assert not hasattr(optimizer, "_ORDER_TOL")
    assert "order" not in {f.name for f in fields(analysis.NonDefectiveReport)}
