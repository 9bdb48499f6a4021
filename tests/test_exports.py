"""Every exported name resolves, and the removed names and keywords stay removed.

Importing a module never reads its ``__all__``, so a stale entry only
shows up on ``from module import *``; this test reads every list.  It
runs in well under a second.
"""

import importlib
import pkgutil
from dataclasses import fields

import numpy as np
import pytest

import sspkit
from sspkit import analysis, bench, controller, optimizer, problems, tableau

REMOVED = ("ssperk_s2", "ssperk_n2_3", "ssperk_3_3", "ssperk_10_4", "literature_pair", "to_json_dict")
# test-only accessors and wrappers: one Euler primitive path, no weight
# accessor beside weno5_reconstruct, no string-switched SSP wrapper, and
# numpy's polyval in place of a hand-written Horner loop
REMOVED_ANALYSIS_AND_PROBLEMS = ("EulerState", "weno5_weights", "ssp_coefficient", "psi_eval")


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
    for mod in (sspkit, problems, analysis):
        for name in REMOVED_ANALYSIS_AND_PROBLEMS:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
            assert name not in getattr(mod, "__all__", ()), f"{mod.__name__}.__all__ has {name}"


# keywords no caller set: each decision has one module constant instead
# (analysis.ORDER_TOL, the SSP slack, the bisection widths), the reference
# solve has no seed, the profiles and the total variation are fixed, and a
# controller's gains are GAINS[kind]
_T = tableau.resolve("ssp4,3-b1")
_OC = analysis.OrderConditions(_T.A)
_PSI = analysis.stability_polynomial(_T.A, _T.b)
_GRID = problems.Grid1D(8, -1.0, 1.0)
REMOVED_KEYWORDS = {
    "OrderConditions.classify": lambda: _OC.classify(_T.b, tol=1e-10),
    "OrderConditions.vacuous": lambda: _OC.vacuous(3, tol=1e-10),
    "OrderConditions.non_defective": lambda: _OC.non_defective(_T.b_tilde, 3, tol=1e-10),
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
    "sine_average(shift=)": lambda: problems.sine_average(_GRID, shift=0.0),
    "total_variation(periodic=)": lambda: problems.total_variation(np.zeros(3), periodic=True),
    "make_controller(k1=)": lambda: controller.make_controller("pi", k1=0.7),
    "make_controller(k2=)": lambda: controller.make_controller("i", k2=0.31),
    "make_controller(k3=)": lambda: controller.make_controller("pid", k3=0.0),
    "ControllerState(kind, k1)": lambda: controller.ControllerState("pi", 0.8),
}


@pytest.mark.parametrize("name", sorted(REMOVED_KEYWORDS))
def test_the_removed_keywords_are_refused(name):
    with pytest.raises(TypeError):
        REMOVED_KEYWORDS[name]()


def test_each_tolerance_has_one_name():
    assert analysis.ORDER_TOL == 1e-10
    assert not hasattr(optimizer, "_ORDER_TOL")
    assert "order" not in {f.name for f in fields(analysis.NonDefectiveReport)}
