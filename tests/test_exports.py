"""Every exported name resolves, and the removed names stay removed.

Importing a module never reads its ``__all__``, so a stale entry only
shows up on ``from module import *``; this test reads every list.  It
runs in well under a second.
"""

import importlib
import pkgutil

import sspkit
from sspkit import analysis, problems, tableau

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
