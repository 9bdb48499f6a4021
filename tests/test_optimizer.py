"""Tests for the embedded-weight search and its SSP feasibility screen."""

import math

import numpy as np
import pytest

from sspkit.analysis import error_measures, ssp_coefficient
from sspkit.optimizer import (
    OptimizationSpec,
    objective,
    optimize_embedded,
    ssp_feasible,
)
from sspkit.tableau import catalog_ids, resolve, ssp_catalog_ids, with_advancing_weights

A22 = np.array([[0.0, 0.0], [1.0, 0.0]])
B22 = np.array([0.5, 0.5])


# --------------------------------------------------------- feasibility screen


def test_two_stage_method_is_feasible_at_its_ssp_coefficient():
    assert ssp_feasible(A22, B22, 1.0)
    assert ssp_feasible(A22, B22, 0.0)


def test_two_stage_method_is_infeasible_beyond_its_ssp_coefficient():
    assert not ssp_feasible(A22, B22, 1.05)


def test_negative_weight_is_infeasible():
    assert not ssp_feasible(A22, np.array([1.5, -0.5]), 0.5)


def test_negative_r_is_rejected():
    with pytest.raises(ValueError):
        ssp_feasible(A22, B22, -1.0)


def test_screen_matches_claimed_coefficient_for_nine_stage_second_order():
    t = resolve("ssp9,2-b1")
    assert ssp_feasible(t.A, t.b, 8.0)
    assert not ssp_feasible(t.A, t.b, 8.5)


def test_screen_brackets_the_bisected_coefficient_catalog_wide():
    # the screen and the SSP coefficient share one feasibility test
    for mid in ssp_catalog_ids():
        t = resolve(mid)
        r = ssp_coefficient(t)
        assert ssp_feasible(t.A, t.b, r), mid
        assert not ssp_feasible(t.A, t.b, r + 1e-3), mid


# ------------------------------------------------------------ cost function


def test_objective_equals_the_public_error_measures_exactly():
    # the search precomputes the advancing residuals; its cost must stay
    # the max-norm of the measures analysis reports, to the last bit
    checked = 0
    for mid in catalog_ids():
        t = resolve(mid)
        if not 2 <= t.p <= 4:
            continue
        m = error_measures(t)
        f = [m.A2_emb, m.Ainf_emb, m.B2 - 1.0, m.Binf - 1.0, m.C2 - 1.0, m.Cinf - 1.0]
        assert objective(t.A, t.b, t.b_tilde) == max(abs(x) for x in f), mid
        checked += 1
    assert checked == len(catalog_ids()) - 1  # every pair but dp54


def test_objective_of_known_embedded_weights_is_a_quarter():
    # the closed-form second embedded family member on three stages
    t = resolve("ssp3,2-b1")
    w = np.array([4.0 / 9.0, 1.0 / 3.0, 2.0 / 9.0])
    assert objective(t.A, t.b, w) == pytest.approx(0.25, abs=1e-12)


def test_objective_is_infinite_off_the_order_manifold():
    assert math.isinf(objective(A22, B22, np.array([0.6, 0.6])))


def test_objective_rejects_first_order_advancing_method():
    with pytest.raises(ValueError):
        objective(np.array([[0.0]]), np.array([1.0]), np.array([1.0]))


def test_objective_rejects_fifth_order_advancing_method():
    t = resolve("dp54")
    with pytest.raises(ValueError):
        objective(t.A, t.b, t.b_tilde)


# ----------------------------------------------------------------- searches


def test_search_beats_the_closed_form_weights_on_three_stages():
    r = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=20, budget=20_000, seed=0)
    )
    assert r.status == "ok"
    assert r.objective <= 0.25 + 1e-9
    assert np.all(r.w >= -1e-12) and np.all(r.w <= 1.0 + 1e-12)
    assert abs(np.sum(r.w) - 1.0) <= 1e-9
    assert r.non_defective is True
    assert r.residuals["q1"] == pytest.approx(0.0, abs=1e-10)


def test_search_is_deterministic_for_a_fixed_seed():
    spec = OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=10, budget=10_000, seed=7)
    r1 = optimize_embedded(spec)
    r2 = optimize_embedded(spec)
    assert r1.status == r2.status == "ok"
    assert np.array_equal(r1.w, r2.w)
    assert r1.objective == r2.objective
    assert r1.n_eval == r2.n_eval


def test_different_seeds_may_move_the_optimum_but_stay_feasible():
    a = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=10, budget=10_000, seed=1)
    )
    b = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=10, budget=10_000, seed=2)
    )
    assert a.status == b.status == "ok"
    assert a.objective <= 0.25 + 1e-9 and b.objective <= 0.25 + 1e-9


def test_ssp_screen_at_six_on_nine_stage_third_order_reports_no_solution():
    # the advancing method has coefficient 6; no first-order embedded
    # weight vector shares it, so the screen must empty the candidate set
    r = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp9,3"), require_ssp_at=6.0,
                         seeds=5, budget=10_000, seed=0)
    )
    assert r.status == "no-solution"
    assert r.w is None
    assert math.isinf(r.objective)
    assert r.ssp_screen == {"r": 6.0, "feasible": False}


def test_screen_field_absent_without_a_requested_coefficient():
    r = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=5, budget=5_000, seed=0)
    )
    assert r.ssp_screen is None


def test_first_order_base_is_rejected_naming_its_order():
    # the embedded order is always one below the advancing order, so a
    # first-order base leaves nothing to search for
    base = with_advancing_weights(resolve("ssp2,2-b2"), use_embedded=True)
    with pytest.raises(ValueError, match="order 2..4, got order 1"):
        optimize_embedded(OptimizationSpec(tableau=base))
    with pytest.raises(ValueError, match="got order 5"):
        optimize_embedded(OptimizationSpec(tableau=resolve("dp54")))


def test_the_embedded_order_is_not_a_setting():
    with pytest.raises(TypeError):
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), target_order=1)
    with pytest.raises(TypeError):
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), tol_order=1e-8)
