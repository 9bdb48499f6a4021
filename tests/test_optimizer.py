"""Tests for the embedded-weight search and its SSP feasibility screen."""

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from sspkit import optimizer
from sspkit.analysis import ORDER_TOL, OrderConditions, _row_norms, error_measures, ssp_coefficient_arrays
from sspkit.optimizer import (
    OptimizationResult,
    OptimizationSpec,
    objective,
    optimize_embedded,
    ssp_feasible,
)
from sspkit.tableau import EmbeddedTableau, catalog_ids, resolve

from conftest import embedded_method, pair_norms, ssp_ids

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


@pytest.mark.parametrize("r", [math.inf, math.nan, -math.inf])
def test_a_non_finite_r_is_rejected_as_require_ssp_at_is(r):
    # inf used to warn from NumPy and read infeasible, nan read infeasible silently
    with pytest.raises(ValueError, match=rf"^r must be a finite number, got {r}$"):
        ssp_feasible(A22, B22, r)


def test_screen_matches_claimed_coefficient_for_nine_stage_second_order():
    t = resolve("ssp9,2-b1")
    assert ssp_feasible(t.A, t.b, 8.0)
    assert not ssp_feasible(t.A, t.b, 8.5)


def test_screen_brackets_the_bisected_coefficient_catalog_wide():
    # the screen and the SSP coefficient share one feasibility test
    for mid in ssp_ids():
        t = resolve(mid)
        r = ssp_coefficient_arrays(t.A, t.b)
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


@pytest.mark.parametrize("w, shape", [([0.5, 0.5], "(2,)"), ([[0.5], [0.25], [0.25]], "(3, 1)")])
def test_objective_rejects_a_weight_vector_of_the_wrong_shape(w, shape):
    # a length-2 w used to fail inside NumPy's matmul and a (3, 1) w to
    # return inf as if it missed the order conditions
    t = resolve("ssp3,2-b1")
    with pytest.raises(ValueError, match=re.escape(shape)):
        objective(t.A, t.b, np.array(w))


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
    assert r.residuals == {} and r.non_defective is None
    assert r.n_eval > 0


def test_a_base_whose_order_conditions_fix_the_weights_reports_no_solution_unsearched():
    # classic RK4: the four order-3 conditions on four weights leave a null
    # space of dimension 0, so the only weights are b and there is no
    # embedding to search for
    rk4 = EmbeddedTableau(id="rk4", A=[[0, 0, 0, 0], [0.5, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 1, 0]],
                          b=[1 / 6, 1 / 3, 1 / 3, 1 / 6], p=4, b_tilde=[0.25, 0.25, 0.25, 0.25])
    r = optimize_embedded(OptimizationSpec(tableau=rk4, seeds=2, budget=500))
    assert (r.status, r.w, r.objective, r.residuals, r.non_defective, r.n_eval) == (
        "no-solution", None, math.inf, {}, None, 0)


def test_result_reports_only_what_the_search_found():
    # the seed and the screen request are the spec's, not the result's
    names = {f.name for f in dataclasses.fields(OptimizationResult)}
    assert names == {"status", "w", "objective", "residuals", "non_defective", "n_eval"}


@pytest.mark.parametrize("kwargs", [
    {"require_ssp_at": math.nan}, {"require_ssp_at": math.inf}, {"require_ssp_at": -1.0},
    {"seeds": 0}, {"budget": 0}, {"seeds": -3}, {"seed": -1}, {"seed": 1.5},
    {"seeds": 2.5}, {"seeds": 2.0}, {"budget": 1e9}, {"budget": "200"},
])
def test_spec_rejects_bad_settings_before_any_search(kwargs):
    with pytest.raises(ValueError):
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), **kwargs)


def test_spec_accepts_a_zero_screen_coefficient():
    assert OptimizationSpec(tableau=resolve("ssp3,2-b1"), require_ssp_at=0.0).require_ssp_at == 0.0


def test_first_order_base_is_rejected_naming_its_order():
    # the embedded order is always one below the advancing order, so a
    # first-order base leaves nothing to search for
    base = embedded_method(resolve("ssp2,2-b2"))
    with pytest.raises(ValueError, match="order 2..4, got order 1"):
        optimize_embedded(OptimizationSpec(tableau=base))
    with pytest.raises(ValueError, match="got order 5"):
        optimize_embedded(OptimizationSpec(tableau=resolve("dp54")))


def test_the_embedded_order_is_not_a_setting():
    with pytest.raises(TypeError):
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), target_order=1)
    with pytest.raises(TypeError):
        OptimizationSpec(tableau=resolve("ssp3,2-b1"), tol_order=1e-8)


# ------------------------------------------- the cost, bit for bit as it was
#
# The search's cost used to build NumPy arrays per evaluation and always
# evaluated the box penalty.  These are local copies of that code: the
# reference the Python-scalar cost must match under ==, value for value.


def _ref_ratio(num, den) -> float:
    return float(num / den) if den != 0.0 else math.inf


def _ref_error_norms(oc, tau_main, w, p):
    tau_emb = oc.tau(w, p)
    diff = oc.tau(w, p + 1) - tau_main
    a2, ainf = np.linalg.norm(tau_main), np.max(np.abs(tau_main))
    a2e, ainfe = np.linalg.norm(tau_emb), np.max(np.abs(tau_emb))
    return (
        float(a2), float(ainf), float(a2e), float(ainfe),
        _ref_ratio(a2, a2e), _ref_ratio(ainf, ainfe),
        _ref_ratio(np.linalg.norm(diff), a2e), _ref_ratio(np.max(np.abs(diff)), ainfe),
    )


def _ref_cost(oc, tau_main, w, p) -> float:
    _, _, a2e, ainfe, b2, binf, c2, cinf = _ref_error_norms(oc, tau_main, w, p)
    f = np.array([a2e, ainfe, b2 - 1.0, binf - 1.0, c2 - 1.0, cinf - 1.0])
    if not np.all(np.isfinite(f)):
        return math.inf
    return float(np.max(np.abs(f)))


def _ref_search_cost(t):
    """The search's cost closure for tableau t, with its particular point
    w_part and null-space basis N, built as optimize_embedded builds them."""
    oc = OrderConditions(t.A)
    p = oc.classify(t.b)
    M, rhs = oc.up_to(p - 1)
    w_part, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    _, sv, Vt = np.linalg.svd(M)
    tol_sv = max(M.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    N = Vt[int(np.sum(sv > tol_sv)):].T
    tau_main = oc.tau(t.b, p + 1)

    def cost(y):
        w = w_part + N @ y
        pen = 1e6 * (np.sum(np.minimum(w, 0.0) ** 2) + np.sum(np.maximum(w - 1.0, 0.0) ** 2))
        f = _ref_cost(oc, tau_main, w, p)
        if not math.isfinite(f):
            return 1e30 + pen
        return f + pen

    return cost, w_part, N


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _checked_search(monkeypatch, spec, probes=None):
    """Run the search with every cost value compared against the reference
    at the same y; ``probes(w_part, N)`` yields extra y, which are costed
    once all in one batch and once each alone before the search starts.
    Returns the result and the number of values compared."""
    ref, w_part, N = _ref_search_cost(spec.tableau)
    real = optimizer._search_cost
    compared, bad = [], []

    def search_cost(*args):
        cost = real(*args)

        def checked(Y):
            got = cost(Y)
            assert len(got) == len(Y)
            for y, value in zip(Y, got):
                want = ref(y)
                compared.append(value)
                if not _same(value, want):
                    bad.append((y.tolist(), value, want))
            return got

        ys = list(probes(w_part, N)) if probes else []
        if ys:
            checked(np.array(ys))
            for y in ys:
                checked(np.array([y]))
        return checked

    monkeypatch.setattr(optimizer, "_search_cost", search_cost)
    result = optimize_embedded(spec)
    assert not bad, bad[:3]
    return result, len(compared)


@pytest.mark.parametrize("spec", [
    OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=4, budget=4000, seed=5),
    OptimizationSpec(tableau=resolve("ssp3,3"), seeds=10, seed=1),
    OptimizationSpec(tableau=resolve("ssp9,3"), require_ssp_at=6.0, seeds=2, budget=3000, seed=0),
], ids=["ssp3,2-b1", "ssp3,3", "ssp9,3@6"])
def test_every_cost_value_of_a_search_is_the_reference_value(monkeypatch, spec):
    # the search costs candidates it does not take, and counts only the taken
    result, n = _checked_search(monkeypatch, spec)
    assert n >= result.n_eval > 0
    if result.w is not None:
        oc = OrderConditions(spec.tableau.A)
        p = oc.classify(spec.tableau.b)
        assert result.objective == _ref_cost(oc, oc.tau(spec.tableau.b, p + 1), result.w, p)
        assert result.objective == objective(spec.tableau.A, spec.tableau.b, result.w)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and overflow probes
def test_cost_on_the_box_edges_outside_it_and_at_nan_is_the_reference_value(monkeypatch):
    # ssp3,3 has a one-dimensional null space, so w = w_part + N[:, 0] y;
    # y = (edge - w_part[i]) / N[i, 0] or a float next to it puts w[i]
    # exactly on the edge
    hits = set()

    def probes(w_part, N):
        n = N[:, 0]
        for i in range(3):
            for edge in (0.0, 1.0):
                y0 = (edge - w_part[i]) / n[i]
                for y in (y0, np.nextafter(y0, math.inf), np.nextafter(y0, -math.inf)):
                    if w_part[i] + n[i] * y == edge:
                        hits.add(edge)
                    yield np.array([y])
        for y in (-3.0, -1.0, 1.0, 3.0, 1e3, -1e3, 1e160, math.nan, math.inf, -math.inf):
            yield np.array([y])

    _checked_search(monkeypatch, OptimizationSpec(tableau=resolve("ssp3,3"), seeds=1, seed=3), probes)
    assert hits == {0.0, 1.0}


EDGE_WEIGHTS = [
    [1.0, 0.0, 0.0], [-0.0, 0.5, 0.5], [0.0, 1.0, -0.0], [4 / 9, 1 / 3, 2 / 9],
    [-0.5, 1.0, 0.5], [1.5, -0.25, -0.25], [1 / 3, 1 / 3, 1 / 3],
    [math.nan, 0.5, 0.5], [0.0, math.inf, 0.0], [0.0, math.inf, -math.inf], [math.nan] * 3,
]


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("w", EDGE_WEIGHTS)
def test_cost_and_norms_at_edge_weights_are_the_reference_values(w):
    t = resolve("ssp3,2-b1")
    oc = OrderConditions(t.A)
    tau_main = oc.tau(t.b, 3)
    w = np.array(w)
    got, want = pair_norms(oc, t.b, w, 2), _ref_error_norms(oc, tau_main, w, 2)
    assert all(map(_same, got, want)), (got, want)
    assert optimizer._pair_cost(t.A, t.b)[3](w[None])[0] == _ref_cost(oc, tau_main, w, 2)
    if not np.isnan(w).any():
        assert objective(t.A, t.b, w) in (_ref_cost(oc, tau_main, w, 2), math.inf)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the reference's
def test_a_batch_of_edge_weights_costs_each_row_as_alone_and_warns_of_nothing():
    # NaN and inf rows share the batch with finite ones, and no NumPy
    # warning escapes the batched cost
    t = resolve("ssp3,2-b1")
    oc = OrderConditions(t.A)
    tau_main = oc.tau(t.b, 3)
    W = np.array(EDGE_WEIGHTS)
    f_max = optimizer._pair_cost(t.A, t.b)[3]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = f_max(W)
        alone = [f_max(w[None])[0] for w in W]
    assert batch.tobytes() == np.array(alone).tobytes()
    assert batch.tolist() == [_ref_cost(oc, tau_main, w, 2) for w in W]


def test_defective_weights_cost_the_sentinel_as_before():
    # ssp2,2's own weights satisfy the order-2 condition exactly: A2_emb = 0
    oc = OrderConditions(A22)
    tau_main = oc.tau(B22, 3)
    assert pair_norms(oc, B22, B22, 2)[2] == 0.0
    assert optimizer._pair_cost(A22, B22)[3](B22[None])[0] == _ref_cost(oc, tau_main, B22, 2) == math.inf
    assert objective(A22, B22, B22) == math.inf


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_nan_residual_behind_an_inf_keeps_the_max_norm_nan():
    # on ssp3,3, w = (0, inf, 0) gives the order-3 residuals (inf, 0 * inf):
    # Python's max would drop the NaN behind the inf; np.max keeps it
    t = resolve("ssp3,3")
    oc = OrderConditions(t.A)
    w = np.array([0.0, math.inf, 0.0])
    assert np.isinf(oc.tau(w, 3)[0]) and np.isnan(oc.tau(w, 3)[1])
    norms = pair_norms(oc, t.b, w, 3)
    assert math.isnan(norms[3])  # Ainf_emb
    assert all(map(_same, norms, _ref_error_norms(oc, oc.tau(t.b, 4), w, 3)))


def test_stored_seed_searches_match_the_benchmark_record():
    # the four search|... records of perfbench/data/expected.json, checked
    # as the benchmark worker checks its stored seeds: n_eval exact
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text())
    rows = {k: v for k, v in expected.items() if k.startswith("search|")}
    assert set(rows) == {"search|ssp3,2-b1|0", "search|ssp3,2-b1|1", "search|ssp3,3|1", "search|ssp3,3|2"}
    for key, want in rows.items():
        _, base, seed = key.split("|")
        r = optimize_embedded(OptimizationSpec(tableau=resolve(base), seed=int(seed)))
        assert r.status == "ok", key
        assert r.n_eval == want["n_eval"], key
        assert abs(r.objective - want["objective"]) <= 1e-12, key
        assert np.max(np.abs(r.w - np.array(want["w"]))) <= 1e-8, key


# ------------------------------------- Nelder-Mead, bit for bit with SciPy's


def _plateau(x):
    # 1e30 outside the unit ball, as the search's cost is on defective
    # weights, so the simplex sorts ties
    r = float(x @ x)
    return 1e30 if r > 1.0 else r - x[0]


def _terraces(x):
    # piecewise constant, so an expansion can cost what its reflection does
    return float(np.sum(np.floor(2 * np.abs(x))))


def _six_d(x):
    return float(np.sum(np.arange(1, 7) * (x - 0.1 * np.arange(6)) ** 2) + np.max(np.abs(x)))


def _nan_region(x):
    # NaN past the line x0 + x1 = 1: a NaN vertex sorts last, fails every
    # comparison and makes SciPy's np.min(fsim) NaN
    return math.nan if x[0] + x[1] > 1.0 else float(x @ x) - 2 * x[0] - x[1]


def _signed_zero(x):
    # tells -0.0 from +0.0: from x0 = [-0.0] the simplex shrinks to
    # [-0.0, +0.0], whose centroid is +0.0 as np.add.reduce forms it from
    # the identity 0.0, so the next reflection is +0.0, not -0.0
    v = x[0]
    return 2.0 if v < 0 else (0.0 if math.copysign(1.0, v) < 0 else 1.0)


def _search_cost_and_start(mid):
    cost, w_part, N = _ref_search_cost(resolve(mid))
    w0 = np.random.default_rng(7).dirichlet(np.ones(N.shape[0]))
    return cost, N.T @ (w0 - w_part)


def _in_house_nelder_mead(fun, x0, maxfev):
    """(x, f, points, (sim, fsim)) of one descent of the search's round
    engine from x0, each batch row costed alone by fun, which gets it as a
    new 1-D array; points are the rows the descent took, in the order it
    took them, and (sim, fsim) its final simplex."""
    sim = optimizer._simplices(np.asarray(x0, dtype=float)[None])
    fsim, calls, cap = np.full(sim.shape[:2], math.inf), np.zeros(1, dtype=int), np.array([maxfev])
    points, done = [], [False]
    while not done[0]:
        batches = []

        def cost(Y):
            batches.append(Y.copy())
            return [fun(np.array(y)) for y in Y]

        sim, fsim, calls, taken, done = optimizer._nelder_mead_round(cost, sim, fsim, calls, cap)
        points += list(batches[0][taken])
    assert calls[0] == len(points)
    return sim[0, 0], np.min(fsim[0]), points, (sim[0], fsim[0])


def _scipy_nelder_mead(fun, x0, maxfev):
    """(x, f, points, (sim, fsim)) of SciPy's adaptive Nelder-Mead with the
    search's tolerances; points are those it costed, in order, and
    (sim, fsim) its final simplex."""
    from scipy.optimize import minimize

    points = []
    r = minimize(lambda y: points.append(np.array(y)) or fun(y), x0, method="Nelder-Mead",
                 options={"maxfev": maxfev, "xatol": 1e-12, "fatol": 1e-14, "adaptive": True})
    return r.x, r.fun, points, r.final_simplex


def _run_both(fun, x0, maxfev):
    """(x, fun, points, final simplex) from the search's engine and from SciPy."""
    return [nelder_mead(fun, x0, maxfev) for nelder_mead in (_in_house_nelder_mead, _scipy_nelder_mead)]


def _assert_same_run(mine, ref):
    (x, fx, pts, (sim, fsim)), (x_ref, fx_ref, pts_ref, (sim_ref, fsim_ref)) = mine, ref
    assert x.tobytes() == x_ref.tobytes()
    assert sim.tobytes() == sim_ref.tobytes() and fsim.tobytes() == fsim_ref.tobytes()
    assert _same(fx, fx_ref)
    assert len(pts) == len(pts_ref)
    assert all(p.tobytes() == q.tobytes() for p, q in zip(pts, pts_ref))


@pytest.mark.parametrize("fun, x0, maxfev", [
    (lambda x: float((x[0] - 0.3) ** 2 + 0.1 * abs(x[0])), np.array([2.0]), 400),
    (lambda x: float(100 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2), np.array([-1.2, 1.0]), 1000),
    (_six_d, np.zeros(6), 4000),
    (_six_d, np.linspace(-1.0, 1.0, 6), 4),
    (_plateau, np.array([0.9, 0.0, 0.5]), 2000),
    (_terraces, np.array([-2.0]), 300),
    (_terraces, np.array([-2.0, 3.0]), 500),
    (*_search_cost_and_start("ssp3,2-b1"), 600),
    (*_search_cost_and_start("ssp10,4"), 600),
    (_terraces, np.array([-0.4, -4.0, -0.5, -1.7, 6.6]), 300),
    (_nan_region, np.array([0.5, 0.49, 0.1, 0.2]), 6),
    (_nan_region, np.array([0.5, 0.49, 0.1, 0.2]), 14),
    (_signed_zero, np.array([-0.0]), 20),
], ids=["1-D", "2-D", "6-D", "budget-in-initial-simplex", "plateau-ties", "terraces-1-D", "terraces-2-D",
        "ssp3,2-b1", "ssp10,4", "terraces-5-D-ties", "nan-region-two-left", "nan-region-one-left",
        "signed-zero-centroid"])
def test_nelder_mead_matches_scipy_bit_for_bit(fun, x0, maxfev):
    mine, ref = _run_both(fun, x0, maxfev)
    _assert_same_run(mine, ref)
    assert len(mine[2]) <= maxfev


def test_nelder_mead_cut_inside_a_shrink_matches_scipy():
    # every vertex on the plateau: reflect (call 4), inside contraction
    # (call 5), then a shrink whose first point is call 6
    mine, ref = _run_both(_plateau, np.array([3.0, 3.0]), 6)
    _assert_same_run(mine, ref)
    p = mine[2]
    assert p[5].tobytes() == (p[0] + 0.5 * (p[1] - p[0])).tobytes()


def test_nelder_mead_matches_scipy_for_every_budget_of_a_short_run():
    # a budget ending on each call in turn: the first 79 calls from this
    # start cover the initial simplex, reflections, expansions, outside and
    # inside contractions and a shrink
    for maxfev in range(1, 80):
        _assert_same_run(*_run_both(_plateau, np.array([0.95, -0.3]), maxfev))


def test_the_tie_and_nan_cases_reach_what_they_guard():
    # the 5-D terraces run starts from a simplex whose 6 vertices hold 4 or
    # more equal values, where np.argsort and a stable sort disagree from 4
    # entries on; the NaN runs end with NaN in the final simplex, so the
    # value returned is np.min's NaN while the best vertex is finite
    _, _, points, _ = _in_house_nelder_mead(_terraces, np.array([-0.4, -4.0, -0.5, -1.7, 6.6]), 300)
    first = [_terraces(y) for y in points[:6]]
    assert max(map(first.count, first)) >= 4
    for maxfev in (6, 14):
        x, fx, _, _ = _in_house_nelder_mead(_nan_region, np.array([0.5, 0.49, 0.1, 0.2]), maxfev)
        assert math.isnan(fx) and math.isfinite(_nan_region(x))


# ------------------------------ the lockstep search, bit for bit as it was
#
# optimize_embedded runs its starts in lockstep and costs a batch of
# candidates per round.  The reference is its loop as it stood before: one
# start after another, each point costed alone by the reference cost, and
# SciPy's minimize as the local search.


def _sequential_search(spec, nelder_mead=_scipy_nelder_mead):
    """(status, n_eval, w, objective) of the search of spec with its starts
    run one after another, each point costed alone by the reference cost,
    and ``nelder_mead(fun, y0, maxfev) -> (y, f, points, simplex)`` as the
    local search, whose points taken make up n_eval."""
    t = spec.tableau
    ref, w_part, N = _ref_search_cost(t)
    oc = OrderConditions(t.A)
    p = oc.classify(t.b)
    M, rhs = oc.up_to(p - 1)
    tau_main = oc.tau(t.b, p + 1)
    n_eval = 0
    rng = np.random.default_rng(spec.seed)
    per_start = max(200, spec.budget // spec.seeds)
    candidates = []
    for _ in range(spec.seeds):
        if n_eval >= spec.budget:
            break
        x0 = rng.dirichlet(np.ones(t.s))
        y0 = N.T @ (x0 - w_part)
        y_best = None
        for _ in range(2):
            maxfev = min(per_start, spec.budget - n_eval)
            if maxfev <= 0:
                break
            y, fy, points, _ = nelder_mead(ref, y0, maxfev)
            n_eval += len(points)
            if y_best is not None and fy >= f_best - 1e-14:
                break
            y_best, f_best, y0 = y, fy, y
        w = np.clip(w_part + N @ y_best, 0.0, 1.0)
        if np.max(np.abs(M @ w - rhs)) > ORDER_TOL:
            continue
        obj = _ref_cost(oc, tau_main, w, p)
        if not math.isfinite(obj) or not oc.non_defective(w, p).ok:
            continue
        if spec.require_ssp_at is not None and not ssp_feasible(t.A, w, spec.require_ssp_at):
            continue
        candidates.append((obj, tuple(w), w))
    if not candidates:
        return "no-solution", n_eval, None, math.inf
    obj, _, w = min(candidates, key=lambda cand: (cand[0], cand[1]))
    return "ok", n_eval, w, obj


def _assert_same_search(result, ref):
    status, n_eval, w, obj = ref
    assert (result.status, result.n_eval) == (status, n_eval)
    assert _same(result.objective, obj)
    assert (result.w is None) == (w is None)
    if w is not None:
        assert result.w.tobytes() == w.tobytes()


@pytest.mark.parametrize("spec", [
    OptimizationSpec(tableau=resolve("ssp10,4-b3"), seeds=10, budget=5000, seed=0),
    OptimizationSpec(tableau=resolve("ssp16,3"), seeds=5, budget=3000, seed=0),
    OptimizationSpec(tableau=resolve("ssp9,3"), require_ssp_at=6.0, seeds=2, budget=3000, seed=0),
    OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=7, budget=1500, seed=0),
], ids=["ssp10,4-b3", "ssp16,3", "ssp9,3@6", "ssp3,2-b1"])
def test_lockstep_search_equals_the_sequential_loop_bit_for_bit(spec):
    # budget-limited specs: the admission rule must hold starts back so
    # that the budget cuts the same start at the same point
    _assert_same_search(optimize_embedded(spec), _sequential_search(spec))


def _search_bases():
    bases = sorted({mid.split("-")[0] for mid in catalog_ids()})
    return [mid for mid in bases if 2 <= resolve(mid).p <= 4]


@pytest.mark.parametrize("base", _search_bases())
def test_stacked_products_equal_the_per_point_dot_bit_for_bit(base):
    # the premise of the batched cost: np.matmul over a stack calls, row by
    # row, the BLAS gemv or ddot that ndarray.dot calls on one point
    t = resolve(base)
    oc = OrderConditions(t.A)
    p = oc.classify(t.b)
    _, w_part, N = _ref_search_cost(t)
    rng = np.random.default_rng(5)
    for B in (1, 2, 50):
        Y = rng.normal(size=(B, N.shape[1])) * rng.choice([1e-3, 1.0, 1e3], size=(B, 1))
        NY = np.matmul(N, Y[:, :, None])[:, :, 0]
        assert NY.tobytes() == np.array([N.dot(y) for y in Y]).tobytes()
        W = w_part + NY
        for q in (p, p + 1):
            PW = np.matmul(oc.phi[q], W[:, :, None])[:, :, 0]
            assert PW.tobytes() == np.array([oc.phi[q].dot(w) for w in W]).tobytes()
            X = PW - oc.g[q]
            XX = np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]
            assert XX.tobytes() == np.array([x.dot(x) for x in X]).tobytes()
            two, big = _row_norms(X)
            assert list(zip(two.tolist(), big.tolist())) == [
                (math.sqrt(x.dot(x)), float(np.max(np.abs(x)))) for x in X]


@pytest.mark.parametrize("base, seed", [("ssp10,4-b3", 3), ("ssp16,3", 4)])
def test_searches_in_large_null_spaces_match_scipy_bit_for_bit(base, seed):
    # null-space dimensions 6 and 14, the largest in the catalog; SciPy's
    # minimize runs each start of the sequential loop
    spec = OptimizationSpec(tableau=resolve(base), seeds=2, budget=800, seed=seed)
    _assert_same_search(optimize_embedded(spec), _sequential_search(spec, _scipy_nelder_mead))


def _cut_steps(monkeypatch, spec):
    """Run the search of spec with every round watched; returns the result
    and the set of steps ("expansion", "contraction", "shrink") that the
    budget of a descent cut short.  A step's wanted points follow from the
    costs of its candidates and the simplex values before the round, as
    SciPy's loop would ask for them."""
    real = optimizer._nelder_mead_round
    cut = set()

    def watched(cost, sim, fsim, calls, maxfev):
        costs = []
        out = real(lambda Y: costs.append(np.asarray(cost(Y))) or costs[-1], sim, fsim, calls, maxfev)
        k = sim.shape[2]
        f = costs[0].reshape(len(sim), 4 + k)
        for r in np.flatnonzero(calls > 0):
            fr, fe, fo, fi = f[r, :4]
            f0, f1, fl = fsim[r, 0], fsim[r, -2], fsim[r, -1]
            if fr < f0:
                name, wanted = "expansion", 2
            elif fr < f1:
                name, wanted = "reflection", 1
            elif (fo <= fr) if fr < fl else (fi < fl):
                name, wanted = "contraction", 2
            else:
                name, wanted = "shrink", 2 + k
            took = out[2][r] - calls[r]
            assert took == min(wanted, maxfev[r] - calls[r])
            if took < wanted:
                cut.add(name)
        return out

    monkeypatch.setattr(optimizer, "_nelder_mead_round", watched)
    return optimize_embedded(spec), cut


@pytest.mark.parametrize("spec, steps", [
    (OptimizationSpec(tableau=resolve("ssp3,2-b1"), seeds=7, budget=1500, seed=0), {"shrink", "contraction"}),
    (OptimizationSpec(tableau=resolve("ssp10,4-b3"), seeds=10, budget=5000, seed=0), {"expansion", "contraction"}),
], ids=["ssp3,2-b1", "ssp10,4-b3"])
def test_a_budget_cut_inside_a_step_matches_scipy_and_is_reached(monkeypatch, spec, steps):
    # a descent's budget ends inside a shrink (the cut vertex written, its
    # cost not), or inside an expansion or a contraction (nothing replaced);
    # SciPy's minimize runs each start of the sequential loop
    result, cut = _cut_steps(monkeypatch, spec)
    assert steps <= cut
    _assert_same_search(result, _sequential_search(spec, _scipy_nelder_mead))


def test_the_default_search_costs_its_rounds_in_few_batched_calls(monkeypatch):
    # one batched call per round, each round a whole iteration of every
    # running descent; the point-per-round lockstep made 1,310
    real = optimizer._search_cost
    batches = []

    def search_cost(*args):
        cost = real(*args)
        return lambda Y: batches.append(len(Y)) or cost(Y)

    monkeypatch.setattr(optimizer, "_search_cost", search_cost)
    result = optimize_embedded(OptimizationSpec(tableau=resolve("ssp3,2-b1"), seed=0))
    assert result.n_eval == 45303
    assert len(batches) < 700
    assert sum(batches) > result.n_eval
