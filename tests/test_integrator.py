"""Tests for the stepping kernel, step-size selection, and the two drivers."""

import numpy as np
import pytest

from sspkit.controller import make_controller
from sspkit.integrator import (
    BudgetError,
    OdeSystem,
    StiffnessError,
    error_norm,
    initial_step,
    integrate_adaptive,
    integrate_fixed,
    rk_step,
)
from sspkit.tableau import catalog_ids, resolve, with_advancing_weights

TAB22 = resolve("ssp2,2-b2")


def decay_problem(u0=1.0):
    return OdeSystem(f=lambda t, u: -u, t_span=(0.0, 1.0), u0=np.array([u0]))


# ------------------------------------------------------------------ rk_step


def test_step_on_exponential_growth_by_hand():
    # k1 = 1, k2 = 1.1; b = [1/2, 1/2] and b~ = [3/4, 1/4]
    u_next, u_hat = rk_step(TAB22, lambda t, u: u, 0.0, np.array([1.0]), 0.1)
    assert u_next[0] == pytest.approx(1.105, abs=1e-15)
    assert u_hat[0] == pytest.approx(1.1025, abs=1e-15)


def test_step_passes_stage_times_through_c():
    # u' = t, so the stages see t + c_i dt; exact quadrature at order two
    u_next, u_hat = rk_step(TAB22, lambda t, u: np.array([t]), 0.0, np.array([0.0]), 0.1)
    assert u_next[0] == pytest.approx(0.005, abs=1e-18)
    assert u_hat[0] == pytest.approx(0.0025, abs=1e-18)


def test_step_without_embedded_weights_returns_no_estimate():
    tab = with_advancing_weights(TAB22, use_embedded=False)
    u_next, u_hat = rk_step(tab, lambda t, u: u, 0.0, np.array([1.0]), 0.1)
    assert u_hat is None
    assert u_next[0] == pytest.approx(1.105, abs=1e-15)


def test_step_advances_vector_states_componentwise():
    f = lambda t, u: np.array([u[1], -u[0]])
    u_next, _ = rk_step(TAB22, f, 0.0, np.array([1.0, 0.0]), 0.2)
    # k1 = (0, -1), k2 = (-0.2, -1): trapezoidal update of the rotation
    assert u_next == pytest.approx([0.98, -0.2], abs=1e-15)


# --------------------------------------------------------------- error norm


def test_error_norm_weighs_by_the_larger_state():
    err = error_norm(np.array([1.0]), np.array([1.105]), np.array([1.1025]), 1e-6, 1e-3)
    assert err == pytest.approx(0.0025 / (1e-6 + 1.105e-3), rel=1e-12)


def test_error_norm_takes_the_worst_component():
    u_n = np.array([1.0, 100.0])
    u_next = np.array([1.0, 100.0])
    u_hat = np.array([1.0 - 1e-4, 100.0 - 1e-4])
    # same absolute defect, smaller scale in the first component wins
    err = error_norm(u_n, u_next, u_hat, 1e-6, 1e-6)
    assert err == pytest.approx(1e-4 / 2e-6, rel=1e-12)


# ------------------------------------------------------------- initial step


def test_initial_step_on_a_zero_field_hits_both_small_branches():
    dt0 = initial_step(lambda t, u: np.zeros(1), 0.0, np.array([1.0]), 2, 1e-6, 1e-6)
    assert dt0 == pytest.approx(1e-6, abs=0)


def test_initial_step_on_linear_decay_matches_the_closed_form():
    dt0 = initial_step(lambda t, u: -u, 0.0, np.array([1.0]), 2, 1e-6, 1e-6)
    assert dt0 == pytest.approx((0.01 / 5e5) ** (1.0 / 3.0), rel=1e-12)


def test_initial_step_respects_a_cfl_bound():
    dt0 = initial_step(lambda t, u: -u, 0.0, np.array([1.0]), 2, 1e-6, 1e-6,
                       cfl_bound=1e-8)
    assert dt0 == pytest.approx(1e-8, abs=0)


def test_initial_step_rejects_non_finite_rhs():
    with pytest.raises(StiffnessError):
        initial_step(lambda t, u: np.array([np.nan]), 0.0, np.array([1.0]), 2, 1e-6, 1e-6)


# ------------------------------------------------------------ adaptive loop


def test_adaptive_requires_embedded_weights():
    tab = with_advancing_weights(TAB22, use_embedded=False)
    with pytest.raises(ValueError):
        integrate_adaptive(decay_problem(), tab, make_controller("i"), 1e-6, 1e-6)


def test_adaptive_decay_reaches_the_final_time_exactly():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 1e-6)
    assert res.t == 1.0
    assert res.u[0] == pytest.approx(np.exp(-1.0), abs=1e-4)
    acc_dts = [dt for (_, dt, _, ok) in res.step_log if ok]
    assert sum(acc_dts) == pytest.approx(1.0, abs=1e-12)


def test_adaptive_bookkeeping_is_consistent():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 1e-6)
    # s per attempt plus the two initial_step calls
    assert res.n_fev == TAB22.s * (res.n_accepted + res.n_rejected) + 2
    assert len(res.step_log) == res.n_attempts
    assert sum(ok for (_, _, _, ok) in res.step_log) == res.n_accepted
    assert res.step_log[-1][3] is True  # the landing step stands
    assert all(e <= 1.0 for (_, _, e, ok) in res.step_log if ok)


@pytest.mark.parametrize("dt0", [None, 0.05])
def test_adaptive_work_count_is_every_rhs_call(dt0):
    # a counting right-hand side against the reported n_fev, catalog-wide
    for mid in catalog_ids():
        calls = [0]

        def f(t, u):
            calls[0] += 1
            return -u

        prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0, 0.5]))
        res = integrate_adaptive(prob, resolve(mid), make_controller("pid"), 1e-5, 1e-5,
                                 dt0=dt0)
        assert res.n_fev == calls[0], mid
        assert res.n_fev == resolve(mid).s * res.n_attempts + (2 if dt0 is None else 0), mid


def test_adaptive_run_is_reproducible():
    r1 = integrate_adaptive(decay_problem(), TAB22, make_controller("pid"), 1e-6, 1e-6)
    r2 = integrate_adaptive(decay_problem(), TAB22, make_controller("pid"), 1e-6, 1e-6)
    assert r1.step_log == r2.step_log
    assert np.array_equal(r1.u, r2.u)


def test_adaptive_zero_field_never_rejects_and_preserves_the_state():
    prob = OdeSystem(f=lambda t, u: np.zeros_like(u), t_span=(0.0, 1.0),
                     u0=np.array([2.0, -1.0]))
    res = integrate_adaptive(prob, TAB22, make_controller("i"), 1e-6, 1e-6)
    assert np.array_equal(res.u, [2.0, -1.0])
    assert res.n_rejected == 0
    assert res.n_accepted < 30  # growth clamp brings dt up geometrically


def test_adaptive_honors_an_explicit_starting_step():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("i"), 1e-3, 1e-3,
                             dt0=0.3)
    assert res.step_log[0][1] == 0.3


def test_adaptive_consults_the_problem_step_bound():
    prob = OdeSystem(f=lambda t, u: -u, t_span=(0.0, 1.0), u0=np.array([1.0]),
                     cfl_hint=lambda u: 1e-3)
    res = integrate_adaptive(prob, TAB22, make_controller("i"), 1e-6, 1e-6)
    assert res.step_log[0][1] <= 1e-3


def test_adaptive_dense_output_interpolates_the_path():
    t_eval = [0.0, 0.25, 0.5, 0.75, 1.0]
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 1e-6,
                             t_eval=t_eval)
    assert np.array_equal(res.dense_t, t_eval)
    assert res.dense_u.shape == (5, 1)
    assert np.max(np.abs(res.dense_u[:, 0] - np.exp(-res.dense_t))) < 1e-4
    assert res.dense_u[0, 0] == 1.0
    assert res.dense_u[-1, 0] == res.u[0]


def test_adaptive_without_t_eval_skips_the_dense_path():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("i"), 1e-4, 1e-4)
    assert res.dense_t is None and res.dense_u is None


def test_adaptive_budget_exhaustion_raises():
    with pytest.raises(BudgetError):
        integrate_adaptive(decay_problem(), TAB22, make_controller("i"), 1e-10, 1e-10,
                           max_attempts=3)


def test_adaptive_step_underflow_raises():
    # finite at t = 0, NaN beyond: every attempt is rejected and the step
    # collapses until the underflow guard fires
    def f(t, u):
        return np.array([1.0]) if t == 0.0 else np.array([np.nan])

    prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0]))
    with pytest.raises(StiffnessError):
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-3, 1e-3)


# ------------------------------------------------------------- fixed driver


def test_fixed_rejects_nonpositive_dt():
    with pytest.raises(ValueError):
        integrate_fixed(decay_problem(), TAB22, 0.0)
    with pytest.raises(ValueError):
        integrate_fixed(decay_problem(), TAB22, -0.1)


def test_fixed_truncates_the_last_step_to_land_on_t_final():
    ts = []
    u_end = integrate_fixed(decay_problem(), TAB22, 0.3,
                            callback=lambda t, u: ts.append(t))
    assert ts == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0], abs=1e-12)
    assert u_end[0] == pytest.approx(np.exp(-1.0), abs=1e-2)


def test_fixed_callback_sees_the_initial_state_first():
    seen = []
    integrate_fixed(decay_problem(u0=3.0), TAB22, 0.5,
                    callback=lambda t, u: seen.append((t, u.copy())))
    assert seen[0][0] == 0.0 and seen[0][1][0] == 3.0
    assert len(seen) == 3  # t0 plus two steps


def test_fixed_stepping_converges_at_second_order_on_decay():
    e1 = abs(integrate_fixed(decay_problem(), TAB22, 0.1)[0] - np.exp(-1.0))
    e2 = abs(integrate_fixed(decay_problem(), TAB22, 0.05)[0] - np.exp(-1.0))
    assert 3.2 < e1 / e2 < 5.0


def test_problem_dimension_property():
    assert decay_problem().dimension == 1
    prob = OdeSystem(f=lambda t, u: u, t_span=(0.0, 1.0), u0=np.zeros(7))
    assert prob.dimension == 7
