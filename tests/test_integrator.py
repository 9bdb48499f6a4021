"""Tests for the stepping kernel, step-size selection, and the two drivers."""

from dataclasses import replace

import numpy as np
import pytest

from sspkit import integrator
from sspkit.controller import GAINS, make_controller
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
from sspkit.analysis import ssp_coefficient_arrays
from sspkit.problems import make_problem, total_variation, upwind_advection
from sspkit.tableau import catalog_ids, resolve

from conftest import ssp_ids

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
    tab = replace(TAB22, b_tilde=None)
    u_next, u_hat = rk_step(tab, lambda t, u: u, 0.0, np.array([1.0]), 0.1)
    assert u_hat is None
    assert u_next[0] == pytest.approx(1.105, abs=1e-15)


def test_step_advances_vector_states_componentwise():
    f = lambda t, u: np.array([u[1], -u[0]])
    u_next, _ = rk_step(TAB22, f, 0.0, np.array([1.0, 0.0]), 0.2)
    # k1 = (0, -1), k2 = (-0.2, -1): trapezoidal update of the rotation
    assert u_next == pytest.approx([0.98, -0.2], abs=1e-15)


def _tensordot_rk_step(tab, f, t_n, u_n, dt):
    # reference: the stage sums and solutions as np.tensordot contractions
    A, c = tab.A, tab.c
    s = tab.s
    k = np.empty((s,) + np.shape(u_n))
    k[0] = f(t_n + c[0] * dt, u_n)
    for i in range(1, s):
        u_i = u_n + dt * np.tensordot(A[i, :i], k[:i], axes=1)
        k[i] = f(t_n + c[i] * dt, u_i)
    u_next = u_n + dt * np.tensordot(tab.b, k, axes=1)
    if tab.b_tilde is None:
        return u_next, None
    u_hat = u_n + dt * np.tensordot(tab.b_tilde, k, axes=1)
    return u_next, u_hat


def _np_max_error_norm(u_n, u_next, u_hat, atol, rtol):
    sc = atol + np.maximum(np.abs(u_n), np.abs(u_next)) * rtol
    return float(np.max(np.abs(u_next - u_hat) / sc))


def _magnitudes(rng, shape):
    return rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-8.0, 8.0, size=shape)


@pytest.mark.parametrize("n", [1, 2, 200])
@pytest.mark.parametrize("method", catalog_ids() + ["ssp3,3-w"])
def test_step_and_norm_match_the_tensordot_reference_bit_for_bit(method, n):
    # f returns random stage values over sixteen decades and records the
    # stage states it is given, so every stage sum is compared, not only
    # the two solutions
    rng = np.random.default_rng([n, *method.encode()])
    embedded = resolve(method)
    for tab in (embedded, replace(embedded, b_tilde=None)):
        for _ in range(8):
            u_n = _magnitudes(rng, n)
            dt = 10.0 ** rng.uniform(-4.0, 0.0)
            stages = _magnitudes(rng, (tab.s, n))
            seen = {"new": [], "ref": []}

            def recorder(key):
                def f(t, u):
                    seen[key].append(np.array(u, copy=True))
                    return stages[len(seen[key]) - 1]
                return f

            got = rk_step(tab, recorder("new"), 0.5, u_n, dt)
            want = _tensordot_rk_step(tab, recorder("ref"), 0.5, u_n, dt)
            assert len(seen["new"]) == len(seen["ref"]) == tab.s
            assert all(np.array_equal(a, b) for a, b in zip(seen["new"], seen["ref"]))
            assert np.array_equal(got[0], want[0])
            if tab.b_tilde is None:
                assert got[1] is None
                continue
            assert np.array_equal(got[1], want[1])
            atol, rtol = 10.0 ** rng.uniform(-12.0, -2.0, size=2)
            assert error_norm(u_n, *got, atol, rtol) == _np_max_error_norm(u_n, *want, atol, rtol)


@pytest.mark.parametrize("n", [1, 2, 200])
def test_step_never_writes_into_the_callers_state(n):
    # a read-only u_n makes an in-place shortcut (u_n += ...) fail, and
    # neither solution may be a view of u_n
    u_n = np.linspace(1.0, 2.0, n)
    u_n.setflags(write=False)
    got = rk_step(resolve("ssp10,4-b3"), lambda t, u: -u, 0.0, u_n, 0.1)
    assert np.array_equal(u_n, np.linspace(1.0, 2.0, n))
    for v in got:
        assert not np.shares_memory(v, u_n)


def test_step_reads_the_stage_rows_of_a_replaced_tableau():
    # the rows A[i, :i] are derived when a tableau is built, so a copy with
    # the same id and another A must step with its own: k2 = 1 + 0.5 * 0.1
    half = replace(TAB22, A=[[0.0, 0.0], [0.5, 0.0]])
    for tab, want in ((TAB22, 1.105), (half, 1.1025), (TAB22, 1.105)):
        u_next, _ = rk_step(tab, lambda t, u: u, 0.0, np.array([1.0]), 0.1)
        assert u_next[0] == pytest.approx(want, abs=1e-15)


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


_SPECIALS = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e300, -1e300, 1e-300, -1e-300]


def _with_specials(rng, u, share):
    # replace about that share of the components with NaN, infinities,
    # signed zeros or values near the ends of the range
    pick = rng.random(u.size) < share
    u[pick] = rng.choice(_SPECIALS, size=int(pick.sum()))
    return u


@pytest.mark.parametrize("n", range(1, 2 * integrator._SMALL_STATE + 1))
def test_error_norm_matches_the_numpy_form_bit_for_bit(n):
    # both sides of the size cut, against the NumPy expression, on states
    # over sixteen decades with none to half of their components special;
    # every third trial has rtol = 0.  NaN counts as equal to NaN.
    rng = np.random.default_rng(n)
    for trial in range(400):
        share = (0.0, 0.05, 0.2, 0.5)[trial % 4]
        u_n = _with_specials(rng, _magnitudes(rng, n), share)
        u_next = _with_specials(rng, u_n + _magnitudes(rng, n) * 1e-6, share)
        u_hat = _with_specials(rng, u_next + _magnitudes(rng, n) * 1e-9, share)
        atol, rtol = (float(x) for x in 10.0 ** rng.uniform(-12.0, -2.0, size=2))
        if trial % 3 == 0:
            rtol = 0.0
        with np.errstate(all="ignore"):
            want = _np_max_error_norm(u_n, u_next, u_hat, atol, rtol)
            got = error_norm(u_n, u_next, u_hat, atol, rtol)
        assert type(got) is float
        assert got == want or (np.isnan(got) and np.isnan(want)), (u_n, u_next, u_hat, atol, rtol)


def test_error_norm_with_a_zero_scale_takes_the_numpy_form():
    # atol = rtol = 0 divides by zero: inf for a defect, NaN for none
    z = np.zeros(2)
    with np.errstate(all="ignore"):
        assert error_norm(z, np.array([1.0, 2.0]), z, 0.0, 0.0) == np.inf
        assert np.isnan(error_norm(z, z, z, 0.0, 0.0))


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
    tab = replace(TAB22, b_tilde=None)
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


@pytest.mark.parametrize("kind", sorted(GAINS))
def test_a_reused_controller_starts_every_run_from_fresh_history(kind):
    # the run reads only the kind; the caller's object keeps its warm-up state
    prob, tab = make_problem("vdp"), resolve("ssp2,2-b2")
    ctl = make_controller(kind)
    r1 = integrate_adaptive(prob, tab, ctl, 1e-4, 1e-4)
    r2 = integrate_adaptive(prob, tab, ctl, 1e-4, 1e-4)
    assert (r2.n_accepted, r2.n_rejected, r2.n_fev) == (r1.n_accepted, r1.n_rejected, r1.n_fev)
    assert np.array_equal(r2.u, r1.u)
    assert ctl == make_controller(kind)


@pytest.mark.parametrize("tol", [1e-2, 1e-3])
def test_adaptive_ssp_steps_within_the_bound_never_raise_total_variation(tol):
    """Forward-Euler TVD carries over to (A, b) for dt <= C dt_FE, adaptive
    runs included.  Upwind advection with N = 200 has dt_FE = dx exactly.
    The accepted steps of a PID run are replayed with rk_step, which ends
    at the run's state to the bit, and no step within C dx may raise the
    total variation by more than 1e-12.

    The controller does not enforce the bound.  Measured: every step above
    it comes at 1e-2, where ssp2,2-b1 reaches 1.14 C dx, ssp2,2-b2 1.56x,
    ssp3,2-b2 1.12x, ssp4,3-b1 1.25x and ssp4,3-b2 1.45x; ssp2,2-b2's
    variation then grows by up to 1.2e-2 in one step.  At 1e-3 every pair
    stays within the bound.
    """
    for mid in ssp_ids():
        tab = resolve(mid)
        prob = upwind_advection(200)
        bound = ssp_coefficient_arrays(tab.A, tab.b) * prob.grid.dx
        res = integrate_adaptive(prob, tab, make_controller("pid"), tol, tol)
        u = np.array(prob.u0, dtype=float)
        for t, dt, _, accepted in res.step_log:
            if accepted:
                u_next, _ = rk_step(tab, prob.f, t, u, dt)
                if dt <= bound:
                    assert total_variation(u_next) - total_variation(u) <= 1e-12, (mid, t, dt / bound)
                u = u_next
        assert np.array_equal(u, res.u), mid


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


@pytest.mark.parametrize("dt0", [-1.0, 0.0, np.nan, np.inf])
def test_a_bad_dt0_is_rejected_before_any_rhs_call(dt0):
    # bad input, not a stiffness failure: these used to raise the underflow
    # StiffnessError at t = 0 (inf ran)
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([1.0]))
    with pytest.raises(ValueError, match="dt0 must be finite and positive"):
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-3, 1e-3, dt0=dt0)
    assert calls == []


@pytest.mark.parametrize("t_span", [(1.0, 0.0), (0.0, 0.0), (0.0, np.nan), (np.nan, 1.0),
                                    (0.0, np.inf), (-np.inf, 0.0)])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_a_bad_time_span_is_rejected_before_any_rhs_call(driver, t_span):
    # a reversed span used to return u0, NaN to return u0 or fail converting
    # the step count, inf to raise StiffnessError or OverflowError
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=t_span, u0=np.array([1.0]))
    with pytest.raises(ValueError, match="t_span must be finite with t0 < T"):
        if driver == "adaptive":
            integrate_adaptive(prob, TAB22, make_controller("i"), 1e-3, 1e-3)
        else:
            integrate_fixed(prob, TAB22, 0.1, callback=lambda t, u: calls.append(t))
    assert calls == []


@pytest.mark.filterwarnings("error")
def test_an_overflowing_start_estimate_falls_back_and_fails_the_underflow_check():
    # sc = 1e-300 + |u| 1e-300 overflows every RMS estimate to inf, which
    # used to warn and give h0 = 0.01 inf / inf = nan.  Now h0 takes the
    # 1e-6 fallback, and the f' estimate, too large for the tolerance,
    # leaves a zero step that fails the underflow check by its value.
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([1.0]))
    assert initial_step(prob.f, 0.0, prob.u0, 2, 1e-300, 1e-300) == 0.0
    assert calls == [0.0, 1e-6]
    with pytest.raises(StiffnessError, match=r"step size 0\.000e\+00 underflowed at t = 0"):
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-300, 1e-300, max_attempts=100)


@pytest.mark.parametrize("atol, rtol", [
    (-1.0, -1.0), (0.0, 0.0), (0.0, 1e-4), (1e-4, -1e-4), (np.nan, 1e-4), (1e-4, np.nan),
    (np.inf, 1e-4), (1e-4, np.inf),
])
def test_bad_tolerances_are_rejected_before_any_step(atol, rtol):
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([1.0]))
    with pytest.raises(ValueError, match="atol > 0 and rtol >= 0"):
        integrate_adaptive(prob, TAB22, make_controller("i"), atol, rtol)
    assert calls == []


def test_zero_atol_is_rejected_where_the_solution_has_exact_zeros():
    # the square wave is exactly 0 outside [-0.5, 0.5], so atol = 0 would
    # make the error scale 0 there and every norm 0/0
    prob = make_problem("advection", n_cells=20)
    assert np.any(prob.u0 == 0.0)
    with pytest.raises(ValueError):
        integrate_adaptive(prob, TAB22, make_controller("pid"), 0.0, 1e-4)


def test_rtol_zero_with_a_positive_atol_runs():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 0.0)
    assert res.t == 1.0 and res.u[0] == pytest.approx(np.exp(-1.0), abs=1e-4)


# ------------------------------------------------------------- fixed driver


def test_fixed_rejects_nonpositive_dt():
    # also inf, which used to take no step and return u0 as the state at
    # T, and nan, which failed converting the step count to an integer
    for dt in (0.0, -0.1, np.inf, np.nan):
        with pytest.raises(ValueError, match="dt must be finite and positive"):
            integrate_fixed(make_problem("vdp"), TAB22, dt)


def test_a_state_that_is_not_1d_is_rejected_before_any_rhs_call():
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0),
                     u0=np.ones((3, 4)))
    tab = resolve("ssp10,4-b3")
    with pytest.raises(ValueError, match=r"u0 must be a 1-D array, got shape \(3, 4\)"):
        integrate_adaptive(prob, tab, make_controller("pid"), 1e-6, 1e-6)
    with pytest.raises(ValueError, match=r"u0 must be a 1-D array, got shape \(3, 4\)"):
        integrate_fixed(prob, tab, 0.1)
    assert calls == []


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
