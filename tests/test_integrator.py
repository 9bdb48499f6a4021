"""Tests for the stepping kernel, step-size selection, and the two drivers."""

import itertools
import re
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

from conftest import np_max_error_norm, reference_adaptive, ssp_ids

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
            assert error_norm(u_n, *got, atol, rtol) == np_max_error_norm(u_n, *want, atol, rtol)


def test_the_estimate_ratio_of_two_embeddings_tends_to_their_leading_terms():
    # u' = -u: u_next - u_hat = sum_j (b - w)^T A^(j-1) e (-h)^j, and the
    # terms j <= 3 vanish for third-order w, so the ratio of the estimates
    # of two embeddings that share (A, b) tends to (b - w2)^T A^3 e /
    # (b - w3)^T A^3 e = 9/35 as h -> 0; below h ~ 3e-3 the estimates
    # (~h^4 / 1000) near roundoff
    t2, t3 = resolve("ssp10,4-b2"), resolve("ssp10,4-b3")
    lead = [(t.b - t.b_tilde) @ np.linalg.matrix_power(t.A, 3) @ np.ones(t.s) for t in (t2, t3)]
    assert lead[0] / lead[1] == pytest.approx(9 / 35, rel=1e-12)
    dist = []
    for h in (1e-1, 3e-2, 1e-2):
        est = [np.subtract(*rk_step(t, lambda t, u: -u, 0.0, np.array([1.0]), h))[0] for t in (t2, t3)]
        dist.append(abs(est[0] / est[1] / (9 / 35) - 1.0))
    assert dist[0] > dist[1] > dist[2]
    assert dist[2] < 0.01


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
    # the rows A[i, :i] are read from the tableau that is stepped, so a copy
    # with the same id and another A steps with its own: k2 = 1 + 0.5 * 0.1
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


def _bits(v):
    # the bytes of a float array with every NaN made the same: signed zeros
    # count, the sign and payload of a NaN do not
    v = np.array(v, dtype=float)
    v[np.isnan(v)] = np.nan
    return v.tobytes()


def _stage_feed(stages, seen):
    # a right-hand side that records the stage states it is given and
    # returns the next of the given stage values
    def f(t, u):
        seen.append(np.array(u, copy=True))
        return stages[len(seen) - 1]
    return f


@pytest.mark.parametrize("n", range(1, 2 * integrator._SMALL_STATE + 1))
def test_error_norm_matches_the_numpy_form_bit_for_bit(n):
    # the attempt kernel against rk_step and the NumPy norm, and error_norm
    # against that norm, on both sides of the size cut: states and stage
    # values over sixteen decades with none to half of their components
    # special; every third trial has rtol = 0.  Values are compared by
    # their bytes, except that NaN counts as equal to NaN.
    rng = np.random.default_rng(n)
    for trial in range(400):
        tab = resolve(("ssp2,2-b2", "ssp10,4-b3", "dp54")[trial % 3])
        share = (0.0, 0.05, 0.2, 0.5)[trial % 4]
        u_n = _with_specials(rng, _magnitudes(rng, n), share)
        stages = _with_specials(rng, _magnitudes(rng, (tab.s, n)).ravel(), share).reshape(tab.s, n)
        h = float(10.0 ** rng.uniform(-4.0, 0.0))
        atol, rtol = (float(x) for x in 10.0 ** rng.uniform(-12.0, -2.0, size=2))
        if trial % 3 == 0:
            rtol = 0.0
        seen = {"kernel": [], "ref": []}
        with np.errstate(all="ignore"):
            u_next, u_hat = rk_step(tab, _stage_feed(stages, seen["ref"]), 0.5, u_n, h)
            want = np_max_error_norm(u_n, u_next, u_hat, atol, rtol)
            attempt = integrator._attempt(tab, _stage_feed(stages, seen["kernel"]), n, atol, rtol)
            got_u, got = attempt(0.5, u_n, h)
            norm = error_norm(u_n, u_next, u_hat, atol, rtol)
        case = (tab.id, u_n, stages, h, atol, rtol)
        assert list(map(_bits, seen["kernel"])) == list(map(_bits, seen["ref"])), case
        # the kernel hands back a list; the loop makes an array of an accepted one
        got_u = np.asarray(got_u)
        assert got_u.dtype == u_next.dtype and _bits(got_u) == _bits(u_next), case
        for value in (got, norm):
            assert type(value) is float
            assert value == want or (np.isnan(value) and np.isnan(want)), case


def test_error_norm_with_a_zero_scale_takes_the_numpy_form():
    # atol = rtol = 0 divides by zero in error_norm: inf for a defect, NaN
    # for none.  integrate_adaptive refuses atol <= 0, so the kernel's
    # smallest scale is atol itself: a zero state is normed against it.
    z = np.zeros(2)
    with np.errstate(all="ignore"):
        assert error_norm(z, np.array([1.0, 2.0]), z, 0.0, 0.0) == np.inf
        assert np.isnan(error_norm(z, z, z, 0.0, 0.0))
    stages = np.array([[0.0, 0.0], [0.0, -1e-3]])
    u_next, err = integrator._attempt(TAB22, _stage_feed(stages, []), 2, 1e-6, 0.0)(0.0, z, 0.1)
    # u_next = 0.05 k2 and u_hat = 0.025 k2, so the defect is 2.5e-5 in the second component
    assert u_next == [0.0, 0.1 * 0.5 * -1e-3]
    assert err == abs(0.1 * 0.5 * -1e-3 - 0.1 * 0.25 * -1e-3) / 1e-6


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


@pytest.mark.parametrize("bound", [-1.0, 0.0, np.nan])
def test_initial_step_refuses_a_cfl_bound_that_is_not_positive(bound):
    # -1.0 used to start the run with a step of -1.0, and NaN was dropped
    calls = []

    def f(t, u):
        calls.append(t)
        return -u

    with pytest.raises(ValueError, match=rf"^cfl_bound must be > 0, got {bound}$"):
        initial_step(f, 0.0, np.array([1.0]), 2, 1e-3, 1e-3, cfl_bound=bound)
    assert calls == []


def test_initial_step_reads_an_infinite_cfl_bound_as_no_cap():
    # what cfl_step returns for a quiescent field
    args = (lambda t, u: -u, 0.0, np.array([1.0]), 2, 1e-6, 1e-6)
    assert initial_step(*args, cfl_bound=np.inf) == initial_step(*args)


def test_initial_step_rejects_non_finite_rhs():
    with pytest.raises(StiffnessError):
        initial_step(lambda t, u: np.array([np.nan]), 0.0, np.array([1.0]), 2, 1e-6, 1e-6)


# ------------------------------------------------------------ adaptive loop


def test_adaptive_requires_embedded_weights():
    tab = replace(TAB22, b_tilde=None)
    with pytest.raises(ValueError):
        integrate_adaptive(decay_problem(), tab, make_controller("i"), 1e-6, 1e-6)


def test_adaptive_decay_reaches_the_final_time_exactly():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 1e-6, log=True)
    assert res.t == 1.0
    assert res.u[0] == pytest.approx(np.exp(-1.0), abs=1e-4)
    acc_dts = [dt for (_, dt, _, ok) in res.step_log if ok]
    assert sum(acc_dts) == pytest.approx(1.0, abs=1e-12)


def test_adaptive_bookkeeping_is_consistent():
    res = integrate_adaptive(decay_problem(), TAB22, make_controller("pi"), 1e-6, 1e-6, log=True)
    # s per attempt plus the two initial_step calls
    assert res.n_fev == TAB22.s * (res.n_accepted + res.n_rejected) + 2
    assert len(res.step_log) == res.n_attempts
    assert sum(ok for (_, _, _, ok) in res.step_log) == res.n_accepted
    assert res.step_log[-1][3] is True  # the landing step stands
    assert all(e <= 1.0 for (_, _, e, ok) in res.step_log if ok)


def test_adaptive_work_count_is_every_rhs_call():
    # a counting right-hand side against the reported n_fev, catalog-wide
    for mid in catalog_ids():
        calls = [0]

        def f(t, u):
            calls[0] += 1
            return -u

        prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0, 0.5]))
        res = integrate_adaptive(prob, resolve(mid), make_controller("pid"), 1e-5, 1e-5)
        assert res.n_fev == calls[0], mid
        assert res.n_fev == resolve(mid).s * res.n_attempts + 2, mid


def test_adaptive_run_is_reproducible():
    r1 = integrate_adaptive(decay_problem(), TAB22, make_controller("pid"), 1e-6, 1e-6, log=True)
    r2 = integrate_adaptive(decay_problem(), TAB22, make_controller("pid"), 1e-6, 1e-6, log=True)
    assert r1.step_log == r2.step_log
    assert np.array_equal(r1.u, r2.u)


@pytest.mark.parametrize("kind", sorted(GAINS))
def test_a_run_records_its_step_log_only_on_request(kind):
    # "not recorded" is None, never an empty list that reads as "no
    # attempts"; asking for the log changes no attempt, count or state
    prob, tab = make_problem("vdp"), resolve("ssp2,2-b2")
    quiet = integrate_adaptive(prob, tab, make_controller(kind), 1e-5, 1e-5)
    logged = integrate_adaptive(prob, tab, make_controller(kind), 1e-5, 1e-5, log=True)
    assert quiet.step_log is None
    assert (quiet.n_accepted, quiet.n_rejected, quiet.n_fev) == (logged.n_accepted, logged.n_rejected, logged.n_fev)
    assert quiet.u.tobytes() == logged.u.tobytes()
    want = []
    u, n_acc, n_rej = reference_adaptive(prob, tab, kind, 1e-5, 1e-5, want)
    assert logged.step_log == want
    assert len(want) == n_acc + n_rej == logged.n_attempts and u.tobytes() == logged.u.tobytes()


def _kernel_cases():
    # (n, name, u0, T, tol, f) per state size: a coupled cubic system, the
    # same returning a list of floats (as the ODE problems do), u' = -u|u|
    # from a state holding +0 and -0, and u' = u^2, which blows up before
    # t = 2 (at a loose tolerance, which needs fewer steps there); then two
    # PDE states, advection on 40 cells and Euler on 20 (60 components)
    for n in range(1, integrator._SMALL_STATE + 2):
        rng = np.random.default_rng(1000 + n)
        M = rng.normal(size=(n, n)) / np.sqrt(n) - 0.5 * np.eye(n)
        cubic = lambda t, u, M=M: M.dot(u) - u * u * u + 0.1 * np.cos(3.0 * t)
        u0 = rng.uniform(-2.0, 2.0, size=n)
        signed = u0.copy()
        signed[0::3] = 0.0
        signed[1::3] = -0.0
        yield n, "cubic", u0, 2.0, 1e-4, cubic
        yield n, "cubic-list", u0, 2.0, 1e-4, lambda t, u, cubic=cubic: cubic(t, u).tolist()
        yield n, "signed-zeros", signed, 1.0, 1e-4, lambda t, u: -u * np.abs(u)
        yield n, "blow-up", rng.uniform(0.5, 1.0, size=n), 3.0, 1e-2, lambda t, u: u * u
    for name, n_cells, T in (("advection", 40, 0.25), ("euler", 20, 0.05)):
        prob = make_problem(name, n_cells)
        yield prob.u0.size, name, prob.u0, T, 1e-4, prob.f


@pytest.mark.parametrize("method", ["ssp2,2-b2", "ssp10,4-b3", "dp54"])
def test_adaptive_runs_match_the_step_and_norm_loop_bit_for_bit(method):
    # every attempt's stage states, the step log, the end state and the
    # counts (or the same exception after the same attempts) against the
    # loop built from rk_step and the NumPy norm; n = _SMALL_STATE + 1 and
    # the PDE states take the kernel's NumPy final pass
    tab = resolve(method)
    for (n, name, u0, T, tol, f), kind in zip(_kernel_cases(), itertools.cycle(sorted(GAINS))):
        seen = {"new": [], "ref": []}

        def recorder(key, f=f):
            def g(t, u):
                seen[key].append((t, _bits(u)))
                return f(t, u)
            return g

        outcome = {}
        for key in ("new", "ref"):
            prob = OdeSystem(f=recorder(key), t_span=(0.0, T), u0=u0)
            log = []   # a raising run has no step log; its f calls are compared
            with np.errstate(all="ignore"):
                try:
                    if key == "new":
                        res = integrate_adaptive(prob, tab, make_controller(kind), tol, tol, log=True)
                        log = res.step_log
                        result = (res.u, res.n_accepted, res.n_rejected, res.n_fev)
                    else:
                        u, n_acc, n_rej = reference_adaptive(prob, tab, kind, tol, tol, log)
                        result = (u, n_acc, n_rej, tab.s * (n_acc + n_rej) + 2)
                    outcome[key] = ("ok", _bits(result[0]), result[1:], repr(log))
                except StiffnessError as exc:
                    outcome[key] = ("StiffnessError", str(exc))
        case = (method, n, name, kind)
        assert seen["new"] == seen["ref"], case
        assert outcome["new"] == outcome["ref"], case
        assert outcome["new"][0] == ("StiffnessError" if name == "blow-up" else "ok"), case


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
        res = integrate_adaptive(prob, tab, make_controller("pid"), tol, tol, log=True)
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


def test_adaptive_consults_the_problem_step_bound():
    prob = OdeSystem(f=lambda t, u: -u, t_span=(0.0, 1.0), u0=np.array([1.0]),
                     cfl_hint=lambda u: 1e-3)
    res = integrate_adaptive(prob, TAB22, make_controller("i"), 1e-6, 1e-6, log=True)
    assert res.step_log[0][1] <= 1e-3


def test_adaptive_refuses_a_problem_step_bound_that_is_not_positive():
    calls = []

    def f(t, u):
        calls.append(t)
        return -u

    prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0]), cfl_hint=lambda u: -1.0)
    with pytest.raises(ValueError, match=r"^cfl_bound must be > 0, got -1.0$"):
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-6, 1e-6)
    assert calls == []


def test_adaptive_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(integrator, "MAX_ATTEMPTS", 3)
    with pytest.raises(BudgetError, match="exceeded 3 attempted steps"):
        integrate_adaptive(decay_problem(), TAB22, make_controller("i"), 1e-10, 1e-10)


def test_adaptive_step_underflow_raises():
    # finite at t = 0, NaN beyond: every attempt is rejected and the step
    # collapses until the underflow guard fires
    def f(t, u):
        return np.array([1.0]) if t == 0.0 else np.array([np.nan])

    prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0]))
    with pytest.raises(StiffnessError):
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-3, 1e-3)


_BAD_SPANS = [
    ((1.0, 0.0), "t_span must be finite with t0 < T, got (1.0, 0.0)"),
    ((0.0, 0.0), "t_span must be finite with t0 < T, got (0.0, 0.0)"),
    ((0.0, np.nan), "t_span[1] must be a finite number, got nan"),
    ((np.nan, 1.0), "t_span[0] must be a finite number, got nan"),
    ((0.0, np.inf), "t_span[1] must be a finite number, got inf"),
    ((-np.inf, 0.0), "t_span[0] must be a finite number, got -inf"),
]


@pytest.mark.parametrize("t_span, message", _BAD_SPANS, ids=[f"t_span{i}" for i in range(len(_BAD_SPANS))])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_a_bad_time_span_is_rejected_before_any_rhs_call(driver, t_span, message):
    # a reversed span used to return u0, NaN to return u0 or fail converting
    # the step count, inf to raise StiffnessError or OverflowError
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=t_span, u0=np.array([1.0]))
    with pytest.raises(ValueError) as exc:
        if driver == "adaptive":
            integrate_adaptive(prob, TAB22, make_controller("i"), 1e-3, 1e-3)
        else:
            integrate_fixed(prob, TAB22, 0.1, callback=lambda t, u: calls.append(t))
    assert str(exc.value) == message
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
        integrate_adaptive(prob, TAB22, make_controller("i"), 1e-300, 1e-300)


_BAD_TOLERANCES = [
    (-1.0, -1.0, "atol must be > 0, got -1.0"), (0.0, 0.0, "atol must be > 0, got 0.0"),
    (0.0, 1e-4, "atol must be > 0, got 0.0"), (1e-4, -1e-4, "rtol must be at least 0, got -0.0001"),
    (np.nan, 1e-4, "atol must be a finite number, got nan"), (1e-4, np.nan, "rtol must be a finite number, got nan"),
    (np.inf, 1e-4, "atol must be a finite number, got inf"), (1e-4, np.inf, "rtol must be a finite number, got inf"),
]


@pytest.mark.parametrize("atol, rtol, message", _BAD_TOLERANCES, ids=[f"{a}-{r}" for a, r, _ in _BAD_TOLERANCES])
def test_bad_tolerances_are_rejected_before_any_step(atol, rtol, message):
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([1.0]))
    with pytest.raises(ValueError) as exc:
        integrate_adaptive(prob, TAB22, make_controller("i"), atol, rtol)
    assert str(exc.value) == message
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


def test_fixed_rejects_nonpositive_dt(monkeypatch):
    # also inf, which used to take no step and return u0 as the state at
    # T, nan, which failed converting the step count to an integer, and
    # the smallest subnormal, whose step count (T - t0)/dt overflows to inf
    # and used to raise OverflowError
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([1.0]))
    for dt, message in ((0.0, "dt must be > 0, got 0.0"), (-0.1, "dt must be > 0, got -0.1"),
                        (np.inf, "dt must be a finite number, got inf"),
                        (np.nan, "dt must be a finite number, got nan"),
                        (5e-324, "dt = 5e-324 takes inf steps, more than MAX_ATTEMPTS = 10000000")):
        with pytest.raises(ValueError) as exc:
            integrate_fixed(prob, TAB22, dt, callback=lambda t, u: calls.append(t))
        assert str(exc.value) == message
    assert calls == []
    # a finite step count above the attempt budget (1e-300 on vdp used to
    # plan 2e300 steps and never return); a count at the budget runs
    monkeypatch.setattr(integrator, "MAX_ATTEMPTS", 3)
    with pytest.raises(ValueError, match=r"dt = 0.25 takes 4 steps, more than MAX_ATTEMPTS = 3"):
        integrate_fixed(prob, TAB22, 0.25, callback=lambda t, u: calls.append(t))
    assert calls == []
    integrate_fixed(prob, TAB22, 1.0 / 3.0)
    assert len(calls) == 3 * TAB22.s


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


@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_an_empty_state_is_rejected_before_any_rhs_call(driver):
    # the adaptive driver used to warn "Mean of empty slice" and die in a
    # zero-size maximum, while the fixed one returned []
    calls = []
    prob = OdeSystem(f=lambda t, u: calls.append(t) or -u, t_span=(0.0, 1.0), u0=np.array([]))
    with pytest.raises(ValueError, match="u0 must have at least one component, got an empty array"):
        if driver == "adaptive":
            integrate_adaptive(prob, TAB22, make_controller("pid"), 1e-6, 1e-6)
        else:
            integrate_fixed(prob, TAB22, 0.1, callback=lambda t, u: calls.append(t))
    assert calls == []


@pytest.mark.parametrize("value", [lambda u: -u.sum(), lambda u: np.array([-u.sum()])],
                         ids=["scalar", "length-1"])
@pytest.mark.parametrize("driver", ["adaptive", "fixed"])
def test_a_right_hand_side_of_another_shape_is_refused_at_its_first_call(driver, value):
    # a stage row used to broadcast such a value, and both drivers ran to
    # a wrong answer; the refusal adds no call of f
    calls = []

    def f(t, u):
        calls.append(t)
        return value(u)

    prob = OdeSystem(f=f, t_span=(0.0, 1.0), u0=np.array([1.0, 2.0]))
    shape = np.shape(value(prob.u0))
    with pytest.raises(ValueError, match=re.escape(f"f(t, u) returned shape {shape} for a state u of shape (2,)")):
        if driver == "adaptive":
            integrate_adaptive(prob, TAB22, make_controller("pid"), 1e-3, 1e-3)
        else:
            integrate_fixed(prob, TAB22, 0.1)
    assert calls == [0.0]


def test_fixed_truncates_the_last_step_to_land_on_t_final():
    # (T - t0)/dt = 3 + 5e-10 lies within the step count's 1e-9 allowance
    # above 3: three steps, the last of them stretched onto T
    h = 1 / (3 + 5e-10)
    for dt, times in ((0.3, [0.0, 0.3, 0.6, 0.9, 1.0]), (h, [0.0, h, 2 * h, 1.0])):
        ts = []
        u_end = integrate_fixed(decay_problem(), TAB22, dt,
                                callback=lambda t, u: ts.append(t))
        assert ts == pytest.approx(times, abs=1e-12)
        assert ts[-1] == 1.0
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
