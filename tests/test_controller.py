"""Tests for the asymptotic step-size controllers."""

import math
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

from sspkit.controller import ERR_FLOOR, FAC, FACMAX, FACMIN, GAINS, ControllerState, make_controller
from sspkit.integrator import integrate_adaptive
from sspkit.problems import make_problem
from sspkit.tableau import resolve

from conftest import FrozenController

KINDS = sorted(GAINS)

errs = st.floats(min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False)
betas = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


# ------------------------------------------------------------- construction


def test_default_gains_follow_the_table():
    st_ = make_controller("pid")
    assert (st_.k1, st_.k2, st_.k3) == GAINS["pid"]
    assert (FAC, FACMIN, FACMAX) == (0.9, 0.1, 5.0)
    assert st_.err_n == 1.0 and st_.err_nm1 == 1.0
    assert st_.first_step and not st_.just_rejected


def test_kind_is_case_insensitive_and_overrides_apply():
    st_ = make_controller("PI")
    assert st_.kind == "pi"
    assert make_controller(" PI\n").kind == "pi"
    with pytest.raises(TypeError):
        make_controller("pi", facmax=4.0)


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError):
        make_controller("pidd")


# ---------------------------------------------------------- factor formulas


def test_integral_factor_is_a_pure_power():
    st_ = make_controller("i")
    assert st_.propose_factor(1e-4, 1) == pytest.approx(1e4, rel=1e-12)
    assert st_.propose_factor(1e-4, 2) == pytest.approx(1e2, rel=1e-12)


def test_pi_factor_mixes_in_the_last_accepted_error():
    st_ = make_controller("pi")
    # warm-up history is neutral
    assert st_.propose_factor(1e-4, 2) == pytest.approx(10.0 ** (4 * 0.8 / 2), rel=1e-12)
    st_.on_accept(1e-2)
    want = 10.0 ** (4 * 0.8 / 2) * 10.0 ** (-2 * 0.31 / 2)
    assert st_.propose_factor(1e-4, 2) == pytest.approx(want, rel=1e-12)


def test_pid_factor_uses_two_steps_of_history():
    st_ = make_controller("pid")
    st_.on_accept(1e-2)
    st_.on_accept(1e-3)
    # err_n = 1e-3, err_nm1 = 1e-2
    want = (1e-4) ** (-0.58 / 2) * (1e-3) ** (0.21 / 2) * (1e-2) ** (-0.1 / 2)
    assert st_.propose_factor(1e-4, 2) == pytest.approx(want, rel=1e-12)


def test_default_i_and_pi_factors_are_their_pure_formulas_bit_for_bit():
    i, pi = make_controller("i"), make_controller("pi")
    for st_ in (i, pi):
        st_.on_accept(1e-2)
        st_.on_accept(1e-3)
    assert i.propose_factor(1e-4, 2) == (1e-4) ** (-1.0 / 2)
    assert pi.propose_factor(1e-4, 2) == (1e-4) ** (-0.8 / 2) * (1e-3) ** (0.31 / 2)


def test_each_pid_kind_proposes_from_its_gains():
    # I, PI and PID share one formula and differ only in GAINS
    for kind in ("i", "pi", "pid"):
        k1, k2, k3 = GAINS[kind]
        st_ = make_controller(kind)
        st_.on_accept(1e-2)
        st_.on_accept(1e-3)
        want = (1e-4) ** (-k1 / 2) * (1e-3) ** (k2 / 2) * (1e-2) ** (-k3 / 2)
        assert st_.propose_factor(1e-4, 2) == want, kind


def test_predictive_factor_falls_back_to_integral_on_the_first_step():
    st_ = make_controller("gustafsson")
    assert st_.propose_factor(1e-4, 2) == pytest.approx(1e2, rel=1e-12)
    st_.on_accept(1e-4)
    want = (1e-6) ** (-0.367 / 2) * (1e-6 / 1e-4) ** (0.268 / 2)
    assert st_.propose_factor(1e-6, 2) == pytest.approx(want, rel=1e-12)


def test_zero_error_is_floored():
    st_ = make_controller("i")
    assert st_.propose_factor(0.0, 1) == pytest.approx(1.0 / ERR_FLOOR, rel=1e-12)
    assert st_.propose_factor(0.0, 2) == st_.propose_factor(1e-30, 2)


def test_unknown_state_kind_is_rejected_at_proposal_time(monkeypatch):
    # the kind is checked when a state is built, and a run builds its own
    # state from controller.kind, so no proposal ever sees an unknown kind
    with pytest.raises(ValueError):
        ControllerState("nope")
    st_ = make_controller("i")
    st_.kind = "nope"

    def never(self, err_new, p):
        raise AssertionError("proposal made for an unknown kind")

    monkeypatch.setattr(ControllerState, "propose_factor", never)
    with pytest.raises(ValueError, match="unknown controller kind"):
        integrate_adaptive(make_problem("vdp"), resolve("ssp2,2-b2"), st_, 1e-3, 1e-3)


# ------------------------------------------------------------------- clamp


def test_clamp_limits_growth_and_shrinkage():
    st_ = make_controller("i")
    assert st_.clamp(1.0, 1e9) == pytest.approx(5.0)
    assert st_.clamp(1.0, 1e-9) == pytest.approx(0.1)
    assert st_.clamp(1.0, 1.0) == pytest.approx(0.9)  # safety factor


def test_clamp_after_rejection_forces_a_strict_shrink():
    st_ = make_controller("i")
    st_.on_reject()
    assert st_.just_rejected
    assert st_.clamp(1.0, 10.0) == pytest.approx(0.9)
    assert st_.clamp(1.0, 0.5) == pytest.approx(0.45)


@pytest.mark.parametrize("kind", KINDS)
def test_nan_estimate_shrinks_by_facmin_and_keeps_the_history(kind):
    st_ = make_controller(kind)
    st_.on_accept(1e-3)
    st_.on_accept(2e-3)
    beta = st_.propose_factor(float("nan"), 2)
    st_.on_reject()  # a NaN error never satisfies err <= 1
    assert st_.clamp(0.5, beta) == 0.5 * FACMIN
    assert st_.err_n == 2e-3 and st_.err_nm1 == 1e-3


def test_accept_shifts_history_and_clears_flags():
    st_ = make_controller("pid")
    st_.on_reject()
    st_.on_accept(1e-3)
    assert st_.err_n == 1e-3 and st_.err_nm1 == 1.0
    assert not st_.first_step and not st_.just_rejected
    st_.on_accept(0.0)
    assert st_.err_n == ERR_FLOOR and st_.err_nm1 == 1e-3


def test_reject_keeps_the_accepted_history():
    st_ = make_controller("pi")
    st_.on_accept(1e-3)
    st_.on_reject()
    assert st_.err_n == 1e-3 and st_.err_nm1 == 1.0


# -------------------------------------------------------------- properties


@pytest.mark.parametrize("kind", KINDS)
@given(e1=errs, e2=errs)
def test_factor_is_monotone_nonincreasing_in_the_error(kind, e1, e2):
    st_ = make_controller(kind)
    st_.on_accept(1e-3)  # fixed history, past warm-up
    lo, hi = sorted((e1, e2))
    assert st_.propose_factor(lo, 2) >= st_.propose_factor(hi, 2) * (1 - 1e-12)


@pytest.mark.parametrize("kind", KINDS)
@given(err=errs, beta=betas, rejected=st.booleans())
def test_clamped_step_stays_within_the_configured_bounds(kind, err, beta, rejected):
    st_ = make_controller(kind)
    if rejected:
        st_.on_reject()
    dt = 1.0
    out = st_.clamp(dt, beta)
    assert FACMIN * dt * (1 - 1e-12) <= out <= FACMAX * dt * (1 + 1e-12)
    if rejected:
        assert out <= 0.9 * dt * (1 + 1e-12)


@pytest.mark.parametrize("kind", KINDS)
def test_error_exactly_on_tolerance_gives_the_safety_factor(kind):
    st_ = make_controller(kind)
    st_.on_accept(1.0)
    assert st_.clamp(1.0, st_.propose_factor(1.0, 2)) == pytest.approx(0.9)


# ------------------------------------------------- against the full formulas
# FrozenController forms every exponent and history power on each call;
# ControllerState caches them.  Every factor, step and history value must
# be the same float, a NaN counting as equal to a NaN.

SPECIAL_ERRS = [0.0, -0.0, ERR_FLOOR, 5e-324, 2.2e-308, 1e-320, 1.0, math.inf, math.nan]
any_errs = st.one_of(st.sampled_from(SPECIAL_ERRS), st.floats(min_value=0.0), errs)
orders = st.integers(min_value=1, max_value=4)
steps = st.floats(min_value=1e-12, max_value=1e3)


def _same(a, b) -> bool:
    return type(a) is type(b) is float and a.hex() == b.hex()


def _history(ctl):
    return ctl.err_n, ctl.err_nm1, ctl.first_step, ctl.just_rejected


def _assert_same_state(new, old):
    for a, b in zip(_history(new), _history(old)):
        assert a == b or _same(a, b)


@pytest.mark.parametrize("kind", KINDS)
@given(attempts=st.lists(st.tuples(any_errs, orders, st.booleans(), steps), max_size=40))
def test_cached_controller_matches_the_full_formulas_bit_for_bit(kind, attempts):
    # the adaptive loop's calls, with p changing between attempts and a
    # random verdict in place of err <= 1, so any history can arise
    new, old = make_controller(kind), FrozenController(kind)
    for err, p, accepted, dt in attempts:
        beta = new.propose_factor(err, p)
        assert _same(beta, old.propose_factor(err, p)), (err, p)
        for ctl in (new, old):
            if accepted:
                ctl.on_accept(err)
            else:
                ctl.on_reject()
        _assert_same_state(new, old)
        assert _same(new.clamp(dt, beta), old.clamp(dt, beta)), (dt, beta)


calls = st.one_of(
    st.tuples(st.just("propose"), any_errs, orders),
    st.tuples(st.just("accept"), any_errs),
    st.tuples(st.just("reject")),
    st.tuples(st.just("clamp"), steps, st.one_of(st.floats(), st.sampled_from([0.0, FACMIN / FAC, FACMAX / FAC]))),
)


@pytest.mark.parametrize("kind", KINDS)
@given(seq=st.lists(calls, max_size=40))
def test_cached_controller_matches_in_any_call_order(kind, seq):
    # history accepted before the first proposal, repeated proposals at
    # one order, and clamps of any factor, NaN and infinities included
    new, old = make_controller(kind), FrozenController(kind)
    for name, *args in seq:
        if name == "propose":
            assert _same(new.propose_factor(*args), old.propose_factor(*args)), args
        elif name == "clamp":
            assert _same(new.clamp(*args), old.clamp(*args)), args
        else:
            getattr(new, f"on_{name}")(*args)
            getattr(old, f"on_{name}")(*args)
        _assert_same_state(new, old)


def test_the_caches_are_no_part_of_the_state():
    # equality, repr and the fields see the history alone, so a controller
    # that has proposed equals a fresh one with the same history
    used = make_controller("pid")
    used.propose_factor(1e-3, 2)
    assert used == make_controller("pid")
    assert repr(used) == repr(make_controller("pid"))
    assert [f.name for f in fields(ControllerState)] == [
        "kind", "k1", "k2", "k3", "err_n", "err_nm1", "first_step", "just_rejected"]
