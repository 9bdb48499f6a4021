"""Tests for the ODE/PDE test systems and their discrete operators."""

import re
from dataclasses import replace

import numpy as np
import pytest

from sspkit.controller import make_controller
from sspkit.integrator import integrate_adaptive
from sspkit.problems import (
    GAMMA_AIR,
    PROBLEM_IDS,
    Grid1D,
    advection_rhs,
    brusselator_rhs,
    cfl_step,
    euler_max_speed,
    euler_rhs,
    make_problem,
    sod_initial,
    square_wave_average,
    total_variation,
    upwind_advection,
    upwind_rhs,
    vdp_rhs,
)
from sspkit import problems
from sspkit.tableau import resolve

from conftest import sine_average, weno5_face

GRID = Grid1D(100, -1.0, 1.0)


def _primitives(q):
    # (rho, velocity, pressure) of a flat (rho, mom, E) state, written
    # independently of the program's own formula
    rho, mom, E = q.reshape(3, -1)
    return rho, mom / rho, (GAMMA_AIR - 1.0) * (E - 0.5 * mom**2 / rho)


# -------------------------------------------------------------------- grids


def test_grid_geometry():
    g = Grid1D(10, 0.0, 1.0)
    assert g.dx == pytest.approx(0.1)
    assert g.centers[0] == pytest.approx(0.05)
    assert g.edges[0] == 0.0 and g.edges[-1] == pytest.approx(1.0)
    assert len(g.edges) == 11


def test_degenerate_grids_are_rejected():
    with pytest.raises(ValueError, match="n_cells must be at least 1, got 0"):
        Grid1D(0, 0.0, 1.0)
    with pytest.raises(ValueError, match="x_max must exceed x_min, got x_min=1.0, x_max=1.0"):
        Grid1D(10, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^x_max must be a finite number, got nan$"):
        Grid1D(10, 0.0, np.nan)
    with pytest.raises(ValueError, match=r"^x_min must be a finite number, got inf$"):
        Grid1D(10, np.inf, 0.0)
    # an infinite end used to give infinite centers, an overflowing width dx = inf
    for lo, hi, message in ((0.0, np.inf, "x_max must be a finite number, got inf"),
                            (-np.inf, 0.0, "x_min must be a finite number, got -inf"),
                            (-np.inf, np.inf, "x_min must be a finite number, got -inf"),
                            (-1e308, 1e308, "x_max - x_min must be finite, got x_min=-1e+308, x_max=1e+308")):
        with pytest.raises(ValueError) as exc:
            Grid1D(4, lo, hi)
        assert str(exc.value) == message
    assert Grid1D(4, -1e307, 1e307).dx == 5e306
    # a string or None used to raise TypeError, and two bools gave dx = 0.25
    for lo, hi, message in (("a", "b", "x_min must be a finite number, got 'a'"),
                            (None, 1.0, "x_min must be a finite number, got None"),
                            (0.0, None, "x_max must be a finite number, got None"),
                            (False, True, "x_min must be a finite number, got False")):
        with pytest.raises(ValueError) as exc:
            Grid1D(4, lo, hi)
        assert str(exc.value) == message
    with pytest.raises(ValueError):
        Grid1D(10, 0.0, 1.0, boundary="reflecting")
    # a float or a bool used to size the arrays by its truncation while dx
    # divided by the value itself
    for bad in (2.5, 3.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match=re.escape(f"n_cells must be an integer, got {bad!r}")):
            Grid1D(bad, 0.0, 1.0)
    with pytest.raises(ValueError, match="n_cells must be an integer, got 2.5"):
        make_problem("advection", n_cells=2.5)
    # an ODE id ignores the value but refuses it as a PDE id does
    with pytest.raises(ValueError, match="n_cells must be at least 1, got -5"):
        make_problem("vdp", n_cells=-5)
    g = Grid1D(np.int64(4), 0.0, 1.0)
    assert type(g.n_cells) is int and g == Grid1D(4, 0.0, 1.0)
    assert make_problem("euler", n_cells=np.int32(4)).f(0.0, sod_initial(g)).size == 12


# --------------------------------------------------------------- ODE systems


def test_vdp_rhs_divides_the_whole_bracket_by_eps():
    u = np.array([2.0, -0.6654321])
    out = vdp_rhs(0.0, u)
    assert out[0] == u[1]
    assert out[1] == pytest.approx(((1.0 - 4.0) * u[1] - 2.0) / 0.1, rel=1e-15)


def test_brusselator_rhs_values_and_fixed_point():
    out = brusselator_rhs(0.0, np.array([1.01, 3.0]))
    assert out == pytest.approx([1.0 + 1.01**2 * 3.0 - 4.04, 3.03 - 1.01**2 * 3.0], rel=1e-14)
    assert np.array_equal(brusselator_rhs(0.0, np.array([1.0, 3.0])), [0.0, 0.0])


def _np_scalar_vdp_rhs(t, u):
    return np.array([u[1], ((1.0 - u[0] ** 2) * u[1] - u[0]) / 0.1])


def _np_scalar_brusselator_rhs(t, u):
    x, y = u
    return np.array([1.0 + x * x * y - 4.0 * x, 3.0 * x - x * x * y])


def test_ode_rhs_match_the_numpy_scalar_forms_bit_for_bit():
    # states over sixteen decades, then non-finite, zero and huge entries
    # (1e200 ** 2 overflows: NumPy returns inf where Python raises)
    rng = np.random.default_rng(20_260_115)
    states = rng.choice([-1.0, 1.0], size=(20_000, 2)) * 10.0 ** rng.uniform(-8.0, 8.0, size=(20_000, 2))
    specials = [np.nan, np.inf, -np.inf, 0.0, -0.0, 1e200, -1e200, 1e-200, 3.0]
    states = np.vstack([states, [[a, b] for a in specials for b in specials]])
    for ours, ref in ((vdp_rhs, _np_scalar_vdp_rhs), (brusselator_rhs, _np_scalar_brusselator_rhs)):
        for u in states:
            with np.errstate(all="ignore"):
                want = ref(0.0, u)
            got = ours(0.0, u)
            assert type(got) is list and all(type(v) is float for v in got), (ours.__name__, u)
            assert np.array(got).tobytes() == want.tobytes(), (ours.__name__, u)


def test_ode_factories_carry_the_documented_setups():
    p = make_problem("vdp")
    assert p.t_span == (0.0, 2.0)
    assert p.u0 == pytest.approx([2.0, -0.6654321])
    b = make_problem("brusselator")
    assert b.t_span == (0.0, 20.0)
    assert b.u0 == pytest.approx([1.01, 3.0])


# ------------------------------------------------------------ reconstruction


def _candidates(v):
    # the three left-biased third-order interface values
    vm2, vm1, v0, vp1, vp2 = v
    return ((2 * vm2 - 7 * vm1 + 11 * v0) / 6, (-vm1 + 5 * v0 + 2 * vp1) / 6,
            (2 * v0 + 5 * vp1 - vp2) / 6)


def test_reconstruction_is_exact_on_constants_with_ideal_weights():
    assert weno5_face([2.5] * 5) == pytest.approx(2.5, rel=1e-14)
    # all three smoothness indicators equal 13/3 here, so the weights are
    # the ideal (0.1, 0.6, 0.3) and the value is the fifth-order linear
    # blend (2 v-2 - 13 v-1 + 47 v0 + 27 v1 - 3 v2)/60, away from each of
    # the candidates -11/12, 1/6 and 17/24
    v = [0.75, 1.0, 0.0, 1.0, 0.75]
    q = _candidates(v)
    assert q == pytest.approx((-11 / 12, 1 / 6, 17 / 24), rel=1e-15)
    assert weno5_face(v) == pytest.approx(13.25 / 60, rel=1e-12)
    assert weno5_face(v) == pytest.approx(0.1 * q[0] + 0.6 * q[1] + 0.3 * q[2], rel=1e-12)


def test_reconstruction_is_exact_on_linear_data():
    assert weno5_face([-2.0, -1.0, 0.0, 1.0, 2.0]) == pytest.approx(0.5, abs=1e-13)


def test_weights_are_convex_on_arbitrary_data():
    # a convex blend lies between the smallest and largest candidate
    rng = np.random.default_rng(5)
    for v in [[1.0, 3.0, -2.0, 0.5, 7.0], *rng.standard_normal((200, 5))]:
        q = _candidates(v)
        assert min(q) - 1e-12 <= weno5_face(v) <= max(q) + 1e-12


def test_weights_avoid_a_downstream_discontinuity():
    # the left stencil is the only smooth one and its candidate is 1, while
    # the other two read 2/3 and 1/3: the value shows it carries the weight
    v = [1.0, 1.0, 1.0, 0.0, 0.0]
    assert _candidates(v) == pytest.approx((1.0, 2 / 3, 1 / 3), rel=1e-15)
    assert weno5_face(v) == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------- advection discretizers


def test_advection_rhs_vanishes_on_constants():
    assert np.max(np.abs(advection_rhs(GRID)(0.0, np.full(100, 2.5)))) == 0.0


def test_advection_rhs_telescopes_to_zero_total():
    u = np.sin(3.0 * GRID.centers) + 0.3
    assert abs(np.sum(advection_rhs(GRID)(0.0, u))) < 1e-12


def test_advection_rhs_matches_the_exact_flux_difference_on_a_sine():
    u = sine_average(GRID)
    xe = GRID.edges
    exact = -(np.sin(np.pi * xe[1:]) - np.sin(np.pi * xe[:-1])) / GRID.dx
    assert np.max(np.abs(advection_rhs(GRID)(0.0, u) - exact)) < 1e-5


def _roll_advection_rhs(u, grid):
    # the earlier np.roll formulation, kept as the reference for the
    # ghost-cell kernel
    flux = _weno5_face(np.roll(u, 2), np.roll(u, 1), u, np.roll(u, -1), np.roll(u, -2))
    return -(flux - np.roll(flux, 1)) / grid.dx


@pytest.mark.parametrize("n", [1, 2, 3, 7, 200])
def test_periodic_rhs_match_the_roll_formulas_bit_for_bit(n):
    g = Grid1D(n, -1.0, 1.0)
    u = np.random.default_rng(n).standard_normal(n)
    assert np.array_equal(advection_rhs(g)(0.0, u), _roll_advection_rhs(u, g))
    assert np.array_equal(upwind_rhs(g)(0.0, u), -(u - np.roll(u, 1)) / g.dx)


# the five-argument face kernel, the ghost-cell padding and the two-pass
# flux difference that the one-pass kernel replaced, kept as the references
# it must match bit for bit


def _weno5_face(vm2, vm1, v0, vp1, vp2):
    q0 = (2.0 * vm2 - 7.0 * vm1 + 11.0 * v0) / 6.0
    q1 = (-vm1 + 5.0 * v0 + 2.0 * vp1) / 6.0
    q2 = (2.0 * v0 + 5.0 * vp1 - vp2) / 6.0
    b0 = 13.0 / 12.0 * (vm2 - 2.0 * vm1 + v0) ** 2 + 0.25 * (vm2 - 4.0 * vm1 + 3.0 * v0) ** 2
    b1 = 13.0 / 12.0 * (vm1 - 2.0 * v0 + vp1) ** 2 + 0.25 * (vm1 - vp1) ** 2
    b2 = 13.0 / 12.0 * (v0 - 2.0 * vp1 + vp2) ** 2 + 0.25 * (3.0 * v0 - 4.0 * vp1 + vp2) ** 2
    a0 = 0.1 / (1e-6 + b0) ** 2
    a1 = 0.6 / (1e-6 + b1) ** 2
    a2 = 0.3 / (1e-6 + b2) ** 2
    asum = a0 + a1 + a2
    return (a0 / asum) * q0 + (a1 / asum) * q1 + (a2 / asum) * q2


def _ghost(v, grid):
    if grid.boundary == "periodic":
        return np.take(v, np.arange(-3, v.shape[-1] + 3), axis=-1, mode="wrap")
    left = np.repeat(v[..., :1], 3, axis=-1)
    right = np.repeat(v[..., -1:], 3, axis=-1)
    return np.concatenate([left, v, right], axis=-1)


def _two_pass_divergence(fp, dx, fm=None):
    face = _weno5_face(fp[..., :-5], fp[..., 1:-4], fp[..., 2:-3], fp[..., 3:-2], fp[..., 4:-1])
    if fm is not None:
        face = face + _weno5_face(fm[..., 5:], fm[..., 4:-1], fm[..., 3:-2], fm[..., 2:-3], fm[..., 1:-4])
    return -(face[..., 1:] - face[..., :-1]) / dx


def _two_pass_euler_rhs(q_flat, grid):
    qg = _ghost(q_flat.reshape(3, grid.n_cells), grid)
    rho, mom, E = qg
    u = mom / rho
    p = (GAMMA_AIR - 1.0) * (E - 0.5 * mom * u)
    F = np.stack([mom, mom * u + p, (E + p) * u])
    alpha = float(np.max(np.abs(u) + np.sqrt(GAMMA_AIR * p / rho)))
    return _two_pass_divergence(0.5 * (F + alpha * qg), grid.dx, 0.5 * (F - alpha * qg)).reshape(-1)


def _upwind_rhs(u, grid):
    ug = _ghost(u, grid)
    return -(ug[3:-3] - ug[2:-4]) / grid.dx


def _assert_same_bytes(a, b):
    # bit for bit where neither side is NaN (np.array_equal would let -0.0
    # stand for +0.0), and NaN in the same places
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


def _assert_rhs_match_the_references(q, g):
    u = q[: g.n_cells]
    _assert_same_bytes(advection_rhs(g)(0.0, u), _two_pass_divergence(_ghost(u, g), g.dx))
    _assert_same_bytes(upwind_rhs(g)(0.0, u), _upwind_rhs(u, g))
    _assert_same_bytes(euler_rhs(g)(0.0, q), _two_pass_euler_rhs(q, g))


def _sixteen_decades(rng, shape):
    return rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)


@pytest.mark.parametrize("boundary", ["periodic", "outflow"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200])
def test_one_pass_weno5_matches_the_two_pass_kernel_bit_for_bit(n, boundary):
    g = Grid1D(n, -1.0, 1.0, boundary)
    rng = np.random.default_rng(1000 * n + len(boundary))
    with np.errstate(all="ignore"):
        # raw signed values over 16 decades of scale, mostly invalid and
        # NaN-producing as Euler states
        for scale in (1e-8, 1.0, 1e8):
            _assert_rhs_match_the_references(scale * rng.standard_normal(3 * n), g)
        _assert_rhs_match_the_references(_sixteen_decades(rng, 3 * n), g)
        # valid Euler states (rho, p > 0) over 16 decades of scale
        for scale in (1e-8, 1.0, 1e8):
            rho = scale * rng.uniform(0.1, 2.0, n)
            mom = rho * rng.standard_normal(n)
            E = 0.5 * mom**2 / rho + scale * rng.uniform(0.1, 2.0, n)
            _assert_rhs_match_the_references(np.concatenate([rho, mom, E]), g)
        # signed zeros, infinities and states whose squares overflow
        for _ in range(4):
            _assert_rhs_match_the_references(rng.choice([0.0, -0.0], 3 * n), g)
            _assert_rhs_match_the_references(rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], 3 * n), g)
            _assert_rhs_match_the_references(1e300 * rng.standard_normal(3 * n), g)
            _assert_rhs_match_the_references(np.where(rng.random(3 * n) < 0.3, -0.0, 1e300), g)
    # in float64 array arithmetic, as every right-hand side evaluates it
    # (Python floats square through libm pow, which can differ from x*x
    # in the last bit)
    for v in _sixteen_decades(rng, (20, 5)):
        assert weno5_face(v) == _weno5_face(*v[:, None])[0]


def _reference_states(rng, n):
    # the state families of the reference check above, 3n values each
    for scale in (1e-8, 1.0, 1e8):
        yield scale * rng.standard_normal(3 * n)
    yield _sixteen_decades(rng, 3 * n)
    for scale in (1e-8, 1.0, 1e8):
        rho = scale * rng.uniform(0.1, 2.0, n)
        mom = rho * rng.standard_normal(n)
        E = 0.5 * mom**2 / rho + scale * rng.uniform(0.1, 2.0, n)
        yield np.concatenate([rho, mom, E])
    for _ in range(4):
        yield rng.choice([0.0, -0.0], 3 * n)
        yield rng.choice([0.0, -0.0, 1.0, -1.0, np.inf, -np.inf], 3 * n)
        yield 1e300 * rng.standard_normal(3 * n)
        yield np.where(rng.random(3 * n) < 0.3, -0.0, 1e300)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 50, 200])
def test_each_problem_f_matches_the_two_pass_kernel_bit_for_bit(n):
    # the path the integrators call: one problem per id, whose f refills its
    # own buffers from state to state, on the problem's grid and boundary
    adv = make_problem("advection", n_cells=n)
    eul = make_problem("euler", n_cells=n)
    up = upwind_advection(n)
    rng = np.random.default_rng(7000 + n)
    with np.errstate(all="ignore"):
        for q in _reference_states(rng, n):
            u = q[:n]
            _assert_same_bytes(adv.f(0.0, u), _two_pass_divergence(_ghost(u, adv.grid), adv.grid.dx))
            _assert_same_bytes(eul.f(0.0, q), _two_pass_euler_rhs(q, eul.grid))
            _assert_same_bytes(up.f(0.0, u), _upwind_rhs(u, up.grid))


@pytest.mark.parametrize("pid", ["advection", "euler"])
def test_a_problem_f_reuses_its_buffers_but_never_its_results(pid):
    p = make_problem(pid, n_cells=20)
    rng = np.random.default_rng(11)
    a = p.u0 * rng.uniform(0.5, 1.5, p.u0.size)
    b = p.u0[::-1] * rng.uniform(0.5, 1.5, p.u0.size)
    first = p.f(0.0, a)
    kept = first.tobytes()
    second = p.f(0.0, b)
    again = p.f(0.0, a)
    assert first.tobytes() == kept  # the later calls left the first result alone
    assert again.tobytes() == kept == make_problem(pid, n_cells=20).f(0.0, a).tobytes()
    assert second.tobytes() == make_problem(pid, n_cells=20).f(0.0, b).tobytes()
    assert not np.shares_memory(first, second) and not np.shares_memory(first, again)
    # a replaced copy shares f and so its buffers
    copy = replace(p, u0=b)
    assert copy.f is p.f
    assert copy.f(0.0, b).tobytes() == second.tobytes()
    assert copy.f(0.0, a).tobytes() == kept
    # two grids of one id, called in turn, share no constant (each has its
    # own -dx) and no buffer; the two-pass reference also catches a
    # constant that every problem of the id would share
    small = make_problem(pid, n_cells=7)
    c = small.u0 * rng.uniform(0.5, 1.5, small.u0.size)
    d = small.u0[::-1] * rng.uniform(0.5, 1.5, small.u0.size)
    for prob, u in ((p, b), (small, c), (p, a), (small, d), (small, c), (p, b)):
        got = prob.f(0.0, u)
        assert got.tobytes() == make_problem(pid, n_cells=prob.grid.n_cells).f(0.0, u).tobytes()
        if pid == "advection":
            _assert_same_bytes(got, _two_pass_divergence(_ghost(u, prob.grid), prob.grid.dx))
        else:
            _assert_same_bytes(got, _two_pass_euler_rhs(u, prob.grid))


def test_weno5_rhs_refuse_a_state_of_another_size():
    g = Grid1D(4, 0.0, 1.0, "outflow")
    for call in (lambda: advection_rhs(g)(0.0, np.ones(5)), lambda: upwind_rhs(g)(0.0, np.ones(3)),
                 lambda: euler_rhs(g)(0.0, np.ones(11)), lambda: make_problem("euler", n_cells=4).f(0.0, np.ones(4))):
        with pytest.raises(ValueError, match="the grid holds (4|12) state values, got"):
            call()


@pytest.mark.parametrize("boundary", ["periodic", "outflow"])
def test_each_weno5_rhs_makes_one_face_pass_over_all_its_rows(monkeypatch, boundary):
    # each right-hand side binds the face kernel to its buffer once and
    # runs the bound pass; count the values of every pass that runs
    calls = []
    kernel = problems._face_pass

    def counting(v, out):
        run = kernel(v, out)
        return lambda: calls.append(v.size) or run()

    monkeypatch.setattr(problems, "_face_pass", counting)
    g = Grid1D(20, 0.0, 1.0, boundary)
    q = sod_initial(g)
    advection_rhs(g)(0.0, q[:20])
    assert calls == [26]  # 20 cells and 3 ghost cells per side
    euler_rhs(g)(0.0, q)
    assert calls == [26, 6 * 26]  # the f+ and f- rows of rho, mom and E


def test_upwind_euler_step_is_total_variation_stable_at_the_cfl_limit():
    u0 = square_wave_average(GRID)
    tv0 = total_variation(u0)
    u1 = u0 + GRID.dx * upwind_rhs(GRID)(0.0, u0)  # exact shift by one cell
    assert total_variation(u1) <= tv0 + 1e-12


def test_upwind_euler_step_breaks_tvd_beyond_the_cfl_limit():
    u0 = square_wave_average(GRID)
    tv0 = total_variation(u0)
    u2 = u0 + 1.5 * GRID.dx * upwind_rhs(GRID)(0.0, u0)
    assert total_variation(u2) > tv0 + 0.1


# ------------------------------------------------------------------ 1-D Euler


def test_sod_initial_state_is_at_rest_with_the_documented_pressures():
    g = Grid1D(100, 0.0, 1.0, "outflow")
    rho, u, p = _primitives(sod_initial(g))
    assert np.all(rho > 0) and np.all(p > 0)
    assert np.all(u == 0.0)
    assert rho[0] == 1.0 and rho[-1] == 0.125
    assert p[0] == pytest.approx(1.0, rel=1e-14)
    assert p[-1] == pytest.approx(0.1, rel=1e-14)


def test_euler_rhs_vanishes_on_a_uniform_stream():
    g = Grid1D(32, 0.0, 1.0, "outflow")
    q = np.concatenate([np.full(32, 1.2), np.full(32, 0.6), np.full(32, 2.0)])
    assert np.max(np.abs(euler_rhs(g)(0.0, q))) == 0.0


def test_euler_rhs_conserves_mass_and_balances_momentum_at_rest():
    # closed momentum budget: the only forces are the boundary pressures
    g = Grid1D(100, 0.0, 1.0, "outflow")
    r = euler_rhs(g)(0.0, sod_initial(g)).reshape(3, 100)
    assert abs(np.sum(r[0]) * g.dx) < 1e-12
    assert np.sum(r[1]) * g.dx == pytest.approx(1.0 - 0.1, rel=1e-12)


def test_euler_rhs_telescopes_on_a_periodic_grid():
    # no boundary flux: every conserved field sums to zero
    g = Grid1D(64, 0.0, 1.0, "periodic")
    x = g.centers
    rho = 1.0 + 0.5 * (x < 0.5)
    mom = 0.3 * np.sin(2.0 * np.pi * x)
    E = 2.0 + np.cos(2.0 * np.pi * x)
    r = euler_rhs(g)(0.0, np.concatenate([rho, mom, E])).reshape(3, 64)
    assert np.max(np.abs(r)) > 1.0
    assert np.max(np.abs(np.sum(r, axis=1) * g.dx)) < 1e-13


def test_sod_tube_stays_bounded_and_valid():
    prob = replace(make_problem("euler", n_cells=100), t_span=(0.0, 0.1))
    res = integrate_adaptive(prob, resolve("ssp10,4-b3"), make_controller("pid"),
                             1e-6, 1e-6)
    rho, _, p = _primitives(res.u)
    assert np.all(rho > 0) and np.all(p > 0)
    # componentwise reconstruction leaves ~1e-5 ripples, nothing Gibbs-sized
    assert np.all(rho >= 0.125 - 1e-3) and np.all(rho <= 1.0 + 1e-3)
    assert np.all(p >= 0.1 - 1e-3) and np.all(p <= 1.0 + 1e-3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("cell", [(-0.5, 0.1, 1.0), (0.0, 0.0, 1.0), (0.0, 0.3, 1.0), (1.0, 0.0, -1.0)],
                         ids=["rho<0", "rho=0", "rho=0,mom!=0", "p<0"])
def test_euler_rhs_returns_nan_on_an_invalid_state_without_a_warning(cell):
    # the f computes under np.errstate: an invalid state fails the step
    # through NaN, not through a RuntimeWarning
    g = Grid1D(20, 0.0, 1.0, "outflow")
    q = sod_initial(g).reshape(3, 20)
    q[:, 9] = cell
    r = euler_rhs(g)(0.0, q.reshape(-1)).reshape(3, 20)
    assert np.isnan(r[:, 8:11]).all()


def test_euler_max_speed_at_the_sod_state():
    g = Grid1D(100, 0.0, 1.0, "outflow")
    assert euler_max_speed(sod_initial(g)) == pytest.approx(np.sqrt(1.4), rel=1e-14)


def test_euler_max_speed_on_a_moving_state():
    rng = np.random.default_rng(3)
    n = 40
    q = np.concatenate([1.0 + rng.random(n), rng.standard_normal(n), 3.0 + rng.random(n)])
    rho, u, p = _primitives(q)
    want = np.max(np.abs(u) + np.sqrt(GAMMA_AIR * p / rho))
    assert euler_max_speed(q) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------- diagnostics


def test_total_variation_examples():
    assert total_variation(np.array([0.0, 1.0, 0.0])) == pytest.approx(2.0)
    assert total_variation(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0)
    assert total_variation(square_wave_average(GRID)) == pytest.approx(2.0, abs=1e-12)
    assert total_variation(np.array([3.0])) == 0.0
    # an empty profile used to raise IndexError, a 2-D one TypeError
    for bad in (np.array([]), np.zeros((2, 3)), np.float64(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"u must be 1-D with at least one value, "
                                                       f"got shape {bad.shape}")):
            total_variation(bad)


def test_cfl_step_formula_and_edge_cases():
    g = Grid1D(10, 0.0, 1.0)
    assert cfl_step(g, 2.0, 0.5) == pytest.approx(0.025, rel=1e-14)
    assert cfl_step(g, 0.0, 0.5) == np.inf
    with pytest.raises(ValueError):
        cfl_step(g, 1.0, 0.0)
    # a NaN cap used to come back as NaN, which initial_step's min dropped
    for nu, message in ((np.nan, "nu must be a finite number, got nan"),
                        (np.inf, "nu must be a finite number, got inf"), (-1.0, "nu must be > 0, got -1.0")):
        with pytest.raises(ValueError) as exc:
            cfl_step(g, 1.0, nu)
        assert str(exc.value) == message
    # a NaN speed, which euler_max_speed reads on an invalid state, too; a
    # negative speed used to read as a quiescent field (inf), an infinite
    # one as a zero step, which initial_step refused as a bad cfl_bound
    for c_max, message in ((np.nan, "c_max must be a finite number, got nan"),
                           (-1.0, "c_max must be at least 0, got -1.0"),
                           (-1e-300, "c_max must be at least 0, got -1e-300"),
                           (np.inf, "c_max must be a finite number, got inf"),
                           (-np.inf, "c_max must be a finite number, got -inf")):
        with pytest.raises(ValueError) as exc:
            cfl_step(g, c_max, 0.5)
        assert str(exc.value) == message
    assert cfl_step(g, -0.0, 0.5) == np.inf


# ------------------------------------------------------------ initial profiles


def test_square_wave_averages_cover_partial_cells():
    g = Grid1D(10, -1.0, 1.0)
    want = [0.0, 0.0, 0.5, 1.0, 1.0, 1.0, 1.0, 0.5, 0.0, 0.0]
    assert square_wave_average(g) == pytest.approx(want, abs=1e-14)
    assert np.sum(square_wave_average(g)) * g.dx == pytest.approx(1.0, rel=1e-14)


def test_sine_average_is_the_exact_cell_mean():
    assert sine_average(Grid1D(1, 0.0, 0.5))[0] == pytest.approx(2.0 / np.pi, rel=1e-14)
    assert np.sum(sine_average(GRID)) * GRID.dx == pytest.approx(0.0, abs=1e-14)
    assert np.max(np.abs(sine_average(GRID) - np.sin(np.pi * GRID.centers))) < 1e-3


# -------------------------------------------------------------- factory layer


def test_advection_factory_profiles_and_cfl_hint():
    p = make_problem("advection", n_cells=200)
    assert p.u0.size == 200
    assert np.array_equal(p.u0, square_wave_average(p.grid))
    assert p.cfl_hint(p.u0) == pytest.approx(0.5 * 0.01, rel=1e-14)
    # every PDE set-up, exactly: horizon, grid, name and starting-step bound
    setups = [
        (p, (-1.0, 1.0, "periodic"), "advection", 1.0, 0.5),
        (upwind_advection(n_cells=100), (-1.0, 1.0, "periodic"), "upwind", 1.0, 1.0),
        (make_problem("euler", n_cells=200), (0.0, 1.0, "outflow"), "euler", None, 0.5),
    ]
    for q, bounds, name, c, nu in setups:
        assert q.t_span == (0.0, 0.2) and q.name == name
        assert (q.grid.x_min, q.grid.x_max, q.grid.boundary) == bounds
        c = euler_max_speed(q.u0) if c is None else c
        assert q.cfl_hint(q.u0) == cfl_step(q.grid, c, nu)


def test_upwind_factory_allows_the_full_cfl_step():
    p = upwind_advection(n_cells=100)
    assert p.cfl_hint(p.u0) == pytest.approx(p.grid.dx, rel=1e-14)


def test_factories_declare_their_grid():
    assert make_problem("vdp").grid is None
    assert make_problem("advection", n_cells=50).grid == Grid1D(50, -1.0, 1.0, "periodic")
    assert make_problem("euler", n_cells=50).grid == Grid1D(50, 0.0, 1.0, "outflow")
    assert upwind_advection(n_cells=20).grid.boundary == "periodic"


def test_physical_constants_are_not_parameters():
    # gamma, the CFL number and the van der Pol epsilon never vary
    g = Grid1D(8, 0.0, 1.0, "outflow")
    for call in (lambda: make_problem("vdp", eps=0.05), lambda: vdp_rhs(0.0, np.ones(2), eps=0.05),
                 lambda: make_problem("advection", nu=0.4), lambda: make_problem("euler", gamma=1.67),
                 lambda: make_problem("euler", nu=0.4), lambda: sod_initial(g, gamma=1.67),
                 lambda: euler_rhs(g, gamma=1.67),
                 lambda: euler_max_speed(sod_initial(g), gamma=1.67)):
        with pytest.raises(TypeError):
            call()
    assert make_problem("vdp").f is vdp_rhs and make_problem("brusselator").f is brusselator_rhs


def test_each_pde_problem_f_is_its_builders_own_function():
    # as an ODE problem's f is its module function, a PDE problem's f is
    # the function its per-grid builder returns, with no adapter around it
    assert make_problem("advection").f.__qualname__ == "advection_rhs.<locals>.rhs"
    assert make_problem("euler").f.__qualname__ == "euler_rhs.<locals>.rhs"
    assert upwind_advection(8).f.__qualname__ == "upwind_rhs.<locals>.rhs"


def test_make_problem_dispatch():
    assert PROBLEM_IDS == ("vdp", "brusselator", "advection", "euler")
    for pid in PROBLEM_IDS:
        assert make_problem(pid).name == pid
        assert make_problem(pid.upper()).name == pid
        assert make_problem(f" {pid.upper()}\n").name == pid
    with pytest.raises(ValueError):
        make_problem("heat")
