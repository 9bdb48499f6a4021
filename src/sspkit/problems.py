"""Test systems: Van der Pol, Brusselator, WENO5 linear advection, WENO5
1-D Euler (Sod shock tube), and a first-order upwind advection operator
used by the TVD property checks.  ``make_problem`` is the one constructor
of the four benchmark problems, and one set-up builds the three PDE ones.

PDE right-hand sides are method-of-lines semi-discretizations over a
finite-volume Grid1D; state vectors hold cell averages (Euler flattens
the three conserved fields into one vector).  Each has one form, built
once per grid: ``advection_rhs(grid)``, ``euler_rhs(grid)`` and
``upwind_rhs(grid)`` return f(t, u), which is the f of the problem on
that grid.  The boundary comes from ``Grid1D.boundary`` through one
ghost-index rule, applied with one ``ndarray.take(index, out=...,
mode="clip")``.  Both WENO5 right-hand sides share one flux-difference
kernel, which makes one face pass per call over a contiguous buffer of
flux rows (``_face_pass``).  A WENO5 f owns that buffer and every view
it reads, and refills them on each call, so one f runs in one thread at
a time; every call returns a new array.

At 200 cells most of an f's time is the cost of making its NumPy calls,
not their arithmetic, so every kernel makes each call in one form: each
constant operand is a read-only 0-d float64 array made once (the fixed
numbers as module constants, -dx once per grid), which a ufunc takes as
it is where it would convert a Python float again on every call; the
ufuncs are closure locals; and each output is passed positionally.  On
a shared 2-CPU Linux VM (minima of interleaved timeit runs) this took
the advection f from 25 to 19 us, of which 14 us is the call cost of a
1-cell grid, and the Euler f from 68 to 57 us, of which 27 us.

The physical constants never vary: gamma, the WENO5 CFL number and the
van der Pol epsilon are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._args import integer, read_id, real
from .integrator import OdeSystem

__all__ = [
    "Grid1D",
    "vdp_rhs",
    "brusselator_rhs",
    "advection_rhs",
    "upwind_rhs",
    "euler_rhs",
    "total_variation",
    "cfl_step",
    "upwind_advection",
    "make_problem",
    "PROBLEM_IDS",
]

GAMMA_AIR = 7.0 / 5.0  # ratio of specific heats
CFL_DEFAULT = 0.5      # CFL number of the WENO5 problems' starting step
VDP_EPS = 0.1          # van der Pol stiffness parameter


@dataclass(frozen=True)
class Grid1D:
    """Uniform finite-volume grid; cell centers at x_min + (i+1/2)dx.
    ValueError unless n_cells is an integer >= 1 and x_min < x_max are finite
    numbers with a finite width x_max - x_min."""

    n_cells: int
    x_min: float
    x_max: float
    boundary: str = "periodic"  # or "outflow"

    def __post_init__(self):
        object.__setattr__(self, "n_cells", integer("n_cells", self.n_cells, 1))
        if not real("x_min", self.x_min) < real("x_max", self.x_max):
            raise ValueError(f"x_max must exceed x_min, got x_min={self.x_min}, x_max={self.x_max}")
        if math.isinf(self.x_max - self.x_min):
            raise ValueError(f"x_max - x_min must be finite, got x_min={self.x_min}, x_max={self.x_max}")
        if self.boundary not in ("periodic", "outflow"):
            raise ValueError(f"unknown boundary {self.boundary!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_cells

    @property
    def centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    @property
    def edges(self) -> np.ndarray:
        return self.x_min + np.arange(self.n_cells + 1) * self.dx


# ---------------------------------------------------------------------------
# ODE right-hand sides


# Both compute in Python floats, which cost less than NumPy scalars and
# round the same: ``x ** 2`` is libm pow either way (``x * x`` can differ
# from it in the last bit), except that a Python pow that overflows raises
# where NumPy returns inf.  Both return the two floats as a list, not an
# array: every caller stores f's value into a stage row or converts it
# with ``np.asarray``, and a row takes a list as it is.


def vdp_rhs(t: float, u: np.ndarray) -> list[float]:
    # stiff scaling: the initial point [2, -0.6654321] sits on the slow
    # manifold u2 ~ u1/(1 - u1^2), so the whole bracket carries 1/eps
    x, y = u.tolist()
    try:
        x2 = x ** 2
    except OverflowError:
        x2 = math.inf
    return [y, ((1.0 - x2) * y - x) / VDP_EPS]


def brusselator_rhs(t: float, u: np.ndarray) -> list[float]:
    x, y = u.tolist()
    return [1.0 + x * x * y - 4.0 * x, 3.0 * x - x * x * y]


# ---------------------------------------------------------------------------
# WENO5 reconstruction


def _const(x) -> np.ndarray:
    """x as a read-only float64 array (0-d for a number)."""
    a = np.array(x, dtype=float)
    a.flags.writeable = False
    return a


_TWO, _THREE, _FOUR, _FIVE, _SIX, _SEVEN, _ELEVEN = map(_const, (2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 11.0))
_QUARTER, _HALF, _THIRTEEN_TWELFTHS = map(_const, (0.25, 0.5, 13.0 / 12.0))
_WENO_EPS = _const(1e-6)
_D = _const([[0.1], [0.6], [0.3]])  # ideal weights d0, d1, d2 as a column


def _face_pass(v: np.ndarray, out: np.ndarray) -> Callable[[], None]:
    """The WENO5 face kernel bound to the 1-D buffer v: each call of the
    returned function writes into out the left-biased WENO5 values at the
    right faces of v[2:-2], one per full five-cell stencil of v.

    The stencil multiples and the term 13/12 (v[j-1] - 2v[j] + v[j+1])^2,
    which beta0, beta1 and beta2 read at j-1, j and j+1, are formed once
    over the whole buffer.  The candidates q0..q2 are the rows of one
    (3, n) buffer Q and the smoothness indicators, then the weights, the
    rows of another, B, so each later step is one operation over a whole
    block.  Every element sees the IEEE operations of the textbook formula
    in its order (x*x for x**2, (t0 + t1) + t2 for each sum).  The buffers
    and every view a pass reads are made here, once, so a pass is 34 ufunc
    calls into those buffers and allocates nothing.
    """
    n = v.size - 4
    v2, v3, v4, v5, v7, v11 = np.empty((6, v.size))
    s = np.empty(v.size - 2)
    s_rows = np.ndarray((3, n), s.dtype, s, strides=(s.itemsize, s.itemsize))  # s[:-2], s[1:-1], s[2:]
    Q = np.empty((3, n))
    B = np.empty((3, n))
    q0, q1, q2 = Q
    b0, b1, b2 = B
    asum = np.empty(n)
    # x_j is x[j : j + n]: stencil cell j of every face
    v_0, v_1, v_3, v_4 = v[:-4], v[1:-3], v[3:-1], v[4:]
    v2_0, v2_2, v2_3, v3_2, v4_1, v4_3 = v2[:-4], v2[2:-2], v2[3:-1], v3[2:-2], v4[1:-3], v4[3:-1]
    v5_2, v5_3, v7_1, v11_2 = v5[2:-2], v5[3:-1], v7[1:-3], v11[2:-2]
    v_lo, v2_mid, v_hi = v[:-2], v2[1:-1], v[2:]
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide

    def run() -> None:
        multiply(_TWO, v, v2)
        multiply(_THREE, v, v3)
        multiply(_FOUR, v, v4)
        multiply(_FIVE, v, v5)
        multiply(_SEVEN, v, v7)
        multiply(_ELEVEN, v, v11)
        subtract(v_lo, v2_mid, s)
        add(s, v_hi, s)
        multiply(s, s, s)
        multiply(s, _THIRTEEN_TWELFTHS, s)
        subtract(v2_0, v7_1, q0)
        add(q0, v11_2, q0)
        subtract(v5_2, v_1, q1)
        add(q1, v2_3, q1)
        add(v2_2, v5_3, q2)
        subtract(q2, v_4, q2)
        divide(Q, _SIX, Q)
        subtract(v_0, v4_1, b0)
        add(b0, v3_2, b0)
        subtract(v_1, v_3, b1)
        subtract(v3_2, v4_3, b2)
        add(b2, v_4, b2)
        multiply(B, B, B)
        multiply(B, _QUARTER, B)
        add(B, s_rows, B)
        add(B, _WENO_EPS, B)
        multiply(B, B, B)
        divide(_D, B, B)  # alpha_k = d_k / (eps + beta_k)^2
        add(b0, b1, asum)
        add(asum, b2, asum)
        divide(B, asum, B)
        multiply(B, Q, B)
        add(b0, b1, out)
        add(out, b2, out)

    return run


# ---------------------------------------------------------------------------
# ghost cells and the one WENO5 flux-difference kernel

_N_GHOST = 3


def _ghost_index(grid: Grid1D) -> np.ndarray:
    """The cell each of the n_cells + 6 ghost-padded cells copies, as set
    by grid.boundary: periodic wraps the indices around (also when
    n_cells < 3), outflow clips them, which copies the edge cell."""
    idx = np.arange(-_N_GHOST, grid.n_cells + _N_GHOST)
    return idx % grid.n_cells if grid.boundary == "periodic" else np.clip(idx, 0, grid.n_cells - 1)


def _state(q, size: int) -> np.ndarray:
    """q as a float array of ``size`` values; ValueError otherwise."""
    q = np.asarray(q, dtype=float)
    if q.size != size:
        raise ValueError(f"the grid holds {size} state values, got {q.size}")
    return q


def _weno5_divergence(rows: np.ndarray, dx: float, split: bool = False) -> Callable[[], np.ndarray]:
    """A function that returns -(F_{i+1/2} - F_{i-1/2})/dx per flux row,
    as a new flat array, from what the (k, m) buffer ``rows`` of
    ghost-padded flux rows holds when it is called.

    The faces i-1/2 (i = 0..n) take the left-biased WENO5 state of each
    row; the face kernel makes one pass over the whole buffer, and a
    strided view drops the faces whose stencil straddles two rows.  With
    split, the buffer holds the f+ rows and then the f- rows reversed
    along x, so the left-biased state of a reversed f- row is the
    mirrored right-biased state of f-, and each face adds the two.
    """
    k, m = rows.shape
    flat = np.empty(rows.size - 4)
    faces = _face_pass(rows.reshape(-1), flat)
    face = np.ndarray((k, m - 5), flat.dtype, flat, strides=(m * flat.itemsize, flat.itemsize))
    if split:
        k //= 2
        plus, minus_rev = face[:k], face[k:, ::-1]
        face = np.empty((k, m - 5))
    hi, lo = face[:, 1:], face[:, :-1]
    diff = np.empty((k, m - 6))
    diff_flat = diff.reshape(-1)
    neg_dx = _const(-dx)
    add, subtract, divide = np.add, np.subtract, np.divide

    def divergence() -> np.ndarray:
        faces()
        if split:
            add(plus, minus_rev, face)
        subtract(hi, lo, diff)
        return divide(diff_flat, neg_dx)

    return divergence


# ---------------------------------------------------------------------------
# advection semi-discretizations


def advection_rhs(grid: Grid1D) -> Callable[[float, np.ndarray], np.ndarray]:
    """WENO5 upwind du/dt = f(t, u) on grid for u_t + u_x = 0 (wave speed
    +1); f refills buffers of its own on each call."""
    index = _ghost_index(grid)
    ug = np.empty(index.size)
    divergence = _weno5_divergence(ug[None], grid.dx)
    n = grid.n_cells

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        _state(u, n).take(index, out=ug, mode="clip")
        return divergence()

    return rhs


def upwind_rhs(grid: Grid1D) -> Callable[[float, np.ndarray], np.ndarray]:
    """First-order upwind du/dt = f(t, u) on grid; forward Euler is TVD up
    to dt = dx."""
    index = _ghost_index(grid)
    n = grid.n_cells
    ug = np.empty(index.size)
    hi, lo = ug[_N_GHOST:-_N_GHOST], ug[_N_GHOST - 1 : -_N_GHOST - 1]
    neg_dx = _const(-grid.dx)
    subtract, divide = np.subtract, np.divide

    def rhs(t: float, u: np.ndarray) -> np.ndarray:
        _state(u, n).take(index, out=ug, mode="clip")
        diff = subtract(hi, lo)
        return divide(diff, neg_dx, diff)

    return rhs


# ---------------------------------------------------------------------------
# 1-D Euler with global Lax-Friedrichs splitting and componentwise WENO5

_GAMMA, _GAMMA_M1 = _const(GAMMA_AIR), _const(GAMMA_AIR - 1.0)


def _velocity_pressure(rho, mom, E, u=None, p=None):
    """Velocity u = mom/rho and pressure p = (gamma - 1)(E - mom*u/2),
    written into the arrays u and p when they are given."""
    u = np.divide(mom, rho, u)
    p = np.multiply(_HALF, mom, p)
    np.multiply(p, u, p)
    np.subtract(E, p, p)
    np.multiply(_GAMMA_M1, p, p)
    return u, p


def _max_speed(rho, u, p, speed=None, c=None, alpha=None):
    """Largest |u| + c, c = sqrt(gamma p / rho) the sound speed, using the
    arrays speed and c as work space and written into the 0-d array alpha
    when they are given."""
    c = np.multiply(_GAMMA, p, c)
    np.divide(c, rho, c)
    np.sqrt(c, c)
    speed = np.abs(u, speed)
    np.add(speed, c, speed)
    return speed.max(out=alpha)


def euler_rhs(grid: Grid1D) -> Callable[[float, np.ndarray], np.ndarray]:
    """du/dt = f(t, q) on grid of the flat (rho, mom, E) state q under global
    Lax-Friedrichs splitting, f+- = (F +- alpha q)/2 with alpha the largest
    |u| + c; f refills buffers of its own on each call.

    The ghost-padded flux F fills the first three rows of one (6, m)
    buffer and F - alpha q, reversed along x, the last three; F + alpha q
    is then formed in place and one halving of the whole buffer leaves f+
    and the reversed f- rows that one face pass reads.
    """
    n = grid.n_cells
    index = _ghost_index(grid) + n * np.arange(3)[:, None]  # (rho, mom, E) rows of the flat state
    m = index.shape[1]
    qg = np.empty((3, m))
    aq = np.empty((3, m))
    rho, mom, E = qg
    u, p, speed, c = np.empty((4, m))
    rows = np.empty((6, m))
    F, minus_rev = rows[:3], rows[3:, ::-1]
    F0, F1, F2 = F
    alpha = np.empty(())
    divergence = _weno5_divergence(rows, grid.dx, split=True)
    size = 3 * n
    copyto, add, subtract, multiply = np.copyto, np.add, np.subtract, np.multiply

    def rhs(t: float, q_flat: np.ndarray) -> np.ndarray:
        _state(q_flat, size).take(index, out=qg, mode="clip")
        # invalid states (rho or p <= 0) propagate NaN and fail the step
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            _velocity_pressure(rho, mom, E, u, p)
            copyto(F0, mom)
            multiply(mom, u, F1)
            add(F1, p, F1)
            add(E, p, F2)
            multiply(F2, u, F2)
            _max_speed(rho, u, p, speed, c, alpha)
        multiply(alpha, qg, aq)
        subtract(F, aq, minus_rev)
        add(F, aq, F)
        multiply(rows, _HALF, rows)
        return divergence()

    return rhs


# ---------------------------------------------------------------------------
# diagnostics


def total_variation(u: np.ndarray) -> float:
    """Total variation of a periodic profile, the wrap-around jump included;
    ValueError unless u is 1-D with at least one value."""
    if np.ndim(u) != 1 or np.size(u) == 0:
        raise ValueError(f"u must be 1-D with at least one value, got shape {np.shape(u)}")
    return float(np.sum(np.abs(np.diff(u)))) + float(abs(u[0] - u[-1]))


def euler_max_speed(q_flat: np.ndarray) -> float:
    """Largest |u| + c over the cells of a flat (rho, mom, E) state."""
    rho, mom, E = np.asarray(q_flat, dtype=float).reshape(3, -1)
    return float(_max_speed(rho, *_velocity_pressure(rho, mom, E)))


def cfl_step(grid: Grid1D, c_max: float, nu: float) -> float:
    """dt = nu*dx/c_max for finite numbers nu > 0 and c_max >= 0; ValueError
    otherwise.  A quiescent field (c_max = 0) returns inf."""
    nu, c_max = real("nu", nu, above=0), real("c_max", c_max, least=0)
    if c_max == 0:
        return math.inf
    return nu * grid.dx / c_max


# ---------------------------------------------------------------------------
# initial profiles as exact cell averages


def square_wave_average(grid: Grid1D) -> np.ndarray:
    """Cell averages of the indicator of [-0.5, 0.5]."""
    xl = grid.edges[:-1]
    xr = grid.edges[1:]
    return np.clip((np.minimum(xr, 0.5) - np.maximum(xl, -0.5)) / grid.dx, 0.0, 1.0)


def sod_initial(grid: Grid1D) -> np.ndarray:
    x = grid.centers
    rho = np.where(x < 0.5, 1.0, 0.125)
    mom = np.zeros_like(x)
    E = np.where(x < 0.5, 1.0, 0.1) / (GAMMA_AIR - 1.0)
    return np.concatenate([rho, mom, E])


# ---------------------------------------------------------------------------
# problem factories: make_problem is the one public constructor of the four
# benchmark problems, whose builders take only n_cells (the ODEs ignore
# it); _pde is the one set-up of every PDE problem, upwind_advection too,
# so a PDE builder picks only grid, operator, profile, speed, nu and name


def _vdp(n_cells: int) -> OdeSystem:
    return OdeSystem(
        f=vdp_rhs,
        t_span=(0.0, 2.0),
        u0=np.array([2.0, -0.6654321]),
        name="vdp",
    )


def _brusselator(n_cells: int) -> OdeSystem:
    return OdeSystem(
        f=brusselator_rhs,
        t_span=(0.0, 20.0),
        u0=np.array([1.01, 3.0]),
        name="brusselator",
    )


def _pde(grid: Grid1D, rhs, u0, max_speed, nu: float, name: str) -> OdeSystem:
    return OdeSystem(f=rhs(grid), t_span=(0.0, 0.2), u0=u0(grid),
                     cfl_hint=lambda u: cfl_step(grid, max_speed(u), nu), name=name, grid=grid)


def _advection(n_cells: int) -> OdeSystem:
    grid = Grid1D(n_cells, -1.0, 1.0, "periodic")
    return _pde(grid, advection_rhs, square_wave_average, lambda u: 1.0, CFL_DEFAULT, "advection")


def upwind_advection(n_cells: int = 200) -> OdeSystem:
    """advection's grid and square wave under upwind_rhs, TVD up to nu = 1."""
    grid = Grid1D(n_cells, -1.0, 1.0, "periodic")
    return _pde(grid, upwind_rhs, square_wave_average, lambda u: 1.0, 1.0, "upwind")


def _euler(n_cells: int) -> OdeSystem:
    grid = Grid1D(n_cells, 0.0, 1.0, "outflow")
    return _pde(grid, euler_rhs, sod_initial, euler_max_speed, CFL_DEFAULT, "euler")


_BUILDERS = {"vdp": _vdp, "brusselator": _brusselator, "advection": _advection, "euler": _euler}
PROBLEM_IDS = tuple(_BUILDERS)


def make_problem(problem_id: str, n_cells: int = 200) -> OdeSystem:
    """The benchmark problem ``problem_id`` (a string, read in any case
    with surrounding whitespace stripped), on ``n_cells`` cells for the
    two PDEs; ValueError for an unknown id, and for an ``n_cells`` that is
    not an integer >= 1, whatever the id (the ODEs ignore the value).  An advection or euler problem comes from
    ``_pde``: its f is ``advection_rhs(grid)`` or ``euler_rhs(grid)``,
    which refills buffers of its own, so it must not run in two threads at
    once (a ``dataclasses.replace`` copy shares it); sspkit's commands and
    ``run_bench`` build a problem per run, in processes when parallel.
    """
    build = _BUILDERS.get(read_id("problem_id", problem_id))
    if build is None:
        raise ValueError(f"unknown problem id {problem_id!r}")
    return build(integer("n_cells", n_cells, 1))
