"""Test systems: Van der Pol, Brusselator, WENO5 linear advection, WENO5
1-D Euler (Sod shock tube), and a first-order upwind advection operator
used by the TVD property checks.  ``make_problem`` is the one constructor
of the four benchmark problems.

PDE right-hand sides are method-of-lines semi-discretizations over a
finite-volume Grid1D; state vectors hold cell averages (Euler flattens
the three conserved fields into one vector).  The boundary comes from
``Grid1D.boundary`` through one ghost-cell helper (a single ``np.take``),
and both WENO5 right-hand sides share one flux-difference kernel, which
makes one face pass per call over a contiguous buffer of flux rows.  The
kernel works on (3, n) row blocks in place, so a face pass costs a
fixed 37 NumPy calls whatever the buffer's length; each value still sees
the IEEE operations of the term-by-term formula in their order.  The
physical constants never vary: gamma, the WENO5 CFL number and the van
der Pol epsilon are the module constants below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    """Uniform finite-volume grid; cell centers at x_min + (i+1/2)dx."""

    n_cells: int
    x_min: float
    x_max: float
    boundary: str = "periodic"  # or "outflow"

    def __post_init__(self):
        if self.n_cells < 1:
            raise ValueError(f"n_cells must be at least 1, got {self.n_cells}")
        if not self.x_min < self.x_max:
            raise ValueError(f"x_max must exceed x_min, got x_min={self.x_min}, x_max={self.x_max}")
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
# where NumPy returns inf.


def vdp_rhs(t: float, u: np.ndarray) -> np.ndarray:
    # stiff scaling: the initial point [2, -0.6654321] sits on the slow
    # manifold u2 ~ u1/(1 - u1^2), so the whole bracket carries 1/eps
    x, y = u.tolist()
    try:
        x2 = x ** 2
    except OverflowError:
        x2 = math.inf
    return np.array([y, ((1.0 - x2) * y - x) / VDP_EPS])


def brusselator_rhs(t: float, u: np.ndarray) -> np.ndarray:
    x, y = u.tolist()
    return np.array([1.0 + x * x * y - 4.0 * x, 3.0 * x - x * x * y])


# ---------------------------------------------------------------------------
# WENO5 reconstruction

_WENO_EPS = 1e-6
_D = np.array([[0.1], [0.6], [0.3]])  # ideal weights d0, d1, d2 as a column


def _weno5_faces(v: np.ndarray) -> np.ndarray:
    """Left-biased WENO5 values at the right faces of v[2:-2], one per full
    five-cell stencil of the 1-D array v.

    The stencil multiples and the term 13/12 (v[j-1] - 2v[j] + v[j+1])^2,
    which beta0, beta1 and beta2 read at j-1, j and j+1, are formed once
    over the whole array.  The candidates q0..q2 are the rows of one
    (3, n) buffer Q and the smoothness indicators, then the weights, the
    rows of another, B, so each later step is one in-place operation over
    a whole block.  Every element sees the IEEE operations of the textbook
    formula in its order (x*x for x**2, (t0 + t1) + t2 for each sum).
    """
    n = len(v) - 4
    v2, v3, v4, v5, v7, v11 = 2.0 * v, 3.0 * v, 4.0 * v, 5.0 * v, 7.0 * v, 11.0 * v
    s = v[:-2] - v2[1:-1]
    s += v[2:]
    s *= s
    s *= 13.0 / 12.0
    Q = np.empty((3, n))
    np.subtract(v2[:-4], v7[1:-3], out=Q[0])
    Q[0] += v11[2:-2]
    np.subtract(v5[2:-2], v[1:-3], out=Q[1])
    Q[1] += v2[3:-1]
    np.add(v2[2:-2], v5[3:-1], out=Q[2])
    Q[2] -= v[4:]
    Q /= 6.0
    B = np.empty((3, n))
    np.subtract(v[:-4], v4[1:-3], out=B[0])
    B[0] += v3[2:-2]
    np.subtract(v[1:-3], v[3:-1], out=B[1])
    np.subtract(v3[2:-2], v4[3:-1], out=B[2])
    B[2] += v[4:]
    B *= B
    B *= 0.25
    B += np.ndarray((3, n), s.dtype, s, strides=(s.itemsize, s.itemsize))  # rows s[:-2], s[1:-1], s[2:]
    B += _WENO_EPS
    B *= B
    np.divide(_D, B, out=B)  # alpha_k = d_k / (eps + beta_k)^2
    asum = B[0] + B[1]
    asum += B[2]
    B /= asum
    B *= Q
    out = B[0] + B[1]
    out += B[2]
    return out


# ---------------------------------------------------------------------------
# ghost cells and the one WENO5 flux-difference kernel

_N_GHOST = 3


def _ghost(v: np.ndarray, grid: Grid1D) -> np.ndarray:
    """v padded with three ghost cells per side along the last axis, as
    set by grid.boundary, in one take: periodic wraps the indices around
    (also when n_cells < 3), outflow clips them, which copies the edge
    cell."""
    idx = np.arange(-_N_GHOST, v.shape[-1] + _N_GHOST)
    return np.take(v, idx, axis=-1, mode="wrap" if grid.boundary == "periodic" else "clip")


def _weno5_divergence(rows: np.ndarray, dx: float, split: bool = False) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx per flux row, from a contiguous buffer of
    ghost-padded flux rows (a 1-D array is one row).

    The faces i-1/2 (i = 0..n) take the left-biased WENO5 state of each
    row; the face kernel runs once over the whole buffer, and a strided
    view drops the faces whose stencil straddles two rows.  With split,
    the buffer holds the f+ rows and then the f- rows reversed along x,
    so the left-biased state of a reversed f- row is the mirrored
    right-biased state of f-, and each face adds the two.
    """
    m = rows.shape[-1]
    k = rows.size // m
    flat = _weno5_faces(rows.reshape(-1))
    face = np.ndarray((k, m - 5), flat.dtype, flat, strides=(m * flat.itemsize, flat.itemsize))
    if split:
        face = face[: k // 2] + face[k // 2 :, ::-1]
    return (face[:, 1:] - face[:, :-1]) / -dx


# ---------------------------------------------------------------------------
# advection semi-discretizations


def advection_rhs(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """WENO5 upwind du/dt for u_t + u_x = 0 (wave speed +1)."""
    return _weno5_divergence(_ghost(u, grid), grid.dx).reshape(-1)


def upwind_rhs(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """First-order upwind du/dt; forward Euler is TVD up to dt = dx."""
    ug = _ghost(u, grid)
    return (ug[_N_GHOST:-_N_GHOST] - ug[_N_GHOST - 1 : -_N_GHOST - 1]) / -grid.dx


# ---------------------------------------------------------------------------
# 1-D Euler with global Lax-Friedrichs splitting and componentwise WENO5


def _velocity_pressure(rho, mom, E):
    """Velocity u = mom/rho and pressure p = (gamma - 1)(E - mom*u/2)."""
    u = mom / rho
    return u, (GAMMA_AIR - 1.0) * (E - 0.5 * mom * u)


def euler_rhs(q_flat: np.ndarray, grid: Grid1D) -> np.ndarray:
    """du/dt of the flat (rho, mom, E) state under global Lax-Friedrichs
    splitting, f+- = (F +- alpha q)/2 with alpha the largest |u| + c.

    The ghost-padded flux F fills the first three rows of one (6, m)
    buffer and F - alpha q, reversed along x, the last three; F + alpha q
    is then formed in place and one halving of the whole buffer leaves f+
    and the reversed f- rows that one face pass reads.
    """
    qg = _ghost(q_flat.reshape(3, grid.n_cells), grid)
    rho, mom, E = qg
    rows = np.empty((6, qg.shape[-1]))
    F = rows[:3]
    # invalid states (rho or p <= 0) propagate NaN and fail the step
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        u, p = _velocity_pressure(rho, mom, E)
        F[0] = mom
        np.multiply(mom, u, out=F[1])
        F[1] += p
        np.add(E, p, out=F[2])
        F[2] *= u
        alpha = float(np.max(np.abs(u) + np.sqrt(GAMMA_AIR * p / rho)))
    aq = alpha * qg
    np.subtract(F, aq, out=rows[3:, ::-1])
    F += aq
    rows *= 0.5
    return _weno5_divergence(rows, grid.dx, split=True).reshape(-1)


# ---------------------------------------------------------------------------
# diagnostics


def total_variation(u: np.ndarray) -> float:
    """Total variation of a periodic profile, the wrap-around jump included."""
    return float(np.sum(np.abs(np.diff(u)))) + float(abs(u[0] - u[-1]))


def euler_max_speed(q_flat: np.ndarray) -> float:
    """Largest |u| + c over the cells of a flat (rho, mom, E) state."""
    rho, mom, E = np.asarray(q_flat, dtype=float).reshape(3, -1)
    u, p = _velocity_pressure(rho, mom, E)
    return float(np.max(np.abs(u) + np.sqrt(GAMMA_AIR * p / rho)))


def cfl_step(grid: Grid1D, c_max: float, nu: float) -> float:
    """dt = nu*dx/c_max; a quiescent field (c_max = 0) returns inf."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    if c_max <= 0:
        return math.inf
    return nu * grid.dx / c_max


# ---------------------------------------------------------------------------
# initial profiles as exact cell averages


def square_wave_average(grid: Grid1D) -> np.ndarray:
    """Cell averages of the indicator of [-0.5, 0.5]."""
    xl = grid.edges[:-1]
    xr = grid.edges[1:]
    return np.clip((np.minimum(xr, 0.5) - np.maximum(xl, -0.5)) / grid.dx, 0.0, 1.0)


# ---------------------------------------------------------------------------
# problem factories: make_problem is the one public constructor of the four
# benchmark problems; each private builder takes only n_cells, which the
# two ODEs ignore


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


def _advection(n_cells: int) -> OdeSystem:
    grid = Grid1D(n_cells, -1.0, 1.0, "periodic")
    return OdeSystem(
        f=lambda t, u: advection_rhs(u, grid),
        t_span=(0.0, 0.2),
        u0=square_wave_average(grid),
        cfl_hint=lambda u: cfl_step(grid, 1.0, CFL_DEFAULT),
        name="advection",
        grid=grid,
    )


def upwind_advection(n_cells: int = 200) -> OdeSystem:
    grid = Grid1D(n_cells, -1.0, 1.0, "periodic")
    return OdeSystem(
        f=lambda t, u: upwind_rhs(u, grid),
        t_span=(0.0, 0.2),
        u0=square_wave_average(grid),
        cfl_hint=lambda u: cfl_step(grid, 1.0, 1.0),
        name="upwind",
        grid=grid,
    )


def sod_initial(grid: Grid1D) -> np.ndarray:
    x = grid.centers
    rho = np.where(x < 0.5, 1.0, 0.125)
    mom = np.zeros_like(x)
    E = np.where(x < 0.5, 1.0, 0.1) / (GAMMA_AIR - 1.0)
    return np.concatenate([rho, mom, E])


def _euler(n_cells: int) -> OdeSystem:
    grid = Grid1D(n_cells, 0.0, 1.0, "outflow")
    return OdeSystem(
        f=lambda t, q: euler_rhs(q, grid),
        t_span=(0.0, 0.2),
        u0=sod_initial(grid),
        cfl_hint=lambda q: cfl_step(grid, euler_max_speed(q), CFL_DEFAULT),
        name="euler",
        grid=grid,
    )


_BUILDERS = {"vdp": _vdp, "brusselator": _brusselator, "advection": _advection, "euler": _euler}
PROBLEM_IDS = tuple(_BUILDERS)


def make_problem(problem_id: str, n_cells: int = 200) -> OdeSystem:
    """The benchmark problem ``problem_id`` (read case-insensitively), on
    ``n_cells`` cells for the two PDEs; ValueError for an unknown id."""
    build = _BUILDERS.get(problem_id.lower())
    if build is None:
        raise ValueError(f"unknown problem id {problem_id!r}")
    return build(n_cells)
