"""Test systems: Van der Pol, Brusselator, WENO5 linear advection, WENO5
1-D Euler (Sod shock tube), and a first-order upwind advection operator
used by the TVD property checks.  ``make_problem`` is the one constructor
of the four benchmark problems.

PDE right-hand sides are method-of-lines semi-discretizations over a
finite-volume Grid1D; state vectors hold cell averages (Euler flattens
the three conserved fields into one vector).  The boundary comes from
``Grid1D.boundary`` through one ghost-cell helper, and both WENO5
right-hand sides share one flux-difference kernel, which makes one face
pass per call.  The physical
constants never vary: gamma, the WENO5 CFL number and the van der Pol
epsilon are the module constants below.
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
_D0, _D1, _D2 = 0.1, 0.6, 0.3


def _weno5_faces(v: np.ndarray) -> np.ndarray:
    """Left-biased WENO5 values at the right faces of v[2:-2], one per full
    five-cell stencil of the 1-D array v.  The stencil multiples and the
    term 13/12 (v[j-1] - 2v[j] + v[j+1])^2, which beta0, beta1 and beta2
    read at j-1, j and j+1, are formed once over the whole array."""
    v2, v3, v4, v5, v7, v11 = 2.0 * v, 3.0 * v, 4.0 * v, 5.0 * v, 7.0 * v, 11.0 * v
    s = 13.0 / 12.0 * (v[:-2] - v2[1:-1] + v[2:]) ** 2
    q0 = (v2[:-4] - v7[1:-3] + v11[2:-2]) / 6.0
    q1 = (v5[2:-2] - v[1:-3] + v2[3:-1]) / 6.0
    q2 = (v2[2:-2] + v5[3:-1] - v[4:]) / 6.0
    b0 = s[:-2] + 0.25 * (v[:-4] - v4[1:-3] + v3[2:-2]) ** 2
    b1 = s[1:-1] + 0.25 * (v[1:-3] - v[3:-1]) ** 2
    b2 = s[2:] + 0.25 * (v3[2:-2] - v4[3:-1] + v[4:]) ** 2
    a0 = _D0 / (_WENO_EPS + b0) ** 2
    a1 = _D1 / (_WENO_EPS + b1) ** 2
    a2 = _D2 / (_WENO_EPS + b2) ** 2
    asum = a0 + a1 + a2
    return (a0 / asum) * q0 + (a1 / asum) * q1 + (a2 / asum) * q2


# ---------------------------------------------------------------------------
# ghost cells and the one WENO5 flux-difference kernel

_N_GHOST = 3


def _ghost(v: np.ndarray, grid: Grid1D) -> np.ndarray:
    """v padded with three ghost cells per side along the last axis, as
    set by grid.boundary: periodic wraps around (also when n_cells < 3),
    outflow copies the edge cell."""
    if grid.boundary == "periodic":
        idx = np.arange(-_N_GHOST, v.shape[-1] + _N_GHOST)
        return np.take(v, idx, axis=-1, mode="wrap")
    left = np.repeat(v[..., :1], _N_GHOST, axis=-1)
    right = np.repeat(v[..., -1:], _N_GHOST, axis=-1)
    return np.concatenate([left, v, right], axis=-1)


def _weno5_divergence(fp: np.ndarray, dx: float, fm: np.ndarray | None = None) -> np.ndarray:
    """-(F_{i+1/2} - F_{i-1/2})/dx per flux row, from ghost-padded split fluxes.

    The faces i-1/2 (i = 0..n) take the left-biased WENO5 state of f+
    and, when given, the mirrored right-biased state of f-: the
    left-biased state of f- reversed along x.  The f+ rows and reversed
    f- rows share one contiguous buffer, so the face kernel runs once per
    call; a strided view drops the faces whose stencil straddles two rows.
    """
    m = fp.shape[-1]
    rows = fp.reshape(-1, m) if fm is None else np.concatenate([fp, fm[:, ::-1]])
    flat = _weno5_faces(rows.reshape(-1))
    face = np.ndarray((len(rows), m - 5), flat.dtype, flat, strides=(m * flat.itemsize, flat.itemsize))
    if fm is not None:
        face = face[: len(fp)] + face[len(fp) :, ::-1]
    return -(face[:, 1:] - face[:, :-1]) / dx


# ---------------------------------------------------------------------------
# advection semi-discretizations


def advection_rhs(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """WENO5 upwind du/dt for u_t + u_x = 0 (wave speed +1)."""
    return _weno5_divergence(_ghost(u, grid), grid.dx).reshape(-1)


def upwind_rhs(u: np.ndarray, grid: Grid1D) -> np.ndarray:
    """First-order upwind du/dt; forward Euler is TVD up to dt = dx."""
    ug = _ghost(u, grid)
    return -(ug[_N_GHOST:-_N_GHOST] - ug[_N_GHOST - 1 : -_N_GHOST - 1]) / grid.dx


# ---------------------------------------------------------------------------
# 1-D Euler with global Lax-Friedrichs splitting and componentwise WENO5


def _velocity_pressure(rho, mom, E):
    """Velocity u = mom/rho and pressure p = (gamma - 1)(E - mom*u/2)."""
    u = mom / rho
    return u, (GAMMA_AIR - 1.0) * (E - 0.5 * mom * u)


def euler_rhs(q_flat: np.ndarray, grid: Grid1D) -> np.ndarray:
    qg = _ghost(q_flat.reshape(3, grid.n_cells), grid)
    rho, mom, E = qg
    # invalid states (rho or p <= 0) propagate NaN and fail the step
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        u, p = _velocity_pressure(rho, mom, E)
        F = np.stack([mom, mom * u + p, (E + p) * u])
        alpha = float(np.max(np.abs(u) + np.sqrt(GAMMA_AIR * p / rho)))
    fp = 0.5 * (F + alpha * qg)
    fm = 0.5 * (F - alpha * qg)
    return _weno5_divergence(fp, grid.dx, fm).reshape(-1)


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
