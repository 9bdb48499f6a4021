"""Embedded explicit RK stepping: dual-solution steps, the weighted error
norm, starting step-size selection, the adaptive accept/reject loop, and a
fixed-step driver for convergence studies.

The solution is always advanced with the higher-order weights b (local
extrapolation); the embedded weights enter only through the error estimate.
The fixed-step driver steps with ``rk_step``; an adaptive run takes every
attempt with one ``_attempt`` kernel built for the run, the same to the
bit as ``rk_step`` followed by ``error_norm``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable

import numpy as np

from ._args import embedded_pair, pair, real
from .controller import ControllerState
from .tableau import EmbeddedTableau

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

    from .problems import Grid1D

__all__ = [
    "OdeSystem",
    "IntegrationResult",
    "StiffnessError",
    "BudgetError",
    "rk_step",
    "error_norm",
    "initial_step",
    "integrate_adaptive",
    "integrate_fixed",
]

MAX_ATTEMPTS = 10_000_000
# largest state whose solutions and norm _attempt forms over Python floats:
# on a 2-CPU x86-64 VM an ssp2,2-b2 attempt on u' = -u took 5-9 µs from 1 to
# 16 components against 11-12 µs with the NumPy forms, about even at 24 and
# slower from 32
_SMALL_STATE = 16


class StiffnessError(RuntimeError):
    """Step size collapsed below the resolvable scale at the current time."""


class BudgetError(RuntimeError):
    """Attempted-step budget exhausted before reaching the final time."""


@dataclass
class OdeSystem:
    """Right-hand side u' = f(t, u) with its time span and initial state,
    a 1-D array (the PDE problems flatten their fields).

    f returns an array-like of u's shape, as SciPy's ``solve_ivp`` takes
    it: an array, or a list of floats, as the ODE problems return (a stage
    row takes a list as it is).  A value of another shape is refused,
    by ``initial_step`` at the first call of an adaptive run and at the
    first step of ``integrate_fixed``, where a stage row would broadcast it.

    cfl_hint, when present, maps a state vector to a stability-motivated
    step bound > 0 (inf for none); it only caps the starting step, the
    error controller owns the step afterwards.  grid is the finite-volume
    grid of a PDE problem (None for an ODE).
    """

    f: Callable[[float, np.ndarray], ArrayLike]
    t_span: tuple[float, float]
    u0: np.ndarray
    cfl_hint: Callable[[np.ndarray], float] | None = None
    name: str = ""
    grid: Grid1D | None = None


@dataclass
class IntegrationResult:
    t: float
    u: np.ndarray
    n_accepted: int
    n_rejected: int
    n_fev: int
    # (t, dt, err, accepted) per attempt; None unless the run asked for it
    step_log: list | None = None

    @property
    def n_attempts(self) -> int:
        return self.n_accepted + self.n_rejected


def rk_step(
    tab: EmbeddedTableau,
    f: Callable,
    t_n: float,
    u_n: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray | None]:
    """One explicit RK step: (u_next from b, u_hat from b_tilde).

    The two solutions share the s stage evaluations; u_hat is None when
    the tableau carries no embedded weights.  u_n is a 1-D array and is
    only read.  Each stage sum and each solution is one row-vector
    product, ``A[i, :i].dot(k[:i]) * dt`` and ``b.dot(k) * dt``.
    ``ndarray.dot`` reaches the BLAS matrix-vector kernel that
    ``np.tensordot`` calls, so the result is the same to the bit; on a
    2-CPU x86-64 VM a product costs 0.40-0.45 µs for 2 components and
    0.82 µs for 200, against 0.80-0.93 and 1.43 µs for ``@``.  Scaling by
    dt after the product is the same IEEE multiply as before it.  The two
    solutions stay two products: one ``(2, s) @ k`` product is a
    matrix-matrix kernel, whose summation order changes the last bit of
    most results.
    """
    A, c = tab.A, tab.c.tolist()
    k = np.empty((tab.s,) + u_n.shape)
    k[0] = f(t_n + c[0] * dt, u_n)
    for i in range(1, tab.s):
        k[i] = f(t_n + c[i] * dt, u_n + A[i, :i].dot(k[:i]) * dt)
    u_next = u_n + tab.b.dot(k) * dt
    if tab.b_tilde is None:
        return u_next, None
    return u_next, u_n + tab.b_tilde.dot(k) * dt


def error_norm(
    u_n: np.ndarray,
    u_next: np.ndarray,
    u_hat: np.ndarray,
    atol: float,
    rtol: float,
) -> float:
    """Max norm of (u_next - u_hat)/sc, sc = atol + max(|u_n|,|u_next|)*rtol.

    The three states share one shape.  A NaN in any of them propagates,
    as ``np.maximum`` and ``ndarray.max`` do; a zero scale, which needs
    atol <= 0, gives inf for a defect and NaN for none.
    """
    sc = atol + np.maximum(np.abs(u_n), np.abs(u_next)) * rtol
    return float((np.abs(u_next - u_hat) / sc).max())


def _attempt(
    tab: EmbeddedTableau,
    f: Callable,
    n: int,
    atol: float,
    rtol: float,
) -> Callable[[float, np.ndarray, float], tuple[list | np.ndarray, float]]:
    """``attempt(t, u, h) -> (u_next, err)`` for states of n components,
    the same to the bit as ``rk_step`` followed by ``error_norm`` (the
    sign and payload of a NaN aside).

    One (s, n) stage buffer and its views ``k[:i]``, a 0-d float64 step
    array, the rows A[i, :i] and the abscissae ``tab.c.tolist()`` are
    taken here, once per run; an attempt overwrites the buffer and returns
    no part of it.  Each attempt writes h into the step array once, and
    each stage sum is the product ``x = A[i, :i].dot(k[:i])`` scaled by
    that array and added to u in place, the IEEE operations of
    ``u + A[i, :i].dot(k[:i]) * h`` without converting the Python float h
    again per stage.  The stage sums and both solutions stay
    ``ndarray.dot`` products: OpenBLAS's matrix-vector kernel fuses the
    multiply-add, so a sequential Python sum would change the last bit of
    most products.  Only the final pass depends on n.  Above
    ``_SMALL_STATE`` components the solutions are the NumPy forms
    ``u + b.dot(k) * h``, normed by ``error_norm``, and u_next is an array.
    Up to it both solutions ``u + x * h`` and the norm are formed in one
    pass over Python floats, with the IEEE operations of the NumPy
    expressions (abs, max, ``*``, ``+``, ``-``, ``/``), and u_next is a
    list, so the caller builds an array only for a step that stands.  A
    NaN in u makes u_next NaN there, so the ratio is NaN whichever scale is
    taken, and a NaN ratio is kept, as ``ndarray.max`` keeps it (Python's
    ``max`` would drop it).  The scale is never zero, since
    ``integrate_adaptive`` requires atol > 0.
    """
    A, c = tab.A, tab.c.tolist()
    b, b_tilde = tab.b, tab.b_tilde
    k = np.empty((tab.s, n))
    H = np.empty(())
    c0 = c[0]
    stages = tuple((i, c[i], A[i, :i], k[:i]) for i in range(1, tab.s))
    add, multiply = np.add, np.multiply
    large = n > _SMALL_STATE

    def attempt(t: float, u: np.ndarray, h: float) -> tuple[list | np.ndarray, float]:
        H[...] = h
        k[0] = f(t + c0 * h, u)
        for i, c_i, row, head in stages:
            x = row.dot(head)
            multiply(x, H, x)
            add(u, x, x)
            k[i] = f(t + c_i * h, x)
        if large:
            u_next = u + b.dot(k) * h
            return u_next, error_norm(u, u_next, u + b_tilde.dot(k) * h, atol, rtol)
        u_next = []
        err = -math.inf
        for a, x, y in zip(u.tolist(), b.dot(k).tolist(), b_tilde.dot(k).tolist()):
            x = a + x * h
            y = a + y * h
            u_next.append(x)
            a, m = abs(a), abs(x)
            r = abs(x - y) / (atol + (a if a > m else m) * rtol)
            if r > err or r != r:
                err = r
        return u_next, err

    return attempt


def _rms(v: np.ndarray, sc: np.ndarray) -> float:
    """RMS of v / sc; inf, without a warning, when a square overflows."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.mean((v / sc) ** 2)))


def _initial_state(problem: OdeSystem) -> tuple[float, float, np.ndarray]:
    """The time span (t0, T) as floats and a float copy of problem.u0;
    ValueError unless the ends are finite numbers with t0 < T and u0 is 1-D
    with at least one component."""
    t0, T = pair("t_span", problem.t_span)
    if not t0 < T:
        raise ValueError(f"t_span must be finite with t0 < T, got {problem.t_span}")
    u = np.asarray(problem.u0, dtype=float).copy()
    if u.ndim != 1:
        raise ValueError(f"u0 must be a 1-D array, got shape {u.shape}")
    if u.size == 0:
        raise ValueError("u0 must have at least one component, got an empty array")
    return t0, T, u


def _refuse_misshapen(value, u: np.ndarray) -> None:
    """ValueError unless the value f returned at the state u has u's shape;
    a stage row would broadcast a scalar or a length-1 value silently."""
    shape = np.shape(value)
    if shape != u.shape:
        raise ValueError(f"f(t, u) returned shape {shape} for a state u of shape {u.shape}")


def initial_step(
    f: Callable,
    t0: float,
    u0: np.ndarray,
    p: int,
    atol: float,
    rtol: float,
    cfl_bound: float | None = None,
) -> float:
    """Starting step from the magnitudes of u0, f, and a Euler-probe
    estimate of f', capped by the CFL bound when one is supplied; a bound
    is a number > 0, and inf caps nothing.  ValueError
    when f(t0, u0) does not have u0's shape."""
    cfl_bound = None if cfl_bound is None else real("cfl_bound", cfl_bound, above=0, inf=True)
    u0 = np.asarray(u0, dtype=float)
    f0 = np.asarray(f(t0, u0), dtype=float)
    _refuse_misshapen(f0, u0)
    if not np.all(np.isfinite(f0)):
        raise StiffnessError("right-hand side not finite at the initial state")
    with np.errstate(over="ignore"):    # the scale may overflow to inf, as _rms's squares may
        sc = atol + np.abs(u0) * rtol
    d0 = _rms(u0, sc)
    d1 = _rms(f0, sc)
    if d0 < 1e-5 or d1 < 1e-5 or not (math.isfinite(d0) and math.isfinite(d1)):
        h0 = 1e-6                       # 0.01 * d0 / d1 would be 0, inf or nan
    else:
        h0 = 0.01 * d0 / d1
    u1 = u0 + h0 * f0
    f1 = np.asarray(f(t0 + h0, u1), dtype=float)
    if not np.all(np.isfinite(f1)):
        h1 = max(1e-6, h0 * 1e-3)
    else:
        d2 = _rms(f1 - f0, sc) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / (p + 1))
    dt0 = min(100 * h0, h1)
    if cfl_bound is not None:
        dt0 = min(dt0, cfl_bound)
    return dt0


def integrate_adaptive(
    problem: OdeSystem,
    tab: EmbeddedTableau,
    controller: ControllerState,
    atol: float,
    rtol: float,
    *,
    log: bool = False,
) -> IntegrationResult:
    """Accept/reject loop: a step stands iff its error norm is <= 1.

    The run reads only ``controller.kind``: it steps with a fresh
    ``ControllerState`` of that kind and leaves the caller's object as it
    was, so every run starts from the same warm-up history.
    The starting step comes from ``initial_step``, capped by the
    problem's ``cfl_hint`` when it has one.  The final step is truncated
    to land on T exactly (not a rejection).  ``n_fev`` counts every call
    of ``problem.f``: s per attempted step plus the two of
    ``initial_step``.
    Every attempt is taken by one ``_attempt`` kernel built for the run.
    With ``log=True`` the result's ``step_log`` lists
    ``(t, dt, err, accepted)`` for every attempt; otherwise no log is
    built and ``step_log`` is None.
    The step underflows when it falls below ``100 * eps * max(|t0|, |T|,
    1)``, a floor fixed for the run (t stays in [t0, T) at the check).
    The controller's four methods are bound once per run and called once
    per attempt, as its class defines them when the run starts.
    The attempt loop runs under one ``np.errstate(over="ignore",
    invalid="ignore")`` per run, so an attempt that overflows is rejected
    by its non-finite err without a NumPy warning; this also silences f's
    own overflow and invalid-value warnings inside the loop.
    Raises ValueError, before any call of f, unless the method has embedded
    weights, atol > 0, rtol >= 0 and the ends of the time span are finite
    numbers with t0 < T, u0 is 1-D and nonempty and the ``cfl_hint``
    bound, when there is one, is > 0, and at the first call of f (in
    ``initial_step``) when f(t0, u0) does not have u0's shape;
    StiffnessError on step underflow (a NaN step included) and
    BudgetError past ``MAX_ATTEMPTS`` attempted steps, the module
    constant as it reads when the run starts.
    """
    embedded_pair(tab)
    atol, rtol = real("atol", atol, above=0), real("rtol", rtol, least=0)
    f = problem.f
    t0, T, u = _initial_state(problem)
    t = t0
    cfl = problem.cfl_hint(u) if problem.cfl_hint is not None else None
    dt = initial_step(f, t, u, tab.p, atol, rtol, cfl)
    max_attempts = MAX_ATTEMPTS

    attempt = _attempt(tab, f, u.size, atol, rtol)
    ctl = ControllerState(controller.kind)
    propose, clamp = ctl.propose_factor, ctl.clamp
    on_accept, on_reject = ctl.on_accept, ctl.on_reject
    step_log: list[tuple[float, float, float, bool]] | None = [] if log else None
    n_acc = 0
    n_rej = 0
    # t stays in [t0, T) at the check, so |t| never raises the underflow floor
    dt_floor = 100.0 * float(np.finfo(float).eps) * max(abs(t0), abs(T), 1.0)
    p_tilde = tab.p_tilde

    with np.errstate(over="ignore", invalid="ignore"):  # once per run: entering costs ~1.3 us
        while t < T:
            # written as "not >=" so that a NaN step fails it too
            if not dt >= dt_floor:
                raise StiffnessError(
                    f"step size {dt:.3e} underflowed at t = {t:.6g} "
                    f"({n_acc} accepted, {n_rej} rejected)"
                )
            if n_acc + n_rej >= max_attempts:
                raise BudgetError(
                    f"exceeded {max_attempts} attempted steps at t = {t:.6g}"
                )
            truncated = dt >= T - t
            dt_try = T - t if truncated else dt
            u_next, err = attempt(t, u, dt_try)
            accepted = err <= 1.0
            if log:
                step_log.append((t, dt_try, err, accepted))
            # the estimate tracks the embedded solution's local error, so the
            # controller exponents normalize by the embedded order
            beta = propose(err, p_tilde)
            if accepted:
                on_accept(err)
                t = T if truncated else t + dt_try
                u = np.asarray(u_next)
                n_acc += 1
            else:
                on_reject()
                n_rej += 1
            dt = clamp(dt_try, beta)

    return IntegrationResult(
        t=t,
        u=u,
        n_accepted=n_acc,
        n_rejected=n_rej,
        n_fev=tab.s * (n_acc + n_rej) + 2,  # initial_step calls f at u0 and at its Euler probe
        step_log=step_log,
    )


def integrate_fixed(
    problem: OdeSystem,
    tab: EmbeddedTableau,
    dt: float,
    *,
    callback: Callable[[float, np.ndarray], None] | None = None,
) -> np.ndarray:
    """Uniform stepping with the advancing weights only; the last step ends
    at T (shortened to it, or stretched by under 1e-9 dt when (T - t0)/dt
    is that close above a whole number).  callback(t, u) fires at t0 and
    after every step (total-variation monitoring and the like).  Raises
    ValueError, before any call of f or callback, unless the time span has
    finite ends with t0 < T, u0 is 1-D and nonempty and dt > 0 is a finite
    number with a step count (T - t0)/dt of at most ``MAX_ATTEMPTS``,
    the module constant as it reads when the run starts; ValueError at the
    first step, whose stages check every value of f, when f returns a
    shape other than its state's."""
    t0, T, u = _initial_state(problem)
    dt = real("dt", dt, above=0)
    n_steps = np.ceil((T - t0) / dt - 1e-9)     # inf when the ratio overflows
    max_steps = MAX_ATTEMPTS
    if n_steps > max_steps:
        raise ValueError(f"dt = {dt} takes {n_steps:.6g} steps, more than MAX_ATTEMPTS = {max_steps}")
    tab = replace(tab, b_tilde=None)  # no embedded solution to form and drop
    f = problem.f

    def checked(t, v):
        out = f(t, v)
        _refuse_misshapen(out, v)
        return out

    if callback is not None:
        callback(t0, u)
    t = t0
    for i in range(1, int(n_steps) + 1):
        t_next = T if i == n_steps else min(t0 + i * dt, T)
        u, _ = rk_step(tab, checked if i == 1 else f, t, u, t_next - t)
        t = t_next
        if callback is not None:
            callback(t, u)
    return u
