"""Numerical search for embedded weight vectors.

Two facilities: a feasibility screen that tests a candidate weight vector
against the componentwise SSP conditions at a fixed coefficient r, and a
multistart minimax search over the order-condition manifold for weights
minimizing the stability/error cost.

For a fixed stage matrix A every order condition is linear in the weight
vector, so the equality constraints are eliminated exactly: each start is
projected onto the affine solution manifold and the local search runs in
its null-space coordinates.  Only the box constraint 0 <= w <= 1 needs a
penalty.  The local search is an in-house adaptive Nelder-Mead that takes
SciPy's steps in the same IEEE operations, on Python floats, so the
package needs no SciPy.  The cost has one implementation, the closure
that ``_pair_cost`` builds: ``objective`` returns its value, and the
search evaluates it at every point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import analysis
from .tableau import EmbeddedTableau

__all__ = [
    "OptimizationSpec",
    "OptimizationResult",
    "ssp_feasible",
    "objective",
    "optimize_embedded",
]

_BOX_PENALTY = 1e6


@dataclass(frozen=True)
class OptimizationSpec:
    """Search configuration; the weights sought are one order below the
    advancing method of ``tableau``."""

    tableau: EmbeddedTableau
    require_ssp_at: float | None = None  # fixed coefficient for the feasibility screen
    seeds: int = 100
    budget: int = 200_000
    seed: int = 0

    def __post_init__(self):
        r = self.require_ssp_at
        if r is not None and not (math.isfinite(r) and r >= 0):
            raise ValueError(f"require_ssp_at must be finite and nonnegative, got {r}")
        for name in ("seeds", "budget"):
            v = getattr(self, name)
            if isinstance(v, bool) or not (isinstance(v, numbers.Integral) and v >= 1):
                raise ValueError(f"{name} must be an integer of at least 1, got {v!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class OptimizationResult:
    status: str                     # "ok" or "no-solution"
    w: np.ndarray | None
    objective: float
    residuals: dict[str, float]
    non_defective: bool | None
    n_eval: int


def ssp_feasible(A, w, r: float) -> bool:
    """Componentwise SSP conditions of (A, w) at fixed coefficient r.

    The test behind ``analysis.ssp_coefficient_arrays``, at one finite
    r >= 0: a negative coefficient, a singular I + rK or a violated
    condition makes the point infeasible.
    """
    if not (math.isfinite(r) and r >= 0):
        raise ValueError(f"r must be finite and nonnegative, got {r}")
    K = analysis._bordered(A, w)
    return K is not None and analysis._ssp_feasible(K, r)


def _f_max(a2, ainf, tau_emb, diff) -> float:
    """||F||_inf with F = [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1] of a pair
    whose advancing residuals have the norms (a2, ainf), from the embedded
    residuals and the order-(p+1) difference (``analysis._pair_norms``),
    or inf when an entry is not finite (a defective pair).  Six Python
    floats, so no array is built; with every entry finite, ``max`` meets
    no NaN."""
    _, _, a2e, ainfe, b2, binf, c2, cinf = analysis._pair_norms(a2, ainf, tau_emb, diff)
    f = (a2e, ainfe, b2 - 1.0, binf - 1.0, c2 - 1.0, cinf - 1.0)
    if not all(map(math.isfinite, f)):
        return math.inf
    return max(map(abs, f))


class _Budget(Exception):
    """A call the Nelder-Mead budget does not allow."""


def _nelder_mead(fun, x0, maxfev: int):
    """Minimize fun from x0 by adaptive Nelder-Mead in at most maxfev calls
    of fun; returns the best vertex and the least cost value.

    The parameters are Gao & Han's (2012), "Implementing the Nelder-Mead
    simplex algorithm with adaptive parameters", Comput. Optim. Appl. 51,
    for N = len(x0) unknowns.  The steps are those of SciPy 1.17's
    ``minimize(method="Nelder-Mead")`` with adaptive=True, xatol=1e-12,
    fatol=1e-14 and no bounds, in the same IEEE operations and order, so
    every point evaluated, the call count and the result are SciPy's to
    the bit.  A call past the budget is neither made nor counted, and it
    ends the search with the simplex as it stands.

    The simplex and its values are Python lists of floats, and fun gets
    each point as a new 1-D array.  SciPy's centroid ``np.add.reduce(sim[:-1],
    0) / N`` adds the rows in turn to the identity 0.0, so a coordinate
    that is -0.0 in every row sums to +0.0 here too.  The vertices are
    ordered by ``np.argsort`` of the values, as SciPy orders them: NumPy's
    sort is not stable, and from 4 entries on it can order equal values
    (and NaNs, which go last) differently from ``sorted``, which would
    change the next centroid.
    """
    N = len(x0)
    chi, psi, sigma = 1 + 2 / N, 0.75 - 1 / (2 * N), 1 - 1 / N
    c_exp, c_out, c_in = 1 + chi, 1 + psi, 1 - psi     # rho = 1 folded away: 1 * x is x
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Budget
        calls += 1
        return fun(np.array(x))

    def ordered(sim, fsim):
        ind = np.array(fsim).argsort().tolist()
        return [sim[i] for i in ind], [fsim[i] for i in ind]

    x0 = np.asarray(x0, dtype=float).tolist()
    sim = [x0]
    for k in range(N):
        x = list(x0)
        x[k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
        sim.append(x)
    fsim = [math.inf] * (N + 1)
    try:
        for k in range(N + 1):
            fsim[k] = f(sim[k])
    except _Budget:
        pass
    for _ in range(2):                  # sorted twice, as SciPy does
        sim, fsim = ordered(sim, fsim)

    while calls < maxfev:
        best, f_best = sim[0], fsim[0]
        # NaN fails both tests, as it fails them in SciPy's np.max
        if (all(abs(v - u) <= 1e-12 for x in sim[1:] for v, u in zip(x, best))
                and all(abs(f_best - v) <= 1e-14 for v in fsim[1:])):
            break
        try:
            xbar = [0.0] * N
            for x in sim[:-1]:
                xbar = [a + v for a, v in zip(xbar, x)]
            xbar = [a / N for a in xbar]
            worst = sim[-1]
            xr = [2 * a - v for a, v in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [c_exp * a - chi * v for a, v in zip(xbar, worst)]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = [c_out * a - psi * v for a, v in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:                   # inside contraction
                    xc = [c_in * a + psi * v for a, v in zip(xbar, worst)]
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = [u + sigma * (v - u) for u, v in zip(best, sim[j])]
                        fsim[j] = f(sim[j])
        except _Budget:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), np.min(fsim)


def _pair_cost(A, b):
    """What the cost of embedded weights for (A, b) needs: the engine
    ``oc`` of A, the advancing order p of b, the rows (M, rhs) of
    ``oc.up_to(p - 1)`` that the weights must meet, and ``f_max(w)``,
    ``_f_max`` of the pair (A, b, w).  p must lie in 2..4: the embedded
    order p - 1 needs a condition, and the cost trees to p + 1.  The norms
    of the advancing residuals are formed once, and the products are
    ``ndarray.dot``, the BLAS product that ``@`` reaches."""
    oc = analysis._engine(A)
    p = oc.classify(b)
    if not 2 <= p <= 4:
        raise ValueError(f"the weight search needs an advancing method of order 2..4, got order {p}")
    tau_main = oc.tau(b, p + 1)
    a2, ainf = analysis._norms(tau_main)
    phi_p, g_p, phi_q, g_q = oc.phi[p], oc.g[p], oc.phi[p + 1], oc.g[p + 1]

    def f_max(w) -> float:
        return _f_max(a2, ainf, phi_p.dot(w) - g_p, phi_q.dot(w) - g_q - tau_main)

    return oc, p, oc.up_to(p - 1), f_max


def objective(A, b, w) -> float:
    """Cost ||F||_inf with F = [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1].

    Returns the +inf sentinel when w misses the order constraints of order
    p-1 (p being the advancing order of (A, b)) beyond
    ``analysis.ORDER_TOL``, or when the pair is defective so the C ratios
    diverge.  On the manifold it is the value the search's cost takes at w.
    """
    A, b = analysis._as_arrays(A, b)
    _, w = analysis._as_arrays(A, w)
    _, _, (M, rhs), f_max = _pair_cost(A, b)
    if np.max(np.abs(M @ w - rhs)) > analysis.ORDER_TOL:
        return math.inf
    return f_max(w)


def optimize_embedded(spec: OptimizationSpec) -> OptimizationResult:
    """Multistart Nelder-Mead search for embedded weights.

    Every start draws a random simplex point, projects it onto the affine
    order-condition manifold, and descends on the cost plus a quadratic
    box penalty in the manifold's null-space coordinates, by the in-house
    adaptive Nelder-Mead of Gao & Han (2012) (``_nelder_mead``), restarted
    once from the point it finds.  Candidates are kept only if they verify
    cleanly: order residuals within ORDER_TOL after clipping to [0, 1],
    non-defective at order p (with the structural exemptions), and passing
    the SSP screen when ``require_ssp_at`` is set.  With no surviving
    candidate the result is an explicit no-solution report.  Runs are
    deterministic for a fixed ``seed``.
    """
    t = spec.tableau
    A, s = t.A, t.s
    oc, p, (M, rhs), f_max = _pair_cost(A, t.b)
    w_part, *_ = np.linalg.lstsq(M, rhs, rcond=None)  # b meets these rows, so they are consistent
    # null space of the constraint rows
    _, sv, Vt = np.linalg.svd(M)
    tol_sv = max(M.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > tol_sv))
    N = Vt[rank:].T                     # s x k, orthonormal columns

    n_eval = 0

    def cost(y: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        w = w_part + N.dot(y)
        f = f_max(w)
        if not math.isfinite(f):
            f = 1e30                    # defective: keep the landscape finite for the simplex
        if all(0.0 <= x <= 1.0 for x in w.tolist()):
            return f                    # the penalty is exactly 0.0 here; false for NaN
        return f + _BOX_PENALTY * (np.sum(np.minimum(w, 0.0) ** 2)
                                   + np.sum(np.maximum(w - 1.0, 0.0) ** 2))

    rng = np.random.default_rng(spec.seed)
    per_start = max(200, spec.budget // spec.seeds)
    candidates = []
    for _ in range(spec.seeds):
        if n_eval >= spec.budget:
            break
        x0 = rng.dirichlet(np.ones(s))
        y0 = N.T @ (x0 - w_part)
        y_best = None
        for _ in range(2):              # one adaptive restart from the found point
            maxfev = min(per_start, spec.budget - n_eval)
            if maxfev <= 0:
                break
            y, fy = _nelder_mead(cost, y0, maxfev)
            if y_best is not None and fy >= f_best - 1e-14:
                break
            y_best, f_best, y0 = y, fy, y
        w = np.clip(w_part + N @ y_best, 0.0, 1.0)
        if np.max(np.abs(M @ w - rhs)) > analysis.ORDER_TOL:
            continue                    # clipping moved it off the manifold: box-infeasible
        obj = f_max(w)
        if not math.isfinite(obj):
            continue
        if not oc.non_defective(w, p).ok:
            continue
        if spec.require_ssp_at is not None and not ssp_feasible(A, w, spec.require_ssp_at):
            continue
        candidates.append((obj, tuple(w), w))

    if not candidates:
        return OptimizationResult("no-solution", None, math.inf, {}, None, n_eval)

    candidates.sort(key=lambda cand: (cand[0], cand[1]))
    obj, _, w = candidates[0]
    return OptimizationResult(
        status="ok",
        w=w,
        objective=obj,
        residuals=analysis.order_condition_residuals(A, w, p),
        non_defective=True,             # every candidate passed the check
        n_eval=n_eval,
    )
