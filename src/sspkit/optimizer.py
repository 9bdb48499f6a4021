"""Numerical search for embedded weight vectors.

Two facilities: a feasibility screen that tests a candidate weight vector
against the componentwise SSP conditions at a fixed coefficient r, and a
multistart minimax search over the order-condition manifold for weights
minimizing the stability/error cost.

For a fixed stage matrix A every order condition is linear in the weight
vector, so the equality constraints are eliminated exactly: each start is
projected onto the affine solution manifold and the local search runs in
its null-space coordinates.  Only the box constraint 0 <= w <= 1 needs a
penalty.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
        if self.seeds < 1 or self.budget < 1:
            raise ValueError(f"seeds and budget must be at least 1, got {self.seeds} and {self.budget}")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
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

    The test behind ``analysis.ssp_coefficient_arrays``, at one r: a
    negative coefficient, a singular I + rK or a violated condition makes
    the point infeasible.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    K = analysis._bordered(A, w)
    return K is not None and analysis._ssp_feasible(K, r)


def _cost(oc: analysis.OrderConditions, tau_main, w, p: int) -> float:
    """||F||_inf with F = [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1] of the
    pair with advancing residuals tau_main and embedded weights w, or inf
    when an entry is not finite (a defective pair).  Six Python floats, so
    no array is built per cost evaluation; with every entry finite,
    ``max`` meets no NaN."""
    _, _, a2e, ainfe, b2, binf, c2, cinf = oc.error_norms(tau_main, w, p)
    f = (a2e, ainfe, b2 - 1.0, binf - 1.0, c2 - 1.0, cinf - 1.0)
    if not all(map(math.isfinite, f)):
        return math.inf
    return max(map(abs, f))


def _advancing_order(oc: analysis.OrderConditions, b) -> int:
    """Order p of the advancing weights b, which must lie in 2..4: the
    embedded order p - 1 needs a condition, and the cost trees to p + 1."""
    p = oc.classify(b)
    if not 2 <= p <= 4:
        raise ValueError(f"the weight search needs an advancing method of order 2..4, got order {p}")
    return p


def objective(A, b, w) -> float:
    """Cost ||F||_inf with F = [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1].

    Returns the +inf sentinel when w misses the order constraints of order
    p-1 (p being the advancing order of (A, b)) beyond
    ``analysis.ORDER_TOL``, or when the pair is defective so the C ratios
    diverge.
    """
    A, b = analysis._as_arrays(A, b)
    _, w = analysis._as_arrays(A, w)
    oc = analysis.OrderConditions(A)
    p = _advancing_order(oc, b)
    M, rhs = oc.up_to(p - 1)
    if np.max(np.abs(M @ w - rhs)) > analysis.ORDER_TOL:
        return math.inf
    return _cost(oc, oc.tau(b, p + 1), w, p)


def optimize_embedded(spec: OptimizationSpec) -> OptimizationResult:
    """Multistart Nelder-Mead search for embedded weights.

    Every start draws a random simplex point, projects it onto the affine
    order-condition manifold, and descends on the cost plus a quadratic
    box penalty in the manifold's null-space coordinates.  Candidates are
    kept only if they verify cleanly: order residuals within ORDER_TOL
    after clipping to [0, 1], non-defective at order p (with the
    structural exemptions), and passing the SSP screen when
    ``require_ssp_at`` is set.  With no surviving candidate the result is
    an explicit no-solution report.  Runs are deterministic for a fixed
    ``seed``.
    """
    t = spec.tableau
    A, b = t.A, t.b
    s = t.s
    oc = analysis.OrderConditions(A)
    p = _advancing_order(oc, b)

    M, rhs = oc.up_to(p - 1)
    w_part, *_ = np.linalg.lstsq(M, rhs, rcond=None)  # b meets these rows, so they are consistent
    # null space of the constraint rows
    _, sv, Vt = np.linalg.svd(M)
    tol_sv = max(M.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > tol_sv))
    N = Vt[rank:].T                     # s x k, orthonormal columns

    tau_main = oc.tau(b, p + 1)
    exempt = oc.vacuous(p)
    n_eval = 0

    def cost(y: np.ndarray) -> float:
        nonlocal n_eval
        n_eval += 1
        w = w_part + N @ y
        f = _cost(oc, tau_main, w, p)
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
        best = None
        for _ in range(2):              # one adaptive restart from the found point
            maxfev = min(per_start, spec.budget - n_eval)
            if maxfev <= 0:
                break
            r = minimize(cost, y0, method="Nelder-Mead",
                         options={"maxfev": maxfev, "xatol": 1e-12,
                                  "fatol": 1e-14, "adaptive": True})
            if best is not None and r.fun >= best.fun - 1e-14:
                break
            best, y0 = r, r.x
        w = np.clip(w_part + N @ best.x, 0.0, 1.0)
        if np.max(np.abs(M @ w - rhs)) > analysis.ORDER_TOL:
            continue                    # clipping moved it off the manifold: box-infeasible
        obj = _cost(oc, tau_main, w, p)
        if not math.isfinite(obj):
            continue
        if not oc.non_defective(w, p, exempt).ok:
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
