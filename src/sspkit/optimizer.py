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
package needs no SciPy.  It is a generator that hands out one point at a
time, so the starts run in lockstep: each round costs the pending point
of every running start in one batched call.  The cost has one
implementation, over a batch: ``_pair_cost`` reduces the error measures
of ``analysis._pair_measures``, and adds the one manifold test, which
``objective`` and the candidate screen (all answers at once) read.  Each
row's products are the BLAS calls a lone point's ``ndarray.dot`` makes,
so a point costs the same bits in any batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from ._args import integer, real
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
    advancing method of ``tableau``.  ValueError unless ``seeds`` and
    ``budget`` are integers >= 1, ``seed`` one >= 0 (a bool is none) and
    ``require_ssp_at`` is None or a finite number >= 0."""

    tableau: EmbeddedTableau
    require_ssp_at: float | None = None  # fixed coefficient for the feasibility screen
    seeds: int = 100
    budget: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.require_ssp_at is not None:
            real("require_ssp_at", self.require_ssp_at, least=0)
        integer("seeds", self.seeds, 1)
        integer("budget", self.budget, 1)
        integer("seed", self.seed, 0)


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
    number r >= 0: a negative coefficient, a singular I + rK or a violated
    condition makes the point infeasible.
    """
    r = real("r", r, least=0)
    K = analysis._bordered(A, w)
    return K is not None and analysis._ssp_feasible(K, r)


class _Budget(Exception):
    """A call the Nelder-Mead budget does not allow."""


def _nelder_mead(x0, maxfev: int):
    """Minimize a cost from x0 by adaptive Nelder-Mead in at most maxfev
    evaluations.  A generator: it yields each point to cost, as a list of
    floats, takes the point's cost by ``send``, and returns the best vertex
    and the least cost value.

    The parameters are Gao & Han's (2012), "Implementing the Nelder-Mead
    simplex algorithm with adaptive parameters", Comput. Optim. Appl. 51,
    for N = len(x0) unknowns.  The steps are those of SciPy 1.17's
    ``minimize(method="Nelder-Mead")`` with adaptive=True, xatol=1e-12,
    fatol=1e-14 and no bounds, in the same IEEE operations and order, so
    every point yielded, the point count and the result are SciPy's to the
    bit.  A point past the budget is neither yielded nor counted, and it
    ends the search with the simplex as it stands.

    The simplex and its values are Python lists of floats.  SciPy's
    centroid ``np.add.reduce(sim[:-1], 0) / N`` adds the rows in turn to
    the identity 0.0, so a coordinate that is -0.0 in every row sums to
    +0.0 here too.  The vertices are ordered by ``np.argsort`` of the
    values, as SciPy orders them: NumPy's sort is not stable, and from 4
    entries on it can order equal values (and NaNs, which go last)
    differently from ``sorted``, which would change the next centroid.
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
        return (yield x)

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
            fsim[k] = yield from f(sim[k])
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
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = [c_exp * a - chi * v for a, v in zip(xbar, worst)]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:      # outside contraction
                    xc = [c_out * a - psi * v for a, v in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    shrink = not fxc <= fxr
                else:                   # inside contraction
                    xc = [c_in * a + psi * v for a, v in zip(xbar, worst)]
                    fxc = yield from f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, N + 1):
                        sim[j] = [u + sigma * (v - u) for u, v in zip(best, sim[j])]
                        fsim[j] = yield from f(sim[j])
        except _Budget:
            pass
        sim, fsim = ordered(sim, fsim)
    return np.array(sim[0]), np.min(fsim)


def _pair_cost(A, b):
    """What the cost of embedded weights for (A, b) needs: the engine
    ``oc`` of A, the advancing order p of b, the rows (M, rhs) of
    ``oc.up_to(p - 1)`` that the weights must meet, ``f_max`` and ``f_obj``.
    p must lie in 2..4: the embedded order p - 1 needs a condition, and the
    cost trees to p + 1.

    Both take a C-contiguous (B, s) batch of weight vectors and raise no
    NumPy warning.  ``f_max`` gives, for each row w, ||F||_inf with F =
    [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1] of the pair (A, b, w), the
    measures being those of ``analysis._pair_measures``, or inf when an
    entry is not finite (a defective pair); ``f_obj`` is inf, too, where
    max|M w - rhs| > ORDER_TOL.  Both reduce batched kernels per row, so a
    row's value is the one it has alone."""
    oc = analysis._engine(A)
    p = oc.classify(b)
    if not 2 <= p <= 4:
        raise ValueError(f"the weight search needs an advancing method of order 2..4, got order {p}")
    measures = analysis._pair_measures(oc, b, p)

    def f_max(W):
        F = measures(W)[2:]                     # A2~, Ainf~, B2, Binf, C2, Cinf
        with np.errstate(all="ignore"):         # a non-finite entry maps to inf
            F[2:] -= 1.0
            f = np.abs(F, out=F).max(axis=0)
            f[f != f] = math.inf                # a NaN entry makes the max NaN, an inf one inf
        return f

    M, rhs = oc.up_to(p - 1)

    def f_obj(W):
        f = f_max(W)
        with np.errstate(all="ignore"):
            f[np.abs(np.matmul(M, W[:, :, None])[:, :, 0] - rhs).max(axis=1) > analysis.ORDER_TOL] = math.inf
        return f

    return oc, p, (M, rhs), f_max, f_obj


def _search_cost(f_max, w_part, N):
    """The search's cost of a C-contiguous (B, k) batch Y of null-space
    coordinates, as a list of B floats: at w = w_part + N y, ``f_max`` of w
    (1e30 for a defective pair, to keep the landscape finite for the
    simplex) plus the quadratic box penalty, which is exactly 0.0 inside
    the box.  N y is one BLAS gemv per row, as ``N.dot(y)`` is."""

    def cost(Y):
        W = w_part + np.matmul(N, Y[:, :, None])[:, :, 0]
        f = f_max(W)
        f[f == math.inf] = 1e30
        penalty = (np.minimum(W, 0.0) ** 2).sum(axis=1) + (np.maximum(W - 1.0, 0.0) ** 2).sum(axis=1)
        return (f + _BOX_PENALTY * penalty).tolist()

    return cost


def objective(A, b, w) -> float:
    """Cost ||F||_inf with F = [A2~, Ainf~, B2-1, Binf-1, C2-1, Cinf-1].

    Returns the +inf sentinel when w misses the order constraints of order
    p-1 (p being the advancing order of (A, b)) beyond
    ``analysis.ORDER_TOL``, or when the pair is defective so the C ratios
    diverge.  On the manifold it is the value the search's cost takes at w.
    """
    A, b = analysis._as_arrays(A, b)
    _, w = analysis._as_arrays(A, w)
    return float(_pair_cost(A, b)[4](np.ascontiguousarray(w)[None])[0])


def optimize_embedded(spec: OptimizationSpec) -> OptimizationResult:
    """Multistart Nelder-Mead search for embedded weights.

    Every start draws a random simplex point, projects it onto the affine
    order-condition manifold, and descends on the cost plus a quadratic
    box penalty in the manifold's null-space coordinates, by the in-house
    adaptive Nelder-Mead of Gao & Han (2012) (``_nelder_mead``), restarted
    once from the point it finds.  Each start may cost up to ``per_start``
    points per descent, max(200, budget // seeds), and no more than the
    budget leaves.

    The starts run in lockstep: each round costs the pending point of every
    running start in one batched call.  A start begins while the points of
    the finished starts plus 2 * per_start for each running start and for
    the new one fit within the budget, so the budget cannot cut it or a
    start before it; otherwise it waits, and when no start runs it begins
    alone under what the budget leaves.  Every start thus takes the steps,
    the caps and the random draw it would take with the starts run one
    after another, so ``n_eval``, ``w`` and the objective are those of that
    sequential loop to the bit.  The batched cost pays NumPy's call
    overhead once per round, so a batch of one costs several times what a
    point costed alone with scalar arithmetic would; only specs of 4 or
    fewer starts and budget-limited tails run batches that small, and the
    default 100 starts run 30 to 50 per round.

    Every start's answer is clipped to [0, 1], all are costed in one call,
    and each is kept, in start order, only with a finite cost (order
    residuals within ORDER_TOL), non-defective at order p (with the
    structural exemptions) and passing the SSP screen when
    ``require_ssp_at`` is set.  With no surviving candidate the result is
    an explicit no-solution report.  Runs are deterministic for a fixed
    ``seed``.
    """
    t = spec.tableau
    A, s = t.A, t.s
    oc, p, (M, rhs), f_max, f_obj = _pair_cost(A, t.b)
    w_part, *_ = np.linalg.lstsq(M, rhs, rcond=None)  # b meets these rows, so they are consistent
    # null space of the constraint rows
    _, sv, Vt = np.linalg.svd(M)
    tol_sv = max(M.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 1.0)
    rank = int(np.sum(sv > tol_sv))
    N = Vt[rank:].T                     # s x k, orthonormal columns
    cost = _search_cost(f_max, w_part, N)

    n_eval = 0
    per_start = max(200, spec.budget // spec.seeds)

    def start(y0):
        """One start's points; returns the best point of its descents."""
        y_best = None
        for _ in range(2):              # one adaptive restart from the found point
            maxfev = min(per_start, spec.budget - n_eval)
            if maxfev <= 0:
                break
            y, fy = yield from _nelder_mead(y0, maxfev)
            if y_best is not None and fy >= f_best - 1e-14:
                break
            y_best, f_best, y0 = y, fy, y
        return y_best

    rng = np.random.default_rng(spec.seed)
    found = []                          # best point per start, in start order
    running = []                        # [start index, generator, pending point, points costed]
    finished = 0                        # points costed by the finished starts
    while True:
        while len(found) < spec.seeds and (
                finished + 2 * per_start * (len(running) + 1) <= spec.budget
                or not running and n_eval < spec.budget):
            x0 = rng.dirichlet(np.ones(s))
            gen = start(N.T @ (x0 - w_part))
            running.append([len(found), gen, next(gen), 0])
            found.append(None)
        if not running:
            break
        values = cost(np.array([run[2] for run in running]))
        n_eval += len(values)
        still = []
        for run, value in zip(running, values):
            run[3] += 1
            try:
                run[2] = run[1].send(value)
                still.append(run)
            except StopIteration as stop:
                found[run[0]] = stop.value
                finished += run[3]
        running = still

    # f_obj is inf where clipping moved an answer off the manifold
    W = np.array([np.clip(w_part + N @ y_best, 0.0, 1.0) for y_best in found])
    candidates = []
    for w, obj in zip(W, f_obj(W).tolist()):
        if not math.isfinite(obj) or not oc.non_defective(w, p).ok:
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
