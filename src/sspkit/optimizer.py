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
SciPy's steps in the same IEEE operations, so the package needs no SciPy.
Its state is arrays, every running descent's simplex, values, point count
and cap, and the starts run in lockstep: a round is one iteration of every
descent, whose candidate points are all costed in one batched call, and
masks then take, per descent, the points SciPy's loop would cost.  The
cost has one implementation, over a batch: ``_pair_cost`` reduces the
error measures of ``analysis._pair_measures``, and adds the one manifold
test, which ``objective`` and the candidate screen (all answers at once)
read.  Each row's products are the BLAS calls a lone point's
``ndarray.dot`` makes, so a point costs the same bits in any batch.
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
    """What the search found.  ``n_eval`` counts the points its descents
    took (SciPy's nfev, summed), at most ``budget``; the candidate rows a
    round costs but its steps do not take are not counted."""

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


def _simplices(Y0):
    """SciPy's initial simplex of each row of the (R, k) starts Y0, as an
    (R, k + 1, k) array: vertex 0 is the start, and vertex j + 1 the start
    with coordinate j scaled by 1.05, or set to 0.00025 where it is 0."""
    R, k = Y0.shape
    sim = np.repeat(Y0[:, None, :], k + 1, axis=1)
    j = np.arange(k)
    sim[:, j + 1, j] = np.where(Y0 != 0, 1.05 * Y0, 0.00025)
    return sim


def _nelder_mead_round(cost, sim, fsim, calls, maxfev):
    """One round of R adaptive Nelder-Mead descents in lockstep, costed in
    one call ``cost(Y)`` that maps a (B, k) batch to B floats.

    Descent r has the simplex sim[r] (k + 1 vertices of k unknowns), their
    values fsim[r], ``calls[r]`` points taken of at most ``maxfev[r]`` >= 1.
    The batch holds 4 + k rows per descent, in descent order: its
    reflection, expansion, outside and inside contractions and the k
    shrink vertices, of which the iteration takes those SciPy would cost,
    in that order.  A fresh descent (no point taken, values inf) costs its
    initial simplex instead, vertex 0 in the reflection's row and the
    others in the shrink's.  Returns the new (sim, fsim, calls), the (B,)
    mask of the batch rows taken and the (R,) mask of the descents that
    have ended, out of budget or converged.

    The parameters are Gao & Han's (2012), "Implementing the Nelder-Mead
    simplex algorithm with adaptive parameters", Comput. Optim. Appl. 51,
    and the steps those of SciPy 1.17's ``minimize(method="Nelder-Mead")``
    with adaptive=True, xatol=1e-12, fatol=1e-14 and no bounds, in the same
    IEEE operations, so each descent takes SciPy's points, count and result
    to the bit.  The centroid is SciPy's ``np.add.reduce``, which adds the
    k best vertices to 0.0 in turn (so -0.0 in every row sums to +0.0).
    A point past the budget is not taken, and the step stops there:
    a refused expansion or contraction replaces nothing, and a shrink cut at
    vertex j has written sim[j] but not fsim[j].  The vertices are ordered
    by ``argsort``, per row NumPy's 1-D sort, as SciPy orders them (equal
    values and NaNs, which go last, in its order), an initial simplex twice.
    """
    R, _, k = sim.shape
    chi, psi, sigma = 1 + 2 / k, 0.75 - 1 / (2 * k), 1 - 1 / k
    new = np.flatnonzero(calls == 0)
    xbar = np.add.reduce(sim[:, :-1], axis=1)[:, None] / k
    C = np.empty((R, 4 + k, k))
    # rho = 1 folded away, as 1 * x is x, and x - (-y) is x + y to the bit
    np.subtract(np.array([[2.0], [1 + chi], [1 + psi], [1 - psi]]) * xbar,
                np.array([[1.0], [chi], [psi], [-psi]]) * sim[:, -1:], out=C[:, :4])
    np.add(sim[:, :1], sigma * (sim[:, 1:] - sim[:, :1]), out=C[:, 4:])
    if new.size:                # a fresh descent's vertices take the reflection's and the shrink's rows
        C[new, 0], C[new, 4:] = sim[new, 0], sim[new, 1:]
    f = np.asarray(cost(C.reshape(-1, k)), dtype=float).reshape(R, 4 + k)

    fr, fe, fo, fi = f[:, :4].T
    below = fr[:, None] < fsim[:, (0, -2, -1)]
    contract = ~below[:, 0] & ~below[:, 1]
    outside, inside = contract & below[:, 2], contract & ~below[:, 2]
    want = np.empty((R, 4 + k), dtype=bool)
    want[:, 0], want[:, 1], want[:, 2], want[:, 3] = True, below[:, 0], outside, inside
    want[:, 4:] = (outside & ~(fo <= fr) | inside & ~(fi < fsim[:, -1]))[:, None]
    if new.size:
        want[new, 1:4], want[new, 4:] = False, True
    rank = want.cumsum(axis=1)
    left = (maxfev - calls)[:, None]
    took = want & (rank <= left)
    calls = calls + took.sum(axis=1)

    # the worst vertex gives way to the reflection or the expansion, or to
    # a contraction that shrinks nothing, only where the step took it;
    # the shrink writes sim[j] before its cost is asked
    rows = np.arange(R)
    swap = ~want[:, 4] & (rank[:, 3] <= left[:, 0])
    pick = np.where(contract, 3 - below[:, 2], below[:, 0] & (fe < fr))
    sim, fsim = sim.copy(), fsim.copy()
    sim[:, -1] = np.where(swap[:, None], C[rows, pick], sim[:, -1])
    fsim[:, -1] = np.where(swap, f[rows, pick], fsim[:, -1])
    put = want[:, 4:] & (rank[:, 4:] <= left + 1)
    sim[:, 1:] = np.where(put[:, :, None], C[:, 4:], sim[:, 1:])
    fsim[:, 1:] = np.where(took[:, 4:], f[:, 4:], fsim[:, 1:])
    fsim[new, 0] = fr[new]

    ind = fsim.argsort(axis=1)
    sim, fsim = sim[rows[:, None], ind], fsim[rows[:, None], ind]
    if new.size:                # an initial simplex is ordered twice
        ind = fsim[new].argsort(axis=1)
        sim[new], fsim[new] = sim[new[:, None], ind], fsim[new[:, None], ind]
    # SciPy's tests max|f0 - fj| <= 1e-14 and max|x0 - xj| <= 1e-12, where
    # NaN fails, as in np.max; with the values sorted (NaN last) the first
    # is fk - f0 <= 1e-14, and the second is formed only where it passes
    done = calls >= maxfev
    with np.errstate(invalid="ignore"):                 # inf - inf
        near = ~done & (fsim[:, -1] - fsim[:, 0] <= 1e-14)
    if near.any():
        done |= near & (np.abs(sim[:, 1:] - sim[:, :1]).reshape(R, -1).max(axis=1) <= 1e-12)
    return sim, fsim, calls, took.ravel(), done


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
    coordinates, as a (B,) array: at w = w_part + N y, ``f_max`` of w
    (1e30 for a defective pair, to keep the landscape finite for the
    simplex) plus the quadratic box penalty, which is exactly 0.0 inside
    the box.  N y is one BLAS gemv per row, as ``N.dot(y)`` is."""

    def cost(Y):
        W = w_part + np.matmul(N, Y[:, :, None])[:, :, 0]
        f = f_max(W)
        f[f == math.inf] = 1e30
        penalty = (np.minimum(W, 0.0) ** 2).sum(axis=1) + (np.maximum(W - 1.0, 0.0) ** 2).sum(axis=1)
        return f + _BOX_PENALTY * penalty

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
    adaptive Nelder-Mead of Gao & Han (2012) (``_nelder_mead_round``),
    restarted once from the point it finds.  Each start may take up to
    ``per_start`` points per descent, max(200, budget // seeds), and no
    more than the budget leaves.

    The starts run in lockstep.  A round costs, in one batched call, 4 + k
    rows per running descent (k the null-space dimension): the candidates
    of one whole iteration, or a new descent's initial simplex.  ``n_eval``
    counts only the points the descents take, so the default ssp3,2-b1
    search (k = 2) reports 45,303 and costs 122,124 rows (2.7x) in 578
    rounds.  A start begins while the points of the finished starts plus
    2 * per_start for each running start and for the new one fit within
    the budget, so the budget cannot cut it or a start before it; otherwise
    it waits, and when no start runs it begins alone under what the budget
    leaves.  Every start thus takes the steps, the caps and the random draw
    it would take with the starts run one after another, so ``n_eval``,
    ``w`` and the objective are those of that sequential loop to the bit.
    A round's own NumPy calls cost about what its cost call does, so specs
    that run 5 or fewer starts at a time take 15-45% longer than when each
    round costed one point per start; the default 100 starts take about
    40% less.

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

    per_start = max(200, spec.budget // spec.seeds)
    rng = np.random.default_rng(spec.seed)
    k = N.shape[1]
    found = []                          # best point per start, in start order
    runs = []                           # per descent: [start index, (y, f) and points of its first descent]
    sim, fsim = np.empty((0, k + 1, k)), np.empty((0, k + 1))
    calls, maxfev = np.empty(0, dtype=int), np.empty(0, dtype=int)
    n_eval = finished = 0               # points taken; those of the finished starts
    while True:
        starts = []
        while len(found) < spec.seeds and (
                finished + 2 * per_start * (len(runs) + 1) <= spec.budget
                or not runs and n_eval < spec.budget):
            x0 = rng.dirichlet(np.ones(s))
            starts.append(N.T @ (x0 - w_part))
            runs.append([len(found), None, 0])
            found.append(None)
        if starts:
            sim = np.concatenate([sim, _simplices(np.array(starts))])
            fsim = np.concatenate([fsim, np.full((len(starts), k + 1), math.inf)])
            calls = np.concatenate([calls, np.zeros(len(starts), dtype=int)])
            maxfev = np.concatenate([maxfev, np.full(len(starts), min(per_start, spec.budget - n_eval))])
        if not runs:
            break
        sim, fsim, calls, taken, done = _nelder_mead_round(cost, sim, fsim, calls, maxfev)
        n_eval += int(taken.sum())
        if not done.any():
            continue
        keep = ~done
        for r in np.flatnonzero(done).tolist():
            i, first, points = runs[r]
            y, fy = sim[r, 0].copy(), fsim[r].min()
            if first is None and min(per_start, spec.budget - n_eval) > 0:
                # one adaptive restart from the found point
                runs[r] = [i, (y, fy), int(calls[r])]
                sim[r], fsim[r] = _simplices(y[None])[0], math.inf
                calls[r], maxfev[r], keep[r] = 0, min(per_start, spec.budget - n_eval), True
                continue
            found[i] = first[0] if first is not None and fy >= first[1] - 1e-14 else y
            finished += points + int(calls[r])
        sim, fsim, calls, maxfev = sim[keep], fsim[keep], calls[keep], maxfev[keep]
        runs = [run for run, kept in zip(runs, keep.tolist()) if kept]

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
