"""Order, SSP coefficient, stability function/radii, and error measures.

Everything here is a pure function of tableau arrays.  For a fixed stage
matrix A every order condition is linear in the weights, so one engine,
``OrderConditions``, evaluates the rooted trees of ``TREES`` once and
holds, per order q = 1..5, the tree matrix ``phi[q]`` (one row per tree)
and the vector ``g[q]`` of 1/gamma.  Every residual is then
``phi[q] @ w - g[q]``:

* per rooted tree (keys ``t1``, ``t2``, ``t31`` .. ``t59``) -- these feed
  the truncation-error norms;
* per displayed condition in the composite arrangement (keys ``q1``,
  ``q2``, ``q3a``/``q3b``, ``q4a``..``q4d``), each a fixed combination of
  the tree rows of its order -- these decide non-defectiveness, since a
  composite condition can vanish even when no individual tree residual
  does.

The order p of a method is the one ``OrderConditions.classify`` gives:
``analyze_method`` reports it, and the error measures and the
non-defective check are taken at it.  No function here reads a tableau's
claimed ``t.p``, the integrator's design order.

``stability_radii`` is the one entry to the radii of psi: it checks the
coefficients once for its four searches.  The SSP coefficient, the disk
radius and R_psi are suprema of a monotone feasibility test, all found by
the one bisection ``_bisect_sup``.  The two axis radii end where the axis,
cut at the roots of its boundary polynomials, first leaves |psi| <= 1
(``_first_exit``).

The error measures of a pair have one implementation, ``_pair_measures``,
over a batch of embedded weights: ``error_measures`` reads a batch of one
and the weight search's cost (``optimizer._pair_cost``) reduces a batch.

Two bounded per-process memos (``functools.lru_cache``, ``_MEMO_SIZE``
entries each) keep repeated analysis from recomputing what the bytes of
its input already fix; the catalog's 32 pairs share 15 stage matrices and
15 advancing methods:

* ``_engine(A)`` holds one ``OrderConditions`` per stage matrix, keyed on
  the shape and ``A.tobytes()``.  Its arrays are read-only and its vacuous
  sets frozen, so sharing it is safe.  Every engine here and in the
  weight search's cost comes from it.
* ``analyze_method`` takes the advancing side of a report -- p, the SSP
  coefficient and the four radii of psi -- from ``_advancing``, keyed on
  the bytes of (A, b).  It returns immutable values, and each call still
  builds a fresh report; the embedded side is computed per pair.

A hit is exact: a miss builds from the key's own bytes, so a hit returns
what the same functions gave on the same floats.  Bytes are stricter than
values: -0.0 against 0.0, or another NaN payload, only misses.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np
from numpy.polynomial.polynomial import polyadd, polyroots, polyval

from ._args import embedded_pair, integer, pair

__all__ = [
    "TREES",
    "CONDITIONS",
    "OrderConditions",
    "order_condition_residuals",
    "classify_order",
    "is_non_defective",
    "NonDefectiveReport",
    "ssp_coefficient_arrays",
    "stability_polynomial",
    "stability_radii",
    "StabilityRadii",
    "ErrorMeasures",
    "error_measures",
    "stability_region_grid",
    "analyze_method",
]

ORDER_TOL = 1e-10     # largest order-condition residual that counts as satisfied
_FEAS_TOL = 1e-10     # componentwise slack in the SSP feasibility conditions
_BISECT_TOL = 1e-6    # bracket width of the SSP-coefficient and disk-radius bisections
_AM_BISECT_TOL = 1e-8 # bracket width of the absolute-monotonicity bisection
_MOD_SLACK = 1e-12    # |psi| <= 1 + slack + 8 eps sum|a_k||z|^k (rounding) in the three modulus radii
_AM_FLOOR = 1e-12     # a shifted coefficient down to -max(floor, 4 eps x its rounding) counts as >= 0
_TRIM_TOL = 1e-13     # terms of |psi(iy)|^2 - 1 below this share of the largest are roundoff
_MEMO_SIZE = 64       # entries of each per-process memo: engines, advancing reports


@dataclass(frozen=True)
class Tree:
    name: str
    order: int
    gamma: int      # density: right-hand side of the tree condition is 1/gamma
    phi: callable   # (A, c) -> elementary weight vector


# The nine order-5 trees are the standard rooted trees with densities
# {5,10,20,15,30,20,40,60,120}; they are validated against a fifth-order
# method rather than trusted (see tests).
TREES: tuple[Tree, ...] = (
    Tree("t1", 1, 1, lambda A, c: np.ones_like(c)),
    Tree("t2", 2, 2, lambda A, c: c),
    Tree("t31", 3, 3, lambda A, c: c * c),
    Tree("t32", 3, 6, lambda A, c: A @ c),
    Tree("t41", 4, 4, lambda A, c: c ** 3),
    Tree("t42", 4, 8, lambda A, c: c * (A @ c)),
    Tree("t43", 4, 12, lambda A, c: A @ (c * c)),
    Tree("t44", 4, 24, lambda A, c: A @ (A @ c)),
    Tree("t51", 5, 5, lambda A, c: c ** 4),
    Tree("t52", 5, 10, lambda A, c: (c * c) * (A @ c)),
    Tree("t53", 5, 20, lambda A, c: (A @ c) ** 2),
    Tree("t54", 5, 15, lambda A, c: c * (A @ (c * c))),
    Tree("t55", 5, 30, lambda A, c: c * (A @ (A @ c))),
    Tree("t56", 5, 20, lambda A, c: A @ (c ** 3)),
    Tree("t57", 5, 40, lambda A, c: A @ (c * (A @ c))),
    Tree("t58", 5, 60, lambda A, c: A @ (A @ (c * c))),
    Tree("t59", 5, 120, lambda A, c: A @ (A @ (A @ c))),
)


@dataclass(frozen=True)
class Condition:
    name: str
    order: int
    coef: tuple[float, ...]  # combination of the tree conditions of this order, in TREES order


# Composite arrangement of the order conditions through order 4.
CONDITIONS: tuple[Condition, ...] = (
    Condition("q1", 1, (1.0,)),
    Condition("q2", 2, (1.0,)),
    Condition("q3a", 3, (1.0, 0.0)),
    Condition("q3b", 3, (0.5, -1.0)),              # w @ (c^2/2 - Ac) = 0
    Condition("q4a", 4, (1.0, 0.0, 0.0, 0.0)),
    Condition("q4b", 4, (0.0, 0.0, 0.5, -1.0)),    # w @ A(c^2/2 - Ac) = 0
    Condition("q4c", 4, (1 / 6, 0.0, -0.5, 0.0)),  # w @ (c^3/6 - A c^2/2) = 0
    Condition("q4d", 4, (0.5, -1.0, 0.0, 0.0)),    # w @ c(c^2/2 - Ac) = 0
)


@dataclass(frozen=True)
class NonDefectiveReport:
    ok: bool
    residuals: dict[str, float]
    exempt: frozenset[str]


class OrderConditions:
    """The order conditions of a fixed stage matrix A, linear in the weights.

    For q = 1..5, ``phi[q]`` stacks the elementary weight vectors of the
    trees of order q (rows in TREES order, names in ``names[q]``) and
    ``g[q]`` their right-hand sides 1/gamma, so the tree residuals of
    weights w are ``tau(w, q) = phi[q] @ w - g[q]``.  ``conditions[q]``
    is the set deciding non-defectiveness at order q, as
    ``(names, V, rhs)`` for the conditions ``V @ w = rhs``: the composite
    arrangement through order 4, and the trees themselves at order 5,
    which has no displayed arrangement.  Every array is read-only, so
    one engine can serve every caller (``_engine``).  ``vacuous`` keeps its
    frozensets in a dict on the instance, which dies with the engine; a
    cache on the method would keep alive the engines ``_engine`` evicts.
    """

    def __init__(self, A):
        A = np.asarray(A, dtype=float)
        c = A.sum(axis=1)
        self.names, self.phi, self.g, self.conditions, self._vacuous = {}, {}, {}, {}, {}
        for q in range(1, 6):
            trees = [t for t in TREES if t.order == q]
            self.names[q] = tuple(t.name for t in trees)
            self.phi[q] = np.array([t.phi(A, c) for t in trees])
            self.g[q] = np.array([1.0 / t.gamma for t in trees])
            comp = [cd for cd in CONDITIONS if cd.order == q]
            if comp:
                C = np.array([cd.coef for cd in comp])
                self.conditions[q] = (tuple(cd.name for cd in comp), C @ self.phi[q], C @ self.g[q])
            else:
                self.conditions[q] = (self.names[q], self.phi[q], self.g[q])
            for arr in (self.phi[q], self.g[q], *self.conditions[q][1:]):
                arr.setflags(write=False)

    def tau(self, w, q: int) -> np.ndarray:
        """Residuals of the trees of order q; ValueError outside 1..5."""
        return self.phi[integer("order", q, 1, 5)] @ w - self.g[q]

    def up_to(self, q: int) -> tuple[np.ndarray, np.ndarray]:
        """(M, rhs) with one row M @ w = rhs per tree of order <= q;
        ValueError outside 1..5."""
        orders = range(1, integer("order", q, 1, 5) + 1)
        return np.concatenate([self.phi[k] for k in orders]), np.concatenate([self.g[k] for k in orders])

    def classify(self, w) -> int:
        """Largest q <= 5 with every tree residual of order <= q within ORDER_TOL."""
        p = 0
        for q in range(1, 6):
            if not np.all(np.abs(self.tau(w, q)) <= ORDER_TOL):
                break
            p = q
        return p

    def vacuous(self, order: int) -> frozenset[str]:
        """Names of the order-``order`` conditions implied by the lower orders.

        A condition w @ v = rhs is vacuous when v lies in the span of the
        lower-order tree functionals and the same combination of their
        right-hand sides reproduces rhs: every weight vector of order
        ``order - 1`` then satisfies it, so it cannot be violated.  Order 1
        has no lower orders, so none of its conditions is vacuous; an order
        outside 1..5 raises ValueError.
        """
        order = integer("order", order, 1, 5)
        if order not in self._vacuous:
            names = set()
            if order > 1:
                M, rho = self.up_to(order - 1)
                M = M.T
                for name, v, rhs in zip(*self.conditions[order]):
                    x, *_ = np.linalg.lstsq(M, v, rcond=None)
                    span_ok = np.max(np.abs(M @ x - v)) <= ORDER_TOL * max(1.0, np.max(np.abs(v)))
                    if span_ok and abs(x @ rho - rhs) <= ORDER_TOL:
                        names.add(name)
            self._vacuous[order] = frozenset(names)
        return self._vacuous[order]

    def non_defective(self, w, order: int) -> NonDefectiveReport:
        """Whether w violates (beyond ORDER_TOL) every order-``order``
        condition that is not vacuous."""
        exempt = self.vacuous(order)
        names, V, rhs = self.conditions[order]
        residuals = dict(zip(names, (V @ w - rhs).tolist()))
        ok = not any(name not in exempt and abs(r) <= ORDER_TOL for name, r in residuals.items())
        return NonDefectiveReport(ok=ok, residuals=residuals, exempt=exempt)


def _engine(A) -> OrderConditions:
    """The shared engine of the stage matrix A, built once per distinct
    shape and bytes (see the module docstring)."""
    A = np.asarray(A, dtype=float)
    return _engine_of(A.shape, A.tobytes())


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _engine_of(shape, data) -> OrderConditions:
    return OrderConditions(np.frombuffer(data).reshape(shape))


def _row_norms(X):
    """(2-norms, max-norms) of the rows of X: the square root of one BLAS
    ddot of each row with itself, as ``np.linalg.norm`` forms it, and the
    max of |x|, which is NaN exactly when the row holds a NaN."""
    return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]), np.abs(X).max(axis=1)


def _pair_measures(oc, b, p):
    """``measures(W)``: for a C-contiguous (B, s) batch W of embedded
    weights, the (8, B) array of A2, Ainf, A2_emb, Ainf_emb, B2, Binf, C2,
    Cinf (see ``error_measures``) of the pairs (A, b, w), ``oc`` being the
    engine of A and p the advancing order of b.  A ratio with a zero
    denominator is inf, and no NumPy warning is raised.  The stacked
    products ``np.matmul(phi, W[:, :, None])`` and the row dot products
    call, row by row, the BLAS gemv or ddot that ``ndarray.dot`` calls on
    one point, and every other step is the same IEEE operation per row, so
    a row's values are the ones it has alone."""
    tau_main = oc.tau(b, p + 1)
    main = np.concatenate(_row_norms(tau_main[None]))[:, None]     # (A2, Ainf) as a column
    phi_p, g_p, phi_q, g_q = oc.phi[p], oc.g[p], oc.phi[p + 1], oc.g[p + 1]

    def measures(W):
        with np.errstate(all="ignore"):
            Wc = W[:, :, None]
            F = np.empty((8, len(W)))
            F[:2] = F[4:6] = main               # A2, Ainf, then the numerators of B2, Binf
            F[2], F[3] = _row_norms(np.matmul(phi_p, Wc)[:, :, 0] - g_p)
            F[6], F[7] = _row_norms(np.matmul(phi_q, Wc)[:, :, 0] - g_q - tau_main)
            den, ratios = F[[2, 3, 2, 3]], F[4:]
            np.divide(ratios, den, out=ratios, where=den != 0.0)
            ratios[den == 0.0] = math.inf
        return F

    return measures


def _as_arrays(A, w):
    A = np.asarray(A, dtype=float)
    w = np.asarray(w, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or w.ndim != 1 or len(w) != A.shape[0]:
        raise ValueError(f"need a square A and a 1-D weight vector of its size, "
                         f"got shapes {A.shape} and {w.shape}")
    return A, w


def order_condition_residuals(A, w, q_max: int = 4) -> dict[str, float]:
    """Residuals of all order conditions with order <= q_max (1..5).

    Returns a flat map holding both bookkeeping forms: tree keys carry
    ``w @ phi(t) - 1/gamma(t)`` and, for orders <= 4, condition keys carry
    the composite forms ``w @ v - rhs``.
    """
    q_max = integer("q_max", q_max, 1, 5)
    A, w = _as_arrays(A, w)
    oc = _engine(A)
    out = {}
    for q in range(1, q_max + 1):
        out.update(zip(oc.names[q], oc.tau(w, q).tolist()))
    for q in range(1, min(q_max, 4) + 1):
        names, V, rhs = oc.conditions[q]
        out.update(zip(names, (V @ w - rhs).tolist()))
    return out


def classify_order(A, w) -> int:
    """Largest q <= 5 with every residual of order <= q within ORDER_TOL (0 if none)."""
    A, w = _as_arrays(A, w)
    return _engine(A).classify(w)


def _classified(t, most: int) -> int:
    """The classified order of t.b; ValueError naming it outside 1..most."""
    return integer(f"the classified order of {t.id!r}", _engine(t.A).classify(t.b), 1, most)


def is_non_defective(t) -> NonDefectiveReport:
    """Check that the embedded weights violate every order-p condition.

    ``p`` is the classified order of b, 1..5 (ValueError otherwise).  The
    conditions no weight vector can violate (``OrderConditions.vacuous``)
    are exempt.
    """
    return _engine(t.A).non_defective(embedded_pair(t).b_tilde, _classified(t, 5))


def _bisect_sup(feasible, lo: float, hi: float, tol: float) -> float:
    """Supremum of {x in [lo, hi] : feasible(x)} to within tol.

    ``feasible`` is monotone (true up to a threshold, false beyond) and
    is taken as true at ``lo``; ``hi`` itself is returned when feasible.
    """
    if feasible(hi):
        return hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _bordered(A, w):
    """K = [[A, 0], [w^T, 0]], or None when an entry of A or w is below
    -_FEAS_TOL: a positive SSP coefficient requires nonnegative coefficients."""
    A, w = _as_arrays(A, w)
    if np.min(A) < -_FEAS_TOL or np.min(w) < -_FEAS_TOL:
        return None
    s = len(w)
    K = np.zeros((s + 1, s + 1))
    K[:s, :s] = A
    K[s, :s] = w
    return K


def _ssp_feasible(K, r: float) -> bool:
    """Componentwise SSP conditions of the bordered matrix K at coefficient r.

    With M = K (I + rK)^{-1}: M >= 0 entrywise and r M e <= e, each with
    slack _FEAS_TOL.  A singular probe counts as infeasible.
    """
    n = len(K)
    try:
        M = np.linalg.solve((np.eye(n) + r * K).T, K.T).T
    except np.linalg.LinAlgError:
        return False
    if not np.all(np.isfinite(M)) or np.min(M) < -_FEAS_TOL:
        return False
    return bool(np.max(r * (M @ np.ones(n))) <= 1.0 + _FEAS_TOL)


def ssp_coefficient_arrays(A, w) -> float:
    """SSP coefficient of the method (A, w): the supremum of r in [0, 2s]
    passing the componentwise SSP conditions, found by bisection to within
    _BISECT_TOL.  Any negative entry in A or w forces it to 0.
    """
    K = _bordered(A, w)
    if K is None:
        return 0.0
    return _bisect_sup(lambda r: _ssp_feasible(K, r), 0.0, 2.0 * (len(K) - 1), _BISECT_TOL)


def stability_polynomial(A, w) -> np.ndarray:
    """Coefficients (ascending) of psi(z) = 1 + sum_k (w^T A^{k-1} e) z^k.

    A must be strictly lower triangular, hence nilpotent, so the series is
    the exact polynomial; a nonzero entry on or above the diagonal raises
    ValueError.  Only exactly-zero trailing coefficients are trimmed
    (they arise when the last weights vanish); genuine top coefficients of
    a large method can sit far below roundoff scale, e.g. near 1e-18 at
    sixteen stages, yet still shape the polynomial at radius ten.
    """
    A, w = _as_arrays(A, w)
    if np.triu(A).any():
        raise ValueError("psi's series is exact only for a strictly lower triangular A, "
                         "but an entry on or above the diagonal is nonzero")
    s = len(w)
    coeffs = [1.0]
    v = np.ones(s)
    for _ in range(s):
        coeffs.append(float(w @ v))
        v = A @ v
    arr = np.array(coeffs[: s + 1])
    deg = s
    while deg > 0 and arr[deg] == 0.0:
        deg -= 1
    return arr[: deg + 1]


def _eval_noise(coeffs, z):
    """Pointwise bound on the float rounding error of evaluating psi at z.

    Horner noise scales with sum |a_k| |z|^k, which dwarfs any fixed
    slack once the degree and radius climb (e.g. degree 16 at |z| = 12).
    """
    mags = np.abs(np.asarray(coeffs, dtype=float))
    return 8.0 * np.finfo(float).eps * polyval(np.abs(z), mags)


def _bounded_by_one(coeffs, z) -> bool:
    """|psi| <= 1 + 1e-12 (+ rounding noise) at every sample point z."""
    return bool(np.all(np.abs(polyval(z, coeffs)) <= 1.0 + _MOD_SLACK + _eval_noise(coeffs, z)))


def _first_exit(coeffs, crossings, point, cap: float) -> float:
    """Where |psi(point(t))| <= 1 first fails for t in [0, cap], or the cap.

    ``crossings`` are float roots that include every t with
    |psi(point(t))| = 1.  Cut at 0, cap and the real part of each crossing
    in (0, cap), |psi| - 1 keeps one sign on every piece; an extra cut
    never hides a sign change, so a real root that comes back as a
    near-real pair still cuts.  The radius ends at the first piece whose
    midpoint fails ``_bounded_by_one``, whose slack keeps a tangency from
    below inside.
    """
    re = np.real(crossings)
    cuts = sorted({0.0, cap, *re[(re > 0.0) & (re < cap)].tolist()})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if not _bounded_by_one(coeffs, point(0.5 * (lo + hi))):
            return lo
    return cap


def _delta_R(coeffs, cap: float) -> float:
    """Largest gamma <= cap with |psi| <= 1 (+noise slack) on [-gamma, 0],
    from the roots of psi(-x) - 1 and psi(-x) + 1."""
    psi_neg = coeffs * (-1.0) ** np.arange(len(coeffs))  # psi(-x)
    crossings = np.concatenate([polyroots(polyadd(psi_neg, [shift])) for shift in (-1.0, 1.0)])
    return _first_exit(coeffs, crossings, lambda x: -x, cap)


def _delta_I(coeffs, cap: float) -> float:
    """Largest gamma <= cap with |psi| <= 1 + 1e-12 on [0, i*gamma] (0 if none).

    The axis meets |psi| = 1 only at y = sqrt(u) for the roots u of
    Q(u) = |psi(i sqrt(u))|^2 - 1.  Near the origin Q(u) = O(u^k): the
    terms below its lowest genuine one are roundoff and are trimmed, and
    a positive lowest term means the modulus exceeds 1 immediately, so
    the radius is exactly 0.  A constant psi has |psi| == 1 on the whole
    axis and gets the search cap.
    """
    n = len(coeffs)
    # |psi(iy)|^2 as a real polynomial: convolve psi(iy) with its conjugate
    ik = np.array([1j ** k for k in range(n)])
    pos = coeffs * ik
    sq = np.convolve(pos, np.conj(pos)).real  # coefficients in y
    q = sq[::2].copy()                        # odd powers cancel; u = y^2
    q[0] -= 1.0
    scale = max(1.0, np.max(np.abs(q)))
    nz = np.nonzero(np.abs(q) > _TRIM_TOL * scale)[0]
    if len(nz) and q[nz[0]] > 0:
        return 0.0
    crossings = np.sqrt(polyroots(q[nz[0]:] if len(nz) else q).astype(complex))
    return _first_exit(coeffs, crossings, lambda y: 1j * y, cap)


def _delta_C(coeffs, cap: float) -> float:
    """Largest r <= cap with |psi| <= 1 + 1e-12 on the circle |z + r| = r.

    The maximum-modulus principle reduces the disk test to its boundary,
    sampled at 4096 points.  A degree-0 polynomial has constant modulus 1
    and returns the search cap.
    """
    theta = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    ring = np.exp(1j * theta) - 1.0  # unit circle through 0 centered at -1
    return _bisect_sup(lambda r: _bounded_by_one(coeffs, r * ring), 0.0, cap, _BISECT_TOL)


def _taylor_shift(coeffs, x0: float) -> list[tuple[int, int]]:
    """Coefficients of p(x0 + h) in h by repeated synthetic division, each
    as an exact pair (D_j, e_j) meaning D_j / 2**e_j.

    Exact throughout: the alternating sums cancel catastrophically in
    float64 once the degree climbs past ten or so.  Every float is a dyadic
    rational, so with the coefficients a_i = m_i / 2**k over a common k and
    x0 = X / 2**kx, the coefficient of h**j scaled by 2**e_j with
    e_j = k + kx (n - j) is an integer, and the division step
    d[j] += x0 d[j+1] becomes D_j += X D_{j+1} on Python integers: no
    gcd after every operation, as Fractions would take.
    """
    ratios = [c.as_integer_ratio() for c in map(float, coeffs)]
    k = max(den.bit_length() for _, den in ratios) - 1
    X, den = float(x0).as_integer_ratio()
    kx = den.bit_length() - 1
    n = len(ratios) - 1
    d = [num << (k - den.bit_length() + 1 + kx * (n - i)) for i, (num, den) in enumerate(ratios)]
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            d[j] += X * d[j + 1]
    return [(dj, k + kx * (n - j)) for j, dj in enumerate(d)]


def _R_psi(coeffs, cap: float) -> float:
    """Largest r <= cap with all Taylor coefficients of psi at -r nonnegative.

    The shift itself is exact, so the only uncertainty is the float
    rounding already baked into ``coeffs``; each shifted coefficient may
    fall below zero by the larger of _AM_FLOOR and that rounding amplified
    through the same recurrence, which keeps the search from undershooting
    a true threshold radius.  Both shifts share the exponents e_j, and each
    coefficient is compared with its float threshold exactly, by
    cross-multiplying with the threshold's integer ratio.
    """
    eps4 = 4.0 * float(np.finfo(float).eps)

    def feasible(r: float) -> bool:
        d = _taylor_shift(coeffs, -r)
        amp = _taylor_shift(np.abs(coeffs), r)
        for (dj, ej), (mj, _) in zip(d, amp):
            num, den = (-max(eps4 * (mj / (1 << ej)), _AM_FLOOR)).as_integer_ratio()
            if dj * den < num << ej:
                return False
        return True

    if not feasible(0.0):
        return 0.0
    return _bisect_sup(feasible, 0.0, cap, _AM_BISECT_TOL)


@dataclass(frozen=True)
class StabilityRadii:
    delta_R: float
    delta_I: float
    delta_C: float
    R_psi: float


def stability_radii(coeffs) -> StabilityRadii:
    """The four radii of psi (ascending coefficients), each searched on
    [0, 10 * max(1, degree)]; ValueError unless coeffs is a nonempty 1-D
    array of finite numbers, the one check for the four searches."""
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.ndim != 1 or len(coeffs) == 0 or not np.all(np.isfinite(coeffs)):
        raise ValueError(f"psi needs a nonempty 1-D array of finite coefficients, got {coeffs.tolist()}")
    cap = 10.0 * max(1, len(coeffs) - 1)
    return StabilityRadii(*(radius(coeffs, cap) for radius in (_delta_R, _delta_I, _delta_C, _R_psi)))


@dataclass(frozen=True)
class ErrorMeasures:
    A2: float
    Ainf: float
    A2_emb: float
    Ainf_emb: float
    B2: float
    Binf: float
    C2: float
    Cinf: float
    D: float


def error_measures(t) -> ErrorMeasures:
    """Principal error measures of an embedded pair.

    A-measures are norms of the leading truncation-error vectors: order
    p+1 tree residuals for the advancing weights, order p for the
    embedded.  B compares the two leading errors, B2 = A2 / A2_emb.
    C measures the gap between the pairs' leading errors relative to the
    embedded one, and D is the largest coefficient magnitude in the
    extended tableau.  p is the classified order of b, 1..4 as the trees
    stop at order 5 (ValueError otherwise).  Weights whose squares
    overflow give inf or NaN measures and no NumPy warning."""
    p = _classified(embedded_pair(t), 4)
    norms = _pair_measures(_engine(t.A), t.b, p)(t.b_tilde[None])[:, 0].tolist()
    d = max(np.max(np.abs(t.A)), np.max(np.abs(t.b)), np.max(np.abs(t.b_tilde)), np.max(np.abs(t.c)))
    return ErrorMeasures(*norms, D=float(d))


def stability_region_grid(coeffs, re_range=(-12.0, 2.0), im_range=(-8.0, 8.0), nx: int = 201, ny: int = 201):
    """|psi| sampled on a uniform lattice; rows sweep im, columns re.

    Returns (re_vals, im_vals, Z) with Z[j, i] = |psi(re_i + i*im_j)|;
    the |psi| = 1 contour of Z outlines the absolute stability region.
    Raises ValueError unless each range is a pair of finite numbers MIN < MAX
    with a finite width MAX - MIN, which the uniform spacing needs.  Z is
    allocated first, so a lattice too large to hold raises MemoryError
    before any axis is sampled.  A point whose |psi| is not finite reads
    inf, without a NumPy warning: with finite coefficients and a finite z
    the only source is overflow, which in complex arithmetic can also
    leave NaN parts.
    """
    integer("nx", nx, 2)
    integer("ny", ny, 2)
    ends = {}
    for name, given in (("re", re_range), ("im", im_range)):
        lo, hi = ends[name] = pair(f"{name}_range", given)
        if not lo < hi:
            raise ValueError(f"ranges need finite MIN < MAX, got re {re_range}, im {im_range}")
        if math.isinf(hi - lo):
            raise ValueError(f"{name} range {(lo, hi)} is too wide: MAX - MIN overflows")
    Z = np.empty((ny, nx))
    re = np.linspace(*ends["re"], nx)
    im = np.linspace(*ends["im"], ny)
    X, Y = np.meshgrid(re, im)
    with np.errstate(over="ignore", invalid="ignore"):
        np.abs(polyval(X + 1j * Y, coeffs), out=Z)
    Z[~np.isfinite(Z)] = np.inf
    return re, im, Z


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _advancing(shape, a_data, b_data) -> tuple[int, float, StabilityRadii]:
    """(p, SSP coefficient, radii of psi) of the advancing method whose A
    and b have these bytes, through the module's public names."""
    A, b = np.frombuffer(a_data).reshape(shape), np.frombuffer(b_data)
    return (classify_order(A, b), ssp_coefficient_arrays(A, b),
            stability_radii(stability_polynomial(A, b)))


def analyze_method(t) -> dict:
    """Full coefficient report of a pair, as emitted by the analyze command.

    Orders are classified from the coefficients, not read off the catalog
    claims.  The radii and error measures appear under their field names
    in ``StabilityRadii`` and ``ErrorMeasures``.  Both need embedded
    weights, and the measures p in 1..4 and non-defectiveness p >= 1;
    missing entries are None.  The advancing side is analyzed once per
    distinct (A, b) in a process (``_advancing``).
    """
    A, b = _as_arrays(t.A, t.b)
    p, ssp_main, radii = _advancing(A.shape, A.tobytes(), b.tobytes())
    embedded = t.b_tilde is not None
    report = {
        "id": t.id,
        "p": p,
        "p_tilde": classify_order(t.A, t.b_tilde) if embedded else None,
        "ssp_main": ssp_main,
        "ssp_embedded": ssp_coefficient_arrays(t.A, t.b_tilde) if embedded else None,
        **asdict(radii),
    }
    if embedded and 1 <= p <= 4:
        report.update(asdict(error_measures(t)))
    else:
        report.update(dict.fromkeys(f.name for f in fields(ErrorMeasures)))
    report["non_defective"] = is_non_defective(t).ok if embedded and p >= 1 else None
    return report
