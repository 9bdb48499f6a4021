"""Butcher tableaus for embedded explicit Runge-Kutta pairs.

The catalog collects optimal strong-stability-preserving (SSP) explicit
methods of orders 2, 3 and 4 together with embedded weight vectors one
order lower, plus two classical non-SSP pairs for comparison.  All
coefficients are assembled from exact rationals and converted to float
once, so structural identities (row sums, weight sums) hold to roundoff.
``resolve`` is the one public way to a catalog tableau: it checks the
stage count of the family once, runs the family's private builder, and
builds each id once per process.  Derived tableaux are
``dataclasses.replace`` copies.  Nothing that follows from the pair is
passed in; it is derived once, when the tableau is built: the abscissae
c = A e, the stage count s, the stage data ``rk_step`` reads (c as
Python floats and the rows A[i, :i]), and p_tilde, which is p - 1
whenever embedded weights are present.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "EmbeddedTableau",
    "MethodId",
    "parse_method_id",
    "format_method_id",
    "resolve",
    "catalog_ids",
]

_ATOL = 1e-13  # most negative coefficient an SSP claim tolerates


@dataclass(frozen=True)
class EmbeddedTableau:
    """Explicit RK pair (A, b, b_tilde) with abscissae c = A e.

    The advancing weights ``b`` give a method of order ``p``; the optional
    embedded weights ``b_tilde`` share the stage coefficients A and have
    order ``p_tilde = p - 1`` (None without ``b_tilde``).  The arrays are
    frozen copies of the ones passed in.  Construction derives c, the
    stage count ``s = len(b)``, p_tilde and the private stage data of
    ``rk_step``: c as Python floats and the read-only views A[i, :i].
    ``replace`` derives them again, so they never fall out of step.
    Steps are advanced with ``b`` and the difference between the two
    stage combinations drives the error estimate (local extrapolation).
    ``ssp_claimed`` records the known SSP coefficient of the advancing
    method, or None where no SSP property is claimed.

    Construction, ``replace`` included, raises ValueError naming the id
    and the defect unless A, b and b_tilde are rectangular arrays of
    numbers, b is nonempty and 1-D, A is its size and zero on and above
    the diagonal, b_tilde has its size, p is an integer >= 1 (>= 2 with
    b_tilde), and ``ssp_claimed > 0`` comes with no coefficient below
    -1e-13.  Weight sums (order condition t1) are left to classification.
    """

    id: str
    A: np.ndarray
    b: np.ndarray
    c: np.ndarray = field(init=False)
    s: int = field(init=False)
    p: int
    b_tilde: np.ndarray | None = None
    p_tilde: int | None = field(init=False)
    ssp_claimed: float | None = None
    _stage_c: tuple[float, ...] = field(init=False, repr=False, compare=False)
    _stage_rows: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def reject(defect):
            raise ValueError(f"tableau {self.id!r}: {defect}")

        for name in ("A", "b", "b_tilde"):
            if getattr(self, name) is not None:
                try:
                    arr = np.array(getattr(self, name), dtype=float)  # a copy: the caller's stays writable
                except (TypeError, ValueError) as exc:
                    reject(f"{name} must be a rectangular array of numbers ({exc})")
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.b.ndim != 1 or self.b.size == 0:
            reject(f"b must be a nonempty 1-D weight vector, got shape {self.b.shape}")
        s = len(self.b)
        if self.A.shape != (s, s):
            reject(f"A must be {s}x{s} to match b, got shape {self.A.shape}")
        if self.b_tilde is not None and self.b_tilde.shape != (s,):
            reject(f"b_tilde must have the {s} entries of b, got shape {self.b_tilde.shape}")
        upper = np.argwhere(np.triu(self.A))
        if len(upper):
            i, j = upper[0]
            reject(f"A must be strictly lower triangular (explicit), but A[{i}, {j}] = {float(self.A[i, j])!r}")
        if not isinstance(self.p, (int, np.integer)):
            reject(f"order p must be an integer, got {self.p!r}")
        if self.p < (1 if self.b_tilde is None else 2):
            reject(f"order p must be at least 1, and 2 with embedded weights of order p - 1, got {self.p}")
        if self.ssp_claimed is not None and self.ssp_claimed > 0:
            for name in ("A", "b", "b_tilde"):
                arr = getattr(self, name)
                if arr is not None and arr.min() < -_ATOL:
                    reject(f"an SSP claim needs nonnegative coefficients, "
                           f"but {name} has the entry {float(arr.min())!r}")
        c = self.A.sum(axis=1)
        c.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "p_tilde", None if self.b_tilde is None else self.p - 1)
        object.__setattr__(self, "_stage_c", tuple(c.tolist()))
        object.__setattr__(self, "_stage_rows", tuple(self.A[i, :i] for i in range(s)))


@dataclass(frozen=True)
class MethodId:
    """Parsed method identifier.

    ``family`` is ``ssp2``/``ssp3``/``ssp4`` (keyed by the order of the
    advancing method) or ``literature``; ``variant`` selects the embedded
    weights: ``b1``..``b8`` for cataloged vectors, ``w`` for weights
    produced by the numerical optimizer, ``none`` for no selection.
    """

    family: str
    s: int
    variant: str = "none"


_ID_RE = re.compile(r"^ssp(\d+),(\d+)(?:-(b\d+|w))?$")

# the literature pairs by name and by stage count
_LITERATURE = {"bs32": 4, "dp54": 7}
_LITERATURE_BY_STAGES = {s: name for name, s in _LITERATURE.items()}


def parse_method_id(text: str) -> MethodId:
    """Parse ``ssp<s>,<p>[-b<k>|-w]``, ``bs32`` or ``dp54`` (case-insensitive)."""
    t = text.strip().lower()
    if t in _LITERATURE:
        return MethodId("literature", _LITERATURE[t])
    m = _ID_RE.match(t)
    if not m:
        raise ValueError(f"unrecognized method id: {text!r}")
    s, p = int(m.group(1)), int(m.group(2))
    if p not in (2, 3, 4):
        raise ValueError(f"unsupported order in method id: {text!r}")
    variant = m.group(3) or "none"
    return MethodId(f"ssp{p}", s, variant)


def format_method_id(mid: MethodId) -> str:
    """Canonical lower-case text form; inverse of parse_method_id."""
    if mid.family == "literature":
        return _LITERATURE_BY_STAGES[mid.s]
    p = int(mid.family[3:])
    base = f"ssp{mid.s},{p}"
    return base if mid.variant == "none" else f"{base}-{mid.variant}"


def _tableau(mid, A, b, p, embedded=None, ssp=None) -> EmbeddedTableau:
    """The one constructor of catalog tableaux, from exact rationals.

    ``embedded`` maps the variants of the method to their embedded
    weights, all of order p - 1; variant ``none`` carries none unless the
    map has an entry of that name.
    """
    embedded = embedded or {}
    if mid.variant != "none" and mid.variant not in embedded:
        base = format_method_id(MethodId(mid.family, mid.s))
        raise ValueError(f"unknown embedded variant {mid.variant!r} for {base}; "
                         "-w runs the weight search")
    return EmbeddedTableau(id=format_method_id(mid), A=A, b=b, p=p,
                           b_tilde=embedded.get(mid.variant), ssp_claimed=ssp)


def _ssp_s2(mid: MethodId) -> EmbeddedTableau:
    """Optimal second-order SSP method with s stages, SSP coefficient s-1.

    Every strictly-lower entry of A is 1/(s-1) and b = (1/s) e, so the
    abscissae are c_i = (i-1)/(s-1).  Embedded weight choices:

    * ``b1``: (1/(s-1), ..., 1/(s-1), 0) -- first order, keeps the
      embedded SSP coefficient at s-1.
    * ``b2``: ((s+1)/s^2, 1/s, ..., 1/s, (s-1)/s^2) -- first order, the
      recommended pair on stability and error-measure grounds.
    """
    s = mid.s
    low = Fraction(1, s - 1)
    A = [[low if j < i else Fraction(0) for j in range(s)] for i in range(s)]
    b = [Fraction(1, s)] * s
    embedded = {
        "b1": [low] * (s - 1) + [Fraction(0)],
        "b2": [Fraction(s + 1, s * s)] + [Fraction(1, s)] * (s - 2) + [Fraction(s - 1, s * s)],
    }
    return _tableau(mid, A, b, 2, embedded, ssp=float(s - 1))


def _ssp_n2_3(mid: MethodId) -> EmbeddedTableau:
    """Optimal third-order SSP method with s = n^2 stages (n >= 2).

    SSP coefficient n^2 - n.  Every strictly-lower entry of A is
    1/(n(n-1)), except a block of 1/(n(2n-1)) entries in the final
    n(n-1)/2 rows: in those rows the 2n-1 columns starting after column
    (n-1)(n-2)/2 carry 1/(n(2n-1)).  The weight vector b has the same
    three-segment layout: (n-1)(n-2)/2 entries of 1/(n(n-1)), then 2n-1
    entries of 1/(n(2n-1)), then n(n-1)/2 entries of 1/(n(n-1)).

    Embedded weight choices: for n = 2 the vectors ``b1`` =
    (1/3, 1/3, 1/3, 0) and ``b2`` = (1/4, 1/4, 1/4, 1/4); for n >= 3 the
    uniform vector (1/n^2) e, selected with variant ``none``.
    """
    s = mid.s
    n = math.isqrt(s)
    low = Fraction(1, n * (n - 1))
    blk = Fraction(1, n * (2 * n - 1))
    q = (n - 1) * (n - 2) // 2       # columns before the block
    m = n * (n - 1) // 2             # block rows (the final ones)
    A = [[Fraction(0)] * s for _ in range(s)]
    for i in range(s):
        for j in range(i):
            in_block = i >= s - m and q <= j < q + 2 * n - 1
            A[i][j] = blk if in_block else low
    b = [low] * q + [blk] * (2 * n - 1) + [low] * m
    if n == 2:
        embedded = {"b1": [Fraction(1, 3)] * 3 + [Fraction(0)], "b2": [Fraction(1, 4)] * 4}
    else:
        embedded = {"none": [Fraction(1, s)] * s}
    return _tableau(mid, A, b, 3, embedded, ssp=float(s - n))


def _ssp_3_3(mid: MethodId) -> EmbeddedTableau:
    """Classical three-stage third-order SSP method, SSP coefficient 1.

    Carries no frozen embedded weights; adaptive use goes through the
    optimizer (method id ``ssp3,3-w``).
    """
    A = [[0, 0, 0], [1, 0, 0], [Fraction(1, 4), Fraction(1, 4), 0]]
    b = [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
    return _tableau(mid, A, b, 3, ssp=1.0)


def _ssp_10_4(mid: MethodId) -> EmbeddedTableau:
    """Ten-stage fourth-order SSP method with SSP coefficient 6.

    Rows 1-5 of A have 1/6 on every strictly-lower entry; rows 6-10 have
    1/15 in columns 1-5 and 1/6 afterwards.  b = (1/10) e.  Eight embedded
    third-order weight vectors ``b1`` .. ``b8`` are cataloged; ``b3`` is
    the recommended pair.
    """
    F = Fraction
    A = [[F(0)] * 10 for _ in range(10)]
    for i in range(10):
        for j in range(i):
            A[i][j] = F(1, 15) if (i >= 5 and j < 5) else F(1, 6)
    b = [F(1, 10)] * 10
    pairs = {
        "b1": [0, F(3, 8), 0, F(1, 8), 0, 0, 0, F(3, 8), 0, F(1, 8)],
        "b2": [F(3, 14), 0, 0, F(2, 7), 0, 0, 0, F(3, 7), 0, F(1, 14)],
        "b3": [0, F(2, 9), 0, 0, F(5, 18), F(1, 3), 0, 0, 0, F(1, 6)],
        "b4": [F(1, 5), 0, 0, F(3, 10), 0, 0, F(1, 5), 0, F(3, 10), 0],
        "b5": [F(1, 10), 0, 0, F(2, 5), 0, F(3, 10), 0, 0, 0, F(1, 5)],
        "b6": [F(1, 6), 0, 0, 0, F(1, 3), F(5, 18), 0, 0, F(2, 9), 0],
        "b7": [0, F(2, 5), 0, F(1, 10), 0, 0, 0, F(1, 5), F(3, 10), 0],
        "b8": [F(1, 7), 0, F(5, 14), 0, 0, 0, 0, F(3, 14), F(2, 7), 0],
    }
    return _tableau(mid, A, b, 4, pairs, ssp=6.0)


def _literature(mid: MethodId) -> EmbeddedTableau:
    """Classical non-SSP embedded pairs used for comparison runs.

    ``bs32``: the 4-stage 3(2) pair of Bogacki and Shampine.
    ``dp54``: the 7-stage 5(4) pair of Dormand and Prince.
    """
    F = Fraction
    if format_method_id(mid) == "bs32":
        A = [
            [0, 0, 0, 0],
            [F(1, 2), 0, 0, 0],
            [0, F(3, 4), 0, 0],
            [F(2, 9), F(1, 3), F(4, 9), 0],
        ]
        b = [F(2, 9), F(1, 3), F(4, 9), 0]
        bt = [F(7, 24), F(1, 4), F(1, 3), F(1, 8)]
        return _tableau(mid, A, b, 3, {"none": bt})
    A = [
        [0] * 7,
        [F(1, 5), 0, 0, 0, 0, 0, 0],
        [F(3, 40), F(9, 40), 0, 0, 0, 0, 0],
        [F(44, 45), F(-56, 15), F(32, 9), 0, 0, 0, 0],
        [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729), 0, 0, 0],
        [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656), 0, 0],
        [F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), 0],
    ]
    b = [F(35, 384), 0, F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84), 0]
    bt = [F(5179, 57600), 0, F(7571, 16695), F(393, 640), F(-92097, 339200), F(187, 2100), F(1, 40)]
    return _tableau(mid, A, b, 5, {"none": bt})


def _builder(mid: MethodId):
    """The builder of the family of ``mid``, once its stage count is checked.

    This is the one place the (family, s) combinations are checked; the
    variants are checked by ``_tableau``.
    """
    family, s = mid.family, mid.s
    if family == "literature" and s in _LITERATURE_BY_STAGES:
        return _literature
    if family == "ssp2":
        if s < 2:
            raise ValueError("second-order family needs at least 2 stages")
        return _ssp_s2
    if family == "ssp3":
        if s == 3:
            return _ssp_3_3
        n = math.isqrt(s)
        if n * n != s:
            raise ValueError(f"third-order family needs a square stage count, got {s}")
        if n < 2:
            raise ValueError("third-order family needs n >= 2 (s = n^2 stages)")
        return _ssp_n2_3
    if family == "ssp4":
        if s != 10:
            raise ValueError("fourth-order family is cataloged with 10 stages only")
        return _ssp_10_4
    raise ValueError(f"unknown method family {family!r} with {s} stages")


def resolve(method, seed: int = 0) -> EmbeddedTableau:
    """Return the catalog tableau for a method id (text or MethodId).

    Variant ``w`` attaches embedded weights computed by the numerical
    optimizer; the result is deterministic for a given seed.  Every id
    (and seed, for ``w``) is built once per process and the same frozen
    object is returned on every later call.
    """
    mid = parse_method_id(method) if isinstance(method, str) else method
    return _build(mid, seed if mid.variant == "w" else 0)


@lru_cache(maxsize=None)
def _build(mid: MethodId, seed: int) -> EmbeddedTableau:
    if mid.variant == "w":
        base = resolve(MethodId(mid.family, mid.s))
        from .optimizer import OptimizationSpec, optimize_embedded

        res = optimize_embedded(OptimizationSpec(tableau=base, seed=seed))
        if res.w is None:
            raise ValueError(f"optimizer found no embedded weights for {format_method_id(mid)}")
        return replace(base, id=format_method_id(mid), b_tilde=res.w)
    return _builder(mid)(mid)


def catalog_ids() -> list[str]:
    """Canonical ids of every cataloged pair (embedded weights present)."""
    ids = []
    for s in range(2, 11):
        ids += [f"ssp{s},2-b1", f"ssp{s},2-b2"]
    ids += ["ssp4,3-b1", "ssp4,3-b2", "ssp9,3", "ssp16,3"]
    ids += [f"ssp10,4-b{k}" for k in range(1, 9)]
    ids += ["bs32", "dp54"]
    return ids
