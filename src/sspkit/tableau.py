"""Butcher tableaus for embedded explicit Runge-Kutta pairs.

The catalog collects optimal strong-stability-preserving (SSP) explicit
methods of orders 2, 3 and 4 together with embedded weight vectors one
order lower, plus two classical non-SSP pairs for comparison.  All
coefficients are assembled from exact rationals and converted to float
once, so structural identities (row sums, weight sums) hold to roundoff.
A method is named by its id string, ``ssp<s>,<p>[-b<k>|-w]`` (s stages,
advancing order p in 2..4, embedded variant b<k> or the weight search
w), ``bs32`` or ``dp54``; ids are case-insensitive.  ``resolve`` is the
one parser of ids and the one public way to a catalog tableau: it reads
(s, p, variant) once, runs the private builder of order p, which checks
its own stage count, and builds each id once per process.  Derived
tableaux are ``dataclasses.replace`` copies.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._args import integer, read_id

__all__ = [
    "EmbeddedTableau",
    "resolve",
    "catalog_ids",
]

_ATOL = 1e-13  # most negative coefficient an SSP claim tolerates
# Largest stage count of an ssp<s>,2 or ssp<s>,3 id, chosen by cost (README
# "The catalog" has the times); the radii are wrong from s = 11 even so
_MAX_STAGES = 99


@dataclass(frozen=True)
class EmbeddedTableau:
    """Explicit RK pair (A, b, b_tilde) with abscissae c = A e.

    The advancing weights ``b`` give a method of order ``p``; the optional
    embedded weights ``b_tilde`` share the stage coefficients A and have
    order ``p_tilde = p - 1`` (None without ``b_tilde``).  The arrays are
    frozen copies of the ones passed in.  Construction derives c, the
    stage count ``s = len(b)`` and p_tilde; ``replace`` derives them
    again, so they never fall out of step.
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
        integer(f"tableau {self.id!r}: order p", self.p, 1)
        if self.b_tilde is not None and self.p < 2:
            reject(f"order p must be at least 2 with embedded weights of order p - 1, got {self.p}")
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


_ID_RE = re.compile(r"^ssp(\d+),(\d+)(?:-(b\d+|w))?$")
# int() refuses a string of more than 4300 digits (Python's default limit)
# naming neither the field nor its bound, so resolve refuses a stage count
# or an order of more significant digits than this by name first
_FIELD_DIGITS = 20
_LITERATURE = ("bs32", "dp54")


def _tableau(base, variant, A, b, p, embedded=None, ssp=None) -> EmbeddedTableau:
    """The one constructor of catalog tableaux, from exact rationals.

    ``base`` is the id without a variant.  ``embedded`` maps the variants
    of the method to their embedded weights, all of order p - 1; variant
    ``none`` carries none unless the map has an entry of that name.
    """
    embedded = embedded or {}
    if variant != "none" and variant not in embedded:
        raise ValueError(f"unknown embedded variant {variant!r} for {base}; "
                         "-w runs the weight search")
    return EmbeddedTableau(id=base if variant == "none" else f"{base}-{variant}", A=A, b=b,
                           p=p, b_tilde=embedded.get(variant), ssp_claimed=ssp)


def _ssp2(s, variant) -> EmbeddedTableau:
    """Optimal second-order SSP method with 2 <= s <= 99 stages, SSP coefficient s-1.

    Every strictly-lower entry of A is 1/(s-1) and b = (1/s) e, so the
    abscissae are c_i = (i-1)/(s-1).  Embedded weight choices:

    * ``b1``: (1/(s-1), ..., 1/(s-1), 0) -- first order, keeps the
      embedded SSP coefficient at s-1.
    * ``b2``: ((s+1)/s^2, 1/s, ..., 1/s, (s-1)/s^2) -- first order, the
      recommended pair on stability and error-measure grounds.
    """
    integer(f"stage count s of ssp{s},2", s, 2, _MAX_STAGES)
    low = Fraction(1, s - 1)
    A = [[low if j < i else Fraction(0) for j in range(s)] for i in range(s)]
    b = [Fraction(1, s)] * s
    embedded = {
        "b1": [low] * (s - 1) + [Fraction(0)],
        "b2": [Fraction(s + 1, s * s)] + [Fraction(1, s)] * (s - 2) + [Fraction(s - 1, s * s)],
    }
    return _tableau(f"ssp{s},2", variant, A, b, 2, embedded, ssp=float(s - 1))


def _ssp3(s, variant) -> EmbeddedTableau:
    """Third-order SSP methods: the classical three-stage one, and the
    optimal ones with s = n^2 <= 99 stages (n >= 2).

    The three-stage method has SSP coefficient 1 and carries no frozen
    embedded weights; adaptive use goes through the optimizer (method id
    ``ssp3,3-w``).

    The s = n^2 method has SSP coefficient n^2 - n.  Every strictly-lower
    entry of A is 1/(n(n-1)), except a block of 1/(n(2n-1)) entries in
    the final n(n-1)/2 rows: in those rows the 2n-1 columns starting
    after column (n-1)(n-2)/2 carry 1/(n(2n-1)).  The weight vector b has
    the same three-segment layout: (n-1)(n-2)/2 entries of 1/(n(n-1)),
    then 2n-1 entries of 1/(n(2n-1)), then n(n-1)/2 entries of
    1/(n(n-1)).

    Embedded weight choices: for n = 2 the vectors ``b1`` =
    (1/3, 1/3, 1/3, 0) and ``b2`` = (1/4, 1/4, 1/4, 1/4); for n >= 3 the
    uniform vector (1/n^2) e, selected with variant ``none``.
    """
    integer(f"stage count s of ssp{s},3", s, 3, _MAX_STAGES)
    if s == 3:
        A = [[0, 0, 0], [1, 0, 0], [Fraction(1, 4), Fraction(1, 4), 0]]
        b = [Fraction(1, 6), Fraction(1, 6), Fraction(2, 3)]
        return _tableau("ssp3,3", variant, A, b, 3, ssp=1.0)
    n = math.isqrt(s)
    if n * n != s:
        raise ValueError(f"third-order family needs a square stage count, got {s}")
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
    return _tableau(f"ssp{s},3", variant, A, b, 3, embedded, ssp=float(s - n))


def _ssp4(s, variant) -> EmbeddedTableau:
    """Ten-stage fourth-order SSP method with SSP coefficient 6.

    Rows 1-5 of A have 1/6 on every strictly-lower entry; rows 6-10 have
    1/15 in columns 1-5 and 1/6 afterwards.  b = (1/10) e.  Eight embedded
    third-order weight vectors ``b1`` .. ``b8`` are cataloged; ``b3`` is
    the recommended pair.
    """
    if s != 10:
        raise ValueError("fourth-order family is cataloged with 10 stages only")
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
    return _tableau("ssp10,4", variant, A, b, 4, pairs, ssp=6.0)


_FAMILIES = {2: _ssp2, 3: _ssp3, 4: _ssp4}


@lru_cache(maxsize=None)
def _literature(name) -> EmbeddedTableau:
    """Classical non-SSP embedded pairs used for comparison runs.

    ``bs32``: the 4-stage 3(2) pair of Bogacki and Shampine.
    ``dp54``: the 7-stage 5(4) pair of Dormand and Prince.
    """
    F = Fraction
    if name == "bs32":
        A = [
            [0, 0, 0, 0],
            [F(1, 2), 0, 0, 0],
            [0, F(3, 4), 0, 0],
            [F(2, 9), F(1, 3), F(4, 9), 0],
        ]
        b = [F(2, 9), F(1, 3), F(4, 9), 0]
        bt = [F(7, 24), F(1, 4), F(1, 3), F(1, 8)]
        return _tableau(name, "none", A, b, 3, {"none": bt})
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
    return _tableau(name, "none", A, b, 5, {"none": bt})


def resolve(method: str, seed: int = 0) -> EmbeddedTableau:
    """Return the catalog tableau for a method id.

    This is the one parser of ids: ``ssp<s>,<p>[-b<k>|-w]``, ``bs32`` or
    ``dp54``, read case-insensitively after stripping surrounding
    whitespace.  Variant ``w`` attaches embedded weights computed by the
    numerical optimizer; the result is deterministic for a given seed.
    Every id (and seed, for ``w``) is built once per process and the same
    frozen object is returned on every later call, however it is spelled.
    """
    text = read_id("method id", method)
    if text in _LITERATURE:
        return _literature(text)
    m = _ID_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized method id: {method!r}")
    for name, digits, bound in (("order p", m[2], f"between {min(_FAMILIES)} and {max(_FAMILIES)}"),
                                ("stage count s", m[1], f"at most {_MAX_STAGES}")):
        n = len(digits.lstrip("0"))
        if n > _FIELD_DIGITS:
            shown = re.sub(rf"\d{{{_FIELD_DIGITS + 1},}}", lambda d: f"<{len(d[0])} digits>", f"ssp{m[1]},{m[2]}")
            raise ValueError(f"{name} of {shown} must be {bound}, got a number of {n} digits")
    s, p, variant = int(m[1]), int(m[2]), m[3] or "none"
    if p not in _FAMILIES:
        raise ValueError(f"unsupported order in method id: {method!r}")
    return _build(s, p, variant, seed if variant == "w" else 0)


@lru_cache(maxsize=None)
def _build(s: int, p: int, variant: str, seed: int) -> EmbeddedTableau:
    if variant == "w":
        base = resolve(f"ssp{s},{p}")
        from .optimizer import OptimizationSpec, optimize_embedded

        res = optimize_embedded(OptimizationSpec(tableau=base, seed=seed))
        if res.w is None:
            raise ValueError(f"optimizer found no embedded weights for {base.id}-w")
        return replace(base, id=f"{base.id}-w", b_tilde=res.w)
    return _FAMILIES[p](s, variant)


def catalog_ids() -> list[str]:
    """Canonical ids of every cataloged pair (embedded weights present)."""
    ids = []
    for s in range(2, 11):
        ids += [f"ssp{s},2-b1", f"ssp{s},2-b2"]
    ids += ["ssp4,3-b1", "ssp4,3-b2", "ssp9,3", "ssp16,3"]
    ids += [f"ssp10,4-b{k}" for k in range(1, 9)]
    ids += ["bs32", "dp54"]
    return ids
