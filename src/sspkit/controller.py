"""Asymptotic step-size controllers: I, PI, PID, and explicit Gustafsson.

Each controller turns recent local error estimates into a step-size factor
beta; the shared clamp then yields dt_opt = dt * min(FACMAX, max(FACMIN,
FAC * beta)), or dt * FACMIN for a non-finite beta.  On the proposal
immediately following a rejected step the upper limit is pinned to 0.9
so the retry step strictly shrinks.  FAC, FACMIN and FACMAX are module
constants and the gains are fixed per kind in GAINS, so the kind is the
whole configuration of a controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._args import read_id

__all__ = ["GAINS", "ControllerState", "make_controller"]

# floor for stored error estimates, guards the Gustafsson ratio and the
# negative-exponent powers against err = 0
ERR_FLOOR = 1e-10

# gains (k1, k2, k3) per controller kind
GAINS = {
    "i": (1.0, 0.0, 0.0),
    "pi": (0.8, 0.31, 0.0),
    "pid": (0.58, 0.21, 0.1),
    "gustafsson": (0.367, 0.268, 0.0),
}

FAC = 0.9      # safety factor on every proposal
FACMIN = 0.1   # largest shrink per step
FACMAX = 5.0   # largest growth per step


@dataclass
class ControllerState:
    """Mutable controller bookkeeping owned by a single integration run.

    The gains k1, k2, k3 are GAINS[kind]; an unknown kind is a ValueError.
    err_n / err_nm1 hold the last two accepted error estimates and start
    at 1 so the PI/PID history terms are neutral during warm-up.

    What stays fixed between attempts is computed where it changes, with
    the same bits as forming it on every proposal: the exponents -k1/p,
    k2/p, -k3/p and -1/p once per normalizing order p, and the history
    factors err_n**(k2/p) and err_nm1**(-k3/p) once per accepted step
    (and when p changes).  They live in private attributes outside the
    dataclass fields, so equality and repr see only the state above, and
    they assume that err_n and err_nm1 change only through ``on_accept``.
    """

    kind: str
    k1: float = field(init=False)
    k2: float = field(init=False)
    k3: float = field(init=False)
    err_n: float = field(init=False, default=1.0)
    err_nm1: float = field(init=False, default=1.0)
    first_step: bool = field(init=False, default=True)
    just_rejected: bool = field(init=False, default=False)

    def __post_init__(self):
        if self.kind not in GAINS:
            raise ValueError(f"unknown controller kind {self.kind!r}")
        self.k1, self.k2, self.k3 = GAINS[self.kind]
        self._gustafsson = self.kind == "gustafsson"
        self._p = None  # the order the cached exponents belong to

    def _set_order(self, p: int) -> None:
        self._p = p
        self._a1 = -self.k1 / p
        self._a2 = self.k2 / p
        self._a3 = -self.k3 / p
        self._a0 = -1.0 / p
        self._set_history()

    def _set_history(self) -> None:
        self._h_n = self.err_n ** self._a2
        self._h_nm1 = self.err_nm1 ** self._a3

    def propose_factor(self, err_new: float, p: int) -> float:
        """Step-size factor beta from the estimate of the step just taken.

        err_new is the error of the current attempt; the stored history
        refers to previously accepted steps only.  Exponents are divided
        by the supplied normalizing order p; the adaptive loop passes the
        embedded order of the pair.  The error is floored at ERR_FLOOR
        with the NaN semantics of ``max(err_new, ERR_FLOOR)``: a NaN
        passes through.
        """
        e = ERR_FLOOR if ERR_FLOOR > err_new else err_new
        if p != self._p:
            self._set_order(p)
        if self._gustafsson:
            if self.first_step:
                return e ** self._a0
            return e ** self._a1 * (e / self.err_n) ** self._a2
        # one PID formula; I and PI are PID with zero k2/k3
        return e ** self._a1 * self._h_n * self._h_nm1

    def clamp(self, dt: float, beta: float) -> float:
        """dt * min(facmax, max(FACMIN, FAC * beta)), written as comparisons
        that pick the same operand as the builtins."""
        if not math.isfinite(beta):
            return dt * FACMIN  # NaN factor from a NaN error estimate: shrink fully
        # one-proposal cap after a rejection prevents the reject loop
        facmax = 0.9 if self.just_rejected else FACMAX
        x = FAC * beta
        x = x if x > FACMIN else FACMIN
        return dt * (x if x < facmax else facmax)

    def on_accept(self, err_new: float) -> None:
        """Shift the accepted-error history and clear the flags."""
        self.err_nm1 = self.err_n
        self.err_n = ERR_FLOOR if ERR_FLOOR > err_new else err_new
        self.first_step = False
        self.just_rejected = False
        if self._p is not None:
            self._set_history()

    def on_reject(self) -> None:
        # history tracks accepted steps only
        self.just_rejected = True


def make_controller(kind: str) -> ControllerState:
    """Fresh controller of the given kind (a string, read case-insensitively
    after stripping surrounding whitespace)."""
    return ControllerState(read_id("controller kind", kind))
