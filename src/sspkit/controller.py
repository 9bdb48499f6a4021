"""Asymptotic step-size controllers: I, PI, PID, and explicit Gustafsson.

Each controller turns recent local error estimates into a step-size factor
beta; the shared clamp then yields dt_opt = dt * min(FACMAX, max(FACMIN,
FAC * beta)), or dt * FACMIN for a non-finite beta.  On the proposal
immediately following a rejected step the upper limit is pinned to 0.9
so the retry step strictly shrinks.  FAC, FACMIN and FACMAX are module
constants; only the gains can be set per controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["GAINS", "ControllerState", "make_controller"]

# floor for stored error estimates, guards the Gustafsson ratio and the
# negative-exponent powers against err = 0
ERR_FLOOR = 1e-10

# default gains (k1, k2, k3) per controller kind
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

    err_n / err_nm1 hold the last two accepted error estimates and start
    at 1 so the PI/PID history terms are neutral during warm-up.
    """

    kind: str
    k1: float
    k2: float = 0.0
    k3: float = 0.0
    err_n: float = 1.0
    err_nm1: float = 1.0
    first_step: bool = True
    just_rejected: bool = False

    def propose_factor(self, err_new: float, p: int) -> float:
        """Step-size factor beta from the estimate of the step just taken.

        err_new is the error of the current attempt; the stored history
        refers to previously accepted steps only.  Exponents are divided
        by the supplied normalizing order p; the adaptive loop passes the
        embedded order of the pair.
        """
        e = max(err_new, ERR_FLOOR)
        if self.kind in ("i", "pi", "pid"):
            # one PID formula; I and PI are PID with zero default k2/k3
            return (
                e ** (-self.k1 / p)
                * self.err_n ** (self.k2 / p)
                * self.err_nm1 ** (-self.k3 / p)
            )
        if self.kind == "gustafsson":
            if self.first_step:
                return e ** (-1.0 / p)
            return e ** (-self.k1 / p) * (e / self.err_n) ** (self.k2 / p)
        raise ValueError(f"unknown controller kind {self.kind!r}")

    def clamp(self, dt: float, beta: float) -> float:
        if not math.isfinite(beta):
            return dt * FACMIN  # NaN factor from a NaN error estimate: shrink fully
        # one-proposal cap after a rejection prevents the reject loop
        facmax = 0.9 if self.just_rejected else FACMAX
        return dt * min(facmax, max(FACMIN, FAC * beta))

    def on_accept(self, err_new: float) -> None:
        """Shift the accepted-error history and clear the flags."""
        self.err_nm1 = self.err_n
        self.err_n = max(err_new, ERR_FLOOR)
        self.first_step = False
        self.just_rejected = False

    def on_reject(self) -> None:
        # history tracks accepted steps only
        self.just_rejected = True


def make_controller(
    kind: str,
    k1: float | None = None,
    k2: float | None = None,
    k3: float | None = None,
) -> ControllerState:
    """Fresh controller with default gains, individually overridable."""
    key = kind.lower()
    if key not in GAINS:
        raise ValueError(f"unknown controller kind {kind!r}")
    g1, g2, g3 = GAINS[key]
    return ControllerState(
        kind=key,
        k1=g1 if k1 is None else k1,
        k2=g2 if k2 is None else k2,
        k3=g3 if k3 is None else k3,
    )
