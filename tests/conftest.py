"""Shared fixtures, helpers and hypothesis profiles for the test suite."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sspkit.analysis import _pair_measures
from sspkit.controller import ERR_FLOOR, FAC, FACMAX, FACMIN, GAINS
from sspkit.integrator import StiffnessError, initial_step, rk_step
from sspkit.problems import _face_pass
from sspkit.tableau import catalog_ids, resolve

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260816)


def ssp_ids() -> list[str]:
    """Catalog ids whose advancing method claims an SSP coefficient."""
    return [i for i in catalog_ids() if resolve(i).ssp_claimed is not None]


def embedded_method(t):
    """The plain method RK(A, b_tilde) of pair t, one order lower."""
    return replace(t, b=t.b_tilde, p=t.p - 1, b_tilde=None, ssp_claimed=None)


def pair_norms(oc, b, w, p: int) -> tuple[float, ...]:
    """(A2, Ainf, A2_emb, Ainf_emb, B2, Binf, C2, Cinf) of the pair with
    advancing weights b of order p and embedded weights w, as
    ``error_measures`` forms them: a batch of one of the kernel."""
    return tuple(_pair_measures(oc, b, p)(np.array(w, dtype=float)[None])[:, 0].tolist())


def perfbench_worker():
    """The benchmark's ``perfbench/worker.py``, loaded as a module for its
    constants and checks."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class FrozenController:
    """The controller formulas written out in full on every call, as
    ``ControllerState`` had them before it cached its exponents and history
    factors: ``max(err, ERR_FLOOR)``, three ``**`` per proposal, and
    ``min(facmax, max(FACMIN, FAC * beta))``.  The reference the cached
    controller is checked against bit for bit; keep it as written."""

    def __init__(self, kind: str):
        self.kind = kind
        self.k1, self.k2, self.k3 = GAINS[kind]
        self.err_n = 1.0
        self.err_nm1 = 1.0
        self.first_step = True
        self.just_rejected = False

    def propose_factor(self, err_new: float, p: int) -> float:
        e = max(err_new, ERR_FLOOR)
        if self.kind == "gustafsson":
            if self.first_step:
                return e ** (-1.0 / p)
            return e ** (-self.k1 / p) * (e / self.err_n) ** (self.k2 / p)
        return (
            e ** (-self.k1 / p)
            * self.err_n ** (self.k2 / p)
            * self.err_nm1 ** (-self.k3 / p)
        )

    def clamp(self, dt: float, beta: float) -> float:
        if not math.isfinite(beta):
            return dt * FACMIN
        facmax = 0.9 if self.just_rejected else FACMAX
        return dt * min(facmax, max(FACMIN, FAC * beta))

    def on_accept(self, err_new: float) -> None:
        self.err_nm1 = self.err_n
        self.err_n = max(err_new, ERR_FLOOR)
        self.first_step = False
        self.just_rejected = False

    def on_reject(self) -> None:
        self.just_rejected = True


def np_max_error_norm(u_n, u_next, u_hat, atol, rtol) -> float:
    """The weighted max error norm as one NumPy expression."""
    sc = atol + np.maximum(np.abs(u_n), np.abs(u_next)) * rtol
    return float(np.max(np.abs(u_next - u_hat) / sc))


def reference_adaptive(problem, tab, kind, atol, rtol, step_log):
    """``integrate_adaptive``'s loop as it stood before the attempt kernel
    and the per-run caches: rk_step and the NumPy norm at every state size,
    the underflow bound formed on every attempt, and a FrozenController.
    Appends (t, dt, err, accepted) per attempt to step_log and returns
    (u, n_accepted, n_rejected)."""
    f = problem.f
    t0, T = problem.t_span
    u = np.array(problem.u0, dtype=float)
    t = float(t0)
    dt = initial_step(f, t, u, tab.p, atol, rtol)
    ctl = FrozenController(kind)
    n_acc = n_rej = 0
    min_step = 100.0 * float(np.finfo(float).eps)
    t_scale = max(abs(t0), abs(T), 1.0)
    while t < T:
        if not dt >= min_step * max(abs(t), t_scale):
            raise StiffnessError(
                f"step size {dt:.3e} underflowed at t = {t:.6g} ({n_acc} accepted, {n_rej} rejected)")
        truncated = dt >= T - t
        dt_try = T - t if truncated else dt
        u_next, u_hat = rk_step(tab, f, t, u, dt_try)
        err = np_max_error_norm(u, u_next, u_hat, atol, rtol)
        accepted = err <= 1.0
        step_log.append((t, dt_try, err, accepted))
        beta = ctl.propose_factor(err, tab.p_tilde)
        if accepted:
            ctl.on_accept(err)
            t = T if truncated else t + dt_try
            u = u_next
            n_acc += 1
        else:
            ctl.on_reject()
            n_rej += 1
        dt = ctl.clamp(dt_try, beta)
    return u, n_acc, n_rej


def sine_average(grid) -> np.ndarray:
    """Cell averages of sin(pi x) on the grid."""
    xl = grid.edges[:-1]
    xr = grid.edges[1:]
    return (np.cos(np.pi * xl) - np.cos(np.pi * xr)) / (np.pi * grid.dx)


def weno5_face(v) -> float:
    """Left-biased WENO5 value v_{i+1/2} from the five cell averages
    (v_{i-2}, ..., v_{i+2}): the face kernel on one stencil."""
    face = np.empty(1)
    _face_pass(np.array(v, dtype=float), face)()
    return float(face[0])


# one verdict line per acceptance criterion, echoed after the run so the
# terminal log always carries the full scoreboard
CRITERION_LINES: dict[int, str] = {}


@pytest.fixture
def criterion():
    def record(num: int, ok: bool, detail: str) -> None:
        line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}"
        CRITERION_LINES[num] = line
        print(line)
        assert ok, line

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for num in sorted(CRITERION_LINES):
            terminalreporter.write_line(CRITERION_LINES[num])
