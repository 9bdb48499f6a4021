"""Shared fixtures, helpers and hypothesis profiles for the test suite."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from sspkit.analysis import _norms, _pair_norms
from sspkit.problems import _weno5_faces
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


def pair_norms(oc, tau_main, w, p: int) -> tuple[float, ...]:
    """(A2, Ainf, A2_emb, Ainf_emb, B2, Binf, C2, Cinf) of the pair with
    advancing order-(p+1) residuals tau_main and embedded weights w, as
    ``error_measures`` forms them."""
    return _pair_norms(*_norms(tau_main), oc.tau(w, p), oc.tau(w, p + 1) - tau_main)


def weno5_face(v) -> float:
    """Left-biased WENO5 value v_{i+1/2} from the five cell averages
    (v_{i-2}, ..., v_{i+2}): the face kernel on one stencil."""
    return float(_weno5_faces(np.asarray(v, dtype=float))[0])


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
