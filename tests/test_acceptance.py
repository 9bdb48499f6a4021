"""Acceptance suite: twelve pinned criteria, one verdict line each.

Each test measures its own wall time against the criterion's runtime
budget and prints a single PASS/FAIL line with the governing numbers.
Tolerances are stated inline and never adjusted to fit observed output;
criteria that the implementation genuinely cannot meet fail loudly.
Two further tests, with no verdict line, certify criterion 06's and
criterion 11's misses.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from sspkit import analysis
from sspkit.bench import reference_endpoint
from sspkit.controller import make_controller
from sspkit.integrator import OdeSystem, integrate_adaptive, integrate_fixed
from sspkit.optimizer import OptimizationSpec, optimize_embedded
from sspkit.problems import (
    advection,
    brusselator,
    make_problem,
    sine_average,
    total_variation,
    upwind_advection,
    vdp_rhs,
)
from sspkit.tableau import catalog_ids, resolve

from conftest import embedded_method, ssp_ids


def run_vdp(method_id, kind, tol=1e-4):
    res = integrate_adaptive(make_problem("vdp"), resolve(method_id),
                             make_controller(kind), tol, tol)
    return res


def test_criterion_01_coefficients_and_order_classification(criterion):
    t0 = time.perf_counter()
    residual_bound = 1e-12
    worst = 0.0
    defective = []
    for mid in catalog_ids():
        t = resolve(mid)
        assert analysis.classify_order(t.A, t.b) == t.p, mid
        assert analysis.classify_order(t.A, t.b_tilde) == t.p_tilde, mid
        for w, order in ((t.b, t.p), (t.b_tilde, t.p_tilde)):
            res = analysis.order_condition_residuals(t.A, w, order)
            worst = max(worst, max(abs(v) for v in res.values()))
        if not analysis.is_non_defective(t).ok:
            defective.append(mid)
    elapsed = time.perf_counter() - t0
    # the second-order estimator of the four-stage literature pair meets one
    # third-order condition exactly (b.(c^2/2 - Ac) = 1/48 - 1/48), so it is
    # defective by construction; the claim covers the SSP pairs and dp54
    ok = (worst <= residual_bound and defective == ["bs32"] and elapsed < 1.0)
    criterion(1, ok, f"orders+residuals for {len(catalog_ids())} pairs, "
                     f"max residual {worst:.2e} <= 1e-12, non-defective except "
                     f"{defective}, {elapsed:.2f}s < 1s")


def test_criterion_02_ssp_coefficients(criterion):
    t0 = time.perf_counter()
    tol = 1e-5
    devs = []
    for s in range(2, 11):
        t = resolve(f"ssp{s},2-b1")
        devs.append(abs(analysis.ssp_coefficient_arrays(t.A, t.b) - (s - 1)))
    for mid, want in (("ssp4,3-b1", 2.0), ("ssp9,3", 6.0), ("ssp10,4-b1", 6.0)):
        t = resolve(mid)
        devs.append(abs(analysis.ssp_coefficient_arrays(t.A, t.b) - want))
    t = resolve("dp54")
    c_dp = analysis.ssp_coefficient_arrays(t.A, t.b)
    elapsed = time.perf_counter() - t0
    ok = max(devs) <= tol and c_dp == 0.0 and elapsed < 10.0
    criterion(2, ok, f"s-1 (s=2..10), 2, 6, 6 within {max(devs):.1e} <= 1e-5, "
                     f"dp54 -> {c_dp}, {elapsed:.2f}s < 10s")


def test_criterion_03_stability_radii(criterion):
    t0 = time.perf_counter()
    t22 = resolve("ssp2,2-b1")
    r22 = analysis.stability_radii(analysis.stability_polynomial(t22.A, t22.b))
    two_stage_ok = (abs(r22.delta_R - 2.0) <= 1e-4 and r22.delta_I == 0.0
                    and abs(r22.R_psi - 1.0) <= 1e-6)
    # R = delta_C holds with equality for these polynomials, so the two
    # independent bisections may disagree by their threshold-crossing noise
    order_tol = 5e-3
    order_ok = True
    for mid in catalog_ids():
        t = resolve(mid)
        r = analysis.stability_radii(analysis.stability_polynomial(t.A, t.b))
        order_ok &= (r.R_psi <= r.delta_C + order_tol
                     and r.delta_C <= r.delta_R + order_tol)
    bound_ok = True
    for mid in ssp_ids():
        t = resolve(mid)
        R = analysis.absolute_monotonicity_radius(analysis.stability_polynomial(t.A, t.b))
        bound_ok &= R >= t.ssp_claimed - 1e-6
    elapsed = time.perf_counter() - t0
    ok = two_stage_ok and order_ok and bound_ok and elapsed < 30.0
    criterion(3, ok, f"ssp2,2 dR={r22.delta_R:.6f} dI={r22.delta_I} "
                     f"R={r22.R_psi:.8f}; ordering R<=dC<=dR ({order_tol}) "
                     f"{'ok' if order_ok else 'VIOLATED'}; R>=C-1e-6 "
                     f"{'ok' if bound_ok else 'VIOLATED'}; {elapsed:.2f}s < 30s")


def test_criterion_04_fixed_step_convergence_orders(criterion):
    t0 = time.perf_counter()
    # the observation window stops before the relaxation layer (t ~ 0.8+),
    # where higher-order leading error terms cancel and distort the slopes
    ladder = {1: (3.125e-3, 1.5625e-3), 2: (6.25e-3, 3.125e-3),
              3: (1.25e-2, 6.25e-3), 4: (2.5e-2, 1.25e-2), 5: (6.25e-3, 3.125e-3)}
    # one halving finer where next-order contamination is visible at the
    # standard rungs
    override = {("ssp10,4-b2", "emb"): (6.25e-3, 3.125e-3),
                ("ssp10,4-b4", "emb"): (6.25e-3, 3.125e-3),
                ("bs32", "emb"): (3.125e-3, 1.5625e-3)}

    def segment():
        return OdeSystem(f=lambda t, u: vdp_rhs(t, u), t_span=(0.0, 0.5),
                         u0=np.array([2.0, -0.6654321]))

    u_ref = integrate_fixed(segment(), resolve("dp54"), 5e-4)
    cache = {}

    def observed_order(tab, dts):
        key = (tab.A.tobytes(), tab.b.tobytes(), dts)
        if key not in cache:
            e = [float(np.linalg.norm(integrate_fixed(segment(), tab, dt) - u_ref))
                 for dt in dts]
            cache[key] = float(np.log2(e[0] / e[1]))
        return cache[key]

    worst_main = worst_emb = 0.0
    failures = []
    for mid in catalog_ids():
        t = resolve(mid)
        q = observed_order(t, override.get((mid, "main"), ladder[t.p]))
        te = embedded_method(t)
        q_t = observed_order(te, override.get((mid, "emb"), ladder[t.p_tilde]))
        worst_main = max(worst_main, abs(q - t.p))
        worst_emb = max(worst_emb, abs(q_t - t.p_tilde))
        if abs(q - t.p) > 0.2 or abs(q_t - t.p_tilde) > 0.2:
            failures.append((mid, round(q, 2), round(q_t, 2)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    criterion(4, ok, f"all {len(catalog_ids())} pairs within 0.2: worst "
                     f"advancing dev {worst_main:.3f}, worst embedded dev "
                     f"{worst_emb:.3f}, failures={failures}, {elapsed:.1f}s < 60s")


def test_criterion_05_vdp_controller_reproduction_bands(criterion):
    """Standing failure; the cause is not settled by this repository.

    Measured (ssp2,2-b2, tol 1e-4): i/pi/pid/gustafsson take 1598/633/508/
    528 attempts against [1487,2478]/[953,1588]/[565,940]/[596,994]; only
    I is inside its band.  pid rejects 5 steps with l2 error 1.607e-4, both
    inside their clauses.  The code does what the README says: controller
    exponents are normalized by the embedded order of the pair.

    Probes, each made outside the package, none of which lands all four
    counts in their bands:

    - normalizing by p_tilde + 1: 504/555/561/599, and I becomes cheaper
      than PI, which breaks criterion 07's ordering PID < PI < I;
    - Gustafsson (1991) (err_n/err_{n+1})**(k2/p) in place of the code's
      (err_{n+1}/err_n)**(k2/p): gustafsson 522.  test_controller.py pins
      the code's form and no document here states the intended one;
    - an RMS error norm in place of the max norm: 1382/548/434/455;
    - rtol = 0: 3845/1306/1055/1094;
    - eps = 0.05 in place of 0.1: 2177/795/631/656, so the counts grow by
      24-36% when eps halves, and the paper's eps is not recorded.

    The paper's eps, error norm and tolerance convention are not in the
    repository (PAPER.md holds the abstract only).  Choosing them to land
    in the bands would be fitting the data, so the bands stand as written.
    """
    t0 = time.perf_counter()
    u_ref = reference_endpoint("vdp")
    runs = {}
    for kind in ("i", "pi", "pid", "gustafsson"):
        res = run_vdp("ssp2,2-b2", kind)
        runs[kind] = (res.n_attempts, res.n_rejected,
                      float(np.linalg.norm(res.u - u_ref)))
    bands = {"pid": (565, 940), "i": (1486.5, 2477.5), "pi": (952.5, 1587.5),
             "gustafsson": (596.25, 993.75)}
    clauses = {}
    for kind, (lo, hi) in bands.items():
        clauses[f"steps({kind})"] = lo <= runs[kind][0] <= hi
    clauses["rejected(pid)<=60"] = runs["pid"][1] <= 60
    clauses["l2(pid)"] = 5e-5 <= runs["pid"][2] <= 5e-4
    elapsed = time.perf_counter() - t0
    ok = all(clauses.values()) and elapsed < 10.0
    failed = sorted(k for k, v in clauses.items() if not v)
    criterion(5, ok, f"totals i/pi/pid/gust = {runs['i'][0]}/{runs['pi'][0]}/"
                     f"{runs['pid'][0]}/{runs['gustafsson'][0]} vs bands "
                     f"[1487,2478]/[953,1588]/[565,940]/[596,994]; pid rej="
                     f"{runs['pid'][1]}, pid l2={runs['pid'][2]:.3e}; "
                     f"failed={failed}; {elapsed:.1f}s < 10s")


def test_criterion_06_brusselator_reproduction_band(criterion):
    """Standing failure; the cause is not settled by this repository.

    Measured: ssp3,3-w with PID at atol = rtol = 1e-4 takes 169 attempts
    with l2 endpoint error 2.585e-3, against [230,380] attempts and an
    error in [1e-5,1e-4].

    - The reference endpoint is right: it agrees with SciPy's DOP853 at
      rtol = atol = 1e-13 to 1.0e-12.
    - No pair reaches an error <= 1e-4 at this tolerance on this problem:
      dp54 3.5e-3, bs32 5.0e-3, ssp4,3-b1 1.0e-3, ssp10,4-b3 7.2e-4,
      ssp9,3 2.2e-4.
    - The optimizer's weights are not the cause.  The order-2 embeddings
      of ssp3,3 form the family (a, a, 1 - 2a) (ssp3,3-w has a = 0.281);
      every a in [0.20, 0.45] gives 119-216 attempts and an error of at
      least 1.2e-3.
    - The initial state (1.01, 3) has no documented source.  Hairer,
      Norsett and Wanner use (1.5, 3), which gives 228 attempts and an
      error of 1.36e-3 against its own DOP853 reference.

    The paper's initial data, error norm and tolerance convention are not
    in the repository, so the band stands as written.
    """
    t0 = time.perf_counter()
    u_ref = reference_endpoint("brusselator")
    res = integrate_adaptive(brusselator(), resolve("ssp3,3-w"),
                             make_controller("pid"), 1e-4, 1e-4)
    err = float(np.linalg.norm(res.u - u_ref))
    elapsed = time.perf_counter() - t0
    steps_ok = 230 <= res.n_attempts <= 380
    err_ok = 1e-5 <= err <= 1e-4
    ok = steps_ok and err_ok and elapsed < 10.0
    criterion(6, ok, f"steps={res.n_attempts} vs [230,380] "
                     f"{'ok' if steps_ok else 'MISS'}; err={err:.3e} vs "
                     f"[1e-5,1e-4] {'ok' if err_ok else 'MISS'}; "
                     f"{elapsed:.1f}s < 10s")


def test_criterion_06_work_precision_curve_passes_beside_the_box():
    """Certificate for criterion 06: ssp3,3-w's own work-precision curve on
    the Brusselator never enters the band's box (attempts in [230, 380]
    with error <= 1e-4).

    PID, atol = rtol at 17 tolerances log-spaced from 1e-3 to 1e-7, about
    0.4 s.  Measured (attempts, l2 endpoint error):

    - 1e-3: 92, 1.0e-2; 1e-4: 169, 2.6e-3 (the band test's row);
    - the only rows with attempts in [230, 380] are 230, 271 and 322
      attempts (tolerances 3.2e-5, 1.8e-5, 1e-5), with errors 9.4e-4,
      5.8e-4 and 3.4e-4, 3.4x to 9.4x the box's 1e-4;
    - the error first drops to 1e-4 or below at 564 attempts, 6.9e-5
      (tolerance 1.8e-6), 1.5x the box's 380;
    - 1e-7: 1460, 4.4e-6.

    Attempts rise and the error falls at every step down the ladder, so no
    tolerance convention that moves along this curve can pass.  A pass
    needs another curve: other initial data, another error measure or
    another pair.  The band test and its verdict line stay as written.
    """
    u_ref = reference_endpoint("brusselator")
    tab = resolve("ssp3,3-w")
    rows = []
    for tol in np.logspace(-3, -7, 17):
        res = integrate_adaptive(brusselator(), tab, make_controller("pid"), tol, tol)
        rows.append((res.n_attempts, float(np.linalg.norm(res.u - u_ref))))
    attempts, errors = zip(*rows)
    assert all(a < b for a, b in zip(attempts, attempts[1:]))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert not any(230 <= n <= 380 and err <= 1e-4 for n, err in rows)
    in_band = [(n, err) for n, err in rows if 230 <= n <= 380]
    assert [n for n, _ in in_band] == [230, 271, 322]
    assert [err for _, err in in_band] == pytest.approx([9.415e-4, 5.806e-4, 3.437e-4], rel=1e-3)
    first = next((n, err) for n, err in rows if err <= 1e-4)
    assert first[0] == 564 and first[1] == pytest.approx(6.854e-5, rel=1e-3)


def test_criterion_07_controller_step_count_ordering(criterion):
    t0 = time.perf_counter()
    totals = {kind: run_vdp("ssp2,2-b2", kind).n_attempts
              for kind in ("i", "pi", "pid")}
    elapsed = time.perf_counter() - t0
    ok = totals["pid"] < totals["pi"] < totals["i"] and elapsed < 30.0
    criterion(7, ok, f"steps pid={totals['pid']} < pi={totals['pi']} < "
                     f"i={totals['i']}; {elapsed:.1f}s < 30s")


def test_criterion_08_total_variation_never_grows(criterion):
    t0 = time.perf_counter()
    tol = 1e-12  # roundoff allowance on TV sums of ~2
    worst = {}
    for s in (2, 4, 6):
        prob = upwind_advection(200)
        tvs = []
        integrate_fixed(prob, resolve(f"ssp{s},2-b1"), (s - 1) * prob.grid.dx,
                        callback=lambda t, u: tvs.append(total_variation(u)))
        worst[s] = max(b - a for a, b in zip(tvs, tvs[1:]))
    elapsed = time.perf_counter() - t0
    ok = all(v <= tol for v in worst.values()) and elapsed < 10.0
    criterion(8, ok, "max TV increase at dt=(s-1)dt_FE: " +
                     ", ".join(f"s={s}: {v:.1e}" for s, v in worst.items()) +
                     f" (all <= 1e-12); {elapsed:.1f}s < 10s")


def test_criterion_09_global_error_tracks_the_tolerance(criterion):
    t0 = time.perf_counter()
    u_ref = reference_endpoint("vdp")
    tols = (1e-3, 1e-4, 1e-5, 1e-6)
    slopes = {}
    for mid in ("ssp2,2-b2", "ssp4,3-b1", "ssp10,4-b3"):
        errs = []
        for tol in tols:
            res = run_vdp(mid, "pid", tol)
            errs.append(float(np.linalg.norm(res.u - u_ref)))
        slopes[mid] = float(np.polyfit(np.log10(tols), np.log10(errs), 1)[0])
    elapsed = time.perf_counter() - t0
    ok = all(0.7 <= v <= 1.3 for v in slopes.values()) and elapsed < 60.0
    criterion(9, ok, "log-log err/tol slopes: " +
                     ", ".join(f"{k}: {v:.3f}" for k, v in slopes.items()) +
                     f" (all in [0.7,1.3]); {elapsed:.1f}s < 60s")


def test_criterion_10_weno5_spatial_convergence(criterion):
    t0 = time.perf_counter()
    errs = {}
    for n in (25, 50, 100):
        prob = advection(n_cells=n, profile="sine", t_final=2.0)
        u_end = integrate_fixed(prob, resolve("ssp10,4-b3"), 1e-3)
        errs[n] = float(prob.grid.dx * np.sum(np.abs(u_end - sine_average(prob.grid))))
    s1 = float(np.log2(errs[25] / errs[50]))
    s2 = float(np.log2(errs[50] / errs[100]))
    elapsed = time.perf_counter() - t0
    ok = min(s1, s2) >= 4.5 and elapsed < 120.0
    criterion(10, ok, f"L1 dx-halving slopes {s1:.3f}, {s2:.3f} >= 4.5 "
                      f"(one advected period, dt=1e-3); {elapsed:.1f}s < 120s")


def test_criterion_11_overestimating_weights_pathology(criterion):
    """Standing failure; the cause is not settled by this repository.

    Measured: ssp10,4-b2/b3 with PID at 1e-4 use 522/572 fev, a ratio of
    0.913 where >= 3 is needed, and b2's error is 7.8e-5 where <= 1e-5 is
    needed.  At tolerances 1e-1 to 1e-6 the ratio stays between 0.90 and
    1.06.

    The premise is that b2 overestimates the error and so takes small
    steps.  On the linear part of the problem the cataloged b2 does the
    opposite: its leading linear estimator coefficient |(b - b2)^T A^3 e|
    is 6.6e-4 against 2.6e-3 for b3, so b2 reports the smaller error and
    takes the larger steps.  b2 passes criterion 01 (order 3 embedding,
    non-defective).  Either the cataloged b2 differs from the paper's b2
    or the premise comes from another set-up; without the paper's tables
    the repository cannot tell which, so the band stands as written.

    No box-bounded embedding of this A reaches the band under the leading
    term: the coefficient is linear in w, and over every w in [0, 1]^10
    meeting the order-3 conditions it lies in [-5.66e-3, 1/144]
    (``test_criterion_11_leading_coefficient_is_bounded_by_an_lp``).  The
    largest admissible value is 2.70x b3's, and with local error C dt^4 the
    step scales as C^(-1/4), so the fev ratio is at most 2.70^(1/4) = 1.28
    against the 3 the band needs.
    """
    t0 = time.perf_counter()
    u_ref = reference_endpoint("advection")
    out = {}
    for var in ("b2", "b3"):
        prob = advection(n_cells=200, profile="square", t_final=0.2)
        res = integrate_adaptive(prob, resolve(f"ssp10,4-{var}"),
                                 make_controller("pid"), 1e-4, 1e-4)
        out[var] = (res.n_fev, float(np.linalg.norm(res.u - u_ref)))
    ratio = out["b2"][0] / out["b3"][0]
    elapsed = time.perf_counter() - t0
    work_ok = ratio >= 3.0
    err_ok = out["b2"][1] <= 1e-4 / 10.0
    ok = work_ok and err_ok and elapsed < 300.0
    criterion(11, ok, f"nfev b2/b3 = {out['b2'][0]}/{out['b3'][0]} "
                      f"(ratio {ratio:.3f}, need >= 3) "
                      f"{'ok' if work_ok else 'MISS'}; b2 err="
                      f"{out['b2'][1]:.3e} vs <= 1e-5 "
                      f"{'ok' if err_ok else 'MISS'}; {elapsed:.1f}s < 300s")


def test_criterion_11_leading_coefficient_is_bounded_by_an_lp():
    """Certificate for criterion 11: HiGHS bounds (b - w)^T A^3 e over every
    w in [0, 1]^10 that meets the order-3 conditions of ssp10,4."""
    t = resolve("ssp10,4-b3")
    v = np.linalg.matrix_power(t.A, 3) @ np.ones(t.s)
    M, rhs = analysis.OrderConditions(t.A).up_to(3)
    w_lo = linprog(-v, A_eq=M, b_eq=rhs, bounds=(0.0, 1.0), method="highs")
    w_hi = linprog(v, A_eq=M, b_eq=rhs, bounds=(0.0, 1.0), method="highs")
    assert w_lo.status == 0 and w_hi.status == 0
    lo, hi = (t.b - w_lo.x) @ v, (t.b - w_hi.x) @ v
    assert lo == pytest.approx(-5.658436e-3, abs=1e-9)
    assert hi == pytest.approx(1.0 / 144.0, abs=1e-12)
    coef = {var: (t.b - resolve(f"ssp10,4-{var}").b_tilde) @ v for var in ("b2", "b3")}
    assert coef["b2"] == pytest.approx(6.614e-4, abs=1e-7) and coef["b3"] == pytest.approx(2.572e-3, abs=1e-6)
    assert all(lo <= c <= hi for c in coef.values())
    assert hi / coef["b3"] == pytest.approx(2.70, abs=1e-9)


def test_criterion_12_optimizer_soundness(criterion):
    t0 = time.perf_counter()
    base = resolve("ssp3,2-b1")
    baseline = 0.25  # cost of the closed-form second embedded family member
    found = optimize_embedded(OptimizationSpec(tableau=base))
    feasible = (found.status == "ok" and found.non_defective
                and abs(float(np.sum(found.w)) - 1.0) <= 1e-9
                and np.all(found.w >= -1e-12) and np.all(found.w <= 1 + 1e-12))
    screened = optimize_embedded(
        OptimizationSpec(tableau=resolve("ssp9,3"), require_ssp_at=6.0))
    elapsed = time.perf_counter() - t0
    ok = (feasible and found.objective <= baseline + 1e-9
          and screened.status == "no-solution" and elapsed < 300.0)
    criterion(12, ok, f"ssp3,2 search: {found.status}, objective "
                      f"{found.objective:.6f} <= 0.25 baseline; ssp9,3 at "
                      f"C=6: {screened.status}; {elapsed:.1f}s < 300s")
