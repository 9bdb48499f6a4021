"""Order conditions, stability radii, SSP coefficients, error measures.

Numerical oracles below were computed independently: closed forms where
they exist (two-stage second-order polynomial, forward Euler, imaginary
axis sqrt(3) for the classical three-stage method), bisection on |psi|
along rays for the rest, cross-checked against the known SSP limits.
"""

import importlib.util
import json
import math
from dataclasses import asdict, fields, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.polynomial import Polynomial

from sspkit.analysis import (
    TREES,
    _bounded_by_one,
    ErrorMeasures,
    OrderConditions,
    StabilityRadii,
    absolute_monotonicity_radius,
    analyze_method,
    circle_contractivity_radius,
    classify_order,
    error_measures,
    imag_axis_inclusion,
    is_non_defective,
    order_condition_residuals,
    real_axis_inclusion,
    ssp_coefficient_arrays,
    stability_polynomial,
    stability_radii,
    stability_region_grid,
)
from sspkit.tableau import catalog_ids, resolve

from conftest import embedded_method, ssp_ids


# ------------------------------------------------------------- residuals


def _random_tableau(rng, s):
    A = np.tril(rng.uniform(0.0, 0.5, (s, s)), -1)
    b = rng.uniform(0.0, 1.0, s)
    return A, b / b.sum()


def test_residual_keys_cover_both_conventions():
    t = resolve("ssp2,2-b1")
    keys = set(order_condition_residuals(t.A, t.b))
    assert {"q1", "q2", "q3a", "q3b", "q4a", "q4b", "q4c", "q4d"} <= keys
    assert {"t1", "t2", "t31", "t32", "t41", "t42", "t43", "t44"} <= keys


@given(st.integers(min_value=3, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_composite_residuals_are_tree_combinations(s, seed):
    # the grouped conditions are exact linear combinations of the
    # rooted-tree residuals, for any weights and any strictly lower A
    A, b = _random_tableau(np.random.default_rng(seed), s)
    r = order_condition_residuals(A, b)
    assert r["q3b"] == pytest.approx(r["t31"] / 2 - r["t32"], abs=1e-12)
    assert r["q4b"] == pytest.approx(r["t43"] / 2 - r["t44"], abs=1e-12)
    assert r["q4c"] == pytest.approx(r["t41"] / 6 - r["t43"] / 2, abs=1e-12)
    assert r["q4d"] == pytest.approx(r["t41"] / 2 - r["t42"], abs=1e-12)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=2**31))
def test_tree_matrices_match_the_per_tree_loop(s, seed):
    # reference: one dot product per tree and the displayed composite
    # vectors; the matrix products may sum in another order, so allow a
    # few ulps of the summed magnitudes
    eps = np.finfo(float).eps
    A, w = _random_tableau(np.random.default_rng(seed), s)
    c = A.sum(axis=1)
    oc = OrderConditions(A)
    for q in range(1, 6):
        trees = [t for t in TREES if t.order == q]
        want = np.array([w @ t.phi(A, c) - 1.0 / t.gamma for t in trees])
        scale = np.abs(oc.phi[q]) @ np.abs(w) + oc.g[q]
        assert np.all(np.abs(oc.tau(w, q) - want) <= 8 * eps * scale), q
    displayed = {
        "q1": np.ones(s), "q2": c, "q3a": c * c, "q3b": c * c / 2 - A @ c,
        "q4a": c ** 3, "q4b": A @ (c * c / 2 - A @ c),
        "q4c": c ** 3 / 6 - A @ (c * c) / 2, "q4d": c * (c * c / 2 - A @ c),
    }
    rhs = {"q1": 1.0, "q2": 0.5, "q3a": 1 / 3, "q4a": 0.25}
    for q in range(1, 5):
        for name, v, r in zip(*oc.conditions[q]):
            tol = 8 * eps * max(1.0, np.max(np.abs(oc.phi[q])))
            assert np.all(np.abs(v - displayed[name]) <= tol), name
            assert r == rhs.get(name, 0.0), name


def test_tree_residuals_vanish_up_to_claimed_order():
    groups = {1: ("t1",), 2: ("t2",), 3: ("t31", "t32"), 4: ("t41", "t42", "t43", "t44")}
    for mid in catalog_ids():
        t = resolve(mid)
        r = order_condition_residuals(t.A, t.b)
        for q in range(1, min(t.p, 4) + 1):
            for name in groups[q]:
                assert abs(r[name]) < 1e-12, (mid, name)


def test_classify_order_matches_catalog_claims():
    for mid in catalog_ids():
        t = resolve(mid)
        assert classify_order(t.A, t.b) == t.p, mid
        assert classify_order(t.A, t.b_tilde) == t.p_tilde, mid


def test_classify_order_zero_for_unnormalized_weights():
    t = resolve("ssp2,2-b1")
    assert classify_order(t.A, np.array([0.3, 0.3])) == 0


def test_vacuous_conditions_for_ten_stage_fourth_order():
    t = resolve("ssp10,4-b3")
    # one grouped fourth-order condition is implied by A alone: no weight
    # vector can violate it, so defectiveness checks must exempt it
    assert OrderConditions(t.A).vacuous(4) == {"q4c"}
    t22 = resolve("ssp2,2-b1")
    assert OrderConditions(t22.A).vacuous(2) == set()


def test_non_defectiveness_catalog_flags():
    for mid in catalog_ids():
        t = resolve(mid)
        rep = is_non_defective(t)
        if mid == "bs32":
            # its embedded weights satisfy the grouped third-order
            # condition b^T(c^2/2 - Ac) = 0 exactly
            assert not rep.ok
            assert rep.residuals["q3b"] == pytest.approx(0.0, abs=1e-15)
        else:
            assert rep.ok, mid
    assert is_non_defective(resolve("ssp10,4-b3")).exempt == frozenset({"q4c"})


# --------------------------------------------------------- ssp coefficients


def test_ssp_coefficient_second_order_family():
    for s in (2, 4, 6, 8, 10):
        t = resolve(f"ssp{s},2-b1")
        assert ssp_coefficient_arrays(t.A, t.b) == pytest.approx(s - 1, abs=1e-5)


def _advancing_ssp(mid):
    t = resolve(mid)
    return ssp_coefficient_arrays(t.A, t.b)


def test_ssp_coefficient_third_and_fourth_order():
    assert _advancing_ssp("ssp4,3-b1") == pytest.approx(2.0, abs=1e-5)
    assert _advancing_ssp("ssp9,3") == pytest.approx(6.0, abs=1e-5)
    assert _advancing_ssp("ssp16,3") == pytest.approx(12.0, abs=1e-5)
    assert _advancing_ssp("ssp10,4-b3") == pytest.approx(6.0, abs=1e-5)


def test_ssp_coefficient_zero_for_non_ssp_pairs():
    assert _advancing_ssp("dp54") == pytest.approx(0.0, abs=1e-6)
    assert _advancing_ssp("bs32") == pytest.approx(0.0, abs=1e-6)


def test_embedded_ssp_coefficient_first_variant_keeps_radius():
    # the (1/(s-1), ..., 0) embedded weights inherit the full radius
    t = resolve("ssp6,2-b1")
    assert ssp_coefficient_arrays(t.A, t.b_tilde) == pytest.approx(5.0, abs=1e-5)


# ------------------------------------------------------ stability polynomial


def test_stability_polynomial_two_stage():
    t = resolve("ssp2,2-b1")
    np.testing.assert_allclose(stability_polynomial(t.A, t.b), [1.0, 1.0, 0.5], atol=1e-14)


@pytest.mark.parametrize("A", [[[0.0, 1.0], [0.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]], [[0.0, 0.0], [1.0, np.nan]]])
def test_stability_polynomial_rejects_a_matrix_that_is_not_strictly_lower(A):
    with pytest.raises(ValueError, match="strictly lower triangular"):
        stability_polynomial(A, [0.5, 0.5])


def test_stability_polynomial_leading_terms_are_reciprocal_factorials():
    for mid in catalog_ids():
        t = resolve(mid)
        coeffs = stability_polynomial(t.A, t.b)
        for k in range(t.p + 1):
            assert coeffs[k] == pytest.approx(1.0 / math.factorial(k), abs=1e-12), mid


# ------------------------------------------------------------ radii oracles


def test_two_stage_radii_closed_forms():
    # |1 + z + z^2/2| = 1 on the real axis exactly at z = -2; the interval
    # touches the imaginary axis only at the origin; the polynomial has
    # nonnegative coefficients when shifted by r = 1 and not beyond
    coeffs = stability_polynomial(*(lambda t: (t.A, t.b))(resolve("ssp2,2-b1")))
    assert real_axis_inclusion(coeffs) == pytest.approx(2.0, rel=1e-12)
    assert imag_axis_inclusion(coeffs) == pytest.approx(0.0, abs=1e-15)
    assert circle_contractivity_radius(coeffs) == pytest.approx(1.0, abs=1e-4)
    assert absolute_monotonicity_radius(coeffs) == pytest.approx(1.0, abs=1e-6)


def test_forward_euler_radii():
    coeffs = np.array([1.0, 1.0])
    r = stability_radii(coeffs)
    assert r.delta_R == pytest.approx(2.0, rel=1e-12)
    assert r.delta_I == pytest.approx(0.0, abs=1e-15)
    assert r.delta_C == pytest.approx(1.0, abs=1e-4)
    assert r.R_psi == pytest.approx(1.0, abs=1e-6)


def test_classical_three_stage_imag_axis_reaches_sqrt3():
    # psi(-x) = -1 at the real root of x^3 - 3x^2 + 6x - 12, which
    # Cardano's formula gives in closed form
    t = resolve("ssp3,3-w")
    coeffs = stability_polynomial(t.A, t.b)
    root17 = math.sqrt(17.0)
    assert imag_axis_inclusion(coeffs) == pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert real_axis_inclusion(coeffs) == pytest.approx(
        1.0 + math.cbrt(4.0 + root17) - math.cbrt(root17 - 4.0), rel=1e-12)


def test_a_tangency_from_below_does_not_end_the_real_interval():
    # psi(-x) - 1 = -x (1 - x)^2: |psi(-1)| = 1 from below, and psi(-2) = -1
    assert real_axis_inclusion([1.0, 1.0, 2.0, 1.0]) == pytest.approx(2.0, rel=1e-12)


def _radius_cases():
    rng = np.random.default_rng(2024)
    cases = [(i, stability_polynomial(resolve(i).A, resolve(i).b)) for i in catalog_ids()]
    for n in range(40):
        deg = int(rng.integers(2, 17))
        tail = rng.uniform(-0.5, 1.5, deg - 1) / [math.factorial(k) for k in range(2, deg + 1)]
        cases.append((f"random {n}", np.concatenate(([1.0, 1.0], tail))))
    return cases


def test_axis_radii_are_maximal_under_the_modulus_test():
    # an independent check of what the radii mean, by dense sampling: the
    # modulus test holds on the whole interval, and fails within 1% beyond
    # it unless the radius is the search cap (a zero radius: within 0.1)
    for name, coeffs in _radius_cases():
        cap = 10.0 * max(1, len(coeffs) - 1)
        for radius, point in ((real_axis_inclusion(coeffs), lambda x: -x),
                              (imag_axis_inclusion(coeffs), lambda y: 1j * y)):
            assert _bounded_by_one(coeffs, point(np.linspace(0.0, radius, 20001))), (name, radius)
            if radius < cap:
                beyond = np.linspace(radius, min(cap, 1.01 * radius if radius else 0.1), 20001)[1:]
                assert not _bounded_by_one(coeffs, point(beyond)), (name, radius)


def test_ten_stage_fourth_order_radii_frozen():
    t = resolve("ssp10,4-b3")
    r = stability_radii(stability_polynomial(t.A, t.b))
    assert r.delta_R == pytest.approx(13.917047, abs=1e-3)
    assert r.delta_I == pytest.approx(4.921453, abs=1e-3)
    assert r.delta_C == pytest.approx(6.0, abs=1e-4)
    assert r.R_psi == pytest.approx(6.0, abs=1e-6)


def test_nine_stage_third_order_radii_frozen():
    t = resolve("ssp9,3")
    r = stability_radii(stability_polynomial(t.A, t.b))
    assert r.delta_R == pytest.approx(13.289759, abs=1e-3)
    assert r.delta_I == pytest.approx(4.117647, abs=1e-3)
    assert r.delta_C == pytest.approx(6.0, abs=1e-4)
    assert r.R_psi == pytest.approx(6.0, abs=1e-6)


def test_radii_ordering_catalog_wide():
    # contractivity on the inscribed circle is weaker than real-axis
    # inclusion and stronger than absolute monotonicity; tolerance covers
    # tangential threshold crossings where bisection overshoots by ~1e-3
    for mid in catalog_ids():
        t = resolve(mid)
        r = stability_radii(stability_polynomial(t.A, t.b))
        assert r.R_psi <= r.delta_C + 5e-3, mid
        assert r.delta_C <= r.delta_R + 5e-3, mid


def _fraction_am_radius(coeffs) -> float:
    """R_psi as computed with Taylor shifts in Fractions: the reference
    the integer shifts must reproduce exactly."""
    def shift(c, x0):
        d = [Fraction(v) for v in c]
        x0 = Fraction(x0)
        n = len(d) - 1
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                d[j] += x0 * d[j + 1]
        return d

    coeffs = np.asarray(coeffs, dtype=float)
    eps4 = 4.0 * np.finfo(float).eps

    def feasible(r):
        amp = shift(np.abs(coeffs), r)
        return all(dj >= -max(eps4 * float(mj), 1e-12) for dj, mj in zip(shift(coeffs, -r), amp))

    if not feasible(0.0):
        return 0.0
    lo, hi = 0.0, 10.0 * max(1, len(coeffs) - 1)
    if feasible(hi):
        return hi
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if feasible(mid) else (lo, mid)
    return lo


def test_monotonicity_radius_equals_the_fraction_shift_exactly():
    # every catalog psi; random sum_j a_j (1 + z/r)^j, a_j >= 0 over 12
    # decades, of degree 1..16, whose threshold is at least r (so the
    # bisection runs); and random coefficients over 12 decades
    polys = [stability_polynomial(t.A, t.b) for t in map(resolve, catalog_ids())]
    rng = np.random.default_rng(20261018)
    for k in range(24):
        deg = 1 + k % 16
        a = 10.0 ** rng.uniform(-12.0, 0.0, deg + 1)
        r = rng.uniform(0.5, 2.0 * deg)
        polys.append(sum(aj * Polynomial([1.0, 1.0 / r]) ** j for j, aj in enumerate(a / a.sum())).coef)
    for k in range(8):
        polys.append(np.concatenate([[1.0], 10.0 ** rng.uniform(-12.0, 0.0, 2 * k + 1)]))
    for c in polys:
        assert absolute_monotonicity_radius(c) == _fraction_am_radius(c), c.tolist()


@pytest.mark.parametrize("radius", [real_axis_inclusion, imag_axis_inclusion,
                                    circle_contractivity_radius, absolute_monotonicity_radius])
@pytest.mark.parametrize("coeffs", [[], [1.0, math.nan], [1.0, 1.0, math.inf], [[1.0, 1.0]]])
def test_radius_functions_reject_empty_or_non_finite_coefficients(radius, coeffs):
    # they used to disagree: 10.0, IndexError, "a cannot be empty", 0.0 or
    # "cannot convert NaN to integer ratio", depending on the function
    with pytest.raises(ValueError, match="nonempty 1-D array of finite coefficients"):
        radius(coeffs)


def test_monotonicity_radius_bounds_ssp_coefficient():
    for mid in ssp_ids():
        t = resolve(mid)
        r = absolute_monotonicity_radius(stability_polynomial(t.A, t.b))
        assert r >= t.ssp_claimed - 1e-6, mid


# ------------------------------------------------------------ error measures


def test_error_measures_frozen_for_recommended_fourth_order_pair():
    m = error_measures(resolve("ssp10,4-b3"))
    assert m.A2 == pytest.approx(0.005197, abs=1e-5)
    assert m.Ainf == pytest.approx(0.002778, abs=1e-5)
    assert m.A2_emb == pytest.approx(0.013355, abs=1e-5)
    assert m.Ainf_emb == pytest.approx(0.012346, abs=1e-5)
    assert m.B2 == pytest.approx(0.389133, abs=1e-5)
    assert m.Binf == pytest.approx(0.225, abs=1e-5)
    assert m.C2 == pytest.approx(1.861853, abs=1e-5)
    assert m.D == pytest.approx(1.0, abs=1e-12)


def _ref_error_measures(t) -> ErrorMeasures:
    """error_measures with its norms in NumPy: np.linalg.norm and
    np.max(np.abs(.)), the reference for the Python-scalar norms."""
    def ratio(num, den):
        return float(num / den) if den != 0.0 else math.inf

    oc = OrderConditions(t.A)
    p = t.p
    tau_main = oc.tau(t.b, p + 1)
    tau_emb = oc.tau(t.b_tilde, p)
    diff = oc.tau(t.b_tilde, p + 1) - tau_main
    a2, ainf = np.linalg.norm(tau_main), np.max(np.abs(tau_main))
    a2e, ainfe = np.linalg.norm(tau_emb), np.max(np.abs(tau_emb))
    d = max(np.max(np.abs(t.A)), np.max(np.abs(t.b)), np.max(np.abs(t.b_tilde)), np.max(np.abs(t.c)))
    return ErrorMeasures(float(a2), float(ainf), float(a2e), float(ainfe), ratio(a2, a2e),
                         ratio(ainf, ainfe), ratio(np.linalg.norm(diff), a2e),
                         ratio(np.max(np.abs(diff)), ainfe), D=float(d))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_error_measures_equal_the_numpy_norms_exactly():
    pairs = [t for t in map(resolve, catalog_ids()) if t.p <= 4]
    assert len(pairs) == len(catalog_ids()) - 1  # every pair but dp54
    nan, inf = math.nan, math.inf
    odd = [replace(resolve("ssp3,2-b1"), b_tilde=w) for w in ([nan] * 3, [0.5, nan, 0.5], [0.0, inf, 0.0])]
    odd += [replace(resolve("ssp3,3"), b_tilde=[0.0, inf, 0.0]),       # NaN behind an inf
            replace(resolve("ssp2,2-b2"), b_tilde=[0.5, 0.5])]        # defective: A2_emb = 0
    for t in pairs + odd:
        got, want = asdict(error_measures(t)), asdict(_ref_error_measures(t))
        assert all(got[k] == want[k] or (math.isnan(got[k]) and math.isnan(want[k])) for k in got), t.id


def test_error_measure_ratios_are_consistent():
    for mid in ("ssp2,2-b2", "ssp4,3-b2", "ssp10,4-b1", "bs32"):
        m = error_measures(resolve(mid))
        assert m.B2 == pytest.approx(m.A2 / m.A2_emb, rel=1e-12)
        assert m.A2 > 0 and m.A2_emb > 0
        assert m.D <= 1.0 + 1e-12


# ------------------------------------------------------------- region grid


def test_stability_region_grid_shape_and_origin_value():
    coeffs = np.array([1.0, 1.0, 0.5])
    re, im, mag = stability_region_grid(coeffs, re_range=(-3, 1), im_range=(-2, 2), nx=5, ny=5)
    assert re.shape == (5,) and im.shape == (5,) and mag.shape == (5, 5)
    i0 = np.argmin(np.abs(im))
    j0 = np.argmin(np.abs(re + 2.0))
    assert mag[i0, j0] == pytest.approx(1.0, abs=1e-12)  # psi(-2) = 1 exactly


def test_stability_region_grid_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        stability_region_grid(np.array([1.0, 1.0]), nx=1)


@pytest.mark.parametrize("ranges", [
    {"re_range": (math.nan, 1.0)},
    {"re_range": (1.0, -1.0)},
    {"re_range": (0.0, 0.0)},
    {"im_range": (-1.0, math.inf)},
    {"im_range": (2.0, math.nan)},
])
def test_stability_region_grid_rejects_a_nan_or_reversed_range(ranges):
    with pytest.raises(ValueError, match="finite MIN < MAX"):
        stability_region_grid(np.array([1.0, 1.0]), **ranges)


# ---------------------------------------------------------------- summaries


def test_analyze_method_reports_key_fields():
    d = analyze_method(resolve("ssp2,2-b2"))
    assert d["id"] == "ssp2,2-b2"
    assert d["p"] == 2 and d["p_tilde"] == 1
    assert d["ssp_main"] == pytest.approx(1.0, abs=1e-5)
    assert d["non_defective"] is True
    assert d["delta_R"] == pytest.approx(2.0, abs=1e-4)


def test_analyze_method_on_swapped_weights_sees_lower_order():
    t = embedded_method(resolve("ssp4,3-b2"))
    assert classify_order(t.A, t.b) == 2


@pytest.fixture(scope="module")
def catalog_reports():
    return {i: analyze_method(resolve(i)) for i in catalog_ids()}


def test_report_keys_are_the_result_field_names(catalog_reports):
    radii_keys = [f.name for f in fields(StabilityRadii)]
    em_keys = [f.name for f in fields(ErrorMeasures)]
    for i, rep in catalog_reports.items():
        assert list(rep) == ["id", "p", "p_tilde", "ssp_main", "ssp_embedded",
                             *radii_keys, *em_keys, "non_defective"], i
        t = resolve(i)
        radii = stability_radii(stability_polynomial(t.A, t.b))
        assert {k: rep[k] for k in radii_keys} == asdict(radii), i
        if rep["p"] <= 4:
            assert {k: rep[k] for k in em_keys} == asdict(error_measures(t)), i
        else:
            assert all(rep[k] is None for k in em_keys), i


def test_reports_match_the_benchmark_expectations(catalog_reports):
    # the design-search workload checks these reports with its own _close
    # and ANALYSIS_RTOL; a drift shows here instead of only in the benchmark
    # self-test
    path = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    expected = json.loads(worker.EXPECTED.read_text())
    stored = {k.split("|", 1)[1] for k in expected if k.startswith("analyze|")}
    assert set(catalog_reports) == stored
    for i, rep in catalog_reports.items():
        want = expected[f"analyze|{i}"]["report"]
        assert set(rep) == set(want), i
        bad = [k for k, v in want.items() if not worker._close(rep[k], v, worker.ANALYSIS_RTOL)]
        assert not bad, f"{i}: {bad}"
