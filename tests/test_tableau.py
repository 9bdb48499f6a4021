"""Tableau construction, id grammar, and catalog integrity."""

import time
import types
from dataclasses import replace

import numpy as np
import pytest

from sspkit.tableau import EmbeddedTableau, catalog_ids, resolve

from conftest import ssp_ids


# ---------------------------------------------------------------- id grammar

def test_parse_round_trips_canonical_ids():
    for mid in catalog_ids():
        assert resolve(mid).id == mid


def test_parse_is_case_insensitive():
    assert resolve("SSP10,4-B3").id == "ssp10,4-b3"
    assert resolve("DP54").id == "dp54"


@pytest.mark.parametrize("bad", ["ssp2", "ssp2,5", "rk4", "ssp2,2-b9x", ""])
def test_parse_rejects_malformed_ids(bad):
    with pytest.raises(ValueError, match="(unrecognized|unsupported order in) method id"):
        resolve(bad)


def test_resolve_rejects_unknown_variant():
    with pytest.raises(ValueError):
        resolve("ssp2,2-b7")


@pytest.mark.parametrize("bad, message", [
    ("ssp1,2-b1", "^stage count s of ssp1,2 must be between 2 and 99, got 1$"),
    ("ssp1,3", "^stage count s of ssp1,3 must be between 3 and 99, got 1$"),
    ("ssp8,3", "square stage count"),
    ("ssp9,4-b3", "10 stages only"),
    ("ssp3,3-b1", "unknown embedded variant"),
    ("ssp9,3-b1", "unknown embedded variant"),
    ("ssp10,4-b9", "unknown embedded variant"),
    # past the stated bound: ssp100,3 and ssp144,2 used to fail in NumPy's
    # polynomial roots, and ssp99999,2 to build a 99999 x 99999 Fraction matrix
    ("ssp100,2", "^stage count s of ssp100,2 must be between 2 and 99, got 100$"),
    ("ssp100,3", "^stage count s of ssp100,3 must be between 3 and 99, got 100$"),
    ("ssp144,2-b2", "^stage count s of ssp144,2 must be between 2 and 99, got 144$"),
    ("ssp99999,2", "^stage count s of ssp99999,2 must be between 2 and 99, got 99999$"),
    ("ssp99999,2-w", "^stage count s of ssp99999,2 must be between 2 and 99, got 99999$"),
    # int() refused the 5000-digit fields with Python's "Exceeds the limit
    # (4300 digits) for integer string conversion", naming neither the field
    # nor its bound
    pytest.param("ssp" + "9" * 5000 + ",2",
                 "^stage count s of ssp<5000 digits>,2 must be at most 99, got a number of 5000 digits$",
                 id="s-of-5000-digits"),
    pytest.param("ssp3," + "9" * 5000,
                 "^order p of ssp3,<5000 digits> must be between 2 and 4, got a number of 5000 digits$",
                 id="p-of-5000-digits"),
    pytest.param("ssp" + "9" * 21 + ",3-w",
                 "^stage count s of ssp<21 digits>,3 must be at most 99, got a number of 21 digits$",
                 id="s-of-21-digits"),
    ("ssp" + "9" * 20 + ",3", "^stage count s of ssp9{20},3 must be between 3 and 99, got 9{20}$"),
])
def test_resolve_checks_the_stage_count_and_the_variant(bad, message):
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=message):
        resolve(bad)
    assert time.perf_counter() - t0 < 0.1


# ------------------------------------------------------- exact coefficients

def test_two_stage_second_order_entries():
    t = resolve("ssp2,2-b2")
    assert t.A.tolist() == [[0.0, 0.0], [1.0, 0.0]]
    assert t.b.tolist() == [0.5, 0.5]
    assert t.c.tolist() == [0.0, 1.0]
    # (s+1)/s^2 and (s-1)/s^2 at the ends for s = 2
    assert t.b_tilde.tolist() == [0.75, 0.25]
    assert (t.p, t.p_tilde) == (2, 1)


def test_second_order_family_structure():
    for s in range(2, 11):
        t = resolve(f"ssp{s},2-b1")
        low = 1.0 / (s - 1)
        tri = np.tril(np.full((s, s), low), -1)
        np.testing.assert_allclose(t.A, tri, atol=1e-15)
        np.testing.assert_allclose(t.b, np.full(s, 1.0 / s), atol=1e-15)
        np.testing.assert_allclose(t.c, np.arange(s) / (s - 1), atol=1e-15)
        expect = [low] * (s - 1) + [0.0]
        np.testing.assert_allclose(t.b_tilde, expect, atol=1e-15)


def test_third_order_nine_stage_block_weights():
    # s = n^2 with n = 3: b has (n-1)(n-2)/2 = 1 leading 1/n(n-1) entry,
    # 2n-1 = 5 middle entries 1/n(2n-1), and n(n-1)/2 = 3 trailing ones
    t = resolve("ssp9,3")
    b = t.b
    np.testing.assert_allclose(b[:1], 1 / 6, atol=1e-15)
    np.testing.assert_allclose(b[1:6], 1 / 15, atol=1e-15)
    np.testing.assert_allclose(b[6:], 1 / 6, atol=1e-15)
    assert abs(b.sum() - 1.0) < 1e-14


def test_four_stage_third_order_embedded_vectors():
    t1 = resolve("ssp4,3-b1")
    np.testing.assert_allclose(t1.b_tilde, [1 / 3, 1 / 3, 1 / 3, 0.0], atol=1e-15)
    t2 = resolve("ssp4,3-b2")
    np.testing.assert_allclose(t2.b_tilde, [0.25, 0.25, 0.25, 0.25], atol=1e-15)


def test_ten_stage_fourth_order_structure():
    t = resolve("ssp10,4-b3")
    for i in range(10):
        for j in range(10):
            if j >= i:
                assert t.A[i, j] == 0.0
            elif i >= 5 and j < 5:
                assert abs(t.A[i, j] - 1 / 15) < 1e-15
            else:
                assert abs(t.A[i, j] - 1 / 6) < 1e-15
    np.testing.assert_allclose(t.b, np.full(10, 0.1), atol=1e-15)
    np.testing.assert_allclose(
        t.b_tilde, [0, 2 / 9, 0, 0, 5 / 18, 1 / 3, 0, 0, 0, 1 / 6], atol=1e-15
    )


def test_literature_pairs_have_expected_shape_and_orders():
    bs = resolve("bs32")
    assert bs.s == 4 and (bs.p, bs.p_tilde) == (3, 2)
    np.testing.assert_allclose(bs.b, [2 / 9, 1 / 3, 4 / 9, 0.0], atol=1e-15)
    np.testing.assert_allclose(bs.b_tilde, [7 / 24, 1 / 4, 1 / 3, 1 / 8], atol=1e-15)
    dp = resolve("dp54")
    assert dp.s == 7 and (dp.p, dp.p_tilde) == (5, 4)
    assert abs(dp.b[0] - 35 / 384) < 1e-15
    assert abs(dp.b_tilde[6] - 1 / 40) < 1e-15


# ------------------------------------------------------------ catalog-wide

def test_catalog_has_32_pairs_all_valid():
    ids = catalog_ids()
    assert len(ids) == 32
    for mid in ids:
        t = resolve(mid)
        assert abs(t.b.sum() - 1.0) <= 1e-13, mid
        assert abs(t.b_tilde.sum() - 1.0) <= 1e-13, mid
        assert t.b_tilde is not None
        assert t.p_tilde == t.p - 1


def test_abscissae_are_row_sums():
    for mid in catalog_ids():
        t = resolve(mid)
        np.testing.assert_allclose(t.c, t.A.sum(axis=1), atol=1e-14)


def test_abscissae_are_derived_from_a():
    A = np.array([[0.0, 0.0], [0.5, 0.0]])
    t = EmbeddedTableau(id="x", A=A, b=[0.0, 1.0], p=2)
    assert t.c.tolist() == [0.0, 0.5]
    with pytest.raises(TypeError):
        EmbeddedTableau(id="x", A=A, b=[0.0, 1.0], c=[0.0, 0.5], p=2)


def test_embedded_order_is_derived_from_the_weights():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert EmbeddedTableau(id="x", A=A, b=[0.5, 0.5], p=2).p_tilde is None
    assert EmbeddedTableau(id="x", A=A, b=[0.5, 0.5], p=2, b_tilde=[1.0, 0.0]).p_tilde == 1
    with pytest.raises(TypeError):
        EmbeddedTableau(id="x", A=A, b=[0.5, 0.5], p=2, b_tilde=[1.0, 0.0], p_tilde=1)
    for mid in catalog_ids() + ["ssp3,3"]:
        t = resolve(mid)
        assert t.p_tilde == (None if t.b_tilde is None else t.p - 1), mid


_L2 = [[0.0, 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("kw, defect", [
    (dict(A=np.zeros((2, 3)), b=[0.5, 0.5], p=2), "A must be 2x2"),
    (dict(A=_L2, b=[0.25, 0.25, 0.5], p=2), "A must be 3x3"),
    (dict(A=_L2, b=[[0.5, 0.5]], p=2), "b must be a nonempty 1-D"),
    (dict(A=np.zeros((0, 0)), b=[], p=1), "b must be a nonempty 1-D"),
    (dict(A=_L2, b=[0.5, 0.5], p=2, b_tilde=[1.0]), "b_tilde must have the 2 entries"),
    (dict(A=[[0.0, 0.5], [1.0, 0.0]], b=[0.5, 0.5], p=2), r"A\[0, 1\] = 0.5"),
    (dict(A=[[0.0, 0.0], [1.0, 0.25]], b=[0.5, 0.5], p=2), r"A\[1, 1\] = 0.25"),
    (dict(A=[[np.nan, 0.0], [1.0, 0.0]], b=[0.5, 0.5], p=2), r"A\[0, 0\] = nan"),
    (dict(A=_L2, b=[0.5, 0.5], p=0), "order p must be at least 1"),
    (dict(A=_L2, b=[0.5, 0.5], p=1, b_tilde=[1.0, 0.0]), "2 with embedded weights"),
    (dict(A=[[0.0, 0.0], [-1.0, 0.0]], b=[0.5, 0.5], p=2, ssp_claimed=1.0), "A has the entry -1.0"),
    (dict(A=_L2, b=[1.5, -0.5], p=1, ssp_claimed=1.0), "b has the entry -0.5"),
    (dict(A=_L2, b=[0.5, 0.5], p=2, b_tilde=[1.5, -0.5], ssp_claimed=1.0), "b_tilde has the entry -0.5"),
    (dict(A=[[0.0], [1.0, 0.0]], b=[0.5, 0.5], p=2), "A must be a rectangular array of numbers"),
    (dict(A=_L2, b=[0.5, "x"], p=2), "b must be a rectangular array of numbers"),
    (dict(A=_L2, b=[0.5, 0.5], p=2.5, b_tilde=[1.0, 0.0]), "order p must be an integer, got 2.5"),
])
def test_a_malformed_tableau_is_rejected_with_its_id_and_defect(kw, defect):
    with pytest.raises(ValueError, match="tableau 'bad': .*" + defect):
        EmbeddedTableau(id="bad", **kw)


def test_replace_runs_the_same_checks():
    t = resolve("ssp2,2-b2")
    with pytest.raises(ValueError, match="b_tilde must have the 2 entries"):
        replace(t, b_tilde=[1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="2 with embedded weights"):
        replace(t, p=1)
    with pytest.raises(ValueError, match="b_tilde has the entry -0.5"):
        replace(t, b_tilde=[1.5, -0.5])


def test_what_the_constructor_leaves_to_classification_still_builds():
    # a negative entry without an SSP claim, a weight sum off 1 (order
    # condition t1), and non-finite embedded weights, which pass the
    # nonnegativity check because NaN fails every comparison
    A = np.array([[0.0, 0.0], [-1.0, 0.0]])
    assert EmbeddedTableau(id="x", A=A, b=[0.5, 0.5], p=2, ssp_claimed=0.0).c.tolist() == [0.0, -1.0]
    assert EmbeddedTableau(id="x", A=_L2, b=[0.25, 0.5], p=2).s == 2
    t = replace(resolve("ssp3,2-b1"), b_tilde=[np.nan, np.inf, 0.0])
    assert t.ssp_claimed == 2.0 and np.isnan(t.b_tilde[0])


def test_construction_leaves_the_callers_arrays_writable():
    A = np.array([[0.0, 0.0], [1.0, 0.0]])
    b = np.array([0.5, 0.5])
    bt = np.array([1.0, 0.0])
    t = EmbeddedTableau(id="x", A=A, b=b, p=2, b_tilde=bt)
    A[1, 0] = 2.0
    b[0] = 0.25
    bt[0] = 0.75
    assert t.A[1, 0] == 1.0 and t.b[0] == 0.5 and t.b_tilde[0] == 1.0
    assert not (t.A.flags.writeable or t.b.flags.writeable or t.b_tilde.flags.writeable)


def test_w_variant_leaves_the_search_result_writable(monkeypatch):
    from sspkit import optimizer

    w = np.full(3, 1.0 / 3.0)
    monkeypatch.setattr(optimizer, "optimize_embedded", lambda spec: types.SimpleNamespace(w=w))
    t = resolve("ssp3,3-w", seed=20_180_623)  # a seed no other test asks for
    w[0] = 0.5
    assert t.b_tilde[0] == 1.0 / 3.0 and t.p_tilde == 2


def test_resolve_returns_one_object_per_id():
    for mid in catalog_ids() + ["ssp3,3"]:
        assert resolve(mid) is resolve(mid)
        assert resolve(mid) is resolve(mid.upper())
        assert resolve(mid) is resolve(f" {mid}\t")
    # the cache key is the parsed id, so a leading zero is the same method
    assert resolve("ssp010,4-b3") is resolve("SSP10,4-B3") is resolve(" ssp10,4-b3 ")


def test_weights_sum_to_one():
    for mid in catalog_ids():
        t = resolve(mid)
        assert abs(t.b.sum() - 1.0) < 1e-14
        assert abs(t.b_tilde.sum() - 1.0) < 1e-14


def test_ssp_catalog_excludes_literature_pairs():
    ids = ssp_ids()
    assert "bs32" not in ids and "dp54" not in ids
    assert "ssp2,2-b1" in ids and "ssp10,4-b3" in ids


def test_ssp_claims_match_family_formulas():
    for s in range(2, 11):
        assert resolve(f"ssp{s},2-b1").ssp_claimed == pytest.approx(s - 1)
    assert resolve("ssp4,3-b1").ssp_claimed == pytest.approx(2.0)
    assert resolve("ssp9,3").ssp_claimed == pytest.approx(6.0)
    assert resolve("ssp16,3").ssp_claimed == pytest.approx(12.0)
    assert resolve("ssp10,4-b1").ssp_claimed == pytest.approx(6.0)


# ------------------------------------------------------------- derived views

def test_optimized_variant_is_cached_and_deterministic():
    a = resolve("ssp3,3-w")
    b = resolve("ssp3,3-w")
    assert a is b  # cache hit
    assert a.p_tilde == 2
    assert np.all(a.b_tilde >= -1e-12)
    assert abs(a.b_tilde.sum() - 1.0) < 1e-8


def test_tableau_is_immutable():
    t = resolve("ssp2,2-b1")
    with pytest.raises(Exception):
        t.p = 7
