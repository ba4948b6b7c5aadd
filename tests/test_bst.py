import pytest

from exhopf import bst, liedata
from exhopf.bst import (
    BstError,
    Case1Required,
    admissible_pairs,
    compute_bst_method1,
    compute_bst_method2,
    full_table,
    verify_lemma22,
)
from exhopf.groebner import normal_form


def test_admissible_pairs_and_instability():
    prof = liedata.profile("F4", 2)
    pairs = {(s, t): k for s, t, k in admissible_pairs(prof)}
    assert pairs[(2, 8)] == 6  # k >= s: instability zero
    table = full_table("F4", 2)
    entry = table.entries[(2, 8)]
    assert entry.value == 0 and entry.method == "instability-zero"
    with pytest.raises(BstError):
        compute_bst_method1("F4", 2, 2, 8)


def test_g2_method1():
    assert compute_bst_method1("G2", 2, 2, 3) == 1
    with pytest.raises(BstError):
        compute_bst_method2("G2", 2, 2, 3)
    with pytest.raises(BstError):
        full_table("G2", 2, strategy="method2")


def test_e8_p5_method2_entries():
    assert compute_bst_method2("E8", 5, 2, 6) == 1
    assert compute_bst_method2("E8", 5, 20, 24) == 1
    assert compute_bst_method2("E8", 5, 14, 18) == 1


def test_case1_required():
    with pytest.raises(Case1Required):
        compute_bst_method2("E7", 2, 8, 9)


def test_e7_p3_full_table_matches_print():
    report = verify_lemma22("E7", 3)
    assert report["pass"], report
    table = full_table("E7", 3)
    assert table.value(6, 10) == 2  # -1 mod 3
    assert table.value(8, 14) == 1


def test_f4_p3_fallback_path():
    table = full_table("F4", 3)
    assert table.entries[(6, 8)].method == "method1-fallback"
    assert table.entries[(6, 8)].value == 1
    assert verify_lemma22("F4", 3, table)["pass"]


def test_both_strategy_agreement_small_pairs():
    # strategy="both" raises BstError wherever Method I and Method II disagree
    for group, p in (("F4", 2), ("F4", 3), ("E6", 2), ("E6", 3)):
        table = full_table(group, p, strategy="both")
        printed = liedata.lemma22_printed(group, p)
        assert table.nonzero() == printed, (group, p)
    e7 = _assert_both_matches_method2("E7", 2)
    assert verify_lemma22("E7", 2, e7)["extra"] == ["8,14"]  # pinned Lemma 2.2 extra


def _assert_both_matches_method2(group, p):
    table = full_table(group, p, strategy="both")
    assert table.nonzero() == full_table(group, p, strategy="method2").nonzero()
    return table


@pytest.mark.slow
def test_both_strategy_agreement_e7_p3():
    table = _assert_both_matches_method2("E7", 3)
    assert verify_lemma22("E7", 3, table)["pass"]


@pytest.mark.slow
def test_both_strategy_agreement_e8_p2():
    table = _assert_both_matches_method2("E8", 2)
    assert verify_lemma22("E8", 2, table)["extra"] == ["8,14", "8,15"]


def test_eq24_witness_f4_p3():
    # the defining relation: NF(P^k theta_s - b theta_t) = 0, NF(theta_t) != 0
    ts = liedata.theta_set("F4", 3)
    gb = bst._gb_method1("F4", 3, 4)
    lhs = __import__("exhopf.steenrod", fromlist=["power"]).power(
        1, ts.omega(2), bst._weight_ctx("F4", 3)
    )
    b = compute_bst_method1("F4", 3, 2, 4)
    assert b == 1
    assert normal_form(lhs - b * ts.omega(4), gb).remainder.is_zero()
    assert not normal_form(ts.omega(4), gb).remainder.is_zero()


def test_lemma22_passing_pairs():
    for group, p in (("G2", 2), ("F4", 2), ("E6", 2), ("F4", 3), ("E6", 3),
                     ("E7", 3), ("E8", 5)):
        report = verify_lemma22(group, p)
        assert report["pass"], report
    g2 = verify_lemma22("G2", 2)
    assert len(g2["computed_nonzero"]) == 1


def test_lemma22_discrepancy_reports():
    # the three pairs where computation refutes the printed table; the
    # extras are Adem-forced by the paper's own printed entries
    e7 = verify_lemma22("E7", 2)
    assert not e7["pass"]
    assert e7["extra"] == ["8,14"] and not e7["missing"] and not e7["wrong_value"]
    e8 = verify_lemma22("E8", 2)
    assert e8["extra"] == ["8,14", "8,15"] and not e8["missing"]
    e83 = verify_lemma22("E8", 3)
    assert e83["extra"] == ["8,20"]
    assert e83["wrong_value"] == ["18,24"]
    table = full_table("E8", 3)
    assert table.value(8, 20) == 2  # -1 mod 3, forced by P^3P^3 = -P^6 + P^5P^1
    assert table.value(18, 24) == 2


def test_zero_completeness_spot():
    # an admissible pair absent from the printed list computes to zero
    table = full_table("E8", 2)
    assert table.value(5, 8) == 0
    assert table.entries[(5, 8)].k == 3
    assert table.value(9, 12) == 0
