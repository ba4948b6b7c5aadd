import pytest

from exhopf import bst, liedata, steenrod, symfun
from exhopf.bst import (
    BstError,
    Case1Required,
    NotStable,
    admissible_pairs,
    compute_bst_method1,
    compute_bst_method2,
    full_table,
    verify_lemma22,
)
from exhopf.ffpoly import Polynomial
from exhopf.groebner import NoSolution, buchberger, normal_form, solve_linear_coefficient
from conftest import _clear_bst_memos


def test_admissible_pairs_and_instability():
    prof = liedata.profile("F4", 2)
    pairs = {(s, t): k for s, t, k in admissible_pairs(prof)}
    assert pairs[(2, 8)] == 6  # k >= s: instability zero
    table = full_table("F4", 2)
    entry = table.entries[(2, 8)]
    assert entry.value == 0 and entry.method == "instability-zero"
    with pytest.raises(BstError):
        compute_bst_method1("F4", 2, 2, 8)


def _f4_p3_entries():
    return dict(full_table("F4", 3).entries)


def test_table_with_a_missing_entry_is_refused():
    entries = _f4_p3_entries()
    del entries[(2, 4)]
    with pytest.raises(BstError, match=r"lacks \[\(2, 4\)\]"):
        bst.BstTable(liedata.profile("F4", 3), entries)


def test_table_with_a_nonzero_instability_zero_is_refused():
    entries = _f4_p3_entries()
    assert entries[(2, 8)].method == "instability-zero"
    entries[(2, 8)] = bst.BstEntry(2, 8, 3, 1, "mutant")
    with pytest.raises(BstError, match="instability zero"):
        bst.BstTable(liedata.profile("F4", 3), entries)


def test_table_with_a_wrong_k_is_refused():
    entries = _f4_p3_entries()
    entries[(2, 4)] = bst.BstEntry(2, 4, 2, entries[(2, 4)].value, "mutant")
    with pytest.raises(BstError, match="where k=1"):
        bst.BstTable(liedata.profile("F4", 3), entries)


def test_table_with_a_value_outside_f_p_is_refused():
    # b = 3 at p = 3 reads as nonzero but acts as zero: the model would build
    # with P^1 alpha_3 = 0 and then fail to invert b on the coproduct route
    entries = _f4_p3_entries()
    entries[(2, 4)] = bst.BstEntry(2, 4, 1, 3, "mutant")
    with pytest.raises(BstError, match="not a residue mod 3"):
        bst.BstTable(liedata.profile("F4", 3), entries)


def test_g2_method1():
    assert compute_bst_method1("G2", 2, 2, 3) == 1
    with pytest.raises(BstError):
        compute_bst_method2("G2", 2, 2, 3)
    with pytest.raises(BstError):
        full_table("G2", 2, strategy="both")
    with pytest.raises(BstError):
        full_table("F4", 2, strategy="method2")


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


def test_lemma22_refuses_a_table_of_another_pair():
    with pytest.raises(BstError):
        verify_lemma22("F4", 3, full_table("E6", 3))
    with pytest.raises(BstError):
        verify_lemma22("E6", 3, full_table("F4", 3))


def test_f4_p3_fallback_path():
    table = full_table("F4", 3)
    assert table.entries[(6, 8)].method == "method1-fallback"
    assert table.entries[(6, 8)].value == 1
    assert verify_lemma22("F4", 3, table)["pass"]


def test_both_strategy_agreement_small_pairs():
    # strategy="both" raises BstError wherever Method I and Method II disagree
    for group, p in (("F4", 2), ("F4", 3), ("E6", 2), ("E6", 3)):
        table = full_table(group, p, strategy="both")
        assert verify_lemma22(group, p, table)["pass"], (group, p)
    e7 = _assert_both_matches_method2("E7", 2)
    assert verify_lemma22("E7", 2, e7)["extra"] == ["8,14"]  # pinned Lemma 2.2 extra


def _assert_both_matches_method2(group, p):
    table = full_table(group, p, strategy="both")
    assert table.nonzero() == full_table(group, p).nonzero()
    return table


def test_both_strategy_agreement_e7_p3():
    table = _assert_both_matches_method2("E7", 3)
    assert verify_lemma22("E7", 3, table)["pass"]


def test_both_strategy_agreement_e8_p2():
    table = _assert_both_matches_method2("E8", 2)
    assert verify_lemma22("E8", 2, table)["extra"] == ["8,14", "8,15"]


def _full_presentation(ts, presentation):
    """(ring, s -> theta_s) of one presentation, each theta_s in that ring:
    upstairs the full expansion `ts.omega`."""
    ring, theta = ts.presentation(presentation)
    return ring, ts.omega if presentation == "weight" else theta.__getitem__


def _scratch_basis(group, p, presentation, t):
    """The basis of <theta_j : j < t> truncated at t, built from scratch on
    the thetas themselves (test oracle for the chain of `bst._basis`)."""
    ts = liedata.theta_set(group, p)
    ring, theta = _full_presentation(ts, presentation)
    gens = [theta(j) for j in ts.profile.r_set if j < t]
    return buchberger(gens, truncation=t, ring=ring)


def _terms(f):
    return list(f.terms.items())


CHERN_PAIRS = [("F4", 2), ("E6", 2), ("E7", 2), ("E8", 2),
               ("F4", 3), ("E6", 3), ("E7", 3), ("E8", 3), ("E8", 5)]
UPSTAIRS_PAIRS = [("G2", 2), ("F4", 2), ("E6", 2), ("F4", 3), ("E6", 3)]


def _assert_chain_matches_scratch_oracle(group, p, presentation, r_set):
    # each link of the chain equals the basis built from scratch, term for
    # term and in order, and its cached pivot is theta_t reduced by that basis
    _, theta = _full_presentation(liedata.theta_set(group, p), presentation)
    for t in r_set:
        gb, pivot = bst._basis(group, p, presentation, t)
        oracle = _scratch_basis(group, p, presentation, t)
        assert gb.truncation == oracle.truncation == t
        assert [_terms(g) for g in gb.basis] == [_terms(g) for g in oracle.basis], t
        want = normal_form(theta(t), oracle)
        assert _terms(pivot.remainder) == _terms(want.remainder), t
        assert pivot.weights == want.weights, t


@pytest.mark.parametrize(
    "group, p, downstairs",
    [(g, p, True) for g, p in CHERN_PAIRS] + [(g, p, False) for g, p in UPSTAIRS_PAIRS],
    ids=lambda v: v if isinstance(v, str) else str(v),
)
def test_basis_chain_matches_scratch_oracle(group, p, downstairs):
    # downstairs: the restricted ring of Method II; else the weight ring
    presentation = "restricted" if downstairs else "weight"
    _assert_chain_matches_scratch_oracle(group, p, presentation, liedata.profile(group, p).r_set)


@pytest.mark.parametrize("group", ["E6", "E7", "E8"])
def test_mixed_basis_chain_matches_scratch_oracle(group):
    # the mixed links that `full_table` builds for the Case 1 column, t <= 9
    r_set = [t for t in liedata.profile(group, 2).r_set if t <= 9]
    _assert_chain_matches_scratch_oracle(group, 2, "mixed", r_set)


def test_mixed_ring_reduction_equals_the_table():
    # the mixed ring F_p[omega_r, c_2..c_N] adds one ingredient to Method II,
    # the image c_1 = 3 omega_r; with it the one reduction step gives every
    # non-instability entry of the nine Chern pairs, the method2, case1 and
    # method1-fallback entries alike (with c_1 = 0, 31 entries of E6, E7
    # and E8 at p = 2 and of (E8,5) change, most of them to NoSolution)
    methods = {}
    for group, p in CHERN_PAIRS:
        for (s, t), e in full_table(group, p).entries.items():
            if e.method != "instability-zero":
                assert bst._reduce(group, p, s, t, "mixed") == e.value, (group, p, s, t)
                methods[e.method] = methods.get(e.method, 0) + 1
    assert methods == {"method2": 72, "case1": 6, "method1-fallback": 4}


def test_e6_p3_upstairs_chain_forms_fewer_spairs():
    r_set = liedata.profile("E6", 3).r_set
    chain = sum(bst._basis("E6", 3, "weight", t)[0].stats["formed"] for t in r_set)
    scratch = sum(_scratch_basis("E6", 3, "weight", t).stats["formed"] for t in r_set)
    assert 0 < chain < scratch, (chain, scratch)


def test_reduce_refuses_pairs_outside_r_or_off_the_step():
    # (E6,3): r = 2, 4, 5, 6, 8, 9; an admissible pair needs t - s = 2k, 1 <= k < s
    assert compute_bst_method1("E6", 3, 4, 6) in range(3)
    for s, t in ((3, 5), (2, 3), (5, 7), (6, 4), (5, 5), (2, 6)):
        with pytest.raises(BstError, match="not an admissible pair"):
            compute_bst_method1("E6", 3, s, t)


def test_eq24_witness_f4_p3():
    # the defining relation: NF(P^k theta_s - b theta_t) = 0, NF(theta_t) != 0
    ts = liedata.theta_set("F4", 3)
    gb, _ = bst._basis("F4", 3, "weight", 4)
    lhs = steenrod.power(1, ts.omega(2))
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


def test_shared_term_dicts_are_never_mutated():
    # the memo dicts of each ring's resultant are shared without a copy, as
    # the `.terms` of its Wu formulas, and `steenrod` keeps products of them
    # in the ring's slot table: after the tables, every formula read in the
    # pass must still equal one read from a fresh resultant, and every
    # P^j(c_m^e) of the slot table one from a fresh per-call Cartan product
    rings = []
    for group, p in (("E7", 2), ("E8", 5)):
        full_table(group, p)
        rings.append(liedata.theta_set(group, p).restricted_ring)
    # the p = 2, t = 9 column is reduced in the mixed ring F_2[w2, c_2..c_N]
    for group in ("E6", "E7", "E8"):
        full_table(group, 2)
        rings.append(liedata.mixed_ring(group, 2))
    slots = 0
    for ring in rings:
        table = symfun._wu_table(ring)
        assert table._formulas, ring
        fresh = symfun.WuTable(ring)
        for (k, m), formula in table._formulas.items():
            expected = ring.zero() if k > m else fresh.coefficient(m - k, k)
            assert formula == expected, (ring, k, m)
        for (j, i, e), terms in table._slots.items():
            fresh_slot = steenrod._cartan(j, ((i, 1), (i, e - 1)), ring, {}, {})
            assert terms == fresh_slot, (ring, j, i, e)
        slots += len(table._slots)
    assert slots


def _direct_method1(group, p):
    """Every non-instability b of the pair by the direct upstairs route, the
    oracle of Method I: NF(P^k theta_s), theta_s fully expanded, solved
    against the pivot of column t.  A failed solve maps to its error type."""
    ts = liedata.theta_set(group, p)
    omega = {}
    out = {}
    for s, t, k in admissible_pairs(ts.profile):
        if k >= s:
            continue
        if s not in omega:
            omega[s] = ts.omega(s)
        gb, pivot = bst._basis(group, p, "weight", t)
        try:
            out[(s, t)] = solve_linear_coefficient(steenrod.power(k, omega[s]), pivot, gb)
        except NoSolution as e:
            out[(s, t)] = type(e)
    return out


@pytest.mark.parametrize("group, p", [("G2", 2), ("F4", 2), ("F4", 3), ("E6", 2), ("E6", 3),
                                      ("E7", 2), ("E8", 2)])
def test_method1_equals_the_direct_route(group, p):
    direct = _direct_method1(group, p)
    assert direct and all(isinstance(b, int) for b in direct.values())
    for (s, t), b in direct.items():
        assert compute_bst_method1(group, p, s, t) == b, (s, t)


def test_method1_applies_powers_to_pivot_remainders_only(monkeypatch, fresh_bst_memos):
    # every P^k that Method I takes upstairs acts on some rho_s, never on an
    # expanded theta_s; on (E6,2) theta_12 has 964 terms and rho_12 has 7
    seen = []
    total_power = steenrod.total_power
    monkeypatch.setattr(steenrod, "total_power",
                        lambda f, K: seen.append((f, K)) or total_power(f, K))
    full_table("E6", 2, strategy="method1")
    r_set = liedata.profile("E6", 2).r_set
    rho = {s: bst._basis("E6", 2, "weight", s)[1].remainder for s in r_set}
    assert seen and all(any(f == r for r in rho.values()) for f, _ in seen)
    ts = liedata.theta_set("E6", 2)
    assert (len(ts.omega(12).terms), len(rho[12].terms)) == (964, 7)
    # each rho_s is expanded once, up to K_s = min(s - 1, (12 - s) // (p - 1)),
    # the largest k an entry or the stability check asks of it; a second
    # table reads the same passes
    full_table("E6", 2, strategy="method1")
    assert sorted((s, K) for f, K in seen for s in r_set if f == rho[s]) == [
        (2, 1), (3, 2), (5, 4), (8, 4), (9, 3)]


def _assert_method1_equals_method2_on_e8_p5(tmax):
    entries = [(s, t) for s, t, k in admissible_pairs(liedata.profile("E8", 5))
               if k < s and t <= tmax]
    assert entries
    for s, t in entries:
        assert compute_bst_method1("E8", 5, s, t) == compute_bst_method2("E8", 5, s, t), (s, t)


def test_method1_equals_method2_on_e8_p5_up_to_t14():
    _assert_method1_equals_method2_on_e8_p5(14)


@pytest.mark.slow
def test_method1_equals_method2_on_e8_p5_up_to_t18():
    _assert_method1_equals_method2_on_e8_p5(18)


def test_the_restricted_f4_p2_ideal_is_not_p_stable(fresh_bst_memos):
    # Sq^4 c_3 has a c_5 term, so P^2 theta_3 leaves <theta_2, theta_3>
    # downstairs at weight 5, below the next theta (theta_8); this is why
    # the stability check runs upstairs only, where weight 5 passes
    ts = liedata.theta_set("F4", 2)
    gb, _ = bst._basis("F4", 2, "restricted", 8)
    rest = normal_form(steenrod.power(2, ts.theta_restricted[3]), gb).remainder
    assert rest == ts.restricted_ring.parse("c5")
    bst._stable("F4", 2, 5)


def _patch_omega(monkeypatch, group, p, s, f):
    """theta_s of the pair's weight presentation replaced by f: every
    expansion of the mixed theta_s, full (`ts.omega`) or with reduced Chern
    images (`bst._basis`), returns f."""
    ts = liedata.theta_set(group, p)
    expand = liedata.expand_in_weights
    monkeypatch.setattr(liedata, "expand_in_weights",
                        lambda g, *args: f if g is ts.theta_c[s] else expand(g, *args))
    return ts


def _assert_a_dropped_term_of_theta3_is_refused(monkeypatch):
    """With one term of the (E6,2) theta_3 gone, the direct route still
    returns a b on three entries; the check refuses every column above 3."""
    real = liedata.theta_set("E6", 2).omega(3)
    drop = min(real.terms)
    bad = Polynomial(real.ring, {m: c for m, c in real.terms.items() if m != drop})
    _patch_omega(monkeypatch, "E6", 2, 3, bad)
    direct = _direct_method1("E6", 2)
    assert {st: b for st, b in direct.items() if isinstance(b, int)} == {
        (5, 8): 0, (8, 9): 1, (9, 12): 0}
    columns = {t for _, t in direct if t > 3}
    assert columns == {5, 8, 9, 12}
    for s, t in direct:
        if t > 3:
            with pytest.raises(NotStable) as err:
                compute_bst_method1("E6", 2, s, t)
            assert (err.value.j, err.value.i, err.value.u) == (2, 1, 3), (s, t)
            assert str(err.value) == ("P^1 theta_2 is not in <theta_r : r <= 3> "
                                      "in the weight presentation of (E6,2)")
            assert isinstance(err.value, NoSolution)


def test_stability_check_sees_a_dropped_term_of_theta3(monkeypatch, fresh_bst_memos):
    _assert_a_dropped_term_of_theta3_is_refused(monkeypatch)


def test_memo_clear_leaves_no_stale_power_of_a_real_rho(monkeypatch, fresh_bst_memos):
    # a full (E6,2) Method I table fills every memo of `bst` from the real
    # thetas, the one pass per rho_s of `_rho_powers` included; the clear of
    # `fresh_bst_memos` empties them all, so the perturbed theta_3 that
    # follows in the same process is still refused at j = 2, i = 1, u = 3
    full_table("E6", 2, strategy="method1")
    memos = [f for f in vars(bst).values() if hasattr(f, "cache_clear")]
    assert bst._rho_powers in memos and bst._rho_powers.cache_info().currsize == 5
    _clear_bst_memos()
    assert [f.cache_info().currsize for f in memos] == [0] * len(memos)
    _assert_a_dropped_term_of_theta3_is_refused(monkeypatch)


def test_zero_theta_t_is_case1_only_downstairs(monkeypatch, fresh_bst_memos):
    # upstairs and in the mixed ring a vanishing theta_t is broken data, not
    # the Case 1 column; the error names the presentation
    ts = _patch_omega(monkeypatch, "F4", 2, 3, liedata.weight_ring("F4", 2).zero())
    with pytest.raises(BstError, match="theta_3 = 0 in the weight presentation") as err:
        compute_bst_method1("F4", 2, 2, 3)
    assert not isinstance(err.value, Case1Required)
    monkeypatch.setitem(ts.theta_c, 3, ts.mixed_ring.zero())
    with pytest.raises(BstError, match="theta_3 = 0 in the mixed presentation") as err:
        bst._reduce("F4", 2, 2, 3, "mixed")
    assert not isinstance(err.value, Case1Required)


@pytest.mark.parametrize("group, p", [("G2", 2), ("F4", 2), ("F4", 3), ("E6", 2), ("E6", 3),
                                      ("E7", 2), ("E7", 3), ("E8", 2)])
def test_pivot_equals_the_full_expansion_divided(group, p):
    # the pivot divides theta_t with reduced Chern images substituted; it is
    # the normal form of the full expansion, term for term and in order
    ts = liedata.theta_set(group, p)
    for t in ts.profile.r_set:
        gb, pivot = bst._basis(group, p, "weight", t)
        want = normal_form(ts.omega(t), gb)
        assert _terms(pivot.remainder) == _terms(want.remainder), t
        assert pivot.weights == want.weights == (t, t), t


def test_pivot_substitutes_reduced_chern_images(monkeypatch, fresh_bst_memos):
    # (E6,2) theta_12 = c6^2 + c4^3: only c4 and c6 are reduced, against the
    # link of column 12, and the expansion divided has 141 terms, not 964
    seen = []
    expand = liedata.expand_in_weights

    def spy(f, group, p, chern):
        images = {}

        def image(j):
            images[j] = chern(j)
            return images[j]

        out = expand(f, group, p, image)
        seen.append((f, group, p, images, out))
        return out

    monkeypatch.setattr(liedata, "expand_in_weights", spy)
    gb, _ = bst._basis("E6", 2, "weight", 12)
    f, group, p, images, out = seen[-1]
    assert (f, group, p) == (liedata.theta_set("E6", 2).theta_c[12], "E6", 2)
    assert images == {j: normal_form(liedata.chern_poly("E6", 2, j), gb).remainder
                      for j in (4, 6)}
    assert len(out.terms) == 141


@pytest.mark.parametrize("f", ["w1^2*w2+w3", "w1^4"], ids=["inhomogeneous", "weight-4"])
def test_pivot_expansion_off_weight_t_is_refused(monkeypatch, fresh_bst_memos, f):
    # an expansion of theta_3 that is not homogeneous of weight 3 is refused
    # on both routes, with one error
    ts = _patch_omega(monkeypatch, "F4", 2, 3, liedata.weight_ring("F4", 2).parse(f))
    message = "expanded theta_3 is not homogeneous of weight 3"
    with pytest.raises(ValueError, match=message):
        bst._basis("F4", 2, "weight", 3)
    with pytest.raises(ValueError, match=message):
        ts.omega(3)
