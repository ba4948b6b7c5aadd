"""The ledger of printed claims: its disagreements, its schema, a mutant."""

import pytest

from exhopf import bst, hopf, liedata, printed
from exhopf.ffpoly import ParseError

# every claim that the computation refutes, in the order of `compare`:
# Case 1 P^1 theta_8 with its printed w2^4 theta_5 summand; the Lemma 2.2
# zeros that the computed table breaks (its extras) and (E8,3) b_{18,24};
# the four (E8,5) worked reductions with their printed quotient signs
DISAGREEMENTS = [
    (("E6", 2), "Case 1", ("mixed", 1, 8)),
    (("E7", 2), "Case 1", ("mixed", 1, 8)),
    (("E7", 2), "Lemma 2.2", (8, 14)),
    (("E8", 2), "Case 1", ("mixed", 1, 8)),
    (("E8", 2), "Lemma 2.2", (8, 14)),
    (("E8", 2), "Lemma 2.2", (8, 15)),
    (("E8", 3), "Lemma 2.2", (18, 24)),
    (("E8", 3), "Lemma 2.2", (8, 20)),
] + [(("E8", 5), "Example 5.8", ("restricted", 1, s)) for s in (2, 8, 14, 20)]


def _disagreements(pairs=liedata.SUPPORTED_PAIRS):
    return [(c.pair, c.source, c.key) for pair in pairs
            for c, agree in printed.compare(*pair) if not agree]


def test_compare_disagrees_exactly_on_the_pinned_claims():
    assert _disagreements() == DISAGREEMENTS


def _invalid(claim, ts):
    """Why one claim's key or value is not valid for its pair, else None."""
    prof = ts.profile
    if claim.kind == "b":
        lemma = {(s, t) for s, t, k in bst.admissible_pairs(prof) if k < s}
        return None if claim.key in lemma else "not an admissible (s, t) with k < s"
    if claim.kind in ("theta", "reduction"):
        texts = claim.value if claim.kind == "reduction" else {claim.key[-1]: claim.value}
        indices = {claim.key[-1], *texts}
        ring, _ = ts.presentation(claim.key[0])
        try:
            for text in texts.values():
                ring.parse(text)
        except ParseError as err:
            return f"a text that does not parse: {err}"
    else:
        indices = {claim.key} | {s for _, _, *odd in claim.value for s in odd}
        if any(not xmon.keys() <= set(prof.e_set) for _, xmon, *_ in claim.value):
            return "an x-monomial t outside e(G,p)"
    return None if indices <= set(prof.r_set) else "an s outside r(G,p)"


def test_every_claim_is_valid_for_its_pair():
    pairs = liedata.SUPPORTED_PAIRS
    assert {pair for table in printed.PRINTED.values() for pair in table} <= set(pairs)
    bad = [(c, why) for pair in pairs for c in printed.claims(*pair)
           if (why := _invalid(c, liedata.theta_set(*pair)))]
    assert bad == []


@pytest.mark.parametrize("pair,kind,key,value", [
    (("E7", 3), "b", (8, 13), 1),
    (("E8", 3), "b", (2, 10), 1),  # k = 4 >= s, an instability zero
    (("E8", 5), "coproduct", 8, [(2, {4: 1}, 2)]),
    (("E8", 2), "sq1", 8, [(1, {}, 2, 4)]),
    (("E8", 5), "theta", ("restricted", 2), "-c9"),
    (("E8", 5), "reduction", ("restricted", 1, 2), {6: "1", 2: "c2^^2"}),
])
def test_a_transcription_typo_is_invalid_by_name(pair, kind, key, value):
    claim = printed.Claim("typo", pair, kind, key, value)
    assert _invalid(claim, liedata.theta_set(*pair))


def test_a_flipped_printed_value_is_one_more_disagreement(monkeypatch):
    pair = ("E8", 2)
    before = _disagreements([pair])
    assert hopf.check_suite(hopf.build_model(*pair))["corollary44_zeta_squares"]
    # zeta_23^2 = x_6^6 x_10 (Corollary 4.4), flipped to a printed zero
    monkeypatch.setitem(printed.PRINTED[("Corollary 4.4", "zeta_square")][pair], 12, [])
    after = _disagreements([pair])
    assert sorted(after, key=repr) == sorted(before + [(pair, "Corollary 4.4", 12)], key=repr)
    report = hopf.check_suite(hopf.build_model(*pair))
    assert not report["corollary44_zeta_squares"] and not report["pass"]
