import pytest

from exhopf import liedata, printed
from exhopf.ffpoly import parse, render
from exhopf.liedata import (
    SUPPORTED_PAIRS,
    ChecksumError,
    UnsupportedPair,
    checksum_payload,
    chern_poly,
    chern_substitution,
    mixed_ring,
    profile,
    restrict_kappa,
    restricted_ring,
    theta_set,
    weight_ring,
    _stored_checksums,
)


def test_all_ten_pairs_supported():
    assert len(SUPPORTED_PAIRS) == 10
    with pytest.raises(UnsupportedPair):
        profile("G2", 3)
    with pytest.raises(UnsupportedPair):
        profile("F4", 5)


def test_dimension_identity_all_pairs():
    dims = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}
    for g, p in SUPPORTED_PAIRS:
        prof = profile(g, p)
        assert prof.dim == dims[g]


def test_e8_p2_dimension_arithmetic():
    prof = profile("E8", 2)
    odd = sum(2 * s - 1 for s in prof.r_set)
    even = sum(2 * (prof.k_map[t] - 1) * t for t in prof.e_set)
    assert odd == 128 and even == 120 and odd + even == 248


def test_lemma_5_4_c1():
    for g, p in SUPPORTED_PAIRS:
        if g == "G2":
            continue
        forms = chern_substitution(g, p)
        total = forms[0]
        for f in forms[1:]:
            total = total + f
        R = weight_ring(g, p)
        r = 1 if g == "F4" else 2
        assert total == 3 * R.variable(f"w{r}"), (g, p)
        assert chern_poly(g, p, 1) == 3 * R.variable(f"w{r}")


def test_f4_telescoping():
    forms = chern_substitution("F4", 2)
    R = weight_ring("F4", 2)
    assert forms[0] + forms[1] == R.variable("w3")


def test_chern_c0_and_range():
    assert chern_poly("F4", 3, 0) == weight_ring("F4", 3).one()
    with pytest.raises(ValueError):
        chern_poly("F4", 3, 7)
    with pytest.raises(UnsupportedPair):
        chern_poly("G2", 2, 1)


def test_c6_f4_is_product_of_forms():
    forms = chern_substitution("F4", 2)
    prod = forms[0]
    for f in forms[1:]:
        prod = prod * f
    assert prod == chern_poly("F4", 2, 6)


def test_g2_thetas():
    ts = theta_set("G2", 2)
    R = ts.weight_ring
    assert ts.theta_c[2] == R.parse("w1^2+w1*w2+w2^2")
    assert ts.theta_c[3] == R.parse("w2^3")
    assert ts.restricted_ring is None
    with pytest.raises(UnsupportedPair):
        restricted_ring("G2", 2)


def test_e8_p5_theta2():
    ts = theta_set("E8", 5)
    assert ts.theta_c[2] == ts.mixed_ring.parse("-w2^2-c2")


def test_e6_p2_derived_table():
    prof = profile("E6", 2)
    assert prof.r_set == (2, 3, 5, 8, 9, 12)
    ts = theta_set("E6", 2)
    assert 14 not in ts.theta_c and 15 not in ts.theta_c
    # theta_8 of E6 is theta_8 of E8 with c7 = c8 = 0
    assert ts.theta_c[8] == ts.mixed_ring.parse("c4^2+w2^2*c6+w2^3*c5+w2^8")
    # theta_9 of E6 loses its c7/c8 terms but keeps w2^3*c6
    assert ts.theta_c[9] == ts.mixed_ring.parse("w2^3*c6")


def test_e7_p2_derived_table():
    ts = theta_set("E7", 2)
    assert sorted(ts.theta_c) == [2, 3, 5, 8, 9, 12, 14]
    assert ts.theta_c[14] == ts.mixed_ring.parse("c7^2+c4^2*c6+w2^2*c6^2")
    assert ts.theta_c[9] == ts.mixed_ring.parse("w2^2*c7+w2^3*c6")


def test_theta_homogeneity_all_pairs():
    for g, p in SUPPORTED_PAIRS:
        ts = theta_set(g, p)
        for s, f in ts.theta_c.items():
            assert f.weight() == s, (g, p, s)
        if ts.theta_restricted is not None:
            for s, f in ts.theta_restricted.items():
                assert f.is_zero() or f.weight() == s


def _assert_three_way(ts, s):
    """kappa* after the full omega-expansion == expansion of the restriction."""
    g, p = ts.profile.group, ts.profile.p
    r = ts.profile.distinguished_weight
    W = ts.weight_ring
    killed = {f"w{r}": W.zero()}
    for name in W.names:
        if name != f"w{r}":
            killed[name] = W.variable(name)
    lhs = ts.omega(s).substitute(killed, target_ring=W)
    restricted = ts.theta_restricted[s]
    expand = {}
    for name in restricted.ring.names:
        img = chern_poly(g, p, int(name[1:])).substitute(killed, target_ring=W)
        expand[name] = img
    rhs = (
        restricted.substitute(expand, target_ring=W)
        if not restricted.is_zero()
        else W.zero()
    )
    assert lhs == rhs, (g, p, s)


def test_three_way_consistency_light_pairs():
    # recompute the omega-expansion and the restriction for every pair where
    # the expansion is desk-cheap, and check the linking identities
    light = [(g, p) for g, p in SUPPORTED_PAIRS if not (g == "E8" and p in (3, 5))]
    for g, p in light:
        ts = theta_set(g, p)
        for s in ts.profile.r_set:
            om = ts.omega(s)
            assert om.weight() == s
            if g == "G2":
                continue
            _assert_three_way(ts, s)


@pytest.mark.parametrize("p, smax", [(3, 14), (5, 12)])
def test_three_way_consistency_heavy_pairs(p, smax):
    ts = theta_set("E8", p)
    for s in ts.profile.r_set:
        if s <= smax:
            _assert_three_way(ts, s)


@pytest.mark.slow
@pytest.mark.parametrize("p, s", [(3, 18), (5, 14)])
def test_three_way_consistency_heavy_pairs_top(p, s):
    _assert_three_way(theta_set("E8", p), s)


def test_e8_heavy_pairs_light_degrees():
    # the two heavy tables are spot-expanded at their low degrees
    for p, smax in ((3, 10), (5, 8)):
        ts = theta_set("E8", p)
        for s in ts.profile.r_set:
            if s <= smax:
                assert ts.omega(s).weight() == s


def test_example_58_restrictions():
    # the printed kappa*theta_s of Example 5.8, every s of r(E8,5), term-exact
    ts = theta_set("E8", 5)
    claims = [c for c in printed.claims("E8", 5) if c.kind == "theta"]
    assert {c.key[1]: printed.holds(c, ts) for c in claims} == dict.fromkeys(ts.profile.r_set, True)


def test_kappa_kills_w_terms():
    M = mixed_ring("E8", 2)
    f = M.parse("w2^7*c8")
    assert restrict_kappa(f, "E8", 2).is_zero()


def test_kappa_e8_p2_theta9_vanishes():
    ts = theta_set("E8", 2)
    assert ts.theta_restricted[9].is_zero()
    assert not ts.theta_restricted[15].is_zero()


def test_render_parse_round_trip_every_theta():
    for g, p in SUPPORTED_PAIRS:
        ts = theta_set(g, p)
        for s, f in ts.theta_c.items():
            assert parse(render(f), f.ring) == f, (g, p, s)


def test_checksums_pinned_and_match():
    stored = _stored_checksums()
    assert stored is not None, "theta_checksums.json missing"
    assert stored == checksum_payload()


def test_missing_checksum_file_is_an_error(monkeypatch):
    theta_c = theta_set("G2", 2).theta_c
    monkeypatch.setattr(liedata, "_stored_checksums", lambda: None)
    with pytest.raises(ChecksumError):
        liedata._verify_checksums("G2", 2, theta_c)


def test_missing_checksum_key_is_an_error(monkeypatch):
    theta_c = theta_set("G2", 2).theta_c
    stored = dict(_stored_checksums())
    del stored["G2:2:3"]
    monkeypatch.setattr(liedata, "_stored_checksums", lambda: stored)
    with pytest.raises(ChecksumError, match="G2:2:3"):
        liedata._verify_checksums("G2", 2, theta_c)


def test_checksum_mismatch_is_an_error(monkeypatch):
    theta_c = theta_set("G2", 2).theta_c
    stored = dict(_stored_checksums(), **{"G2:2:3": "0" * 64})
    monkeypatch.setattr(liedata, "_stored_checksums", lambda: stored)
    with pytest.raises(ChecksumError, match="mismatch"):
        liedata._verify_checksums("G2", 2, theta_c)


def _rebuilt(f, dst):
    """f with every variable that `dst` lacks set to zero, as an element of
    `dst`: each term is rebuilt by variable name with `RingContext.monomial`,
    and a term with a killed variable is dropped."""
    out = dst.zero()
    for key, c in f.terms.items():
        exps = dict(zip(f.ring.names, f.ring.exponents(key)))
        if not any(e for name, e in exps.items() if name not in dst.index):
            out = out + dst.monomial([exps[name] for name in dst.names], c)
    return out


def test_restriction_matches_a_rebuild_by_name_on_every_theta():
    # restrict_kappa and the E6/E7 tables at p = 2 take the renaming path of
    # `substitute`, which re-keys the packed keys of the surviving terms
    for g, p in SUPPORTED_PAIRS:
        if g == "G2":
            continue
        ts = theta_set(g, p)
        for s, f in ts.theta_c.items():
            assert ts.theta_restricted[s] == _rebuilt(f, ts.restricted_ring), (g, p, s)
    source = theta_set("E8", 2).theta_c
    for g in ("E6", "E7"):
        for s, f in theta_set(g, 2).theta_c.items():
            assert f == _rebuilt(source[s], mixed_ring(g, 2)), (g, s)
