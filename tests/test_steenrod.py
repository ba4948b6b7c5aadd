import random
from math import comb

import pytest

from exhopf import bst, liedata, printed, steenrod
from exhopf.ffpoly import EXPONENT_LIMIT, ExponentOverflow, RingContext, render
from exhopf.groebner import NoSolution
from exhopf.steenrod import SteenrodError, power, total_power
from closed_forms import case1_in_weights
from oracles import omega
from symfun_oracles import homogeneous_components, total_steenrod


def wring(p, n):
    return RingContext(p, [(f"w{i}", 1) for i in range(1, n + 1)])


def _monomials_of_weight(ring, weight):
    out = []

    def rec(i, left, acc):
        if i == ring.nvars:
            if left == 0:
                out.append(tuple(acc))
            return
        w = ring.weights[i]
        for e in range(left // w + 1):
            rec(i + 1, left - e * w, acc + [e])

    rec(0, weight, [])
    return out


def random_homogeneous(ring, weight, rng, terms=4):
    pool = _monomials_of_weight(ring, weight)
    out = ring.zero()
    for mon in rng.sample(pool, min(terms, len(pool))):
        c = rng.randrange(1, ring.p) if ring.p > 2 else 1
        out = out + ring.monomial(mon, c)
    return out


def test_total_on_degree_two_class():
    R = wring(2, 1)
    w = R.variable("w1")
    assert total_steenrod(w) == w + w * w


def test_total_multiplicative_example():
    R = wring(2, 2)
    f = R.parse("w1*w2")
    assert total_steenrod(f) == R.parse("w1*w2+w1^2*w2+w1*w2^2+w1^2*w2^2")


def test_g2_power_extracts_component():
    ts = liedata.theta_set("G2", 2)
    R = ts.weight_ring
    theta2 = ts.theta_c[2]
    total = total_steenrod(theta2)
    comp = homogeneous_components(total)[3]
    p1 = power(1, theta2)
    assert comp == p1 == R.parse("w1^2*w2+w1*w2^2")


def test_instability_on_single_weight():
    for p in (2, 3, 5):
        R = wring(p, 1)
        w = R.variable("w1")
        assert power(1, w) == w ** p
        assert power(2, w).is_zero()


def test_instability_random():
    rng = random.Random(3)
    for p in (2, 3):
        R = wring(p, 3)
        f = random_homogeneous(R, 4, rng)
        assert power(4, f) == f ** p
        assert power(5, f).is_zero()
    # on Chern rings too, where the recursion reads P^m c_m = c_m^p off the
    # Wu formulas of each slot
    for (group, p), w in ((("E8", 3), 10), (("E7", 2), 9)):
        R = liedata.restricted_ring(group, p)
        for _ in range(3):
            f = random_homogeneous(R, w, rng)
            assert power(w, f) == f ** p, (group, p, f)
            assert power(w + 1, f).is_zero()


def test_inhomogeneous_rejected():
    R = wring(2, 2)
    with pytest.raises(SteenrodError):
        power(1, R.parse("w1+w1^2"))


def test_cartan_weight_mode():
    rng = random.Random(11)
    for p in (2, 3, 5):
        R = wring(p, 3)
        f = random_homogeneous(R, 3, rng)
        g = random_homogeneous(R, 2, rng)
        for k in (1, 2, 3):
            lhs = power(k, f * g)
            rhs = R.zero()
            for i in range(k + 1):
                rhs = rhs + power(i, f) * power(k - i, g)
            assert lhs == rhs, (p, k)


def test_power_is_component_of_total_weight_mode():
    # P^k f is the weight-(w + k(p-1)) part of the total operation t -> t + t^p
    rng = random.Random(19)
    for p in (2, 3, 5):
        R = wring(p, 3)
        for w in (2, 3, 4):
            f = random_homogeneous(R, w, rng)
            comps = homogeneous_components(total_steenrod(f))
            for k in range(w + 2):
                assert power(k, f) == comps.get(w + k * (p - 1), R.zero()), (p, w, k)


def test_cartan_chern_mode():
    rng = random.Random(13)
    for group, p in (("F4", 3), ("E8", 5)):
        R = liedata.restricted_ring(group, p)
        c2, c3 = R.variable("c2"), R.variable("c3")
        pairs = [
            (random_homogeneous(R, 6, rng, terms=3), random_homogeneous(R, 5, rng, terms=3)),
            # pure powers c_m^e, e >= 2, go through the e > 1 slot of the recursion
            (c2 ** 2, c2 ** 3),
            (c3 ** 2, c2 ** 2),
        ]
        for f, g in pairs:
            for k in (1, 2):
                lhs = power(k, f * g)
                rhs = R.zero()
                for i in range(k + 1):
                    rhs = rhs + power(i, f) * power(k - i, g)
                assert lhs == rhs, (group, p, f, g, k)


def test_power_refuses_output_weight_2_to_15_up_front():
    # the recursion multiplies term dicts unchecked; `power` bounds the
    # output weight w + k(p-1) once, and everything it builds is below it
    R = RingContext(3, [("x", 1)])
    f = R.monomial((12383,))
    with pytest.raises(ExponentOverflow):
        power(10193, f)  # weight 12383 + 2 * 10193 = 32769
    assert comb(12383, 10192) % 3 == 2
    # weight 12383 + 2 * 10192 = 32767, the largest a key may hold
    assert power(10192, f) == R.monomial((EXPONENT_LIMIT - 1,), 2)


def test_total_power_equals_the_total_operation():
    # every layer of the one pass is the weight-(w + k(p-1)) part of
    # t -> t + t^p, and P^k of the per-k path, above the weight too
    rng = random.Random(29)
    cases = 0
    for p in (2, 3, 5):
        for n in range(1, 5):
            R = wring(p, n)
            for w in range(1, 6):
                f = random_homogeneous(R, w, rng)
                comps = homogeneous_components(total_steenrod(f))
                K = rng.randrange(w + 2)
                layers = total_power(f, K)
                assert len(layers) == K + 1
                for k, layer in enumerate(layers):
                    assert layer == comps.get(w + k * (p - 1), R.zero()), (p, n, f, k)
                    assert layer == power(k, f), (p, n, f, k)
                    cases += 1
    assert cases == 164


def test_unit_slot_steps_the_binomials_mod_p():
    # C(e, j) is stepped from C(e, j - 1) up to the top cut; every option
    # against math.comb, key shift included
    for p in (2, 3, 5):
        for e in range(40):
            for top in (0, 1, 7, 40):
                want = [(j, 3 * j * (p - 1), comb(e, j) % p)
                        for j in range(min(e, top) + 1) if comb(e, j) % p]
                assert steenrod._unit_slot(e, 3, p, top) == want, (p, e, top)


def test_total_power_of_zero_and_at_k_zero():
    R = wring(3, 2)
    assert total_power(R.zero(), 3) == [R.zero()] * 4
    f = R.parse("w1^2*w2-w2^3")
    assert total_power(f, 0) == [f]
    assert total_power(R.constant(2), 2) == [R.constant(2), R.zero(), R.zero()]


def test_total_power_refuses_chern_rings_negative_k_and_inhomogeneous():
    R = liedata.restricted_ring("F4", 3)
    with pytest.raises(SteenrodError):
        total_power(R.variable("c2"), 1)
    W = wring(2, 2)
    with pytest.raises(SteenrodError):
        total_power(W.variable("w1"), -1)
    with pytest.raises(SteenrodError):
        total_power(W.parse("w1+w2^2"), 1)


def test_total_power_refuses_output_weight_2_to_15_up_front(monkeypatch):
    # as in `power`, the weight w + K(p-1) of the top nonzero layer is bounded
    # before the enumeration starts; layers above w are zero and never built
    def no_work(*args):
        raise AssertionError("enumerated")

    R = RingContext(3, [("x", 1)])
    f = R.monomial((12383,))
    monkeypatch.setattr(steenrod, "_unit_layers", no_work)
    with pytest.raises(ExponentOverflow):
        total_power(f, 10193)  # weight 12383 + 2 * 10193 = 32769
    x = R.variable("x")
    layers = total_power(x ** 16000, 0)
    assert layers == [x ** 16000]
    monkeypatch.undo()
    # x of weight 1: only P^1 x = x^3 is nonzero, though K(p-1) >= 2^15
    assert total_power(x, 20000)[:3] == [x, x ** 3, R.zero()]


def test_chern_context_validates_names():
    # a variable of weight m >= 2 must be c_m; beside Chern classes the one
    # degree-2 variable allowed is c_1 or the distinguished omega_r = w<r>,
    # else the ring does not say what c_1 maps to; every call refuses,
    # before any shortcut, even on a constant
    for variables in (
        [("cx", 2)],
        [("c3", 2)],
        [("v1", 1), ("c2", 2)],
        [("c1", 1), ("w1", 1), ("c2", 2)],
    ):
        R = RingContext(3, variables)
        with pytest.raises(SteenrodError):
            power(1, R.one())
        with pytest.raises(SteenrodError):
            power(0, R.zero())
    # BU(3) = F_3[c1, c2, c3] is accepted: P^1 c_1 = c_1^3
    R = RingContext(3, [("c1", 1), ("c2", 2), ("c3", 3)])
    assert power(1, R.one()).is_zero()
    assert power(0, R.zero()).is_zero()
    assert power(1, R.variable("c1")) == R.variable("c1") ** 3
    # F_3[w1, c2] is a mixed ring, with c_1 = 3 w1 = 0: P^1 c_2 = c_2^2
    R = RingContext(3, [("w1", 1), ("c2", 2)])
    assert power(1, R.variable("c2")) == R.variable("c2") ** 2
    # a ring without variables holds only constants, killed by P^k for k > 0
    R = RingContext(3, [])
    assert power(1, R.one()).is_zero()


def test_power_commutes_with_the_splitting_map():
    # c_k -> e_k(t_1, t_2, t_3) maps F_p[c1, c2, c3] into F_p[t1, t2, t3];
    # P^k on BU(3) (c_1 by the degree-2 rule, c_2 and c_3 by Wu formulas
    # that read c_1) must commute with it
    rng = random.Random(23)
    cases = 0
    for p in (2, 3, 5):
        R = RingContext(p, [("c1", 1), ("c2", 2), ("c3", 3)])
        T = wring(p, 3)
        t1, t2, t3 = (T.variable(f"w{i}") for i in (1, 2, 3))
        split = {"c1": t1 + t2 + t3, "c2": t1 * t2 + t1 * t3 + t2 * t3, "c3": t1 * t2 * t3}
        for w in range(1, 7):
            f = random_homogeneous(R, w, rng, terms=3)
            image = f.substitute(split, target_ring=T)
            for k in range(1, w + 2):
                lhs = power(k, f).substitute(split, target_ring=T)
                assert lhs == power(k, image), (p, f, k)
                cases += 1
    assert cases == 81


def test_weight_one_variable_is_a_degree_two_class():
    # the rule follows the weight, not the name: P^1 c = c^p, P^2 c = 0
    for p in (2, 3, 5):
        R = RingContext(p, [("c", 1)])
        c = R.variable("c")
        assert power(1, c) == c ** p
        assert power(2, c).is_zero()
        assert power(1, c ** 2) == 2 * c ** (p + 1)


def test_adem_p1p1_equals_2p2():
    rng = random.Random(17)
    for p in (3, 5):
        R = wring(p, 3)
        f = random_homogeneous(R, 4, rng)
        assert power(1, power(1, f)) == 2 * power(2, f)
    R = liedata.restricted_ring("E8", 3)
    f = random_homogeneous(R, 8, rng, terms=3)
    assert power(1, power(1, f)) == 2 * power(2, f)


# the printed quotients of the (E8,5) worked reductions whose sign the
# computation refutes: s -> the j whose q_j is printed negated
PRINTED_SIGN_FIXES = {2: (2,), 8: (2,), 14: (8, 6), 20: (12, 8, 6)}


def test_printed_quotient_sign_fixes():
    # P^1 kappa*theta_s = sum_j q_j kappa*theta_j fails as printed for all
    # four s, and holds term-exact once the listed q_j are negated; the
    # leading q_{s+4} = 1, which carries b_{s,s+4}, is never among them
    ts = liedata.theta_set("E8", 5)
    R = ts.restricted_ring
    quotients = [c for c in printed.claims("E8", 5) if c.kind == "reduction"]
    assert len(quotients) == len(PRINTED_SIGN_FIXES)
    for claim in quotients:
        s = claim.key[2]
        flipped = PRINTED_SIGN_FIXES[s]
        assert set(flipped) <= set(claim.value) - {s + 4}, s
        fixed = {j: render(-R.parse(q)) if j in flipped else q for j, q in claim.value.items()}
        assert not printed.holds(claim, ts), s
        assert printed.holds(claim._replace(value=fixed), ts), s


def test_restricted_wu_formula_of_example58():
    # on F_5[c2..c8]: P^1 c_m = (m+4)c_{m+4} - 2c2 c_{m+2} + 2c3 c_{m+1}
    #                          + (2c2^2 + c4) c_m, indices above 8 vanishing
    R = liedata.restricted_ring("E8", 5)

    def c(i):
        return R.variable(f"c{i}") if 2 <= i <= 8 else R.zero()

    for m in range(2, 9):
        lhs = power(1, c(m))
        rhs = (
            (m + 4) * c(m + 4)
            - 2 * c(2) * c(m + 2)
            + 2 * c(3) * c(m + 1)
            + (2 * c(2) ** 2 + c(4)) * c(m)
        )
        assert lhs == rhs, m


def _case1_in_mixed(group, ts):
    """The ledger's Case 1 claims on (group, 2) against `ts`: {key: agree}."""
    return {c.key: printed.holds(c, ts) for c in printed.claims(group, 2) if c.source == "Case 1"}


def test_case1_identities():
    for group in ("E6", "E7", "E8"):
        ts = liedata.theta_set(group, 2)
        # P^1 theta_8 = theta_9 exactly, in the mixed ring and in the weight ring
        assert power(1, ts.theta_c[8]) == ts.theta_c[9]
        assert power(1, omega(ts, 8)) == omega(ts, 9)
        # so the printed w2^4 theta_5 summand does not survive; P^4 theta_5
        # holds as printed, and the weight ring decides both claims alike
        verdicts = _case1_in_mixed(group, ts)
        assert verdicts == {("mixed", 1, 8): False, ("mixed", 4, 5): True}, group
        assert case1_in_weights(group) == verdicts, group


def _rank_mod2(forms):
    """The rank over F_2 of linear forms, each a bit row of its variables."""
    rows = []
    for f in forms:
        row = 0
        for key in f.terms:
            row |= 1 << f.ring.exponents(key).index(1)
        for r in rows:
            row = min(row, row ^ r)
        if row:
            rows.append(row)
    return len(rows)


@pytest.mark.parametrize("group", ["E6", "E7", "E8"])
def test_case1_ring_embeds_in_the_weight_ring(group):
    # the splitting map F_2[w2, c_2..c_N] -> F_2[w] that makes the mixed-ring
    # check of the Case 1 claims exact: the N Chern forms are independent
    # mod 2, c_1 = 3 omega_2 is omega_2 mod 2, and each mixed theta maps to
    # its weight expansion
    ts = liedata.theta_set(group, 2)
    W = ts.weight_ring
    forms = liedata.chern_substitution(group, 2)
    assert len(forms) == liedata.CHERN_COUNT[group]
    assert _rank_mod2(forms) == len(forms)
    assert liedata.chern_poly(group, 2, 1) == W.variable("w2")
    ring = ts.mixed_ring
    assert ring.names[0] == "w2"
    images = {"w2": W.variable("w2")}
    for name in ring.names[1:]:
        images[name] = liedata.chern_poly(group, 2, int(name[1:]))
    for s in (2, 3, 5, 8, 9):
        assert ts.theta_c[s].substitute(images, target_ring=W) == omega(ts, s), (group, s)


@pytest.mark.parametrize("group", ["E6", "E7", "E8"])
def test_case1_fails_on_a_perturbed_theta9(group, monkeypatch, fresh_bst_memos):
    # theta_9 + w2^9 keeps kappa* theta_9 = 0 but breaks P^1 theta_8 = theta_9
    # and P^4 theta_5 as printed: both rings and the b-table must notice
    real = liedata.theta_set(group, 2)
    w2 = real.mixed_ring.variable("w2")
    bad = liedata.ThetaSet(
        real.profile, {**real.theta_c, 9: real.theta_c[9] + w2 ** 9}, real.theta_restricted
    )
    load = liedata.theta_set
    monkeypatch.setattr(
        liedata, "theta_set", lambda g, p: bad if (g, p) == (group, 2) else load(g, p)
    )
    assert power(1, bad.theta_c[8]) != bad.theta_c[9]
    assert power(1, omega(bad, 8)) != omega(bad, 9)
    assert _case1_in_mixed(group, bad) == case1_in_weights(group) == {
        ("mixed", 1, 8): False, ("mixed", 4, 5): False}
    with pytest.raises(NoSolution):
        bst.full_table(group, 2)


def cross_engine_agrees(group, p, s, k):
    ts = liedata.theta_set(group, p)
    f = ts.theta_restricted[s]
    R = liedata.restricted_ring(group, p)
    W = liedata.weight_ring(group, p)
    r = liedata.DISTINGUISHED[group]
    kill = {f"w{r}": W.zero()}
    for name in W.names:
        if name != f"w{r}":
            kill[name] = W.variable(name)

    def expand_and_restrict(g):
        mapping = {}
        for name in g.ring.names:
            img = liedata.chern_poly(group, p, int(name[1:]))
            mapping[name] = img.substitute(kill, target_ring=W)
        return g.substitute(mapping, target_ring=W) if not g.is_zero() else W.zero()

    via_b = expand_and_restrict(power(k, f))
    expanded = expand_and_restrict(f)
    via_a = power(k, expanded).substitute(kill, target_ring=W)
    return via_a == via_b


@pytest.mark.parametrize(
    "group,p,s,k",
    [("F4", 3, 2, 1), ("F4", 3, 6, 1), ("E6", 2, 8, 1), ("E8", 5, 2, 1), ("E7", 3, 4, 3)],
)
def test_cross_engine_agreement(group, p, s, k):
    assert cross_engine_agrees(group, p, s, k)
