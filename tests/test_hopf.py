import hashlib
import random

import pytest

from exhopf import bst, hopf, liedata, printed
from exhopf.hopf import (
    AlgebraElement,
    HopfError,
    Inconsistent,
    InvariantError,
    TensorElement,
    Underdetermined,
    UnreachableGenerator,
    build_model,
    check_suite,
    tensor,
)


def model(group, p):
    return build_model(group, p)


def test_g2_model_shape():
    m = model("G2", 2)
    assert m.e_list == (3,) and m.k_list == (2,)
    assert m.basis_dimension() == 2 * 4  # k_3 * 2^{|r|}
    assert m.alpha(2).degree() == 3
    assert m.x(3).degree() == 6


def test_e8_p5_dimension():
    m = model("E8", 5)
    assert m.basis_dimension() == 5 * 2 ** 8 == 1280
    poincare = m.poincare_polynomial()
    assert sum(poincare) == 1280
    assert len(poincare) - 1 == 248  # top degree = dim E8


def test_e8_p2_dimension():
    m = model("E8", 2)
    # Pi k_t * 2^{|r|} = (8*4*2*2) * 2^8
    assert m.basis_dimension() == 8 * 4 * 2 * 2 * 256 == 32768
    assert len(m.poincare_polynomial()) - 1 == 248


def test_poincare_polynomial_counts_the_basis():
    # both sides come to 2^|r| prod k_t, so check_suite does not test this
    for group, p in liedata.SUPPORTED_PAIRS:
        m = model(group, p)
        assert sum(m.poincare_polynomial()) == m.basis_dimension(), (group, p)


def test_unknown_x_generator_is_a_hopf_error():
    m = model("G2", 2)
    for build in (lambda: m.x(99), lambda: m.x_monomial({99: 1}),
                  lambda: m.x_monomial({3: 5, 99: 1}),
                  # the model has no inverses
                  lambda: m.alpha(2) ** -1, lambda: m.x_monomial({3: -1}),
                  lambda: m.x(3, -1)):
        with pytest.raises(HopfError):
            build()
    assert m.alpha(2) ** 0 == m.one()
    assert m.x_monomial({3: 5}) == m.zero()  # x_6^2 = 0 in G2 at p = 2
    assert m.x_monomial({3: 1}) == m.x(3)


def test_b_table_of_another_pair_is_refused():
    from exhopf import bst as bst_mod

    with pytest.raises(InvariantError):
        build_model("F4", 3, bst_mod.full_table("E6", 3))
    with pytest.raises(InvariantError):
        build_model("E8", 3, bst_mod.full_table("F4", 3))
    # the pair is compared by value: a table on a fresh profile of the pair is taken
    table = bst_mod.full_table("F4", 3)
    fresh = bst_mod.BstTable(liedata.GroupProfile("F4", 3), table.entries)
    assert build_model("F4", 3, fresh).bst_table is fresh


_FOREIGN = {
    "bockstein": lambda a, b: a.bockstein(b.alpha(2)),
    "sq": lambda a, b: a.sq(2, b.x(5)),
    "sq0": lambda a, b: a.sq(0, b.x(5)),
    "reduced_power": lambda a, b: a.reduced_power(1, b.x(5)),
    "reduced_power0": lambda a, b: a.reduced_power(0, b.x(5)),
    "mu_star": lambda a, b: a.mu_star(b.alpha(8)),
    "phi": lambda a, b: a.phi(b.alpha(8)),
    "tensor_bockstein": lambda a, b: a.tensor_bockstein(tensor(b, b.x(5), b.alpha(8))),
    "tensor_power": lambda a, b: a.tensor_power(1, tensor(b, b.x(5), b.alpha(8))),
    "tensor_multiply": lambda a, b: tensor(a, a.x(3), a.alpha(2)).multiply(
        tensor(b, b.x(5), b.alpha(8))
    ),
    "multiply": lambda a, b: a.multiply(a.x(3), b.x(5)),
    "add": lambda a, b: a.x(3) + b.x(5),
    "eq": lambda a, b: a.x(3) == b.x(3),
    "tensor": lambda a, b: tensor(a, b.x(5), b.alpha(8)),
    "tensor_add": lambda a, b: tensor(a, a.x(3), a.alpha(2)) + tensor(b, b.x(5), b.alpha(8)),
}


@pytest.mark.parametrize("op", sorted(_FOREIGN))
def test_element_of_another_model_is_refused(op):
    # (F4,2) lacks x_10 and alpha_15 has phi != 0 only in (E8,2): an element
    # of the wrong model would be read against the wrong tables
    a, b = model("F4", 2), model("E8", 2)
    with pytest.raises(HopfError, match="model mismatch"):
        _FOREIGN[op](a, b)


def _some_tensor(m):
    return tensor(m, m.x(3), m.alpha(2))


_WRONG_KIND = {
    "add": lambda m: m.alpha(2) + _some_tensor(m),
    "tensor_add": lambda m: _some_tensor(m) + m.alpha(2),
    "eq": lambda m: m.alpha(2) == _some_tensor(m),
    "tensor_eq": lambda m: _some_tensor(m) == m.alpha(2),
    "tensor_eq_int": lambda m: _some_tensor(m) == 0,
    "multiply": lambda m: m.multiply(m.x(3), _some_tensor(m)),
    "mul": lambda m: m.x(3) * _some_tensor(m),
    "bockstein": lambda m: m.bockstein(_some_tensor(m)),
    "sq": lambda m: m.sq(2, _some_tensor(m)),
    "sq0": lambda m: m.sq(0, _some_tensor(m)),
    "reduced_power": lambda m: m.reduced_power(1, _some_tensor(m)),
    "mu_star": lambda m: m.mu_star(_some_tensor(m)),
    "phi": lambda m: m.phi(_some_tensor(m)),
    "tensor": lambda m: tensor(m, _some_tensor(m), m.one()),
    "tensor_bockstein": lambda m: m.tensor_bockstein(m.alpha(2)),
    "tensor_power": lambda m: m.tensor_power(1, m.alpha(2)),
    "tensor_multiply": lambda m: _some_tensor(m).multiply(m.alpha(2)),
}


@pytest.mark.parametrize("op", sorted(_WRONG_KIND))
def test_element_of_the_wrong_kind_is_refused(op):
    # an algebra element where a tensor belongs, or the other way round,
    # would be read with keys of the wrong shape
    with pytest.raises(HopfError, match="expected (Algebra|Tensor)Element"):
        _WRONG_KIND[op](model("E8", 2))


_NEGATIVE_INDEX = {
    "sq": (("E8", 2), lambda m: m.sq(-3, m.x(3))),
    "reduced_power_p2": (("E8", 2), lambda m: m.reduced_power(-1, m.alpha(2))),
    "reduced_power_p3": (("E8", 3), lambda m: m.reduced_power(-1, m.x(4))),
    "tensor_power_p2": (("E8", 2), lambda m: m.tensor_power(-1, tensor(m, m.x(3), m.alpha(2)))),
    "tensor_power_p5": (("E8", 5), lambda m: m.tensor_power(-1, tensor(m, m.x(6), m.alpha(2)))),
}


@pytest.mark.parametrize("op", sorted(_NEGATIVE_INDEX))
def test_negative_operation_index_is_refused(op):
    # an operation of negative index is not zero but undefined, as in
    # steenrod.power; the Cartan walk would otherwise return 0 silently
    pair, call = _NEGATIVE_INDEX[op]
    with pytest.raises(HopfError, match="negative operation index"):
        call(model(*pair))


def test_truncation_in_product():
    m = model("G2", 2)
    assert (m.x(3) * m.x(3)).is_zero()  # x_6^2 = 0, k_3 = 2
    m8 = model("E8", 2)
    assert not (m8.x(3) * m8.x(3)).is_zero()  # x_6^2 != 0, k_3 = 8
    assert (m8.x(3, 7) * m8.x(3)).is_zero()


def test_squares_p2():
    for g in ("G2", "F4", "E6", "E7", "E8"):
        m = model(g, 2)
        assert m.alpha(2) * m.alpha(2) == m.x(3)  # alpha_3^2 = x_6
    m7 = model("E7", 2)
    assert m7.alpha(3) * m7.alpha(3) == m7.x(5)
    assert m7.alpha(8) * m7.alpha(8) == m7.zero()  # alpha_15^2 = 0 in E7
    m8 = model("E8", 2)
    assert m8.alpha(8) * m8.alpha(8) == m8.x(15) + m8.x(3, 2) * m8.x(9)


def test_squares_p_odd():
    m = model("F4", 3)
    assert (m.alpha(4) * m.alpha(4)).is_zero()


def test_graded_commutativity_sign():
    m = model("E8", 5)
    a, b = m.alpha(2), m.alpha(6)
    assert a * b == -(b * a)
    assert (m.x(6) * a) == (a * m.x(6))


def test_bockstein_examples():
    m8 = model("E8", 2)
    assert m8.bockstein(m8.alpha(12)) == m8.x(3) * m8.x(9) + m8.x(3, 4)
    m83 = model("E8", 3)
    assert m83.bockstein(m83.alpha(18)) == m83.x(4, 2) * m83.x(10)
    assert m83.bockstein(m83.one()).is_zero()
    m85 = model("E8", 5)
    assert m85.bockstein(m85.alpha(12)) == -m85.x(6, 2)


def _adem_defect(m, e):
    """R(e) for R = P^1P^1 - 2P^2, at odd p."""
    return m.reduced_power(1, m.reduced_power(1, e)) - 2 * m.reduced_power(2, e)


def _factor_pair(m, rng, basis):
    """Basis elements u, v whose product is +-1 times a random basis element."""
    xexp, odds = rng.choice(basis)
    x1 = tuple(rng.randint(0, e) for e in xexp)
    left = [rng.random() < 0.5 for _ in odds]
    u = (x1, tuple(s for s, keep in zip(odds, left) if keep))
    x2 = tuple(e - a for e, a in zip(xexp, x1))
    v = (x2, tuple(s for s, keep in zip(odds, left) if not keep))
    return AlgebraElement(m, {u: 1}), AlgebraElement(m, {v: 1})


def test_bockstein_is_derivation():
    m = model("E8", 3)
    a, b = m.alpha(4), m.alpha(10)
    lhs = m.bockstein(a * b)
    rhs = m.bockstein(a) * b - a * m.bockstein(b)  # |a| odd
    assert lhs == rhs
    # the generator-level delta^2 and Adem items of check_suite rest on
    # delta and R = P^1P^1 - 2P^2 being derivations on every product
    for group, p in liedata.SUPPORTED_PAIRS:
        m = model(group, p)
        rng = random.Random(f"derivation-{group}-{p}")
        basis = list(m.basis_elements())
        for i in range(16):
            # mostly factorisations of one basis element, whose product is
            # never truncated away; every fourth pair is drawn independently
            u, v = _factor_pair(m, rng, basis) if i % 4 else (
                AlgebraElement(m, {rng.choice(basis): 1}),
                AlgebraElement(m, {rng.choice(basis): 1}),
            )
            sign = -1 if u.degree() % 2 else 1
            rhs = m.bockstein(u) * v + sign * (u * m.bockstein(v))
            assert m.bockstein(u * v) == rhs, (group, p, u, v)
            if p != 2:
                rhs = _adem_defect(m, u) * v + u * _adem_defect(m, v)
                assert _adem_defect(m, u * v) == rhs, (group, p, u, v)


def test_reduced_power_examples():
    for g in ("G2", "F4", "E6", "E7", "E8"):
        m = model(g, 2)
        assert m.reduced_power(1, m.alpha(2)) == m.alpha(3)  # P^1 a_3 = a_5
    m5 = model("E8", 5)
    for s in (2, 8, 14, 20):  # P^1 alpha_i = alpha_{i+8}, i.e. s -> s + 4
        assert m5.reduced_power(1, m5.alpha(s)) == m5.alpha(s + 4)
    m73 = model("E7", 3)
    assert m73.reduced_power(2, m73.alpha(6)) == -m73.alpha(10)  # P^2 a_11 = -a_19


def test_power_on_x_generators():
    m = model("E8", 3)
    x8 = m.x(4)
    assert m.reduced_power(1, x8).is_zero()
    assert m.reduced_power(2, x8).is_zero()
    # forced by P^k Q_0 = Q_0 P^k + Q_1 P^{k-1} and the printed tables
    assert m.reduced_power(3, x8) == -m.x(10)
    assert m.reduced_power(4, x8) == m.x(4, 3)  # P^t x = x^p
    assert m.reduced_power(5, x8).is_zero()
    m2 = model("E7", 2)
    # p=2 coherence: Sq^4 x_6 = alpha_5^2 = x_10 in E7
    assert m2.sq(4, m2.x(3)) == m2.x(5)
    assert m2.sq(2, m2.x(5)).is_zero()  # x_6^2 = 0 in E7
    m8 = model("E8", 2)
    assert m8.sq(2, m8.x(5)) == m8.x(3, 2)  # Sq^2 x_10 = x_6^2 in E8
    assert m8.sq(8, m8.x(5)) == m8.x(9)  # Sq^8 x_10 = x_18


def test_instability_on_model():
    m = model("E8", 5)
    a = m.alpha(2)
    assert m.reduced_power(2, a).is_zero()
    x = m.x(6)
    for k in range(1, 6):
        assert m.reduced_power(k, x).is_zero(), k  # no intermediate action here
    assert m.reduced_power(6, x).is_zero()  # P^t x = x^p = x_12^5 = 0 (k_6 = 5)
    assert m.reduced_power(7, x).is_zero()


def _coproduct_claims(group, p):
    """The ledger's Theorem 2 claims on one pair, by s."""
    return {c.key: c for c in printed.claims(group, p) if c.kind == "coproduct"}


def test_derive_coproducts_examples():
    # derived values that the paper does not print (its printed ones are claims)
    m = model("F4", 3)
    # a_15 = P^1 a_11 is derived: phi(a_15) = -x_8 (x) a_7
    assert m.derive_coproducts()[8] == tensor(m, -m.x(4), m.alpha(4))
    # (E6,2) alpha_17 = P^1 alpha_15 and both routes stay consistent
    assert model("E6", 2).derive_coproducts()[9].is_zero()


def test_derived_phi17_e7_e8():
    for g in ("E7", "E8"):
        m = model(g, 2)
        phi = m.derive_coproducts()
        assert phi[9].is_zero(), g  # phi_2(alpha_17) = 0, via the alpha_9 route


def test_solver_worked_cases():
    # the paper's worked solves give its printed coproducts: (E8,2) alpha_15,
    # with three unknowns; (E8,3) alpha_15, with one, and alpha_35, with five
    for group, p, s in (("E8", 2, 8), ("E8", 3, 8), ("E8", 3, 18)):
        m = model(group, p)
        known = {k: v for k, v in m.derive_coproducts().items() if k != s}
        printed_value = m._coproduct_from_data(_coproduct_claims(group, p)[s].value)
        assert m.solve_coproduct(s, known) == printed_value, (group, p, s)


# leave-one-out solves that fix nothing: (E6,3) alpha_17 (printed primitive)
# and (E7,3) alpha_35 (an input) are free along x_8 ⊗ alpha_9, and along
# x_8 ⊗ alpha_27 and x_8^2 ⊗ alpha_19; (E8,3) alpha_47 is the b_{18,24} sign
SOLVER_EXCEPTIONS = {
    ("E6", 3, 9): Underdetermined,
    ("E7", 3, 18): Underdetermined,
    ("E8", 3, 24): Inconsistent,
}


def test_solver_matches_derived_everywhere():
    # every other coproduct known, the solve gives the derived value
    for group, p in liedata.SUPPORTED_PAIRS:
        m = model(group, p)
        phi = m.derive_coproducts()
        for s in m.r_list:
            known = {k: v for k, v in phi.items() if k != s}
            expected = SOLVER_EXCEPTIONS.get((group, p, s))
            if expected is None:
                assert m.solve_coproduct(s, known) == phi[s], (group, p, s)
            else:
                with pytest.raises(expected):
                    m.solve_coproduct(s, known)


def test_alpha47_route_holds_where_its_solve_is_inconsistent():
    # (E8,3): with every other coproduct known, the delta rows of alpha_47
    # contradict the rest (the pinned b_{18,24} sign); the fixpoint takes the
    # route from alpha_35 first, and that is the value check_suite reads
    m = model("E8", 3)
    phi = m.derive_coproducts()
    known = {k: v for k, v in phi.items() if k != 24}
    with pytest.raises(Inconsistent):
        m.solve_coproduct(24, known)
    routes = {src: route for _, src, route in m._incoming_routes(24, known)}
    assert routes[18] == phi[24] == m.phi(m.alpha(24))
    assert not phi[24].is_zero()


@pytest.mark.parametrize("group,p", sorted(liedata.SUPPORTED_PAIRS))
def test_printed_coproducts_are_derived(group, p):
    claims = _coproduct_claims(group, p)
    assert not claims.keys() & hopf.COPRODUCT_DATA.get((group, p), {}).keys()
    m = model(group, p)
    assert [s for s, c in claims.items() if not printed.holds(c, m)] == []


def test_printed_coproduct_check_sees_a_flipped_coefficient():
    # (E8,5) phi(alpha_39) with 3 x_12 ⊗ alpha_27 turned into 4 x_12 ⊗ alpha_27
    claim = _coproduct_claims("E8", 5)[20]
    (c, xmon, t), *rest = claim.value
    assert not printed.holds(claim._replace(value=[(c + 1, xmon, t)] + rest), model("E8", 5))


def test_inputs_are_the_printed_primitives_and_two_values():
    # the inputs are the one printed primitive and the two printed values
    # that nothing derives; the other 28 printed coproducts are claims
    entries = [(pair, s, data) for pair, table in hopf.COPRODUCT_DATA.items()
               for s, data in table.items()]
    assert [(pair, s) for pair, s, data in entries if not data] == [(("E6", 3), 9)]
    assert sorted(pair for pair, _, data in entries if data) == [("E6", 2), ("E7", 3)]
    claims = sum(len(_coproduct_claims(*pair)) for pair in liedata.SUPPORTED_PAIRS)
    assert (len(entries), claims) == (3, 28)


@pytest.mark.parametrize("pair,s,pending", [
    (("E6", 2), 8, "alpha_15, alpha_23 of"),
    (("E7", 3), 18, "alpha_35 of"),
    (("E6", 3), 9, "alpha_17 of"),
])
def test_each_kept_input_is_needed(monkeypatch, pair, s, pending):
    # without it neither a route nor a unique solve reaches these alphas;
    # the check suite then fails the coproduct items and still decides the rest
    monkeypatch.delitem(hopf.COPRODUCT_DATA[pair], s)
    with pytest.raises(UnreachableGenerator, match=f"^{pending}"):
        build_model(*pair).derive_coproducts()
    report = check_suite(build_model(*pair))
    coproduct_items = ("coassociativity", "delta_compatibility", "cartan_compatibility")
    assert [report[k] for k in coproduct_items] == [False] * 3
    assert report["delta_squared_zero"] and report["graded_dimension"]


def test_zeta_basis_examples():
    m = model("E8", 2)
    z = m.zeta_basis()
    assert z[8] == m.alpha(8) + m.x(3) * m.alpha(5)  # zeta_15
    assert z[2] == m.alpha(2)
    m5 = model("E8", 5)
    z5 = m5.zeta_basis()
    assert z5[12] == 3 * m5.alpha(12) + 2 * (m5.x(6) * m5.alpha(6))


def test_zeta_bockstein_e8_p2():
    m = model("E8", 2)
    z = m.zeta_basis()
    assert m.bockstein(z[15]) == m.x(15)  # -x_30 = x_30 mod 2, s=15 in e
    assert m.bockstein(z[8]).is_zero()  # s=8 not in e


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_check_suite_all_pairs(group, p):
    report = check_suite(build_model(group, p))
    bad = [k for k, v in report.items() if k != "pass" and not v]
    if (group, p) == ("E8", 3):
        # the verbatim theta_24 transcription gives b_{18,24} = -1, which
        # contradicts the printed Hopf data exactly at alpha_47's
        # delta-compatibility; see test_e8_p3_sign_diagnostic
        assert bad == ["delta_compatibility"], (group, p, bad)
    else:
        assert report["pass"], (group, p, bad)


def _relation_defects(m):
    """The generators whose relation mu* fails to send to zero: x_{2t}^{k_t}
    = 0, and alpha^2 = `square_table` at p = 2 or alpha^2 = 0 at odd p."""

    def power(u, n):
        out = tensor(m, m.one(), m.one())
        for _ in range(n):
            out = out.multiply(u)
        return out

    bad = []
    for t, k in zip(m.e_list, m.k_list):
        if not power(m.mu_star(m.x(t)), k).is_zero():
            bad.append(f"x_{2*t}")
    for s in m.r_list:
        square = m.square_table[s] if m.p == 2 else m.zero()
        if power(m.mu_star(m.alpha(s)), 2) != m.mu_star(square):
            bad.append(f"alpha_{2*s-1}")
    return bad


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_mu_star_respects_the_relations(group, p):
    # mu* extends its generator values as a ring map of the free
    # graded-commutative algebra; it is well defined on the model, as
    # check_suite assumes, only if it kills every relation there
    assert _relation_defects(model(group, p)) == []


def test_relation_check_fails_on_a_broken_square():
    # Lemma 2.2 prints b_{8,15} = 0 on (E8,2), where the computed table has
    # 1: with it alpha_15^2 = Sq^1 P^7 alpha_15 = 0, not x_30 + x_6^2 x_18
    table = bst.full_table("E8", 2)
    entries = dict(table.entries)
    entries[(8, 15)] = bst.BstEntry(8, 15, 7, 0, "printed")
    m = build_model("E8", 2, bst.BstTable(table.profile, entries))
    assert m.square_table[8].is_zero()
    report = check_suite(m)
    assert [k for k, v in report.items() if not v] == [
        "coassociativity", "delta_compatibility", "cartan_compatibility",
        "corollary44_zeta_squares", "remark43_sq1_values", "pass"]


def test_squares_via_delta_power_fails_only_on_a_broken_fill():
    # alpha_15^2 is the Sq^15 fill b_{8,15} delta alpha_29 and delta P^7 alpha_15
    # is delta of the Sq^14 fill b_{8,15} alpha_29: both sides come from the
    # same entry, so the item holds on Lemma 2.2's b_{8,15} = 0 mutant of
    # (E8,2), which five other items refuse, and fails only when the fill
    # itself is broken
    table = bst.full_table("E8", 2)
    entries = dict(table.entries)
    entries[(8, 15)] = bst.BstEntry(8, 15, 7, 0, "printed")
    mutant = build_model("E8", 2, bst.BstTable(table.profile, entries))
    report = check_suite(mutant)
    assert report["squares_via_delta_power"] is True and report["pass"] is False
    m = build_model("E8", 2, table)
    square = dict(m._ops[15][15])
    assert len(square) == 2
    del square[min(square)]
    m._ops[15][15] = square
    assert check_suite(m)["squares_via_delta_power"] is False


# alpha_{2s-1}^2 at p = 2 as transcribed from the paper; everything not
# listed squares to zero
PRINTED_SQUARES = {
    "G2": {2: [(1, {3: 1})]},
    "F4": {2: [(1, {3: 1})]},
    "E6": {2: [(1, {3: 1})]},
    "E7": {2: [(1, {3: 1})], 3: [(1, {5: 1})], 5: [(1, {9: 1})]},
    "E8": {
        2: [(1, {3: 1})],
        3: [(1, {5: 1})],
        5: [(1, {9: 1})],
        8: [(1, {15: 1}), (1, {3: 2, 9: 1})],
    },
}


@pytest.mark.parametrize("group", list(PRINTED_SQUARES))
def test_square_table_equals_the_printed_squares(group):
    # the squares the model derives from the b-table and the Bockstein table
    m = model(group, 2)
    printed_squares = PRINTED_SQUARES[group]
    assert m.square_table == {s: m._from_data(printed_squares.get(s, [])) for s in m.r_list}


def _delta_squared_sweep(m):
    return all(
        m.bockstein(m.bockstein(AlgebraElement(m, {b: 1}))).is_zero()
        for b in m.basis_elements()
    )


def _adem_sweep(m):
    return all(
        _adem_defect(m, AlgebraElement(m, {b: 1})).is_zero() for b in m.basis_elements()
    )


def _census_sweep(m):
    """The degree census of the basis equals the Poincare polynomial."""
    census = {}
    for b in m.basis_elements():
        d = m.basis_degree(b)
        census[d] = census.get(d, 0) + 1
    poincare = m.poincare_polynomial()
    return (
        len(poincare) - 1 == max(census)
        and all(census.get(d, 0) == c for d, c in enumerate(poincare))
        and sum(census.values()) == m.basis_dimension()
    )


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_generator_checks_agree_with_basis_sweeps(group, p):
    # check_suite decides delta^2 = 0 and P^1P^1 = 2P^2 on generators and
    # the graded dimension on the Poincare polynomial; the sweeps over
    # every basis element are the oracles
    m = model(group, p)
    report = check_suite(m)
    assert (report["delta_squared_zero"], _delta_squared_sweep(m)) == (True, True)
    assert (report["graded_dimension"], _census_sweep(m)) == (True, True)
    if p != 2:
        assert (report["adem_p1p1_2p2"], _adem_sweep(m)) == (True, True)


def test_graded_dimension_fails_on_a_wrong_truncation_height():
    # (E7,3) with x_8^2 = 0 instead of x_8^3 = 0: the census reads k_list on
    # both sides and still agrees, Poincare duality for dim E7 = 133 does not
    m = model("E7", 3)
    assert m.k_list == (3,)
    m.k_list = (2,)
    assert _census_sweep(m)
    report = check_suite(m)
    assert report["graded_dimension"] is False
    assert report["pass"] is False


def test_adem_check_fails_on_a_broken_table():
    # (E7,3) with P^2 alpha_11 = 0 while P^1P^1 alpha_11 = b_{6,8} b_{8,10}
    # alpha_19 != 0: both the generator check and the sweep must see it
    from exhopf import bst as bst_mod

    table = bst_mod.full_table("E7", 3)
    entry = table.entries[(6, 10)]
    assert entry.value and table.value(6, 8) * table.value(8, 10) % 3
    broken = dict(table.entries)
    broken[(6, 10)] = bst_mod.BstEntry(6, 10, entry.k, 0, "mutant")
    m = build_model("E7", 3, bst_mod.BstTable(table.profile, broken))
    report = check_suite(m)
    assert report["adem_p1p1_2p2"] is False
    assert not _adem_sweep(m)
    assert report["pass"] is False


@pytest.mark.parametrize("group,p,s,t", [("F4", 3, 6, 8), ("E7", 2, 8, 12), ("E8", 5, 8, 12)])
def test_cartan_check_sees_a_broken_reduced_power(group, p, s, t):
    # after the coproducts are derived, break P^k alpha_{2s-1} = b alpha_{2t-1}
    # in the operation table (doubled at odd p, dropped at p = 2); phi(alpha_{2t-1})
    # is nonzero, so mu* no longer commutes with that P^k.  mu* itself, and
    # with it coassociativity and delta-compatibility, is untouched: only the
    # Cartan item can see this, and by comparison, not through a failed solve
    m = model(group, p)
    assert not m.derive_coproducts()[t].is_zero()
    e = m.bst_table.entries[(s, t)]
    ops = m._ops[2 * s - 1]
    if p == 2:
        del ops[2 * e.k]
    else:
        ops[e.k] = {b: 2 * c % p for b, c in ops[e.k].items()}
    unit = (m._zero_x, ())
    m._totals = {unit: {0: {unit: 1}}}
    report = check_suite(m)
    assert [k for k, v in report.items() if not v] == ["cartan_compatibility", "pass"]


def test_e8_p3_sign_diagnostic():
    # flipping the single disputed entry b_{18,24} (equivalently, globally
    # negating theta_24 as transcribed) makes every (E8,3) check pass --
    # the inconsistency of the source text is localized to that one sign
    from exhopf import bst as bst_mod

    table = bst_mod.full_table("E8", 3)
    entry = table.entries[(18, 24)]
    assert entry.value == 2  # -1 mod 3 from the verbatim transcription
    flipped = dict(table.entries)
    flipped[(18, 24)] = bst_mod.BstEntry(18, 24, entry.k, 1, "diagnostic-flip")
    m2 = build_model("E8", 3, bst_mod.BstTable(table.profile, flipped))
    report = check_suite(m2)
    assert report["pass"], report


def test_bockstein_table_without_unit_generator_is_a_typed_error(monkeypatch):
    # delta(alpha_7) of (F4,3) must be a unit multiple of x_8; a table that
    # says x_8^2 instead is refused, not silently used
    monkeypatch.setitem(hopf.BOCKSTEIN_DATA[("F4", 3)], 4, [(-1, {4: 2})])
    with pytest.raises(InvariantError):
        build_model("F4", 3)


def test_bockstein_table_with_zero_unit_is_a_typed_error(monkeypatch):
    # delta(alpha_7) = 3 x_8 is 0 mod 3: the model is refused at build time,
    # not built with an empty P-action on x_8
    monkeypatch.setitem(hopf.BOCKSTEIN_DATA[("F4", 3)], 4, [(3, {4: 1})])
    with pytest.raises(InvariantError, match="not a unit multiple"):
        build_model("F4", 3)


def _op(m):
    """Sq at p = 2 and P at odd p, with the instability cap of a degree."""
    if m.p == 2:
        return m.sq, lambda deg: deg
    return m.reduced_power, lambda deg: deg // 2


# sha256 of the rendered Sq^i (p = 2) or P^i (odd p) of every generator,
# for every i up to its instability cap, as computed before the generator
# actions moved into one table of the model
_GENERATOR_ACTION_DIGESTS = {
    ("G2", 2): "2815c2d7b44fbde46f0ca630ae0525ffbb10f6a3c7f5e6cf747a08de9ec3e428",
    ("F4", 2): "bf6feedff01b192cfbafb86203f39351d978809e8312263cae93401ff07873c4",
    ("E6", 2): "84bda759aac9a93044733ad66b33087f8cc08ef5f2a2d4eaa3b0691478b1f4f3",
    ("E7", 2): "4ea045138685964fd1feb485ab195f0f6863f082dc84b55dc1c347644760f48d",
    ("E8", 2): "b49abc63c6d86d92ae290c343ae854ea44650dd6743c16652ecc87292d1e094e",
    ("F4", 3): "77586e5055be862993ef3f3d52ff65307d92cf68d846353df7c9603281d8195b",
    ("E6", 3): "6a9fcaae709bb2d5cc9f1eaee1f5f3c7f600d4108fb44632e9137e3153beaaec",
    ("E7", 3): "acd5aab41b067858db407ba0f7286751669d003b37a0213222955eaf2735028b",
    ("E8", 3): "b39c00e41f70b5f81ddba46e6b6cb7708438bb869d99667d90ee03a386fa1e4c",
    ("E8", 5): "d08b7b6114178fbbfa4cd7c5d4feb932ab743472850cd7ae9af732a23996c7f5",
}


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_generator_actions_are_pinned(group, p):
    # every Sq/P the model knows is these values carried by the Cartan
    # formula, so a change to any one of them moves the digest
    m = model(group, p)
    op, cap = _op(m)
    gens = [(f"a{2*s-1}", m.alpha(s)) for s in m.r_list]
    gens += [(f"x{2*t}", m.x(t)) for t in m.e_list]
    text = "\n".join(
        f"{name} {i} {m.render_element(op(i, g))}"
        for name, g in gens
        for i in range(cap(g.degree()) + 1)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == _GENERATOR_ACTION_DIGESTS[(group, p)]


def _cartan_sum(m, k, u, v):
    op, _ = _op(m)
    return sum((op(i, u) * op(k - i, v) for i in range(k + 1)), m.zero())


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_cartan_formula_and_instability_on_products(group, p):
    m = model(group, p)
    op, cap = _op(m)
    rng = random.Random(f"cartan-{group}-{p}")
    basis = list(m.basis_elements())
    for _ in range(12):
        u = AlgebraElement(m, {rng.choice(basis): 1})
        v = AlgebraElement(m, {rng.choice(basis): 1})
        du = u.degree()
        top = cap(du + v.degree())
        ks = {0, 1, top, top + 1, *rng.sample(range(top + 2), min(4, top + 2))}
        for k in sorted(ks):
            assert op(k, u * v) == _cartan_sum(m, k, u, v), (u, v, k)
        assert op(cap(du) + 1, u).is_zero(), u
        if p == 2:
            assert op(du, u) == u * u, u
        elif du % 2 == 0:
            assert op(du // 2, u) == u ** p, u


def test_deep_sq_on_e8_p2():
    # long runs of x-factors: the Cartan recursion must share its work
    # across every Sq^a (without the `_total` memo this test takes about
    # 0.7 s instead of 0.03 s)
    m = model("E8", 2)
    x, a = m.x, m.alpha
    cases = [
        (x(3, 7), x(5, 3) * a(2)),
        (x(3, 5) * x(9), a(3) * a(8)),
        (x(3, 6), x(5, 2) * x(15) * a(5)),
    ]
    for u, v in cases:
        for k in range(40):
            assert m.sq(k, u * v) == _cartan_sum(m, k, u, v), (u, v, k)


def _tensor_cartan_sum(m, k, tens, ops):
    """P^k (Sq^{2k} at p = 2) on H ⊗ H as the sum of c * op(i, a) ⊗ op(n - i, b)
    over the terms c * a ⊗ b, with op the public `sq` / `reduced_power` on
    single basis elements (memoised in `ops`, keyed (i, basis element))."""
    op, _ = _op(m)
    n = 2 * k if m.p == 2 else k

    def on(i, b):
        if (i, b) not in ops:
            ops[(i, b)] = op(i, AlgebraElement(m, {b: 1}))
        return ops[(i, b)]

    out = TensorElement(m, {})
    for (a, b), c in tens.terms.items():
        for i in range(n + 1):
            left = on(i, a)
            if not left.is_zero():
                out = out + tensor(m, left, on(n - i, b)).scale(c)
    return out


def _test_tensors(m, rng):
    """mu* of every generator and four random three-term tensors."""
    basis = list(m.basis_elements())
    tensors = [m.mu_star(m.alpha(s)) for s in m.r_list] + [m.mu_star(m.x(t)) for t in m.e_list]
    for _ in range(4):
        tensors.append(TensorElement(m, {
            (rng.choice(basis), rng.choice(basis)): rng.randrange(1, m.p) for _ in range(3)
        }))
    return tensors


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_tensor_power_is_the_cartan_sum_of_single_operations(group, p):
    # tensor_power builds one table {k: P^k} per element from the sparse
    # `_total` tables of both sides, on its first call; the oracle builds
    # every term from the public operations instead.  Each element is asked
    # for every k in turn, so a table that is stale, or shared between
    # elements or indices, fails here
    m = model(group, p)
    _, cap = _op(m)
    ops = {}
    for tens in _test_tensors(m, random.Random(f"tensor-{group}-{p}")):
        top = max(cap(m.basis_degree(a) + m.basis_degree(b)) for a, b in tens.terms)
        for k in range(top + 2):
            assert m.tensor_power(k, tens) == _tensor_cartan_sum(m, k, tens, ops), (tens, k)


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_tensor_bockstein_is_the_sum_of_single_bocksteins(group, p):
    # tensor_bockstein reads the memoised delta of each basis element; the
    # oracle is delta(a) ⊗ b + (-1)^|a| a ⊗ delta(b) over the terms c * a ⊗ b,
    # each delta one public `bockstein` call on a single basis element
    m = model(group, p)
    for tens in _test_tensors(m, random.Random(f"tensor-delta-{group}-{p}")):
        want = TensorElement(m, {})
        for (a, b), c in tens.terms.items():
            left, right = AlgebraElement(m, {a: 1}), AlgebraElement(m, {b: 1})
            sign = -c if m.basis_parity(a) else c
            want = want + tensor(m, m.bockstein(left), right).scale(c)
            want = want + tensor(m, left, m.bockstein(right)).scale(sign)
        assert m.tensor_bockstein(tens) == want, tens


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_mu_star_commutes_with_delta_on_products_of_two_alphas(group, p):
    # mu* of a product of two odd generators has terms alpha ⊗ alpha' with an
    # odd left factor, where the Koszul sign of tensor_bockstein fires; on
    # the generators themselves (`delta_compatibility`) it never does
    m = model(group, p)
    bad = []
    for i, a in enumerate(m.r_list):
        for b in m.r_list[i + 1 :]:
            u = m.alpha(a) * m.alpha(b)
            if m.mu_star(m.bockstein(u)) != m.tensor_bockstein(m.mu_star(u)):
                bad.append((a, b))
    if (group, p) == ("E8", 3):
        # alpha_47 fails delta-compatibility (the b_{18,24} sign; see
        # test_e8_p3_sign_diagnostic), and with it every product it is in
        assert bad == [(s, 24) for s in m.r_list if s < 24], bad
    else:
        assert bad == [], bad


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_mu_star_is_multiplicative_and_linear(group, p):
    # mu_star memoises mu* of each basis element at coefficient 1 and
    # scales it; products and combinations must come out as from the table.
    # Up to twice the top generator degree: on (E8,2) mu* of the top class
    # has 264,680 terms, and squaring mu* of a degree-90 element takes 4 s
    m = model(group, p)
    rng = random.Random(f"mu-{group}-{p}")
    top = max([2 * s - 1 for s in m.r_list] + [2 * t for t in m.e_list])
    basis = [b for b in m.basis_elements() if m.basis_degree(b) <= 2 * top]
    for _ in range(12):
        u = AlgebraElement(m, {rng.choice(basis): 1})
        v = AlgebraElement(m, {rng.choice(basis): 1})
        c = rng.randrange(p)
        assert m.mu_star(u * v) == m.mu_star(u).multiply(m.mu_star(v)), (u, v)
        assert m.mu_star(c * u) == m.mu_star(u).scale(c), (u, c)
        assert m.mu_star(c * u + v) == m.mu_star(u).scale(c) + m.mu_star(v), (u, v, c)


@pytest.mark.parametrize("group,p", list(liedata.SUPPORTED_PAIRS))
def test_split_peels_off_one_generator(group, p):
    # `_walk` takes the value at b as the value at rest times the value at
    # the generator, so rest * generator must be b itself, coefficient +1
    m = model(group, p)
    gens = {2 * s - 1: m.alpha(s) for s in m.r_list}
    gens.update({2 * t: m.x(t) for t in m.e_list})
    for b in m.basis_elements():
        if b != (m._zero_x, ()):
            rest, gen = m._split(b)
            (g,) = gens[gen].terms
            assert m.multiply_basis(rest, g) == {b: 1}, (group, p, b)


def test_memo_entries_are_never_mutated():
    # `_total` tables, mu* terms and deltas of basis elements are shared
    # without a copy: after the coproducts and the check suite, every entry
    # must still equal the same entry rebuilt in a fresh model.  A fresh
    # model fills its memos through the same code, so each walk entry must
    # also still be its rest's entry times its generator's table entry
    for group, p in liedata.SUPPORTED_PAIRS:
        m = model(group, p)
        m.derive_coproducts()
        check_suite(m)
        fresh = model(group, p)
        unit = (m._zero_x, ())
        assert m._totals[unit] == {0: {unit: 1}} and m._coproducts[unit] == {(unit, unit): 1}
        for memo, table, product, rebuild in (
            (m._totals, m._ops, m._cartan, fresh._total),
            (m._coproducts, m._mu, m._koszul,
             lambda b: fresh.mu_star(AlgebraElement(fresh, {b: 1})).terms),
        ):
            assert len(memo) > 1, (group, p)
            for b, value in memo.items():
                assert value == rebuild(b), (group, p, b)
                if b != unit:
                    rest, gen = m._split(b)
                    assert value == product(memo[rest], table[gen]), (group, p, b)
        # delta of each basis element is shared the same way
        assert len(m._deltas) > 1, (group, p)
        for b, value in m._deltas.items():
            assert value == fresh._delta(b), (group, p, b)


def _with_values(group, p, values):
    """The computed b-table of (group, p) with some entries replaced."""
    from exhopf import bst as bst_mod

    table = bst_mod.full_table(group, p)
    entries = dict(table.entries)
    for (s, t), v in values.items():
        entries[(s, t)] = bst_mod.BstEntry(s, t, entries[(s, t)].k, v, "synthetic")
    return bst_mod.BstTable(table.profile, entries)


def test_q1_term_is_reached_only_by_refused_tables():
    # P^k x_{2t} = u^{-1} delta(P^k alpha - P^1 P^{k-1} alpha) (`_fill_ops`).
    # (E8,3): P^1 P^2 alpha_7 != 0 needs b_{4,8} != 0, which already makes
    # P^2 x_8 = delta(b_{4,8} alpha_15) a non-generator
    with pytest.raises(InvariantError, match="P\\^2 x_8"):
        build_model("E8", 3, _with_values("E8", 3, {(4, 8): 1}))
    # (F4,3) with b_{4,6} = b_{4,8} = 1: the Q_1 term cancels delta(P^2 alpha_7),
    # so the model builds only through it.  Its alpha_11 then takes the P^1
    # alpha_7 route and comes out primitive, against the printed coproduct of
    # alpha_11, and the check suite fails
    m = build_model("F4", 3, _with_values("F4", 3, {(4, 6): 1, (4, 8): 1}))
    assert m.reduced_power(2, m.x(4)).is_zero()
    assert m.derive_coproducts()[6].is_zero()
    assert not printed.holds(_coproduct_claims("F4", 3)[6], m)  # -x_8 ⊗ alpha_3
    report = check_suite(m)
    assert not report["delta_compatibility"] and not report["pass"]
