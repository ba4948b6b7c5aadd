import random

import pytest
from hypothesis import given, settings, strategies as st
from naive_division import _order_key, naive_reduce
from oracles import omega

from exhopf import bst, groebner, liedata, steenrod
from exhopf.ffpoly import EXPONENT_LIMIT, ExponentOverflow, RingContext, render
from exhopf.groebner import (
    Ambiguous,
    DegenerateBasis,
    GroebnerError,
    NoSolution,
    buchberger,
    normal_form,
    solve_linear_coefficient,
)


def ring(p=2, names=("w1", "w2"), weights=None, precedence=None):
    """`precedence` lists variable indices from the smallest variable to the
    largest; the ring realizes it by declaring the variables in that order."""
    if weights is None:
        weights = (1,) * len(names)
    variables = list(zip(names, weights))
    if precedence is not None:
        variables = [variables[i] for i in precedence]
    return RingContext(p, variables)


def test_principal_monomial_ideal():
    R = ring(2, ("x", "y"))
    gb = buchberger([R.variable("x")])
    assert [render(b) for b in gb.basis] == ["x"]
    f = R.parse("x*y+y^2")
    assert normal_form(R.variable("x") * f, gb).remainder.is_zero()


def test_empty_generators():
    R = ring(3, ("x", "y"))
    gb = buchberger([], ring=R)
    f = R.parse("x^2+2*y^2")
    assert normal_form(f, gb).remainder == f
    with pytest.raises(ValueError):
        buchberger([])


def test_inhomogeneous_generator_rejected():
    R = ring(2, ("x", "y"))
    with pytest.raises(ValueError):
        buchberger([R.parse("x^2+y")])


def test_g2_linear_solve():
    # the driving example: P^1 theta_2 = theta_3 + w1*theta_2 over F_2
    R = ring(2)
    theta2 = R.parse("w1^2+w1*w2+w2^2")
    theta3 = R.parse("w2^3")
    gb = buchberger([theta2], truncation=3)
    lhs = R.parse("w1^2*w2+w1*w2^2")  # P^1 theta_2
    assert solve_linear_coefficient(lhs, normal_form(theta3, gb), gb) == 1
    # Eq (2.4) witness: the residue of lhs - theta_3 is zero
    assert normal_form(lhs - theta3, gb).remainder.is_zero()
    assert not normal_form(theta3, gb).remainder.is_zero()


def test_solve_zero_lhs():
    R = ring(3, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=4)
    pivot = R.parse("y^2")
    assert solve_linear_coefficient(R.zero(), normal_form(pivot, gb), gb) == 0


def test_solve_ambiguous_and_nosolution():
    R = ring(3, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=4)
    inside = normal_form(R.parse("x^2*y"), gb)  # pivot in the ideal
    with pytest.raises(Ambiguous):
        solve_linear_coefficient(R.parse("x^3*y") - R.parse("x^3*y"), inside, gb)
    with pytest.raises(NoSolution):
        solve_linear_coefficient(R.parse("y^3"), inside, gb)
    with pytest.raises(NoSolution):
        # residues not proportional
        solve_linear_coefficient(R.parse("y^3"), normal_form(R.parse("x*y^2"), gb), gb)


def test_nf_idempotent_and_fixed_points():
    R = ring(2, ("x", "y", "z"))
    gens = [R.parse("x^2+y*z"), R.parse("x*y+z^2")]
    gb = buchberger(gens, truncation=6)
    f = R.parse("x^2*z+y^3+x*y*z")
    r = normal_form(f, gb).remainder
    assert normal_form(r, gb).remainder == r
    for g in gens:
        assert normal_form(g, gb).remainder.is_zero()


def test_ideal_membership_random():
    rng = random.Random(7)
    R = ring(3, ("x", "y", "z"))
    gens = [R.parse("x^2+y*z"), R.parse("y^2+2*x*z")]
    gb = buchberger(gens, truncation=8)
    mons2 = [m for m in _monomials(R, 2)]
    for _ in range(25):
        combo = R.zero()
        for g in gens:
            h = R.zero()
            for m in mons2:
                c = rng.randrange(3)
                if c:
                    h = h + c * R.monomial(m)
            combo = combo + h * g
        assert normal_form(combo, gb).remainder.is_zero()


def _monomials(R, weight):
    # all monomials of a given weighted degree
    out = []

    def rec(i, left, acc):
        w = R.weights[i]
        if i == R.nvars - 1:
            if left % w == 0:
                out.append(tuple(acc + [left // w]))
            return
        for e in range(left // w + 1):
            rec(i + 1, left - e * w, acc + [e])

    rec(0, weight, [])
    return out


def test_truncation_soundness_small():
    # truncated and full bases agree on all normal forms up to the bound
    R = ring(2, ("x", "y", "z", "t"))
    gens = [R.parse("x^2+y*z"), R.parse("x*y+z*t+t^2"), R.parse("z^3+y^2*t")]
    full = buchberger(gens)
    for d in (4, 6, 8):
        trunc = buchberger(gens, truncation=d)
        for w in range(1, d + 1):
            for m in _monomials(R, w):
                f = R.monomial(m)
                assert (
                    normal_form(f, trunc).remainder == normal_form(f, full).remainder
                ), (d, m)


def test_weight_beyond_truncation_rejected():
    R = ring(2, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=3)
    with pytest.raises(ValueError, match="input weight 4 exceeds truncation 3"):
        normal_form(R.parse("x^4+y^2"), gb)


def test_solve_rejects_unequal_or_inhomogeneous_weights():
    R = ring(2, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=3)
    msg = "lhs and pivot must be homogeneous of equal weight"
    with pytest.raises(ValueError, match=msg):
        solve_linear_coefficient(R.parse("x*y"), normal_form(R.parse("y^3"), gb), gb)
    with pytest.raises(ValueError, match=msg):
        solve_linear_coefficient(R.parse("x*y+y^3"), normal_form(R.parse("y^3"), gb), gb)
    with pytest.raises(ValueError, match=msg):
        solve_linear_coefficient(R.parse("y^3"), normal_form(R.parse("x*y+y^3"), gb), gb)
    assert normal_form(R.parse("x*y+y^3"), gb).weights == (2, 3)
    assert normal_form(R.zero(), gb).weights is None


def test_determinism():
    R = ring(3, ("x", "y", "z"))
    gens = [R.parse("x^2+y*z"), R.parse("y^2+2*x*z"), R.parse("z^2+x*y")]
    a = buchberger(gens, truncation=8)
    b = buchberger(gens, truncation=8)
    assert [render(f) for f in a.basis] == [render(f) for f in b.basis]


def test_solve_independent_of_precedence():
    # the same linear coefficient under two declaration orders
    for prec in [None, (1, 0)]:
        R = ring(2, ("w1", "w2"), precedence=prec)
        theta2 = R.parse("w1^2+w1*w2+w2^2")
        theta3 = R.parse("w2^3")
        gb = buchberger([theta2], truncation=3)
        lhs = R.parse("w1^2*w2+w1*w2^2")
        assert solve_linear_coefficient(lhs, normal_form(theta3, gb), gb) == 1


def _random_homogeneous(R, weight, rng, density=0.5):
    p = R.p
    terms = {m: rng.randrange(1, p) for m in _monomials(R, weight) if rng.random() < density}
    return R.from_terms(terms.items())


def _tuple_items(terms, R):
    return [(R.exponents(k), c) for k, c in terms.items()]


def _assert_matches_oracle(f, gb):
    rem = normal_form(f, gb).remainder.terms
    # same terms in the same (descending) insertion order
    assert _tuple_items(rem, gb.ring) == list(naive_reduce(f.terms, gb.basis, gb.ring).items())


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("precedence", [None, (2, 0, 3, 1)])
def test_heap_division_matches_rescan_oracle(p, precedence):
    rng = random.Random(1000 * p + (precedence is not None))
    names = ("x", "y", "z", "t")
    R = ring(p, names, weights=(1, 1, 2, 3), precedence=precedence)
    for _ in range(6):
        gens = [_random_homogeneous(R, w, rng) for w in (2, 3, 3)]
        gens = [g for g in gens if not g.is_zero()]
        gb = buchberger(gens, truncation=8, ring=R)
        for w in range(1, 9):
            f = _random_homogeneous(R, w, rng, density=0.7)
            _assert_matches_oracle(f, gb)
        # division by a generating set that is not a Groebner basis
        divisors = [g.monic() for g in gens]
        f = _random_homogeneous(R, 8, rng, density=0.7)
        rem = groebner._divide(f.terms, [groebner._divisor(g, R) for g in divisors], R)
        assert _tuple_items(rem, R) == list(naive_reduce(f.terms, divisors, R).items())


@pytest.mark.parametrize("p", [2, 3, 5])
def test_inhomogeneous_division_matches_rescan_oracle(p):
    """Divisors whose tails sit at other weights than their leading terms, and
    dividends spread over several weights: each pushed term's packed key is
    the popped key plus a tail delta, which this pins against the rescan."""
    rng = random.Random(77 + p)
    R = ring(p, ("x", "y", "z", "t"), weights=(1, 2, 3, 1), precedence=(3, 0, 2, 1))

    def mixed(weights, density):
        terms = {}
        for w in weights:
            mons = _monomials(R, w)
            terms.update((m, rng.randrange(1, p)) for m in mons if rng.random() < density)
            terms[rng.choice(mons)] = rng.randrange(1, p)  # every weight occurs
        return R.from_terms(terms.items())

    for _ in range(8):
        divisors = [mixed(ws, 0.4).monic() for ws in ((3, 2, 0), (4, 1), (5, 3, 2))]
        f = mixed((7, 6, 4, 1), 0.6)
        rem = groebner._divide(f.terms, [groebner._divisor(g, R) for g in divisors], R)
        assert _tuple_items(rem, R) == list(naive_reduce(f.terms, divisors, R).items())


def test_heap_division_matches_rescan_oracle_e6_method1():
    prof = liedata.profile("E6", 2)
    ts = liedata.theta_set("E6", 2)
    for s, t, k in bst.admissible_pairs(prof):
        if k >= s:
            continue
        gb, _ = bst._basis("E6", 2, "weight", t)
        _assert_matches_oracle(steenrod.power(k, omega(ts, s)), gb)


@pytest.mark.parametrize("precedence", [None, (3, 1, 0, 2)])
def test_packed_key_reverses_order_key(precedence):
    # the division heap pops the smallest key first, which must be the
    # largest monomial of the weighted grevlex order
    rng = random.Random(11)
    R = ring(3, ("a", "b", "c", "d"), weights=(1, 2, 2, 3), precedence=precedence)
    mons = list({tuple(rng.randrange(4) for _ in range(4)) for _ in range(300)})
    rng.shuffle(mons)
    by_key = sorted(mons, key=R.key)
    assert by_key == sorted(mons, key=lambda m: _order_key(m, R.weights), reverse=True)


@st.composite
def weighted_monomials(draw, max_vars=8):
    """Random weights with two monomials whose product stays below 2^15."""
    weights = draw(st.lists(st.integers(1, 9), min_size=0, max_size=max_vars))
    top = (EXPONENT_LIMIT - 1) // (2 * max(1, sum(weights)))
    exps = st.tuples(*[st.integers(0, top) for _ in weights])
    return weights, draw(exps), draw(exps)


@settings(max_examples=200, deadline=None)
@given(weighted_monomials())
def test_packed_key_properties(data):
    weights, a, b = data
    R = RingContext(3, [(f"v{i}", w) for i, w in enumerate(weights)])
    ab = tuple(x + y for x, y in zip(a, b))
    assert R.key(ab) == R.key(a) + R.key(b)
    for m in (a, b, ab):
        assert R.exponents(R.key(m)) == m
        assert R.wdeg(R.key(m)) == sum(e * w for e, w in zip(m, weights))
    # the guard-bit test inside the division loop: a monomial divisor
    # cancels m exactly when it divides m
    for lm, m in ((a, b), (b, a), (a, ab)):
        m = R.key(m)
        rem = groebner._divide({m: 1}, [groebner._divisor(R.monomial(lm), R)], R)
        assert (rem == {}) == all(x <= y for x, y in zip(lm, R.exponents(m)))
        assert rem in ({}, {m: 1})


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=5), st.data())
def test_exponent_at_guard_bit_is_a_typed_error(weights, data):
    """No dividend or divisor can hold an exponent at the guard bit: every
    way to build one, directly or as a product, raises first."""
    R = RingContext(2, [(f"v{i}", w) for i, w in enumerate(weights)])
    i = data.draw(st.integers(0, len(weights) - 1))
    big = [0] * len(weights)
    big[i] = EXPONENT_LIMIT
    half = [0] * len(weights)
    half[i] = -(-(EXPONENT_LIMIT // 2) // weights[i])  # below the limit, its square is not
    small = tuple(1 if j != i else 0 for j in range(len(weights)))
    with pytest.raises(ExponentOverflow):
        R.monomial(big)
    with pytest.raises(ExponentOverflow):
        R.from_terms([(small, 1), (big, 1)])
    factor = R.monomial(half)
    with pytest.raises(ExponentOverflow):
        factor * factor
    assert issubclass(ExponentOverflow, ValueError)


def test_exponent_below_guard_bit_divides():
    R = ring(2, ("x", "y"))
    top = EXPONENT_LIMIT - 1
    gb = buchberger([R.parse("x+y")], ring=R)
    # y leads x + y, so y^top steps down to x^top, one field over, and
    # x^top is already reduced
    assert normal_form(R.monomial((0, top)), gb).remainder == R.monomial((top, 0))
    assert normal_form(R.monomial((top, 0)), gb).remainder == R.monomial((top, 0))


def test_spair_past_the_guard_bit_is_a_typed_error():
    # f and g each weigh 2^14 + 2, but the lcm x^(a-1) y^a of their leading
    # monomials weighs 2^15 + 1: the untruncated pair loop must refuse to
    # form that S-polynomial rather than let an exponent spill over
    R = ring(2, ("x", "y"))
    a = (1 << 14) + 1
    f = R.monomial((a, 1)) + R.monomial((a - 1, 2))
    g = R.monomial((1, a)) + R.monomial((2, a - 1))
    assert f.weight() == g.weight() == (1 << 14) + 2
    lcm = R.mon_lcm(f.leading_monomial(), g.leading_monomial())
    assert R.exponents(lcm) == (a - 1, a) and R.wdeg(lcm) == (1 << 15) + 1
    with pytest.raises(ExponentOverflow):
        buchberger([f, g], ring=R)


def test_degenerate_basis_is_a_typed_error(monkeypatch):
    R = ring(2, ("x", "y"))
    gens = [R.parse("x^2+y^2"), R.parse("x*y")]
    monkeypatch.setattr(groebner, "_divide", lambda terms, *args, **kwargs: {})
    basis = [g.monic() for g in gens]
    with pytest.raises(DegenerateBasis) as info:
        groebner._finalize(R, None, basis, [groebner._divisor(g, R) for g in basis], 0)
    assert isinstance(info.value, GroebnerError)


def _terms(gb):
    """A basis term for term and in order: keys and coefficients as stored."""
    return [list(g.terms.items()) for g in gb.basis]


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("precedence", [None, (2, 0, 3, 1)])
def test_extension_matches_scratch_on_random_ideals(p, precedence):
    """A basis extended step by step equals the one built from scratch on
    all the generators, term for term, whether the new generators weigh
    less than, as much as or more than the base's truncation."""
    rng = random.Random(500 + 10 * p + (precedence is not None))
    R = ring(p, ("x", "y", "z", "t"), weights=(1, 1, 2, 3), precedence=precedence)
    for _ in range(5):
        gens = [g for g in (_random_homogeneous(R, w, rng) for w in (2, 3, 3, 4, 5))
                if not g.is_zero()]
        for steps in ((3, 5, 8), (2, 4, 6, 8), (4, 4, 7)):
            gb = None
            for n, d in enumerate(steps):
                chunk = [g for g in gens if g.weight() <= d and (n == 0 or g.weight() > steps[n - 1])]
                gb = buchberger(chunk, truncation=d, ring=R, base=gb)
                scratch = buchberger([g for g in gens if g.weight() <= d], truncation=d, ring=R)
                assert _terms(gb) == _terms(scratch), (steps, d)
        # generators lighter than the base's truncation
        base = buchberger(gens[2:], truncation=6, ring=R)
        extended = buchberger(gens[:2], truncation=8, ring=R, base=base)
        assert _terms(extended) == _terms(buchberger(gens, truncation=8, ring=R))


def test_extension_refuses_a_base_of_another_ring():
    base = buchberger([ring(2, ("x", "y")).parse("x^2")], truncation=3)
    other = ring(3, ("x", "y"))
    with pytest.raises(ValueError, match="base and generators live in different rings"):
        buchberger([other.parse("y^3")], truncation=4, ring=other, base=base)
    with pytest.raises(ValueError, match="live in different rings"):
        buchberger([other.parse("y^3")], truncation=4, base=base)
    with pytest.raises(ValueError, match="base and generators live in different rings"):
        buchberger([], truncation=4, ring=other, base=base)


def test_extension_refuses_a_truncation_below_the_base():
    R = ring(2, ("x", "y"))
    base = buchberger([R.parse("x^2")], truncation=5)
    with pytest.raises(ValueError, match="truncation 4 below the base's truncation 5"):
        buchberger([R.parse("y^3")], truncation=4, base=base)


def test_extension_refuses_an_untruncated_base():
    R = ring(2, ("x", "y"))
    base = buchberger([R.parse("x^2")])
    with pytest.raises(ValueError, match="a base without truncation cannot be extended"):
        buchberger([R.parse("y^3")], truncation=4, base=base)


def test_spair_statistics_on_a_small_ideal():
    R = ring(2, ("x", "y", "z", "t"))
    gens = [R.parse("x*y"), R.parse("x*z"), R.parse("x*t+z*t")]
    scratch = buchberger(gens, truncation=4)
    assert scratch.stats == {"formed": 6, "product": 1, "chain": 1, "zero": 3, "settled": 0}
    base = buchberger(gens[:2], truncation=3)
    # the one pair of x*y and x*z has lcm x*y*z of weight 3 and reduces to zero
    assert base.stats == {"formed": 1, "product": 0, "chain": 0, "zero": 1, "settled": 0}
    extended = buchberger(gens[2:], truncation=4, base=base)
    assert extended.stats == {"formed": 5, "product": 1, "chain": 1, "zero": 2, "settled": 1}
    assert _terms(extended) == _terms(scratch)
