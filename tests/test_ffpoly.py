import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from naive_division import _order_key
from symfun_oracles import homogeneous_components

from exhopf.ffpoly import (
    EXPONENT_LIMIT,
    ExponentOverflow,
    ParseError,
    Polynomial,
    RingContext,
    RingMismatchError,
    add_into,
    inverse,
    mul_into,
    shift_into,
    parse,
    render,
    solve,
)
from exhopf.groebner import buchberger, normal_form


def ring(p=2, names=("w1", "w2"), weights=None):
    if weights is None:
        weights = (1,) * len(names)
    return RingContext(p, list(zip(names, weights)))


def test_prime_field_validation():
    assert RingContext(2, []).p == 2
    assert RingContext(251, []).p == 251
    for bad in (4, 1, 257, 3.0, "3"):
        with pytest.raises(ValueError):
            RingContext(bad, [])


def test_variable_weights_must_be_positive_ints():
    assert RingContext(2, [("x", 1), ("y", 2)]).weights == (1, 2)
    # a weight is never coerced: 1.5 would silently become 1, "2" become 2
    for bad in (0, -1, 1.5, 2.0, "2", True, None):
        with pytest.raises(ValueError, match="must be positive ints"):
            RingContext(2, [("x", 1), ("y", bad)])
    with pytest.raises(ValueError, match="unique"):
        RingContext(2, [("x", 1), ("x", 2)])


def test_field_canonical_residues():
    R = RingContext(5, [("x", 1)])
    assert R.constant(-1).terms == {R.key((0,)): 4}
    assert (-R.one()).terms == {R.key((0,)): 4}
    assert inverse(2, 5) == 3
    assert inverse(-1, 5) == 4
    assert all(a * inverse(a, 251) % 251 == 1 for a in range(1, 251))
    for zero in (0, 5, -10):
        with pytest.raises(ZeroDivisionError):
            inverse(zero, 5)


def test_additive_inverse_cancels():
    for p in (2, 3, 5):
        R = ring(p)
        f = R.parse("w2^3")
        assert (f + (p - 1) * f).is_zero()


def test_add_identity():
    R = ring(3, ("c4", "c6"), (4, 6))
    f = R.parse("c6^2+c4^3")
    assert f + R.zero() == f


def test_char2_addition():
    R = ring(2)
    f = R.parse("w1^2*w2")
    assert (f + f).is_zero()


def test_mul_g2_theta2():
    # w1 * (w1^2+w1*w2+w2^2) over F_2
    R = ring(2)
    theta2 = R.parse("w1^2+w1*w2+w2^2")
    prod = R.variable("w1") * theta2
    assert prod == R.parse("w1^3+w1^2*w2+w1*w2^2")


def test_mul_identity_and_degree():
    R = ring(5, ("c4",), (4,))
    f = R.parse("2*c4^3")
    assert f * R.one() == f
    g = R.variable("c4") * R.variable("c4")
    assert g == R.parse("c4^2")
    assert g.weight() == 8


def test_ring_mismatch():
    with pytest.raises(RingMismatchError):
        ring(2).one() + ring(3).one()


def test_equal_rings_built_apart_combine():
    R = ring(3, ("x", "y"), (1, 2))
    S = ring(3, ("x", "y"), (1, 2))
    assert R is not S
    assert R == S and hash(R) == hash(S)
    f = R.parse("x^2+y") * S.parse("x-y")
    assert f == S.parse("x^3+x*y-x^2*y-y^2")
    for other in (ring(3, ("x", "z"), (1, 2)), ring(3, ("x", "y"), (1, 1))):
        assert R != other
        with pytest.raises(RingMismatchError):
            R.variable("x") + other.variable("x")
        with pytest.raises(RingMismatchError):
            R.variable("x") * other.variable("x")


def test_weight_and_homogeneity():
    R = ring(2, ("w1", "w2", "c4"), (1, 1, 4))
    f = R.parse("w1^4+c4")
    assert f.is_homogeneous() and f.weight() == 4
    g = R.parse("w1+c4")
    assert not g.is_homogeneous()
    with pytest.raises(ValueError, match=r"not homogeneous \(weights \[1, 4\]\)"):
        g.weight()
    comps = homogeneous_components(g)
    assert set(comps) == {1, 4}


def test_substitute_is_ring_hom():
    R = ring(2, ("c7", "c8", "w2", "c4"), (7, 8, 1, 4))
    theta15 = R.parse("c7*c8+w2^7*c8+w2^3*c4*c8")
    T = ring(2, ("w2", "c4"), (1, 4))
    image = theta15.substitute(
        {"c7": T.zero(), "c8": T.zero(), "w2": T.variable("w2"), "c4": T.variable("c4")},
        target_ring=T,
    )
    assert image.is_zero()


def test_substitute_identity():
    R = ring(3, ("w1", "w2"))
    f = R.parse("w1^2+2*w1*w2")
    ident = {n: R.variable(n) for n in R.names}
    assert f.substitute(ident) == f


def test_substitute_errors():
    R = ring(2, ("w1", "w2"))
    f = R.parse("w1*w2")
    with pytest.raises(ValueError):
        f.substitute({"w1": R.variable("w1")})
    with pytest.raises(ValueError):
        # inhomogeneous image for a weight-1 variable
        f.substitute({"w1": R.parse("w1^2"), "w2": R.variable("w2")})


def test_renaming_substitution_checks_weights_and_maps_by_name():
    # a map sending each variable to zero or to a distinct target variable
    # re-keys the packed keys; it still refuses an image of another weight,
    # follows the target's names in whatever order they are declared, and
    # leaves a map that merges two variables to the general path
    R = ring(3, ("c2", "c3"), (2, 3))
    f = R.parse("c2*c3+c2^3")
    lighter = ring(3, ("c2", "c3"), (1, 3))
    with pytest.raises(ValueError, match="not homogeneous of weight 2"):
        f.substitute({n: lighter.variable(n) for n in R.names})
    reordered = ring(3, ("c3", "c2"), (3, 2))
    image = f.substitute({n: reordered.variable(n) for n in R.names})
    assert image == reordered.parse("c2*c3+c2^3")
    S, Z = ring(3, ("x", "y")), ring(3, ("z",))
    z = Z.variable("z")
    # x + 2y goes to 3z = 0, x^2 + xy to 2z^2: the coefficients add mod 3
    assert S.parse("x+2*y+x^2+x*y").substitute({"x": z, "y": z}) == Z.parse("2*z^2")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_matches_brute_force(p):
    # n <= 3 random sparse vectors with keys of mixed types; enumerating all
    # p^n combinations gives the span, the rank and every solution
    rng = random.Random(p)
    keys = [0, 1, "a", "b", (0, "c"), (1, 2)]

    def combination(vectors, c):
        acc = {}
        for vector, ci in zip(vectors, c):
            add_into(acc, vector, ci, p)
        return acc

    seen = set()
    for _ in range(200):
        n = rng.randint(0, 3)
        vectors = [
            {k: rng.randrange(1, p) for k in rng.sample(keys, rng.randint(0, 3))}
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            target = combination(vectors, [rng.randrange(p) for _ in range(n)])
        else:
            target = {k: rng.randrange(1, p) for k in rng.sample(keys, rng.randint(0, 2))}
        span = {}
        for c in product(range(p), repeat=n):
            span.setdefault(frozenset(combination(vectors, c).items()), []).append(list(c))
        rank = next(r for r in range(n + 1) if p**r == len(span))
        solutions = span.get(frozenset(target.items()), [])
        c, free = solve(vectors, target, p)
        assert free == n - rank
        if not solutions:
            assert c is None
            seen.add("outside the span")
        else:
            assert c in solutions and len(solutions) == p**free
            seen.add("unique" if free == 0 else "dependent")
    assert seen == {"unique", "outside the span", "dependent"}


def test_unknown_variable_names_raise_value_error():
    R = RingContext(3, [("x", 1)])
    with pytest.raises(ValueError, match="unknown variable 'zz'"):
        R.parse("x").substitute({"zz": R.variable("x")})
    with pytest.raises(ValueError, match="unknown variable 'zz'"):
        R.variable("zz")


def test_parse_render_examples():
    R = ring(2)
    assert render(R.parse("w2^3")) == "w2^3"
    S = ring(2, ("c4", "c6"), (4, 6))
    f = S.parse("c6^2+c4^3")
    assert render(f) == "c6^2+c4^3"
    assert S.parse("0").is_zero()
    assert render(S.zero()) == "0"


def test_render_minus_for_p_minus_one():
    R = ring(5, ("w2", "c2"), (1, 2))
    f = R.parse("-w2^2-c2")
    assert render(f) == "-c2-w2^2"  # c2 is the later (larger) variable
    assert parse(render(f), R) == f
    g = R.parse("2*w2^2+3*c2")
    assert render(g) == "3*c2+2*w2^2"
    assert R.parse("4*c2") == R.parse("-c2")
    assert render(R.parse("4*c2")) == "-c2"


def test_parse_sign_forms():
    R = ring(5, ("c2",), (2,))
    assert R.parse("-1*c2") == R.parse("-c2")
    assert R.parse("-1") == R.constant(4)
    assert render(R.constant(4)) == "-1"


def test_parse_errors_have_positions():
    R = ring(2)
    with pytest.raises(ParseError):
        R.parse("w1^")
    with pytest.raises(ParseError):
        R.parse("w9+w1")
    with pytest.raises(ParseError):
        R.parse("w1++w2")


def test_descending_term_order():
    R = ring(2, ("w1", "w2", "w3"))
    f = R.parse("w1*w3+w2^2+w1^2")
    # grevlex with w1 < w2 < w3: the smallest variable is compared first,
    # so w2^2 beats w1*w3 at equal weight (reverse-lex, not plain lex)
    assert render(f) == "w2^2+w1*w3+w1^2"


def test_monomial_order_respects_weights():
    R = ring(2, ("w1", "c4"), (1, 4))
    f = R.parse("w1^3+c4")
    assert render(f) == "c4+w1^3"  # weight 4 > weight 3


# -- property tests ------------------------------------------------------

fields = st.sampled_from([2, 3, 5])


@st.composite
def ring_and_polys(draw, count=2, max_vars=6, max_weight=12):
    p = draw(fields)
    nvars = draw(st.integers(1, max_vars))
    R = RingContext(p, [(f"x{i+1}", 1) for i in range(nvars)])
    polys = []
    for _ in range(count):
        nterms = draw(st.integers(0, 5))
        terms = []
        for _ in range(nterms):
            mon = tuple(
                draw(st.integers(0, max(0, max_weight // nvars))) for _ in range(nvars)
            )
            terms.append((mon, draw(st.integers(1, p - 1)) if p > 2 else 1))
        polys.append(R.from_terms(terms))
    return (R, *polys)


@st.composite
def monomial_pairs(draw, max_vars=8):
    """Random weights (0 variables included) with two monomials whose
    product stays below weight 2^15."""
    weights = draw(st.lists(st.integers(1, 9), min_size=0, max_size=max_vars))
    top = (EXPONENT_LIMIT - 1) // (2 * max(1, sum(weights)))
    exps = st.tuples(*[st.integers(0, top) for _ in weights])
    return weights, draw(exps), draw(exps)


@settings(max_examples=200, deadline=None)
@given(monomial_pairs())
def test_monomial_kernel_matches_elementwise_definitions(data):
    weights, m1, m2 = data
    R = RingContext(3, [(f"v{i}", w) for i, w in enumerate(weights)])
    prod = tuple(a + b for a, b in zip(m1, m2))
    k1, k2, kp = R.key(m1), R.key(m2), R.key(prod)
    assert kp == k1 + k2
    for m, k in ((m1, k1), (m2, k2), (prod, kp)):
        assert R.exponents(k) == m
        assert R.wdeg(k) == sum(e * w for e, w in zip(m, weights))
    assert R.mon_divides(k1, k2) == all(a <= b for a, b in zip(m1, m2))
    assert R.mon_divides(k2, kp) and R.mon_divides(k1, kp)
    assert R.exponents(R.mon_lcm(k1, k2)) == tuple(max(a, b) for a, b in zip(m1, m2))
    assert R.key((0,) * len(weights)) == 0


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 9), min_size=0, max_size=6), st.data())
def test_order_key_matches_naive_order(weights, data):
    R = RingContext(3, [(f"v{i}", w) for i, w in enumerate(weights)])
    exps = st.tuples(*[st.integers(0, 5) for _ in weights])
    mons = data.draw(st.lists(exps, min_size=1, max_size=30, unique=True))
    by_key = sorted(mons, key=lambda m: R.order_key(R.key(m)))
    assert by_key == sorted(mons, key=lambda m: _order_key(m, R.weights))


def test_exponent_at_limit_is_refused_at_every_entry():
    R = ring(3, ("x", "y"), (1, 2))
    for exps in ((EXPONENT_LIMIT, 0), (0, EXPONENT_LIMIT // 2)):
        with pytest.raises(ExponentOverflow):
            R.monomial(exps)
        with pytest.raises(ExponentOverflow):
            R.from_terms([((1, 0), 1), (exps, 2)])
    with pytest.raises(ExponentOverflow):
        R.parse(f"x*y+x^{EXPONENT_LIMIT}")
    with pytest.raises(ExponentOverflow):
        R.parse(f"y^{EXPONENT_LIMIT // 2}")
    with pytest.raises(ExponentOverflow):
        R.key((EXPONENT_LIMIT - 1, 1))


def test_negative_or_misshapen_exponents_are_value_errors():
    R = ring(3, ("x", "y"))
    for exps in ((-1, 0), (0, -3), (1,), (1, 2, 3)):
        for build in (R.key, R.monomial, lambda e: R.from_terms([(e, 1)])):
            with pytest.raises(ValueError) as info:
                build(exps)
            assert not isinstance(info.value, ExponentOverflow)


def test_product_weight_at_limit_overflows():
    R = ring(2, ("x", "y"))
    half = 1 << 14
    x = R.variable("x")
    with pytest.raises(ExponentOverflow):
        x ** half * x ** half
    with pytest.raises(ExponentOverflow):
        R.monomial((half, 0)) * R.monomial((0, half))
    with pytest.raises(ExponentOverflow):
        (x + R.variable("y")) ** (2 * half)
    # one below the limit still multiplies, and still divides
    f = R.monomial((half - 1, 0)) * R.monomial((half, 0))
    assert f == R.monomial((EXPONENT_LIMIT - 1, 0))
    assert R.exponents(f.leading_monomial()) == (EXPONENT_LIMIT - 1, 0)
    g = R.monomial((0, half - 1)) * R.monomial((0, half))
    gb = buchberger([R.parse("x+y")], ring=R)
    assert normal_form(g, gb).remainder == f
    assert normal_form(f, gb).remainder == f


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=3))
def test_ring_axioms(data):
    R, f, g, h = data
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=2))
def test_frobenius(data):
    R, f, g = data
    p = R.p
    assert (f + g) ** p == f ** p + g ** p


@settings(max_examples=40, deadline=None)
@given(ring_and_polys(count=2))
def test_weight_additive_on_product(data):
    R, f, g = data
    if f.is_zero() or g.is_zero():
        return
    fw = max(R.wdeg(m) for m in f.terms)
    ftop = Polynomial(R, {m: c for m, c in f.terms.items() if R.wdeg(m) == fw})
    gw = max(R.wdeg(m) for m in g.terms)
    gtop = Polynomial(R, {m: c for m, c in g.terms.items() if R.wdeg(m) == gw})
    prod = ftop * gtop
    if not prod.is_zero():
        assert prod.weight() == fw + gw


@settings(max_examples=60, deadline=None)
@given(ring_and_polys(count=1))
def test_parse_render_round_trip(data):
    R, f = data
    assert parse(render(f), R) == f


# -- the product kernel against a tuple-keyed product ------------------------


def naive_product(a, b, c, p):
    """c * a * b on dicts keyed by exponent tuples, zeros dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = (out.get(m, 0) + c * c1 * c2) % p
    return {m: v for m, v in out.items() if v}


@st.composite
def kernel_operands(draw):
    """A ring of 0-4 variables with random weights and three tuple-keyed
    term dicts: two factors and a preload for `acc`."""
    p = draw(fields)
    weights = draw(st.lists(st.integers(1, 9), min_size=0, max_size=4))
    R = RingContext(p, [(f"v{i}", w) for i, w in enumerate(weights)])
    exps = st.tuples(*[st.integers(0, 4) for _ in weights])
    a, b, pre = (
        draw(st.dictionaries(exps, st.integers(1, p - 1), max_size=5)) for _ in range(3)
    )
    return R, a, b, pre, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(kernel_operands())
def test_mul_into_matches_tuple_keyed_product(data):
    R, a, b, pre, cancel = data
    p = R.p

    def keyed(terms):
        return {R.key(m): v for m, v in terms.items()}

    for c in range(p):
        want = naive_product(a, b, c, p)
        start = dict(pre)
        if cancel:
            # preload -c*a*b, so the product cancels to zero mod p
            for m, v in want.items():
                start[m] = (start.get(m, 0) - v) % p
            start = {m: v for m, v in start.items() if v}
        for m, v in start.items():
            want[m] = (want.get(m, 0) + v) % p
        want = {R.key(m): v for m, v in want.items() if v}
        acc = keyed(start)
        out = mul_into(acc, keyed(a), keyed(b), c, p)
        assert out is acc
        assert out == want
        assert 0 not in out.values()
    product = Polynomial(R, keyed(a)) * Polynomial(R, keyed(b))
    assert product.terms == mul_into({}, keyed(a), keyed(b), 1, p)


@settings(max_examples=100, deadline=None)
@given(kernel_operands(), st.integers(-12, 12))
def test_shift_into_is_mul_into_by_one_term(data, c):
    # the one-term product step (the Wu resultant's, and the loop inside
    # `mul_into`): acc += c x^key terms, for any int c, equal to the
    # tuple-keyed product, and to `mul_into` with the first factor {key: 1}
    # term for term and in the same insertion order
    R, a, b, pre, _ = data
    p = R.p
    keyed = {R.key(m): v for m, v in b.items()}
    for mon in a or [(0,) * R.nvars]:
        key = R.key(mon)
        want = mul_into({R.key(m): v for m, v in pre.items()}, {key: 1}, keyed, c, p)
        acc = {R.key(m): v for m, v in pre.items()}
        out = shift_into(acc, key, c, keyed, p)
        assert out is acc
        assert list(out.items()) == list(want.items())
        naive = naive_product({mon: 1}, b, c, p)
        for m, v in pre.items():
            naive[m] = (naive.get(m, 0) + v) % p
        assert out == {R.key(m): v for m, v in naive.items() if v}


def test_mul_into_cancellation_mod_p():
    # (x + y)^2 = x^2 + y^2 over F_2: the two cross terms cancel inside the loop
    R = ring(2, ("x", "y"))
    s = (R.variable("x") + R.variable("y")).terms
    assert mul_into({}, s, s, 1, 2) == R.parse("x^2+y^2").terms
    # (x + y)(x - y) at p = 3, preloaded with y^2 - x^2: everything cancels
    R = ring(3, ("x", "y"))
    x, y = R.variable("x"), R.variable("y")
    acc = (y * y - x * x).terms.copy()
    assert mul_into(acc, (x + y).terms, (x - y).terms, 1, 3) == {}
    # the zero scalar leaves acc as it was
    acc = {R.key((1, 0)): 2}
    assert mul_into(acc, (x + y).terms, (x - y).terms, 3, 3) == {R.key((1, 0)): 2}
