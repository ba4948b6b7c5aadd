import random

import pytest
from naive_division import naive_reduce

from exhopf import bst, groebner, liedata, steenrod
from exhopf.ffpoly import PrimeField, RingContext, render
from exhopf.groebner import (
    Ambiguous,
    DegenerateBasis,
    GroebnerBasis,
    GroebnerError,
    NoSolution,
    buchberger,
    normal_form,
    solve_linear_coefficient,
)


def ring(p=2, names=("w1", "w2"), weights=None, precedence=None):
    if weights is None:
        weights = (1,) * len(names)
    return RingContext(PrimeField(p), list(zip(names, weights)), precedence)


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
    assert solve_linear_coefficient(lhs, theta3, gb) == 1
    # Eq (2.4) witness: the residue of lhs - theta_3 is zero
    assert normal_form(lhs - theta3, gb).remainder.is_zero()
    assert not normal_form(theta3, gb).remainder.is_zero()


def test_solve_zero_lhs():
    R = ring(3, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=4)
    pivot = R.parse("y^2")
    assert solve_linear_coefficient(R.zero(), pivot, gb) == 0


def test_solve_ambiguous_and_nosolution():
    R = ring(3, ("x", "y"))
    gb = buchberger([R.parse("x^2")], truncation=4)
    inside = R.parse("x^2*y")  # pivot in the ideal
    with pytest.raises(Ambiguous):
        solve_linear_coefficient(R.parse("x^3*y") - R.parse("x^3*y"), inside, gb)
    with pytest.raises(NoSolution):
        solve_linear_coefficient(R.parse("y^3"), inside, gb)
    with pytest.raises(NoSolution):
        # residues not proportional
        solve_linear_coefficient(R.parse("y^3"), R.parse("x*y^2"), gb)


def test_nf_idempotent_and_fixed_points():
    R = ring(2, ("x", "y", "z"))
    gens = [R.parse("x^2+y*z"), R.parse("x*y+z^2")]
    gb = buchberger(gens, truncation=6)
    f = R.parse("x^2*z+y^3+x*y*z")
    r = normal_form(f, gb).remainder
    assert normal_form(r, gb).remainder == r
    for g in gens:
        assert normal_form(g, gb).remainder.is_zero()


def test_quotients_reassemble():
    R = ring(5, ("x", "y"))
    gens = [R.parse("x^2+y^2"), R.parse("x*y")]
    gb = buchberger(gens, truncation=6)
    f = R.parse("x^4+2*x^3*y+3*x^2*y^2")
    res = normal_form(f, gb, with_quotients=True)
    total = res.remainder
    for q, b in zip(res.quotients, gb.basis):
        total = total + q * b
    assert total == f


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
    with pytest.raises(ValueError):
        normal_form(R.parse("x^4"), gb)


def test_determinism():
    R = ring(3, ("x", "y", "z"))
    gens = [R.parse("x^2+y*z"), R.parse("y^2+2*x*z"), R.parse("z^2+x*y")]
    a = buchberger(gens, truncation=8)
    b = buchberger(gens, truncation=8)
    assert [render(f) for f in a.basis] == [render(f) for f in b.basis]


def test_solve_independent_of_precedence():
    # the same linear coefficient under two precedence permutations
    for prec in [None, (1, 0)]:
        R = ring(2, ("w1", "w2"), precedence=prec)
        theta2 = R.parse("w1^2+w1*w2+w2^2")
        theta3 = R.parse("w2^3")
        gb = buchberger([theta2], truncation=3)
        lhs = R.parse("w1^2*w2+w1*w2^2")
        assert solve_linear_coefficient(lhs, theta3, gb) == 1


def _random_homogeneous(R, weight, rng, density=0.5):
    p = R.field.p
    terms = {m: rng.randrange(1, p) for m in _monomials(R, weight) if rng.random() < density}
    return R.from_terms(terms.items())


def _assert_matches_oracle(f, gb):
    res = normal_form(f, gb, with_quotients=True)
    rem, quotients = naive_reduce(f.terms, gb.basis, gb.ring)
    # same terms in the same (descending) insertion order
    assert list(res.remainder.terms.items()) == list(rem.items())
    assert [list(q.terms.items()) for q in res.quotients] == [list(q.items()) for q in quotients]


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
        rem = groebner._reduce_terms(f.terms, divisors, [g.leading_monomial() for g in divisors], R)
        assert list(rem.items()) == list(naive_reduce(f.terms, divisors, R)[0].items())


def test_heap_division_matches_rescan_oracle_e6_method1():
    prof = liedata.profile("E6", 2)
    ts = liedata.theta_set("E6", 2)
    ctx = bst._weight_ctx("E6", 2)
    for s, t, k in bst.admissible_pairs(prof):
        if k >= s:
            continue
        gb = bst._gb_method1("E6", 2, t)
        _assert_matches_oracle(steenrod.power(k, ts.omega(s), ctx), gb)


@pytest.mark.parametrize("precedence", [None, (3, 1, 0, 2)])
def test_descending_key_reverses_order_key(precedence):
    rng = random.Random(11)
    R = ring(3, ("a", "b", "c", "d"), weights=(1, 2, 2, 3), precedence=precedence)
    mons = list({tuple(rng.randrange(4) for _ in range(4)) for _ in range(300)})
    rng.shuffle(mons)
    assert sorted(mons, key=R.descending_key) == sorted(mons, key=R.order_key, reverse=True)


def test_degenerate_basis_is_a_typed_error(monkeypatch):
    R = ring(2, ("x", "y"))
    gens = [R.parse("x^2+y^2"), R.parse("x*y")]
    monkeypatch.setattr(groebner, "_reduce_terms", lambda terms, *args, **kwargs: {})
    with pytest.raises(DegenerateBasis) as info:
        groebner._finalize(R, gens, None, [g.monic() for g in gens],
                           [g.leading_monomial() for g in gens])
    assert isinstance(info.value, GroebnerError)
