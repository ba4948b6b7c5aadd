from fractions import Fraction
from itertools import product

import pytest

from closed_forms import closed_form, remark52_table
from exhopf import symfun
from exhopf.ffpoly import render
from exhopf.symfun import (
    EliminationError,
    NotSymmetricError,
    SymContext,
    as_partition,
    conjugate,
    elementary,
    embed_c_poly,
    kostka_inverse,
    kostka_matrix,
    kostka_number,
    monomial_symmetric_t,
    m_to_e,
    partitions_of,
    rewrite_in_elementary,
    schur_giambelli,
    steenrod_elementary_component,
    wu_formula,
)


def c_to_t(f, ctx):
    """Oracle substitution: evaluate a c-polynomial at c_i = e_i(t)."""
    mapping = {f"c{i}": elementary(i, ctx) for i in range(1, ctx.n + 1)}
    return f.substitute(mapping, target_ring=ctx.t_ring)


def test_conjugate_involution():
    for n in range(7):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_elementary_edges():
    ctx = SymContext(3, 3)
    assert elementary(0, ctx) == ctx.t_ring.one()
    assert elementary(3, ctx) == ctx.t_ring.parse("t1*t2*t3")
    assert elementary(2, ctx) == ctx.t_ring.parse("t1*t2+t1*t3+t2*t3")
    with pytest.raises(ValueError):
        elementary(4, ctx)


def test_rewrite_elementary_is_ck():
    ctx = SymContext(5, 4)
    for k in range(1, 5):
        assert rewrite_in_elementary(elementary(k, ctx), ctx) == ctx.c_ring.variable(
            f"c{k}"
        )


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (5, 4)])
def test_rewrite_power_sum(p, n):
    # sum t_i^2 -> c1^2 - 2 c2, cross-checked by expanding both sides
    ctx = SymContext(p, n)
    f = monomial_symmetric_t((2,), ctx)
    g = rewrite_in_elementary(f, ctx)
    expected = ctx.c_ring.parse("c1^2") - 2 * ctx.c_ring.parse("c2")
    assert g == expected
    assert c_to_t(g, ctx) == f


@pytest.mark.parametrize("n", [3, 4])
def test_rewrite_m21(n):
    # sum_{i!=j} t_i^2 t_j -> c1 c2 - 3 c3, same oracle
    ctx = SymContext(5, n)
    f = monomial_symmetric_t((2, 1), ctx)
    g = rewrite_in_elementary(f, ctx)
    expected = ctx.c_ring.parse("c1*c2") - 3 * ctx.c_ring.parse("c3")
    assert g == expected
    assert c_to_t(g, ctx) == f


def test_rewrite_rejects_asymmetric():
    ctx = SymContext(3, 3)
    with pytest.raises(NotSymmetricError):
        rewrite_in_elementary(ctx.t_ring.parse("t1^2+t2*t3"), ctx)


def test_schur_single_column_and_row():
    ctx = SymContext(7, 6)
    for m in range(1, 6):
        assert schur_giambelli((1,) * m, ctx) == ctx.c_ring.variable(f"c{m}")
    s2 = schur_giambelli((2,), ctx)
    assert s2 == ctx.c_ring.parse("c1^2-c2")
    # cross-check by expanding s_(2) = sum t_i^2 + sum_{i<j} t_i t_j
    expected = monomial_symmetric_t((2,), ctx) + monomial_symmetric_t((1, 1), ctx)
    assert c_to_t(s2, ctx) == expected


def test_schur_matches_kostka_m_expansion():
    # det route vs tableau route for all partitions of 4
    ctx = SymContext(7, 4)
    for lam in partitions_of(4):
        det = c_to_t(schur_giambelli(lam, ctx), ctx)
        viaK = ctx.t_ring.zero()
        for mu in partitions_of(4):
            k = kostka_number(lam, mu)
            if k:
                viaK = viaK + k * monomial_symmetric_t(mu, ctx)
        assert det == viaK, lam


def brute_force_ssyt(lam, mu):
    """Enumerate semistandard tableaux directly (tiny shapes only)."""
    cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
    content = []
    for letter, mult in enumerate(mu, start=1):
        content.extend([letter] * mult)
    count = 0
    seen = set()

    def fill(assignment):
        nonlocal count
        if len(assignment) == len(cells):
            key = tuple(assignment)
            if key not in seen:
                seen.add(key)
                count += 1
            return
        idx = len(assignment)
        i, j = cells[idx]
        for letter in sorted(set(remaining[idx])):
            if j > 0 and assignment[idx - 1] > letter:
                continue
            above = None
            if i > 0:
                above_idx = cells.index((i - 1, j))
                above = assignment[above_idx]
            if above is not None and above >= letter:
                continue
            remaining_next = remaining[idx][:]
            remaining_next.remove(letter)
            remaining[idx + 1] = remaining_next
            fill(assignment + [letter])

    remaining = [None] * (len(cells) + 1)
    remaining[0] = content
    fill([])
    return count


@pytest.mark.parametrize(
    "lam,mu",
    [((2, 1), (1, 1, 1)), ((2, 2), (2, 1, 1)), ((3, 1), (2, 2)), ((2, 1, 1), (1, 1, 1, 1))],
)
def test_kostka_against_brute_force(lam, mu):
    assert kostka_number(lam, mu) == brute_force_ssyt(lam, mu)


def test_kostka_unitriangular_and_inverse():
    parts, K = kostka_matrix(4)
    for i, lam in enumerate(parts):
        assert kostka_inverse(lam, lam) == 1
    # K * K^-1 = identity, exact over the rationals (integers here)
    size = len(parts)
    X = [[kostka_inverse(parts[i], parts[j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            s = sum(Fraction(K[i][k]) * X[k][j] for k in range(size))
            assert s == (1 if i == j else 0)


def test_inverse_kostka_remark_fixture():
    # coefficient of s_(1^{m+2}) in P^1 c_m at p=3 is m
    for m in range(1, 7):
        mu = as_partition((3,) + (1,) * (m - 1))
        lam = (1,) * (m + 2)
        assert kostka_inverse(mu, lam) == m


def test_wu_p2_r1_m2():
    f = wu_formula(2, 1, 2)
    assert f == f.ring.parse("c1*c2+c3")


def test_wu_k0_identity():
    for p, m in [(2, 3), (3, 4), (5, 2)]:
        f = wu_formula(p, 0, m)
        assert f == f.ring.variable(f"c{m}")


def test_wu_above_weight_vanishes():
    assert wu_formula(3, 5, 4).is_zero()


@pytest.mark.parametrize("m", range(1, 9))
def test_wu_p3_k1_closed_form(m):
    f = wu_formula(3, 1, m)
    assert f == closed_form(3, 1, m, f.ring)


def test_wu_total_operation_route():
    # fully independent route: substitute t -> t + t^p into e_m, take the
    # graded component, and rewrite; must agree with the generator at two
    # different variable counts (stability).
    for p, k, m in [(2, 1, 2), (2, 2, 3), (3, 1, 3), (3, 2, 2), (5, 1, 2)]:
        base = m + k * (p - 1)
        results = []
        for n in (base, base + 1):
            ctx = SymContext(p, n)
            total_map = {
                f"t{i}": ctx.t_ring.variable(f"t{i}")
                + ctx.t_ring.variable(f"t{i}") ** p
                for i in range(1, n + 1)
            }
            total = elementary(m, ctx).substitute(total_map, target_ring=ctx.t_ring, check_weights=False)
            comp = total.homogeneous_components().get(base, ctx.t_ring.zero())
            results.append(rewrite_in_elementary(comp, ctx))
        wide = results[1].ring
        assert embed_c_poly(results[0], wide) == results[1]
        generated = wu_formula(p, k, m)
        assert embed_c_poly(generated, wide) == results[1]


def test_steenrod_component_is_monomial_orbit():
    ctx = SymContext(3, 5)
    comp = steenrod_elementary_component(3, 1, 3)
    [(lam, coeff)] = comp.items()
    assert coeff == 1
    assert monomial_symmetric_t(lam, ctx) == monomial_symmetric_t((3, 1, 1), ctx)


def test_wu_cartan_coherence():
    # P^k(e_a e_b) in the t-ring equals the Cartan sum of rewritten pieces
    for p, a, b, k in [(2, 1, 2, 1), (3, 2, 2, 1), (3, 1, 3, 2), (5, 1, 2, 1)]:
        n = a + b + k * (p - 1)
        ctx = SymContext(p, n)
        total_map = {
            f"t{i}": ctx.t_ring.variable(f"t{i}") + ctx.t_ring.variable(f"t{i}") ** p
            for i in range(1, n + 1)
        }
        prod = elementary(a, ctx) * elementary(b, ctx)
        total = prod.substitute(total_map, target_ring=ctx.t_ring, check_weights=False)
        lhs_t = total.homogeneous_components().get(
            a + b + k * (p - 1), ctx.t_ring.zero()
        )
        lhs = rewrite_in_elementary(lhs_t, ctx)
        rhs = ctx.c_ring.zero()
        for i in range(k + 1):
            left = wu_formula(p, i, a) if i <= a else None
            right = wu_formula(p, k - i, b) if k - i <= b else None
            if left is None or right is None:
                continue
            rhs = rhs + embed_c_poly(left, ctx.c_ring) * embed_c_poly(
                right, ctx.c_ring
            )
        assert lhs == rhs, (p, a, b, k)


def test_remark52_schur_coefficients_small():
    # spot-check the printed coefficient lists (full sweep in acceptance)
    for p, k, m in [(3, 1, 4), (3, 2, 3), (5, 1, 3)]:
        mu = as_partition((p,) * k + (1,) * (m - k))
        table = {}
        for lam, coeff in remark52_table(p, k, m):
            if lam is not None and coeff:
                table[lam] = table.get(lam, 0) + coeff
        nonzero = {}
        for lam in partitions_of(m + k * (p - 1)):
            v = kostka_inverse(mu, lam)
            if v:
                nonzero[lam] = v
        assert nonzero == {k_: v for k_, v in table.items() if v}


def test_m_to_e_round_trip():
    # e-expansion evaluated back in t-variables reproduces the m-function
    ctx = SymContext(3, 5)
    for lam in [(2, 2), (3, 1, 1), (2, 1, 1, 1)]:
        mdict = {as_partition(lam): 1}
        edict = m_to_e(mdict)
        total = ctx.t_ring.zero()
        for mu, coeff in edict.items():
            term = ctx.t_ring.constant(coeff % 3)
            for i in mu:
                term = term * elementary(i, ctx)
            total = total + term
        assert total == monomial_symmetric_t(lam, ctx)


def test_m_to_e_uncancelled_leading_term_is_a_typed_error(monkeypatch):
    # an e-expansion without the unit leading coefficient cannot kill m_lam
    monkeypatch.setattr(symfun, "_e_product_mexp", lambda mu: {})
    with pytest.raises(EliminationError):
        m_to_e({(2, 1): 1})
