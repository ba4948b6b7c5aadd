from fractions import Fraction

import pytest

from closed_forms import closed_form, remark52_table
from exhopf import liedata, symfun
from exhopf.ffpoly import EXPONENT_LIMIT, ExponentOverflow, RingContext
from exhopf.symfun import wu_formula
import symfun_oracles
from symfun_oracles import (
    EliminationError,
    KostkaTriangularityError,
    NotSymmetricError,
    SymContext,
    as_partition,
    conjugate,
    elementary,
    embed_c_poly,
    homogeneous_components,
    kostka_inverse,
    kostka_matrix,
    kostka_number,
    m_to_e,
    monomial_symmetric_t,
    partitions_of,
    rewrite_in_elementary,
    schur_giambelli,
    steenrod_elementary_component,
    total_steenrod,
    wu_formula_by_elimination,
)


def wu(p, k, m, n=None):
    """P^k c_m in F_p[c_1..c_n], the cohomology of BU(n); n defaults to the
    stable m + k(p-1)."""
    if n is None:
        n = m + k * (p - 1)
    return wu_formula(k, m, RingContext(p, [(f"c{i}", i) for i in range(1, n + 1)]))


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
    f = wu(2, 1, 2)
    assert f == f.ring.parse("c1*c2+c3")


def test_wu_k0_identity():
    for p, m in [(2, 3), (3, 4), (5, 2)]:
        f = wu(p, 0, m)
        assert f == f.ring.variable(f"c{m}")


def test_wu_above_weight_vanishes():
    assert wu(3, 5, 4).is_zero()


@pytest.mark.parametrize("m", range(1, 9))
def test_wu_p3_k1_closed_form(m):
    f = wu(3, 1, m)
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
            total = total_steenrod(elementary(m, ctx))
            comp = homogeneous_components(total).get(base, ctx.t_ring.zero())
            results.append(rewrite_in_elementary(comp, ctx))
        wide = results[1].ring
        assert embed_c_poly(results[0], wide) == results[1]
        generated = wu(p, k, m)
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
        total = total_steenrod(elementary(a, ctx) * elementary(b, ctx))
        lhs_t = homogeneous_components(total).get(
            a + b + k * (p - 1), ctx.t_ring.zero()
        )
        lhs = rewrite_in_elementary(lhs_t, ctx)
        rhs = ctx.c_ring.zero()
        for i in range(k + 1):
            left = wu(p, i, a) if i <= a else None
            right = wu(p, k - i, b) if k - i <= b else None
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
    monkeypatch.setattr(symfun_oracles, "_e_product_mexp", lambda mu, n=None: {})
    with pytest.raises(EliminationError):
        m_to_e({(2, 1): 1})


def drop_high_chern(f, n):
    """Oracle truncation: c_j -> 0 for j > n, into the c-ring of n variables."""
    target = SymContext(f.ring.p, n).c_ring
    mapping = {
        name: target.zero() if int(name[1:]) > n else target.variable(name)
        for name in f.ring.names
    }
    return f.substitute(mapping, target_ring=target)


def check_truncated_wu(p, max_degree):
    for m in range(1, 9):
        for k in range(m + 1):
            top = m + k * (p - 1)
            if top > max_degree:
                continue
            stable = wu(p, k, m)
            for n in range(m, top + 1):
                assert wu(p, k, m, n) == drop_high_chern(stable, n), (p, k, m, n)


@pytest.mark.parametrize("p,max_degree", [(2, 16), (3, 24), (5, 16)])
def test_truncated_wu_equals_stable_with_high_chern_zero(p, max_degree):
    # every n from m to the stable m + k(p-1), for m <= 8 and k <= m; the
    # p = 5 formulas of degree above 16 are in the slow tier
    check_truncated_wu(p, max_degree)


@pytest.mark.slow
def test_truncated_wu_equals_stable_p5_heavy():
    # degrees 17..24 over every n, then every (k, m) over the Chern ranks
    # n <= 8 that the restricted rings use (stable degrees up to 40)
    check_truncated_wu(5, 24)
    for m in range(1, 9):
        for k in range(m + 1):
            if m + 4 * k <= 24:
                continue
            stable = wu(5, k, m)
            for n in range(m, 9):
                assert wu(5, k, m, n) == drop_high_chern(stable, n), (k, m, n)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_wu_resultant_matches_elimination_oracle(p):
    # every P^k c_m in n <= 8 variables, and one stable formula beyond them;
    # a wrong sign in f or in a cofactor cannot show at p = 2, where -1 = 1
    cases = [(k, m, n) for n in range(1, 9) for m in range(1, n + 1) for k in range(m + 1)]
    cases.append({2: (6, 8, None), 3: (5, 7, None), 5: (2, 3, None)}[p])
    for k, m, n in cases:
        assert wu(p, k, m, n) == wu_formula_by_elimination(p, k, m, n), (k, m, n)


def test_wu_needs_at_least_m_variables():
    # the ring must hold c_m: BU(3) has no c_4, the restricted ring no c_1
    with pytest.raises(ValueError):
        wu(3, 1, 4, n=3)
    assert wu(3, 1, 4, n=4) == drop_high_chern(wu(3, 1, 4), 4)
    with pytest.raises(ValueError):
        wu_formula(1, 1, liedata.restricted_ring("E8", 2))


@pytest.mark.parametrize(
    "variables,m",
    [
        ([("c1", 1), ("cx", 2)], 1),
        ([("c1", 1), ("c3", 2)], 3),
        ([("v1", 1), ("c2", 2)], 2),
    ],
    ids=["cx", "c3-of-weight-2", "v1"],
)
def test_wu_table_refuses_variables_other_than_chern_classes(variables, m):
    # beside Chern classes a weight-1 variable must say what c_1 is: `c1`,
    # or the distinguished `w<r>` with c_1 = 3 w<r>
    with pytest.raises(ValueError):
        wu_formula(1, m, RingContext(3, variables))


CHERN_PAIRS = [pair for pair in liedata.SUPPORTED_PAIRS if pair[0] != "G2"]


@pytest.mark.parametrize("group,p", CHERN_PAIRS)
def test_wu_on_generator_matches_stable_route(group, p):
    # every P^k c_m of the restricted ring F_p[c_2..c_N], read off its own
    # resultant, against the BU(N) formula with c_1 = 0 substituted
    ring = liedata.restricted_ring(group, p)
    n = max(ring.weights)
    kill = {
        f"c{i}": ring.variable(f"c{i}") if i > 1 else ring.zero() for i in range(1, n + 1)
    }
    for m in range(2, n + 1):
        for k in range(m + 1):
            expected = wu(p, k, m, n).substitute(kill, target_ring=ring)
            assert wu_formula(k, m, ring) == expected, (k, m)


@pytest.mark.parametrize("group,p", CHERN_PAIRS)
def test_c1_is_three_times_the_distinguished_weight(group, p):
    # the Chern forms of `liedata.chern_substitution` sum to 3 omega_r, the
    # image of c_1 that the mixed ring F_p[omega_r, c_2..c_N] declares
    r = liedata.DISTINGUISHED[group]
    omega = liedata.weight_ring(group, p).variable(f"w{r}")
    assert liedata.chern_poly(group, p, 1) == 3 * omega
    assert liedata.mixed_ring(group, p).names[0] == f"w{r}"


@pytest.mark.parametrize("group,p", CHERN_PAIRS)
def test_wu_on_the_mixed_ring_matches_stable_route(group, p):
    # every P^k c_m of the mixed ring F_p[omega_r, c_2..c_N], read off its own
    # resultant, against the BU(N) formula with c_1 = 3 omega_r substituted
    ring = liedata.mixed_ring(group, p)
    n = max(ring.weights)
    omega = ring.variable(ring.names[0])
    image = {f"c{i}": ring.variable(f"c{i}") if i > 1 else 3 * omega for i in range(1, n + 1)}
    for m in range(2, n + 1):
        for k in range(m + 1):
            expected = wu(p, k, m, n).substitute(image, target_ring=ring)
            assert wu_formula(k, m, ring) == expected, (k, m)


def test_non_triangular_kostka_matrix_is_a_typed_error(monkeypatch):
    # the uncached builder, so the cached matrices stay untouched
    build = symfun_oracles._kostka_inverse_data.__wrapped__
    monkeypatch.setattr(
        symfun_oracles, "kostka_number", lambda lam, mu: 2 if lam == mu else 0
    )
    with pytest.raises(KostkaTriangularityError):
        build(3)
    monkeypatch.setattr(symfun_oracles, "kostka_number", lambda lam, mu: 1)
    with pytest.raises(KostkaTriangularityError):
        build(3)


def test_wu_formula_refuses_weight_2_to_15_before_building():
    # P^m c_m weighs m p; the check comes before the table of the ring, which
    # would reduce s^q for every q up to m + p, is built
    m = -(-EXPONENT_LIMIT // 5)
    built = symfun._wu_table.cache_info().misses
    for variables in ([(f"c{m}", m)], [("c1", 1), (f"c{m}", m)]):
        with pytest.raises(ExponentOverflow):
            wu_formula(m, m, RingContext(5, variables))
    assert symfun._wu_table.cache_info().misses == built


def _wu_test_rings():
    """BU(n) for n <= 8 at p = 2, 3, 5, and the restricted and mixed rings
    of the nine Chern pairs."""
    rings = [
        RingContext(p, [(f"c{i}", i) for i in range(1, n + 1)])
        for p in (2, 3, 5) for n in range(1, 9)
    ]
    for group, p in CHERN_PAIRS:
        rings += [liedata.restricted_ring(group, p), liedata.mixed_ring(group, p)]
    return rings


def test_every_resultant_entry_term_is_one_chern_class():
    # the precondition of the flat kernel: the a^i b^j coefficient of entry
    # (row, col) is one c_l, l = row - col + i + jp, by homogeneity
    for ring in _wu_test_rings():
        table = symfun.WuTable(ring)
        p, forms = ring.p, {0: {0: 1}, **symfun._chern_forms(ring)}
        assert len(table._rows) == p, ring
        for row, cells in enumerate(table._rows):
            assert len(cells) == p, ring
            for col, cell in enumerate(cells):
                assert len({(i, j) for i, j, *_ in cell}) == len(cell), (ring, row, col)
                for i, j, drop, key, c in cell:
                    l = row - col + i + j * p
                    assert key in forms.get(l, {}), (ring, row, col, i, j)
                    assert drop == (1 << col) + (i << p) + (j << (p + 16))
                    assert c % p, (ring, row, col, i, j)


def test_wu_formula_refuses_after_warm_reads():
    # a cached read skips the argument checks, since only checked reads are
    # stored: after every formula of the ring is warm, the refusals still hold
    ring = liedata.restricted_ring("E8", 5)
    for m in range(2, 9):
        for k in range(m + 2):
            assert wu_formula(k, m, ring) is wu_formula(k, m, ring)
    table = symfun._wu_table(ring)
    warm = dict(table._formulas)
    for k, m in ((0, 0), (1, 0), (0, -1), (-1, 2), (-1, 8), (0, 1), (1, 1), (0, 9), (1, 9)):
        with pytest.raises(ValueError):
            wu_formula(k, m, ring)
    assert table._formulas == warm


def test_equal_rings_hash_equal_and_share_one_wu_table():
    # the restricted rings of (F4,3) and (E6,3) are both F_3[c_2..c_6]; the
    # hash is computed once per ring, so it must agree between equal rings
    f4, e6 = liedata.restricted_ring("F4", 3), liedata.restricted_ring("E6", 3)
    rebuilt = RingContext(3, list(zip(f4.names, f4.weights)))
    assert f4 is not e6 and f4 == e6 == rebuilt
    assert hash(f4) == hash(e6) == hash(rebuilt)
    assert symfun._wu_table(f4) is symfun._wu_table(e6) is symfun._wu_table(rebuilt)
    assert wu_formula(2, 3, f4) is wu_formula(2, 3, e6)
