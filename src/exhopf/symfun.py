"""Symmetric functions: elementary/Schur bases, Kostka numbers, Wu formulas.

Two independent routes to the reduced-power action on Chern classes live
here.  The generator `wu_formula` applies the total Steenrod operation to
an elementary symmetric polynomial and rewrites the relevant graded
component in the elementary basis; the oracle route goes through
tableau-counted Kostka numbers, exact matrix inversion and Giambelli
determinants.  The two are compared in the test suite, never merged.

Symmetric polynomials are manipulated in the monomial-symmetric basis
(a map partition -> coefficient); this is the classical leading-term
elimination, just run on the collected representation instead of raw
t-monomials, so it scales to the exponents the completeness sweep needs.
"""

from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations
from math import comb, factorial

from .ffpoly import Polynomial, PrimeField, RingContext


class NotSymmetricError(ValueError):
    """Input polynomial is not symmetric in the t-variables."""


class EliminationError(ArithmeticError):
    """A leading-term elimination step left its leading partition behind."""


# -- partitions ----------------------------------------------------------


def as_partition(parts):
    parts = tuple(int(x) for x in parts if x)
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts}")
    if list(parts) != sorted(parts, reverse=True):
        raise ValueError(f"{parts} is not weakly decreasing")
    return parts


def conjugate(lam):
    lam = as_partition(lam)
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


@lru_cache(maxsize=None)
def partitions_of(n, max_part=None):
    """All partitions of n as descending tuples, lexicographically descending."""
    if max_part is None:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


# -- contexts --------------------------------------------------------------


class SymContext:
    """n degree-1 variables t_1..t_n and the companion Chern ring c_1..c_n."""

    def __init__(self, p, n):
        if n < 1:
            raise ValueError("need at least one variable")
        self.p = p
        self.n = n
        field = PrimeField(p)
        self.t_ring = RingContext(field, [(f"t{i}", 1) for i in range(1, n + 1)])
        self.c_ring = RingContext(field, [(f"c{i}", i) for i in range(1, n + 1)])

    def __repr__(self):
        return f"SymContext(p={self.p}, n={self.n})"


def elementary(k, ctx):
    """The k-th elementary symmetric polynomial in t_1..t_n; e_0 = 1."""
    if k < 0 or k > ctx.n:
        raise ValueError(f"k={k} out of range 0..{ctx.n}")
    ring = ctx.t_ring
    terms = {}
    for subset in combinations(range(ctx.n), k):
        mon = [0] * ctx.n
        for i in subset:
            mon[i] = 1
        terms[tuple(mon)] = 1
    return Polynomial(ring, terms)


def monomial_symmetric_t(lam, ctx):
    """m_lambda(t_1..t_n), the orbit sum of t^lambda (small inputs only)."""
    from itertools import permutations

    lam = as_partition(lam)
    if len(lam) > ctx.n:
        return ctx.t_ring.zero()
    base = lam + (0,) * (ctx.n - len(lam))
    return Polynomial(ctx.t_ring, {mon: 1 for mon in set(permutations(base))})


# -- the monomial basis machinery -----------------------------------------


def _e_times_m(r, mdict):
    """Multiply by e_r in the monomial-symmetric basis (integer coefficients)."""
    out = {}
    for lam, coeff in mdict.items():
        mults = Counter(lam)
        values = sorted(mults)
        choices = []

        def rec(idx, remaining, current):
            if idx == len(values):
                done = dict(current)
                done[0] = remaining
                choices.append(done)
                return
            v = values[idx]
            for j in range(min(mults[v], remaining) + 1):
                current[v] = j
                rec(idx + 1, remaining - j, current)
            current.pop(v, None)

        rec(0, r, {})
        for j in choices:
            new_mults = Counter()
            for v in values:
                keep = mults[v] - j.get(v, 0)
                if keep:
                    new_mults[v] += keep
            for v, jv in j.items():
                if jv:
                    new_mults[v + 1] += jv
            c = coeff
            for v, jv in j.items():
                if jv:
                    c *= comb(new_mults[v + 1], jv)
            mu = tuple(sorted(new_mults.elements(), reverse=True))
            out[mu] = out.get(mu, 0) + c
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def _e_product_mexp(mu):
    """Expansion of e_mu = e_{mu_1}...e_{mu_l} in the m-basis, over Z."""
    if not mu:
        return {(): 1}
    return _e_times_m(mu[0], _e_product_mexp(mu[1:]))


def m_to_e(mdict, p=None):
    """Rewrite sum coeff*m_lambda in the elementary basis.

    Returns a map from an e-index partition mu (meaning prod_i e_{mu_i})
    to its coefficient.  Classical leading-term elimination: the lex-top
    surviving m_lambda is killed by e_{lambda'}, whose expansion is
    unitriangular with respect to dominance.
    """
    work = dict(mdict)
    if p is not None:
        work = {k: v % p for k, v in work.items() if v % p}
    out = {}
    while work:
        lam = max(work)
        c = work[lam]
        conj = conjugate(lam)
        out[conj] = out.get(conj, 0) + c
        # e_conj has unit leading coefficient on m_lam, so lam cancels exactly
        for mu, c2 in _e_product_mexp(conj).items():
            v = work.get(mu, 0) - c * c2
            if p is not None:
                v %= p
            if v:
                work[mu] = v
            else:
                work.pop(mu, None)
        if lam in work:
            raise EliminationError(f"m_{lam} survived elimination by e_{conj}")
    return {k: v for k, v in out.items() if v}


def _e_index_to_c_poly(edict, ctx):
    terms = []
    for mu, coeff in edict.items():
        mon = [0] * ctx.n
        for i in mu:
            if i > ctx.n:
                raise ValueError(f"e_{i} does not exist with n={ctx.n}")
            mon[i - 1] += 1
        terms.append((tuple(mon), coeff))
    return ctx.c_ring.from_terms(terms)


def rewrite_in_elementary(f, ctx):
    """Express a symmetric t-polynomial as a polynomial in c_i = e_i.

    Requires deg f <= n so that the elementary-basis expression is unique;
    raises NotSymmetricError when the input is not symmetric.
    """
    if f.ring != ctx.t_ring:
        raise ValueError("polynomial does not live in the t-ring of this context")
    n = ctx.n
    orbits = {}
    for mon, c in f.terms.items():
        lam = tuple(sorted((e for e in mon if e), reverse=True))
        if sum(lam) > n:
            raise ValueError(f"degree {sum(lam)} exceeds variable count {n}")
        orbits.setdefault(lam, []).append((mon, c))
    mdict = {}
    for lam, entries in orbits.items():
        coeffs = {c for _, c in entries}
        mults = Counter(lam)
        mults[0] = n - len(lam)
        orbit_size = factorial(n) // reduce(
            lambda a, b: a * b, (factorial(m) for m in mults.values()), 1
        )
        if len(coeffs) != 1 or len(entries) != orbit_size:
            raise NotSymmetricError(
                f"orbit of t^{lam} is incomplete or has unequal coefficients"
            )
        mdict[lam] = coeffs.pop()
    edict = m_to_e(mdict, p=ctx.p)
    return _e_index_to_c_poly(edict, ctx)


# -- Wu formulas ------------------------------------------------------------


def steenrod_elementary_component(p, k, m):
    """P^k(e_m) in the m-basis: the weight-(m+k(p-1)) graded piece of the
    total Steenrod operation t -> t + t^p applied multiplicatively to e_m.

    Expanding prod_{i in S}(t_i + t_i^p) over |S| = m and collecting the
    piece where exactly k factors contribute t^p gives the orbit sum of
    t^{(p^k, 1^{m-k})}, i.e. a single monomial symmetric function.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    if k > m:
        return {}
    return {as_partition((p,) * k + (1,) * (m - k)): 1}


def wu_formula(p, k, m, n=None):
    """The unique polynomial in c_1..c_n equal to P^k(c_m) in H*(BU(n); F_p).

    The result is stable in n; any n >= m + k(p-1) gives the same
    coefficients.  Output lives in the c-ring of a fresh SymContext.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    minimum = m + k * (p - 1)
    if n is None:
        n = minimum
    elif n < minimum:
        raise ValueError(f"n={n} too small; need at least {minimum}")
    ctx = SymContext(p, n)
    edict = m_to_e(steenrod_elementary_component(p, k, m), p=p)
    return _e_index_to_c_poly(edict, ctx)


def embed_c_poly(f, target_ring):
    """Map a c-polynomial into a larger c-ring by matching variable names."""
    mapping = {name: target_ring.variable(name) for name in f.ring.names}
    return f.substitute(mapping, target_ring=target_ring)


# -- Kostka numbers and their inverse ---------------------------------------


def _horizontal_strips_below(lam, size):
    """All nu contained in lam with lam/nu a horizontal strip of `size` cells."""
    lam = as_partition(lam)
    rows = len(lam)
    results = []

    def rec(i, remaining, acc):
        if i == rows:
            if remaining == 0:
                results.append(tuple(x for x in acc if x))
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        # nu_i ranges over [lo, lam[i]]; removal r = lam[i] - nu_i
        for nu_i in range(lam[i], lo - 1, -1):
            r = lam[i] - nu_i
            if r > remaining:
                break
            acc.append(nu_i)
            rec(i + 1, remaining - r, acc)
            acc.pop()

    rec(0, size, [])
    return results


@lru_cache(maxsize=None)
def kostka_number(lam, mu):
    """Number of semistandard Young tableaux of shape lam and content mu."""
    lam = as_partition(lam)
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        return 0
    if not mu:
        return 1
    total = 0
    for nu in _horizontal_strips_below(lam, mu[-1]):
        total += kostka_number(nu, mu[:-1])
    return total


@lru_cache(maxsize=None)
def _kostka_inverse_data(n):
    """Partitions of n (lex descending), the Kostka matrix and its inverse.

    With rows/columns in lex-descending order the matrix is upper
    unitriangular (K_{lam,mu} != 0 forces mu dominated by lam), so the
    inverse is computed by integer back-substitution; entries are exact.
    """
    parts = partitions_of(n)
    size = len(parts)
    K = [[kostka_number(parts[i], parts[j]) for j in range(size)] for i in range(size)]
    for i in range(size):
        assert K[i][i] == 1, "Kostka matrix is not unitriangular"
        for j in range(i):
            assert K[i][j] == 0, "Kostka matrix is not triangular in lex order"
    X = [[0] * size for _ in range(size)]
    for i in range(size - 1, -1, -1):
        X[i][i] = 1
        for j in range(i + 1, size):
            X[i][j] = -sum(K[i][k] * X[k][j] for k in range(i + 1, j + 1))
    index = {lam: i for i, lam in enumerate(parts)}
    return parts, index, K, X


def kostka_inverse(mu, lam):
    """Entry (mu, lam) of the inverse Kostka matrix: m_mu = sum K^-1 s_lam."""
    mu = as_partition(mu)
    lam = as_partition(lam)
    if sum(mu) != sum(lam):
        raise ValueError(f"|mu|={sum(mu)} and |lam|={sum(lam)} differ")
    if not mu:
        return 1
    _, index, _, X = _kostka_inverse_data(sum(mu))
    return X[index[mu]][index[lam]]


def kostka_matrix(n):
    parts, _, K, _ = _kostka_inverse_data(n)
    return parts, K


# -- Schur polynomials via Giambelli ----------------------------------------


def schur_giambelli(lam, ctx):
    """s_lambda as a polynomial in c_1..c_n via the Giambelli determinant.

    The matrix is the classical dual Jacobi-Trudi one, det(c_{lam'_u - u + v})
    over 1 <= u, v <= lam_1; we expand its transpose row by row, which has
    the same determinant.
    """
    lam = as_partition(lam)
    if sum(lam) > ctx.n:
        raise ValueError(f"|lambda|={sum(lam)} exceeds n={ctx.n}")
    conj = conjugate(lam)
    d = len(conj)
    ring = ctx.c_ring
    if d == 0:
        return ring.one()

    def entry(i, j):
        idx = conj[j] - j + i
        if idx < 0:
            return None
        if idx == 0:
            return ring.one()
        return ring.variable(f"c{idx}")

    memo = {}

    def minor(cols):
        if not cols:
            return ring.one()
        key = cols
        if key in memo:
            return memo[key]
        i = d - len(cols)
        total = ring.zero()
        for pos, j in enumerate(cols):
            e = entry(i, j)
            if e is None:
                continue
            sub = minor(cols[:pos] + cols[pos + 1 :])
            term = e * sub
            total = total + (term if pos % 2 == 0 else -term)
        memo[key] = total
        return total

    return minor(tuple(range(d)))


def schur_in_m_basis(lam):
    """s_lambda = sum_mu K_{lam,mu} m_mu, as an integer m-basis dict."""
    lam = as_partition(lam)
    n = sum(lam)
    out = {}
    for mu in partitions_of(n):
        k = kostka_number(lam, mu)
        if k:
            out[mu] = k
    return out
