"""Test-only oracles for the symmetric-function and Steenrod routes.

These are the independent routes that the tests hold the library against:

- the Wu formulas by leading-term elimination in the monomial-symmetric
  basis (`wu_formula_by_elimination`): P^k(e_m) is the orbit sum
  m_(p^k, 1^(m-k)), rewritten in the elementary basis by killing the
  lex-top m_lambda with e_(lambda') again and again, on the collected
  m-basis representation rather than raw t-monomials;
- elementary polynomials and orbit sums in explicit t-variables, and the
  rewriting of a symmetric t-polynomial in the c_i = e_i;
- tableau-counted Kostka numbers and their exact inverse, and Giambelli
  determinants;
- the inhomogeneous total Steenrod operation on a ring of degree-2 classes,
  and the split of a polynomial into its homogeneous components.

`SymContext` holds the explicit t-ring and its companion c-ring.  The
library's own route is `exhopf.symfun.wu_formula` (one resultant per ring)
and `exhopf.steenrod.power`; nothing in the package calls these.
"""

from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, permutations
from math import comb, factorial

from exhopf.ffpoly import Polynomial, RingContext
from exhopf.steenrod import SteenrodError


class NotSymmetricError(ValueError):
    """Input polynomial is not symmetric in the t-variables."""


class KostkaTriangularityError(ArithmeticError):
    """The Kostka matrix is not upper unitriangular in lex-descending order."""


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


# -- the monomial basis machinery -----------------------------------------


def _e_times_m(r, mdict, n=None):
    """Multiply by e_r in the monomial-symmetric basis (integer coefficients).

    e_r m_lam is a sum over the ways to raise r parts of lam by one, j_v of
    the parts equal to v (zero parts included); the resulting m_mu carries
    prod_v C(mult_mu(v + 1), j_v).  The values are visited in descending
    order, so mu is built front to back.  With n variables (n=None: enough
    of them) every m_mu with more than n parts vanishes, so such mu are
    never built: a branch is cut as soon as the parts still to raise cannot
    fit in the smaller values and the n - len(lam) zero parts.
    """
    out = {}
    for lam, coeff in mdict.items():
        mults = Counter(lam)
        mults[0] = r if n is None else n - len(lam)
        values = sorted(mults, reverse=True)
        # capacity[i]: how many raisings the values from index i on can absorb
        capacity = [0] * (len(values) + 1)
        for i in range(len(values) - 1, -1, -1):
            capacity[i] = capacity[i + 1] + mults[values[i]]

        def rec(i, remaining, mu, prev, kept, c):
            # mu: the finished front of the partition; `kept` parts equal
            # to `prev` (the last value visited) are still to be placed
            if i == len(values):
                out[mu] = out.get(mu, 0) + c
                return
            v = values[i]
            lo = max(0, remaining - capacity[i + 1])
            for j in range(lo, min(mults[v], remaining) + 1):
                if prev == v + 1:
                    count = kept + j
                    rec(i + 1, remaining - j, mu + (prev,) * count, v, mults[v] - j,
                        c * comb(count, j))
                else:
                    rec(i + 1, remaining - j, mu + (prev,) * kept + (v + 1,) * j, v,
                        mults[v] - j, c)

        if r <= capacity[0]:
            rec(0, r, (), None, 0, coeff)
    return {k: v for k, v in out.items() if v}


def _binding(n, degree):
    """n if n variables truncate partitions of `degree`, else None (stable)."""
    return n if n is not None and n < degree else None


@lru_cache(maxsize=None)
def _e_product_mexp(mu, n=None):
    """Expansion of e_mu = e_{mu_1}...e_{mu_l} in the m-basis, over Z.

    In n variables (n=None: at least |mu| of them); callers pass n only
    when it truncates, so the stable expansions are cached once.
    """
    if not mu:
        return {(): 1}
    rest = mu[1:]
    return _e_times_m(mu[0], _e_product_mexp(rest, _binding(n, sum(rest))), n)


def m_to_e(mdict, p=None, n=None):
    """Rewrite sum coeff*m_lambda in the elementary basis of n variables.

    Returns a map from an e-index partition mu (meaning prod_i e_{mu_i})
    to its coefficient.  Classical leading-term elimination: the lex-top
    surviving m_lambda is killed by e_{lambda'}, whose expansion is
    unitriangular with respect to dominance.  With n variables
    (n=None: at least the degree) m_lambda = 0 for every lambda with more
    than n parts, so those are dropped from the input and from every
    e-expansion; the surviving lambda have lambda'_1 <= n, and the result
    is exact in c_1..c_n.
    """
    work = {k: v for k, v in mdict.items() if n is None or len(k) <= n}
    if p is not None:
        work = {k: v % p for k, v in work.items() if v % p}
    out = {}
    while work:
        lam = max(work)
        c = work[lam]
        conj = conjugate(lam)
        out[conj] = out.get(conj, 0) + c
        # e_conj has unit leading coefficient on m_lam, so lam cancels exactly
        for mu, c2 in _e_product_mexp(conj, _binding(n, sum(lam))).items():
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


def _e_index_to_c_poly(edict, ring):
    """sum coeff * prod_i e_{mu_i} as a polynomial in the c_i of `ring`."""
    n = ring.nvars
    terms = []
    for mu, coeff in edict.items():
        mon = [0] * n
        for i in mu:
            if i > n:
                raise ValueError(f"e_{i} does not exist with n={n}")
            mon[i - 1] += 1
        terms.append((tuple(mon), coeff))
    return ring.from_terms(terms)


# -- Wu formulas by elimination ---------------------------------------------


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


def wu_formula_by_elimination(p, k, m, n=None):
    """P^k(c_m) in F_p[c_1..c_n] by rewriting its m-basis orbit sum.

    The same contract as `exhopf.symfun.wu_formula`: n=None means the
    stable n = m + k(p-1); below that, every m_lambda with more than n
    parts vanishes.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    minimum = m + k * (p - 1)
    if n is None:
        n = minimum
    elif n < m:
        raise ValueError(f"n={n} too small; need at least m={m}")
    edict = m_to_e(
        steenrod_elementary_component(p, k, m), p=p, n=_binding(n, minimum)
    )
    ring = RingContext(p, [(f"c{i}", i) for i in range(1, n + 1)])
    return _e_index_to_c_poly(edict, ring)


# -- explicit t-variables -------------------------------------------------


class SymContext:
    """n degree-1 variables t_1..t_n and the companion Chern ring c_1..c_n."""

    def __init__(self, p, n):
        if n < 1:
            raise ValueError("need at least one variable")
        self.p = p
        self.n = n
        self.t_ring = RingContext(p, [(f"t{i}", 1) for i in range(1, n + 1)])
        self.c_ring = RingContext(p, [(f"c{i}", i) for i in range(1, n + 1)])

    def __repr__(self):
        return f"SymContext(p={self.p}, n={self.n})"


# -- explicit symmetric polynomials ----------------------------------------


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


def elementary(k, ctx):
    """The k-th elementary symmetric polynomial in t_1..t_n; e_0 = 1."""
    if k < 0 or k > ctx.n:
        raise ValueError(f"k={k} out of range 0..{ctx.n}")
    terms = []
    for subset in combinations(range(ctx.n), k):
        mon = [0] * ctx.n
        for i in subset:
            mon[i] = 1
        terms.append((mon, 1))
    return ctx.t_ring.from_terms(terms)


def monomial_symmetric_t(lam, ctx):
    """m_lambda(t_1..t_n), the orbit sum of t^lambda (small inputs only)."""
    lam = as_partition(lam)
    if len(lam) > ctx.n:
        return ctx.t_ring.zero()
    base = lam + (0,) * (ctx.n - len(lam))
    return ctx.t_ring.from_terms((mon, 1) for mon in set(permutations(base)))


def rewrite_in_elementary(f, ctx):
    """Express a symmetric t-polynomial as a polynomial in c_i = e_i.

    Requires deg f <= n so that the elementary-basis expression is unique;
    raises NotSymmetricError when the input is not symmetric.
    """
    if f.ring != ctx.t_ring:
        raise ValueError("polynomial does not live in the t-ring of this context")
    n = ctx.n
    orbits = {}
    for key, c in f.terms.items():
        mon = f.ring.exponents(key)
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
    return _e_index_to_c_poly(edict, ctx.c_ring)


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
        if K[i][i] != 1:
            raise KostkaTriangularityError(
                f"K[{parts[i]}][{parts[i]}] = {K[i][i]}, not 1"
            )
        for j in range(i):
            if K[i][j]:
                raise KostkaTriangularityError(
                    f"K[{parts[i]}][{parts[j]}] = {K[i][j]} below the diagonal"
                )
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


# -- the total Steenrod operation --------------------------------------------


def total_steenrod(f):
    """The full (inhomogeneous) total operation on a ring of degree-2 classes:
    every variable v goes to v + v^p.  The images are not homogeneous, which
    `Polynomial.substitute` refuses, so each term's (v + v^p)^e is expanded
    here."""
    R = f.ring
    if any(w != 1 for w in R.weights):
        raise SteenrodError("total_steenrod needs every variable of weight 1")
    totals = [R.variable(name) + R.variable(name) ** R.p for name in R.names]
    out = R.zero()
    for key, c in f.terms.items():
        term = R.constant(c)
        for total, e in zip(totals, R.exponents(key)):
            term = term * total ** e
        out = out + term
    return out


def homogeneous_components(f):
    """{weight: the part of f of that weight}, in increasing weight."""
    comps = {}
    for m, c in f.terms.items():
        comps.setdefault(f.ring.wdeg(m), {})[m] = c
    return {w: Polynomial(f.ring, d) for w, d in sorted(comps.items())}
