"""Symmetric functions: partitions, the monomial basis and Wu formulas.

`wu_formula` gives the reduced-power action on Chern classes: it applies
the total Steenrod operation to an elementary symmetric polynomial and
rewrites the relevant graded component in the elementary basis.  The
independent oracle route (tableau-counted Kostka numbers, exact matrix
inversion, Giambelli determinants, rewriting of explicit t-polynomials)
is test-only and lives in `tests/symfun_oracles.py`; the test suite
compares the two routes, the library never merges them.

Symmetric polynomials are manipulated in the monomial-symmetric basis
(a map partition -> coefficient); this is the classical leading-term
elimination, just run on the collected representation instead of raw
t-monomials, so it scales to the exponents the completeness sweep needs.
"""

from collections import Counter
from functools import lru_cache
from math import comb

from .ffpoly import RingContext


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

    Exact for every n >= m.  From n = m + k(p-1) on (the default) the
    result is stable: any larger n gives the same coefficients.  Below
    that it is computed in n variables, where every m_lambda with more
    than n parts vanishes, and equals the stable formula with c_j = 0 for
    j > n.  Output lives in F_p[c_1..c_n], c_i of weight i.
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
