"""Transcribed closed forms of the paper (test oracles).

These build the fixture polynomials for P^k(c_m) directly from the
printed formulas, in a given c-ring; the generator under test never
calls into this module.  The falling-factorial binomial handles the
negative upper arguments the p=2 formula needs.  `case1_in_weights`
decides the ledger's Case 1 claims where the paper states them, in the
weight ring, as the oracle of their mixed-ring check in `printed`.
"""

from math import factorial

from exhopf import liedata, printed
from exhopf.steenrod import power
from oracles import expand, omega


def falling_binomial(n, i):
    num = 1
    for j in range(i):
        num *= n - j
    return num // factorial(i)


def _c(ring, idx):
    if idx < 0:
        return ring.zero()
    if idx == 0:
        return ring.one()
    name = f"c{idx}"
    if name not in ring.index:
        raise ValueError(f"ring has no {name}")
    return ring.variable(name)


def p2_reduced_power(r, m, ring):
    """P^r c_m = sum_t C(r-m, t) c_{r-t} c_{m+t} over F_2."""
    total = ring.zero()
    for t in range(r + 1):
        coeff = falling_binomial(r - m, t)
        total = total + coeff * (_c(ring, r - t) * _c(ring, m + t))
    return total


def p3_p1(m, ring):
    c = lambda i: _c(ring, i)
    return (m + 2) * c(m + 2) - c(1) * c(m + 1) + (c(1) ** 2 + c(2)) * c(m)


def p3_p2(m, ring):
    c = lambda i: _c(ring, i)
    return (
        c(2) ** 2 * c(m)
        + c(1) * c(3) * c(m)
        - c(4) * c(m)
        - c(1) * c(2) * c(1 + m)
        + (m + 1) * c(1) ** 2 * c(2 + m)
        + (m - 1) * c(2) * c(2 + m)
        - (m + 1) * c(1) * c(3 + m)
        + ((m * m + 3 * m + 2) // 2) * c(4 + m)
    )


def p3_p3(m, ring):
    c = lambda i: _c(ring, i)
    return (
        c(3) ** 2 * c(m)
        + c(2) * c(4) * c(m)
        - c(1) * c(5) * c(m)
        + c(6) * c(m)
        - c(2) * c(3) * c(1 + m)
        + c(5) * c(1 + m)
        + m * c(2) ** 2 * c(2 + m)
        + (1 + m) * c(1) * c(3) * c(2 + m)
        - (1 + m) * c(4) * c(2 + m)
        - m * c(1) * c(2) * c(3 + m)
        - c(3) * c(3 + m)
        + ((m * m + m) // 2) * c(1) ** 2 * c(4 + m)
        - m * m * c(2) * c(4 + m)
        - ((m * m + m) // 2) * c(1) * c(5 + m)
        + ((m**3 + 3 * m * m + 2 * m - 6) // 6) * c(6 + m)
    )


def p5_p1(m, ring):
    c = lambda i: _c(ring, i)
    return (
        (m + 4) * c(m + 4)
        - c(1) * c(m + 3)
        + (c(1) ** 2 - 2 * c(2)) * c(m + 2)
        + (-(c(1) ** 3) - 2 * c(1) * c(2) + 2 * c(3)) * c(m + 1)
        + (c(1) ** 4 + c(1) ** 2 * c(2) + 2 * c(2) ** 2 - c(1) * c(3) + c(4)) * c(m)
    )


def closed_form(p, k, m, ring):
    if p == 2:
        return p2_reduced_power(k, m, ring)
    if p == 3:
        return {1: p3_p1, 2: p3_p2, 3: p3_p3}[k](m, ring)
    if p == 5 and k == 1:
        return p5_p1(m, ring)
    raise ValueError(f"no printed closed form for p={p}, k={k}")


# Schur-coefficient tables of the printed general expansions: for each
# (p, k), a list of (partition pattern, integer coefficient) pairs as
# functions of m.  A pattern returns None when a multiplicity would go
# negative (the term is absent for that m).


def _ones(count, *rest):
    if count < 0:
        return None
    return tuple(sorted(rest + (1,) * count, reverse=True))


def remark52_table(p, k, m):
    if p == 3 and k == 1:
        return [
            (_ones(m + 2), m),
            (_ones(m - 1, 3), 1),
            (_ones(m, 2), -1),
            (_ones(m - 2, 2, 2), -1),
        ]
    if p == 3 and k == 2:
        return [
            (_ones(m - 2, 3, 3), 1),
            (_ones(m + 1, 3), m - 1),
            (_ones(m - 1, 2, 3), -1),
            (_ones(m - 3, 2, 2, 3), -1),
            (_ones(m + 4), m * (m - 1) // 2),
            (_ones(m + 2, 2), -(m - 1)),
            (_ones(m, 2, 2), -(m - 2)),
            (_ones(m - 2, 2, 2, 2), 2),
            (_ones(m - 4, 2, 2, 2, 2), 1),
        ]
    if p == 3 and k == 3:
        return [
            (_ones(m - 3, 3, 3, 3), 1),
            (_ones(m, 3, 3), m - 2),
            (_ones(m - 2, 2, 3, 3), -1),
            (_ones(m - 4, 2, 2, 3, 3), -1),
            (_ones(m + 3, 3), (m - 1) * (m - 2) // 2),
            (_ones(m + 1, 2, 3), -(m - 2)),
            (_ones(m - 1, 2, 2, 3), -(m - 3)),
            (_ones(m - 3, 2, 2, 2, 3), 2),
            (_ones(m - 5, 2, 2, 2, 2, 3), 1),
            (_ones(m + 6), m * (m - 1) * (m - 2) // 6),
            (_ones(m + 4, 2), -((m - 1) * (m - 2) // 2)),
            (_ones(m + 2, 2, 2), -((m - 2) * (m - 3) // 2)),
            (_ones(m, 2, 2, 2), 2 * m - 5),
            (_ones(m - 2, 2, 2, 2, 2), m - 5),
            (_ones(m - 4, 2, 2, 2, 2, 2), -3),
            (_ones(m - 6, 2, 2, 2, 2, 2, 2), -1),
        ]
    if p == 5 and k == 1:
        return [
            (_ones(m + 4), m),
            (_ones(m - 1, 5), 1),
            (_ones(m, 4), -1),
            (_ones(m - 2, 2, 4), -1),
            (_ones(m + 1, 3), 1),
            (_ones(m - 1, 2, 3), 1),
            (_ones(m - 3, 2, 2, 3), 1),
            # printed as (1^{m+3},2), which has size m+5; degree forces m+2
            (_ones(m + 2, 2), -1),
            (_ones(m, 2, 2), -1),
            (_ones(m - 2, 2, 2, 2), -1),
            (_ones(m - 4, 2, 2, 2, 2), -1),
        ]
    raise ValueError(f"no printed Schur expansion for p={p}, k={k}")


# Smallest m for which the printed coefficient list is exact; below these
# the stable formulas pick up boundary corrections (verified by direct
# inverse-Kostka computation).
REMARK52_STABLE_M = {(3, 1): 1, (3, 2): 3, (3, 3): 5, (5, 1): 3}


def case1_in_weights(group):
    """The ledger's Case 1 claims on (group, 2) decided in the weight ring,
    where the paper states them: {key: agree}, each theta and quotient
    expanded by c_k -> c_k(G) (`oracles.expand`)."""
    ts = liedata.theta_set(group, 2)
    out = {}
    for claim in printed.claims(group, 2):
        if claim.source == "Case 1":
            _, k, s = claim.key
            rhs = sum((expand(ts.mixed_ring.parse(q), group, 2) * omega(ts, j)
                       for j, q in claim.value.items()), ts.weight_ring.zero())
            out[claim.key] = power(k, omega(ts, s)) == rhs
    return out
