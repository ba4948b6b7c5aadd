"""Wu formulas: the reduced powers P^k c_m of the Chern classes.

By the splitting principle c_m = e_m(t_1..t_n), each t_i of degree 2, and
the total operation t -> t + t^p is multiplicative, so

    sum_{m, k} a^(m-k) b^k P^k(c_m) = prod_i (1 + a t_i + b t_i^p).

Put E(s) = sum_j c_j s^j = prod_i (1 + t_i s) and f(s) = s^p - a s^(p-1) - b
over F_p[a, b].  Then

    prod_i (1 + a t_i + b t_i^p) = prod_{f(r) = 0} E(r) = Res_s(f, E),

since for each i, prod_r (1 + t_i r) = (-t_i)^p f(-1/t_i) = 1 + a t_i + b t_i^p
((-1)^p = -1 at odd p, and -1 = 1 at p = 2).  As f is monic, the resultant
is the determinant of multiplication by E(s) on F_p[c_1..c_n][a, b][s]/(f),
a p x p matrix, and P^k c_m is its a^(m-k) b^k coefficient.  With a = b = x
this is the one-variable form f(s) = s^p - x s^(p-1) - x; keeping a and b
apart makes each formula one coefficient, so a call computes only the
coefficients below its own.

`WuTable` holds that determinant for one ring of Chern classes, and every
(k, m) of the ring reads from it.  The determinant commutes with every
ring map of the c_j, so the ring only says what each c_j is
(`_chern_forms`): zero where the ring lacks it, and c_1 = 3 omega_r in
the mixed ring F_p[omega_r, c_2..c_N] of `liedata`.  So one table serves
BU(n) = F_p[c_1..c_n], its truncations, the restricted ring F_p[c_2..c_N]
(c_1 = 0) and the mixed ring alike.

The independent oracle route (leading-term elimination in the
monomial-symmetric basis, tableau-counted Kostka numbers, Giambelli
determinants, rewriting of explicit t-polynomials) is test-only and lives
in `tests/symfun_oracles.py`; the test suite compares the two routes, the
library never merges them.
"""

from functools import lru_cache

from .ffpoly import EXPONENT_LIMIT, ExponentOverflow, Polynomial, add_into, mul_into


def _chern_forms(ring):
    """{w: c_w as a term dict of `ring`} for each c_w not zero there, under
    the one naming rule (else `ValueError`): a variable of weight w >= 2 is
    c_w, named `c<w>`; beside these at most one variable has weight 1,
    `c1` itself or the distinguished weight `w<r>` of the mixed ring, with
    c_1 = 3 omega_r (zero at p = 3).  Weight-1 variables alone keep no
    rule; a `c1` among them is c_1.
    """
    forms, light = {}, []
    for name, w, key in zip(ring.names, ring.weights, ring.coeffs):
        if name == f"c{w}":
            forms[w] = {key: 1}
        elif w > 1:
            raise ValueError(f"variable {name} of weight {w} is not the Chern class c{w}")
        else:
            light.append((name, key))
    if light and max(ring.weights) > 1:
        (name, key), *more = light
        if more or 1 in forms or name[:1] != "w" or not name[1:].isdigit():
            raise ValueError(f"{ring}: beside Chern classes the one weight-1 "
                             "variable allowed is c1 or the distinguished w<r>")
        if 3 % ring.p:
            forms[1] = {key: 3 % ring.p}
    return forms


class WuTable:
    """Every P^k c_m in one ring of Chern classes, read off one resultant.

    `ring` keeps the naming rule of `_chern_forms`, which gives each c_j as
    a linear form of the ring; N is its largest weight, and a c_j with
    j <= N that has no form is zero.  The matrix of multiplication by E(s)
    on the basis 1, s, .., s^(p-1) has entries in F_p[c][a, b]; each is
    kept as a dict (i, j) -> the coefficient of a^i b^j, a linear form in
    c_0 = 1 and the c_j, held as a term dict of `ring` (key -> residue, as
    in `ffpoly`).  The determinant is expanded along its rows by Laplace,
    memoised on the columns still free and on (i, j), and each coefficient
    is computed only when a formula asks for it.  The memo holds term dicts
    too, one `ffpoly.mul_into` per product; `coefficient` wraps its dict in
    a `Polynomial` without a copy, so no memo dict is mutated once built.
    The resultant is homogeneous (s of weight -1, a of -1, b of -p), so no
    product a coefficient asks for outweighs the coefficient, P^j c_(i+j)
    of weight i + jp; `wu_formula` bounds that weight before it asks.
    """

    def __init__(self, ring):
        # c_0 = 1 and each c_l that is not zero in the ring, as term dicts
        unit = {0: {0: 1}, **_chern_forms(ring)}
        self.p = p = ring.p
        self.ring = ring
        n = max(ring.weights, default=0)
        # s^q mod f for q = 0 .. n + p - 1, as p dicts (i, j) -> residue
        reduced = []
        for q in range(n + p):
            if q < p:
                vec = [{} for _ in range(p)]
                vec[q][(0, 0)] = 1
            else:
                # s * s^(q-1): each coefficient moves up one place, and the
                # top one leaves as s^p = a s^(p-1) + b
                top = reduced[-1][p - 1]
                vec = [{(i, j + 1): c for (i, j), c in top.items()}] + reduced[-1][: p - 1]
                vec[p - 1] = add_into(
                    dict(vec[p - 1]), {(i + 1, j): c for (i, j), c in top.items()}, 1, p
                )
            reduced.append(vec)
        self.matrix = []
        for row in range(p):
            entries = []
            for col in range(p):
                # row `row` of E(s) s^col = sum_l c_l s^(l + col)
                acc = {}
                for l, form in unit.items():
                    for ij, c in reduced[l + col][row].items():
                        add_into(acc.setdefault(ij, {}), form, c, p)
                entries.append(acc)
            self.matrix.append(entries)
        self._minors = {}

    def coefficient(self, i, j):
        """The a^i b^j coefficient of the resultant: P^j c_(i+j)."""
        return Polynomial(self.ring, self._minor(tuple(range(self.p)), i, j))

    def _minor(self, cols, i, j):
        """The a^i b^j coefficient of the minor on the last len(cols) rows
        and the columns `cols`, as a term dict."""
        if not cols:
            return {0: 1} if i == j == 0 else {}
        key = (cols, i, j)
        result = self._minors.get(key)
        if result is None:
            row = self.p - len(cols)
            acc = {}
            for pos, col in enumerate(cols):
                rest = cols[:pos] + cols[pos + 1 :]
                for (i1, j1), entry in self.matrix[row][col].items():
                    if i1 <= i and j1 <= j:
                        sub = self._minor(rest, i - i1, j - j1)
                        if sub:
                            mul_into(acc, entry, sub, -1 if pos % 2 else 1, self.p)
            result = self._minors[key] = acc
        return result


# The ten default tables in one process read ten rings, with no eviction
# (equal rings share a table: the restricted rings of F4 and E6 are one;
# three of the ten are the mixed rings F_2[w2, c_2..c_N] = F_2[c_1..c_N]
# of E6, E7 and E8, where the Case 1 column is reduced).  A sweep over many
# n (the truncation tests) evicts: with 16 rings it runs within 10% of an
# unbounded cache, and the `slow` p = 5 sweep peaks at 80 MB RSS, against
# 115 MB unbounded and twice the time with 8 rings.
@lru_cache(maxsize=16)
def _wu_table(ring):
    return WuTable(ring)


def wu_formula(k, m, ring):
    """P^k(c_m) in `ring`, a ring of Chern classes as `WuTable` takes it.

    In F_p[c_1..c_n] this is the unique polynomial equal to P^k(c_m) in
    H*(BU(n); F_p): exact for every n >= m, and from n = m + k(p-1) on
    stable (any larger n gives the same coefficients).  In a ring that
    lacks some c_j it is that formula with those c_j = 0.  The ring must
    hold c_m; a weight m + k(p-1) of 2^15 or more raises `ExponentOverflow`
    before any table is built.
    """
    if m < 1 or k < 0:
        raise ValueError("need m >= 1 and k >= 0")
    if f"c{m}" not in ring.index:
        raise ValueError(f"{ring} has no c{m}")
    if k <= m and m + k * (ring.p - 1) >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"P^{k} c_{m} has weight 2^15 or more")
    if k > m:
        return ring.zero()
    return _wu_table(ring).coefficient(m - k, k)
