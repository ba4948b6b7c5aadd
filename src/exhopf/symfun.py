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
(c_1 = 0) and the mixed ring alike.  By homogeneity each a^i b^j
coefficient of a matrix entry is one c_l, so the table keeps its rows as
flat lists of single terms and each product of the Laplace expansion is
one term times a memoised minor (`ffpoly.shift_into`).

Every memo lives in the ring's table, which `_wu_table` caches per ring:
the minors, the formulas `wu_formula` has returned, and the powers
P^j(c_m^e), e > 1, of `steenrod`.  So a formula costs the minors it
needs that no earlier formula of the ring computed, the first time the
ring is asked for it, and one dict lookup after that.

The independent oracle route (leading-term elimination in the
monomial-symmetric basis, tableau-counted Kostka numbers, Giambelli
determinants, rewriting of explicit t-polynomials) is test-only and lives
in `tests/symfun_oracles.py`; the test suite compares the two routes, the
library never merges them.
"""

from functools import lru_cache

from .ffpoly import EXPONENT_LIMIT, ExponentOverflow, Polynomial, add_into, shift_into


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
    a one-term linear form of the ring; N is its largest weight, and a c_j
    with j <= N that has no form is zero.  The matrix of multiplication by
    E(s) on the basis 1, s, .., s^(p-1) has entries in F_p[c][a, b].  Its
    entry (row, col) is the s^row coefficient of sum_l c_l s^(l + col) mod
    f, and s^q mod f is homogeneous (s of weight -1, a of -1, b of -p), so
    its a^i b^j coefficient comes from q = row + i + jp alone: it is one
    term, a residue times c_l with l = row - col + i + jp (c_0 = 1).
    `_rows[row][col]` keeps each entry as a flat list of these terms, (i, j,
    drop, key, coeff) with `key` the monomial key of c_l (as in `ffpoly`)
    and `drop` the step of the minor key below.

    The determinant is expanded along its rows by Laplace, each coefficient
    only when a formula asks for it.  The a^i b^j coefficient of the minor
    on the last r rows and a set of r columns is memoised in `_minors`
    under one int, mask + (i << p) + (j << (p + 16)), `mask` the bit set of
    the columns (i and j stay below 2^15, see below).  A term at (i1, j1)
    in column col leaves the minor of the other columns at (i - i1, j - j1),
    whose key is the minor's key minus `drop` = 2^col + (i1 << p) +
    (j1 << (p + 16)); the memo is read before recursing, and holds the
    empty minor from the start.  Each product is one `ffpoly.shift_into`,
    a term times a memo dict.  The resultant is homogeneous, so no product
    a coefficient asks for outweighs the coefficient, P^j c_(i+j) of
    weight i + jp; `wu_formula` bounds that weight before it asks.

    The table keeps two more memos, both per ring and never evicted apart
    from the table: `_formulas` {(k, m): P^k c_m}, the `Polynomial`s that
    `wu_formula` has returned, and `_slots` {(j, i, e): P^j(v_i^e)} for
    e > 1, which `steenrod` fills (its docstring has the measurement).  A
    repeated `wu_formula` call costs 0.41-0.47 us through `_formulas`,
    against 1.25-1.45 us when each read checked its arguments and wrapped
    the memoised coefficient anew (the reads of the ten default tables,
    best of 7 passes, 2-core VM, Python 3.11.7).  No memo dict is mutated
    once built: `coefficient` wraps its dict in a `Polynomial` without a
    copy, and `steenrod` shares the `.terms` of those as its own term
    dicts.
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
        # entry (row, col): each c_l s^(l + col) adds the terms of s^(l + col) mod f
        self._rows = []
        for row in range(p):
            cells = []
            for col in range(p):
                cell = []
                for l, form in unit.items():
                    if reduced[l + col][row]:
                        [(key, fc)] = form.items()
                        for (i, j), c in add_into({}, reduced[l + col][row], fc, p).items():
                            cell.append((i, j, (1 << col) + (i << p) + (j << (p + 16)), key, c))
                cells.append(cell)
            self._rows.append(cells)
        # the Laplace step of each column set along its top row: one list of
        # terms per column, negated at the odd positions
        signed = [
            [(cell, [(i, j, drop, key, -c) for i, j, drop, key, c in cell]) for cell in cells]
            for cells in self._rows
        ]
        self._expansions = [[]]
        for mask in range(1, 1 << p):
            row, odd, steps = signed[p - bin(mask).count("1")], 0, []
            for col in range(p):
                if mask >> col & 1:
                    steps.append(row[col][odd])
                    odd ^= 1
            self._expansions.append(steps)
        self._minors = {0: {0: 1}}
        self._formulas = {}
        self._slots = {}

    def coefficient(self, i, j):
        """The a^i b^j coefficient of the resultant: P^j c_(i+j)."""
        p = self.p
        key = (1 << p) - 1 + (i << p) + (j << (p + 16))
        terms = self._minors.get(key)
        if terms is None:
            terms = self._minor(key)
        return Polynomial(self.ring, terms)

    def _minor(self, key):
        """The minor coefficient of memo key `key` (class docstring), as a
        term dict, computed on a miss of the memo and stored."""
        minors, p = self._minors, self.p
        i, j = key >> p & 0xFFFF, key >> (p + 16)
        acc = {}
        for terms in self._expansions[key & ((1 << p) - 1)]:
            for i1, j1, drop, mon, c in terms:
                if i1 <= i and j1 <= j:
                    sub = minors.get(key - drop)
                    if sub is None:
                        sub = self._minor(key - drop)
                    if sub:
                        shift_into(acc, mon, c, sub, p)
        minors[key] = acc
        return acc


# The ten default tables in one process read ten rings, with no eviction
# (equal rings share a table: the restricted rings of F4 and E6 are one;
# three of the ten are the mixed rings F_2[w2, c_2..c_N] = F_2[c_1..c_N]
# of E6, E7 and E8, where the Case 1 column is reduced).  A table carries
# all of its ring's memos, so an eviction drops them together.  A sweep
# over many n (the truncation tests) evicts: with 16 rings the `slow` p = 5
# sweep takes 1.6-1.7 s at 67.8 MB peak RSS, against 1.5-1.7 s at 87.5 MB
# unbounded and 2.1 s at 61.2 MB with 8 rings (one pytest process each,
# 2-core VM, Python 3.11.7).
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

    The ring's table keeps every formula it has returned, so a repeated
    call is one dict lookup and returns the same `Polynomial`.  Only the
    weight check runs on every call; the others run on a miss, since a
    stored formula has passed them.
    """
    if k <= m and m + k * (ring.p - 1) >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"P^{k} c_{m} has weight 2^15 or more")
    table = _wu_table(ring)
    formula = table._formulas.get((k, m))
    if formula is None:
        if m < 1 or k < 0:
            raise ValueError("need m >= 1 and k >= 0")
        if f"c{m}" not in ring.index:
            raise ValueError(f"{ring} has no c{m}")
        formula = ring.zero() if k > m else table.coefficient(m - k, k)
        table._formulas[(k, m)] = formula
    return formula
