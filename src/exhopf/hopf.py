"""Finite Hopf models of H*(G; F_p) over the Steenrod algebra.

The model is the free module on basis monomials x^r * alpha_S (truncated
x-exponents, squarefree odd part), with the Bockstein and reduced powers
extended from generator tables.  The squares are not transcribed: at
p = 2 the square of an odd generator is its top square, alpha^2 =
Sq^{|alpha|} alpha, which the b-table and the Bockstein table fix,

    alpha_{2s-1}^2 = Sq^1 P^{s-1} alpha_{2s-1} = b_{s,2s-1} delta alpha_{4s-3},

and the product reads it off the operation table (`square_table` lists
them); at odd p alpha^2 = 0.  The reduced coproduct is derived from
three printed inputs (`COPRODUCT_DATA`), by naturality and by solving
delta- and P-compatibility (`HopfModel.derive_coproducts`).  At p = 2
every even generator is a square of a polynomial in the odd ones, which
is what determines the full Sq-action on the x's.

The reduced-power action on the odd generators is read from the entries
of the computed b-table (the first-principles reconstruction, which
satisfies the Adem composites that the printed list omits): entry (s, t)
is P^k alpha_{2s-1} = b alpha_{2t-1}, with the k that `bst.BstTable` records.

Sq^a (p = 2) and P^k (odd p) on the generators sit in one table,
`HopfModel._ops`, keyed by generator degree and then index, zeros left
out, and filled once when the model is built: the alphas from the
nonzero b-table entries, then the x's from them (as squares at p = 2,
through the Bockstein at odd p).  Instability (Sq^i u = 0 for i > |u|,
P^i u = 0 for 2i > |u|) is the table's own range.  mu* has one table too,
`HopfModel._mu`: the full coproduct of each generator.

The total operation (the sum of all Sq^i or P^i) and mu* are ring maps,
so each is fixed by its table.  One memoised walk, `HopfModel._walk`,
carries either table to every basis element: it splits the element into
a smaller basis element times its last generator (`_split`) and
multiplies the two values, with the Cartan product for the total
operation (`_total`, a sparse {index: terms} table) and the Koszul
product of H ⊗ H for mu*.  Both memos are keyed by the basis element
itself, so elements that share a prefix share its work, and no index
whose value is zero is ever visited.  Every sparse F_p sum goes through
`ffpoly.add_into`.

Two more memos serve the coproduct checks.  delta is a derivation, and
`_delta` keeps its value on each basis element, read off
`bockstein_table`; `bockstein` and `tensor_bockstein` sum those values.
Each `TensorElement` keeps its own table {k: P^k of it}, the Cartan
product of its factors' `_total` tables, built by the first
`tensor_power` call on it, so P^k of one tensor for every k is one build
and then lookups.
"""

from itertools import product as iproduct

from . import bst as bst_mod
from . import liedata, printed
from .ffpoly import add_into, inverse, solve


class HopfError(Exception):
    pass


class UnreachableGenerator(HopfError):
    """No input, reduced-power route or unique solve fixes a coproduct."""


class Inconsistent(HopfError):
    """The coproduct constraints admit no solution."""


class InvariantError(HopfError):
    """A generator table or an argument breaks a structural invariant."""


class Underdetermined(HopfError):
    def __init__(self, dim):
        super().__init__(f"solution space has dimension {dim}")
        self.dim = dim


# -- transcribed generator tables --------------------------------------------
#
# x-monomials are {t: exponent} dictionaries; odd generators are named by
# their half-degree s (the class alpha_{2s-1}).

BOCKSTEIN_DATA = {
    ("G2", 2): {3: [(1, {3: 1})]},
    ("F4", 2): {3: [(1, {3: 1})]},
    ("E6", 2): {3: [(1, {3: 1})]},
    ("E7", 2): {
        3: [(1, {3: 1})],
        5: [(1, {5: 1})],
        9: [(1, {9: 1})],
        8: [(1, {3: 1, 5: 1})],
        14: [(1, {5: 1, 9: 1})],
        12: [(1, {3: 1, 9: 1})],
    },
    ("E8", 2): {
        3: [(1, {3: 1})],
        5: [(1, {5: 1})],
        9: [(1, {9: 1})],
        8: [(1, {3: 1, 5: 1})],
        14: [(1, {5: 1, 9: 1})],
        12: [(1, {3: 1, 9: 1}), (1, {3: 4})],
        15: [(1, {15: 1}), (1, {3: 2, 9: 1})],
    },
    ("F4", 3): {4: [(-1, {4: 1})], 8: [(-1, {4: 2})]},
    ("E6", 3): {4: [(-1, {4: 1})], 8: [(-1, {4: 2})]},
    ("E7", 3): {4: [(-1, {4: 1})], 8: [(-1, {4: 2})]},
    ("E8", 3): {
        4: [(-1, {4: 1})],
        8: [(-1, {4: 2})],
        10: [(1, {10: 1})],
        14: [(-1, {4: 1, 10: 1})],
        18: [(1, {4: 2, 10: 1})],
        20: [(1, {10: 2})],
        24: [(1, {4: 1, 10: 2})],
    },
    ("E8", 5): {
        6: [(-1, {6: 1})],
        12: [(-1, {6: 2})],
        18: [(1, {6: 3})],
        24: [(2, {6: 4})],
    },
}

# Theorem 4.1: zeta_{2s-1} in terms of the alphas ((coeff, xmon, source s);
# everything not listed is the plain alpha)
ZETA_DATA = {
    ("E7", 2): {
        8: [(1, {}, 8), (1, {3: 1}, 5)],
        14: [(1, {}, 14), (1, {5: 1}, 9)],
        12: [(1, {}, 12), (1, {3: 1}, 9)],
    },
    ("E8", 2): {
        8: [(1, {}, 8), (1, {3: 1}, 5)],
        14: [(1, {}, 14), (1, {5: 1}, 9)],
        12: [(1, {}, 12), (1, {3: 1}, 9), (1, {3: 3}, 3)],
        15: [(1, {}, 15), (1, {3: 2}, 9)],
    },
    ("F4", 3): {8: [(1, {}, 8), (-1, {4: 1}, 4)]},
    ("E6", 3): {8: [(1, {}, 8), (-1, {4: 1}, 4)]},
    ("E7", 3): {8: [(1, {}, 8), (-1, {4: 1}, 4)], 18: [(1, {}, 18), (1, {4: 1}, 14)]},
    ("E8", 3): {
        8: [(1, {}, 8), (-1, {4: 1}, 4)],
        18: [(1, {}, 18), (1, {4: 1}, 14)],
        10: [(-1, {}, 10)],
        14: [(1, {}, 14), (1, {4: 1}, 10)],
        20: [(1, {}, 20), (-1, {10: 1}, 10)],
        24: [(1, {}, 24), (-1, {4: 1}, 20)],
    },
    ("E8", 5): {
        8: [(3, {}, 8)],
        12: [(3, {}, 12), (2, {6: 1}, 6)],
        18: [(-1, {}, 18), (-1, {6: 2}, 6)],
        24: [(3, {}, 24), (1, {6: 3}, 6)],
    },
}

# Theorem 2: the printed reduced coproducts ((coeff, xmon, target s)) that
# `derive_coproducts` takes as inputs, because nothing derives them: with
# each one left out the fixpoint raises `UnreachableGenerator`.  Every
# other printed coproduct is derived, and is a claim in `printed`.
COPRODUCT_DATA = {
    # phi(alpha_15) = x_6 ⊗ alpha_9: no route reaches alpha_15, and its
    # solve is underdetermined; alpha_23 then follows from it
    ("E6", 2): {8: [(1, {3: 1}, 5)]},
    # alpha_17 primitive: no route reaches it, and its solve is underdetermined
    ("E6", 3): {9: []},
    # phi(alpha_35): with every other coproduct known its solve is
    # underdetermined of dimension 2, along x_8 ⊗ alpha_27 and x_8^2 ⊗ alpha_19
    ("E7", 3): {18: [(1, {4: 1}, 14), (1, {4: 2}, 10)]},
}

class _Combination:
    """A sparse F_p combination: `terms` maps keys to nonzero residues."""

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        self.model._own(other, type(self))
        p = self.model.p
        return type(self)(self.model, add_into(dict(self.terms), other.terms, 1, p))

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return type(self)(self.model, add_into({}, self.terms, c, self.model.p))

    def __eq__(self, other):
        self.model._own(other, type(self))
        return self.terms == other.terms


class AlgebraElement(_Combination):
    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, int):
            other = self.model.one().scale(other)
        return super().__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.model.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise HopfError(f"negative power {n}: the model has no inverses")
        out = self.model.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.model.one().scale(other)
        return super().__eq__(other)

    def degree(self):
        degs = {self.model.basis_degree(b) for b in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise HopfError("inhomogeneous element")
        return degs.pop()

    def __repr__(self):
        return f"<{self.model.render_element(self)}>"


class TensorElement(_Combination):
    # `_powers`: {k: terms of P^k (Sq^{2k} at p = 2) of this element}, unset
    # until the first `HopfModel.tensor_power` call on it builds it
    __slots__ = ("_powers",)

    def multiply(self, other):
        """Product in H ⊗ H with the Koszul sign."""
        self.model._own(other, TensorElement)
        return TensorElement(self.model, self.model._koszul(self.terms, other.terms))

    def __repr__(self):
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            bits.append(f"{c}*{self.model.render_basis(a)}(x){self.model.render_basis(b)}")
        return "<" + " + ".join(bits) + ">" if bits else "<0>"


def _outer(u, v):
    """The unreduced outer product {(a, b): u[a] * v[b]} of two term dicts."""
    return {(a, b): c * d for a, c in u.items() for b, d in v.items()}


def tensor(model, u, v):
    """Tensor product of two algebra elements (no sign; used on even input
    or where the caller tracks signs)."""
    model._own(u, AlgebraElement)
    model._own(v, AlgebraElement)
    return TensorElement(model, add_into({}, _outer(u.terms, v.terms), 1, model.p))


class HopfModel:
    """H*(G;F_p) with its square/Bockstein/power/coproduct tables."""

    def __init__(self, group, p, table=None):
        prof = liedata.profile(group, p)
        self.profile = prof
        self.group = group
        self.p = p
        self.e_list = tuple(sorted(prof.e_set))
        self.k_list = tuple(prof.k_map[t] for t in self.e_list)
        self.r_list = tuple(sorted(prof.r_set))
        self.bst_table = table = table if table is not None else bst_mod.full_table(group, p)
        if (table.profile.group, table.profile.p) != (group, p):
            raise InvariantError(f"b-table of {table.profile.group} at p={table.profile.p}")
        self._zero_x = (0,) * len(self.e_list)
        unit = (self._zero_x, ())
        self._mul_cache = {}
        self._ops = {}  # generator degree -> {index: Sq^i / P^i of it, as terms}
        self._totals = {unit: {0: {unit: 1}}}  # basis element -> {i: Sq^i / P^i}
        self._deltas = {}  # basis element -> delta of it, as terms
        self._mu = None  # generator degree -> full coproduct terms, once derived
        self._coproducts = {unit: {(unit, unit): 1}}  # basis element -> mu* terms

        self.bockstein_table = {
            s: self._from_data(BOCKSTEIN_DATA[(group, p)].get(s, [])) for s in self.r_list
        }
        self._fill_ops()
        if p == 2:
            self.square_table = {s: AlgebraElement(self, self._ops[2 * s - 1].get(2 * s - 1, {}))
                                 for s in self.r_list}

    # -- basis plumbing ----------------------------------------------------

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {(self._zero_x, ()): 1})

    def alpha(self, s):
        if s not in self.r_list:
            raise HopfError(f"no generator alpha_{2*s-1} in ({self.group},{self.p})")
        return AlgebraElement(self, {(self._zero_x, (s,)): 1})

    def x(self, t, exp=1):
        return self.x_monomial({t: exp})

    def x_monomial(self, xmon):
        k_map = self.profile.k_map
        if not xmon.keys() <= k_map.keys():
            t = min(xmon.keys() - k_map.keys())
            raise HopfError(f"no generator x_{2*t} in ({self.group},{self.p})")
        if min(xmon.values(), default=0) < 0:
            raise HopfError(f"negative exponent in x-monomial {xmon}")
        mon = list(self._zero_x)
        for t, e in xmon.items():
            if e >= k_map[t]:
                return self.zero()
            mon[self.e_list.index(t)] = e
        return AlgebraElement(self, {(tuple(mon), ()): 1})

    def _from_data(self, data):
        """The sum of coeff * x^xmon (* alpha_s) over printed (coeff, xmon)
        or (coeff, xmon, s) entries."""
        total = self.zero()
        for coeff, xmon, *odd in data:
            term = self.x_monomial(xmon)
            for s in odd:
                term = term * self.alpha(s)
            total = total + coeff * term
        return total

    def basis_degree(self, b):
        xexp, odds = b
        return sum(2 * t * e for t, e in zip(self.e_list, xexp)) + sum(
            2 * s - 1 for s in odds
        )

    def basis_parity(self, b):
        return len(b[1]) % 2

    def basis_elements(self):
        ranges = [range(k) for k in self.k_list]
        odds_all = list(self.r_list)
        for xexp in iproduct(*ranges):
            for mask in range(1 << len(odds_all)):
                odds = tuple(s for i, s in enumerate(odds_all) if mask >> i & 1)
                yield (xexp, odds)

    def render_basis(self, b):
        xexp, odds = b
        bits = []
        for t, e in zip(self.e_list, xexp):
            if e:
                bits.append(f"x{2*t}" + (f"^{e}" if e > 1 else ""))
        for s in odds:
            bits.append(f"a{2*s-1}")
        return "*".join(bits) if bits else "1"

    def render_element(self, elem):
        if not elem.terms:
            return "0"
        bits = []
        for b in sorted(elem.terms, key=lambda b: (self.basis_degree(b), b)):
            c = elem.terms[b]
            body = self.render_basis(b)
            if c == 1:
                bits.append(body)
            elif self.p > 2 and c == self.p - 1:
                bits.append(f"-{body}" if body != "1" else "-1")
            else:
                bits.append(f"{c}*{body}")
        out = "+".join(bits).replace("+-", "-")
        return out

    # -- multiplication ------------------------------------------------------

    def _mul_even_x(self, xexp1, xexp2):
        out = []
        for e1, e2, k in zip(xexp1, xexp2, self.k_list):
            e = e1 + e2
            if e >= k:
                return None
            out.append(e)
        return tuple(out)

    def multiply_basis(self, b1, b2):
        """Product of two basis monomials as a dict basis -> coeff.

        Memoised on (b1, b2): the Cartan and Koszul products multiply the
        same few generator products over and over.  Building the ten
        models, their coproducts and their check suites leaves at most 162
        entries (on (E8,2)); without the memo the benchmark's `models`
        workload takes 19% longer (`norm_wall_s` 0.0244 s against 0.0205 s,
        medians of 5 alternating 10 s runs, 2-core x86-64 VM).
        """
        key = (b1, b2)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        x1, s1 = b1
        x2, s2 = b2
        xsum = self._mul_even_x(x1, x2)
        common = set(s1) & set(s2)
        if xsum is None or (common and self.p != 2):
            result = {}  # truncated, or an odd class squared at odd p
        else:
            inv = sum(1 for u in s1 for v in s2 if u > v)
            sign = 1 if (self.p == 2 or inv % 2 == 0) else -1
            result = {(xsum, tuple(sorted(set(s1) ^ set(s2)))): sign % self.p}
            for s in sorted(common):  # p = 2: alpha_s^2 = Sq^{2s-1} alpha_s
                result = self._mul_into({}, result, self._ops[2 * s - 1].get(2 * s - 1, {}))
        self._mul_cache[key] = result
        return result

    def _mul_into(self, acc, u, v):
        """acc += u * v for two term dicts of this model; returns acc."""
        for b1, c1 in u.items():
            for b2, c2 in v.items():
                add_into(acc, self.multiply_basis(b1, b2), c1 * c2, self.p)
        return acc

    def _own(self, elem, kind):
        """Refuse anything but a `kind` (algebra or tensor) element of this model."""
        if not isinstance(elem, kind):
            raise HopfError(f"expected {kind.__name__}, got {type(elem).__name__}")
        if elem.model is not self:
            raise HopfError("model mismatch")

    def multiply(self, a, b):
        self._own(a, AlgebraElement)
        self._own(b, AlgebraElement)
        return AlgebraElement(self, self._mul_into({}, a.terms, b.terms))

    # -- Bockstein -------------------------------------------------------------

    def _delta(self, b):
        """The term dict of delta on basis element b, memoised in `_deltas`:
        delta is a derivation, so it is the signed sum over the alphas of b
        of the rest times that alpha's `bockstein_table` entry.

        One pass over the ten models (build, derive, check) asks delta of
        792 basis elements, 127 of them distinct; without the memo the
        pass is 3-5% slower (15.0-15.9 ms against 14.3-15.4 ms, in the
        runs `_tensor_powers` cites).
        """
        hit = self._deltas.get(b)
        if hit is None:
            xexp, odds = b
            hit = {}
            for i, s in enumerate(odds):
                rest = (xexp, odds[:i] + odds[i + 1 :])
                self._mul_into(hit, {rest: -1 if i % 2 else 1}, self.bockstein_table[s].terms)
            self._deltas[b] = hit
        return hit

    def bockstein(self, elem):
        self._own(elem, AlgebraElement)
        out = {}
        for b, c in elem.terms.items():
            add_into(out, self._delta(b), c, self.p)
        return AlgebraElement(self, out)

    # -- reduced powers ----------------------------------------------------------

    def _split(self, b):
        """(rest, generator degree) with rest * generator = b, coefficient +1,
        for a basis element b != 1.  The generator is the last alpha, or
        the last x_{2t} of nonzero exponent when b has no alphas."""
        xexp, odds = b
        if odds:
            return (xexp, odds[:-1]), 2 * odds[-1] - 1
        i = max(i for i, e in enumerate(xexp) if e)
        return (xexp[:i] + (xexp[i] - 1,) + xexp[i + 1 :], ()), 2 * self.e_list[i]

    def _walk(self, memo, table, product, b):
        """The value at basis element b of the ring map fixed by `table`
        (generator degree -> value): product(value at rest, table[generator])
        along `_split`, memoised in `memo`, which holds the value at 1.  The
        memo stays valid while `table` grows, as no entry changes once set."""
        hit = memo.get(b)
        if hit is None:
            rest, gen = self._split(b)
            hit = memo[b] = product(self._walk(memo, table, product, rest), table[gen])
        return hit

    def _cartan(self, u, v):
        """The product of two {index: terms} tables of total operations,
        nonzero entries only (the Cartan formula)."""
        out = {}
        for i, left in u.items():
            for j, right in v.items():
                self._mul_into(out.setdefault(i + j, {}), left, right)
        return {k: terms for k, terms in out.items() if terms}

    def _koszul(self, u, v):
        """The product of two term dicts of H ⊗ H, with the Koszul sign."""
        p = self.p
        out = {}
        for (a, b), c1 in u.items():
            for (c, d), c2 in v.items():
                sign = -1 if p != 2 and self.basis_parity(b) and self.basis_parity(c) else 1
                left = self.multiply_basis(a, c)
                right = self.multiply_basis(b, d)
                add_into(out, _outer(left, right), sign * c1 * c2, p)
        return out

    def _total(self, b):
        """{i: term dict of Sq^i (p = 2) or P^i (odd p) on basis element b},
        nonzero entries only: the walk over `_ops` with the Cartan product.

        Without the memo `_totals` the `models` workload takes 2.2 times as
        long (`norm_wall_s` 0.0438 s against 0.0200 s, medians of 4
        alternating 10 s runs, 2-core x86-64 VM), and `test_deep_sq_on_e8_p2`
        0.69 s instead of 0.03 s.
        """
        return self._walk(self._totals, self._ops, self._cartan, b)

    def _act(self, k, elem):
        """Sq^k (p = 2) or P^k (odd p) of an arbitrary element."""
        out = {}
        for b, c in elem.terms.items():
            add_into(out, self._total(b).get(k, {}), c, self.p)
        return AlgebraElement(self, out)

    def _fill_ops(self):
        """Fill `_ops`: generator degree -> {i: the term dict of Sq^i
        (p = 2) or P^i (odd p) on that generator}, zeros left out.

        The alphas come first: P^0 = id (Sq^1 = delta at p = 2), and
        P^k alpha_{2s-1} = b alpha_{2t-1} from each nonzero b-table entry;
        at p = 2 Sq^{2k} = P^k and Sq^{2k+1} = Sq^1 Sq^{2k}, and the top one,
        Sq^{2s-1} alpha_{2s-1}, is the square that `multiply_basis` reads.
        Then the x_{2t} in order of t, through `_act`, which reads only
        entries already made, so every square is in place before the first
        product of two alphas.  At p = 2 x_{2t} = w^2 with w = zeta_{2s-1},
        t = 2s - 1 (Corollary 4.4; `_zeta`: alphas and smaller x's), so
        Sq^a x_{2t} is (Sq^{a/2} w)^2 for even a and 0 for odd a (the Cartan
        terms pair off).  At odd p x_{2t} = u^{-1} delta(alpha) with
        alpha = alpha_{2t-1}, and P^k Q_0 = Q_0 P^k + Q_1 P^{k-1} with
        Q_1 = P^1 Q_0 - Q_0 P^1 (Milnor, Ann. Math. 1958).  P^1 kills every
        even generator of these models (t + p - 1 never lands back in
        e(G,p)), so

            P^k x_{2t} = u^{-1} delta(P^k alpha - P^1 P^{k-1} alpha),

        which breaks the naive "zero between k = 0 and k = t" rule at (E8,3):
        P^3 x_8 = -x_20.  P^t x_{2t} = x_{2t}^p closes the range.  The
        P^1 P^{k-1} term is zero on the ten computed tables, and a table that
        makes it nonzero is refused: (E8,3) with b_{4,8} = 1, the only way to
        make P^1 P^2 alpha_7 nonzero, at P^2 x_8 (`InvariantError`); (F4,3)
        with b_{4,6} = b_{4,8} = 1, which builds only through the term, by
        `derive_coproducts` (`Inconsistent`).
        """
        p, ops = self.p, self._ops

        def put(i, gen, elem):
            if elem.terms:
                ops.setdefault(gen, {})[i] = elem.terms

        for s in self.r_list:
            put(0, 2 * s - 1, self.alpha(s))
            if p == 2:
                put(1, 2 * s - 1, self.bockstein_table[s])
        for (s, t), e in sorted(self.bst_table.entries.items()):
            if e.value:
                put(2 * e.k if p == 2 else e.k, 2 * s - 1, self.alpha(t).scale(e.value))
                if p == 2:
                    put(2 * e.k + 1, 2 * s - 1, self.bockstein_table[t].scale(e.value))
        for t in self.e_list:
            put(0, 2 * t, self.x(t))
            if p == 2:
                w = self._zeta((t + 1) // 2)
                for a in range(2, 2 * t + 1, 2):
                    half = self._act(a // 2, w)
                    put(a, 2 * t, half * half)
                continue
            alpha = self.alpha(t)
            uinv = self._bockstein_unit_inverse(t)
            for k in range(1, t):
                lower = self._act(1, self._act(k - 1, alpha))
                val = self.bockstein(self._act(k, alpha) - lower).scale(uinv)
                target = t + k * (p - 1)
                if val.terms and not (
                    target in self.e_list and val.terms.keys() == self.x(target).terms.keys()
                ):
                    raise InvariantError(f"P^{k} x_{2*t} is not a generator multiple")
                put(k, 2 * t, val)
            put(t, 2 * t, self.x(t, p))

    def _bockstein_unit_inverse(self, t):
        """u^{-1} for the unit u with delta(alpha_{2t-1}) = u * x_{2t}, at odd p."""
        data = BOCKSTEIN_DATA[(self.group, self.p)][t]
        if len(data) != 1 or data[0][1] != {t: 1} or data[0][0] % self.p == 0:
            raise InvariantError(
                f"delta(alpha_{2*t-1}) of ({self.group},{self.p}) is {data}, "
                f"not a unit multiple of x_{2*t}"
            )
        return inverse(data[0][0], self.p)

    def sq(self, a, elem):
        """Sq^a at p = 2 on an arbitrary element."""
        if self.p != 2:
            raise HopfError("Sq is a p = 2 operation")
        self._own(elem, AlgebraElement)
        if a < 0:
            raise HopfError(f"negative operation index {a}")
        if a == 0:
            return elem
        return self._act(a, elem)

    def reduced_power(self, k, elem):
        self._own(elem, AlgebraElement)
        if k < 0:
            raise HopfError(f"negative operation index {k}")
        if k == 0:
            return elem
        if self.p == 2:
            return self.sq(2 * k, elem)
        return self._act(k, elem)

    # -- tensor-side operations ----------------------------------------------

    def tensor_bockstein(self, tens):
        self._own(tens, TensorElement)
        out = {}
        for (b1, b2), c in tens.terms.items():
            add_into(out, _outer(self._delta(b1), {b2: 1}), c, self.p)
            sign = -c if self.basis_parity(b1) else c
            add_into(out, _outer({b1: 1}, self._delta(b2)), sign, self.p)
        return TensorElement(self, out)

    def tensor_power(self, k, tens):
        """P^k on H ⊗ H (at p = 2 Sq^{2k}, the full Sq-Cartan including odd terms).

        The first call on `tens` builds its whole table {k: P^k tens}
        (`_tensor_powers`), and every later call on it, for any k, is one
        lookup; `tens.terms` must not change after that first call.
        """
        self._own(tens, TensorElement)
        if k < 0:
            raise HopfError(f"negative operation index {k}")
        try:
            powers = tens._powers
        except AttributeError:
            powers = tens._powers = self._tensor_powers(tens.terms)
        return TensorElement(self, powers.get(k, {}))

    def _tensor_powers(self, terms):
        """{k: term dict of P^k (Sq^{2k} at p = 2)} on the tensor with
        `terms`, nonzero entries only: the Cartan product of the two
        factors' memoised `_total` tables, term by term.

        Built once per element: check_suite asks P^k of mu*(g) for every
        k up to the generator's index, and the coproduct fixpoint asks P^k
        of each known phi along every route and of each unknown's basis
        tensor along every outgoing row; one pass over the ten models
        makes 657 calls on 126 elements.  Summing only index k on each call
        instead makes that pass 3-5% slower (minima of 200 alternating
        in-process passes of build, derive and check: 15.0-15.9 ms against
        14.3-15.4 ms, three runs, 2-core x86-64 VM, Python 3.11.7).
        """
        p, step = self.p, 2 if self.p == 2 else 1
        out = {}
        for (b1, b2), c in terms.items():
            right = self._total(b2)
            for i, left in self._total(b1).items():
                for j, other in right.items():
                    if (i + j) % step == 0:
                        add_into(out.setdefault((i + j) // step, {}), _outer(left, other), c, p)
        return {k: v for k, v in out.items() if v}

    # -- coproducts ---------------------------------------------------------------

    def derive_coproducts(self):
        """The reduced coproduct of every odd generator, by one fixpoint.

        mu* is a ring map, so one table `mu` of full generator coproducts,
        keyed by generator degree as `_split` names the generators, fixes
        it everywhere (`_mu_of`).  Each step settles one alpha into the
        partial table (`_settle`).  Routes go first: a pending alpha with an
        input (`COPRODUCT_DATA`) or incoming reduced-power routes, which must
        all agree.  Failing that, the first unique `solve_coproduct`, in
        order of s, among the alphas whose delta is made of generators in
        the table.  The order matters at (E8,3): the solve of alpha_47 is
        `Inconsistent` (the pinned b_{18,24} sign), its route from alpha_35
        is not.  A step that settles nothing raises `UnreachableGenerator`.
        """
        if self._mu is None:
            phi, mu = {}, {}
            while len(phi) < len(self.r_list):
                s, phi[s] = self._next_coproduct(phi, mu)
                self._settle(mu, s, phi[s])
            self._mu = mu
        return {
            s: TensorElement(self, self._mu[2 * s - 1]) - self._primitive(self.alpha(s))
            for s in self.r_list
        }

    def _next_coproduct(self, known, mu):
        """(s, phi(alpha_{2s-1})) for the next pending alpha of the fixpoint."""
        inputs = COPRODUCT_DATA.get((self.group, self.p), {})
        pending = [s for s in self.r_list if s not in known]
        for s in pending:
            routes = [("input", self._coproduct_from_data(inputs[s]))] if s in inputs else []
            for k, src, route in self._incoming_routes(s, known):
                routes.append((f"P^{k} alpha_{2*src-1}", route))
            for name, other in routes[1:]:
                if other != routes[0][1]:
                    raise Inconsistent(
                        f"coproduct routes disagree at alpha_{2*s-1}: {routes[0][0]} vs {name}"
                    )
            if routes:
                return s, routes[0][1]
        for s in pending:
            if self._generators(self.bockstein_table[s]) <= mu.keys():
                try:
                    return s, self._solve(s, known, mu)
                except Underdetermined:
                    pass
        names = ", ".join(f"alpha_{2*s-1}" for s in pending)
        raise UnreachableGenerator(f"{names} of ({self.group},{self.p}): no input, "
                                   "no reduced-power route and no unique solve")

    def _settle(self, mu, s, phi):
        """Enter alpha_{2s-1}, with reduced coproduct `phi`, in the generator
        table `mu`, then each x_{2t} whose ingredients are now there.  At
        p = 2 x_{2t} = w^2 with w = zeta_{2s-1}, t = 2s - 1 (Corollary 4.4),
        built from alphas and smaller x's, so mu*(x_{2t}) = (mu* w)^2; at
        odd p x_{2t} = u^{-1} delta(alpha_{2t-1}) and mu* commutes with
        delta."""
        mu[2 * s - 1] = (self._primitive(self.alpha(s)) + phi).terms
        for t in self.e_list:
            if self.p == 2 and 2 * t not in mu:
                root = self._zeta((t + 1) // 2)
                if self._generators(root) <= mu.keys():
                    root = self._mu_of(root, mu)
                    mu[2 * t] = self._koszul(root, root)
            elif self.p > 2 and t == s:
                odd = TensorElement(self, mu[2 * t - 1])
                mu[2 * t] = self.tensor_bockstein(odd).scale(self._bockstein_unit_inverse(t)).terms

    def _coproduct_from_data(self, data):
        """The sum of coeff * x^xmon ⊗ alpha_s over (coeff, xmon, s) entries
        in the format of `COPRODUCT_DATA`."""
        terms = (tensor(self, c * self.x_monomial(xmon), self.alpha(s)) for c, xmon, s in data)
        return sum(terms, TensorElement(self, {}))

    def _generators(self, elem):
        """The degrees of the generators that occur in `elem`."""
        xs = {2 * t for xexp, _ in elem.terms for t, e in zip(self.e_list, xexp) if e}
        return xs | {2 * s - 1 for _, odds in elem.terms for s in odds}

    def _incoming_routes(self, s, known):
        """Every route to phi(alpha_{2s-1}) through an incoming reduced power.

        For each P^k alpha_{2src-1} = b alpha_{2s-1} with b != 0 and src in
        `known`, naturality gives phi(alpha_{2s-1}) = b^{-1} P^k phi(alpha_{2src-1}).
        Yields (k, src, that tensor) in the order of r(G,p).
        """
        for src in self.r_list:
            e = self.bst_table.entries.get((src, s))
            if e is not None and e.value and src in known:
                binv = inverse(e.value, self.p)
                yield e.k, src, self.tensor_power(e.k, known[src]).scale(binv)

    def _primitive(self, elem):
        """elem ⊗ 1 + 1 ⊗ elem."""
        unit = self.one().terms
        both = add_into(_outer(elem.terms, unit), _outer(unit, elem.terms), 1, self.p)
        return TensorElement(self, both)

    def _mu_of(self, elem, mu):
        """The terms of mu* of `elem` from the generator table `mu`: on each
        basis element, the walk over `mu` with the Koszul product, the same
        walk that `_total` makes for Sq/P.  The ten check suites ask mu* of
        736 basis elements, 112 of them distinct; without the memo
        `_coproducts` one pass over the ten models takes 27% longer (19.6 ms
        against 15.4 ms, in the runs `_tensor_powers` cites).  The memo
        serves the final table only: a partial one (the fixpoint's, or a
        solve's) walks with a fresh memo.
        """
        unit = (self._zero_x, ())
        memo = self._coproducts if mu is self._mu else {unit: {(unit, unit): 1}}
        out = {}
        for b, c in elem.terms.items():
            add_into(out, self._walk(memo, mu, self._koszul, b), c, self.p)
        return out

    def _coproduct(self, b):
        """The terms of mu* of basis element b from the derived table `_mu`,
        memoised in `_coproducts`."""
        return self._walk(self._coproducts, self._mu, self._koszul, b)

    def mu_star(self, elem):
        """The full coproduct mu* of an arbitrary element."""
        self._own(elem, AlgebraElement)
        if self._mu is None:
            self.derive_coproducts()
        return TensorElement(self, self._mu_of(elem, self._mu))

    def phi(self, elem):
        """Reduced coproduct of an arbitrary element."""
        return self.mu_star(elem) - self._primitive(elem)

    # -- the indeterminate-coefficient solver ------------------------------------

    def solve_coproduct(self, s, known):
        """Reproduce phi(alpha_{2s-1}) from delta- and P-compatibility.

        `known` maps other generator indices to their reduced coproducts;
        the rows read nothing else (never `self.phi`), which lets
        `derive_coproducts` take this as its general step.  Returns the
        unique solution or raises Inconsistent/Underdetermined.
        """
        mu = {}
        for t, value in known.items():
            self._settle(mu, t, value)
        return self._solve(s, known, mu)

    def _solve(self, s, known, mu):
        """`solve_coproduct` with `mu` the generator table of `known`.  The
        unknowns are the coefficients of x-monomial ⊗ alpha in degree 2s - 1
        (the Theorem 2 ansatz).  The rows: delta phi(alpha) = phi(delta
        alpha) once `mu` holds every generator in delta alpha (at odd p
        delta alpha_{2s-1} may be u x_{2s}, whose coproduct comes from this
        very alpha); P^k phi(alpha) = b phi(alpha_{2t-1}) for each b-table
        entry with t in `known`; phi(alpha) = each of `_incoming_routes`.
        One `ffpoly.solve` takes every row, keys tagged by group.  Route rows
        are empty inside the fixpoint, which takes routes first (34 solves over
        the ten pairs, 6 of them `Underdetermined` retries, none with a
        route): they serve `solve_coproduct` alone.
        """
        unknowns = []
        bounds = [min(k, s // t + 1) for t, k in zip(self.e_list, self.k_list)]  # t * e <= s
        for xexp in iproduct(*map(range, bounds)):
            s2 = s - sum(t * e for t, e in zip(self.e_list, xexp))
            if s2 != s and s2 in self.r_list:
                unknowns.append((xexp, s2))
        unknowns.sort(key=lambda u: (sum(u[0]), u))
        basis = [TensorElement(self, {((xexp, ()), (self._zero_x, (s2,))): 1})
                 for xexp, s2 in unknowns]
        groups = []  # (the unknowns' left sides, the right side) of each group of rows
        delta = self.bockstein_table[s]
        if self._generators(delta) <= mu.keys():
            rhs = TensorElement(self, self._mu_of(delta, mu)) - self._primitive(delta)
            groups.append(([self.tensor_bockstein(u) for u in basis], rhs))
        for t in self.r_list:
            e = self.bst_table.entries.get((s, t))
            if e is not None and e.value and t in known:
                groups.append(([self.tensor_power(e.k, u) for u in basis], known[t].scale(e.value)))
        for _, _, rhs in self._incoming_routes(s, known):
            groups.append((basis, rhs))
        vectors = [{(g, key): c for g, (lhss, _) in enumerate(groups)
                    for key, c in lhss[j].terms.items()} for j in range(len(basis))]
        target = {(g, key): c for g, (_, rhs) in enumerate(groups) for key, c in rhs.terms.items()}
        solution, free = solve(vectors, target, self.p)
        if solution is None:
            raise Inconsistent("coproduct constraints admit no solution")
        if free:
            raise Underdetermined(free)
        return sum((u.scale(c) for c, u in zip(solution, basis)), TensorElement(self, {}))

    # -- zeta basis -----------------------------------------------------------------

    def zeta_basis(self):
        return {s: self._zeta(s) for s in self.r_list}

    def _zeta(self, s):
        """zeta_{2s-1} of Theorem 4.1 (`ZETA_DATA`), else alpha_{2s-1}."""
        data = ZETA_DATA.get((self.group, self.p), {})
        return self._from_data(data[s]) if s in data else self.alpha(s)

    def basis_dimension(self):
        total = 1
        for k in self.k_list:
            total *= k
        return total * (1 << len(self.r_list))

    def poincare_polynomial(self):
        """Coefficient list of prod (1+q^{2s-1}) prod (1-q^{2tk})/(1-q^{2t}).

        One pass over the list per factor: times 1 + q^d, out[i] = a[i] +
        a[i - d]; times (1 - q^{2tk})/(1 - q^{2t}), out[i] = out[i - 2t] +
        a[i] - a[i - 2tk] (a zero-padded to the length of the product).
        """
        poly = [1]
        for s in self.r_list:
            d = 2 * s - 1
            poly = [x + y for x, y in zip(poly + [0] * d, [0] * d + poly)]
        for t, k in zip(self.e_list, self.k_list):
            step, top = 2 * t, 2 * t * k
            a = poly + [0] * (top - step)
            poly = []
            for i, x in enumerate(a):
                if i >= step:
                    x += poly[i - step]
                    if i >= top:
                        x -= a[i - top]
                poly.append(x)
        return poly

    def __repr__(self):
        return f"HopfModel({self.group}, p={self.p})"


def build_model(group, p, table=None):
    return HopfModel(group, p, table)


# -- the verification suite ----------------------------------------------------


def check_suite(model):
    """Every model-level invariant, one PASS/FAIL per item.

    No item reads the whole basis.  `graded_dimension` is decided on the
    Poincare polynomial prod (1+q^{2s-1}) prod (1-q^{2tk_t})/(1-q^{2t}):
    H*(G;F_p) satisfies Poincare duality for the closed orientable manifold
    G, so the polynomial must be a palindrome whose top degree is dim G.
    A wrong truncation height k_t moves the top degree off dim G.

    Every other item is decided on the generators alpha_{2s-1} and x_{2t}:
    the model extends delta (a derivation), the total Sq / P (a ring map,
    through the Cartan recursion) and mu* (a ring map) from generator
    tables, so each is fixed by its values there.  For mu* that holds
    only if it respects the model's relations: x_{2t}^{k_t} = 0, and
    alpha^2 = its top square Sq^{|alpha|} alpha at p = 2 or 0 at odd p.
    The test `test_mu_star_respects_the_relations` checks this on all ten
    pairs; it is not a suite item, so the report keeps its keys.

    `delta_squared_zero`: delta is an odd derivation, so delta^2 is a
    derivation (the cross terms cancel at odd p and are 2 delta(u)delta(v)
    at p = 2); one that kills every generator kills every product.
    `adem_p1p1_2p2` (odd p): the Cartan formulas for P^1 and P^2 give
    R(uv) = R(u)v + uR(v) for R = P^1P^1 - 2P^2 (R is primitive; Milnor,
    "The Steenrod algebra and its dual", 1958), so again the generators
    decide it.

    Both arguments live in the free graded-commutative algebra on the
    generators and pass to the model only if its relations are closed
    under the operations composed.  For delta this is structural: delta
    kills x-monomials and alpha^2 (both primes).  For P^1 and P^2 the
    item itself checks it: P^k x_{2t}^{k_t} and P^k (alpha * alpha) must
    vanish for k = 1, 2.  Neither relation is a basis element, so each is
    the Cartan product of `_total` of x_{2t}^{k_t - 1} (or of alpha) with
    that generator's `_ops` entry.  The
    whole-basis sweeps of both items are kept as test oracles.

    The coproduct items take mu* of each generator once.  Coassociativity
    reads mu* of each basis element of mu*(g) from the walk memo
    (`_coproduct`).  The Cartan item compares mu*(P^k g) with P^k mu*(g)
    for k = 1..index of g, reading P^k g off the generator's `_total`
    table and P^k mu*(g) off the table that the first `tensor_power` call
    builds on mu*(g).  A coproduct that does not derive (`Inconsistent`,
    `UnreachableGenerator`) fails all three items.

    `squares_via_delta_power` (p = 2) compares the Sq^{2k+1} fill of
    `_fill_ops` with delta: alpha_{2s-1}^2, which the model reads as the
    Sq^{2s-1} entry, Sq^1 of the b-table image, against delta P^{s-1}
    alpha_{2s-1} through `bockstein`.  The printed squares are not an
    input: the Corollary 4.4 zeta^2 claims (`corollary44_zeta_squares`),
    which with `ZETA_DATA` imply each of them, check them, and so does the
    pinned oracle `test_square_table_equals_the_printed_squares`.

    The two printed items (p = 2) decide the ledger's Corollary 4.4 and
    Remark 4.3 claims on the model (`printed.holds`).

    `delta_compatibility` never reaches the Koszul sign term of
    `tensor_bockstein`: every term of a generator's mu* has an x-monomial
    or 1 on the left, where the sign is +1, except alpha ⊗ 1, and delta of
    its right factor 1 is 0.  The tests
    `test_tensor_bockstein_is_the_sum_of_single_bocksteins` and
    `test_mu_star_commutes_with_delta_on_products_of_two_alphas` (the same
    compatibility on every product of two alphas) see that sign.
    """
    report = {}
    p = model.p
    prof = model.profile
    # (index, generator): alpha_{2s-1} with s, then x_{2t} with t
    gens = [(s, model.alpha(s)) for s in model.r_list] + [(t, model.x(t)) for t in model.e_list]

    report["delta_squared_zero"] = all(
        model.bockstein(model.bockstein(g)).is_zero() for _, g in gens
    )

    poincare = model.poincare_polynomial()
    report["graded_dimension"] = poincare == poincare[::-1] and len(poincare) - 1 == prof.dim

    def coassociative(g):
        left, right = {}, {}
        for (b1, b2), c in model.mu_star(g).terms.items():
            mu1 = model._coproduct(b1)
            add_into(left, {(m1, m2, b2): v for (m1, m2), v in mu1.items()}, c, p)
            mu2 = model._coproduct(b2)
            add_into(right, {(b1, m1, m2): v for (m1, m2), v in mu2.items()}, c, p)
        return left == right

    def cartan(idx, g):
        # P^k g off the generator's own total table; mu*(g), and with it
        # its table of P^k on H ⊗ H, once for every k
        (b,) = g.terms
        total = model._total(b)
        mu_g = model.mu_star(g)
        step = 2 if p == 2 else 1
        return all(
            model.mu_star(AlgebraElement(model, total.get(step * k, {})))
            == model.tensor_power(k, mu_g)
            for k in range(1, idx + 1)
        )

    try:
        report["coassociativity"] = all(coassociative(g) for _, g in gens)
    except (Inconsistent, UnreachableGenerator):  # no coproduct: its items fail
        report.update(coassociativity=False, delta_compatibility=False, cartan_compatibility=False)
    else:
        report["delta_compatibility"] = all(
            model.mu_star(model.bockstein(g)) == model.tensor_bockstein(model.mu_star(g))
            for _, g in gens
        )
        report["cartan_compatibility"] = all(cartan(idx, g) for idx, g in gens)

    zetas = model.zeta_basis()
    report["zeta_bockstein"] = all(
        model.bockstein(zetas[s]) == (-model.x(s) if s in prof.e_set else model.zero())
        for s in model.r_list
    )

    if p == 2:
        # alpha_s^2, the Sq^{2s-1} fill, against delta of the Sq^{2s-2} one
        report["squares_via_delta_power"] = all(
            model.alpha(s) * model.alpha(s)
            == model.bockstein(model.reduced_power(s - 1, model.alpha(s)))
            for s in model.r_list
        )

        claims = printed.claims(model.group, p)
        for key, kind in (("corollary44_zeta_squares", "zeta_square"),
                          ("remark43_sq1_values", "sq1")):
            report[key] = all(printed.holds(c, model) for c in claims if c.kind == kind)
    else:
        # x_{2t}^{k_t} and alpha * alpha, each a basis element times a generator
        relations = [(model.x(t, k - 1), 2 * t) for t, k in zip(model.e_list, model.k_list)]
        relations += [(model.alpha(s), 2 * s - 1) for s in model.r_list]
        totals = [model._cartan(model._total(b), model._ops[gen]) for rest, gen in relations
                  for b in rest.terms]
        closed = not any(total.get(k) for total in totals for k in (1, 2))
        report["adem_p1p1_2p2"] = closed and all(
            model.reduced_power(1, model.reduced_power(1, g)) == 2 * model.reduced_power(2, g)
            for _, g in gens
        )

    report["pass"] = all(v for k, v in report.items() if k != "pass")
    return report
