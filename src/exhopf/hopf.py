"""Finite Hopf models of H*(G; F_p) over the Steenrod algebra.

The model is the free module on basis monomials x^r * alpha_S (truncated
x-exponents, squarefree odd part), with the product normalized through
the printed squares at p = 2, the Bockstein and reduced powers extended
from generator tables, and the reduced coproduct propagated from the few
printed values by naturality.  At p = 2 every even generator is a square
of a polynomial in the odd ones, which is what determines the full
Sq-action on the x's; odd squares there rewrite through the square table.

The reduced-power table on the odd generators is the computed b-table
(the first-principles reconstruction), which by construction satisfies
the Adem composites that the printed list omits.
"""

from itertools import product as iproduct

from . import bst as bst_mod
from . import liedata


class HopfError(Exception):
    pass


class UnreachableGenerator(HopfError):
    """A coproduct is neither printed nor derivable from printed actions."""


class Inconsistent(HopfError):
    """The coproduct constraints admit no solution."""


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

# alpha_{2s-1}^2 at p = 2 (everything not listed squares to zero)
SQUARE_DATA = {
    "G2": {2: [(1, {3: 1})]},
    "F4": {2: [(1, {3: 1})]},
    "E6": {2: [(1, {3: 1})]},
    "E7": {2: [(1, {3: 1})], 3: [(1, {5: 1})], 5: [(1, {9: 1})]},
    "E8": {
        2: [(1, {3: 1})],
        3: [(1, {5: 1})],
        5: [(1, {9: 1})],
        8: [(1, {15: 1}), (1, {3: 2, 9: 1})],
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

# Theorem 2: the printed reduced coproducts ((coeff, xmon, target s));
# generators listed with [] are printed primitive, everything else derives
COPRODUCT_DATA = {
    ("G2", 2): {2: []},
    ("F4", 2): {2: [], 8: []},
    ("E6", 2): {2: [], 8: [(1, {3: 1}, 5)]},
    ("E7", 2): {2: [], 8: [(1, {5: 1}, 3), (1, {3: 1}, 5)]},
    ("E8", 2): {2: [], 8: [(1, {5: 1}, 3), (1, {3: 1}, 5), (1, {3: 2}, 2)]},
    ("F4", 3): {2: [], 4: [], 6: [(-1, {4: 1}, 2)]},
    ("E6", 3): {2: [], 4: [], 5: [], 9: [], 6: [(-1, {4: 1}, 2)]},
    ("E7", 3): {
        2: [],
        4: [],
        10: [],
        6: [(-1, {4: 1}, 2)],
        18: [(1, {4: 1}, 14), (1, {4: 2}, 10)],
    },
    ("E8", 3): {
        2: [],
        4: [],
        10: [],
        8: [(-1, {4: 1}, 4)],
        18: [(1, {4: 1}, 14), (1, {4: 2}, 10), (1, {4: 1, 10: 1}, 4), (-1, {10: 1}, 8)],
    },
    ("E8", 5): {
        2: [],
        8: [(2, {6: 1}, 2)],
        14: [(2, {6: 1}, 8), (2, {6: 2}, 2)],
        20: [(3, {6: 1}, 14), (3, {6: 2}, 8), (2, {6: 3}, 2)],
    },
}

# p = 2: each even generator is the square of this element (written as
# (s, xmon-multiplier) summands), which pins the whole Sq-action on it
SQUARE_ROOT_OF_X = {
    3: [(2, {})],
    5: [(3, {})],
    9: [(5, {})],
    15: [(8, {}), (5, {3: 1})],  # x_30 = (alpha_15 + x_6 alpha_9)^2
}


class AlgebraElement:
    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if isinstance(other, int):
            other = self.model.one() * other
        if other.model is not self.model:
            raise HopfError("elements of different models")
        p = self.model.p
        out = dict(self.terms)
        for b, c in other.terms.items():
            v = (out.get(b, 0) + c) % p
            if v:
                out[b] = v
            else:
                out.pop(b, None)
        return AlgebraElement(self.model, out)

    def __neg__(self):
        p = self.model.p
        return AlgebraElement(self.model, {b: p - c for b, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            c = other % self.model.p
            if c == 0:
                return self.model.zero()
            return AlgebraElement(
                self.model, {b: (v * c) % self.model.p for b, v in self.terms.items()}
            )
        return self.model.multiply(self, other)

    __rmul__ = __mul__

    def __pow__(self, n):
        out = self.model.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.model.one() * other
        return self.model is other.model and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def degree(self):
        degs = {self.model.basis_degree(b) for b in self.terms}
        if not degs:
            return 0
        if len(degs) > 1:
            raise HopfError("inhomogeneous element")
        return degs.pop()

    def __repr__(self):
        return f"<{self.model.render_element(self)}>"


class TensorElement:
    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        p = self.model.p
        out = dict(self.terms)
        for k, c in other.terms.items():
            v = (out.get(k, 0) + c) % p
            if v:
                out[k] = v
            else:
                out.pop(k, None)
        return TensorElement(self.model, out)

    def __neg__(self):
        p = self.model.p
        return TensorElement(self.model, {k: p - c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c %= self.model.p
        if c == 0:
            return TensorElement(self.model, {})
        return TensorElement(
            self.model, {k: (v * c) % self.model.p for k, v in self.terms.items()}
        )

    def multiply(self, other):
        """Product in H ⊗ H with the Koszul sign."""
        model = self.model
        p = model.p
        out = TensorElement(model, {})
        for (a, b), c1 in self.terms.items():
            for (c, d), c2 in other.terms.items():
                sign = 1
                if p != 2 and model.basis_parity(b) and model.basis_parity(c):
                    sign = -1
                left = model.multiply_basis(a, c)
                right = model.multiply_basis(b, d)
                if not left or not right:
                    continue
                coeff = (sign * c1 * c2) % p
                acc = {}
                for m1, v1 in left.items():
                    for m2, v2 in right.items():
                        key = (m1, m2)
                        acc[key] = (acc.get(key, 0) + coeff * v1 * v2) % p
                out = out + TensorElement(model, {k: v for k, v in acc.items() if v})
        return out

    def __eq__(self, other):
        return self.model is other.model and self.terms == other.terms

    def __repr__(self):
        bits = []
        for (a, b), c in sorted(self.terms.items()):
            bits.append(f"{c}*{self.model.render_basis(a)}(x){self.model.render_basis(b)}")
        return "<" + " + ".join(bits) + ">" if bits else "<0>"


def tensor(model, u, v):
    """Tensor product of two algebra elements (no sign; used on even input
    or where the caller tracks signs)."""
    out = {}
    p = model.p
    for m1, c1 in u.terms.items():
        for m2, c2 in v.terms.items():
            out[(m1, m2)] = (out.get((m1, m2), 0) + c1 * c2) % p
    return TensorElement(model, {k: v for k, v in out.items() if v})


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
        self.bst_table = table if table is not None else bst_mod.full_table(group, p)
        self._zero_x = (0,) * len(self.e_list)
        self._mul_cache = {}
        self._sq_cache = {}
        self._power_cache = {}
        self._sq_x_table = None
        self._coproducts = None
        self._even_coproducts = None

        self.bockstein_table = {
            s: self._element_from_xdata(BOCKSTEIN_DATA[(group, p)].get(s, []))
            for s in self.r_list
        }
        if p == 2:
            self.square_table = {
                s: self._element_from_xdata(SQUARE_DATA[group].get(s, []))
                for s in self.r_list
            }
            self._build_sq_x_table()
        else:
            self._build_odd_x_table()

    # -- basis plumbing ----------------------------------------------------

    def x_index(self, t):
        return self.e_list.index(t)

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {(self._zero_x, ()): 1})

    def alpha(self, s):
        if s not in self.r_list:
            raise HopfError(f"no generator alpha_{2*s-1} in ({self.group},{self.p})")
        return AlgebraElement(self, {(self._zero_x, (s,)): 1})

    def x(self, t, exp=1):
        if t not in self.e_list:
            raise HopfError(f"no generator x_{2*t} in ({self.group},{self.p})")
        if exp >= self.profile.k_map[t]:
            return self.zero()
        mon = list(self._zero_x)
        mon[self.x_index(t)] = exp
        return AlgebraElement(self, {(tuple(mon), ()): 1})

    def x_monomial(self, xmon):
        mon = list(self._zero_x)
        for t, e in xmon.items():
            if e >= self.profile.k_map[t]:
                return self.zero()
            mon[self.x_index(t)] = e
        return AlgebraElement(self, {(tuple(mon), ()): 1})

    def _element_from_xdata(self, data):
        total = self.zero()
        for coeff, xmon in data:
            total = total + coeff * self.x_monomial(xmon)
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
        """Product of two basis monomials as a dict basis -> coeff."""
        key = (b1, b2)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        x1, s1 = b1
        x2, s2 = b2
        p = self.p
        result = {}
        xsum = self._mul_even_x(x1, x2)
        if xsum is not None:
            common = set(s1) & set(s2)
            if common and p != 2:
                pass  # odd classes square to zero at odd p
            else:
                inv = sum(1 for u in s1 for v in s2 if u > v)
                sign = 1 if (p == 2 or inv % 2 == 0) else p - 1
                merged = tuple(sorted(set(s1) ^ set(s2)))
                work = {(xsum, merged): sign}
                if p == 2:
                    for s in sorted(common):
                        sq = self.square_table[s]
                        new = {}
                        for (xe, od), c in work.items():
                            for (sxe, _), sc in sq.terms.items():
                                comb_x = self._mul_even_x(xe, sxe)
                                if comb_x is None:
                                    continue
                                k2 = (comb_x, od)
                                new[k2] = (new.get(k2, 0) + c * sc) % p
                        work = {k: v for k, v in new.items() if v}
                        if not work:
                            break
                result = work
        self._mul_cache[key] = result
        return result

    def multiply(self, a, b):
        if a.model is not self or b.model is not self:
            raise HopfError("model mismatch")
        p = self.p
        out = {}
        for b1, c1 in a.terms.items():
            for b2, c2 in b.terms.items():
                prod = self.multiply_basis(b1, b2)
                if not prod:
                    continue
                cc = c1 * c2
                for mon, c in prod.items():
                    v = (out.get(mon, 0) + cc * c) % p
                    if v:
                        out[mon] = v
                    else:
                        out.pop(mon, None)
        return AlgebraElement(self, out)

    # -- Bockstein -------------------------------------------------------------

    def bockstein(self, elem):
        out = self.zero()
        for (xexp, odds), c in elem.terms.items():
            for i, s in enumerate(odds):
                delta = self.bockstein_table[s]
                if delta.is_zero():
                    continue
                rest = odds[:i] + odds[i + 1 :]
                sign = c if i % 2 == 0 else (-c) % self.p
                base = AlgebraElement(self, {(xexp, rest): sign})
                out = out + base * delta
        return out

    # -- reduced powers ----------------------------------------------------------

    def power_alpha(self, k, s):
        """P^k alpha_{2s-1} as (coeff, target s) or None."""
        if k == 0:
            return (1, s)
        if k >= s:
            return None
        t = s + k * (self.p - 1)
        if t not in self.r_list:
            return None
        v = self.bst_table.value(s, t)
        return (v, t) if v else None

    def _alpha_power_elem(self, k, s):
        hit = self.power_alpha(k, s)
        if hit is None:
            return self.zero()
        coeff, t = hit
        return coeff * self.alpha(t)

    def _sq_alpha(self, a, s):
        """Sq^a alpha_{2s-1} at p = 2 (odd a via Sq^{2i+1} = Sq^1 Sq^{2i})."""
        if a == 0:
            return self.alpha(s)
        if a % 2 == 0:
            return self._alpha_power_elem(a // 2, s)
        return self.bockstein(self._alpha_power_elem(a // 2, s))

    def _build_sq_x_table(self):
        """Sq^a x_{2t} for every even generator, from its square root."""
        table = {}
        self._sq_x_table = table
        for t in self.e_list:
            root_spec = SQUARE_ROOT_OF_X[t]
            top = 2 * t
            for a in range(1, 2 * top + 1):
                if a % 2 == 1:
                    table[(t, a)] = self.zero()
                    continue
                # Sq^a (w^2) = (Sq^{a/2} w)^2 with w the square root
                w_img = self.zero()
                for s, xmon in root_spec:
                    factor = self.x_monomial(xmon)
                    if factor.is_zero():
                        continue
                    # Cartan over the product xmon * alpha_s
                    half = a // 2
                    acc = self.zero()
                    for i in range(half + 1):
                        left = self._sq_even(i, factor, partial=table)
                        if left.is_zero():
                            continue
                        right = self._sq_alpha(half - i, s)
                        if right.is_zero():
                            continue
                        acc = acc + left * right
                    w_img = w_img + acc
                table[(t, a)] = w_img * w_img

    def _sq_x_power(self, a, t, exp, partial=None):
        """Sq^a (x_{2t}^exp) at p = 2, pairwise Cartan."""
        table = partial if partial is not None else self._sq_x_table
        if exp == 0:
            return self.one() if a == 0 else self.zero()
        if a == 0:
            return self.x(t, exp)
        if exp == 1:
            if a > 4 * t:
                return self.zero()
            return table.get((t, a), self.zero())
        out = self.zero()
        for i in range(min(a, 4 * t) + 1):
            left = self._sq_x_power(i, t, 1, partial)
            if left.is_zero():
                continue
            right = self._sq_x_power(a - i, t, exp - 1, partial)
            if right.is_zero():
                continue
            out = out + left * right
        return out

    def _sq_even(self, a, elem, partial=None):
        """Sq^a of a purely even element at p = 2."""
        out = self.zero()
        for (xexp, odds), c in elem.terms.items():
            assert not odds
            out = out + c * self._sq_basis_factors(
                a, [(t, e) for t, e in zip(self.e_list, xexp) if e], (), partial
            )
        return out

    def _sq_basis_factors(self, a, xfactors, odds, partial=None):
        if not xfactors and not odds:
            return self.one() if a == 0 else self.zero()
        if xfactors:
            (t, e), rest_x = xfactors[0], xfactors[1:]
            out = self.zero()
            for i in range(min(a, 4 * t * e) + 1):
                left = self._sq_x_power(i, t, e, partial)
                if left.is_zero():
                    continue
                right = self._sq_basis_factors(a - i, rest_x, odds, partial)
                if right.is_zero():
                    continue
                out = out + left * right
            return out
        s, rest = odds[0], odds[1:]
        out = self.zero()
        for i in range(min(a, 2 * s - 1) + 1):
            left = self._sq_alpha(i, s)
            if left.is_zero():
                continue
            right = self._sq_basis_factors(a - i, (), rest, partial)
            if right.is_zero():
                continue
            out = out + left * right
        return out

    def sq(self, a, elem):
        """Sq^a at p = 2 on an arbitrary element."""
        if self.p != 2:
            raise HopfError("Sq is a p = 2 operation")
        if a == 0:
            return elem
        out = self.zero()
        for (xexp, odds), c in elem.terms.items():
            key = (a, xexp, odds)
            if key not in self._sq_cache:
                self._sq_cache[key] = self._sq_basis_factors(
                    a, [(t, e) for t, e in zip(self.e_list, xexp) if e], odds
                )
            out = out + c * self._sq_cache[key]
        return out

    def _build_odd_x_table(self):
        """Intermediate reduced powers on the even generators at odd p.

        The generators are Bockstein images, x_{2t} = u^{-1} delta(alpha),
        and in the Steenrod algebra P^k Q_0 = Q_0 P^k + Q_1 P^{k-1}, so

            P^k x_{2t} = u^{-1} [ delta(P^k alpha) + Q_1(P^{k-1} alpha) ]

        with Q_1 = P^1 delta - delta P^1 evaluated through the generator
        tables.  (P^1 vanishes on every even generator of these models:
        t + p - 1 never lands back in e(G,p), so the Q_1 term reduces to
        -delta(P^1 .).)  This is what makes the coproduct propagation and
        delta-compatibility cohere; the naive "zero between k = 0 and
        k = t" rule fails at (E8,3), where P^3 x_8 = -x_20.
        """
        table = {}
        self._x_action_odd = table
        for t in self.e_list:
            s = t  # delta(alpha_{2t-1}) = u * x_{2t} with s = t in e(G,p)
            data = BOCKSTEIN_DATA[(self.group, self.p)][s]
            assert len(data) == 1 and data[0][1] == {t: 1}
            unit = data[0][0] % self.p
            uinv = pow(unit, self.p - 2, self.p)
            for k in range(1, t):
                val = self.bockstein(self._alpha_power_elem(k, s))
                prev = self.power_alpha(k - 1, s)
                if prev is not None:
                    b, w = prev
                    # Q_1(alpha_w) = P^1(delta alpha_w) - delta(P^1 alpha_w)
                    # and the first summand dies (P^1 kills the even part)
                    q1 = -self.bockstein(self._alpha_power_elem(1, w))
                    val = val + b * q1
                val = uinv * val
                if not val.is_zero():
                    target = t + k * (self.p - 1)
                    assert (
                        target in self.e_list
                        and val.terms.keys() == set(self.x(target).terms)
                    ), f"P^{k} x_{2*t} is not a generator multiple"
                    table[(t, k)] = val

    def _power_x(self, k, t, exp):
        """P^k (x_{2t}^exp) at odd p, by pairwise Cartan on the factors."""
        if exp == 0:
            return self.one() if k == 0 else self.zero()
        if k == 0:
            return self.x(t, exp)
        if exp == 1:
            if k > t:
                return self.zero()
            if k == t:
                return self.x(t, self.p)
            return self._x_action_odd.get((t, k), self.zero())
        out = self.zero()
        for i in range(min(k, t) + 1):
            left = self._power_x(i, t, 1)
            if left.is_zero():
                continue
            right = self._power_x(k - i, t, exp - 1)
            if right.is_zero():
                continue
            out = out + left * right
        return out

    def _power_basis(self, k, xfactors, odds):
        if not xfactors and not odds:
            return self.one() if k == 0 else self.zero()
        if xfactors:
            (t, e), rest_x = xfactors[0], xfactors[1:]
            out = self.zero()
            for i in range(min(k, t * e) + 1):
                left = self._power_x(i, t, e)
                if left.is_zero():
                    continue
                right = self._power_basis(k - i, rest_x, odds)
                if right.is_zero():
                    continue
                out = out + left * right
            return out
        s, rest = odds[0], odds[1:]
        out = self.zero()
        for i in range(min(k, s) + 1):
            left = self._alpha_power_elem(i, s)
            if left.is_zero():
                continue
            right = self._power_basis(k - i, (), rest)
            if right.is_zero():
                continue
            out = out + left * right
        return out

    def reduced_power(self, k, elem):
        if k == 0:
            return elem
        if self.p == 2:
            return self.sq(2 * k, elem)
        out = self.zero()
        for (xexp, odds), c in elem.terms.items():
            key = (k, xexp, odds)
            if key not in self._power_cache:
                self._power_cache[key] = self._power_basis(
                    k, [(t, e) for t, e in zip(self.e_list, xexp) if e], odds
                )
            out = out + c * self._power_cache[key]
        return out

    # -- tensor-side operations ----------------------------------------------

    def tensor_bockstein(self, tens):
        out = TensorElement(self, {})
        for (b1, b2), c in tens.terms.items():
            left = self.bockstein(AlgebraElement(self, {b1: c}))
            if not left.is_zero():
                out = out + tensor(self, left, AlgebraElement(self, {b2: 1}))
            sign = -1 if self.basis_parity(b1) else 1
            right = self.bockstein(AlgebraElement(self, {b2: 1}))
            if not right.is_zero():
                out = out + tensor(
                    self, AlgebraElement(self, {b1: (sign * c) % self.p}), right
                )
        return out

    def tensor_power(self, k, tens):
        """P^k on H ⊗ H (at p = 2 the full Sq-Cartan including odd terms)."""
        out = TensorElement(self, {})
        if self.p == 2:
            splits = [(a, 2 * k - a) for a in range(2 * k + 1)]
            op = self.sq
        else:
            splits = [(i, k - i) for i in range(k + 1)]
            op = self.reduced_power
        for (b1, b2), c in tens.terms.items():
            e1 = AlgebraElement(self, {b1: c})
            e2 = AlgebraElement(self, {b2: 1})
            for a, b in splits:
                left = op(a, e1)
                if left.is_zero():
                    continue
                right = op(b, e2)
                if right.is_zero():
                    continue
                out = out + tensor(self, left, right)
        return out

    # -- coproducts ---------------------------------------------------------------

    def _tensor_from_data(self, data):
        out = TensorElement(self, {})
        for coeff, xmon, target in data:
            g = self.x_monomial(xmon)
            out = out + tensor(self, coeff * g, self.alpha(target))
        return out

    def derive_coproducts(self):
        """phi for every odd generator, propagated from the printed seeds.

        Unlisted generators must be reachable as P^k of a lower generator
        with nonzero table coefficient; every available route is computed
        and cross-checked.  Even generators get the coproduct forced by
        mu* being a ring map together with delta/square closure.
        """
        if self._coproducts is not None:
            return self._coproducts
        printed = COPRODUCT_DATA[(self.group, self.p)]
        phi = {}
        even_phi = {}
        self._even_coproducts = even_phi
        items = [("alpha", s, 2 * s - 1) for s in self.r_list] + [
            ("x", t, 2 * t) for t in self.e_list
        ]
        items.sort(key=lambda it: it[2])
        for kind, idx, _deg in items:
            if kind == "alpha":
                s = idx
                routes = []
                if s in printed:
                    routes.append(("printed", self._tensor_from_data(printed[s])))
                for src in self.r_list:
                    if src >= s or src not in phi:
                        continue
                    k = (s - src) // (self.p - 1)
                    if k * (self.p - 1) != s - src or k <= 0:
                        continue
                    hit = self.power_alpha(k, src)
                    if hit is None or hit[1] != s:
                        continue
                    b = hit[0]
                    binv = pow(b, self.p - 2, self.p)
                    routes.append(
                        (f"P^{k} alpha_{2*src-1}",
                         self.tensor_power(k, phi[src]).scale(binv))
                    )
                if not routes:
                    raise UnreachableGenerator(
                        f"alpha_{2*s-1} of ({self.group},{self.p}) has no printed "
                        "coproduct and no reduced-power route"
                    )
                first = routes[0][1]
                for name, other in routes[1:]:
                    if other != first:
                        raise Inconsistent(
                            f"coproduct routes disagree at alpha_{2*s-1}: "
                            f"{routes[0][0]} vs {name}"
                        )
                phi[s] = first
            else:
                t = idx
                even_phi[t] = self._derive_x_coproduct(t, phi, even_phi)
        self._coproducts = phi
        return phi

    def _derive_x_coproduct(self, t, phi, even_phi):
        if self.p == 2:
            # x = w^2: mu*(x) = (mu* w)^2, and char-2 squaring is termwise
            wmu = TensorElement(self, {})
            for s, xmon in SQUARE_ROOT_OF_X[t]:
                factor = self.x_monomial(xmon)
                if factor.is_zero():
                    continue
                fmu = self._mu_of_element(factor, phi, even_phi)
                amu = self._mu_of_alpha(s, phi)
                wmu = wmu + fmu.multiply(amu)
            sq_terms = {}
            for (b1, b2), c in wmu.terms.items():
                left = self.multiply_basis(b1, b1)
                right = self.multiply_basis(b2, b2)
                for m1, v1 in left.items():
                    for m2, v2 in right.items():
                        key = (m1, m2)
                        sq_terms[key] = (sq_terms.get(key, 0) + c * c * v1 * v2) % 2
            full = TensorElement(self, {k: v for k, v in sq_terms.items() if v})
        else:
            # x_{2t} = unit * delta(alpha_{2t-1}); mu* delta = delta_tensor mu*
            s = t
            data = BOCKSTEIN_DATA[(self.group, self.p)][s]
            [(unit, xmon)] = [d for d in data if d[1] == {t: 1}]
            assert len(data) == 1
            amu = self._mu_of_alpha(s, phi)
            full = self.tensor_bockstein(amu).scale(pow(unit, self.p - 2, self.p))
        x_elem = self.x(t)
        [(xb, _)] = x_elem.terms.items()
        unit_b = (self._zero_x, ())
        reduced = dict(full.terms)
        for key in [(xb, unit_b), (unit_b, xb)]:
            v = reduced.get(key, 0) - 1
            if v % self.p:
                reduced[key] = v % self.p
            else:
                reduced.pop(key, None)
        return TensorElement(self, {k: v for k, v in reduced.items() if v})

    def _mu_of_alpha(self, s, phi):
        unit = (self._zero_x, ())
        ab = (self._zero_x, (s,))
        base = TensorElement(self, {(ab, unit): 1, (unit, ab): 1})
        return base + phi[s]

    def _mu_of_x(self, t, exp, phi, even_phi):
        unit = (self._zero_x, ())
        xb = next(iter(self.x(t).terms))
        base = TensorElement(self, {(xb, unit): 1, (unit, xb): 1}) + even_phi[t]
        out = TensorElement(self, {(unit, unit): 1})
        for _ in range(exp):
            out = out.multiply(base)
        return out

    def _mu_of_element(self, elem, phi, even_phi):
        unit = (self._zero_x, ())
        total = TensorElement(self, {})
        for (xexp, odds), c in elem.terms.items():
            part = TensorElement(self, {(unit, unit): c})
            for t, e in zip(self.e_list, xexp):
                if e:
                    part = part.multiply(self._mu_of_x(t, e, phi, even_phi))
            for s in odds:
                part = part.multiply(self._mu_of_alpha(s, phi))
            total = total + part
        return total

    def mu_star(self, elem):
        """The full coproduct mu* of an arbitrary element."""
        phi = self.derive_coproducts()
        return self._mu_of_element(elem, phi, self._even_coproducts)

    def phi(self, elem):
        """Reduced coproduct of an arbitrary element."""
        unit = (self._zero_x, ())
        full = self.mu_star(elem)
        out = dict(full.terms)
        for b, c in elem.terms.items():
            for key in [(b, unit), (unit, b)]:
                v = (out.get(key, 0) - c) % self.p
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return TensorElement(self, out)

    # -- the indeterminate-coefficient solver ------------------------------------

    def solve_coproduct(self, s, known=None):
        """Reproduce phi(alpha_{2s-1}) from delta- and P-compatibility.

        `known` maps other generator indices to their coproducts; when
        omitted, every other generator's derived coproduct is used.
        Returns the unique solution or raises Inconsistent/Underdetermined.
        """
        if known is None:
            known = {k: v for k, v in self.derive_coproducts().items() if k != s}
        else:
            self.derive_coproducts()  # ensure even coproducts exist
        target_deg = 2 * s - 1
        unknowns = []
        for xexp in iproduct(*[range(k) for k in self.k_list]):
            d = sum(2 * t * e for t, e in zip(self.e_list, xexp))
            if d <= 0:
                continue
            for s2 in self.r_list:
                if d + 2 * s2 - 1 == target_deg:
                    unknowns.append((xexp, s2))
        unknowns.sort(key=lambda u: (sum(u[0]), u))
        rows = []

        def add_equations(lhs_per_unknown, rhs):
            keys = set(rhs.terms)
            for te in lhs_per_unknown:
                keys |= set(te.terms)
            for key in sorted(keys):
                row = [te.terms.get(key, 0) % self.p for te in lhs_per_unknown]
                rows.append((row, rhs.terms.get(key, 0) % self.p))

        unit = (self._zero_x, ())

        def unknown_tensor(i):
            xexp, s2 = unknowns[i]
            return TensorElement(self, {((xexp, ()), (self._zero_x, (s2,))): 1})

        # delta-compatibility
        delta_s = self.bockstein_table[s]
        rhs = self.phi(delta_s) if not delta_s.is_zero() else TensorElement(self, {})
        lhss = [self.tensor_bockstein(unknown_tensor(i)) for i in range(len(unknowns))]
        add_equations(lhss, rhs)

        # outgoing powers: P^k alpha_s = b alpha_t with phi(alpha_t) known
        for k in range(1, s):
            hit = self.power_alpha(k, s)
            if hit is None:
                continue
            b, t = hit
            if t not in known:
                continue
            lhss = [self.tensor_power(k, unknown_tensor(i)) for i in range(len(unknowns))]
            add_equations(lhss, known[t].scale(b))

        # incoming powers: P^k alpha_src = b alpha_s with phi(alpha_src) known
        for src in self.r_list:
            if src >= s or src not in known:
                continue
            k = (s - src) // (self.p - 1)
            if k <= 0 or src + k * (self.p - 1) != s:
                continue
            hit = self.power_alpha(k, src)
            if hit is None or hit[1] != s:
                continue
            b = hit[0]
            rhs = self.tensor_power(k, known[src]).scale(pow(b, self.p - 2, self.p))
            lhss = [unknown_tensor(i) for i in range(len(unknowns))]
            add_equations(lhss, rhs)

        solution = _solve_mod_p(rows, len(unknowns), self.p)
        out = TensorElement(self, {})
        for c, (xexp, s2) in zip(solution, unknowns):
            if c:
                out = out + TensorElement(
                    self, {((xexp, ()), (self._zero_x, (s2,))): c}
                )
        return out

    # -- zeta basis -----------------------------------------------------------------

    def zeta_basis(self):
        data = ZETA_DATA.get((self.group, self.p), {})
        out = {}
        for s in self.r_list:
            if s in data:
                total = self.zero()
                for coeff, xmon, src in data[s]:
                    total = total + coeff * (self.x_monomial(xmon) * self.alpha(src))
                out[s] = total
            else:
                out[s] = self.alpha(s)
        return out

    def basis_dimension(self):
        total = 1
        for k in self.k_list:
            total *= k
        return total * (1 << len(self.r_list))

    def poincare_polynomial(self):
        """Coefficient list of prod (1+q^{2s-1}) prod (1-q^{2tk})/(1-q^{2t})."""
        poly = [1]

        def mul(a, b):
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return out

        for s in self.r_list:
            factor = [0] * (2 * s)
            factor[0] = 1
            factor[2 * s - 1] = 1
            poly = mul(poly, factor)
        for t, k in zip(self.e_list, self.k_list):
            factor = [0] * (2 * t * (k - 1) + 1)
            for i in range(k):
                factor[2 * t * i] = 1
            poly = mul(poly, factor)
        return poly

    def __repr__(self):
        return f"HopfModel({self.group}, p={self.p})"


def _solve_mod_p(rows, n, p):
    """Solve the linear system over F_p; unique solution or raise."""
    mat = [list(r) + [v] for r, v in rows if any(r) or v]
    pivots = []
    col = 0
    r = 0
    for col in range(n):
        pivot = None
        for i in range(r, len(mat)):
            if mat[i][col] % p:
                pivot = i
                break
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = pow(mat[r][col], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(mat)):
        if mat[i][n] % p:
            raise Inconsistent("coproduct constraints admit no solution")
    if len(pivots) < n:
        raise Underdetermined(n - len(pivots))
    solution = [0] * n
    for i, col in enumerate(pivots):
        solution[col] = mat[i][n] % p
    return solution


def build_model(group, p, table=None):
    return HopfModel(group, p, table)


# -- the verification suite ----------------------------------------------------


def check_suite(model):
    """Every model-level invariant, one PASS/FAIL per item."""
    report = {}
    p = model.p
    prof = model.profile

    basis = list(model.basis_elements())
    report["delta_squared_zero"] = all(
        model.bockstein(model.bockstein(AlgebraElement(model, {b: 1}))).is_zero()
        for b in basis
    )

    census = {}
    for b in basis:
        census[model.basis_degree(b)] = census.get(model.basis_degree(b), 0) + 1
    poincare = model.poincare_polynomial()
    ok = len(poincare) - 1 == max(census) and all(
        census.get(d, 0) == c for d, c in enumerate(poincare)
    )
    report["graded_dimension"] = ok and sum(census.values()) == model.basis_dimension()

    phi = model.derive_coproducts()
    gens = [("alpha", s) for s in model.r_list] + [("x", t) for t in model.e_list]

    def gen_elem(kind, idx):
        return model.alpha(idx) if kind == "alpha" else model.x(idx)

    coassoc = True
    for kind, idx in gens:
        g = gen_elem(kind, idx)
        mu = model.mu_star(g)
        left = {}
        right = {}
        for (b1, b2), c in mu.terms.items():
            for (m1, m2), c2 in model.mu_star(AlgebraElement(model, {b1: c})).terms.items():
                key = (m1, m2, b2)
                left[key] = (left.get(key, 0) + c2) % p
            for (m1, m2), c2 in model.mu_star(AlgebraElement(model, {b2: c})).terms.items():
                key = (b1, m1, m2)
                right[key] = (right.get(key, 0) + c2) % p
        left = {k: v for k, v in left.items() if v}
        right = {k: v for k, v in right.items() if v}
        if left != right:
            coassoc = False
            break
    report["coassociativity"] = coassoc

    delta_ok = True
    for kind, idx in gens:
        g = gen_elem(kind, idx)
        if model.mu_star(model.bockstein(g)) != model.tensor_bockstein(model.mu_star(g)):
            delta_ok = False
            break
    report["delta_compatibility"] = delta_ok

    cartan_ok = True
    for kind, idx in gens:
        g = gen_elem(kind, idx)
        top = idx if kind == "alpha" else idx
        for k in range(1, top + 1):
            if model.mu_star(model.reduced_power(k, g)) != model.tensor_power(
                k, model.mu_star(g)
            ):
                cartan_ok = False
                break
        if not cartan_ok:
            break
    report["cartan_compatibility"] = cartan_ok

    zetas = model.zeta_basis()
    zeta_ok = True
    for s in model.r_list:
        expect = -model.x(s) if s in prof.e_set else model.zero()
        if model.bockstein(zetas[s]) != expect:
            zeta_ok = False
            break
    report["zeta_bockstein"] = zeta_ok

    if p == 2:
        sq_ok = True
        for s in model.r_list:
            square = model.alpha(s) * model.alpha(s)
            via_op = model.bockstein(model.reduced_power(s - 1, model.alpha(s)))
            table_val = model.square_table[s]
            if square != via_op or square != table_val:
                sq_ok = False
                break
        report["squares_via_delta_power"] = sq_ok

        cor44 = {2: model.x(3)}
        if model.group in ("E7", "E8"):
            cor44[3] = model.x(5)
            cor44[5] = model.x(9)
        if model.group == "E8":
            cor44[8] = model.x(15)
            cor44[12] = model.x(3, 6) * model.x(5)
        z_ok = True
        for s in model.r_list:
            zsq = zetas[s] * zetas[s]
            if zsq != cor44.get(s, model.zero()):
                z_ok = False
                break
        report["corollary44_zeta_squares"] = z_ok

        remark43 = {}
        a = model.alpha
        if model.group in ("E7", "E8"):
            remark43[8] = a(2) ** 2 * a(3) ** 2
            remark43[14] = a(3) ** 2 * a(5) ** 2
        if model.group == "E7":
            remark43[12] = a(2) ** 2 * a(5) ** 2
        if model.group == "E8":
            remark43[12] = a(2) ** 2 * a(5) ** 2 + a(2) ** 8
            remark43[15] = a(8) ** 2
        r43 = all(model.bockstein(a(s)) == val for s, val in remark43.items())
        report["remark43_sq1_values"] = r43
    else:
        adem_ok = True
        for b in basis:
            e = AlgebraElement(model, {b: 1})
            lhs = model.reduced_power(1, model.reduced_power(1, e))
            if lhs != 2 * model.reduced_power(2, e):
                adem_ok = False
                break
        report["adem_p1p1_2p2"] = adem_ok

    report["pass"] = all(v for k, v in report.items() if k != "pass")
    return report
