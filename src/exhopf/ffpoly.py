"""Sparse multivariate polynomial arithmetic over a small prime field F_p.

A ring's `RingContext` carries its prime p; coefficients are canonical
residues 0..p-1, and `inverse` is the one modular inverse of the package.
Residues are reduced only in `inverse`, `add_into` (the sum step) and
`mul_into` (the product step, with `shift_into` its one-term form): the
constructors (`constant`, `monomial`, `from_terms`) and the linear
operations (`+`, `-`, negation, scaling by an int) are `add_into` calls.
`solve`, on `add_into` and `inverse`, is the one linear solve: b_{s,t}
(`groebner`) and the coproducts (`hopf`).

Every variable carries a positive integer weight (its half-topological
degree: a degree-2 class has weight 1, a Chern-type class c_k has weight
k) and all grading is by weighted degree.  The term order is graded
reverse lexicographic: weighted degree first, ties broken
reverse-lexicographically along the declaration order of the variables
(the first variable is the smallest).  To order the variables otherwise,
declare them in another order.

A monomial is one int key, the packed-exponent-vector idea of Monagan and
Pearce (CASC 2007).  In an n-variable ring variable i owns the 16-bit
field n-1-i of the packed exponent vector, and

    key(m) = sum_i e_i * (2^(16(n-1-i)) - w_i * 2^(16n))
           = packed(m) - wdeg(m) * 2^(16n).

- Order: ascending keys run from the largest monomial down (weight
  first, then the reverse-lex tie-break), so `min(terms)` is the leading
  monomial and wdeg(m) = -(key >> 16n).  `order_key` is -key.
- Linearity: key(m1 * m2) = key(m1) + key(m2), so a product step is one
  int add and the constant monomial has key 0.  m1 divides m2 when no
  field of ((key(m2) | G) - packed(m1)) borrows from its guard bit, the
  top bit of the field (G: the guard bits of all fields).
- Invariant: no key of any `Polynomial` has weight 2^15 or more.  Weights
  are at least 1, so no exponent reaches its guard bit and no field
  spills into its neighbour.  `ExponentOverflow` enforces it where a
  weight can grow: `key` refuses such a monomial, `Polynomial.__mul__`
  such a product, and `steenrod.power` and `steenrod.total_power` such
  an output, once per call before any work (`symfun.wu_formula`
  likewise).
  `mul_into` itself checks nothing; division never raises a weight.

Exponent tuples exist only at the boundary: `RingContext.key` and
`RingContext.exponents` convert, and construction (`monomial`,
`from_terms`), `parse`, `render` and `substitute` go through them.
`substitute` has two paths: a renaming (every image zero or a distinct
variable) drops each term with a variable sent to zero (`field_masks`) and
re-keys the rest to sum_i e_i * key(image of v_i); other maps multiply out.

Polynomials are immutable value objects; arithmetic always builds fresh
term dictionaries, so instances can be shared freely across threads.  A
term dict, once wrapped, is never mutated: `steenrod` and `symfun` share
term dicts between their memos and the polynomials they return.
"""

import struct
from functools import reduce
from operator import mul

FIELD_BITS = 16
EXPONENT_LIMIT = 1 << (FIELD_BITS - 1)  # weights and exponents stay below the guard bit


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def inverse(a, p):
    """The inverse of a in F_p; raises ZeroDivisionError when a = 0 mod p."""
    a %= p
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in F_{p}")
    return pow(a, p - 2, p)


def add_into(acc, terms, c, p):
    """acc += c * terms over F_p, in place, dropping zero coefficients.

    `acc` and `terms` map keys (monomials, basis elements, tensor keys) to
    residues mod p.  This is the sum step of the package, the one sparse
    F_p linear combination; it returns `acc` so callers can build and wrap
    in one go.
    """
    c %= p
    if c:
        for key, v in terms.items():
            v = (acc.get(key, 0) + c * v) % p
            if v:
                acc[key] = v
            else:
                acc.pop(key, None)
    return acc


def mul_into(acc, a, b, c, p):
    """acc += c * a * b over F_p, in place, dropping zero coefficients.

    `a` and `b` map monomial keys of one ring to residues mod p; the key of
    a product is the sum of the keys.  This is the product step of the
    package: one `shift_into` per term of the smaller factor.  It checks
    no ring and no weight: `Polynomial.__mul__` checks before it calls,
    and every other caller keeps the weight invariant of the module
    docstring itself.  Returns `acc`; `a` and `b` are only read, so they
    may be shared dicts, but neither may be `acc`.
    """
    c %= p
    if c:
        if len(a) > len(b):
            a, b = b, a
        for m1, c1 in a.items():
            shift_into(acc, m1, c1 * c, b, p)
    return acc


def shift_into(acc, key, c, terms, p):
    """acc += c * x^key * terms over F_p, in place: `mul_into` with a
    one-term first factor {key: c}, without building it, and the one loop
    of the package over the terms of a product.

    The Wu resultant (`symfun.WuTable`), whose matrix entries are all one
    term, calls it directly: the 165 formulas of the ten default b-tables
    take 7.9 ms that way and 8.8 ms through `mul_into` (medians of 6
    alternating processes, each the best of 15 passes, 2-core VM, Python
    3.11.7).  The same contract as `mul_into`.
    """
    for m2, c2 in terms.items():
        m = key + m2
        v = (acc.get(m, 0) + c * c2) % p
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
    return acc


def solve(vectors, target, p):
    """(c, free): sum_i c[i] * vectors[i] = target over F_p, free = n - rank.

    Term dicts with any keys.  c is None when the target is outside the
    span, else the solution that is 0 at each vector dependent on earlier
    ones.  Each vector is reduced by the rows kept so far; a remainder is
    scaled to 1 at its first key and kept, with its combination of inputs.
    """
    rows = []  # (pivot key, row terms, combination {input index: coeff})

    def eliminate(terms, comb):
        for key, row, rcomb in rows:
            c = terms.get(key)
            if c:
                add_into(terms, row, -c, p)
                add_into(comb, rcomb, -c, p)
        return terms, comb

    for i, vector in enumerate(vectors):
        terms, comb = eliminate(add_into({}, vector, 1, p), {i: 1})
        if terms:
            key = next(iter(terms))
            inv = inverse(terms[key], p)
            rows.append((key, add_into({}, terms, inv, p), add_into({}, comb, inv, p)))
    rest, comb = eliminate(add_into({}, target, 1, p), {})  # rest = target + sum comb[i] v_i
    c = None if rest else [-comb.get(i, 0) % p for i in range(len(vectors))]
    return c, len(vectors) - len(rows)


class RingMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class ExponentOverflow(ValueError):
    """A weight of 2^15 or more: an exponent could spill out of its packed field."""


class ParseError(ValueError):
    """Polynomial text does not conform to the grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class RingContext:
    """A graded polynomial ring F_p[v_1,...,v_n] with per-variable weights.

    `p` must be a prime below 2**8.  Every (G, p) pair with p-torsion has
    p <= 5, so the bound only turns away moduli that no computation here
    uses; it keeps residues one byte wide and the trial-division primality
    check trivial.  `variables` lists (name, weight) pairs from
    the smallest variable to the largest; the declaration order is the
    reverse-lex tie-break of the monomial order and never affects the
    grading.
    """

    def __init__(self, p, variables):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 256:
            raise ValueError(f"modulus {p} too large (need p < 2**8)")
        self.p = p
        names = tuple(name for name, _ in variables)
        weights = tuple(w for _, w in variables)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if not all(type(w) is int and w > 0 for w in weights):
            raise ValueError(f"variable weights {weights} must be positive ints")
        self.names = names
        self.weights = weights
        self.nvars = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        # the packed keys of the module docstring; coeffs[i] is the key of variable i
        n = self.nvars
        self.shift = FIELD_BITS * n
        top = 1 << self.shift
        self.coeffs = tuple(
            (1 << FIELD_BITS * (n - 1 - i)) - w * top for i, w in enumerate(weights)
        )
        self.mask = top - 1
        # key & field_masks[i] is nonzero exactly when variable i occurs
        self.field_masks = tuple((k & self.mask) * ((1 << FIELD_BITS) - 1) for k in self.coeffs)
        self.guard = sum(EXPONENT_LIMIT << FIELD_BITS * j for j in range(n))
        self._fields = struct.Struct(f">{n}H")
        # every lru_cache keyed on a ring hashes it; hashed once here, `hash`
        # of the E8 restricted ring takes 0.12 us, against 0.33 us rebuilt
        self._hash = hash((p, names, weights))

    # -- monomial keys ---------------------------------------------------

    def key(self, exps):
        """The key of the monomial with exponent tuple `exps`."""
        exps = tuple(exps)
        if len(exps) != self.nvars:
            raise ValueError("exponent tuple has wrong length")
        if min(exps, default=0) < 0:
            raise ValueError(f"negative exponent in {exps}")
        w = sum(map(mul, exps, self.weights))
        if w >= EXPONENT_LIMIT:
            raise ExponentOverflow(f"monomial {exps} has weight {w}, 2^15 or more")
        return sum(map(mul, exps, self.coeffs))

    def exponents(self, key):
        """The exponent tuple of a key."""
        return self._fields.unpack((key & self.mask).to_bytes(self._fields.size, "big"))

    def wdeg(self, key):
        return -(key >> self.shift)

    def order_key(self, key):
        """Sort key realizing weighted grevlex (larger key = larger monomial)."""
        return -key

    def mon_divides(self, k1, k2):
        """True when the monomial of k1 divides that of k2."""
        return ((k2 | self.guard) - (k1 & self.mask)) & self.guard == self.guard

    def mon_lcm(self, k1, k2):
        """The key of the lcm.  It is no term of a `Polynomial`, so its weight
        may reach 2^15: a product that would hold it raises instead."""
        return sum(map(mul, map(max, self.exponents(k1), self.exponents(k2)), self.coeffs))

    # -- element constructors --------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        return Polynomial(self, add_into({}, {0: 1}, c, self.p))

    def variable(self, name):
        if name not in self.index:
            raise ValueError(f"unknown variable {name!r}")
        return Polynomial(self, {self.coeffs[self.index[name]]: 1})

    def monomial(self, exps, coeff=1):
        """Build coeff * prod(v^e) from an exponent tuple."""
        return Polynomial(self, add_into({}, {self.key(exps): 1}, coeff, self.p))

    def from_terms(self, terms):
        """Build a polynomial from an iterable of (exponent tuple, coeff) pairs."""
        acc = {}
        for exps, c in terms:
            add_into(acc, {self.key(exps): 1}, c, self.p)
        return Polynomial(self, acc)

    def parse(self, text):
        return parse(text, self)

    def __eq__(self, other):
        if other is self:
            return True
        return (
            isinstance(other, RingContext)
            and other.p == self.p
            and other.names == self.names
            and other.weights == self.weights
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        vs = ",".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"RingContext(F{self.p}; {vs})"


class Polynomial:
    """Immutable sparse polynomial: a map monomial key -> nonzero residue."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # trusted private dict; never mutated afterwards

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def _weight_range(self):
        """(lowest, highest) weight of the terms: the largest and the smallest key."""
        wdeg = self.ring.wdeg
        return wdeg(max(self.terms)), wdeg(min(self.terms))

    def is_homogeneous(self):
        if not self.terms:
            return True
        lo, hi = self._weight_range()
        return lo == hi

    def weight(self):
        """Weighted degree of a homogeneous polynomial (0 for the zero poly)."""
        if not self.terms:
            return 0
        lo, hi = self._weight_range()
        if lo != hi:
            ws = sorted({self.ring.wdeg(m) for m in self.terms})
            raise ValueError(f"polynomial is not homogeneous (weights {ws})")
        return hi

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Polynomial):
            raise TypeError(f"cannot combine Polynomial with {type(other).__name__}")
        if other.ring != self.ring:
            raise RingMismatchError("operands live in different rings")

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        p = self.ring.p
        return Polynomial(self.ring, add_into(dict(self.terms), other.terms, 1, p))

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, add_into({}, self.terms, -1, self.ring.p))

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        self._check(other)
        return Polynomial(self.ring, add_into(dict(self.terms), other.terms, -1, self.ring.p))

    def __rsub__(self, other):
        return self.ring.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial(self.ring, add_into({}, self.terms, other, self.ring.p))
        self._check(other)
        ring = self.ring
        a, b = self.terms, other.terms
        if not a or not b:
            return Polynomial(ring, {})
        # refuse top weights that sum to 2^15 or more (a key's weight is -(key >> shift))
        if (min(a) >> ring.shift) + (min(b) >> ring.shift) <= -EXPONENT_LIMIT:
            raise ExponentOverflow("product weight is 2^15 or more")
        return Polynomial(ring, mul_into({}, a, b, 1, ring.p))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base2 = base * base if n > 1 else base
            base = base2
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    # -- term access --------------------------------------------------------

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.order_key)

    def monic(self):
        if not self.terms:
            return self
        return self * inverse(self.terms[self.leading_monomial()], self.ring.p)

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping, target_ring=None):
        """Apply the ring homomorphism sending each variable to its image.

        `mapping` maps variable names of this ring to Polynomials in a
        common target ring; every variable occurring in the polynomial must
        be mapped, and each image must be zero or homogeneous of the
        variable's weight.  A renaming over one prime (each image zero or a
        distinct variable) re-keys the terms in one pass: kappa* and the
        E6/E7 thetas at p = 2.  Any other map multiplies out the images.
        """
        src = self.ring
        # a renaming's image key per variable: 0 if zero or unmapped, None if no variable
        rekey = [0] * src.nvars
        dead = 0  # the fields of the variables sent to zero
        for name, img in mapping.items():
            i = src.index.get(name)
            if i is None:
                raise ValueError(f"unknown variable {name!r}")
            if target_ring is None:
                target_ring = img.ring
            elif img.ring is not target_ring and img.ring != target_ring:
                raise RingMismatchError("substitution images live in different rings")
            terms = img.terms
            if not terms:
                dead |= src.field_masks[i]
                continue
            if len(terms) == 1:
                [(key, c)] = terms.items()
                weight = -(key >> target_ring.shift)
                rekey[i] = key if c == 1 and key in target_ring.coeffs else None
            else:
                weight = img.weight()
                rekey[i] = None
            if weight != src.weights[i]:
                raise ValueError(f"image of {name} is not homogeneous of weight {src.weights[i]}")
        if target_ring is None:
            raise ValueError("cannot infer target ring from an empty mapping")
        if len(mapping) < src.nvars:
            for i, name in enumerate(src.names):
                if name not in mapping and any(key & src.field_masks[i] for key in self.terms):
                    raise ValueError(f"variable {name} is not mapped")
        targets, exponents = [k for k in rekey if k], src.exponents
        if None not in rekey and target_ring.p == src.p and len(set(targets)) == len(targets):
            return Polynomial(target_ring, {
                sum(map(mul, exponents(key), rekey)): c
                for key, c in self.terms.items()
                if not key & dead
            })

        acc, images = {}, [mapping.get(name) for name in src.names]
        for key, c in self.terms.items():
            factors = [img ** e for img, e in zip(images, exponents(key)) if e]
            add_into(acc, reduce(mul, factors or [target_ring.one()]).terms, c, target_ring.p)
        return Polynomial(target_ring, acc)

    # -- text ------------------------------------------------------------------

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{render(self)} over F{self.ring.p}>"


# -- canonical text form -----------------------------------------------------
#
# poly   := ['-'] term (('+'|'-') term)*
# term   := coeff ('*' factor)* | factor ('*' factor)*
# factor := var ('^' uint)?
# coeff  := uint          (minus signs live at the poly level; "-1*x" also accepted)
#
# Canonical rendering: terms in descending monomial order, '*' separated
# factors in declaration order, '^1' omitted, coefficient omitted when 1,
# and coefficient p-1 written as a leading '-' when p > 2.


def render(f):
    ring = f.ring
    p = ring.p
    if not f.terms:
        return "0"
    chunks = []
    for key in sorted(f.terms, key=ring.order_key, reverse=True):
        c = f.terms[key]
        negative = p > 2 and c == p - 1
        factors = []
        for i, e in enumerate(ring.exponents(key)):
            if e == 0:
                continue
            factors.append(ring.names[i] if e == 1 else f"{ring.names[i]}^{e}")
        if not factors:
            body = "1" if (c == 1 or negative) else str(c)
        elif c == 1 or negative:
            body = "*".join(factors)
        else:
            body = "*".join([str(c)] + factors)
        chunks.append(("-" if negative else "+") + body)
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
        elif ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


def parse(text, ring):
    """Parse canonical polynomial text in the given ring."""
    tokens = _tokenize(text)
    pos = 0

    def peek():
        return tokens[pos]

    def advance():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_factor():
        kind, val, at = advance()
        if kind != "name":
            raise ParseError(f"expected a variable, got {val!r}", at)
        if val not in ring.index:
            raise ParseError(f"unknown variable {val!r}", at)
        exp = 1
        if peek()[0] == "^":
            advance()
            kind, ev, at2 = advance()
            if kind != "int":
                raise ParseError("expected an integer exponent", at2)
            exp = int(ev)
        return ring.index[val], exp

    def parse_term(sign):
        coeff = 1
        mon = [0] * ring.nvars
        kind, val, at = peek()
        if kind == "-":
            # tolerate "-1*x" style embedded coefficient signs
            advance()
            sign = -sign
            kind, val, at = peek()
            if kind != "int":
                raise ParseError("expected an integer after '-'", at)
        if kind == "int":
            advance()
            coeff = int(val)
            while peek()[0] == "*":
                advance()
                i, e = parse_factor()
                mon[i] += e
        elif kind == "name":
            i, e = parse_factor()
            mon[i] += e
            while peek()[0] == "*":
                advance()
                i, e = parse_factor()
                mon[i] += e
        else:
            raise ParseError(f"expected a term, got {val!r}", at)
        return tuple(mon), sign * coeff

    terms = []
    sign = 1
    if peek()[0] == "-":
        advance()
        sign = -1
    terms.append(parse_term(sign))
    while peek()[0] != "end":
        kind, val, at = advance()
        if kind == "+":
            terms.append(parse_term(1))
        elif kind == "-":
            terms.append(parse_term(-1))
        else:
            raise ParseError(f"expected '+' or '-', got {val!r}", at)
    return ring.from_terms(terms)
