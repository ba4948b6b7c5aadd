"""Sparse multivariate polynomial arithmetic over small prime fields.

A monomial is a dense tuple of non-negative exponents, one slot per ring
variable.  Every variable carries a positive integer weight (its
half-topological degree: a degree-2 class has weight 1, a Chern-type
class c_k has weight k) and all grading is by weighted degree.  The term
order is graded reverse lexicographic: weighted degree first, ties broken
reverse-lexicographically along a precedence permutation of the
variables (declaration order by default, first variable smallest).

Polynomials are immutable value objects; arithmetic always builds fresh
term dictionaries, so instances can be shared freely across threads.
"""

from functools import reduce


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class RingMismatchError(ValueError):
    """Operands belong to different ring contexts."""


class ParseError(ValueError):
    """Polynomial text does not conform to the grammar."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class PrimeField:
    """The field F_p for a prime p < 2**8, canonical residues 0..p-1."""

    __slots__ = ("p",)

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        if p >= 256:
            raise ValueError(f"modulus {p} too large (need p < 2**8)")
        self.p = p

    def normalize(self, a):
        return a % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RingContext:
    """A graded polynomial ring F_p[v_1,...,v_n] with per-variable weights.

    `precedence` is a permutation of variable indices listed from the
    smallest to the largest variable; it only affects the reverse-lex
    tie-break of the monomial order, never the grading.
    """

    def __init__(self, field, variables, precedence=None):
        if isinstance(field, int):
            field = PrimeField(field)
        self.field = field
        names = tuple(name for name, _ in variables)
        weights = tuple(int(w) for _, w in variables)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        if any(w <= 0 for w in weights):
            raise ValueError("variable weights must be positive")
        self.names = names
        self.weights = weights
        self.nvars = len(names)
        self.index = {name: i for i, name in enumerate(names)}
        if precedence is None:
            precedence = tuple(range(self.nvars))
        else:
            precedence = tuple(precedence)
            if sorted(precedence) != list(range(self.nvars)):
                raise ValueError("precedence must be a permutation of variable indices")
        self.precedence = precedence
        self._zero_mon = (0,) * self.nvars

    # -- monomial helpers ------------------------------------------------

    def wdeg(self, mon):
        return sum(e * w for e, w in zip(mon, self.weights))

    def order_key(self, mon):
        """Sort key realizing weighted grevlex (larger key = larger monomial)."""
        return (self.wdeg(mon), tuple(-mon[i] for i in self.precedence))

    def descending_key(self, mon):
        """The reverse of `order_key`: larger key = smaller monomial.

        Every component of `order_key` is negated, so ascending keys list
        monomials from the largest down and a min-heap pops the leading one.
        """
        return (-self.wdeg(mon), tuple(mon[i] for i in self.precedence))

    def mon_mul(self, m1, m2):
        return tuple(a + b for a, b in zip(m1, m2))

    def mon_divides(self, m1, m2):
        """True when m1 divides m2."""
        return all(a <= b for a, b in zip(m1, m2))

    def mon_div(self, m1, m2):
        """m1 / m2, assuming divisibility."""
        return tuple(a - b for a, b in zip(m1, m2))

    def mon_lcm(self, m1, m2):
        return tuple(max(a, b) for a, b in zip(m1, m2))

    # -- element constructors --------------------------------------------

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return self.constant(1)

    def constant(self, c):
        c = self.field.normalize(c)
        if c == 0:
            return Polynomial(self, {})
        return Polynomial(self, {self._zero_mon: c})

    def variable(self, which):
        if isinstance(which, str):
            if which not in self.index:
                raise ValueError(f"unknown variable {which!r}")
            which = self.index[which]
        mon = [0] * self.nvars
        mon[which] = 1
        return Polynomial(self, {tuple(mon): 1})

    def monomial(self, exps, coeff=1):
        """Build coeff * prod(v^e) from a name->exponent mapping or tuple."""
        if isinstance(exps, dict):
            mon = [0] * self.nvars
            for name, e in exps.items():
                mon[self.index[name]] = e
            exps = tuple(mon)
        else:
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError("exponent tuple has wrong length")
        c = self.field.normalize(coeff)
        if c == 0:
            return self.zero()
        return Polynomial(self, {exps: c})

    def from_terms(self, terms):
        """Build a polynomial from an iterable of (monomial, coeff) pairs."""
        acc = {}
        for mon, c in terms:
            mon = tuple(mon)
            c = (acc.get(mon, 0) + c) % self.field.p
            if c:
                acc[mon] = c
            else:
                acc.pop(mon, None)
        return Polynomial(self, acc)

    def with_precedence(self, precedence):
        return RingContext(self.field, list(zip(self.names, self.weights)), precedence)

    def parse(self, text):
        return parse(text, self)

    def __eq__(self, other):
        return (
            isinstance(other, RingContext)
            and other.field == self.field
            and other.names == self.names
            and other.weights == self.weights
            and other.precedence == self.precedence
        )

    def __hash__(self):
        return hash((self.field, self.names, self.weights, self.precedence))

    def __repr__(self):
        vs = ",".join(f"{n}:{w}" for n, w in zip(self.names, self.weights))
        return f"RingContext(F{self.field.p}; {vs})"


class Polynomial:
    """Immutable sparse polynomial: a map monomial -> nonzero residue."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms  # trusted private dict; never mutated afterwards

    # -- predicates -------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        it = iter(self.terms)
        try:
            w = self.ring.wdeg(next(it))
        except StopIteration:
            return True
        return all(self.ring.wdeg(m) == w for m in it)

    def weight(self):
        """Weighted degree of a homogeneous polynomial (0 for the zero poly)."""
        if not self.terms:
            return 0
        ws = {self.ring.wdeg(m) for m in self.terms}
        if len(ws) > 1:
            raise ValueError(f"polynomial is not homogeneous (weights {sorted(ws)})")
        return ws.pop()

    def homogeneous_components(self):
        comps = {}
        for m, c in self.terms.items():
            comps.setdefault(self.ring.wdeg(m), {})[m] = c
        return {w: Polynomial(self.ring, d) for w, d in sorted(comps.items())}

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
        p = self.ring.field.p
        out = dict(self.terms)
        for m, c in other.terms.items():
            v = (out.get(m, 0) + c) % p
            if v:
                out[m] = v
            else:
                out.pop(m, None)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self):
        p = self.ring.field.p
        return Polynomial(self.ring, {m: p - c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ring.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ring.constant(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            c = self.ring.field.normalize(other)
            if c == 0:
                return self.ring.zero()
            if c == 1:
                return self
            p = self.ring.field.p
            return Polynomial(self.ring, {m: (a * c) % p for m, a in self.terms.items()})
        self._check(other)
        p = self.ring.field.p
        out = {}
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        for m1, c1 in small.items():
            for m2, c2 in big.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                v = (out.get(m, 0) + c1 * c2) % p
                if v:
                    out[m] = v
                else:
                    out.pop(m, None)
        return Polynomial(self.ring, out)

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

    def items_sorted(self):
        """Terms in descending monomial order (the canonical iteration order)."""
        key = self.ring.order_key
        return [(m, self.terms[m]) for m in sorted(self.terms, key=key, reverse=True)]

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=self.ring.order_key)

    def leading_coeff(self):
        return self.terms[self.leading_monomial()]

    def monic(self):
        if not self.terms:
            return self
        inv = self.ring.field.inv(self.leading_coeff())
        return self * inv

    def coeff(self, mon):
        return self.terms.get(tuple(mon), 0)

    # -- substitution --------------------------------------------------------

    def substitute(self, mapping, target_ring=None, check_weights=True):
        """Apply the ring homomorphism sending each variable to its image.

        `mapping` maps variable names (or indices) of this ring to
        Polynomials in a common target ring; every variable occurring in
        the polynomial must be mapped, and each image must be zero or
        homogeneous of the variable's weight.  Pass check_weights=False
        for deliberately inhomogeneous substitutions such as the total
        Steenrod operation.
        """
        images = [None] * self.ring.nvars
        for key, img in mapping.items():
            idx = self.ring.index[key] if isinstance(key, str) else key
            images[idx] = img
        for img in images:
            if img is not None and target_ring is None:
                target_ring = img.ring
        if target_ring is None:
            raise ValueError("cannot infer target ring from an empty mapping")
        for i, img in enumerate(images):
            if img is None:
                continue
            if img.ring != target_ring:
                raise RingMismatchError("substitution images live in different rings")
            if check_weights and not img.is_zero() and img.weight() != self.ring.weights[i]:
                raise ValueError(
                    f"image of {self.ring.names[i]} is not homogeneous of weight "
                    f"{self.ring.weights[i]}"
                )
        used = set()
        for mon in self.terms:
            for i, e in enumerate(mon):
                if e:
                    used.add(i)
        for i in sorted(used):
            if images[i] is None:
                raise ValueError(f"variable {self.ring.names[i]} is not mapped")
        pow_cache = {}

        def var_power(i, e):
            key = (i, e)
            if key not in pow_cache:
                pow_cache[key] = images[i] ** e
            return pow_cache[key]

        total = target_ring.zero()
        for mon, c in self.terms.items():
            factors = [var_power(i, e) for i, e in enumerate(mon) if e]
            term = reduce(lambda a, b: a * b, factors, target_ring.constant(c))
            total = total + term
        return total

    # -- text ------------------------------------------------------------------

    def render(self):
        return render(self)

    def __str__(self):
        return render(self)

    def __repr__(self):
        return f"<{render(self)} over F{self.ring.field.p}>"


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
    p = ring.field.p
    if not f.terms:
        return "0"
    chunks = []
    for mon, c in f.items_sorted():
        negative = p > 2 and c == p - 1
        factors = []
        for i, e in enumerate(mon):
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
