"""Degree-truncated Buchberger engine and normal forms over F_p.

All ideals handled here are homogeneous in the weighted grading, which is
what makes degree truncation sound: S-pairs whose lcm weight exceeds the
truncation bound can never influence normal forms at or below it, so they
are discarded.  Pairs are processed in the normal strategy (smallest lcm
weight first) with the product and chain criteria.

Division picks each next leading term from a heap, as in Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007): every monomial is keyed once, when it
first enters the working polynomial, and a term that cancels is skipped
when its stale heap entry surfaces.  A division step therefore costs a
logarithm in the number of live terms instead of a rescan of all of them.

A heap key is (-wdeg(m), m), which is `descending_key(m)`.  Each divisor
is stored as its leading monomial lm and a tail of (gm, gc, offset)
triples, offset = wdeg(gm) - wdeg(lm), built once per basis element
(`_divisor`).  The term gm * (m / lm) that a step adds has weight
wdeg(m) + offset, so its key is the popped key minus the offset: the
loop never sums a weight, and the keys stay exact when a divisor or the
dividend is inhomogeneous.

Bases are completed to reduced form (monic, inter-reduced, sorted), so
identical inputs always produce bit-identical bases and remainders.
"""

import heapq

from .ffpoly import Polynomial, inverse


class GroebnerError(Exception):
    pass


class NoSolution(GroebnerError):
    """No scalar makes the residue vanish; the theta data is inconsistent."""


class Ambiguous(GroebnerError):
    """The pivot lies in the ideal, so the scalar is not determined."""


class DegenerateBasis(GroebnerError):
    """A minimal basis element reduced to zero against the others."""


class ReductionResult:
    """The remainder of a division by a basis.

    Division tracks no quotient: the pipeline only ever asks for the
    remainder, and the traced benchmark sizes `normal_form` by it.
    """

    __slots__ = ("remainder",)

    def __init__(self, remainder):
        self.remainder = remainder


class GroebnerBasis:
    def __init__(self, ring, truncation, basis):
        self.ring = ring
        self.truncation = truncation
        self.basis = list(basis)
        self._divisors = [_divisor(g, ring) for g in self.basis]

    def __len__(self):
        return len(self.basis)


def _divisor(g, ring):
    """A monic g as division reads it: (lm, [(gm, gc, wdeg(gm) - wdeg(lm))])."""
    lm = g.leading_monomial()
    w = ring.wdeg(lm)
    return lm, [(gm, gc, ring.wdeg(gm) - w) for gm, gc in g.terms.items() if gm != lm]


def _reduce_terms(terms, divisors, ring):
    """Full division of a term dict by monic `_divisor`s; returns the remainder dict.

    Each step divides the leading term of `work` by the first divisor whose
    leading monomial divides it.  Leading terms come off a min-heap of
    `descending_key`s, (-wdeg(m), m).  A monomial is pushed only when it
    first enters `work`: every term a step adds is smaller than the term it
    divides, so a popped monomial never returns, and one that cancelled
    before its pop is simply skipped.  A pushed term gm * (m / lm) has
    weight wdeg(m) plus the tail offset of gm, so its key is found by one
    subtraction and no weight is summed inside the loop.
    """
    p = ring.p
    divides, div, mul = ring.mon_divides, ring.mon_div, ring.mon_mul
    work = dict(terms)
    heap = [ring.descending_key(m) for m in work]
    heapq.heapify(heap)
    pushed = set(work)
    remainder = {}
    while heap:
        negw, m = heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue  # cancelled after it was pushed
        for lm, tail in divisors:
            if divides(lm, m):
                shift = div(m, lm)
                for gm, gc, offset in tail:
                    mm = mul(gm, shift)
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                        if mm not in pushed:
                            pushed.add(mm)
                            heapq.heappush(heap, (negw - offset, mm))
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder


def buchberger(gens, truncation=None, ring=None):
    """Compute a (possibly degree-truncated) reduced Groebner basis.

    Generators must be homogeneous; `truncation`, when given, must be at
    least the largest generator weight.  With truncation d, the returned
    basis gives normal forms valid for all inputs of weight <= d.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("empty generator list needs an explicit ring")
        ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators live in different rings")
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
    if truncation is not None and gens:
        top = max(g.weight() for g in gens)
        if truncation < top:
            raise ValueError(
                f"truncation {truncation} below maximal generator weight {top}"
            )

    key = ring.order_key
    basis = []
    divisors = []  # (lm, tail) of each basis element, see `_divisor`
    pair_heap = []
    processed = set()

    def push_pairs(j):
        lmj = divisors[j][0]
        for i in range(j):
            lcm = ring.mon_lcm(divisors[i][0], lmj)
            w = ring.wdeg(lcm)
            if truncation is not None and w > truncation:
                continue
            heapq.heappush(pair_heap, (w, key(lcm), i, j))

    def add(h):
        h = h.monic()
        basis.append(h)
        divisors.append(_divisor(h, ring))
        push_pairs(len(basis) - 1)

    for g in sorted(gens, key=lambda f: (f.weight(), key(f.leading_monomial()))):
        rem = _reduce_terms(g.terms, divisors, ring)
        if rem:
            add(Polynomial(ring, rem))

    while pair_heap:
        w, lcmkey, i, j = heapq.heappop(pair_heap)
        if (i, j) in processed:
            continue
        processed.add((i, j))
        lmi, lmj = divisors[i][0], divisors[j][0]
        lcm = ring.mon_lcm(lmi, lmj)
        if lcm == ring.mon_mul(lmi, lmj):
            continue  # coprime leading monomials (product criterion)
        skip = False
        for k2 in range(len(basis)):
            if k2 in (i, j):
                continue
            if ring.mon_divides(divisors[k2][0], lcm):
                a = (min(i, k2), max(i, k2))
                b = (min(j, k2), max(j, k2))
                if a in processed and b in processed:
                    skip = True  # chain criterion
                    break
        if skip:
            continue
        # both basis elements are monic
        fi = Polynomial(ring, basis[i].terms)
        fj = Polynomial(ring, basis[j].terms)
        si = fi * ring.monomial(ring.mon_div(lcm, lmi))
        sj = fj * ring.monomial(ring.mon_div(lcm, lmj))
        rem = _reduce_terms((si - sj).terms, divisors, ring)
        if rem:
            add(Polynomial(ring, rem))

    return _finalize(ring, truncation, basis, divisors)


def _finalize(ring, truncation, basis, divisors):
    # drop redundant leading monomials deterministically
    lms = [lm for lm, _ in divisors]
    order = sorted(range(len(basis)), key=lambda i: (basis[i].weight(), ring.order_key(lms[i])))
    kept = []
    for i in order:
        if any(ring.mon_divides(lms[j], lms[i]) for j in kept):
            continue
        kept.append(i)
    # inter-reduce tails against the other elements
    reduced = []
    for n, i in enumerate(kept):
        others = [divisors[j] for j in kept[:n] + kept[n + 1 :]]
        rem = _reduce_terms(basis[i].terms, others, ring)
        h = Polynomial(ring, rem)
        if h.is_zero():
            raise DegenerateBasis("minimal basis element reduced to zero")
        reduced.append(h.monic())
    reduced.sort(key=lambda f: (f.weight(), ring.order_key(f.leading_monomial())))
    return GroebnerBasis(ring, truncation, reduced)


def normal_form(f, gb):
    """Remainder of f on division by the basis (unique for the ring order)."""
    if f.ring != gb.ring:
        raise ValueError("polynomial and basis live in different rings")
    if gb.truncation is not None:
        for m in f.terms:
            if gb.ring.wdeg(m) > gb.truncation:
                raise ValueError(
                    f"input weight {gb.ring.wdeg(m)} exceeds truncation {gb.truncation}"
                )
    rem = _reduce_terms(f.terms, gb._divisors, gb.ring)
    return ReductionResult(Polynomial(gb.ring, rem))


def solve_linear_coefficient(lhs, pivot, gb):
    """The unique a in F_p with NF(lhs - a*pivot) = 0.

    Implemented as two reductions and a proportionality solve; raises
    NoSolution when no scalar works and Ambiguous when the pivot itself
    reduces to zero (it then lies in the ideal and a is undetermined).
    """
    if not lhs.is_zero() and not pivot.is_zero():
        if lhs.weight() != pivot.weight():
            raise ValueError("lhs and pivot must be homogeneous of equal weight")
    r1 = normal_form(lhs, gb).remainder
    r2 = normal_form(pivot, gb).remainder
    if r2.is_zero():
        if r1.is_zero():
            raise Ambiguous("pivot reduces to zero; solution is not unique")
        raise NoSolution("pivot reduces to zero but the left side does not")
    if r1.is_zero():
        return 0
    m1 = r1.leading_monomial()
    m2 = r2.leading_monomial()
    if m1 != m2:
        raise NoSolution("residues are not proportional")
    p = gb.ring.p
    a = (r1.terms[m1] * inverse(r2.terms[m2], p)) % p
    if r1 - a * r2 != gb.ring.zero():
        raise NoSolution("residues are not proportional")
    return a
