"""Degree-truncated Buchberger engine and normal forms over F_p.

All ideals handled here are homogeneous in the weighted grading, which is
what makes degree truncation sound: S-pairs whose lcm weight exceeds the
truncation bound can never influence normal forms at or below it, so they
are discarded.  Pairs are processed in the normal strategy (smallest lcm
weight first) with the product and chain criteria.

Division picks each next leading term from a heap, as in Monagan and
Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007).  A key is on the heap once: it is pushed
when its monomial first enters the working polynomial, and a term that
cancels waits there as 0 until its own pop, which skips it.  A division
step therefore costs a logarithm in the number of live terms instead of
a rescan of all of them, and each tail term one dict get and one store:
divisors keep their tail coefficients negated, so a step only adds.
Replaying the 221 `_divide` calls of one cold `crosscheck` pass (best of
40, two runs, 2-core VM, Python 3.11.7) takes 6.8-7.4 ms, against
9.4-10.1 ms with a separate set of pushed keys, cancelled keys deleted
from the working dict and each tail coefficient negated at every step.

Monomials are the int keys of `ffpoly`, linear in the exponents, so the
term gm * (m / lm) that a division step adds has key m + gm - lm: each
divisor stores those deltas once (`_divisor`), and a step costs one int
add per tail term.  lm divides m when the guard-bit test of
`RingContext.mon_divides` passes, which the loop inlines.

Bases are completed to reduced form (monic, inter-reduced, sorted), so
identical inputs always produce bit-identical bases and remainders.

A basis can be extended: `buchberger(gens, d, base=G)`, with G the reduced
d0-truncated basis of an ideal I and d >= d0, returns the reduced
d-truncated basis of I + <gens>.  Every S-pair of G whose lcm weighs at
most d0 is settled without being formed.  Its S-polynomial already reduces
to zero by G, which is a standard representation, and that stays one as
the basis grows, so the pair also serves the chain criterion.  Only the
pairs of G with lcm weight in (d0, d] and the pairs with a new element are
formed.  An element of G stays reduced unless a new element weighs no more
than it does; in a chain of columns the new generator NF(theta_r) weighs
d0 = r, so the elements of G of weight d0 are divided again.  The reduced
d-truncated basis of a homogeneous ideal is unique, so the extension equals
the build from scratch term for term; a build from scratch is the
extension of the empty basis, through the same loop.
"""

import heapq

from .ffpoly import Polynomial, solve


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
    `weights` is the (lowest, highest) weight of the dividend's terms, read
    off their keys, or None for a zero dividend.
    """

    __slots__ = ("remainder", "weights")

    def __init__(self, remainder, weights):
        self.remainder = remainder
        self.weights = weights


class GroebnerBasis:
    def __init__(self, ring, truncation, basis):
        self.ring = ring
        self.truncation = truncation
        self.basis = list(basis)
        self._divisors = [_divisor(g, ring) for g in self.basis]
        self.stats = None  # S-pair counts, set by `buchberger`

    def __len__(self):
        return len(self.basis)


def _divisor(g, ring):
    """A monic g as division reads it: (lm, packed(lm), [(gm - lm, p - gc)]).

    Each tail coefficient is stored negated, so a division step adds
    c * (p - gc) where it would subtract c * gc; gc is a nonzero residue,
    so p - gc is one too.
    """
    lm = g.leading_monomial()
    p = ring.p
    tail = [(gm - lm, p - gc) for gm, gc in g.terms.items() if gm != lm]
    return lm, lm & ring.mask, tail


def _divide(terms, divisors, ring):
    """Full division of a term dict by monic `_divisor`s; the remainder dict.

    Each step divides the leading term of the working copy of `terms` by
    the first divisor whose leading monomial divides it.  Leading terms
    come off a min-heap of keys, and a key is on the heap once: it is
    pushed when it first enters the working dict, and a term that cancels
    waits there as 0 until its own pop, which skips it.  So `get(kk) is
    None` means "never pushed", and a tail term costs one get and one
    store.  Every term a step adds is smaller than the term it divides (a
    larger key), so a popped key is never looked up again and stays in
    the dict.  The remainder is in pop order.
    """
    work = dict(terms)
    heap = list(work)
    heapq.heapify(heap)
    pop, push, get = heapq.heappop, heapq.heappush, work.get
    guard, p = ring.guard, ring.p
    remainder = {}
    while heap:
        k = pop(heap)
        c = work[k]
        if not c:
            continue  # cancelled after it was pushed
        probe = k | guard
        for _, lm, tail in divisors:
            if (probe - lm) & guard == guard:
                for delta, nc in tail:
                    kk = k + delta
                    old = get(kk)
                    if old is None:
                        push(heap, kk)
                        old = 0
                    work[kk] = (old + c * nc) % p
                break
        else:
            remainder[k] = c
    return remainder


def buchberger(gens, truncation=None, ring=None, base=None):
    """Compute a (possibly degree-truncated) reduced Groebner basis.

    Generators must be homogeneous; `truncation`, when given, must be at
    least the largest generator weight.  With truncation d, the returned
    basis gives normal forms valid for all inputs of weight <= d.

    With `base`, a basis this function returned with a truncation d0 <= d,
    the result is the d-truncated basis of the base's ideal plus `gens`
    (see the module docstring for the pairs it settles).

    The result's `stats` counts the S-pairs of this call: `formed` (within
    the truncation and not settled), `product` and `chain` (skipped by
    those criteria), `zero` (reduced to zero) and `settled` (inherited).
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if base is not None:
            ring = base.ring
        elif not gens:
            raise ValueError("empty generator list needs an explicit ring")
        else:
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
    settled_weight = None
    if base is not None:
        if base.ring != ring:
            raise ValueError("base and generators live in different rings")
        settled_weight = base.truncation
        if settled_weight is None:
            raise ValueError("a base without truncation cannot be extended")
        if truncation is not None and truncation < settled_weight:
            raise ValueError(
                f"truncation {truncation} below the base's truncation {settled_weight}"
            )

    key = ring.order_key
    basis = list(base.basis) if base is not None else []
    # (lm, packed lm, tail) of each basis element, see `_divisor`
    divisors = list(base._divisors) if base is not None else []
    inherited = len(basis)
    stats = dict.fromkeys(("formed", "product", "chain", "zero", "settled"), 0)
    pair_heap = []
    processed = set()

    def push_pairs(j):
        lmj = divisors[j][0]
        for i in range(j):
            lcm = ring.mon_lcm(divisors[i][0], lmj)
            w = ring.wdeg(lcm)
            if truncation is not None and w > truncation:
                continue
            if j < inherited and w <= settled_weight:
                # the base is a settled_weight-truncated basis, so this
                # S-polynomial already reduces to zero by its elements
                processed.add((i, j))
                stats["settled"] += 1
                continue
            stats["formed"] += 1
            heapq.heappush(pair_heap, (w, key(lcm), i, j))

    def add(h):
        h = h.monic()
        basis.append(h)
        divisors.append(_divisor(h, ring))
        push_pairs(len(basis) - 1)

    for j in range(1, inherited):
        push_pairs(j)
    # lightest first, then smallest leading monomial: every generator is
    # homogeneous, so the leading key, largest first, gives that order
    for g in sorted(gens, key=Polynomial.leading_monomial, reverse=True):
        rem = _divide(g.terms, divisors, ring)
        if rem:
            add(Polynomial(ring, rem))

    while pair_heap:
        w, lcmkey, i, j = heapq.heappop(pair_heap)
        processed.add((i, j))
        lmi, lmj = divisors[i][0], divisors[j][0]
        lcm = ring.mon_lcm(lmi, lmj)
        if lcm == lmi + lmj:
            stats["product"] += 1  # coprime leading monomials (product criterion)
            continue
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
            stats["chain"] += 1
            continue
        # both basis elements are monic
        si = basis[i] * Polynomial(ring, {lcm - lmi: 1})
        sj = basis[j] * Polynomial(ring, {lcm - lmj: 1})
        rem = _divide((si - sj).terms, divisors, ring)
        if rem:
            add(Polynomial(ring, rem))
        else:
            stats["zero"] += 1

    gb = _finalize(ring, truncation, basis, divisors, inherited)
    gb.stats = stats
    return gb


def _finalize(ring, truncation, basis, divisors, inherited):
    """The reduced basis of `basis`, whose first `inherited` elements are
    the reduced elements of a base.

    A term of weight w is divisible only by leading monomials of weight
    <= w, so an inherited element that weighs less than every new element
    is already reduced against the result and is not divided again.
    """
    # drop redundant leading monomials deterministically, lightest and then
    # smallest leading monomial first (all elements are homogeneous)
    lms = [d[0] for d in divisors]
    order = sorted(range(len(basis)), key=lms.__getitem__, reverse=True)
    kept = []
    for i in order:
        if any(ring.mon_divides(lms[j], lms[i]) for j in kept):
            continue
        kept.append(i)
    wdeg = ring.wdeg
    lightest_new = min((wdeg(lms[i]) for i in kept if i >= inherited), default=None)
    # inter-reduce tails against the other elements
    reduced = []
    for n, i in enumerate(kept):
        if i < inherited and (lightest_new is None or wdeg(lms[i]) < lightest_new):
            reduced.append(basis[i])
            continue
        others = [divisors[j] for j in kept[:n] + kept[n + 1 :]]
        rem = _divide(basis[i].terms, others, ring)
        h = Polynomial(ring, rem)
        if h.is_zero():
            raise DegenerateBasis("minimal basis element reduced to zero")
        reduced.append(h.monic())
    # no kept leading monomial divides another, so each survives its
    # division: `reduced` is already in the order of `kept`
    return GroebnerBasis(ring, truncation, reduced)


def normal_form(f, gb):
    """Remainder of f on division by the basis (unique for the ring order)."""
    ring = gb.ring
    if f.ring != ring:
        raise ValueError("polynomial and basis live in different rings")
    terms = f.terms
    weights = (ring.wdeg(max(terms)), ring.wdeg(min(terms))) if terms else None
    if weights and gb.truncation is not None and weights[1] > gb.truncation:
        raise ValueError(f"input weight {weights[1]} exceeds truncation {gb.truncation}")
    rem = _divide(terms, gb._divisors, ring)
    return ReductionResult(Polynomial(ring, rem), weights)


def solve_linear_coefficient(lhs, pivot, gb):
    """The unique a in F_p with NF(lhs) = a * NF(pivot).

    `pivot` is the pivot's `normal_form` against gb, so a caller that
    solves several left sides against one pivot reduces it once.  One
    `ffpoly.solve`, with the pivot's remainder as the only vector, raises
    NoSolution when no scalar works and Ambiguous when the pivot itself
    reduces to zero (it then lies in the ideal and a is undetermined).
    Homogeneity is read off the weights that `normal_form` reports.
    """
    n1 = normal_form(lhs, gb)
    if n1.weights and pivot.weights and len({*n1.weights, *pivot.weights}) > 1:
        raise ValueError("lhs and pivot must be homogeneous of equal weight")
    c, free = solve([pivot.remainder.terms], n1.remainder.terms, gb.ring.p)
    if c is None:
        raise NoSolution("the residue of the left side is no multiple of the pivot's")
    if free:
        raise Ambiguous("pivot reduces to zero; solution is not unique")
    return c[0]
