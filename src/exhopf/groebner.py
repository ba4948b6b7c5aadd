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

Bases are completed to reduced form (monic, inter-reduced, sorted), so
identical inputs always produce bit-identical bases and remainders.
"""

import heapq

from .ffpoly import Polynomial


class GroebnerError(Exception):
    pass


class NoSolution(GroebnerError):
    """No scalar makes the residue vanish; the theta data is inconsistent."""


class Ambiguous(GroebnerError):
    """The pivot lies in the ideal, so the scalar is not determined."""


class DegenerateBasis(GroebnerError):
    """A minimal basis element reduced to zero against the others."""


class ReductionResult:
    """Remainder of a division, with the quotients when they were tracked."""

    __slots__ = ("remainder", "quotients")

    def __init__(self, remainder, quotients=None):
        self.remainder = remainder
        self.quotients = quotients


class GroebnerBasis:
    def __init__(self, ring, generators, truncation, basis):
        self.ring = ring
        self.generators = list(generators)
        self.truncation = truncation
        self.basis = list(basis)
        self._lms = [g.leading_monomial() for g in self.basis]

    def __len__(self):
        return len(self.basis)

    def __iter__(self):
        return iter(self.basis)

    def reduce(self, f):
        return normal_form(f, self).remainder


def _reduce_terms(terms, basis, lms, ring, quotients=None):
    """Full division of a term dict by a monic basis; returns the remainder dict.

    Each step divides the leading term of `work` by the first basis element
    whose leading monomial divides it.  Leading terms come off a min-heap of
    `descending_key`s.  A monomial is pushed only when it first enters
    `work`: every term a step adds is smaller than the term it divides, so a
    popped monomial never returns, and one that cancelled before its pop is
    simply skipped.
    """
    p = ring.field.p
    key = ring.descending_key
    work = dict(terms)
    heap = [(key(m), m) for m in work]
    heapq.heapify(heap)
    pushed = set(work)
    remainder = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = work.pop(m, 0)
        if not c:
            continue  # cancelled after it was pushed
        for bi, lm in enumerate(lms):
            if ring.mon_divides(lm, m):
                shift = ring.mon_div(m, lm)
                g = basis[bi]
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = ring.mon_mul(gm, shift)
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                        if mm not in pushed:
                            pushed.add(mm)
                            heapq.heappush(heap, (key(mm), mm))
                    else:
                        work.pop(mm, None)
                if quotients is not None:
                    qd = quotients[bi]
                    qd[shift] = (qd.get(shift, 0) + c) % p
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
    lms = []
    pair_heap = []
    processed = set()

    def push_pairs(j):
        lmj = lms[j]
        wj = basis[j].weight()
        for i in range(j):
            lcm = ring.mon_lcm(lms[i], lmj)
            w = ring.wdeg(lcm)
            if truncation is not None and w > truncation:
                continue
            heapq.heappush(pair_heap, (w, key(lcm), i, j))

    def add(h):
        basis.append(h.monic())
        lms.append(h.leading_monomial())
        push_pairs(len(basis) - 1)

    for g in sorted(gens, key=lambda f: (f.weight(), key(f.leading_monomial()))):
        rem = _reduce_terms(g.terms, basis, lms, ring)
        if rem:
            add(Polynomial(ring, rem))

    while pair_heap:
        w, lcmkey, i, j = heapq.heappop(pair_heap)
        if (i, j) in processed:
            continue
        processed.add((i, j))
        lmi, lmj = lms[i], lms[j]
        lcm = ring.mon_lcm(lmi, lmj)
        if lcm == ring.mon_mul(lmi, lmj):
            continue  # coprime leading monomials (product criterion)
        skip = False
        for k2 in range(len(basis)):
            if k2 in (i, j):
                continue
            if ring.mon_divides(lms[k2], lcm):
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
        rem = _reduce_terms((si - sj).terms, basis, lms, ring)
        if rem:
            add(Polynomial(ring, rem))

    return _finalize(ring, gens, truncation, basis, lms)


def _finalize(ring, gens, truncation, basis, lms):
    # drop redundant leading monomials deterministically
    order = sorted(range(len(basis)), key=lambda i: (basis[i].weight(), ring.order_key(lms[i])))
    kept = []
    kept_lms = []
    for i in order:
        if any(ring.mon_divides(lm, lms[i]) for lm in kept_lms):
            continue
        kept.append(basis[i])
        kept_lms.append(lms[i])
    # inter-reduce tails against the other elements
    reduced = []
    for i, b in enumerate(kept):
        others = kept[:i] + kept[i + 1 :]
        other_lms = kept_lms[:i] + kept_lms[i + 1 :]
        rem = _reduce_terms(b.terms, others, other_lms, ring)
        h = Polynomial(ring, rem)
        if h.is_zero():
            raise DegenerateBasis("minimal basis element reduced to zero")
        reduced.append(h.monic())
    reduced.sort(key=lambda f: (f.weight(), ring.order_key(f.leading_monomial())))
    return GroebnerBasis(ring, gens, truncation, reduced)


def normal_form(f, gb, with_quotients=False):
    """Remainder of f on division by the basis (unique for the ring order)."""
    if f.ring != gb.ring:
        raise ValueError("polynomial and basis live in different rings")
    if gb.truncation is not None:
        for m in f.terms:
            if gb.ring.wdeg(m) > gb.truncation:
                raise ValueError(
                    f"input weight {gb.ring.wdeg(m)} exceeds truncation {gb.truncation}"
                )
    quotients = [{} for _ in gb.basis] if with_quotients else None
    rem = _reduce_terms(f.terms, gb.basis, gb._lms, gb.ring, quotients)
    result = Polynomial(gb.ring, rem)
    if with_quotients:
        return ReductionResult(
            result, [Polynomial(gb.ring, q) for q in quotients]
        )
    return ReductionResult(result)


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
    field = gb.ring.field
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
    a = (r1.terms[m1] * field.inv(r2.terms[m2])) % field.p
    if r1 - a * r2 != gb.ring.zero():
        raise NoSolution("residues are not proportional")
    return a
