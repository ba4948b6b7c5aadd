"""Reduced powers P^k on the weight ring and on rings of Chern classes.

`power` computes P^k of a monomial by one Cartan recursion, `_cartan`:
it splits k between the monomial's first slot v_i^e and the rest, and
instability (P^j x = 0 for j above the weight of x) caps each share.  The
action on one slot, `_on_slot`, is fixed by the variable itself:

- a variable of weight 1 is a class of topological degree 2, so the
  total operation t -> t + t^p gives P^j(v^e) = C(e, j) v^(e + j(p-1)).
  No Wu formulas enter, which is what makes the completeness sweep
  possible at arbitrary k.
- a variable of weight m >= 2 must be the Chern class c_m (named `c<m>`).
  P^j c_m is `symfun.wu_formula(j, m, ring)`, one coefficient of the
  resultant that `symfun` keeps for the ring itself: the c_j the ring
  lacks (c_1 in the restricted ring) are zero there, and c_j for j above
  its largest weight never arises.  P^j(c_m^e) for e > 1 is the same
  recursion on c_m * c_m^(e-1), kept in the slot table of the ring's
  `symfun.WuTable` (below).  (Odd Steenrod squares vanish identically on
  these subrings at p = 2, so the pure P-Cartan recursion is exact there
  too.)

`power(k, f)` reads these rules from `f.ring`, which must keep the naming
rule of `symfun._chern_forms`: beside Chern classes the one weight-1
variable is `c1` (BU(n) or a subring) or the distinguished `w<r>` (the
mixed ring of `liedata`, c_1 = 3 omega_r).  Either is a degree-2 class,
so P^1 v = v^p (the weight-1 rule), and the Wu formulas read c_1 as the
ring declares it.  Any other weight-1 variable beside Chern classes is
refused: the ring does not say what c_1 maps to.

The recursion is memoised on (k, slots) for one `power` call.  On the
weight-ring calls of the `tables` benchmark workload the memo halves the
products (11,929 -> 5,671; `crosscheck`: 8,946 -> 4,455).  A memo kept
per ring saved only 1-14% more products and raised the peak RSS of both
workloads by about 1 MB, so it does not outlive the call.

What does outlive it is the slot table of a Chern ring, {(j, i, e):
P^j(v_i^e)} for e > 1, held by the ring's `symfun.WuTable` (`_slots`)
beside its Wu formulas: these powers are the same for every `power` call
on the ring.  On `tables` it cuts the products of `power` from 1,928 to
1,728 and its Wu reads from 1,889 to 1,512.  Against the same code
without it, 8 alternating pairs of `bench/run.py --workload tables
--seconds 12` give a median `norm_wall_s` of 0.0411 s against 0.0416 s,
faster in 6 of the 8 pairs, and 0.05 MB more peak RSS (2-core VM,
Python 3.11.7).

The recursion works on term dicts end to end, keyed as in `ffpoly`: the
memo values and the results of `_on_slot` are plain dicts, each product
is one `ffpoly.mul_into` into the running sum, and `power` wraps one
`Polynomial` where it returns.  Almost every product is 1x1, and through
`Polynomial.__mul__` its fixed cost (the ring check, the weight check,
the slot monomial's validation and two allocations) was most of the time
of `power`.  No such dict is mutated once built, so they are shared
without a copy: a Chern slot's dict is the `.terms` of its Wu formula,
which wraps a memo dict of the resultant.  In place of the per-product
weight check, `power` checks once, before the recursion, that the output
weight w + k(p-1) is below 2^15; no product of the recursion weighs more.
At k = w instability leaves one share per slot, so the recursion gives
f^p with no separate path.  Exponent tuples appear only where `power`
splits a monomial into its slots.
"""

from math import comb

from .ffpoly import EXPONENT_LIMIT, ExponentOverflow, Polynomial, add_into, mul_into
from .symfun import _chern_forms, _wu_table, wu_formula


class SteenrodError(ValueError):
    pass


def _on_slot(j, i, e, ring, memo, powers):
    """P^j (v_i^e) as a term dict, by the rule of the variable v_i;
    `powers` is the slot table of a Chern ring (None in the weight ring)."""
    m = ring.weights[i]
    if m == 1:
        c = comb(e, j) % ring.p
        return {(e + j * (ring.p - 1)) * ring.coeffs[i]: c} if c else {}
    if e == 1:
        return wu_formula(j, m, ring).terms
    key = (j, i, e)
    result = powers.get(key)
    if result is None:
        result = powers[key] = _cartan(j, ((i, 1), (i, e - 1)), ring, memo, powers)
    return result


def _cartan(k, slots, ring, memo, powers):
    """P^k of the monomial prod v_i^e over `slots`, a tuple of (i, e), for
    k at most its weight, as a term dict that no caller may mutate.

    Splits k between the first slot and the rest; instability (P^j x = 0
    for j above the weight of x) caps the share of each.
    """
    (i, e), rest = slots[0], slots[1:]
    if not rest:
        return _on_slot(k, i, e, ring, memo, powers)
    key = (k, slots)
    result = memo.get(key)
    if result is None:
        weights = ring.weights
        room = sum(weights[r] * f for r, f in rest)
        acc = {}
        for j in range(max(0, k - room), min(k, weights[i] * e) + 1):
            head = _on_slot(j, i, e, ring, memo, powers)
            if head:
                mul_into(acc, head, _cartan(k - j, rest, ring, memo, powers), 1, ring.p)
        result = memo[key] = acc
    return result


def power(k, f):
    """The k-th reduced power of a homogeneous polynomial, by the rule of
    each variable of `f.ring`.  A ring outside the naming rule of
    `symfun._chern_forms` raises `SteenrodError`, even for a constant."""
    ring = f.ring
    try:
        forms = _chern_forms(ring)
    except ValueError as err:
        raise SteenrodError(str(err)) from None
    if k < 0:
        raise SteenrodError("negative power index")
    try:
        w = f.weight()
    except ValueError:
        raise SteenrodError("reduced powers act on homogeneous polynomials here") from None
    if k == 0 or f.is_zero():
        return f
    if k > w:
        return ring.zero()
    if w + k * (ring.p - 1) >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"P^{k} of a weight-{w} class has weight 2^15 or more")
    acc, memo = {}, {}
    powers = _wu_table(ring)._slots if forms else None
    for mon, c in f.terms.items():
        slots = tuple((i, e) for i, e in enumerate(ring.exponents(mon)) if e)
        add_into(acc, _cartan(k, slots, ring, memo, powers), c, ring.p)
    return Polynomial(ring, acc)

