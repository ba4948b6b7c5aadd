"""Reduced powers P^k on the weight ring and on rings of Chern classes.

The action of P^j on one slot v^e of a monomial is fixed by the variable:

- a variable of weight 1 is a class of topological degree 2, so the
  total operation t -> t + t^p gives P^j(v^e) = C(e, j) v^(e + j(p-1))
  (`_unit_slot`, which keeps the binomials nonzero mod p).  No Wu
  formulas enter, which is what makes the completeness sweep possible at
  arbitrary k.
- a variable of weight m >= 2 must be the Chern class c_m (named `c<m>`).
  P^j c_m is `symfun.wu_formula(j, m, ring)`, one coefficient of the
  resultant that `symfun` keeps for the ring itself: the c_j the ring
  lacks (c_1 in the restricted ring) are zero there, and c_j for j above
  its largest weight never arises.  P^j(c_m^e) for e > 1 is the Cartan
  recursion below on c_m * c_m^(e-1), kept in the slot table of the
  ring's `symfun.WuTable`.  (Odd Steenrod squares vanish identically on
  these subrings at p = 2, so the pure P-Cartan recursion is exact there
  too.)

`power(k, f)` reads these rules from `f.ring`, which must keep the naming
rule of `symfun._chern_forms`: beside Chern classes the one weight-1
variable is `c1` (BU(n) or a subring) or the distinguished `w<r>` (the
mixed ring of `liedata`, c_1 = 3 omega_r).  Either is a degree-2 class,
so P^1 v = v^p (the weight-1 rule), and the Wu formulas read c_1 as the
ring declares it.  Any other weight-1 variable beside Chern classes is
refused: the ring does not say what c_1 maps to.

On a ring whose variables all have weight 1 (the weight ring of
`liedata`) P^k of a monomial prod v_i^e_i is a flat sum over the
compositions j_1 + .. + j_n = k with j_i <= e_i, of the monomials prod
v_i^(e_i + j_i(p-1)) with coefficient prod C(e_i, j_i) mod p: no product
of term dicts is needed.  `_unit_layers` enumerates them slot by slot as
flat (j, key, coeff) triples, the key of each slot's share added to the
monomial's key, and cuts them at the top layer asked.  `total_power(f,
K)` reads every layer P^0 f .. P^K f off one enumeration cut at K, and
`power(k, f)` reads layer k of the one cut at k.  Method I of `bst` asks
each pivot remainder rho_s for consecutive k and takes them all from one
`total_power` pass: the 32 powers of the `crosscheck` tables, on 16
remainders, take 4.70 ms that way and 8.73 ms by `power` per k.  Also
dropping the partial sums that cannot reach the lowest layer asked gives
the same layers in 5.47 ms, so the cut is at the top only (best of 40
interleaved in-process passes, 2-core VM, Python 3.11.7).

On a ring with a Chern class `power` runs one Cartan recursion,
`_cartan`: it splits k between the monomial's first slot v_i^e and the
rest, acting on the slot by `_on_slot`, and instability (P^j x = 0 for j
above the weight of x) caps each share.  The recursion is memoised on
(k, slots) for one `power` call.  On the 82 calls of the `tables`
benchmark workload the memo cuts the products from 981 to 938 and the
Wu reads from 1,598 to 1,512, and the calls, replayed with warm Wu
tables, take 3.7 ms against 4.0 ms without it.

What outlives the call is the slot table of a Chern ring, {(j, i, e):
P^j(v_i^e)} for e > 1, held by the ring's `symfun.WuTable` (`_slots`)
beside its Wu formulas: these powers are the same for every `power` call
on the ring.  On `tables` it cuts the products of `power` from 1,138 to
938 and its Wu reads from 1,889 to 1,512.  Against the same code
without it, 8 alternating pairs of `bench/run.py --workload tables
--seconds 12` gave a median `norm_wall_s` of 0.0411 s against 0.0416 s,
faster in 6 of the 8 pairs, and 0.05 MB more peak RSS (2-core VM,
Python 3.11.7).

Both paths work on term dicts, keyed as in `ffpoly`, and `power` wraps
one `Polynomial` where it returns.  In the recursion the memo values and
the results of `_on_slot` are plain dicts and each product is one
`ffpoly.mul_into` into the running sum: almost every product is 1x1,
and through `Polynomial.__mul__` its fixed cost (the ring check, the
weight check, the slot monomial's validation and two allocations) was
most of the time of `power`.  No such dict is mutated once built, so
they are shared without a copy: a Chern slot's dict is the `.terms` of
its Wu formula, which wraps a memo dict of the resultant.  The flat path
sums its products per layer as plain ints and reduces each layer once,
by `ffpoly.add_into`.  In place of a per-product weight check, `power`
and `total_power` check once, before any work, that the output weight
w + k(p-1) is below 2^15; nothing they build weighs more.  At k = w
instability leaves one share per slot, so both paths give f^p with no
separate path.  Exponent tuples appear only where a monomial is split
into its slots.
"""

from .ffpoly import EXPONENT_LIMIT, ExponentOverflow, Polynomial, add_into, mul_into
from .symfun import _chern_forms, _wu_table, wu_formula


class SteenrodError(ValueError):
    pass


def _unit_slot(e, key, p, top):
    """[(j, j(p-1) key, C(e, j) mod p)] for 0 <= j <= min(e, top), the
    nonzero binomials only: P^j(v^e) = C(e, j) v^(e + j(p-1)) for a
    variable v of weight 1 and monomial key `key`, and j(p-1) key is the
    key that P^j adds to the slot.  C(e, j) is stepped from C(e, j - 1),
    so a large e costs one big-int step per j, not one binomial."""
    step, out, c = (p - 1) * key, [], 1
    for j in range(min(e, top) + 1):
        if r := c % p:
            out.append((j, j * step, r))
        c = c * (e - j) // (j + 1)
    return out


def _unit_layers(f, top):
    """{j: P^j f as a term dict} for 0 <= j <= top, of a homogeneous f in a
    ring whose variables all have weight 1 (module docstring).

    Each monomial's slots are taken in turn.  A partial product is a flat
    (j, key, coeff) triple, extended by the options of the next slot and
    cut at `top`.  The products are summed per layer and key as plain
    ints, and each layer is reduced once, by `add_into`.  A slot's options
    are built once per call for each (variable, exponent): the 32 powers
    of the `crosscheck` tables take 4.70 ms so, 5.81 ms with the options
    built per slot (best of 40 interleaved in-process passes).
    """
    ring = f.ring
    p, coeffs = ring.p, ring.coeffs
    sums, options_of = {}, {}
    for mon, c in f.terms.items():
        partial = [(0, mon, c)]
        for key, e in zip(coeffs, ring.exponents(mon)):
            if not e:
                continue
            options = options_of.get((key, e))
            if options is None:
                options = options_of[key, e] = _unit_slot(e, key, p, top)
            partial = [(jt + j, m + shift, cc * oc) for jt, m, cc in partial
                       for j, shift, oc in options if jt + j <= top]
        for jt, m, cc in partial:
            layer = sums.get(jt)
            if layer is None:
                layer = sums[jt] = {}
            layer[m] = layer.get(m, 0) + cc
    return {jt: add_into({}, layer, 1, p) for jt, layer in sums.items()}


def _on_slot(j, i, e, ring, memo, powers):
    """P^j (v_i^e) as a term dict, by the rule of the variable v_i;
    `powers` is the slot table of the ring, a ring with a Chern class."""
    m = ring.weights[i]
    if m == 1:
        key = ring.coeffs[i]
        return {e * key + shift: c for jj, shift, c in _unit_slot(e, key, ring.p, j) if jj == j}
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


def _weight(f, k):
    """The weight of a homogeneous f; `SteenrodError` for an inhomogeneous
    f or a negative power index k."""
    if k < 0:
        raise SteenrodError("negative power index")
    try:
        return f.weight()
    except ValueError:
        raise SteenrodError("reduced powers act on homogeneous polynomials here") from None


def _check_output(w, k, p):
    """Refuse an output weight w + k(p-1) of 2^15 or more, before any work."""
    if w + k * (p - 1) >= EXPONENT_LIMIT:
        raise ExponentOverflow(f"P^{k} of a weight-{w} class has weight 2^15 or more")


def _all_unit(ring):
    """True when every variable of the ring has weight 1."""
    return max(ring.weights, default=1) == 1


def power(k, f):
    """The k-th reduced power of a homogeneous polynomial, by the rule of
    each variable of `f.ring`.  A ring outside the naming rule of
    `symfun._chern_forms` raises `SteenrodError`, even for a constant."""
    ring = f.ring
    try:
        _chern_forms(ring)
    except ValueError as err:
        raise SteenrodError(str(err)) from None
    w = _weight(f, k)
    if k == 0 or f.is_zero():
        return f
    if k > w:
        return ring.zero()
    _check_output(w, k, ring.p)
    if _all_unit(ring):
        return Polynomial(ring, _unit_layers(f, k).get(k, {}))
    acc, memo, powers = {}, {}, _wu_table(ring)._slots
    for mon, c in f.terms.items():
        slots = tuple((i, e) for i, e in enumerate(ring.exponents(mon)) if e)
        add_into(acc, _cartan(k, slots, ring, memo, powers), c, ring.p)
    return Polynomial(ring, acc)


def total_power(f, K):
    """[P^0 f, ..., P^K f] of a homogeneous f in a ring whose variables all
    have weight 1, from one enumeration of the compositions of each
    monomial (module docstring).  Layers above the weight w of f are zero;
    an output weight w + min(K, w)(p-1) of 2^15 or more raises
    `ExponentOverflow` before any work, as in `power`."""
    ring = f.ring
    if not _all_unit(ring):
        raise SteenrodError(f"{ring}: total_power needs every variable of weight 1")
    w = _weight(f, K)
    top = min(K, w)
    _check_output(w, top, ring.p)
    layers = _unit_layers(f, top) if top else {}
    return [f] + [Polynomial(ring, layers.get(j, {})) for j in range(1, K + 1)]
