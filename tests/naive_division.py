"""Division by leading-term rescan (test oracle for the heap division).

Each step takes the largest surviving monomial, found by `max` over the
whole working dict, and divides it by the first basis element whose
leading monomial divides it.  This is quadratic in the number of terms,
but it shares no code with `groebner._divide` or with the `RingContext`
monomial keys: it reads each key's exponent tuple once through
`ring.exponents`, the term order and the exponent arithmetic are written
out here with `zip`, and the library never imports it.
"""


def _order_key(mon, weights):
    """Weighted grevlex: weighted degree, then reverse-lex along the slots."""
    return (sum(e * w for e, w in zip(mon, weights)), tuple(-e for e in mon))


def _tuple_terms(terms, ring):
    return {ring.exponents(k): c for k, c in terms.items()}


def naive_reduce(terms, basis, ring):
    """Divide a key-keyed term dict by a monic basis; returns the remainder
    as a dict keyed by exponent tuples."""
    p = ring.p
    weights = ring.weights
    basis_terms = [_tuple_terms(g.terms, ring) for g in basis]
    lms = [max(g, key=lambda m: _order_key(m, weights)) for g in basis_terms]
    work = _tuple_terms(terms, ring)
    remainder = {}
    while work:
        m = max(work, key=lambda m: _order_key(m, weights))
        c = work.pop(m)
        for lm, g in zip(lms, basis_terms):
            if all(a <= b for a, b in zip(lm, m)):
                shift = [b - a for a, b in zip(lm, m)]
                for gm, gc in g.items():
                    if gm == lm:
                        continue
                    mm = tuple(a + b for a, b in zip(gm, shift))
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder
