"""Division by leading-term rescan (test oracle for the heap division).

Each step takes the largest surviving monomial, found by `max` over the
whole working dict, and divides it by the first basis element whose
leading monomial divides it.  This is quadratic in the number of terms,
but it shares no code with `groebner._reduce_terms` or with the
`RingContext` monomial kernel: the term order and the exponent arithmetic
are written out here with `zip`, and the library never imports it.
"""


def _order_key(mon, weights):
    """Weighted grevlex: weighted degree, then reverse-lex along the slots."""
    return (sum(e * w for e, w in zip(mon, weights)), tuple(-e for e in mon))


def naive_reduce(terms, basis, ring):
    """Divide a term dict by a monic basis; returns the remainder term dict."""
    p = ring.p
    weights = ring.weights
    lms = [max(g.terms, key=lambda m: _order_key(m, weights)) for g in basis]
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=lambda m: _order_key(m, weights))
        c = work.pop(m)
        for lm, g in zip(lms, basis):
            if all(a <= b for a, b in zip(lm, m)):
                shift = [b - a for a, b in zip(lm, m)]
                for gm, gc in g.terms.items():
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
