"""Division by leading-term rescan (test oracle for the heap division).

Each step takes the largest surviving monomial with `max(..., key=order_key)`
over the whole working dict and divides it by the first basis element whose
leading monomial divides it.  This is quadratic in the number of terms, but
it shares no term-ordering code with `groebner._reduce_terms`, and the
library never imports it.
"""


def naive_reduce(terms, basis, ring):
    """Divide a term dict by a monic basis; returns the remainder term dict."""
    p = ring.p
    lms = [g.leading_monomial() for g in basis]
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=ring.order_key)
        c = work.pop(m)
        for lm, g in zip(lms, basis):
            if ring.mon_divides(lm, m):
                shift = ring.mon_div(m, lm)
                for gm, gc in g.terms.items():
                    if gm == lm:
                        continue
                    mm = ring.mon_mul(gm, shift)
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            remainder[m] = c
    return remainder
