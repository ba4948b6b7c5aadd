"""Division by leading-term rescan (test oracle for the heap division).

Each step takes the largest surviving monomial with `max(..., key=order_key)`
over the whole working dict and divides it by the first basis element whose
leading monomial divides it.  This is quadratic in the number of terms, but
it shares no term-ordering code with `groebner._reduce_terms`, and the
library never imports it.
"""


def naive_reduce(terms, basis, ring):
    """Divide a term dict by a monic basis; returns (remainder, quotients).

    Both are term dicts; `quotients` has one entry per basis element.
    """
    p = ring.field.p
    lms = [g.leading_monomial() for g in basis]
    quotients = [{} for _ in basis]
    work = dict(terms)
    remainder = {}
    while work:
        m = max(work, key=ring.order_key)
        c = work.pop(m)
        for bi, lm in enumerate(lms):
            if ring.mon_divides(lm, m):
                shift = ring.mon_div(m, lm)
                for gm, gc in basis[bi].terms.items():
                    if gm == lm:
                        continue
                    mm = ring.mon_mul(gm, shift)
                    v = (work.get(mm, 0) - c * gc) % p
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                qd = quotients[bi]
                qd[shift] = (qd.get(shift, 0) + c) % p
                break
        else:
            remainder[m] = c
    return remainder, quotients
