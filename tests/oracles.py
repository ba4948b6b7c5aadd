"""Oracles that only the tests need: the full weight expansion of the thetas
and the full monomial basis of a Hopf model.

The library never expands a theta fully (`bst` substitutes reduced Chern
images, which gives the same pivot remainders), and never lists the basis of
a model; the tests compare against both.
"""

from functools import partial
from itertools import product

from exhopf import liedata


def expand(f, group, p):
    """A mixed-presentation polynomial in the weights, each c_j -> c_j(G)."""
    return liedata.expand_in_weights(f, group, p, partial(liedata.chern_poly, group, p))


def omega(ts, s):
    """theta_s of the theta set `ts` fully expanded in the weights,
    homogeneity-checked as `bst` checks its own expansions."""
    group, p = ts.profile.group, ts.profile.p
    return liedata.check_theta_weight(expand(ts.theta_c[s], group, p), s)


def basis_elements(model):
    """Every basis monomial (xexp, odds) of a Hopf model: each x-exponent
    below its truncation, with any set of the odd generators."""
    odds_all = list(model.r_list)
    for xexp in product(*(range(k) for k in model.k_list)):
        for mask in range(1 << len(odds_all)):
            yield xexp, tuple(s for i, s in enumerate(odds_all) if mask >> i & 1)
