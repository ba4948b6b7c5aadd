"""The paper's printed claims that serve only as checks, in one ledger.

Inputs stay beside the code that reads them (the thetas in `liedata`; the
Bockstein, zeta and three coproduct tables in `hopf`, which derives the
squares at p = 2 from the b-table).  Every other printed value is one
`Claim` here: source, pair, kind, key and the value as printed.  `compare`
decides each claim of a pair with one check per kind: "b" (Lemma 2.2,
b_{s,t} at (s, t)) against the b-table; "theta" (the text of theta_s at
(ring, s)) and "reduction" (P^k theta_s = sum_j q_j theta_j at (ring, k,
s), value {j: q_j}) in the presentation that `ThetaSet.presentation` names;
"zeta_square" (zeta_{2s-1}^2), "sq1" (delta alpha_{2s-1}) and "coproduct"
(phi(alpha_{2s-1})), each at s in the format of `HopfModel._from_data`,
against the Hopf model.  The Case 1 ring is the mixed ring: c_1 = 3 omega_2
= w2 mod 2 makes it F_2[c_1..c_N], which embeds in the weight ring
compatibly with P, so an identity holds there exactly when it holds upstairs.
Lemma 2.2 and Corollary 4.4 print only nonzero values: every entry they
leave out (an admissible (s, t) with k < s, an s of r(G,p)) claims zero.
"""

from collections import namedtuple

from . import bst, hopf, liedata, steenrod

Claim = namedtuple("Claim", "source pair kind key value")


# (source, kind) -> pair -> key -> value as printed
PRINTED = {
    ("Lemma 2.2", "b"): {
        ("G2", 2): {(2, 3): 1},
        ("F4", 2): {(2, 3): 1, (8, 12): 1},
        ("E6", 2): {(2, 3): 1, (8, 12): 1, (3, 5): 1, (5, 9): 1, (8, 9): 1},
        ("E7", 2): {(2, 3): 1, (8, 12): 1, (3, 5): 1, (5, 9): 1, (8, 9): 1, (12, 14): 1},
        ("E8", 2): {(2, 3): 1, (8, 12): 1, (3, 5): 1, (5, 9): 1, (8, 9): 1, (12, 14): 1,
                    (12, 15): 1, (14, 15): 1},
        ("F4", 3): {(2, 4): 1, (6, 8): 1},
        ("E6", 3): {(2, 4): 1, (6, 8): 1},
        ("E7", 3): {(2, 4): 1, (6, 8): 1, (4, 10): 1, (8, 14): 1, (8, 10): 1, (6, 10): -1},
        ("E8", 3): {(2, 4): 1, (4, 10): 1, (8, 14): 1, (8, 10): 1, (18, 20): 1, (14, 20): 1,
                    (18, 24): 1},
        ("E8", 5): {(2, 6): 1, (8, 12): 1, (14, 18): 1, (20, 24): 1},
    },
    # P^1 theta_8 and P^4 theta_5, c_1 written w2; E6's bundle stops at c_6
    ("Case 1", "reduction"): {
        ("E6", 2): {("mixed", 1, 8): {9: "1", 5: "w2^4"},
                    ("mixed", 4, 5): {9: "1", 5: "c4", 3: "w2^2*c4+c6", 2: "w2^2*c5"}},
        ("E7", 2): {("mixed", 1, 8): {9: "1", 5: "w2^4"},
                    ("mixed", 4, 5): {9: "1", 5: "c4", 3: "w2^2*c4+c6", 2: "w2^2*c5+c7"}},
        ("E8", 2): {("mixed", 1, 8): {9: "1", 5: "w2^4"},
                    ("mixed", 4, 5): {9: "1", 5: "c4", 3: "w2^2*c4+c6", 2: "w2^2*c5+c7"}},
    },
    ("Example 5.8", "theta"): {("E8", 5): {
        ("restricted", 2): "-c2", ("restricted", 6): "-c6-2*c3^2",
        ("restricted", 8): "-c8-c3*c5-c4^2",
        ("restricted", 12): "-2*c5*c7+2*c6^2-c3*c4*c5+c3^4",
        ("restricted", 14): "-c3^2*c8+c7^2+2*c3*c4*c7+c4^2*c6+c4*c5^2+c3^2*c4^2",
        ("restricted", 18): "-2*c3*c7*c8-c3^2*c4*c8+c4*c7^2+c3^2*c5*c7-2*c3*c4^2*c7"
        "+2*c3*c4*c5*c6-c3*c5^3",
        ("restricted", 20): "c4^3*c8+2*c3^4*c8+c3^2*c7^2+c3^3*c4*c7-2*c5^4+2*c3*c4^3*c5+2*c4^5",
        ("restricted", 24): "2*c3*c5*c8^2+c3*c6*c7*c8-2*c5^2*c6*c8+c3^4*c4*c8",
    }},
    # the worked reductions of P^1 kappa*theta_s
    ("Example 5.8", "reduction"): {("E8", 5): {
        ("restricted", 1, 2): {6: "1", 2: "c4-2*c2^2"},
        ("restricted", 1, 8): {
            12: "1",
            8: "-c2^2+2*c4",
            6: "-2*c3^2+2*c6",
            2: "2*c2*c8+2*c3*c7-c4*c6+2*c5^2",
        },
        ("restricted", 1, 14): {
            18: "1",
            8: "-c2^2*c3^2-c2*c8-c3^2*c4-2*c3*c7+c4*c6-2*c5^2",
            6: "2*c4^3",
            2: "-c2*c3^3*c5+c2*c3^2*c4^2-2*c2*c3*c4*c7-c2*c4^2*c6-c2*c4*c5^2"
            "+c2*c7^2-c3^2*c4*c6-c3*c4^2*c5-c3*c6*c7+c4^2*c8-2*c4*c5*c7"
            "-c4*c6^2+2*c5^2*c6-c8^2",
        },
        ("restricted", 1, 20): {
            24: "1",
            18: "c6",
            14: "c3^2*c4-c3*c7-c4*c6+2*c5^2",
            12: "c3*c4*c5-c4^3+2*c4*c8-c5*c7",
            8: "-c2*c4^2*c6-2*c3*c5*c8-c4^2*c8+c4*c5*c7-c4*c6^2",
            6: "-c2^2*c7^2-c2*c3*c6*c7-2*c3^3*c4*c5-c3^2*c4^3-2*c3^2*c5*c7"
            "+c3*c4*c5*c6+c3*c7*c8-c4^2*c5^2+2*c5^2*c8-2*c5*c6*c7",
            2: "2*c2*c4^3*c8+c2*c5^4-c2*c6*c7^2+c3^3*c5*c8+c3^2*c4*c5*c7"
            "-c3*c4^3*c7+c3*c4^2*c5*c6-c3*c5*c7^2-c3*c6^2*c7-c4^4*c6"
            "-c4^3*c5^2-c5^3*c7",
        },
    }},
    ("Corollary 4.4", "zeta_square"): {
        ("G2", 2): {2: [(1, {3: 1})]},
        ("F4", 2): {2: [(1, {3: 1})]},
        ("E6", 2): {2: [(1, {3: 1})]},
        ("E7", 2): {2: [(1, {3: 1})], 3: [(1, {5: 1})], 5: [(1, {9: 1})]},
        ("E8", 2): {2: [(1, {3: 1})], 3: [(1, {5: 1})], 5: [(1, {9: 1})],
                    8: [(1, {15: 1})], 12: [(1, {3: 6, 5: 1})]},
    },
    # delta alpha_{2s-1} as products of alphas: (1, {}, 2, 2, 3, 3) is a_3^2 a_5^2
    ("Remark 4.3", "sq1"): {
        ("E7", 2): {8: [(1, {}, 2, 2, 3, 3)], 14: [(1, {}, 3, 3, 5, 5)],
                    12: [(1, {}, 2, 2, 5, 5)]},
        ("E8", 2): {8: [(1, {}, 2, 2, 3, 3)], 14: [(1, {}, 3, 3, 5, 5)],
                    12: [(1, {}, 2, 2, 5, 5), (1, {}, *[2] * 8)], 15: [(1, {}, 8, 8)]},
    },
    # phi(alpha_{2s-1}) as (coeff, xmon, s') summands; [] is a primitive.
    # The inputs nothing derives are in `hopf.COPRODUCT_DATA`, not here
    ("Theorem 2", "coproduct"): {
        ("G2", 2): {2: []},
        ("F4", 2): {2: [], 8: []},
        ("E6", 2): {2: []},
        ("E7", 2): {2: [], 8: [(1, {5: 1}, 3), (1, {3: 1}, 5)]},
        ("E8", 2): {2: [], 8: [(1, {5: 1}, 3), (1, {3: 1}, 5), (1, {3: 2}, 2)]},
        ("F4", 3): {2: [], 4: [], 6: [(-1, {4: 1}, 2)]},
        ("E6", 3): {2: [], 4: [], 5: [], 6: [(-1, {4: 1}, 2)]},
        ("E7", 3): {2: [], 4: [], 10: [], 6: [(-1, {4: 1}, 2)]},
        ("E8", 3): {
            2: [], 4: [], 10: [],
            8: [(-1, {4: 1}, 4)],
            18: [(1, {4: 1}, 14), (1, {4: 2}, 10), (1, {4: 1, 10: 1}, 4), (-1, {10: 1}, 8)],
        },
        ("E8", 5): {
            2: [],
            8: [(2, {6: 1}, 2)],
            14: [(2, {6: 1}, 8), (2, {6: 2}, 2)],
            20: [(3, {6: 1}, 14), (3, {6: 2}, 8), (2, {6: 3}, 2)],
        },
    },
}


def claims(group, p):
    """Every claim on one pair: its records in `PRINTED`, then the zeros
    that Lemma 2.2 and Corollary 4.4 claim by leaving an entry out."""
    pair = (group, p)
    out = [Claim(source, pair, kind, key, value)
           for (source, kind), table in PRINTED.items()
           for key, value in table.get(pair, {}).items()]
    keys = {(c.kind, c.key) for c in out}
    prof = liedata.profile(group, p)
    out += [Claim("Lemma 2.2", pair, "b", (s, t), 0) for s, t, k in bst.admissible_pairs(prof)
            if k < s and ("b", (s, t)) not in keys]
    if p == 2:
        out += [Claim("Corollary 4.4", pair, "zeta_square", s, []) for s in prof.r_set
                if ("zeta_square", s) not in keys]
    return out


def _residue(claim):
    """The printed value of a "b" claim as a canonical residue mod p."""
    _, p = claim.pair
    return claim.value % p


def lemma22(group, p):
    """Lemma 2.2 on one pair, {(s, t): b} as canonical residues, zeros included."""
    return {c.key: _residue(c) for c in claims(group, p) if c.kind == "b"}


def _reduction(claim, thetas):
    ring_name, k, s = claim.key
    ring, theta = thetas.presentation(ring_name)
    rhs = sum((ring.parse(q) * theta[j] for j, q in claim.value.items()), ring.zero())
    return steenrod.power(k, theta[s]) == rhs


def _theta(claim, thetas):
    ring, theta = thetas.presentation(claim.key[0])
    return theta[claim.key[1]] == ring.parse(claim.value)


def _zeta_square(claim, model):
    zeta = model._zeta(claim.key)
    return zeta * zeta == model._from_data(claim.value)


_HOLDS = {
    "b": lambda claim, table: table.value(*claim.key) == _residue(claim),
    "theta": _theta,
    "reduction": _reduction,
    "zeta_square": _zeta_square,
    "sq1": lambda claim, model: (model.bockstein(model.alpha(claim.key))
                                 == model._from_data(claim.value)),
    "coproduct": lambda claim, model: (model.phi(model.alpha(claim.key))
                                       == model._coproduct_from_data(claim.value)),
}


def holds(claim, source):
    """Whether `source` (the pair's b-table, theta set or model, by kind) agrees."""
    return _HOLDS[claim.kind](claim, source)


def compare(group, p):
    """[(claim, agree)] for every claim on one pair, in the order of `claims`."""
    table, thetas = bst.full_table(group, p), liedata.theta_set(group, p)
    model = hopf.build_model(group, p, table)
    sources = {"b": table, "theta": thetas, "reduction": thetas}
    return [(c, holds(c, sources.get(c.kind, model))) for c in claims(group, p)]
