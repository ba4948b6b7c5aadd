"""The printed reduced coproducts of Theorem 2 that the model derives.

Same format as `hopf.COPRODUCT_DATA` ((coeff, xmon, target s) summands,
keyed by (group, p) and then by s for alpha_{2s-1}).  These are not
inputs: `HopfModel.derive_coproducts` reaches each of them by a
reduced-power route or by the indeterminate-coefficient solve, and the
tests compare the two term for term.
"""

PRINTED_COPRODUCTS = {
    ("E7", 2): {8: [(1, {5: 1}, 3), (1, {3: 1}, 5)]},
    ("E8", 2): {8: [(1, {5: 1}, 3), (1, {3: 1}, 5), (1, {3: 2}, 2)]},
    ("F4", 3): {6: [(-1, {4: 1}, 2)]},
    ("E6", 3): {6: [(-1, {4: 1}, 2)]},
    ("E7", 3): {6: [(-1, {4: 1}, 2)]},
    ("E8", 3): {
        8: [(-1, {4: 1}, 4)],
        18: [(1, {4: 1}, 14), (1, {4: 2}, 10), (1, {4: 1, 10: 1}, 4), (-1, {10: 1}, 8)],
    },
    ("E8", 5): {
        8: [(2, {6: 1}, 2)],
        14: [(2, {6: 1}, 8), (2, {6: 2}, 2)],
        20: [(3, {6: 1}, 14), (3, {6: 2}, 8), (2, {6: 3}, 2)],
    },
}
