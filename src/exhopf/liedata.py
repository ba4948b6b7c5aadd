"""Static data for the ten (G, p) pairs with p-torsion.

Degree profiles, the weight substitutions defining the intermediate Chern
classes, the generating polynomials of ker psi_p* (stored as source text
in the canonical grammar and parsed at load) and the circle-bundle
restriction kappa*.  The printed values that serve only as checks live in
`printed`.

The theta tables were transcribed once from the printed propositions; a
checksum file pins the transcription.  Every load re-checks the theta
indices against r(G,p) and the weighted homogeneity of each theta, and
each weight-ring expansion is homogeneity-checked when first computed.
The three-way consistency between the printed mixed presentation, its
full weight-ring expansion and the kappa-restriction is not re-checked at
load.  The tests check it on every degree of the eight light pairs, on
(E8,3) up to s = 14 and on (E8,5) up to s = 12; `pytest -m slow` adds
(E8,3) s = 18 and (E8,5) s = 14.  The degrees above those stay unchecked:
their expansions are too large.
"""

import hashlib
import json
from functools import lru_cache, reduce
from importlib import resources
from operator import or_

from .ffpoly import RingContext, render

GROUP_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
GROUP_DIM = {"G2": 14, "F4": 52, "E6": 78, "E7": 133, "E8": 248}

# index r of the distinguished weight omega_r killed by kappa*
DISTINGUISHED = {"F4": 1, "E6": 2, "E7": 2, "E8": 2}

# number of Chern variables: F4 carries a 6-dimensional bundle, E_n an
# n-dimensional one
CHERN_COUNT = {"F4": 6, "E6": 6, "E7": 7, "E8": 8}

# (r(G,p), e(G,p), {t: k_t}) per pair
PROFILE_TABLE = {
    ("G2", 2): ((2, 3), (3,), {3: 2}),
    ("F4", 2): ((2, 3, 8, 12), (3,), {3: 2}),
    ("E6", 2): ((2, 3, 5, 8, 9, 12), (3,), {3: 2}),
    ("E7", 2): ((2, 3, 5, 8, 9, 12, 14), (3, 5, 9), {3: 2, 5: 2, 9: 2}),
    ("E8", 2): ((2, 3, 5, 8, 9, 12, 14, 15), (3, 5, 9, 15), {3: 8, 5: 4, 9: 2, 15: 2}),
    ("F4", 3): ((2, 4, 6, 8), (4,), {4: 3}),
    ("E6", 3): ((2, 4, 5, 6, 8, 9), (4,), {4: 3}),
    ("E7", 3): ((2, 4, 6, 8, 10, 14, 18), (4,), {4: 3}),
    ("E8", 3): ((2, 4, 8, 10, 14, 18, 20, 24), (4, 10), {4: 3, 10: 3}),
    ("E8", 5): ((2, 6, 8, 12, 14, 18, 20, 24), (6,), {6: 5}),
}

SUPPORTED_PAIRS = tuple(PROFILE_TABLE)


class ChecksumError(ValueError):
    """A theta table does not match its pinned transcription checksum, or the
    pin for it is missing."""


class UnsupportedPair(ValueError):
    pass


class GroupProfile:
    """Degree data of one (G, p) pair: r(G,p), e(G,p) and the truncations."""

    def __init__(self, group, p):
        if (group, p) not in PROFILE_TABLE:
            raise UnsupportedPair(f"({group}, {p}) carries no p-torsion")
        self.group = group
        self.p = p
        self.dim = GROUP_DIM[group]
        r, e, k = PROFILE_TABLE[(group, p)]
        self.r_set = r
        self.e_set = e
        self.k_map = dict(k)
        if not set(e) <= set(r):
            raise ValueError("e(G,p) must be contained in r(G,p)")

    def __repr__(self):
        return f"GroupProfile({self.group}, p={self.p})"


def profile(group, p):
    return GroupProfile(group, p)


# -- rings -------------------------------------------------------------------


def weight_ring(group, p):
    n = GROUP_RANK[group]
    return RingContext(p, [(f"w{i}", 1) for i in range(1, n + 1)])


# Cached so that every theta of a pair shares one ring object: without it,
# loading the ten theta sets and computing their b-tables builds 74 more
# rings (14 us each) and compares rings by value, not identity, 58 more
# times, about 1 ms a process.
@lru_cache(maxsize=None)
def mixed_ring(group, p):
    """The presentation ring of the printed thetas: omega_r and c_2..c_N."""
    r = DISTINGUISHED.get(group)
    if r is None:
        return weight_ring(group, p)
    nvars = [(f"w{r}", 1)] + [(f"c{k}", k) for k in range(2, CHERN_COUNT[group] + 1)]
    return RingContext(p, nvars)


# Cached for the same reason: without it, the same work builds 58 more rings
# and compares rings by value 2,105 more times, about 1.2 ms a process.
@lru_cache(maxsize=None)
def restricted_ring(group, p):
    """The abstract Chern ring downstairs: kappa* kills omega_r and c_1."""
    if group == "G2":
        raise UnsupportedPair("G2 has no Chern presentation")
    return RingContext(p, [(f"c{k}", k) for k in range(2, CHERN_COUNT[group] + 1)])


# -- the weight substitution and the Chern polynomials -----------------------


def chern_substitution(group, p):
    """The linear forms t_i in the weights, defining c_k(G) = e_k(t)."""
    if group == "G2":
        raise UnsupportedPair("G2 needs no Chern substitute")
    R = weight_ring(group, p)
    w = {i: R.variable(f"w{i}") for i in range(1, GROUP_RANK[group] + 1)}
    if group == "F4":
        return [
            w[4],
            w[3] - w[4],
            w[2] - w[3],
            w[1] - w[2] + w[3],
            w[1] - w[3] + w[4],
            w[1] - w[4],
        ]
    n = GROUP_RANK[group]
    forms = [w[n]]
    for i in range(2, n - 2):
        forms.append(w[n + 1 - i] - w[n + 2 - i])
    forms.append(w[3] - w[4] + w[2])
    forms.append(w[1] - w[3] + w[2])
    forms.append(-w[1] + w[2])
    return forms


# Cached per pair: each pivot of `bst._basis` upstairs asks once for every
# c_j of its theta, so the ten default tables ask 19 times and build 2 (the
# Method I fallbacks of F4 and E6 at p = 3), and the `crosscheck` tables ask
# 37 times and build 4.  With this memo and those of `bst` cleared before
# each run, the default tables take 43.0 ms with it and 50.9 ms without,
# the `crosscheck` tables 41.7 ms and 57.0 ms (best of 30 interleaved
# in-process runs, 2-core VM, Python 3.11.7).
@lru_cache(maxsize=None)
def _chern_polys(group, p):
    forms = chern_substitution(group, p)
    R = weight_ring(group, p)
    # elementary symmetric polynomials of the forms, by the product expansion
    polys = {0: R.one()}
    ek = [R.one()]
    for form in forms:
        ek = [ek[0]] + [ek[j] + ek[j - 1] * form for j in range(1, len(ek))] + [
            ek[-1] * form
        ]
    for k in range(1, len(forms) + 1):
        polys[k] = ek[k]
    return polys


def chern_poly(group, p, k):
    """c_k(G) expanded in the weight ring; c_0 = 1."""
    if group == "G2":
        raise UnsupportedPair("G2 has no Chern classes here")
    top = CHERN_COUNT[group]
    if k < 0 or k > top:
        raise ValueError(f"k={k} out of range 0..{top}")
    return _chern_polys(group, p)[k]


# -- theta tables -------------------------------------------------------------

THETA_TEXT = {
    ("G2", 2): {
        2: "w1^2+w1*w2+w2^2",
        3: "w2^3",
    },
    ("F4", 2): {
        2: "c2",
        3: "c3",
        8: "c4^2+w1^2*c6",
        12: "c6^2+c4^3",
    },
    ("E8", 2): {
        2: "c2",
        3: "c3",
        5: "c5+w2*c4",
        8: "c8+c4^2+w2^2*c6+w2^3*c5+w2^8",
        9: "w2^2*c7+w2*c8+w2^3*c6",
        12: "c6^2+c4^3",
        14: "c7^2+c4^2*c6+w2^2*c6^2",
        15: "c7*c8+w2^7*c8+w2^3*c4*c8",
    },
    ("F4", 3): {
        2: "w1^2-c2",
        4: "c2^2-c4",
        6: "c2*c4-c6",
        8: "-c2*c6",
    },
    ("E6", 3): {
        2: "w2^2-c2",
        4: "c2^2-c4",
        5: "c5+c2*c3",
        6: "c2*c4+c3^2-c6",
        8: "-c4^2",
        9: "c6*c3",
    },
    ("E7", 3): {
        2: "w2^2-c2",
        4: "c2^2-c4",
        6: "-w2^3*c3+c2*c4-w2*c5+c3^2-c6",
        8: "-c4^2+c2*c3^2-w2*c7+c3*c5",
        10: "-c4*c3^2+c2*c3*c5+c3*c7-c5^2",
        14: "c4*c5^2+c2*c5*c7+c7^2",
        18: "c2*c3^3*c7+c3^6+c3^2*c5*c7+c3*c5^3",
    },
    ("E8", 3): {
        2: "w2^2-c2",
        4: "c2^2-c4",
        8: "-w2^5*c3-w2^3*c5-w2^2*c3^2-w2^2*c6-w2*c7+c3*c5",
        10: "-c4*c3^2+c2*c3*c5+c2*c8+c3*c7-c5^2",
        14: "c4*c3*c7+w2^3*c3*c8+c2*c3^2*c6+c2*c5*c7-w2*c5*c8-c3^2*c8+c3*c5*c6+c7^2",
        18: "-c2*c4^4+c4*c3^2*c8+c4*c6*c8-c4*c7^2-c2*c3^3*c7-c2*c3*c5*c8"
        "+c2*c3*c6*c7-w2*c3*c6*c8-c3^6-c3^2*c6^2-c5*c6*c7+c6^3",
        20: "-c2*c3*c7*c8+w2*c3*c8^2+c3^2*c6*c8+c5*c7*c8",
        24: "c8^3+c2*c3^2*c8^2-w2*c3*c6^2*c8+c2*c3*c5*c6*c8-c3^2*c5^2*c8"
        "-w2*c3*c5*c7*c8-c3*c7^3-w2*c3*c6*c7^2-c2*c3*c5*c7^2+c5^2*c7^2"
        "+c2*c4^2*c7^2-c5*c6^2*c7-c3^2*c5*c6*c7+c3^4*c5*c7-c2*c5^3*c7"
        "-c3^2*c6^3+c2*c4*c6^3+c3^4*c6^2",
    },
    ("E8", 5): {
        2: "-w2^2-c2",
        6: "2*w2^6-2*w2^3*c3-2*w2*c5-2*c3^2-c6",
        8: "-w2^8-w2^4*c4-2*w2^3*c5-w2*c3*c4-w2*c7-c3*c5-c4^2-c8",
        12: "-2*w2^4*c4^2-w2^4*c8+w2^3*c3^3+2*w2^3*c4*c5-2*w2^2*c3^2*c4"
        "-w2^2*c3*c7-2*w2*c3*c4^2+c3^4-c3*c4*c5-2*c5*c7+2*c6^2",
        14: "-2*w2^10*c4+2*w2^8*c3^2-2*w2^7*c7+w2^5*c3*c6-2*w2^4*c3*c7"
        "+2*w2^4*c5^2+w2^3*c3^2*c5+w2^3*c4*c7+w2*c3*c4*c6-w2*c4^2*c5"
        "+w2*c5*c8-2*w2*c6*c7+c3^2*c4^2-c3^2*c8+2*c3*c4*c7+c4^2*c6"
        "+c4*c5^2+c7^2",
        18: "-2*w2^8*c5^2+2*w2^7*c3^2*c5-2*w2^6*c3^2*c6+w2^6*c3*c4*c5"
        "+2*w2^5*c3^2*c7+2*w2^4*c3^2*c8+w2^4*c4*c5^2+2*w2^3*c3*c4^3"
        "-w2^3*c3*c5*c7+2*w2^3*c4^2*c7-2*w2^3*c5^3-w2^2*c3^4*c4"
        "-2*w2^2*c3^3*c7+w2^2*c3*c4^2*c5+2*w2^2*c4^4-w2^2*c4^2*c8"
        "-w2*c3^4*c5-2*w2*c3*c7^2+w2*c4^3*c5-2*w2*c4*c5*c8+w2*c5^2*c7"
        "-c3^2*c4*c8+c3^2*c5*c7-2*c3*c4^2*c7+2*c3*c4*c5*c6-c3*c5^3"
        "-2*c3*c7*c8+c4*c7^2",
        20: "-w2^17*c3-w2^13*c7+2*w2^12*c4^2+2*w2^12*c8+2*w2^11*c3*c6"
        "+w2^10*c3^2*c4-w2^9*c4*c7+2*w2^8*c4^3-w2^7*c3*c5^2-w2^6*c3^3*c5"
        "-w2^6*c3^2*c8+w2^6*c4*c5^2-2*w2^5*c3^5+w2^5*c3*c4^3+w2^5*c4^2*c7"
        "+2*w2^5*c5^3-w2^4*c3^4*c4-2*w2^4*c3*c4^2*c5-2*w2^4*c4*c5*c7"
        "+w2^3*c3^4*c5-2*w2^3*c3^2*c4*c7-w2^3*c3*c4*c5^2+w2^2*c3^6"
        "+2*w2^2*c3^2*c4^3-w2^2*c3^2*c5*c7-2*w2*c3^5*c4+2*w2*c3^3*c5^2"
        "+2*w2*c3^2*c6*c7+w2*c4*c5^3+2*c3^4*c8+c3^3*c4*c7+c3^2*c7^2"
        "+2*c3*c4^3*c5+2*c4^5+c4^3*c8-2*c5^4",
        24: "-w2^16*c8-w2^13*c3*c8-2*w2^9*c3*c4*c8+2*w2^7*c4*c5*c8"
        "+w2^6*c4*c6*c8-2*w2^6*c5^2*c8+2*w2^5*c3*c8^2+w2^5*c4*c7*c8"
        "-w2^5*c5*c6*c8+2*w2^4*c4*c8^2-w2^4*c5*c7*c8+w2^3*c3^3*c4*c8"
        "-2*w2^3*c3^2*c7*c8+w2^3*c3*c4*c6*c8-2*w2^3*c3*c5^2*c8"
        "+w2^3*c6*c7*c8+w2^2*c4*c5^2*c8-w2^2*c6*c8^2-2*w2*c3*c4*c8^2"
        "-w2*c4*c5*c6*c8-2*w2*c7*c8^2+c3^4*c4*c8+2*c3*c5*c8^2"
        "+c3*c6*c7*c8-2*c5^2*c6*c8",
    },
}


class ThetaSet:
    """All presentations of the generating polynomials of one pair.

    The mixed presentation and its kappa-restriction are materialized at
    load.  The full weight-ring expansions are not: they run to hundreds
    of thousands of terms for the top E_8 degrees, and the library needs
    none.  `bst` expands each mixed theta_t with the Chern classes
    replaced by their normal forms, which gives the same pivot remainder;
    only the tests expand fully.  Every expansion is homogeneity-checked
    (`check_theta_weight`).
    """

    def __init__(self, prof, theta_c, theta_restricted):
        self.profile = prof
        self.weight_ring = weight_ring(prof.group, prof.p)
        self.mixed_ring = mixed_ring(prof.group, prof.p)
        self.theta_c = theta_c
        self.theta_restricted = theta_restricted
        self.restricted_ring = (
            restricted_ring(prof.group, prof.p) if prof.group != "G2" else None
        )

    def presentation(self, name):
        """(ring, {s: theta_s}) of one presentation: "weight", the weight
        ring with the mixed thetas `theta_c`, which `bst` expands (Method
        I); "restricted", the restricted Chern ring with `theta_restricted`
        (Method II); "mixed", the mixed ring with `theta_c` (the Case 1
        column)."""
        return {"weight": (self.weight_ring, self.theta_c),
                "restricted": (self.restricted_ring, self.theta_restricted),
                "mixed": (self.mixed_ring, self.theta_c)}[name]

    def __repr__(self):
        return f"ThetaSet({self.profile.group}, p={self.profile.p})"


def _mixed_thetas(group, p):
    """theta_c for each pair; E6/E7 at p=2 derive from E8 by killing c7/c8."""
    ring = mixed_ring(group, p)
    if (group, p) in THETA_TEXT:
        return {s: ring.parse(text) for s, text in THETA_TEXT[(group, p)].items()}
    if p != 2 or group not in ("E6", "E7"):
        raise UnsupportedPair(f"({group}, {p})")
    source = _mixed_thetas("E8", 2)
    mapping = _restriction(mixed_ring("E8", 2), ring)
    return {s: source[s].substitute(mapping) for s in PROFILE_TABLE[(group, 2)][0]}


def _restriction(src, dst):
    """The renaming of `src` into `dst`: variables `dst` lacks go to zero."""
    return {name: dst.variable(name) if name in dst.index else dst.zero() for name in src.names}


def restrict_kappa(f, group, p):
    """kappa*: kill the distinguished weight omega_r (and with it c_1)."""
    if group == "G2":
        raise UnsupportedPair("G2 has no kappa restriction")
    if f.ring != mixed_ring(group, p):
        raise ValueError("restrict_kappa expects the mixed presentation")
    return f.substitute(_kappa(group, p))


# Cached (one shared dict, which `substitute` only reads): the 58 restrictions
# of the ten theta loads then take 0.49-0.84 ms against 0.49-0.86 ms for the
# re-keying loop they replaced (minima of 30 passes, 15 alternating rounds);
# building the mapping on each call adds 0.27-0.30 ms.
@lru_cache(maxsize=None)
def _kappa(group, p):
    return _restriction(mixed_ring(group, p), restricted_ring(group, p))


def check_theta_weight(f, s):
    """f, an expansion of theta_s, refused with `ValueError` unless it is
    zero or homogeneous of weight s."""
    if f and (not f.is_homogeneous() or f.weight() != s):
        raise ValueError(f"expanded theta_{s} is not homogeneous of weight {s}")
    return f


def expand_in_weights(f, group, p, chern):
    """Substitute Chern images into a mixed-presentation polynomial.

    Each c_j that occurs in f goes to `chern(j)`, a polynomial of the
    weight ring, zero or homogeneous of weight j (c_j(G) itself, or one
    congruent to it), called once for each such j and for no other.
    This is where a variable name of the mixed ring becomes a Chern index.
    """
    src = f.ring
    dst = weight_ring(group, p)
    if group == "G2":
        if src != dst:
            raise ValueError("G2 thetas already live in the weight ring")
        return f
    occurring = reduce(or_, f.terms, 0)
    r = DISTINGUISHED[group]
    mapping = {f"w{r}": dst.variable(f"w{r}")}
    for name, mask in zip(src.names, src.field_masks):
        if name.startswith("c") and occurring & mask:
            mapping[name] = chern(int(name[1:]))
    return f.substitute(mapping, target_ring=dst)


# Cached per pair: the ten default tables ask 176 times and load 10 sets;
# with every ask loading and cross-checking again, their pass takes 0.104 s
# against 0.034 s (medians of 7 cold processes, 2-core VM, Python 3.11.7).
@lru_cache(maxsize=None)
def theta_set(group, p):
    """Load, expand and cross-check the theta table of one pair."""
    prof = profile(group, p)
    theta_c = _mixed_thetas(group, p)
    if set(theta_c) != set(prof.r_set):
        raise ValueError(f"theta indices {sorted(theta_c)} != r(G,p) {prof.r_set}")
    for s, f in theta_c.items():
        if f.weight() != s:
            raise ValueError(f"theta_{s} of ({group},{p}) is not homogeneous of weight {s}")
    theta_restricted = None if group == "G2" else {
        s: restrict_kappa(f, group, p) for s, f in theta_c.items()
    }
    _verify_checksums(group, p, theta_c)
    return ThetaSet(prof, theta_c, theta_restricted)


# -- transcription checksums -------------------------------------------------


def _theta_digest(f):
    """sha256 of the canonical text of a theta."""
    return hashlib.sha256(render(f).encode()).hexdigest()


def checksum_payload():
    """Canonical-text digests of every theta, for the pinning file."""
    return {
        f"{group}:{p}:{s}": _theta_digest(f)
        for group, p in SUPPORTED_PAIRS
        for s, f in _mixed_thetas(group, p).items()
    }


# Cached: the pinned file is read and parsed once a process (0.04 ms), not
# once per theta load (ten in the default tables, 0.4 ms).
@lru_cache(maxsize=None)
def _stored_checksums():
    try:
        path = resources.files("exhopf").joinpath("data/theta_checksums.json")
        text = path.read_text()
    except FileNotFoundError:
        return None
    return json.loads(text)


def _verify_checksums(group, p, theta_c):
    stored = _stored_checksums()
    if stored is None:
        raise ChecksumError("data/theta_checksums.json is missing")
    for s, f in theta_c.items():
        key = f"{group}:{p}:{s}"
        if key not in stored:
            raise ChecksumError(f"no pinned theta checksum for {key}")
        if stored[key] != _theta_digest(f):
            raise ChecksumError(f"theta checksum mismatch for {key}")
