"""Structure constants b_{s,t} of the reduced-power action on the thetas.

For every admissible pair s < t in r(G,p) with t - s = k(p-1), the unique
b with P^k(theta_s) = b*theta_t mod <theta_j : j < t> is one reduction
step (`_reduce`): P^k theta_s modulo a Groebner basis of <theta_j : j < t>
truncated at degree t, solved for b against theta_t.  It runs on one
presentation of the thetas (`_presentation`): upstairs in the weight ring
(Method I), downstairs in the restricted Chern ring after kappa* (Method
II, much smaller and the default), or in the mixed ring F_p[omega_r,
c_2..c_N] of the printed thetas.  The last decides the p = 2, t = 9 column
of E6, E7 and E8, where kappa*theta_t vanishes (the `case1` entries):
there c_1 = 3 omega_2 = omega_2, so the mixed ring is F_2[c_1..c_N], the
ring of the Case 1 identities (their records in `printed`).

Those ideals are nested, so the bases of one pair and presentation form
one chain (`_basis`): the basis for t is the basis for the previous r in
r(G,p), extended to truncation t by NF(theta_r), the pivot remainder of
column r.  Each column caches its own pivot remainder beside its basis,
so theta_t is reduced once, for every s of the column and for the next
link.  The extension forms no S-pair of the earlier links again
(`groebner.buchberger`), and the reduced truncated basis of an ideal is
unique, so every link equals the basis built from scratch on the thetas.

Pairs with k >= s are forced to zero by instability (P^s theta_s =
theta_s^p lies in the ideal, P^k theta_s = 0 above that) and recorded
without any reduction.
"""

from functools import lru_cache

from . import groebner, liedata, printed, steenrod
from .groebner import Ambiguous, buchberger, solve_linear_coefficient


class BstError(Exception):
    pass


class Case1Required(BstError):
    """kappa* theta_t = 0, so Method II cannot see this entry."""


class BstEntry:
    __slots__ = ("s", "t", "k", "value", "method")

    def __init__(self, s, t, k, value, method):
        self.s = s
        self.t = t
        self.k = k
        self.value = value
        self.method = method

    def as_dict(self):
        return {"s": self.s, "t": self.t, "k": self.k, "b": self.value,
                "method": self.method}

    def __repr__(self):
        return f"BstEntry(b_{{{self.s},{self.t}}}={self.value} [{self.method}])"


class BstTable:
    """Every admissible entry of one pair by (s, t), which `hopf` reads as
    it stands: refused with `BstError` unless the keys are exactly
    `admissible_pairs`, each entry has its key and k = (t - s)/(p - 1),
    every instability zero (k >= s) has b = 0, and every b is a residue
    0 <= b < p."""

    def __init__(self, prof, entries):
        self.profile = prof
        self.entries = dict(entries)
        want = {(s, t): k for s, t, k in admissible_pairs(prof)}
        if self.entries.keys() != want.keys():
            raise BstError(f"b-table of ({prof.group},{prof.p}) lacks "
                           f"{sorted(want.keys() - self.entries.keys())}, has "
                           f"{sorted(self.entries.keys() - want.keys())}")
        for st, e in self.entries.items():
            if (e.s, e.t, e.k) != (*st, want[st]):
                raise BstError(f"{e!r} with k={e.k} at {st}, where k={want[st]}")
            if e.k >= e.s and e.value:
                raise BstError(f"{e!r} is an instability zero (k={e.k} >= s)")
            if not 0 <= e.value < prof.p:
                raise BstError(f"{e!r} is not a residue mod {prof.p}")

    def nonzero(self):
        return {st: e.value for st, e in self.entries.items() if e.value}

    def value(self, s, t):
        return self.entries[(s, t)].value

    def as_dict(self):
        return {
            "group": self.profile.group,
            "prime": self.profile.p,
            "entries": [e.as_dict() for _, e in sorted(self.entries.items())],
        }


def admissible_pairs(prof):
    """All (s, t, k) with s, t in r(G,p), t = s + k(p-1), k >= 1."""
    out = []
    step = prof.p - 1
    for s in prof.r_set:
        for t in prof.r_set:
            if t > s and (t - s) % step == 0:
                out.append((s, t, (t - s) // step))
    return out


def _presentation(ts, presentation):
    """(ring, s -> theta_s) of one presentation: "weight", the weight ring
    with `ts.omega` (Method I); "restricted", the restricted Chern ring
    with `ts.theta_restricted` (Method II); "mixed", the mixed ring with
    `ts.theta_c` (the Case 1 column)."""
    if presentation == "weight":
        return ts.weight_ring, ts.omega
    if presentation == "restricted":
        return ts.restricted_ring, ts.theta_restricted.__getitem__
    return ts.mixed_ring, ts.theta_c.__getitem__


# One chain of bases per (pair, presentation), one link per t, shared by
# every s of the column and by the next link.  Measured in one process
# (2-core VM, Python 3.11.7): the ten default tables ask for 5 bases and
# build 11 links upstairs (G2 up to t = 3, F4 and E6 at p = 3 up to t = 8
# for their Method I fallback entries), ask for 76 and build 58 links
# downstairs, and ask for 6 and build 15 mixed links (E6, E7 and E8 at
# p = 2 up to t = 9, for the Case 1 column); the `crosscheck` pairs ask for
# 17, 16 and 2 and build 22, 20 and 5.  Peak RSS after either pass is
# 19.1-19.6 MB.
@lru_cache(maxsize=None)
def _basis(group, p, presentation, t):
    """(basis, pivot): the basis of <theta_j : j < t> truncated at t, and
    the `normal_form` of theta_t against it."""
    ts = liedata.theta_set(group, p)
    ring, theta = _presentation(ts, presentation)
    lower = [r for r in ts.profile.r_set if r < t]
    base, gens = None, []
    if lower:
        base, pivot = _basis(group, p, presentation, max(lower))
        gens = [pivot.remainder]
    gb = buchberger(gens, truncation=t, ring=ring, base=base)
    # through the module, whose `normal_form` the traced benchmark wraps
    return gb, groebner.normal_form(theta(t), gb)


def _reduce(group, p, s, t, presentation):
    """The one reduction step of every method: the b with
    P^k theta_s = b theta_t mod <theta_j : j < t> in one presentation."""
    r_set = liedata.profile(group, p).r_set
    k, rest = divmod(t - s, p - 1)
    if rest or not 1 <= k < s or s not in r_set or t not in r_set:
        raise BstError(f"({s},{t}) of ({group},{p}) is not an admissible pair with k < s")
    _, theta = _presentation(liedata.theta_set(group, p), presentation)
    if theta(t).is_zero():
        raise Case1Required(f"kappa*theta_{t} = 0 for ({group},{p})")
    gb, pivot = _basis(group, p, presentation, t)
    return solve_linear_coefficient(steenrod.power(k, theta(s)), pivot, gb)


def compute_bst_method1(group, p, s, t):
    """b_{s,t} by Groebner reduction in the weight ring."""
    return _reduce(group, p, s, t, "weight")


def compute_bst_method2(group, p, s, t):
    """b_{s,t} by the same reduction downstairs in the restricted ring."""
    if group == "G2":
        raise BstError("G2 has no Chern presentation; use Method I")
    return _reduce(group, p, s, t, "restricted")


def full_table(group, p, strategy="auto"):
    """Every admissible entry of the pair, by the requested strategy.

    "auto" takes each entry downstairs by Method II, falls back to Method I
    where the pivot degenerates in the restricted ideal, and reduces in the
    mixed ring where kappa*theta_t = 0 (the p = 2, t = 9 column); G2, which
    has no Chern layer, runs Method I throughout.  "method1" runs Method I
    on every entry.  "both" is "auto" that also runs Method I on every
    Method II entry and requires agreement.  Every entry records the method
    that decided it.
    """
    if strategy not in ("auto", "method1", "both"):
        raise BstError(f"unknown strategy {strategy!r}")
    prof = liedata.profile(group, p)
    if group == "G2":
        if strategy == "both":
            raise BstError("G2 supports Method I only")
        strategy = "method1"
    entries = {}
    for s, t, k in admissible_pairs(prof):
        if k >= s:
            entries[(s, t)] = BstEntry(s, t, k, 0, "instability-zero")
            continue
        if strategy == "method1":
            value = compute_bst_method1(group, p, s, t)
            method = "method1"
        else:
            try:
                value = compute_bst_method2(group, p, s, t)
                method = "method2"
            except Case1Required:
                value = _reduce(group, p, s, t, "mixed")
                method = "case1"
            except Ambiguous:
                # kappa*theta_t degenerates into the lower restricted ideal
                # (it happens for t = 8 of F4 and E6 at p = 3); the relation
                # is then invisible downstairs and the weight ring decides
                value = compute_bst_method1(group, p, s, t)
                method = "method1-fallback"
            if strategy == "both" and method == "method2":
                v1 = compute_bst_method1(group, p, s, t)
                if v1 != value:
                    raise BstError(
                        f"methods disagree at ({s},{t}): I={v1}, II={value}"
                    )
                method = "both"
        entries[(s, t)] = BstEntry(s, t, k, value, method)
    return BstTable(prof, entries)


def verify_lemma22(group, p, table=None):
    """Compare the computed nonzero set against Lemma 2.2 (`printed.lemma22`)."""
    if table is None:
        table = full_table(group, p)
    elif (table.profile.group, table.profile.p) != (group, p):
        raise BstError(f"b-table of {table.profile.group} at p={table.profile.p}")
    computed = table.nonzero()
    claimed = {st: b for st, b in printed.lemma22(group, p).items() if b}
    missing = sorted(st for st in claimed if st not in computed)
    extra = sorted(st for st in computed if st not in claimed)
    wrong = sorted(
        st for st in claimed if st in computed and computed[st] != claimed[st]
    )
    return {
        "group": group,
        "prime": p,
        "pass": not (missing or extra or wrong),
        "computed_nonzero": {f"{s},{t}": v for (s, t), v in sorted(computed.items())},
        "printed_nonzero": {f"{s},{t}": v for (s, t), v in sorted(claimed.items())},
        "missing": [f"{s},{t}" for s, t in missing],
        "extra": [f"{s},{t}" for s, t in extra],
        "wrong_value": [f"{s},{t}" for s, t in wrong],
    }
