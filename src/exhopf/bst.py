"""Structure constants b_{s,t} of the reduced-power action on the thetas.

For every admissible pair s < t in r(G,p) with t - s = k(p-1), the unique
b with P^k(theta_s) = b*theta_t mod <theta_j : j < t> is computed either
upstairs in the weight ring (Method I) or downstairs in the restricted
Chern ring after kappa* (Method II, much smaller and the default).  The
p = 2, t = 9 column is the one place kappa*theta_t vanishes; there the
two term-exact Case 1 identities certify the values instead
(`steenrod.verify_case1`, decided in F_2[c_1..c_N], which embeds in the
weight ring).

Pairs with k >= s are forced to zero by instability (P^s theta_s =
theta_s^p lies in the ideal, P^k theta_s = 0 above that) and recorded
without any reduction.
"""

from functools import lru_cache

from . import liedata, steenrod
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
    def __init__(self, prof, entries):
        self.profile = prof
        self.entries = dict(entries)

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


def _check_pair(prof, s, t):
    if s not in prof.r_set or t not in prof.r_set:
        raise BstError(f"({s},{t}) not within r({prof.group},{prof.p})")
    if (t - s) % (prof.p - 1) != 0 or t <= s:
        raise BstError(f"t-s must be a positive multiple of p-1 for ({s},{t})")
    k = (t - s) // (prof.p - 1)
    if k >= s:
        raise BstError(f"pair ({s},{t}) is an instability zero (k={k} >= s)")
    return k


# One basis per (pair, t), shared by every s of the column.  Building the
# ten default tables in one process asks for 5 bases and builds 3: G2 asks
# once, and F4 and E6 at p = 3 each ask twice for t = 8 (the two Method I
# fallback entries of that column).
@lru_cache(maxsize=None)
def _gb_method1(group, p, t):
    ts = liedata.theta_set(group, p)
    gens = [ts.omega(j) for j in ts.profile.r_set if j < t]
    return buchberger(gens, truncation=t, ring=ts.weight_ring)


# One basis per (pair, t), shared by every s of the column.  Building the
# ten default tables in one process asks for 76 restricted bases and
# builds 43.
@lru_cache(maxsize=None)
def _gb_method2(group, p, t):
    ts = liedata.theta_set(group, p)
    gens = [ts.theta_restricted[j] for j in ts.profile.r_set if j < t]
    return buchberger(gens, truncation=t, ring=ts.restricted_ring)


def compute_bst_method1(group, p, s, t):
    """b_{s,t} by Groebner reduction in the weight ring."""
    prof = liedata.profile(group, p)
    k = _check_pair(prof, s, t)
    ts = liedata.theta_set(group, p)
    gb = _gb_method1(group, p, t)
    lhs = steenrod.power(k, ts.omega(s))
    return solve_linear_coefficient(lhs, ts.omega(t), gb)


def compute_bst_method2(group, p, s, t):
    """b_{s,t} by the same reduction downstairs in the restricted ring."""
    prof = liedata.profile(group, p)
    k = _check_pair(prof, s, t)
    if group == "G2":
        raise BstError("G2 has no Chern presentation; use Method I")
    ts = liedata.theta_set(group, p)
    pivot = ts.theta_restricted[t]
    if pivot.is_zero():
        raise Case1Required(f"kappa*theta_{t} = 0 for ({group},{p})")
    gb = _gb_method2(group, p, t)
    lhs = steenrod.power(k, ts.theta_restricted[s])
    return solve_linear_coefficient(lhs, pivot, gb)


# The identities hold per pair, not per entry: the ten default tables ask
# for 6 Case 1 entries and run `verify_case1` 3 times, once for each of
# E6, E7 and E8 at p = 2.  The three runs take 0.002 s of the 0.08-0.09 s
# that the ten tables take in one process (2-core VM, Python 3.11.7).
@lru_cache(maxsize=None)
def _case1_values(group, p):
    report = steenrod.verify_case1(group, p)
    if not report["pass"]:
        raise BstError(f"case 1 identities failed for ({group},{p}): {report}")
    return {(8, 9): 1, (5, 9): 1}


def full_table(group, p, strategy="auto"):
    """Every admissible entry of the pair, by the requested strategy.

    "auto" takes each entry downstairs by Method II, falls back to Method I
    where the pivot degenerates in the restricted ideal, and lets the Case 1
    identities fill the p = 2, t = 9 column; G2, which has no Chern layer,
    runs Method I throughout.  "method1" runs Method I on every entry.
    "both" is "auto" that also runs Method I on every Method II entry and
    requires agreement.  Every entry records the method that decided it.
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
                value = _case1_values(group, p)[(s, t)]
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
    """Compare the computed nonzero set against the printed table."""
    if table is None:
        table = full_table(group, p)
    elif (table.profile.group, table.profile.p) != (group, p):
        raise BstError(f"b-table of {table.profile.group} at p={table.profile.p}")
    computed = table.nonzero()
    printed = liedata.lemma22_printed(group, p)
    missing = sorted(st for st in printed if st not in computed)
    extra = sorted(st for st in computed if st not in printed)
    wrong = sorted(
        st for st in printed if st in computed and computed[st] != printed[st]
    )
    return {
        "group": group,
        "prime": p,
        "pass": not (missing or extra or wrong),
        "computed_nonzero": {f"{s},{t}": v for (s, t), v in sorted(computed.items())},
        "printed_nonzero": {f"{s},{t}": v for (s, t), v in sorted(printed.items())},
        "missing": [f"{s},{t}" for s, t in missing],
        "extra": [f"{s},{t}" for s, t in extra],
        "wrong_value": [f"{s},{t}" for s, t in wrong],
    }
