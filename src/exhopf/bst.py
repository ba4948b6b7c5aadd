"""Structure constants b_{s,t} of the reduced-power action on the thetas.

For every admissible pair s < t in r(G,p) with t - s = k(p-1), the unique
b with P^k(theta_s) = b*theta_t mod <theta_j : j < t> is one reduction
step (`_reduce`): P^k theta_s modulo a Groebner basis of <theta_j : j < t>
truncated at degree t, solved for b against theta_t.  It runs on one
presentation of the thetas (`ThetaSet.presentation`): upstairs in the
weight ring (Method I), downstairs in the restricted Chern ring after
kappa* (Method II, much smaller and the default), or in the mixed ring
F_p[omega_r, c_2..c_N] of the printed thetas.  The last decides the
p = 2, t = 9 column of E6, E7 and E8, where kappa*theta_t vanishes (the
`case1` entries): there c_1 = 3 omega_2 = omega_2, so the mixed ring is
F_2[c_1..c_N], the ring of the Case 1 identities (their records in
`printed`).

Those ideals are nested, so the bases of one pair and presentation form
one chain (`_basis`): the basis for t is the basis for the previous r in
r(G,p), extended to truncation t by NF(theta_r), the pivot remainder of
column r.  Each column caches its own pivot remainder beside its basis,
so theta_t is reduced once, for every s of the column and for the next
link.  The extension forms no S-pair of the earlier links again
(`groebner.buchberger`), and the reduced truncated basis of an ideal is
unique, so every link equals the basis built from scratch on the thetas.

Upstairs no pivot divides the full weight expansion of theta_t, which
runs to thousands of terms ((E8,2) theta_14: 14,258; (E7,3) theta_18:
16,424) and leaves a few (65 and 12).  `_basis` takes the mixed theta_t,
a polynomial in omega_r and the c_j, sends each c_j that occurs in it to
NF(c_j(G)) against the link of column t, and divides the result once.
Each c_j(G) - NF(c_j(G)) lies in <theta_r : r < t>, so the substituted
polynomial is congruent to theta_t modulo that ideal, and, each image
being zero or of weight j, it is zero or homogeneous of weight t like
theta_t.  Up to the truncation the basis decides membership and normal
forms are unique, so both normal forms are the same, term for term.  The
dividends shrink to 2,446 and 9,566 terms.  NF(c_j(G)) is the same for
every link t > j, but a memo on it bought nothing on the `crosscheck`
pairs (0.0333-0.0334 s with it, 0.0332-0.0335 s without, three 12 s
benchmark runs a side), so each column reduces its own.

Pairs with k >= s are forced to zero by instability (P^s theta_s =
theta_s^p lies in the ideal, P^k theta_s = 0 above that) and recorded
without any reduction.

Upstairs the step reduces P^k rho_s, not P^k theta_s, where rho_s is the
pivot remainder of column s: the full weight expansion of theta_s runs to
thousands of terms ((E8,2) theta_14: 14,258), its remainder to a few
((E8,2) rho_14: 65).  theta_s - rho_s lies in <theta_j : j < s>, and the
theta-ideal is the kernel of the characteristic map, hence A_p-stable
(Kac, Invent. Math. 80, 1985).  By the Cartan formula P^k(theta_s - rho_s)
then lies in <theta_j : j < t>, and the b is the same.  Each rho_s is
asked for consecutive k, by the entries of its row (k < s, t <= max r)
and by the check below (i < j, u < max r), so all of them, up to K_s =
min(s - 1, (max r - s) // (p - 1)), come from one `steenrod.total_power`
pass on rho_s (`_rho_powers`): in the weight ring, all of whose
variables have weight 1, P^k of a monomial is a flat sum over the
compositions of k, and one enumeration cut at K_s gives every layer.

That stability is checked on every run, not assumed (`_stable`).  Before
column t, each weight u < t is taken in increasing order: for every j in
r(G,p) and 1 <= i < j with u = j + i(p-1), NF(P^i rho_j) against the link
valid at u (the link of the least r >= u, whose ideal is <theta_r : r <
u>) must be 0 when u is not in r(G,p), and a multiple of the pivot when it
is.  By induction on u every such P^i theta_j lies in <theta_r : r <= u>
(i >= j is instability), so P^k maps <theta_j : j < s> into <theta_j : j <
t>.  A failure raises `NotStable`, naming j, i and u.

Method II and the mixed ring keep P^k theta_s.  Their thetas are already
small, so downstairs the same route with its check is slower: the Method II
entries take 0.87 -> 1.07 ms on (E6,2), 1.75 -> 2.12 ms on (E8,2) and
10.4 -> 11.5 ms on (E8,5) (medians of 9 cold processes, 2-core VM, Python
3.11.7), and without the check they save at most 5%.  And the restricted
ideal need not be stable: in (F4,2) Sq^4 c_3 has a c_5 term, so P^2
theta_3 is not in <theta_2, theta_3> at weight 5.  So the check, and with
it `_stable`, `_rho_powers` and `_solve_rho`, runs upstairs only.
"""

from functools import lru_cache

from . import groebner, liedata, printed, steenrod
from .groebner import Ambiguous, NoSolution, buchberger, solve_linear_coefficient


class BstError(Exception):
    pass


class Case1Required(BstError):
    """kappa* theta_t = 0, so Method II cannot see this entry."""


class NotStable(NoSolution):
    """P^i theta_j is not in <theta_r : r <= u>, u = j + i(p-1): the
    weight presentation's theta-ideal is not P-stable, so no left side may be
    replaced by its pivot remainder."""

    def __init__(self, group, p, j, i, u):
        super().__init__(f"P^{i} theta_{j} is not in <theta_r : r <= {u}> "
                         f"in the weight presentation of ({group},{p})")
        self.j, self.i, self.u = j, i, u


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


# One chain of bases per (pair, presentation), one link per t, shared by
# every s of the column, by the next link and, upstairs, by the stability
# check.  Measured in one process (2-core VM, Python 3.11.7): the ten
# default tables ask 34 times for a basis and build 11 links upstairs (G2
# up to t = 3, F4 and E6 at p = 3 up to t = 8 for their Method I fallback
# entries), ask 82 times and build 58 links downstairs, and ask 6 times and
# build 15 mixed links (E6, E7 and E8 at p = 2 up to t = 9, for the Case 1
# column); the `crosscheck` pairs ask 97, 18 and 2 times and build 22, 20
# and 5 (asks from the chain itself not counted).  Peak RSS after the
# default pass is 19.0 MB, after the `crosscheck` pass 18.2 MB.
@lru_cache(maxsize=None)
def _basis(group, p, presentation, t):
    """(basis, pivot): the basis of <theta_j : j < t> truncated at t, and
    the `normal_form` of theta_t against it (upstairs of the congruent
    `_expand_reduced`)."""
    ts = liedata.theta_set(group, p)
    ring, theta = ts.presentation(presentation)
    lower = [r for r in ts.profile.r_set if r < t]
    base, gens = None, []
    if lower:
        base, pivot = _basis(group, p, presentation, max(lower))
        gens = [pivot.remainder]
    gb = buchberger(gens, truncation=t, ring=ring, base=base)
    theta_t = theta[t]
    if presentation == "weight":
        theta_t = _expand_reduced(group, p, theta_t, t, gb)
    # through the module, whose `normal_form` the traced benchmark wraps
    return gb, groebner.normal_form(theta_t, gb)


def _expand_reduced(group, p, theta, t, gb):
    """The mixed theta_t expanded in the weights with each c_j that occurs
    in it sent to NF(c_j(G)) against gb, the link of column t: congruent
    to theta_t modulo <theta_j : j < t> (module docstring)."""
    def image(j):
        return groebner.normal_form(liedata.chern_poly(group, p, j), gb).remainder

    return liedata.check_theta_weight(liedata.expand_in_weights(theta, group, p, image), t)


# The check and the entries of Method I share their work: each weight is
# checked once per process, after the weights below it, and each P^k rho_s
# is solved once, as an entry or in the check of weight t (the same step).
# Measured on the `crosscheck` pairs (2-core VM, Python 3.11.7): 46 asks
# check 34 weights, and 29 asks solve 19 left sides; with every memo of
# this module cleared before each run, their tables take 41.7 ms, 44.1 ms
# with no memo on `_stable` and 44.9 ms with none on `_solve_rho` (best of
# 30 interleaved in-process runs, each memo faster in 30 of 30).
@lru_cache(maxsize=None)
def _stable(group, p, u):
    """Check that P^i theta_j lies in <theta_r : r <= u> for every j in
    r(G,p) and 1 <= i < j with j + i(p-1) = u, and the same below u.

    Raises `NotStable` at the first weight and j that fail.
    """
    r_set = liedata.profile(group, p).r_set
    if u <= r_set[0]:
        return
    _stable(group, p, u - 1)
    gb, _ = _basis(group, p, "weight", min(r for r in r_set if r >= u))
    for j in r_set:
        i, rest = divmod(u - j, p - 1)
        if rest or not 1 <= i < j:
            continue
        if u in r_set:
            try:
                _solve_rho(group, p, j, u)
            except Ambiguous:
                pass  # P^i rho_j reduces to zero, as the pivot does
            except NoSolution:
                raise NotStable(group, p, j, i, u) from None
        elif not groebner.normal_form(_rho_powers(group, p, j)[i], gb).remainder.is_zero():
            raise NotStable(group, p, j, i, u)


# One pass per rho_s for every k an entry or the check asks of it.
# Measured on the `crosscheck` tables (2-core VM, Python 3.11.7, best of 40
# interleaved in-process passes): their 32 P^k rho_s, on 16 remainders,
# take 4.70 ms this way and 8.73 ms with a pass per ask (`steenrod.power`).
@lru_cache(maxsize=None)
def _rho_powers(group, p, s):
    """[P^0 rho_s, ..., P^K rho_s], rho_s the pivot remainder of column s
    upstairs, by one `steenrod.total_power` pass.  K = min(s - 1, (max
    r(G,p) - s) // (p - 1)) is the largest k that an entry (k < s, t <= max
    r) or a `_stable` check (i < j, u < max r) asks of rho_s."""
    r_set = liedata.profile(group, p).r_set
    top = min(s - 1, (max(r_set) - s) // (p - 1))
    return steenrod.total_power(_basis(group, p, "weight", s)[1].remainder, top)


# Measured with `_stable` above: 44.9 ms for the `crosscheck` tables
# without this memo, against 41.7 ms.
@lru_cache(maxsize=None)
def _solve_rho(group, p, s, t):
    """The b with P^k rho_s = b theta_t mod <theta_j : j < t> upstairs."""
    gb, pivot = _basis(group, p, "weight", t)
    lhs = _rho_powers(group, p, s)[(t - s) // (p - 1)]
    return solve_linear_coefficient(lhs, pivot, gb)


def _reduce(group, p, s, t, presentation):
    """The one reduction step of every method: the b with
    P^k theta_s = b theta_t mod <theta_j : j < t> in one presentation;
    upstairs P^k rho_s stands for P^k theta_s (module docstring)."""
    r_set = liedata.profile(group, p).r_set
    k, rest = divmod(t - s, p - 1)
    if rest or not 1 <= k < s or s not in r_set or t not in r_set:
        raise BstError(f"({s},{t}) of ({group},{p}) is not an admissible pair with k < s")
    gb, pivot = _basis(group, p, presentation, t)
    if pivot.weights is None:  # theta_t itself is zero
        if presentation == "restricted":
            raise Case1Required(f"kappa*theta_{t} = 0 for ({group},{p})")
        raise BstError(f"theta_{t} = 0 in the {presentation} presentation of ({group},{p})")
    if presentation == "weight":
        _stable(group, p, t - 1)
        return _solve_rho(group, p, s, t)
    lhs = liedata.theta_set(group, p).presentation(presentation)[1][s]
    return solve_linear_coefficient(steenrod.power(k, lhs), pivot, gb)


def compute_bst_method1(group, p, s, t):
    """b_{s,t} by Groebner reduction in the weight ring.

    The left side is P^k rho_s, rho_s the pivot remainder of theta_s: theta_s
    - rho_s lies in <theta_j : j < s>, which P^k maps into <theta_j : j < t>
    because the theta-ideal is P-stable, so the b is that of P^k theta_s.
    Every weight below t is first checked for that stability, and
    `NotStable` names the P^i theta_j that fails.  Method II and the mixed
    ring keep P^k theta_s: their thetas are small, and the restricted ideal
    of (F4,2) is not P-stable (module docstring).
    """
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
