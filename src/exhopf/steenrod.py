"""Reduced-power engines on the two polynomial models.

Mode "weight" acts on rings generated in topological degree 2 (every
variable of weight 1), where the total operation t -> t + t^p is
multiplicative and exact: P^k of a monomial is a sum over ways to raise k
of its letters to the p-th power, with multinomial coefficients.  No Wu
formulas enter, which is what makes the completeness sweep possible at
arbitrary k.

Mode "chern" acts on the abstract restricted Chern ring c_2..c_N: the
action on a generator c_m is the universal Wu formula specialized by
c_1 = 0 and c_j = 0 for j > N, extended to products by the Cartan
formula.  (Odd Steenrod squares vanish identically on these subrings at
p = 2, so the pure P-Cartan recursion is exact there too.)
"""

from math import comb

from .ffpoly import Polynomial
from . import liedata
from .symfun import wu_formula


class SteenrodError(ValueError):
    pass


class SteenrodContext:
    def __init__(self, mode, ring):
        if mode not in ("weight", "chern"):
            raise SteenrodError(f"unknown mode {mode!r}")
        self.mode = mode
        self.ring = ring
        self.p = ring.field.p
        if mode == "weight":
            if any(w != 1 for w in ring.weights):
                raise SteenrodError("weight mode needs every variable in degree 2")
        else:
            self.indices = []
            for name, w in zip(ring.names, ring.weights):
                if not name.startswith("c") or int(name[1:]) != w:
                    raise SteenrodError("chern mode needs variables c_k of weight k")
                self.indices.append(w)
            self.rank = max(self.indices)
            self.wu_cache = {}
            self._var_power_cache = {}
            self._monomial_cache = {}

    def __repr__(self):
        return f"SteenrodContext({self.mode}, F{self.p}, {self.ring.names})"


def weight_context(ring):
    return SteenrodContext("weight", ring)


def chern_context(ring):
    return SteenrodContext("chern", ring)


def total_steenrod(f, ctx):
    """The full (inhomogeneous) total operation in weight mode."""
    if ctx.mode != "weight":
        raise SteenrodError("total_steenrod is a weight-mode operation")
    if f.ring != ctx.ring:
        raise SteenrodError("polynomial does not live in the context ring")
    R = ctx.ring
    mapping = {name: R.variable(name) + R.variable(name) ** ctx.p for name in R.names}
    return f.substitute(mapping, target_ring=R, check_weights=False)


def _power_weight(k, f, ctx):
    R = ctx.ring
    p = ctx.p
    out = {}
    for mon, c in f.terms.items():
        # distribute k power-raisings over the letters of the monomial
        slots = [(i, e) for i, e in enumerate(mon) if e]

        def rec(idx, left, coeff, raised):
            if coeff == 0:
                return
            if idx == len(slots):
                if left == 0:
                    new = list(mon)
                    for i, j in raised:
                        new[i] += (p - 1) * j
                    key = tuple(new)
                    v = (out.get(key, 0) + coeff) % p
                    if v:
                        out[key] = v
                    else:
                        out.pop(key, None)
                return
            i, e = slots[idx]
            room = sum(s[1] for s in slots[idx + 1 :])
            for j in range(min(e, left), -1, -1):
                if left - j > room:
                    break
                rec(idx + 1, left - j, (coeff * comb(e, j)) % p, raised + [(i, j)])

        rec(0, k, c, [])
    return Polynomial(R, out)


def _wu_on_generator(k, m, ctx):
    """P^k c_m in the restricted ring: Wu formula with c_1 = 0, c_{>N} = 0."""
    key = (k, m)
    if key in ctx.wu_cache:
        return ctx.wu_cache[key]
    if k == 0:
        result = ctx.ring.variable(f"c{m}")
    elif k > m:
        result = ctx.ring.zero()
    else:
        universal = wu_formula(ctx.p, k, m)
        mapping = {}
        for name in universal.ring.names:
            idx = int(name[1:])
            if idx == 1 or idx > ctx.rank:
                mapping[name] = ctx.ring.zero()
            else:
                mapping[name] = ctx.ring.variable(name)
        result = universal.substitute(mapping, target_ring=ctx.ring)
    ctx.wu_cache[key] = result
    return result


def _power_var(k, var_idx, exp, ctx):
    """P^k (c^exp) for a single chern variable, by pairwise Cartan."""
    key = (k, var_idx, exp)
    cached = ctx._var_power_cache.get(key)
    if cached is not None:
        return cached
    m = ctx.indices[var_idx]
    if exp == 0:
        result = ctx.ring.one() if k == 0 else ctx.ring.zero()
    elif exp == 1:
        result = _wu_on_generator(k, m, ctx)
    else:
        result = ctx.ring.zero()
        for i in range(min(k, m) + 1):
            left = _wu_on_generator(i, m, ctx)
            if left.is_zero():
                continue
            right = _power_var(k - i, var_idx, exp - 1, ctx)
            if right.is_zero():
                continue
            result = result + left * right
    ctx._var_power_cache[key] = result
    return result


def _power_monomial(k, mon, ctx):
    key = (k, mon)
    cached = ctx._monomial_cache.get(key)
    if cached is not None:
        return cached
    slots = [(i, e) for i, e in enumerate(mon) if e]
    if not slots:
        result = ctx.ring.one() if k == 0 else ctx.ring.zero()
    elif len(slots) == 1:
        i, e = slots[0]
        result = _power_var(k, i, e, ctx)
    else:
        i, e = slots[0]
        rest = list(mon)
        rest[i] = 0
        rest = tuple(rest)
        cap = ctx.indices[i] * e  # instability: P^j kills c_m^e beyond j = m*e
        result = ctx.ring.zero()
        for j in range(min(k, cap) + 1):
            left = _power_var(j, i, e, ctx)
            if left.is_zero():
                continue
            right = _power_monomial(k - j, rest, ctx)
            if right.is_zero():
                continue
            result = result + left * right
    ctx._monomial_cache[key] = result
    return result


def power(k, f, ctx):
    """The k-th reduced power of a homogeneous polynomial."""
    if k < 0:
        raise SteenrodError("negative power index")
    if f.ring != ctx.ring:
        raise SteenrodError("polynomial does not live in the context ring")
    if not f.is_homogeneous():
        raise SteenrodError("reduced powers act on homogeneous polynomials here")
    if k == 0 or f.is_zero():
        return f
    w = f.weight()
    if k > w:
        return ctx.ring.zero()
    if k == w:
        return f ** ctx.p
    if ctx.mode == "weight":
        return _power_weight(k, f, ctx)
    total = ctx.ring.zero()
    for mon, c in f.terms.items():
        total = total + c * _power_monomial(k, mon, ctx)
    return total


def verify_case1(group, p):
    """Term-exact certification of b_{5,9} = b_{8,9} = 1 at p = 2, t = 9.

    Checks, in the weight ring with the chern polynomials substituted
    (c7 = 0 for E6, whose bundle stops at c6):

        P^1 theta_8 = theta_9
        P^4 theta_5 = theta_9 + c4 theta_5 + (w2^2 c4 + c6) theta_3
                      + (w2^2 c5 + c7) theta_2

    The second identity is as displayed.  The first is displayed with an
    extra w2^4 theta_5 summand, which direct computation refutes (the two
    w2^4 c5 contributions of P^1 theta_8 cancel mod 2); since that term
    lies in the lower-theta ideal, either reading gives b_{8,9} = 1.  The
    report records both forms.
    """
    if p != 2 or group not in ("E6", "E7", "E8"):
        raise SteenrodError(f"case 1 only occurs for p=2, G=E6/E7/E8, not ({group},{p})")
    ts = liedata.theta_set(group, p)
    R = ts.weight_ring
    ctx = weight_context(R)
    th = {s: ts.omega(s) for s in (2, 3, 5, 8, 9)}
    w2 = R.variable("w2")

    def cp(k):
        return (
            liedata.chern_poly(group, p, k)
            if k <= liedata.CHERN_COUNT[group]
            else R.zero()
        )

    lhs1 = power(1, th[8], ctx)
    lhs2 = power(4, th[5], ctx)
    rhs2 = (
        th[9]
        + cp(4) * th[5]
        + (w2 ** 2 * cp(4) + cp(6)) * th[3]
        + (w2 ** 2 * cp(5) + cp(7)) * th[2]
    )
    report = {
        "p1_theta8_equals_theta9": lhs1 == th[9],
        "p1_theta8_as_printed": lhs1 == th[9] + w2 ** 4 * th[5],
        "p4_theta5_as_printed": lhs2 == rhs2,
    }
    report["pass"] = (
        report["p1_theta8_equals_theta9"] and report["p4_theta5_as_printed"]
    )
    return report
