"""Truncated Laurent series at infinity and the exceptional-cell local data.

A LaurentTail stores finitely many leading coefficients of a series
sum_i c_i t^(k-i) in descending powers of t.  Precision is tracked as
the exponent of the first unknown term (`o_exp`): the tail represents
its known part plus O(t^o_exp).  Addition takes the weaker precision,
multiplication combines precisions as in interval arithmetic, and both
roots and compositional inverses are computed by Newton iteration, which
needs only that the relevant integer constants are invertible in k.

compute_local_data solves u(t)^(d-1) = -g'(t) for a tail u with leading
exponent 1, inverts it compositionally to get v, and reads the
polynomial part of g(v(t)) + v(t) t^(d-1) off the top of the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    BadCharacteristic,
    HypothesisFailed,
    NoRootInField,
    PrecisionExhausted,
)
from .ffield import FieldCtx, power
from .polyring import Poly


@dataclass(frozen=True)
class LaurentTail:
    """sum(coeffs[i] * t^(top_exp - i)) + O(t^(top_exp - len(coeffs)))."""

    ctx: FieldCtx
    top_exp: int
    coeffs: tuple[int, ...]

    @property
    def o_exp(self) -> int:
        return self.top_exp - len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff_at(self, e: int) -> int:
        """Coefficient of t^e; must be within the known range."""
        if e <= self.o_exp:
            raise PrecisionExhausted(f"coefficient of t^{e} below precision O(t^{self.o_exp})")
        if e > self.top_exp:
            return 0
        return self.coeffs[self.top_exp - e]

    def __repr__(self):
        return f"Tail(top={self.top_exp}, {list(self.coeffs)}, O(t^{self.o_exp}))"


def tail(ctx: FieldCtx, top_exp: int, coeffs) -> LaurentTail:
    """Normalize: strip leading zeros, keeping the O-term exponent fixed."""
    coeffs = list(coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        top_exp -= 1
    return LaurentTail(ctx, top_exp, tuple(coeffs))


def from_poly(g: Poly, o_exp: int) -> LaurentTail:
    """A polynomial viewed as a tail known down to (but excluding) o_exp."""
    ctx = g.ctx
    if g.is_zero:
        return LaurentTail(ctx, o_exp, ())
    top = g.degree
    coeffs = [g.coeff(top - i) for i in range(top - o_exp)]
    return tail(ctx, top, coeffs)


def monomial(ctx: FieldCtx, c: int, e: int, o_exp: int) -> LaurentTail:
    if c == 0:
        return LaurentTail(ctx, o_exp, ())
    return tail(ctx, e, [c] + [0] * (e - o_exp - 1))


def t_neg(a: LaurentTail) -> LaurentTail:
    return LaurentTail(a.ctx, a.top_exp, tuple(a.ctx.neg(c) for c in a.coeffs))


def t_scale(a: LaurentTail, s: int) -> LaurentTail:
    if s == 0:
        return LaurentTail(a.ctx, a.o_exp, ())
    return LaurentTail(a.ctx, a.top_exp, tuple(a.ctx.mul(s, c) for c in a.coeffs))


def t_add(a: LaurentTail, b: LaurentTail) -> LaurentTail:
    ctx = a.ctx
    o = max(a.o_exp, b.o_exp)
    top = max(a.top_exp, b.top_exp) if not (a.is_zero and b.is_zero) else o
    if top <= o:
        return LaurentTail(ctx, o, ())
    out = []
    for e in range(top, o, -1):
        ca = a.coeffs[a.top_exp - e] if a.o_exp < e <= a.top_exp else 0
        cb = b.coeffs[b.top_exp - e] if b.o_exp < e <= b.top_exp else 0
        out.append(ctx.add(ca, cb))
    return tail(ctx, top, out)


def t_sub(a: LaurentTail, b: LaurentTail) -> LaurentTail:
    return t_add(a, t_neg(b))


def t_mul(a: LaurentTail, b: LaurentTail) -> LaurentTail:
    ctx = a.ctx
    # first unknown exponent of the product
    ka = a.top_exp if not a.is_zero else a.o_exp
    kb = b.top_exp if not b.is_zero else b.o_exp
    o = max(ka + b.o_exp, kb + a.o_exp)
    if a.is_zero or b.is_zero:
        return LaurentTail(ctx, o, ())
    top = a.top_exp + b.top_exp
    if top <= o:
        return LaurentTail(ctx, o, ())
    n = top - o
    out = [0] * n
    for i, ca in enumerate(a.coeffs):
        if ca:
            for j, cb in enumerate(b.coeffs):
                if cb and i + j < n:
                    out[i + j] = ctx.add(out[i + j], ctx.mul(ca, cb))
    return tail(ctx, top, out)


def t_inv(a: LaurentTail) -> LaurentTail:
    """Multiplicative inverse; relative precision is preserved."""
    if a.is_zero:
        raise ZeroDivisionError("inverse of a zero-to-precision tail")
    ctx = a.ctx
    n = len(a.coeffs)
    c0_inv = ctx.inv(a.coeffs[0])
    out = [c0_inv] + [0] * (n - 1)
    for i in range(1, n):
        acc = 0
        for j in range(i):
            acc = ctx.add(acc, ctx.mul(out[j], a.coeffs[i - j]))
        out[i] = ctx.neg(ctx.mul(c0_inv, acc))
    return LaurentTail(ctx, -a.top_exp, tuple(out))


def t_pow(a: LaurentTail, e: int) -> LaurentTail:
    if e < 0:
        return t_pow(t_inv(a), -e)
    # exact constant 1 with plenty of precision; muls then narrow it
    one = from_poly(Poly.make(a.ctx, (1,)), min(a.o_exp - a.top_exp, -1))
    return power(t_mul, one, a, e)


def series_nth_root(a: LaurentTail, n: int, branch: int) -> LaurentTail:
    """Newton solve of r^n = a, with the caller-supplied branch for the lead.

    Requires p not dividing n and branch^n equal to the leading coefficient.
    """
    ctx = a.ctx
    if a.is_zero:
        raise NoRootInField("root of a zero-to-precision tail")
    if n % ctx.p == 0:
        raise BadCharacteristic(f"n = {n} is divisible by p = {ctx.p}")
    if a.top_exp % n != 0:
        raise NoRootInField(f"leading exponent {a.top_exp} not divisible by {n}")
    if ctx.pow_(branch, n) != a.coeffs[0]:
        raise NoRootInField("supplied branch is not an n-th root of the lead")
    if n == 1:
        return a
    prec = len(a.coeffs)
    n_inv = ctx.inv(n % ctx.p)
    r = monomial(ctx, branch, a.top_exp // n, a.top_exp // n - prec)
    for _ in range(max(1, prec.bit_length()) + 2):
        # r <- r - (r^n - a) / (n r^(n-1))
        rn1 = t_pow(r, n - 1)
        err = t_sub(t_mul(rn1, r), a)
        if err.is_zero:
            break
        step = t_scale(t_mul(err, t_inv(rn1)), n_inv)
        r = t_sub(r, step)
    assert t_sub(t_pow(r, n), a).is_zero, "Newton iteration failed to converge"
    return r


def series_reversion(u: LaurentTail) -> LaurentTail:
    """Compositional inverse at infinity: v with v(u(t)) = t + O(t^(1-N)).

    u must have leading exponent 1 with nonzero lead.
    """
    ctx = u.ctx
    if u.is_zero or u.top_exp != 1:
        raise ValueError("reversion needs a tail of leading exponent 1")
    n = len(u.coeffs)
    # powers u^(1-i) for i = 0..n-1
    u_inv = t_inv(u)
    powers = [u]
    for _ in range(n - 1):
        powers.append(t_mul(powers[-1], u_inv))
    r0 = u.coeffs[0]
    target = monomial(ctx, 1, 1, 1 - n)
    acc = LaurentTail(ctx, 1 - n, ())
    s_coeffs = []
    for i in range(n):
        gap_exp = 1 - i
        diff = t_sub(target, acc)
        gap = diff.coeff_at(gap_exp) if gap_exp > diff.o_exp else 0
        lead_i = ctx.pow_(r0, 1 - i)
        si = ctx.mul(gap, ctx.inv(lead_i))
        s_coeffs.append(si)
        if si:
            acc = t_add(acc, t_scale(powers[i], si))
    return tail(ctx, 1, s_coeffs)


def compose_poly(g: Poly, w: LaurentTail) -> LaurentTail:
    """g(w(t)) by Horner.

    Polynomial coefficients are exact, so their lifts carry enough spare
    precision that only w's own truncation limits the result.
    """
    ctx = g.ctx
    spare = len(w.coeffs) + (abs(w.top_exp) + 1) * (max(g.degree, 1) + 1) + 4
    if g.is_zero:
        return LaurentTail(ctx, w.o_exp, ())
    acc = monomial(ctx, g.lead, 0, -spare)
    for c in reversed(g.coeffs[:-1]):
        acc = t_mul(acc, w)
        acc = t_add(acc, monomial(ctx, c, 0, -spare))
    return acc


# ---------------------------------------------------------------------------
# local data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LocalData:
    """s0, the polynomial part b_0..b_d, and the chosen root branch."""

    ctx: FieldCtx
    d: int
    s0: int
    h_coeffs: tuple[int, ...]  # b_0 .. b_d, packed
    chosen_root: int

    @property
    def b0(self) -> int:
        return self.h_coeffs[0]


def root_branches(g: Poly) -> list[int]:
    """All z in k with z^(d-1) = -d*a_d, in coefficient-vector order."""
    ctx = g.ctx
    d = g.degree
    target = ctx.neg(ctx.mul(d % ctx.p, g.lead))
    sols = [z for z in range(ctx.q) if ctx.pow_(z, d - 1) == target]
    return sorted(sols, key=ctx.unpack)


def compute_local_data(g: Poly, precision: int | None = None, branch: int | None = None) -> LocalData:
    """Solve for u, v and the polynomial part of g(v(t)) + v(t) t^(d-1).

    Precondition: p > d and -d*a_d has a (d-1)-th root in k.  The default
    branch is the lexicographically smallest root by coefficient vector.
    Exact identities s0^(d-1) * d * a_d = -1 and b_{d-1} * d * a_d =
    -a_{d-1} are asserted on the result.
    """
    ctx = g.ctx
    if not isinstance(ctx, FieldCtx):
        raise ValueError("local data is computed over the base field k")
    d = g.degree
    if d < 2:
        raise ValueError("local data needs degree >= 2")
    if ctx.p <= d:
        raise HypothesisFailed(f"needs p > d, got p = {ctx.p}, d = {d}")
    n = precision if precision is not None else d + 6
    if n < d + 2:
        raise ValueError(f"precision must be at least d + 2 = {d + 2}")

    branches = root_branches(g)
    if not branches:
        raise HypothesisFailed(f"-d*a_d has no (d-1)-th root in F_{ctx.q}")
    if branch is None:
        branch = branches[0]
    elif branch not in branches:
        raise NoRootInField("requested branch is not a root")

    from .polyring import derivative

    minus_gp = -derivative(g)
    u = series_nth_root(from_poly(minus_gp, (d - 1) - n), d - 1, branch)
    v = series_reversion(u)
    # t^(d-1) is exact; give it spare precision so only v truncates
    shift_mono = monomial(ctx, 1, d - 1, d - 1 - len(v.coeffs) - d - 2)
    h_tail = t_add(compose_poly(g, v), t_mul(v, shift_mono))
    if h_tail.o_exp > -1:
        raise PrecisionExhausted(
            f"need coefficients down to t^0 but only O(t^{h_tail.o_exp}) is known"
        )
    b = tuple(h_tail.coeff_at(i) for i in range(d + 1))
    s0 = v.coeffs[0]

    # exact coefficient identities of the construction
    dad = ctx.mul(d % ctx.p, g.lead)
    assert ctx.mul(ctx.pow_(s0, d - 1), dad) == ctx.neg(1)
    assert ctx.mul(b[d - 1], dad) == ctx.neg(g.coeff(d - 1))
    return LocalData(ctx=ctx, d=d, s0=s0, h_coeffs=b, chosen_root=branch)
