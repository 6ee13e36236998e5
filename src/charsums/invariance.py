"""Translation/homothety invariance decompositions and degree reduction.

A polynomial over k is translation invariant exactly when it factors
through x^q - x; the constructive decomposition below runs the division
recursion whose remainders certify invariance.  Homothety invariance
under the index-e subgroup of k^* means every monomial exponent is
divisible by (q-1)/e.  Artin-Schreier reduction rewrites away p-divisible
leading degrees while preserving psi(Tr f(x)) pointwise on every
extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .charsum import AdditiveChar
from .errors import NotInvariant, ZeroPoly
from .ffield import FieldCtx
from .polyring import ANALYSIS_CACHE, Poly, divrem, squarefree_decomposition


def artin_schreier_poly(ctx, q: int) -> Poly:
    """x^q - x over the given coefficient field."""
    coeffs = [0] * (q + 1)
    coeffs[1] = ctx.neg(1)
    coeffs[q] = 1
    return Poly(ctx, tuple(coeffs))


def decompose_translation(f: Poly) -> Poly:
    """Find g with f(x) = g(x^q - x), or raise NotInvariant.

    Runs the division recursion: split off x^q - x, demand a constant
    remainder, recurse on the quotient; g is reassembled as x*t(x) + r.
    """
    ctx = f.ctx
    if not isinstance(ctx, FieldCtx):
        raise ValueError("translation invariance is over the base field k")
    q = ctx.q
    asp = artin_schreier_poly(ctx, q)

    def recurse(h: Poly) -> Poly:
        if h.degree <= 0:
            return h
        if h.degree < q:
            raise NotInvariant("nonconstant polynomial of degree < q")
        quot, rem = divrem(h, asp)
        if rem.degree > 0:
            raise NotInvariant("remainder modulo x^q - x is not constant")
        t = recurse(quot)
        g = Poly.make(ctx, (0, 1)) * t + rem
        return g

    return recurse(f)


def decompose_homothety(f: Poly, e: int) -> Poly:
    """Find g with f(x) = g(x^((q-1)/e)), or raise NotInvariant.

    Exists iff every monomial exponent of f is divisible by (q-1)/e.
    The coefficient field may be k or an extension k_r; the invariance
    group lives in k^* either way.
    """
    ctx = f.ctx
    base = ctx if isinstance(ctx, FieldCtx) else ctx.base
    q = base.q
    if e < 1 or (q - 1) % e != 0:
        raise ValueError(f"e={e} does not divide q-1={q - 1}")
    n = (q - 1) // e
    if f.is_zero:
        return f
    out = [0] * (f.degree // n + 1)
    for i, c in enumerate(f.coeffs):
        if c:
            if i % n != 0:
                raise NotInvariant(f"monomial x^{i} has exponent not divisible by {n}")
            out[i // n] = c
    return Poly(ctx, tuple(out))


def homothety_invariant_pointwise(f: Poly, e: int) -> bool:
    """Polynomial identity f(lambda^e x) = f(x) for every lambda in k^*."""
    ctx = f.ctx
    base = ctx if isinstance(ctx, FieldCtx) else ctx.base
    for lam in range(1, base.q):
        scale = base.pow_(lam, e)  # in k, and so in k_r as the same packed value
        power = 1
        for i, c in enumerate(f.coeffs):
            if i:
                power = ctx.mul(power, scale)
            if c and ctx.mul(c, power) != c:
                return False
    return True


# ---------------------------------------------------------------------------
# Artin-Schreier reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ASReduction:
    reduced: Poly
    d_prime: int
    steps: tuple[tuple[int, int], ...]  # (removed degree, substitute degree)


def _twist_constant(psi: AdditiveChar) -> int:
    """The unique a in k with psi(t^p) = psi(a*t) for all t.

    For psi = psi_b, Tr_{k/F_p} is Frobenius-invariant, so
    Tr(b t^p) = Tr(b^(1/p) t) and a = b^(1/p - 1) = b^(q/p - 1); for the
    canonical character (b = 1), a = 1.
    """
    ctx = psi.ctx
    if psi.is_trivial:
        raise ValueError("twist constant needs a nontrivial character")
    return ctx.pow_(psi.b, ctx.q // ctx.p - 1)


@lru_cache(maxsize=ANALYSIS_CACHE)
def as_reduce(f: Poly, psi: AdditiveChar) -> ASReduction:
    """Reduce f until its degree is prime to p, preserving psi(Tr f(x)).

    While the leading degree d = e*p is divisible by p, replace a_d x^d
    by a*b_d x^e where b_d^p = a_d and a is the twist constant of psi.
    Memoized, like `mth_power_test`: both are pure in frozen arguments.
    """
    ctx = f.ctx
    if not isinstance(ctx, FieldCtx) or ctx != psi.ctx:
        raise ValueError("polynomial and character must live on the same base field")
    p, q = ctx.p, ctx.q
    a = _twist_constant(psi)
    g = f
    steps: list[tuple[int, int]] = []
    while g.degree >= 1 and g.degree % p == 0:
        d = g.degree
        e = d // p
        ad = g.lead
        bd = ctx.pow_(ad, q // p)  # unique p-th root in k
        coeffs = list(g.coeffs)
        coeffs[d] = 0
        coeffs[e] = ctx.add(coeffs[e], ctx.mul(a, bd))
        g = Poly(ctx, tuple(coeffs))
        steps.append((d, e))
    d_prime = g.degree if g.degree >= 1 else 0
    return ASReduction(reduced=g, d_prime=d_prime, steps=tuple(steps))


# ---------------------------------------------------------------------------
# m-th power test
# ---------------------------------------------------------------------------


@lru_cache(maxsize=ANALYSIS_CACHE)
def mth_power_test(f: Poly, m: int) -> tuple[bool, int]:
    """(is f = c*h^m for some h, number of distinct roots in the closure).

    Computed from the characteristic-p square-free decomposition: f is an
    m-th power up to a constant iff every multiplicity is divisible by m,
    and the distinct-root count is the degree of the radical.
    """
    if f.is_zero:
        raise ZeroPoly("m-th power test on the zero polynomial")
    if m < 1:
        raise ValueError("m must be >= 1")
    if f.degree <= 0:
        return True, 0
    parts = squarefree_decomposition(f)
    is_power = all(mult % m == 0 for _, mult in parts)
    e_distinct = sum(part.degree for part, _ in parts)
    return is_power, e_distinct
