"""Dense univariate polynomial arithmetic over a field context.

Coefficients are stored ascending as packed field ints.  `Poly` trims
trailing zeros on construction, so degree == len(coeffs) - 1 however a
polynomial was built, and the zero polynomial has an empty coefficient
tuple (degree -1).  Degrees stay in the thousands at most (the resultant
sequence), so all algorithms are the quadratic schoolbook ones; products
and divisions run on the coefficient field's row operation `axpy`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum

from .errors import (
    CtxMismatch,
    DegenerateDerivative,
    DivByZeroPoly,
    FieldTooLarge,
    ZeroPoly,
)
from .ffield import ExtCtx, FieldCtx, FqElem, elem, factorize, power

ROOT_ENUM_CAP = 10**6


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial; coeffs[i] is the packed coefficient of x^i,
    with trailing zeros dropped on construction."""

    ctx: FieldCtx | ExtCtx
    coeffs: tuple[int, ...]

    def __post_init__(self):
        c = self.coeffs
        n = len(c)
        while n and not c[n - 1]:
            n -= 1
        if n < len(c):
            object.__setattr__(self, "coeffs", c[:n])

    @staticmethod
    def make(ctx, coeffs) -> "Poly":
        return Poly(ctx, tuple(elem(ctx, c).val for c in coeffs))

    @staticmethod
    def zero(ctx) -> "Poly":
        return Poly(ctx, ())

    @staticmethod
    def x(ctx) -> "Poly":
        return Poly(ctx, (0, 1))

    @staticmethod
    def monomial(ctx, c, e: int) -> "Poly":
        return Poly(ctx, (0,) * e + (elem(ctx, c).val,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def lead(self) -> int:
        if not self.coeffs:
            raise ZeroPoly("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check(self, other: "Poly"):
        if self.ctx != other.ctx:
            raise CtxMismatch("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        ops = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, tuple([ops.add(self.coeff(i), other.coeff(i)) for i in range(n)]))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        ops = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, tuple([ops.sub(self.coeff(i), other.coeff(i)) for i in range(n)]))

    def __neg__(self) -> "Poly":
        ops = self.ctx
        return Poly(self.ctx, tuple(ops.neg(c) for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return Poly(self.ctx, ())
        ops, b = self.ctx, other.coeffs
        out = [0] * (len(self.coeffs) + len(b) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                out[i : i + len(b)] = ops.axpy(a, b, out[i : i + len(b)])
        return Poly(self.ctx, tuple(out))

    def scale(self, c) -> "Poly":
        ops = self.ctx
        c = elem(ops, c).val
        return Poly(self.ctx, tuple(ops.mul(c, a) for a in self.coeffs))

    def monic(self) -> "Poly":
        if self.is_zero:
            raise ZeroPoly("cannot normalize the zero polynomial")
        return self.scale(self.ctx.inv(self.lead))

    def __repr__(self):
        return f"Poly({self.ctx!r}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# evaluation / division / gcd
# ---------------------------------------------------------------------------


def lift(f: Poly, fld) -> Poly:
    """f read over fld: f itself, or f over k read in k_r = fld (the
    inclusion k -> k_r is the identity on packed values)."""
    if f.ctx == fld:
        return f
    if isinstance(fld, ExtCtx) and fld.base == f.ctx:
        return Poly(fld, f.coeffs)
    raise CtxMismatch("polynomial not defined over the field or its base")


def evaluate(f: Poly, x: FqElem, ext: ExtCtx | None = None) -> FqElem:
    """Horner evaluation; coefficients embed into k_r when ext is given."""
    if ext is not None:
        if x.ctx != ext:
            raise CtxMismatch("point does not belong to the extension")
        f = lift(f, ext)
    elif x.ctx != f.ctx:
        raise CtxMismatch("point from another field")
    fld = f.ctx
    acc = 0
    for c in reversed(f.coeffs):
        acc = fld.add(fld.mul(acc, x.val), c)
    return FqElem(fld, acc)


def divrem(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Division with remainder: f = g*quot + rem, deg rem < deg g."""
    f._check(g)
    if g.is_zero:
        raise DivByZeroPoly("division by the zero polynomial")
    ops = f.ctx
    rem = list(f.coeffs)
    dg = g.degree
    if f.degree < dg:
        return Poly(f.ctx, ()), f
    # a monic divisor needs no inversion and no scaling
    inv_lead = None if g.lead == 1 else ops.inv(g.lead)
    quot = [0] * (f.degree - dg + 1)
    for i in range(f.degree - dg, -1, -1):
        c = rem[i + dg]
        if c:
            if inv_lead is not None:
                c = ops.mul(c, inv_lead)
            quot[i] = c
            rem[i : i + dg + 1] = ops.axpy(ops.neg(c), g.coeffs, rem[i : i + dg + 1])
    return Poly(f.ctx, tuple(quot)), Poly(f.ctx, tuple(rem))


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    a, b = f, g
    while not b.is_zero:
        a, b = b, divrem(a, b)[1]
    if a.is_zero:
        return a
    return a.monic()


def derivative(f: Poly) -> Poly:
    ops = f.ctx
    p = ops.p
    out = []
    for i in range(1, len(f.coeffs)):
        k = i % p  # integer scalars act through the prime subfield
        out.append(ops.mul(k, f.coeffs[i]) if k and f.coeffs[i] else 0)
    return Poly(f.ctx, tuple(out))


def compose(f: Poly, g: Poly) -> Poly:
    """f(g(x)) by Horner over the polynomial ring."""
    f._check(g)
    acc = Poly(f.ctx, ())
    for c in reversed(f.coeffs):
        acc = acc * g + Poly(f.ctx, (c,))
    return acc


def _powmod(a: Poly, e: int, m: Poly) -> Poly:
    """a^e mod m by square-and-multiply."""
    return power(lambda u, v: divrem(u * v, m)[1], Poly(m.ctx, (1,)), divrem(a, m)[1], e)


def is_irreducible(m: Poly) -> bool:
    """Rabin's test over k = m.ctx with q elements: m of degree n >= 1 is
    irreducible iff x^(q^n) = x mod m and gcd(x^(q^(n/l)) - x, m) = 1 for
    every prime l dividing n."""
    n = m.degree
    if n < 1:
        return False
    q = m.ctx.size
    x = divrem(Poly.x(m.ctx), m)[1]  # x mod m, a constant in degree 1
    frob = [x]  # frob[i] = x^(q^i) mod m
    for _ in range(n):
        frob.append(_powmod(frob[-1], q, m))
    if frob[n] != x:
        return False
    return all(gcd(m, frob[n // ell] - x).degree == 0 for ell in factorize(n))


# ---------------------------------------------------------------------------
# resultant and discriminant
# ---------------------------------------------------------------------------


def resultant(f: Poly, g: Poly) -> FqElem:
    """Res(f, g) by the Euclidean scheme; 0 iff f, g share a root in the closure."""
    f._check(g)
    if f.is_zero or g.is_zero:
        raise ZeroPoly("resultant needs nonzero polynomials")
    ops = f.ctx
    a, b = f, g
    res = 1
    while b.degree > 0:
        r = divrem(a, b)[1]
        # Res(a, b) = (-1)^(da*db) * lc(b)^(da - dr) * Res(b, r)
        if (a.degree * b.degree) & 1:
            res = ops.neg(res)
        dr = r.degree if not r.is_zero else -1
        if r.is_zero:
            return FqElem(f.ctx, 0)
        res = ops.mul(res, ops.pow_(b.lead, a.degree - dr))
        a, b = b, r
    # b is a nonzero constant: Res(a, c) = c^(deg a)
    res = ops.mul(res, ops.pow_(b.coeffs[0], a.degree))
    return FqElem(f.ctx, res)


def discriminant(g: Poly) -> FqElem:
    """(-1)^(d(d-1)/2) Res(g, g') / lc(g); zero iff g has a repeated root."""
    d = g.degree
    if d < 2:
        raise ValueError("discriminant needs degree >= 2")
    if d % g.ctx.p == 0:
        raise DegenerateDerivative("degree divisible by the characteristic")
    ops = g.ctx
    gp = derivative(g)
    if gp.is_zero:
        return FqElem(g.ctx, 0)
    res = resultant(g, gp).val
    if (d * (d - 1) // 2) & 1:
        res = ops.neg(res)
    return FqElem(g.ctx, ops.mul(res, ops.inv(g.lead)))


# ---------------------------------------------------------------------------
# shifts, parity, square-freeness, roots
# ---------------------------------------------------------------------------


def shift(g: Poly, c) -> Poly:
    """g(x + c) by iterated synthetic translation (exact binomial expansion)."""
    c = elem(g.ctx, c).val
    if c == 0 or g.is_zero:
        return g
    ops = g.ctx
    out = list(g.coeffs)
    n = len(out)
    # synthetic Taylor shift: repeatedly add c times the next-higher coefficient
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = ops.add(out[j], ops.mul(c, out[j + 1]))
    return Poly(g.ctx, tuple(out))


class Parity(Enum):
    ODD = "odd"
    EVEN = "even"
    NEITHER = "neither"


def parity_check(g: Poly) -> Parity:
    """ODD iff every even-index coefficient (constant included) vanishes;
    EVEN iff every odd-index coefficient vanishes."""
    even_clear = all(c == 0 for i, c in enumerate(g.coeffs) if i % 2 == 0)
    odd_clear = all(c == 0 for i, c in enumerate(g.coeffs) if i % 2 == 1)
    if even_clear and not g.is_zero:
        return Parity.ODD
    if odd_clear:
        return Parity.EVEN
    return Parity.NEITHER


def is_squarefree(g: Poly) -> bool:
    """True iff g has no repeated roots over the algebraic closure."""
    if g.is_zero:
        raise ZeroPoly("square-freeness of the zero polynomial is undefined")
    if g.degree <= 0:
        return True
    gp = derivative(g)
    if gp.is_zero:
        return False  # p-th power
    return gcd(g, gp).degree == 0


def _pth_root_poly(f: Poly) -> Poly:
    """Inverse of x -> x^p on polynomials: exponents /p, coefficients^(q/p)."""
    ctx = f.ctx
    p, q = ctx.p, ctx.size
    out = []
    for i, c in enumerate(f.coeffs):
        if i % p == 0:
            out.append(ctx.pow_(c, q // p) if c else 0)
        else:
            assert c == 0, "not a p-th power"
    return Poly(ctx, tuple(out))


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Characteristic-p square-free decomposition.

    Returns monic pairwise-coprime square-free parts with multiplicities:
    f = lc(f) * prod(part^mult).
    """
    if f.is_zero:
        raise ZeroPoly("cannot decompose the zero polynomial")
    parts: list[tuple[Poly, int]] = []

    def run(h: Poly, outer: int):
        if h.degree <= 0:
            return
        p = h.ctx.p
        hp = derivative(h)
        if hp.is_zero:
            run(_pth_root_poly(h), outer * p)
            return
        c = gcd(h, hp)
        w = divrem(h, c)[0]
        i = 1
        while w.degree > 0:
            y = gcd(w, c)
            z = divrem(w, y)[0]
            if z.degree > 0:
                parts.append((z.monic(), i * outer))
            w = y
            c = divrem(c, y)[0]
            i += 1
        if c.degree > 0:
            # remaining part has all multiplicities divisible by p
            run(_pth_root_poly(c), outer * p)

    run(f.monic(), 1)
    return parts


@dataclass(frozen=True)
class RootStructure:
    roots: list[FqElem]
    multiplicities: list[int]
    splits_completely: bool


def root_structure(g: Poly, fld) -> RootStructure:
    """Exhaustive root search with multiplicities by repeated division."""
    if g.is_zero:
        raise ZeroPoly("roots of the zero polynomial")
    n = fld.size
    if n > ROOT_ENUM_CAP:
        raise FieldTooLarge(f"root enumeration capped at 10^6 elements, got {n}")
    work = lift(g, fld)
    roots: list[FqElem] = []
    mults: list[int] = []
    total = 0
    for v in range(n):
        x = FqElem(fld, v)
        if evaluate(work, x).val == 0:
            m = 0
            cur = work
            lin = Poly.make(fld, (fld.neg(v), 1))
            while True:
                quot, rem = divrem(cur, lin)
                if not rem.is_zero:
                    break
                cur = quot
                m += 1
            roots.append(x)
            mults.append(m)
            total += m
    return RootStructure(roots, mults, total == work.degree)


def split_power_of_x(g: Poly) -> tuple[int, Poly]:
    """Write g = x^a * g0 with g0(0) != 0; returns (a, g0)."""
    if g.is_zero:
        raise ZeroPoly("cannot normalize the zero polynomial")
    a = 0
    while g.coeffs[a] == 0:
        a += 1
    return a, Poly(g.ctx, g.coeffs[a:])


# ---------------------------------------------------------------------------
# text format (configs and reports)
# ---------------------------------------------------------------------------


def poly_to_text(g: Poly) -> str:
    """Comma-separated a_0,...,a_d as decimal residues over prime fields, or
    bracketed coefficient vectors over extension fields."""
    ctx = g.ctx
    if isinstance(ctx, FieldCtx) and ctx.s == 1:
        return ",".join(str(c) for c in g.coeffs)
    return ",".join("[" + " ".join(str(d) for d in ctx.unpack(c)) + "]" for c in g.coeffs)


def coeffs_from_text(text: str) -> list:
    """Parse coefficient text in full: comma-separated ints, or comma-separated
    non-empty [d_0 d_1 ...] digit groups, never a mix; blank text is [].
    Raises ValueError on anything else."""
    if not text.strip():
        return []
    items = [t.strip() for t in text.split(",")]
    if "[" not in text:
        return [int(t) for t in items]
    groups = []
    for t in items:
        m = re.fullmatch(r"\[([^\[\]]*)\]", t)
        digits = [int(d) for d in m.group(1).split()] if m else []
        if not digits:
            raise ValueError(f"expected a non-empty [d_0 d_1 ...] group, got {t!r}")
        groups.append(digits)
    return groups


def coeff_errors(coeffs: list, p: int, s: int, r: int | None = None) -> list[str]:
    """Why each parsed coefficient names no element of F_{p^s} (r is None)
    or of its degree-r extension k_r; empty when every one does.

    Over a prime field an integer is a residue, reduced mod p.  Elsewhere
    an integer is a packed value and must lie in [0, size).  A digit group
    lists at most s digits in [0, p) over F_{p^s}, or at most r digits in
    [0, p^s) over k_r.
    """
    base, n_digits = (p, s) if r is None else (p**s, r)
    size = base**n_digits
    errors = []
    for i, c in enumerate(coeffs):
        if isinstance(c, list):
            if len(c) > n_digits or not all(0 <= d < base for d in c):
                errors.append(
                    f"a_{i} = [{' '.join(map(str, c))}] needs at most {n_digits} digits, "
                    f"each in [0, {base})"
                )
        elif (r is not None or s > 1) and not 0 <= c < size:
            errors.append(f"a_{i} = {c} is not in [0, {size})")
    return errors


def poly_from_text(ctx, text: str) -> Poly:
    """Parse coefficient text over ctx; a coefficient that `coeff_errors`
    rejects raises ValueError with its message."""
    coeffs = coeffs_from_text(text)
    if isinstance(ctx, ExtCtx):
        errors = coeff_errors(coeffs, ctx.base.p, ctx.base.s, ctx.r)
    else:
        errors = coeff_errors(coeffs, ctx.p, ctx.s)
    if errors:
        raise ValueError(errors[0])
    return Poly.make(ctx, [ctx.pack(c) if isinstance(c, list) else c for c in coeffs])


def random_poly(ctx, d: int, rng: random.Random, monic: bool = False) -> Poly:
    n = ctx.size
    coeffs = [rng.randrange(n) for _ in range(d)]
    coeffs.append(1 if monic else rng.randrange(1, n))
    return Poly(ctx, tuple(coeffs))
