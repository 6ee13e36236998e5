"""Exact arithmetic in F_p, F_q = F_{p^s} and extensions F_{q^r}.

Elements are packed integers.  An element of F_{p^s} with coefficient
vector (c_0, ..., c_{s-1}) over F_p is stored as sum(c_i * p**i); an
element of F_{q^r} with digit vector (d_0, ..., d_{r-1}) over F_q is
stored as sum(d_j * q**j).  Packed values are hashable, compact and make
the canonical enumeration order (0, 1, 2, ...) trivial.  The FqElem
wrapper recovers coefficient vectors and provides operator overloads for
the algebraic layers; the hot enumeration kernels in `charsum` work on
raw digit tuples through the closures built by `ExtCtx._kops`.

Extensions are represented relative to the base field k (k_r =
k[Y]/(m_r)), not rebuilt over F_p, so trace and norm relative to k come
out as Frobenius sums/products directly.  F_{p^s} (s > 1) is itself the
degree-s extension of F_p, so its arithmetic and lookup tables come from
that extension's kernel, with the same packing.  `make_field` and
`make_ext` share one seeded search for modulus and generator, and return
one context per argument tuple; a context pickles back into that call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from types import SimpleNamespace

from .errors import (
    CtxMismatch,
    FieldTooLarge,
    NotPrime,
    Overflow,
    ZeroElement,
)

# full add/mul lookup tables are built for base fields up to this size
TABLE_CAP = 1024
# discrete-log tables (and hence multiplicative character evaluation on k)
DLOG_CAP = 1 << 22
MAX_CARD = 1 << 63


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[int]:
    """Distinct prime divisors of n, by trial division (desk scale)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# generic dense polynomial helpers over an "ops" object
#
# ops must provide: zero, one, add, sub, neg, mul, inv.  Coefficient lists
# are ascending, trailing zeros trimmed.  Used to bootstrap modulus search
# and irreducibility tests both over F_p and over an already-built k.
# ---------------------------------------------------------------------------


def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(ops, a, b):
    if not a or not b:
        return []
    out = [ops.zero] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = ops.add(out[i + j], ops.mul(ai, bj))
    return _ptrim(out)


def _pmod(ops, a, m):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm:
        c = a[-1]
        if c:
            off = len(a) - 1 - dm
            for j in range(dm):
                if m[j]:
                    a[off + j] = ops.sub(a[off + j], ops.mul(c, m[j]))
        a.pop()
    return _ptrim(a)


def _pmulmod(ops, a, b, m):
    return _pmod(ops, _pmul(ops, a, b), m)


def _ppowmod(ops, a, e, m):
    result = [ops.one]
    base = _pmod(ops, list(a), m)
    while e:
        if e & 1:
            result = _pmulmod(ops, result, base, m)
        base = _pmulmod(ops, base, base, m)
        e >>= 1
    return result


def _pgcd(ops, a, b):
    a, b = list(a), list(b)
    while b:
        # make b monic before reducing
        lead_inv = ops.inv(b[-1])
        b = [ops.mul(lead_inv, c) for c in b]
        a, b = b, _pmod(ops, a, b)
    return a


def _irreducible(ops, m, card):
    """Is monic m irreducible over a field of cardinality `card`?"""
    deg = len(m) - 1
    if deg < 1:
        return False
    x = [ops.zero, ops.one]
    # x^(card^deg) must reduce to x mod m
    t = list(x)
    for _ in range(deg):
        t = _ppowmod(ops, t, card, m)
    if _psub(ops, t, x):
        return False
    for ell in factorize(deg):
        u = list(x)
        for _ in range(deg // ell):
            u = _ppowmod(ops, u, card, m)
        g = _pgcd(ops, m, _psub(ops, u, x))
        if len(g) - 1 != 0:
            return False
    return True


def _psub(ops, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        ai = a[i] if i < len(a) else ops.zero
        bi = b[i] if i < len(b) else ops.zero
        out.append(ops.sub(ai, bi))
    return _ptrim(out)


# ---------------------------------------------------------------------------
# construction: one seeded search, one context per argument tuple
# ---------------------------------------------------------------------------

# (p, s, seed) -> FieldCtx and (base, r, seed) -> ExtCtx
_CONTEXTS: dict[tuple, object] = {}


def _unit_generator(rng, ctx, size: int) -> int:
    """The first seeded draw in [1, size) whose order is size - 1."""
    prime_divs = factorize(size - 1)
    while True:
        g = rng.randrange(1, size)
        if all(ctx.pow_(g, (size - 1) // ell) != 1 for ell in prime_divs):
            break
    assert ctx.pow_(g, size - 1) == 1
    return g


def _extension(base: "FieldCtx", r: int, rng, seed: int) -> "ExtCtx":
    """base[Y]/(m) for the first seeded monic irreducible m of degree r >= 2,
    with the first seeded generator of its unit group."""
    while True:
        coeffs = [rng.randrange(base.q) for _ in range(r)] + [1]
        if _irreducible(base, coeffs, base.q):
            break
    ctx = ExtCtx(base=base, r=r, modulus_r=tuple(coeffs), generator_r=1, seed=seed)
    object.__setattr__(ctx, "generator_r", _unit_generator(rng, ctx, ctx.size))
    return ctx


# ---------------------------------------------------------------------------
# base field context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldCtx:
    """Descriptor of k = F_q = F_p[X]/(m(X)); immutable and shareable.

    `modulus` is the packed-coefficient tuple of the monic irreducible m
    (absent for prime fields).  `generator` is a fixed generator of k^*.
    Contexts compare by mathematical content; `seed` is construction
    metadata only.
    """

    p: int
    s: int
    modulus: tuple[int, ...] | None
    generator: int
    q: int
    seed: int = field(default=0, compare=False)

    # -- packing ----------------------------------------------------------
    def pack(self, vec) -> int:
        v = 0
        for c in reversed(list(vec)):
            v = v * self.p + c % self.p
        return v

    def unpack(self, a: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.s):
            a, c = divmod(a, self.p)
            out.append(c)
        return tuple(out)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def __reduce__(self):
        return make_field, (self.p, self.s, self.seed)

    # -- cached structure --------------------------------------------------
    # For s > 1, make_field sets `_ext`: this field as the degree-s
    # extension of F_p (same packing), whose kernel does the arithmetic.
    # It is private and never handed out: it pickles as a make_ext call,
    # which would build a different modulus.

    def _ext_table(self, op: str):
        # q x q table of an extension-kernel operation on digit tuples
        ext = self._ext
        f, pack = getattr(ext._kops, op), ext.pack
        vecs = [ext.unpack(a) for a in range(self.q)]
        return [[pack(f(va, vb)) for vb in vecs] for va in vecs]

    @cached_property
    def _mul_tab(self):
        if self.q > TABLE_CAP:
            return None
        if self.s == 1:
            p = self.p
            return [[a * b % p for b in range(p)] for a in range(p)]
        return self._ext_table("emul")

    @cached_property
    def _add_tab(self):
        if self.q > TABLE_CAP:
            return None
        if self.s == 1:
            p = self.p
            return [[(a + b) % p for b in range(p)] for a in range(p)]
        return self._ext_table("eadd")

    @cached_property
    def _neg_tab(self):
        if self.q > TABLE_CAP:
            return None
        return [self.neg(a) for a in range(self.q)]

    @cached_property
    def _dlog(self):
        # exp/log tables for the unit group; log[0] = -1 sentinel
        if self.q > DLOG_CAP:
            raise FieldTooLarge(f"dlog table capped at q <= 2^22, got q={self.q}")
        exp = [1] * (self.q - 1)
        log = [-1] * self.q
        cur = 1
        log[1] = 0
        for i in range(1, self.q - 1):
            cur = self.mul(cur, self.generator)
            exp[i] = cur
            log[cur] = i
        return exp, log

    @cached_property
    def _abs_trace_tab(self):
        # trace down to F_p of every element, as lifted ints in [0, p)
        if self.s == 1:
            return None  # identity
        return [self.abs_trace(a) for a in range(self.q)]

    # -- arithmetic on packed ints ----------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        tab = self._add_tab
        if tab is not None:
            return tab[a][b]
        return self._ext.add(a, b)

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def neg(self, a: int) -> int:
        if self.s == 1:
            return -a % self.p
        return self._ext.neg(a)

    def mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        tab = self._mul_tab
        if tab is not None:
            return tab[a][b]
        return self._ext.mul(a, b)

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_(self.inv(a), -e)
        result = 1
        while e:
            if e & 1:
                result = self.mul(result, a)
            a = self.mul(a, a)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("inverse of zero")
        return self.pow_(a, self.q - 2)

    def abs_trace(self, a: int) -> int:
        """Trace from k down to F_p, returned as a lifted int in [0, p)."""
        if self.s == 1:
            return a
        tab = self.__dict__.get("_abs_trace_tab")
        if tab is not None:
            return tab[a]
        return self._ext.trace_to_base(a)

    @property
    def ops(self):
        return self

    def __repr__(self):
        if self.s == 1:
            return f"F_{self.p}"
        return f"F_{self.p}^{self.s}"


def make_field(p: int, s: int, seed: int = 0) -> FieldCtx:
    """F_{p^s} with a seeded irreducible modulus and a verified generator.

    One shared context per (p, s, seed); a bad argument raises on every call.
    """
    ctx = _CONTEXTS.get((p, s, seed))
    if ctx is not None:
        return ctx
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if s < 1:
        raise ValueError("extension degree must be >= 1")
    q = p**s
    if q >= MAX_CARD:
        raise Overflow(f"p^s = {q} does not fit in 63 bits")
    rng = random.Random(seed)
    if s == 1:
        ctx = FieldCtx(p=p, s=1, modulus=None, generator=1, q=p, seed=seed)
        object.__setattr__(ctx, "generator", _unit_generator(rng, ctx, p))
    else:
        ext = _extension(make_field(p, 1), s, rng, seed)
        ctx = FieldCtx(p=p, s=s, modulus=ext.modulus_r, generator=ext.generator_r, q=q, seed=seed)
        object.__setattr__(ctx, "_ext", ext)
    _CONTEXTS[(p, s, seed)] = ctx
    return ctx


# ---------------------------------------------------------------------------
# extension context
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtCtx:
    """Descriptor of k_r = k[Y]/(m_r(Y)) relative to a base FieldCtx."""

    base: FieldCtx
    r: int
    modulus_r: tuple[int, ...]  # packed k-coefficients, monic, length r+1
    generator_r: int
    seed: int = field(default=0, compare=False)

    @property
    def size(self) -> int:
        return self.base.q**self.r

    def __reduce__(self):
        return make_ext, (self.base, self.r, self.seed)

    # -- packing ----------------------------------------------------------
    def pack(self, digits) -> int:
        q = self.base.q
        v = 0
        for d in reversed(list(digits)):
            v = v * q + d
        return v

    def unpack(self, a: int) -> tuple[int, ...]:
        q = self.base.q
        out = []
        for _ in range(self.r):
            a, d = divmod(a, q)
            out.append(d)
        return tuple(out)

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def embed(self, c: int) -> int:
        """Canonical injection k -> k_r (identity on packed values)."""
        return c

    # -- kernel closures ----------------------------------------------------
    @cached_property
    def _kops(self):
        return _build_kops(self)

    # -- arithmetic on packed ints ----------------------------------------
    def add(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.eadd(self.unpack(a), self.unpack(b)))

    def sub(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.esub(self.unpack(a), self.unpack(b)))

    def neg(self, a: int) -> int:
        k = self._kops
        return self.pack(k.eneg(self.unpack(a)))

    def mul(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.emul(self.unpack(a), self.unpack(b)))

    def pow_(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        return self.pack(self._kops.epow(self.unpack(a), e))

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroElement("inverse of zero")
        return self.pow_(a, self.size - 2)

    def frobenius(self, a: int) -> int:
        """The q-power Frobenius x -> x^q."""
        k = self._kops
        return self.pack(k.efrob(self.unpack(a)))

    def trace_to_base(self, a: int) -> int:
        k = self._kops
        return k.etr(self.unpack(a))

    def norm_to_base(self, a: int) -> int:
        if a == 0:
            return 0
        # x^((q^r-1)/(q-1)); lands in k, so the packed value is < q
        n = self.pow_(a, (self.size - 1) // (self.base.q - 1))
        assert n < self.base.q
        return n

    @property
    def ops(self):
        return self

    def __repr__(self):
        return f"{self.base!r}[Y]/deg{self.r}"


def _kops_flavor(base: FieldCtx) -> str:
    if base.q <= TABLE_CAP:
        return "table"
    if base.s == 1:
        return "modp"
    return "generic"


def _build_kops(ext: ExtCtx) -> SimpleNamespace:
    """Build the closure set used by enumeration kernels.

    Three base-op flavors: full lookup tables (q <= 1024), direct mod-p
    ints (prime base fields of any size), and generic callables (large
    non-prime base fields; correct but slow).
    """
    base = ext.base
    r = ext.r
    q = base.q
    flavor = _kops_flavor(base)

    # construction-time generic ops over packed k-ints
    bops = base.ops
    mod_digits = list(ext.modulus_r)

    # reduction rows: Y^(r+i) mod m_r as digit tuples, i = 0..r-2
    red = []
    if r > 1:
        base_row = [bops.neg(c) for c in mod_digits[:r]]
        red.append(tuple(base_row))
        prev = list(base_row)
        for _ in range(r - 2):
            nxt = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                nxt = [bops.add(nv, bops.mul(carry, rv)) for nv, rv in zip(nxt, base_row)]
            red.append(tuple(nxt))
            prev = nxt
    red = tuple(red)

    if flavor == "table":
        mt = base._mul_tab
        at = base._add_tab
        nt = base._neg_tab

        def emul(a, b):
            t = [0] * (2 * r - 1)
            for i, ai in enumerate(a):
                if ai:
                    mt_ai = mt[ai]
                    for j, bj in enumerate(b):
                        if bj:
                            t[i + j] = at[t[i + j]][mt_ai[bj]]
            for idx in range(2 * r - 2, r - 1, -1):
                c = t[idx]
                if c:
                    mt_c = mt[c]
                    row = red[idx - r]
                    for j, rv in enumerate(row):
                        if rv:
                            t[j] = at[t[j]][mt_c[rv]]
            return tuple(t[:r])

        def eadd(a, b):
            return tuple(at[x][y] for x, y in zip(a, b))

        def esub(a, b):
            return tuple(at[x][nt[y]] for x, y in zip(a, b))

        def eneg(a):
            return tuple(nt[x] for x in a)

        def kmul(a, b):
            return mt[a][b]

        def kadd(a, b):
            return at[a][b]

    elif flavor == "modp":
        p = base.p

        def emul(a, b):
            t = [0] * (2 * r - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        t[i + j] += ai * bj
            for idx in range(2 * r - 2, r - 1, -1):
                c = t[idx] % p
                if c:
                    row = red[idx - r]
                    for j, rv in enumerate(row):
                        if rv:
                            t[j] += c * rv
            return tuple(v % p for v in t[:r])

        def eadd(a, b):
            return tuple((x + y) % p for x, y in zip(a, b))

        def esub(a, b):
            return tuple((x - y) % p for x, y in zip(a, b))

        def eneg(a):
            return tuple(-x % p for x in a)

        def kmul(a, b):
            return a * b % p

        def kadd(a, b):
            return (a + b) % p

    else:
        badd, bmul, bneg = base.add, base.mul, base.neg

        def emul(a, b):
            t = [0] * (2 * r - 1)
            for i, ai in enumerate(a):
                if ai:
                    for j, bj in enumerate(b):
                        if bj:
                            t[i + j] = badd(t[i + j], bmul(ai, bj))
            for idx in range(2 * r - 2, r - 1, -1):
                c = t[idx]
                if c:
                    row = red[idx - r]
                    for j, rv in enumerate(row):
                        if rv:
                            t[j] = badd(t[j], bmul(c, rv))
            return tuple(t[:r])

        def eadd(a, b):
            return tuple(badd(x, y) for x, y in zip(a, b))

        def esub(a, b):
            return tuple(base.sub(x, y) for x, y in zip(a, b))

        def eneg(a):
            return tuple(bneg(x) for x in a)

        kmul = bmul
        kadd = badd

    zero = (0,) * r
    one = (1,) + (0,) * (r - 1)

    def epow(a, e):
        result = one
        while e:
            if e & 1:
                result = emul(result, a)
            a = emul(a, a)
            e >>= 1
        return result

    # Frobenius matrix: FB[j] = (Y^q)^j mod m_r, as digit tuples.
    # x = sum x_j Y^j with x_j in k gives x^q = sum x_j (Y^q)^j.
    if r == 1:
        fb = (one,)
    else:
        yq = epow((0, 1) + (0,) * (r - 2), q)
        fb = [one, yq]
        cur = yq
        for _ in range(r - 2):
            cur = emul(cur, yq)
            fb.append(cur)
        fb = tuple(fb)

    def _scale_add(acc, c, row):
        # acc += c * row, digitwise in k
        return [kadd(av, kmul(c, rv)) if rv else av for av, rv in zip(acc, row)]

    def efrob(x):
        acc = [0] * r
        for j, xj in enumerate(x):
            if xj:
                acc = _scale_add(acc, xj, fb[j])
        return tuple(acc)

    # trace functional: TRV[j] = Tr_{k_r/k}(Y^j)
    trv = []
    for j in range(r):
        v = tuple(1 if i == j else 0 for i in range(r))
        acc = v
        t = v
        for _ in range(r - 1):
            t = efrob(t)
            acc = eadd(acc, t)
        assert all(c == 0 for c in acc[1:]), "trace must land in k"
        trv.append(acc[0])
    trv = tuple(trv)

    def etr(x):
        t = 0
        for xj, tj in zip(x, trv):
            if xj and tj:
                t = kadd(t, kmul(xj, tj))
        return t

    def enorm(x):
        # product of conjugates; Frobenius-fixed, so only digit 0 survives
        acc = x
        c = x
        for _ in range(r - 1):
            c = efrob(c)
            acc = emul(acc, c)
        return acc[0]

    return SimpleNamespace(
        r=r,
        q=q,
        flavor=flavor,
        emul=emul,
        eadd=eadd,
        esub=esub,
        eneg=eneg,
        epow=epow,
        efrob=efrob,
        etr=etr,
        enorm=enorm,
        kmul=kmul,
        kadd=kadd,
        zero=zero,
        one=one,
        red=red,
        fb=fb,
        trv=trv,
    )


def make_ext(base: FieldCtx, r: int, seed: int = 0) -> ExtCtx:
    """k_r = k[Y]/(m_r) with seeded irreducible m_r and verified generator.

    One shared context per (base, r, seed); a bad argument raises on every call.
    """
    ctx = _CONTEXTS.get((base, r, seed))
    if ctx is not None:
        return ctx
    if r < 1:
        raise ValueError("extension degree must be >= 1")
    size = base.q**r
    if size >= MAX_CARD:
        raise Overflow(f"q^r = {size} does not fit in 63 bits")
    if r == 1:
        # Y, so k_1 = k via Y -> 0
        ctx = ExtCtx(base=base, r=1, modulus_r=(0, 1), generator_r=base.generator, seed=seed)
    else:
        ctx = _extension(base, r, random.Random(seed ^ 0x5EED), seed)
    _CONTEXTS[(base, r, seed)] = ctx
    return ctx


# ---------------------------------------------------------------------------
# element wrapper and the public operations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FqElem:
    """Element of a field given by its context; packed value inside."""

    ctx: FieldCtx | ExtCtx
    val: int

    @property
    def coeffs(self):
        return self.ctx.unpack(self.val)

    def _check(self, other):
        if not isinstance(other, FqElem) or other.ctx != self.ctx:
            raise CtxMismatch("elements of different fields")
        return other

    def __add__(self, other):
        return FqElem(self.ctx, self.ctx.add(self.val, self._check(other).val))

    def __sub__(self, other):
        return FqElem(self.ctx, self.ctx.sub(self.val, self._check(other).val))

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.neg(self.val))

    def __mul__(self, other):
        return FqElem(self.ctx, self.ctx.mul(self.val, self._check(other).val))

    def __truediv__(self, other):
        return FqElem(self.ctx, self.ctx.mul(self.val, self.ctx.inv(self._check(other).val)))

    def __pow__(self, e: int):
        return FqElem(self.ctx, self.ctx.pow_(self.val, e))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return f"<{self.val} in {self.ctx!r}>"


def elem(ctx, value) -> FqElem:
    """Wrap a packed int (or coefficient iterable) as an FqElem."""
    if isinstance(value, FqElem):
        if value.ctx != ctx:
            raise CtxMismatch("element from another field")
        return value
    if isinstance(value, int):
        if isinstance(ctx, FieldCtx) and ctx.s == 1:
            return FqElem(ctx, value % ctx.p)
        size = ctx.q if isinstance(ctx, FieldCtx) else ctx.size
        if not 0 <= value < size:
            raise ValueError("packed value out of range for this field")
        return FqElem(ctx, value)
    return FqElem(ctx, ctx.pack(value))


def trace(x: FqElem, ext: ExtCtx) -> FqElem:
    """Tr_{k_r/k}(x) = sum of x^(q^i); lands in the base field."""
    if x.ctx != ext:
        raise CtxMismatch("element does not belong to the extension")
    return FqElem(ext.base, ext.trace_to_base(x.val))


def norm(x: FqElem, ext: ExtCtx) -> FqElem:
    """N_{k_r/k}(x) = x^((q^r-1)/(q-1)) for x != 0, and 0 for x = 0."""
    if x.ctx != ext:
        raise CtxMismatch("element does not belong to the extension")
    return FqElem(ext.base, ext.norm_to_base(x.val))


def embed(c: FqElem, ext: ExtCtx) -> FqElem:
    if c.ctx != ext.base:
        raise CtxMismatch("element does not belong to the base field")
    return FqElem(ext, ext.embed(c.val))


def elements(fld, part=(0, 1)):
    """Deterministic enumeration of a field, partitioned exactly.

    The `total` streams (index, total) partition the field in increasing
    packed order; boundaries are index-range based, so the overall order
    is independent of `total`.
    """
    index, total = part
    if not 0 <= index < total:
        raise ValueError("partition index out of range")
    n = fld.q if isinstance(fld, FieldCtx) else fld.size
    start = index * n // total
    stop = (index + 1) * n // total
    for v in range(start, stop):
        yield FqElem(fld, v)


def dlog(x: FqElem, ctx: FieldCtx) -> int:
    """Discrete log of x base ctx.generator, via a full lookup table."""
    if x.ctx != ctx:
        raise CtxMismatch("element from another field")
    if x.val == 0:
        raise ZeroElement("dlog of zero")
    _, log = ctx._dlog
    return log[x.val]
