"""Exact arithmetic in F_p, F_q = F_{p^s} and extensions F_{q^r}.

Elements are packed integers.  An element of F_{p^s} with coefficient
vector (c_0, ..., c_{s-1}) over F_p is stored as sum(c_i * p**i); an
element of F_{q^r} with digit vector (d_0, ..., d_{r-1}) over F_q is
stored as sum(d_j * q**j).  Packed values are hashable, compact and make
the canonical enumeration order (0, 1, 2, ...) trivial.  The FqElem
wrapper recovers coefficient vectors and provides operator overloads for
the algebraic layers; `charsum`'s digit walks work on raw digit tuples
through the closures built by `ExtCtx._kops`.

Extensions are represented relative to the base field k (k_r =
k[Y]/(m_r)), not rebuilt over F_p, so trace and norm relative to k come
out as Frobenius sums/products directly.  F_{p^s} (s > 1) is itself the
degree-s extension of F_p, with the same packing; its add/mul/neg
tables serve FieldCtx and the kernel.  Up to TABLE_CAP they are stored,
the product from k's powers of its generator rotated by discrete logs
and the sum by base-p digit addition; above it FieldCtx computes as that
extension, and its tables are computed on lookup.  Powers and inverses
in F_{p^s} always run as that extension.  An extension with q^r <=
DLOG_CAP has Zech-logarithm tables over its generator (`ExtCtx._logs`:
log, 1 + gamma^n and trace, as arrays), log and trace from one walk on
first use (a block of exponents at a time from BLOCK_FLOOR elements
on) and zech read off log, on which `charsum`'s log kernel runs; its
frobsub sums read the Frobenius orbits of ker Tr on exponents
(`ExtCtx._h_orbits`), listed from the trace table once per extension.
Once the tables exist, the extension's arithmetic (ZECH_OPS: add, sub,
neg, mul, axpy, inv, pow_, frobenius, trace_to_base, norm_to_base) runs
on them (`_zech_arith`, with the array exp[n] = gamma^n built on the
first such call); before, and above DLOG_CAP, it runs on the digit
kernel, which the walks that build the tables and the generator search
use.
They are the only discrete-log tables: k's logs (`FieldCtx._log`) are
the `log` array of F_p at r = 1 or of F_{p^s} as its extension of F_p.
`make_field` and `make_ext` share one seeded search for modulus and
generator (the modulus by `polyring.is_irreducible`), and return one
context per argument tuple; a context pickles back into that call.
Both contexts answer `size` (number of elements) and `p`
(characteristic), and k embeds in k_r as the identity on packed values.
"""

from __future__ import annotations

import operator
import random
import sys
from array import array
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import accumulate, compress, cycle, islice, repeat
from operator import itemgetter
from types import SimpleNamespace

from .errors import (
    CtxMismatch,
    FieldTooLarge,
    NotPrime,
    Overflow,
    ZeroElement,
)

# add/mul/neg tables are stored for fields up to this size, and computed
# on lookup above it (F_{p^s}) or replaced by plain ints mod p (F_p)
TABLE_CAP = 1024
# discrete-log tables: of k (and hence multiplicative character evaluation
# on k), and the Zech-logarithm tables of k_r, whose sums then run on them
DLOG_CAP = 1 << 22
# log tables of q^r >= BLOCK_FLOOR elements (but F_p) are built a block of
# exponents at a time (`_block_walk`), the least power of two >= q^r of
# them up to BLOCK; smaller ones by the slot walk, whose fixed cost is
# lower (the two cross between about 300 and 512 elements, by p)
BLOCK = 1 << 11
BLOCK_FLOOR = 1 << 9
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


def power(mul, one, a, e: int):
    """a^e for e >= 0 by square-and-multiply in any exact ring given by
    its product `mul` and unit `one`; it stops after the top bit of e."""
    if e < 0:
        raise ValueError(f"power needs an exponent e >= 0, got {e}")
    result = one
    while True:
        if e & 1:
            result = mul(result, a)
        e >>= 1
        if not e:
            return result
        a = mul(a, a)


# ---------------------------------------------------------------------------
# construction: one seeded search, one context per argument tuple
# ---------------------------------------------------------------------------

# (p, s, seed) -> FieldCtx and (base, r, seed) -> ExtCtx
_CONTEXTS: dict[tuple, object] = {}


def _unit_generator(rng, ctx, size: int) -> int:
    """The first seeded draw in [1, size) whose order is size - 1.

    Over k_r, with q = |k|, N = q^r - 1 and M = N / (q - 1): for a prime
    ell | q - 1, g^(N/ell) = N(g)^((q-1)/ell), tested in k on the norm
    N(g) = g^M, taken once per draw and only when some such ell exists
    (never at q = 2); for any other prime ell | N, g^(N/ell) = 1 exactly
    when g^(M/ell) lies in k.  On F_p itself M = 1 and the norm is g.
    """
    ext = isinstance(ctx, ExtCtx)
    k = ctx.base if ext else ctx
    q = k.q
    m = (size - 1) // (q - 1)
    primes = factorize(size - 1)
    in_k = [(q - 1) // ell for ell in primes if (q - 1) % ell == 0]
    beyond = [m // ell for ell in primes if (q - 1) % ell]
    while True:
        g = rng.randrange(1, size)
        if in_k:
            norm = ctx._kops.enorm(ctx.unpack(g)) if ext else g
            if any(k.pow_(norm, e) == 1 for e in in_k):
                continue
        # the packed values below q are the elements of k
        if all(ctx.pow_(g, e) >= q for e in beyond):
            break
    assert ctx.pow_(g, size - 1) == 1
    return g


def _extension(base: "FieldCtx", r: int, rng, seed: int) -> "ExtCtx":
    """base[Y]/(m) for the first seeded monic irreducible m of degree r >= 2,
    with the first seeded generator of its unit group."""
    from .polyring import Poly, is_irreducible  # polyring imports this module

    while True:
        coeffs = [rng.randrange(base.q) for _ in range(r)] + [1]
        if is_irreducible(Poly(base, tuple(coeffs))):
            break
    ctx = ExtCtx(base=base, r=r, modulus_r=tuple(coeffs), generator_r=1, seed=seed)
    object.__setattr__(ctx, "generator_r", _unit_generator(rng, ctx, ctx.size))
    return ctx


# ---------------------------------------------------------------------------
# base field context
# ---------------------------------------------------------------------------


class _Computed:
    """A read-only table whose entries are computed on lookup: t[a] = f(a)."""

    __slots__ = ("f",)

    def __init__(self, f):
        self.f = f

    def __getitem__(self, a):
        return self.f(a)


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
    def size(self) -> int:
        return self.q

    def __reduce__(self):
        return make_field, (self.p, self.s, self.seed)

    # -- cached structure --------------------------------------------------
    # For s > 1, make_field sets `_ext`: this field as the degree-s
    # extension of F_p (same packing), which fills the tables below.
    # It is private and never handed out: it pickles as a make_ext call,
    # which would build a different modulus.

    def _computed(self, op: str):
        # tab[a][b] = op(a, b) by `_ops`, computed on lookup and never
        # stored: the tables of an F_{p^s} above TABLE_CAP
        f = getattr(self._ops, op)
        return _Computed(lambda a: _Computed(partial(f, a)))

    # _add_tab, _mul_tab and _neg_tab serve every field but a prime one
    # above TABLE_CAP, which has none (None) and computes mod p instead.
    # Stored tables cost no kernel product: _mul_tab rotates k's powers of
    # its generator (`ExtCtx._exp` of the context holding k's logs) and
    # _add_tab adds base-p digits, each row by one itemgetter read
    @cached_property
    def _mul_tab(self):
        if self.q > TABLE_CAP:
            return self._computed("mul") if self.s > 1 else None
        log = self._log
        exp = (self._ext if self.s > 1 else make_ext(self, 1))._exp
        # a * b = exp[log a + log b]: exp rotated by log a, read at log b,
        # with a 0 behind it, which b = 0 reads at log 0 = -1
        at, zero = itemgetter(*log), array("i", [0])
        return [[0] * self.q] + [list(at(exp[la:] + exp[:la] + zero)) for la in log[1:]]

    @cached_property
    def _add_tab(self):
        if self.q > TABLE_CAP:
            return self._computed("add") if self.s > 1 else None
        # x + b = (x - e) + (e + b), e = p^i the weight of x's top base-p
        # digit: row x is row x - e read through row e
        p, q = self.p, self.q
        tab = [list(range(q))]
        for e in (p**i for i in range(self.s)):
            step = itemgetter(*[b - (p - 1) * e if b // e % p == p - 1 else b + e for b in range(q)])
            for x in range(e, p * e):
                tab.append(list(step(tab[x - e])))
        return tab

    @cached_property
    def _neg_tab(self):
        if self.q > TABLE_CAP:
            return _Computed(self._ops.neg) if self.s > 1 else None
        # -a is where row a of the addition table holds 0
        return [row.index(0) for row in self._add_tab]

    @cached_property
    def _ops(self):
        # an F_{p^s} computes pow_ and inv, and above TABLE_CAP every
        # operation, as its extension of F_p: on that extension's Zech
        # tables, built here, up to DLOG_CAP, and by its digit kernel above
        if self.q <= DLOG_CAP:
            self._ext._zech
        return self._ext

    @cached_property
    def _log(self):
        # discrete logs over `generator` by packed value (log[0] = -1): the
        # log array of k's own Zech tables, which F_{p^s} takes from _ext and
        # F_p from its r = 1 extension, the tables its r = 1 sums run on
        return (self._ext if self.s > 1 else make_ext(self, 1))._logs.log

    # -- arithmetic on packed ints ----------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a + b) % self.p
        if self.q > TABLE_CAP:
            return self._ops.add(a, b)
        return self._add_tab[a][b]

    def sub(self, a: int, b: int) -> int:
        if self.s == 1:
            return (a - b) % self.p
        if self.q > TABLE_CAP:
            return self._ops.sub(a, b)
        return self._add_tab[a][self._neg_tab[b]]

    def neg(self, a: int) -> int:
        if self.s == 1:
            return -a % self.p
        return self._neg_tab[a]

    def mul(self, a: int, b: int) -> int:
        if self.s == 1:
            return a * b % self.p
        if self.q > TABLE_CAP:
            return self._ops.mul(a, b)
        return self._mul_tab[a][b]

    def axpy(self, u: int, xs, ys) -> list[int]:
        """[y + u x for x, y in zip(xs, ys)]: one row operation over k."""
        if self.s == 1:
            p = self.p
            return [(y + u * x) % p for x, y in zip(xs, ys)]
        if self.q > TABLE_CAP:
            return self._ops.axpy(u, xs, ys)
        at, row = self._add_tab, self._mul_tab[u]
        return [at[y][row[x]] for x, y in zip(xs, ys)]

    def pow_(self, a: int, e: int) -> int:
        if self.s > 1:
            return self._ops.pow_(a, e)
        if e < 0:
            a, e = self.inv(a), -e
        return pow(a, e, self.p)

    def inv(self, a: int) -> int:
        if self.s > 1:
            return self._ops.inv(a)
        if a == 0:
            raise ZeroElement("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def abs_trace(self, a: int) -> int:
        """Trace from k down to F_p as a lifted int in [0, p): for F_{p^s},
        the trace of its extension of F_p, one read of that extension's
        trace table once its Zech tables exist (they do as soon as k has
        stored tables or logs) and by its digit kernel before and above
        DLOG_CAP; `charsum._psi_table` caches what it builds."""
        if self.s == 1:
            return a
        return self._ext.trace_to_base(a)

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

    @property
    def p(self) -> int:
        return self.base.p

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

    def embed(self, c: int) -> int:
        """Canonical injection k -> k_r (identity on packed values)."""
        return c

    # -- kernel closures and tables --------------------------------------------
    @cached_property
    def _kops(self):
        return _build_kops(self)

    @cached_property
    def _logs(self):
        tabs = _log_tables(self)
        # from here on the arithmetic runs on these tables: each operation
        # is a stub until the first call of any of them puts the table
        # operations (`_zech`) in place of the digit kernel's methods
        vars(self).update({name: lambda *args, name=name: self._zech[name](*args) for name in ZECH_OPS})
        return tabs

    @cached_property
    def _zech(self):
        ops = _zech_arith(self)
        vars(self).update(ops)  # in place of the stubs `_logs` put there
        return ops

    @cached_property
    def _exp(self):
        # gamma^n by exponent n < N: the trace array at r = 1, and above it
        # log inverted, on the first operation on the tables or the first
        # stored _mul_tab of the F_{p^s} that this context is the `_ext` of
        if self.r == 1:
            return self._logs.trace
        exp = array("i", [0]) * (self.size - 1)
        for v, n in enumerate(islice(self._logs.log, 1, None), 1):
            exp[n] = v
        return exp

    @cached_property
    def _h_orbits(self):
        return _hyperplane_orbits(self)

    @cached_property
    def _norm_generator(self) -> int:
        # N(generator_r), which generates k^*: the norm fibers start from its log
        return self._kops.enorm(self.unpack(self.generator_r))

    # -- normal basis -------------------------------------------------------
    @cached_property
    def normal_element(self) -> int:
        """The least packed alpha whose conjugates alpha, alpha^q, ...,
        alpha^(q^(r-1)) are linearly independent over k (one exists by the
        normal basis theorem).  Found by a plain scan, so it is the same in
        every process."""
        efrob = self._kops.efrob
        for a in range(1, self.size):
            conj = [self.unpack(a)]
            for _ in range(self.r - 1):
                conj.append(efrob(conj[-1]))
            if rank_over(self.base, conj) == self.r:
                return a
        raise AssertionError("no normal element")  # impossible for a field

    @cached_property
    def _normal_rows(self):
        # rows[i][c] = c * alpha^(q^i) as digit tuples, for c in k: the
        # element with normal coordinates (c_0..c_{r-1}) is the sum of
        # rows[i][c_i], and Frobenius rotates those coordinates
        kmul, efrob = self._kops.kmul, self._kops.efrob
        beta = self.unpack(self.normal_element)
        rows = []
        for _ in range(self.r):
            rows.append(tuple(tuple(kmul(c, d) for d in beta) for c in range(self.base.q)))
            beta = efrob(beta)
        return tuple(rows)

    # -- arithmetic on packed ints ----------------------------------------
    def add(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.eadd(self.unpack(a), self.unpack(b)))

    def sub(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.esub(self.unpack(a), self.unpack(b)))

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def mul(self, a: int, b: int) -> int:
        k = self._kops
        return self.pack(k.emul(self.unpack(a), self.unpack(b)))

    def axpy(self, u: int, xs, ys) -> list[int]:
        return [self.add(y, self.mul(u, x)) if x else y for x, y in zip(xs, ys)]

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

    def __repr__(self):
        return f"{self.base!r}[Y]/deg{self.r}"


def rank_over(base: FieldCtx, rows) -> int:
    """Rank over base of the digit vectors `rows`, by Gauss-Jordan elimination."""
    mat = [list(row) for row in rows]
    n, cols = len(mat), len(mat[0]) if mat else 0
    rank = 0
    for col in range(cols):
        piv = next((i for i in range(rank, n) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = base.inv(mat[rank][col])
        mat[rank] = [base.mul(inv, v) for v in mat[rank]]
        for i in range(n):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [base.sub(a, base.mul(f, b)) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _kops_flavor(base: FieldCtx) -> str:
    """How the kernel over `base` computes in k: "table" for stored tables
    (q <= TABLE_CAP), "modp" for a larger prime field and "generic" for a
    larger F_{p^s}, whose tables are computed on lookup."""
    if base.q <= TABLE_CAP:
        return "table"
    if base.s == 1:
        return "modp"
    return "generic"


def _build_kops(ext: ExtCtx) -> SimpleNamespace:
    """Build the closure set used by enumeration kernels.

    Two bodies: plain ints mod p for a prime base field above TABLE_CAP,
    and otherwise lookups in the base field's `_add_tab`, `_mul_tab` and
    `_neg_tab`, stored or computed (see `_kops_flavor`).  Each body has
    its own emul, eadd, esub, efrob and etr, and its own `rows`, the form
    in which it reads the k-linear maps it applies: the reduction rows
    `red`, the Frobenius matrix `fb` and the trace functional `trv`, the
    last two built after the bodies from emul and efrob.  The mod-p body
    reads the rows as they are, in integer dot products reduced mod p.
    The table body keeps, per row, the pairs (j, _mul_tab[c]) of its
    nonzero entries c, and folds at[t][m[x_j]] over them: no zero test
    and no per-call list.
    """
    base = ext.base
    r = ext.r
    q = base.q

    mod_digits = list(ext.modulus_r)

    # reduction rows: Y^(r+i) mod m_r as digit tuples, i = 0..r-2
    red = []
    if r > 1:
        base_row = [base.neg(c) for c in mod_digits[:r]]
        red.append(tuple(base_row))
        prev = list(base_row)
        for _ in range(r - 2):
            nxt = [0] + prev[:-1]
            carry = prev[-1]
            if carry:
                nxt = [base.add(nv, base.mul(carry, rv)) for nv, rv in zip(nxt, base_row)]
            red.append(tuple(nxt))
            prev = nxt
    red = tuple(red)

    if _kops_flavor(base) == "modp":
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
            return tuple([v % p for v in t[:r]])

        def eadd(a, b):
            return tuple([(x + y) % p for x, y in zip(a, b)])

        def esub(a, b):
            return tuple([(x - y) % p for x, y in zip(a, b)])

        # each digit of x^q and the trace: a dot product in integers,
        # reduced once
        def efrob(x):
            return tuple([sum(map(operator.mul, x, row)) % p for row in fb])

        def etr(x):
            return sum(map(operator.mul, x, trv)) % p

        def kmul(a, b):
            return a * b % p

        rows = tuple

    else:
        mt = base._mul_tab
        at = base._add_tab
        nt = base._neg_tab

        def rows(vec):
            # the nonzero entries c of a row as (j, _mul_tab[c]): its dot
            # product with x folds at[t][m[x[j]]] over them
            return tuple([(j, mt[c]) for j, c in enumerate(vec) if c])

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
                    for j, m in red[idx - r]:
                        t[j] = at[t[j]][m[c]]
            return tuple(t[:r])

        def eadd(a, b):
            return tuple([at[x][y] for x, y in zip(a, b)])

        def esub(a, b):
            return tuple([at[x][nt[y]] for x, y in zip(a, b)])

        def efrob(x):
            out = []
            for row in fb:
                t = 0
                for j, m in row:
                    t = at[t][m[x[j]]]
                out.append(t)
            return tuple(out)

        def etr(x):
            t = 0
            for j, m in trv:
                t = at[t][m[x[j]]]
            return t

        def kmul(a, b):
            return mt[a][b]

    # each map takes the body's row form before the first call that reads it:
    # red before emul, fb before the trace loop calls efrob, trv before etr
    red = tuple(map(rows, red))
    one = (1,) + (0,) * (r - 1)
    epow = partial(power, emul, one)

    # Frobenius matrix: FB[i][j] = digit i of (Y^q)^j mod m_r.  x = sum x_j Y^j
    # with x_j in k gives x^q = sum x_j (Y^q)^j, whose digit i is x . FB[i].
    yq = epow((0, 1) + (0,) * (r - 2), q) if r > 1 else one
    fb = tuple(map(rows, zip(*accumulate(repeat(yq, r - 1), emul, initial=one))))

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
    trv = rows(trv)

    def enorm(x):
        # product of conjugates; Frobenius-fixed, so only digit 0 survives
        acc = x
        c = x
        for _ in range(r - 1):
            c = efrob(c)
            acc = emul(acc, c)
        return acc[0]

    return SimpleNamespace(
        emul=emul,
        eadd=eadd,
        esub=esub,
        epow=epow,
        efrob=efrob,
        etr=etr,
        enorm=enorm,
        kmul=kmul,
        one=one,
    )


def _log_tables(ext: ExtCtx) -> SimpleNamespace:
    """Zech-logarithm tables of k_r over gamma = generator_r, q^r <= DLOG_CAP.

    With N = q^r - 1, two array('i') tables come from one walk n -> gamma^n:
    log[v] = n for the packed value v of gamma^n (log[0] = -1), and
    trace[n] = Tr_{k_r/k}(gamma^n), packed in k.  The third, zech[n] =
    log(1 + gamma^n), -1 where 1 + gamma^n = 0, that is at n = log[p - 1]
    (gamma^n = -1), is read off log for every walk.

    F_p at r = 1, whose `log` is k's own (`FieldCtx._log`), walks
    x -> gamma * x mod p, since the slot walk (`_slot_walk`) reads `_kops`,
    whose tables come from these logs.  A composite k at r = 1 shares log
    and zech with k's own tables (k as the extension of F_p, over the same
    generator and packing), and its trace, gamma^n itself, is the exp
    array of those (`ExtCtx._exp`, log inverted).  Every other field takes
    the block walk (`_block_walk`) from BLOCK_FLOOR elements on, and the
    slot walk, whose fixed cost is lower, below.  No walk builds exp: at
    r = 1 it is the trace array, and above, `ExtCtx._exp` inverts log on
    the first operation on the tables (`_zech_arith`) or, for F_{p^s} as
    its extension of F_p, on its first stored `FieldCtx._mul_tab`, so an
    extension whose tables serve only the log kernel never pays for it.
    """
    p, size = ext.p, ext.size
    if size > DLOG_CAP:
        raise FieldTooLarge(f"log tables capped at q^r <= 2^22, got q^r={size}")
    units = size - 1
    if ext.r == 1 and size > p:
        own = ext.base._ext
        return SimpleNamespace(log=own._logs.log, zech=own._logs.zech, trace=own._exp)
    log = array("i", [-1]) * size
    trace = array("i", [0]) * units
    if size == p:
        g, v = ext.generator_r, 1
        for k in range(units):
            log[v] = k
            trace[k] = v
            v = v * g % p
    elif size < BLOCK_FLOOR:
        v = _slot_walk(ext, log, trace)
    else:
        v = _block_walk(ext, log, trace)
    # gamma^N = 1, and the walk met every unit exactly once
    if v != 1 or log[0] != -1 or log.count(-1) != 1:
        raise RuntimeError(f"generator {ext.generator_r} of {ext!r} does not have order {units}")

    # 1 + x raises the lowest base-p digit of the packed value by one mod p
    up = log[1:] + log[:1]
    up[p - 1::p] = log[::p]
    zech = array("i", [0]) * units
    for a, z in zip(islice(log, 1, None), islice(up, 1, None)):
        zech[a] = z
    return SimpleNamespace(log=log, zech=zech, trace=trace)


# the operations of ExtCtx that run on its Zech tables once they exist
ZECH_OPS = ("add", "sub", "neg", "mul", "axpy", "inv", "pow_", "frobenius", "trace_to_base", "norm_to_base")


def _zech_arith(ext: ExtCtx) -> dict:
    """The operations named in ZECH_OPS on the tables of k_r (`_logs`) and
    exp[n] = gamma^n (`_exp`), N = q^r - 1: a b = exp[log a + log b], a^e
    = exp[e log a], so x^q = exp[q log a] and the norm x^M = exp[M log a],
    M = N / (q - 1), Tr(a) = trace[log a], and for a, b != 0, a + b =
    a (1 + b / a) = exp[log a + zech[log b - log a]], 0 where zech is -1.
    At p = 2 a sum is the XOR of the packed values and -a = a; at odd p,
    -1 = gamma^(N/2)."""
    tabs, exp, q, units = ext._logs, ext._exp, ext.base.q, ext.size - 1
    log, zech, trace = tabs.log, tabs.zech, tabs.trace

    def mul(a, b):
        return exp[(log[a] + log[b]) % units] if a and b else 0

    def pow_(a, e):
        if a:
            return exp[log[a] * e % units]
        if e < 0:
            raise ZeroElement("inverse of zero")
        return 0 if e else 1

    def norm_to_base(a):
        n = pow_(a, units // (q - 1))
        assert n < q  # lands in k
        return n

    if ext.p == 2:
        add, neg = operator.xor, operator.pos
    else:

        def add(a, b):
            if not (a and b):
                return a or b
            la = log[a]
            z = zech[(log[b] - la) % units]
            return exp[(la + z) % units] if z >= 0 else 0

        def neg(a):
            return exp[(log[a] + units // 2) % units] if a else 0

    return dict(add=add, sub=lambda a, b: add(a, neg(b)), neg=neg, mul=mul, inv=lambda a: pow_(a, -1), pow_=pow_,
                axpy=lambda u, xs, ys: [add(y, mul(u, x)) for x, y in zip(xs, ys)], frobenius=lambda a: pow_(a, q),
                trace_to_base=lambda a: trace[log[a]] if a else 0, norm_to_base=norm_to_base)


def _hyperplane_orbits(ext: ExtCtx) -> tuple[array, array]:
    """The Frobenius orbits of the units of H = ker Tr on exponents, the
    classes {i q^j mod N}, N = q^r - 1, of the i with trace[i] = 0, as
    their leaders (least elements) in increasing order and their sizes.

    Tr is Frobenius-invariant, so an orbit lies in H or outside it, and
    multiplying i by q rotates its r base-q digits: a leader's least
    digit leads.  A candidate is a leader when it is at most each
    rotation q^j i mod N, j < r, which C-level filters check.
    - Least digit 0: i < q^(r-1), in one pass over those trace entries.
      Its last digit is nonzero too (but for i = 0), or the rotation
      that brings it to the front, j = r - 1, would be less.
    - Least digit t + 1: the leaders of least digit t plus M = N/(q - 1)
      = (1...1) in base q, where adding 1 to every digit carries
      nowhere; the filters drop the others.  gamma^M lies in k^*, and
      Tr(c x) = c Tr(x) for c in k, so H is closed under adding M.
    A leader's size is the least j dividing r with q^j i = i mod N.
    """
    q, r, units = ext.base.q, ext.r, ext.size - 1
    top, trace = q ** (r - 1), ext._logs.trace

    def rotations(xs, j):
        return map(operator.mod, map(operator.mul, xs, repeat(q**j)), repeat(units))

    def least(xs, turns):
        for j in turns:
            xs = list(compress(xs, map(operator.le, xs, rotations(xs, j))))
        return xs

    # trace[i] = 0 and i % q != 0, which stands for the filter of j = r - 1
    heads = compress(range(top), map(operator.lt, trace[:top], cycle([0] + [1] * (q - 1))))
    block = [0] * (not trace[0]) + least(list(heads), range(r - 2, 0, -1))
    leaders = array("i", block)
    for _ in range(q - 2):
        block = least(list(map(operator.add, block, repeat(units // (q - 1)))), range(r - 1, 0, -1))
        leaders.fromlist(block)
    sizes = array("B", [r]) * len(leaders)
    # the largest divisor first, so that the least one that fixes i stays
    for j in reversed([j for j in range(1, r) if r % j == 0]):
        for k in compress(range(len(leaders)), map(operator.eq, leaders, rotations(leaders, j))):
            sizes[k] = j
    return leaders, sizes


def _digit_rows(ext: ExtCtx, c: int) -> list[list[int]]:
    """x -> c * x on the n = r * s base-p digits of a packed value, as an
    F_p matrix: digit i of c * x is sum_j rows[i][j] * x_j mod p.

    Column j holds the digits of c * p^j = c X^a Y^b (j = b s + a), each
    from its neighbour in plain ints mod p.  An X step (k composite) moves
    the s digits of every k-digit up one and folds the top one back by k's
    modulus; a Y step moves the k-digits up one and folds the top one,
    t = sum_a u_a X^a, back by m_r: u_a times the digits of
    -X^a (m_r - Y^r), which X steps give from -(m_r - Y^r) once.
    """
    base, p, r = ext.base, ext.p, ext.r
    s = base.s
    n = r * s
    if s > 1:  # X^s = -(k's modulus - X^s), on every k-digit
        xfold = [-m % p for m in base.modulus[:s]] * r

    def times_x(v):
        shifted = [0] + v[:-1]
        shifted[::s] = repeat(0, r)
        tops = [u for u in v[s - 1::s] for _ in range(s)]
        return [(d + u * f) % p for d, u, f in zip(shifted, tops, xfold)]

    def times_y(v):
        out = [0] * s + v[:n - s]
        for u, f in zip(v[n - s:], fold):
            if u:
                out = [d + u * e for d, e in zip(out, f)]
        return [d % p for d in out]

    fold = [[-(m // p**i) % p for m in ext.modulus_r[:r] for i in range(s)]]
    for _ in range(s - 1):
        fold.append(times_x(fold[-1]))
    cols = [[c // p**i % p for i in range(n)]]
    for j in range(1, n):
        cols.append(times_x(cols[-1]) if j % s else times_y(cols[j - s]))
    return [list(row) for row in zip(*cols)]


def _block_walk(ext: ExtCtx, log, trace) -> int:
    """Fill log and trace by the walk n -> gamma^n, a block of exponents at
    a time, and return gamma^N.

    Each base-p digit of gamma^n is a lane of one int, one lane of `width`
    bits per exponent of the block, and a block has the least power of two
    >= q^r lanes, at most BLOCK, so a table of at most BLOCK elements is one
    block.  The next block is the last one times gamma^lanes, an F_p-linear
    map of the digits (`_digit_rows`): per digit, n constant multiples of
    the digit ints.  The first block comes by doubling from gamma^0, and its
    digit 0 is checked against gamma times the block.  A lane then holds at
    most top = n (p - 1)^2, and every lane is reduced mod p at once by
    x - p ((x m >> k) & low), exact since top * p < 2^k and top * m <
    2^width.  The packed values and the traces (a linear combination of
    the digit ints) are read out a block at a time as arrays.
    """
    p, size, s = ext.p, ext.size, ext.base.s
    # the least power of two >= q^r, at most BLOCK
    n, lanes, g = ext.r * s, min(BLOCK, 1 << (size - 1).bit_length()), ext.generator_r
    top = n * (p - 1) ** 2
    k = (top * p).bit_length()
    m = -(-(1 << k) // p)
    width = 32 if (top * m).bit_length() <= 32 else 64
    ones = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * lanes, "little")
    low = ones * ((1 << (width - k)) - 1)
    nbytes, stride = lanes * width // 8, width // 32

    def reduce(x):
        return x - p * ((x * m >> k) & low)

    def apply(rows, digits):
        # a zero entry adds nothing: leave its big-int sum out
        return [reduce(sum(compress(map(operator.mul, row, digits), row))) for row in rows]

    def read(x, count):
        # lanes 0 .. count - 1 of x as an array("i")
        a = array("i", x.to_bytes(nbytes, "little"))
        if sys.byteorder == "big":
            a.byteswap()
        return a[:count * stride:stride]

    def packed(digits):
        return sum(p**i * d for i, d in enumerate(digits))

    # digit t of Tr(p^j), as a matrix on the digits
    traces = [ext.trace_to_base(p**j) for j in range(n)]
    trace_rows = [[v // p**t % p for v in traces] for t in range(s)]

    x, w, c = [1] + [0] * (n - 1), 1, g  # gamma^0 in one lane, and c = gamma^w
    while w < lanes:
        x = [d | y << (w * width) for d, y in zip(x, apply(_digit_rows(ext, c), x))]
        w, c = 2 * w, ext.mul(c, c)
    # digit 0 of gamma times the first block is digit 0 of the block moved
    # down one lane, with gamma^lanes on top (n products, not n^2)
    if apply(_digit_rows(ext, g)[:1], x)[0] != x[0] >> width | c % p << (lanes - 1) * width:
        raise RuntimeError(f"the first block of {ext!r} is not the powers of its generator {g}")
    step = _digit_rows(ext, c) if lanes < size else None  # one block holds a small field
    for e in range(0, size, lanes):
        count = min(lanes, size - 1 - e)  # the exponents of this block below N
        values = read(packed(x), lanes)
        for i, v in enumerate(values[:count], e):
            log[v] = i
        trace[e:e + count] = read(packed(apply(trace_rows, x)), count)
        if count < lanes:  # the next lane holds exponent N
            return values[count]
        x = apply(step, x)


def _slot_walk(ext: ExtCtx, log, trace) -> int:
    """Fill log and trace by the walk n -> gamma^n, and return gamma^N.

    x -> gamma * x is F_p-linear on the r * s base-p digits of the packed
    value.  The walk keeps each digit of x, and the s digits of Tr(x),
    in a slot of one int.  A step reads each slot once, in a table that
    gives the digit's share of gamma * x (and of its trace), and, above
    those slots, its share of the packed value of x and of its trace.  A
    slot holds a sum of r * s digits and is reduced mod p when read.
    """
    p, size, s = ext.p, ext.size, ext.base.s
    units, n = size - 1, ext.r * s
    width = max(1, (n * (p - 1)).bit_length())
    mask, top = (1 << width) - 1, width * (n + s)

    def slots(v, at):
        # the base-p digits of v in the slots from `at` on
        out = 0
        while v:
            v, c = divmod(v, p)
            out |= c << (width * at)
            at += 1
        return out

    def row(i):
        # c * gamma * p^i and its trace, for c in F_p
        y = ext.mul(ext.generator_r, p**i)
        one = slots(y, 0) | slots(ext.trace_to_base(y), n)
        digits = [(j * width, one >> (j * width) & mask) for j in range(n + s)]
        return [sum(c * d % p << at for at, d in digits) for c in range(p)]

    rows = [row(i) for i in range(n)] + [[0] * p] * s
    weights = [p**i for i in range(n)] + [size * p**j for j in range(s)]
    # (shift, bits, table) per read; neighbouring slots share one read while
    # its table stays small next to the walk
    reads = []
    for i in range(n + s):
        table = [rows[i][raw % p] | raw % p * weights[i] << top for raw in range(mask + 1)]
        if reads and len(reads[-1][2]) * len(table) <= min(size >> 2, 1 << 12):
            shift, _, low = reads.pop()
            table = [a + b for b in table for a in low]
        else:
            shift = width * i
        reads.append((shift, len(table) - 1, table))
    x = slots(1, 0) | slots(ext.r % p, n)  # 1, and Tr(1) = r
    below = (1 << top) - 1
    for k in range(units + 1):
        y = 0
        for shift, bits, table in reads:
            y += table[x >> shift & bits]
        t, v = divmod(y >> top, size)
        if k == units:
            return v
        log[v] = k
        trace[k] = t
        x = y & below


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


def element_value(ctx, a: int) -> int:
    """The packed value that the integer a names in ctx: a residue, reduced
    mod p, on a prime field; elsewhere a packed value, which must lie in
    [0, size)."""
    if isinstance(ctx, FieldCtx) and ctx.s == 1:
        return a % ctx.p
    if not 0 <= a < ctx.size:
        raise ValueError(f"a = {a} is not in [0, {ctx.size})")
    return a


def elem(ctx, value) -> FqElem:
    """Wrap an FqElem of ctx, an int (read by `element_value`) or a digit
    vector as an FqElem.  A vector has at most as many digits as ctx has
    (s over F_p, r over k), each read by the rule of its digit field: a
    residue mod p over a prime one, else a packed value in [0, q)."""
    if isinstance(value, FqElem):
        if value.ctx != ctx:
            raise CtxMismatch("element from another field")
        return value
    if isinstance(value, int):
        return FqElem(ctx, element_value(ctx, value))
    digits = list(value)
    if isinstance(ctx, ExtCtx):
        width, digits = ctx.r, [element_value(ctx.base, d) for d in digits]
    else:
        width = ctx.s  # FieldCtx.pack reads each digit mod p
    if len(digits) > width:
        raise ValueError(f"{len(digits)} digits, but {ctx!r} has {width}")
    return FqElem(ctx, ctx.pack(digits))


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
    n = fld.size
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
    return ctx._log[x.val]
