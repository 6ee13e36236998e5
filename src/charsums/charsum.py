"""Additive and multiplicative characters and the brute-force sum oracles.

Every sum is sum_v c_v * chi(v) over v in k, where c_v counts the
elements of k_r (or of a norm fiber) whose trace or norm index is v.
Each index-range partition of k_r yields exact integer counts, which are
added exactly and evaluated once in fixed order, so serial runs and
worker pools produce bit-identical values.  A pool task carries the
extension context itself; it pickles back into its `make_ext` call, so
each worker builds a field once and reuses it for every later task.
Multiplicative characters are only ever evaluated on the small base
field k, after taking norms.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product

from .errors import CtxMismatch, FieldTooLarge, NotABasis, ZeroMu
# make_ext and make_field are unused here but stay importable from this
# module: perfbench/tracer.py rebinds them here to time field construction
from .ffield import ExtCtx, FieldCtx, FqElem, make_ext, make_field
from .polyring import Poly, evaluate

DEFAULT_CAP = 1 << 24
DOUBLE_CAP = 1 << 26
_PART_THRESHOLD = 1 << 14
_PARTS = 16


# ---------------------------------------------------------------------------
# characters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdditiveChar:
    """psi_b(t) = exp(2*pi*i * lift(Tr_{k/F_p}(b*t)) / p); nontrivial iff b != 0."""

    ctx: FieldCtx
    b: int = 1

    @staticmethod
    def canonical(ctx: FieldCtx) -> "AdditiveChar":
        return AdditiveChar(ctx, 1)

    @property
    def is_trivial(self) -> bool:
        return self.b == 0

    def table(self) -> list[complex]:
        return _psi_table(self.ctx, self.b)

    def value(self, t) -> complex:
        t = t.val if isinstance(t, FqElem) else t
        return self.table()[t]


@dataclass(frozen=True)
class MultChar:
    """chi_j(generator^i) = exp(2*pi*i*j*i/(q-1)), extended by chi(0) = 0."""

    ctx: FieldCtx
    j: int

    @staticmethod
    def of_order(ctx: FieldCtx, m: int) -> "MultChar":
        if m < 1 or (ctx.q - 1) % m != 0:
            raise ValueError(f"no multiplicative character of order {m} on F_{ctx.q}")
        return MultChar(ctx, (ctx.q - 1) // m)

    @staticmethod
    def quadratic(ctx: FieldCtx) -> "MultChar":
        return MultChar.of_order(ctx, 2)

    @staticmethod
    def trivial(ctx: FieldCtx) -> "MultChar":
        return MultChar(ctx, 0)

    @property
    def order(self) -> int:
        m = self.ctx.q - 1
        if m == 0 or self.j % m == 0:
            return 1
        return m // math.gcd(self.j % m, m)

    @property
    def is_trivial(self) -> bool:
        return self.j % (self.ctx.q - 1) == 0

    def table(self) -> list[complex]:
        return _chi_table(self.ctx, self.j)

    def value(self, x) -> complex:
        x = x.val if isinstance(x, FqElem) else x
        return self.table()[x]


@lru_cache(maxsize=64)
def _unit_roots(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * (k / n)) for k in range(n))


def _psi_table(ctx: FieldCtx, b: int) -> list[complex]:
    cache = ctx.__dict__.setdefault("_psi_tables", {})
    tab = cache.get(b)
    if tab is None:
        if ctx.s > 1:
            ctx._abs_trace_tab  # prime the per-element trace table once
        zp = _unit_roots(ctx.p)
        tab = [zp[ctx.abs_trace(ctx.mul(b, t)) % ctx.p] for t in range(ctx.q)]
        cache[b] = tab
    return tab


def _chi_table(ctx: FieldCtx, j: int) -> list[complex]:
    cache = ctx.__dict__.setdefault("_chi_tables", {})
    tab = cache.get(j)
    if tab is None:
        m = ctx.q - 1
        exp, log = ctx._dlog
        roots = _unit_roots(m)
        tab = [0j] * ctx.q
        for x in range(1, ctx.q):
            tab[x] = roots[(j * log[x]) % m]
        cache[j] = tab
    return tab


# ---------------------------------------------------------------------------
# exact-count enumeration
# ---------------------------------------------------------------------------


def _part_ranges(n: int) -> list[tuple[int, int]]:
    total = 1 if n < _PART_THRESHOLD else _PARTS
    return [(i * n // total, (i + 1) * n // total) for i in range(total)]


def _inner_fn(ko, inner):
    """Exact evaluation plan for the summation variable.

    None: identity.  ("frobsub",): x^q - x.  ("pow", n): x^n.  All plans
    are exact field arithmetic, so any plan equals evaluating the
    corresponding composed polynomial.
    """
    if inner is None:
        return lambda x: x
    if inner[0] == "frobsub":
        efrob, esub = ko.efrob, ko.esub
        return lambda x: esub(efrob(x), x)
    if inner[0] == "pow":
        n = inner[1]
        epow = ko.epow
        return lambda x: epow(x, n)
    raise ValueError(f"unknown inner plan {inner!r}")


def _count_part(task) -> list[int]:
    """Counts of Tr f(x) ("S") or N f(x) ("U") over a partition of k_r, or
    of its fiber N(x) = mu, or of Tr f(t) + u Tr(t) for all u in k ("D")."""
    ext, mode, coeffs, inner, mu, start, stop = task
    ko = ext._kops
    q = ext.base.q
    emul, eadd, etr, enorm = ko.emul, ko.eadd, ko.etr, ko.enorm
    lead, *rest = reversed(coeffs)
    counts = [0] * q
    xs = islice(product(range(q), repeat=ext.r), start, stop)

    if mode == "D":
        kadd, kmul = ko.kadd, ko.kmul
        for t in xs:
            acc = lead
            for c in rest:
                acc = eadd(emul(acc, t), c)
            a = etr(acc)
            tau = etr(t)
            for u in range(q):
                counts[kadd(a, kmul(u, tau))] += 1
        return counts

    index = etr if mode == "S" else enorm
    inner_f = _inner_fn(ko, inner)
    if mu is not None:
        xs = (x for x in xs if enorm(x) == mu)
    for x in xs:
        t = inner_f(x)
        acc = lead
        for c in rest:
            acc = eadd(emul(acc, t), c)
        counts[index(acc)] += 1
    return counts


def _csum(terms) -> complex:
    """Correctly rounded sum of complex terms, whatever their order."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _enumerate(mode, f, char, ext, *, inner=None, mu=None, cap, pool) -> complex:
    """Check, count every term exactly, then evaluate sum_v c_v * char(v)."""
    if mu is not None:
        mu = mu.val if isinstance(mu, FqElem) else mu
        if mu == 0:
            raise ZeroMu("norm fibers are indexed by nonzero mu")
    if char.ctx != ext.base:
        raise CtxMismatch("character not on the base field of the extension")
    n, q = ext.size, ext.base.q
    terms = n * q if mode == "D" else n
    if terms > cap:
        raise FieldTooLarge(f"enumeration of {terms} terms exceeds cap {cap}")
    coeffs = _ext_coeff_tuples(f, ext)
    tasks = [(ext, mode, coeffs, inner, mu, a, b) for a, b in _part_ranges(n)]
    mapper = pool.map if pool is not None and len(tasks) > 1 else map
    counts = [sum(col) for col in zip(*mapper(_count_part, tasks))]
    expected = terms if mu is None else (n - 1) // (q - 1)
    if sum(counts) != expected:
        raise RuntimeError(f"counted {sum(counts)} terms, expected {expected}")
    tab = char.table()
    return _csum(c * tab[v] for v, c in enumerate(counts) if c)


def _ext_coeff_tuples(f: Poly, ext: ExtCtx) -> tuple:
    if f.ctx == ext:
        coeffs = f.coeffs
    elif f.ctx == ext.base:
        coeffs = tuple(ext.embed(c) for c in f.coeffs)
    else:
        raise CtxMismatch("polynomial not defined over the extension or its base")
    if not coeffs:
        coeffs = (0,)
    return tuple(ext.unpack(c) for c in coeffs)


# ---------------------------------------------------------------------------
# the oracles
# ---------------------------------------------------------------------------


def gauss_sum(chi: MultChar, psi: AdditiveChar) -> complex:
    """g(chi, psi) = -sum_{t in k} chi(t) psi(t), with chi(0) = 0."""
    if chi.ctx != psi.ctx:
        raise CtxMismatch("characters on different fields")
    ct = chi.table()
    pt = psi.table()
    return -_csum(ct[t] * pt[t] for t in range(1, chi.ctx.q))


def sum_additive(
    f: Poly,
    psi: AdditiveChar,
    ext: ExtCtx,
    *,
    inner=None,
    cap: int = DEFAULT_CAP,
    pool=None,
) -> complex:
    """S_r = sum over x in k_r of psi(Tr_{k_r/k}(f(x))), by exact enumeration."""
    return _enumerate("S", f, psi, ext, inner=inner, cap=cap, pool=pool)


def sum_multiplicative(
    f: Poly,
    chi: MultChar,
    ext: ExtCtx,
    *,
    inner=None,
    cap: int = DEFAULT_CAP,
    pool=None,
) -> complex:
    """U_r = sum over x in k_r of chi(N_{k_r/k}(f(x))), with chi(0) = 0."""
    return _enumerate("U", f, chi, ext, inner=inner, cap=cap, pool=pool)


def fiber_sum_additive(
    g: Poly,
    psi: AdditiveChar,
    ext: ExtCtx,
    mu,
    *,
    cap: int = DEFAULT_CAP,
    pool=None,
) -> complex:
    """Sum of psi(Tr(g(x))) over the norm fiber N_{k_r/k}(x) = mu, mu != 0."""
    return _enumerate("S", g, psi, ext, mu=mu, cap=cap, pool=pool)


def fiber_sum_multiplicative(
    g: Poly,
    chi: MultChar,
    ext: ExtCtx,
    mu,
    *,
    cap: int = DEFAULT_CAP,
    pool=None,
) -> complex:
    """Sum of chi(N(g(x))) over the norm fiber N_{k_r/k}(x) = mu, mu != 0."""
    return _enumerate("U", g, chi, ext, mu=mu, cap=cap, pool=pool)


def double_sum_check(
    g: Poly,
    psi: AdditiveChar,
    ext: ExtCtx,
    *,
    cap: int = DOUBLE_CAP,
    pool=None,
) -> complex:
    """The double sum over u in k, t in k_r of psi(Tr(g(t) + u*t)).

    Must equal sum_additive of g(x^q - x) for translation-invariant input.
    """
    return _enumerate("D", g, psi, ext, cap=cap, pool=pool)


def counting_identity_holds(ext: ExtCtx, *, cap: int = 10**4) -> bool:
    """#{x : x^q - x = t} equals q exactly when Tr(t) = 0, else 0 (exhaustive)."""
    n = ext.size
    if n > cap:
        raise FieldTooLarge(f"exhaustive count capped at {cap}, got {n}")
    counts = [0] * n
    for x in range(n):
        counts[ext.sub(ext.frobenius(x), x)] += 1
    q = ext.base.q
    for t in range(n):
        expected = q if ext.trace_to_base(t) == 0 else 0
        if counts[t] != expected:
            return False
    return True


def orthogonality_error(psi: AdditiveChar) -> float:
    """max over u in k of |sum_t psi(u*t) - q*[u == 0]|."""
    ctx = psi.ctx
    tab = psi.table()
    worst = 0.0
    for u in range(ctx.q):
        s = _csum(tab[ctx.mul(u, t)] for t in range(ctx.q))
        target = complex(ctx.q, 0) if u == 0 else 0j
        worst = max(worst, abs(s - target))
    return worst


def weil_descent_check(
    g: Poly,
    ext: ExtCtx,
    basis: list[FqElem],
    trials: int = 100,
    seed: int = 0,
) -> bool:
    """Pointwise Weil-descent identities for the norm form.

    On random tuples (x_1..x_r) in k^r checks that the product of the
    Galois-conjugate linear forms equals N(sum alpha_i x_i) and that the
    conjugate-sum of g evaluated on those forms equals Tr(g(sum alpha_i x_i)).
    """
    base = ext.base
    r = ext.r
    if len(basis) != r or any(b.ctx != ext for b in basis):
        raise NotABasis("need r elements of the extension")
    # rank over k of the digit matrix
    rows = [list(ext.unpack(b.val)) for b in basis]
    mat = [row[:] for row in rows]
    rank = 0
    for col in range(r):
        piv = next((i for i in range(rank, r) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = base.inv(mat[rank][col])
        mat[rank] = [base.mul(inv, v) for v in mat[rank]]
        for i in range(r):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [base.sub(a, base.mul(f, b)) for a, b in zip(mat[i], mat[rank])]
        rank += 1
    if rank < r:
        raise NotABasis("elements are linearly dependent over k")

    # conjugates of the basis and of the coefficients of g
    conj_basis = []
    for b in basis:
        cs = [b.val]
        for _ in range(r - 1):
            cs.append(ext.frobenius(cs[-1]))
        conj_basis.append(cs)
    g_ext = (
        g.coeffs
        if g.ctx == ext
        else tuple(ext.embed(c) for c in g.coeffs)
        if g.ctx == base
        else None
    )
    if g_ext is None:
        raise CtxMismatch("polynomial not defined over the extension or its base")
    conj_coeffs = [list(g_ext)]
    for _ in range(r - 1):
        conj_coeffs.append([ext.frobenius(c) for c in conj_coeffs[-1]])

    def eval_coeffs(coeffs, x):
        acc = 0
        for c in reversed(coeffs):
            acc = ext.add(ext.mul(acc, x), c)
        return acc

    rng = random.Random(seed)
    for _ in range(trials):
        xs = [rng.randrange(base.q) for _ in range(r)]
        z = 0
        for b, x in zip(basis, xs):
            z = ext.add(z, ext.mul(b.val, ext.embed(x)))
        # linear forms L_sigma = sum sigma(alpha_i) x_i
        forms = []
        for si in range(r):
            L = 0
            for i in range(r):
                L = ext.add(L, ext.mul(conj_basis[i][si], ext.embed(xs[i])))
            forms.append(L)
        prod = 1
        for L in forms:
            prod = ext.mul(prod, L)
        if prod != ext.embed(ext.norm_to_base(z)):
            return False
        tr_sum = 0
        for si in range(r):
            tr_sum = ext.add(tr_sum, eval_coeffs(conj_coeffs[si], forms[si]))
        if tr_sum != ext.embed(ext.trace_to_base(eval_coeffs(g_ext, z))):
            return False
    return True
