"""Additive and multiplicative characters and the brute-force sum oracles.

Every sum is sum_v c_v * chi(v) over v in k, where c_v counts the
elements of k_r (or of a norm fiber) whose trace or norm index is v.
On a field with q^r <= ffield.DLOG_CAP the log kernel fills the counts:
every element but 0 is gamma^i for gamma = generator_r, and the
Zech-logarithm tables `ExtCtx._logs` turn a product into an addition of
exponents mod q^r - 1 and an addition into one table lookup, so f costs
one lookup per nonzero coefficient and the trace or norm index one
more.  It visits a set of exponents: one per Frobenius orbit (a
cyclotomic coset, weighted by its size) when r > 1 and every
coefficient of f lies in k, since the summand is constant on orbits;
the class i = i0 mod q - 1 for a norm fiber; the multiples of
d = gcd(n, q^r - 1), each weighted d, for the image of x -> x^n; and
otherwise all of them; and 0 where it belongs.  It runs in the calling
process, since on two cores a partition pool cost more than it saved.

Larger fields keep the digit walks, which compute on digit tuples
through `ExtCtx._kops` and are the log kernel's test oracles.  For f
over k at r > 1 the orbit walk visits one element per Frobenius orbit
(a necklace of its coordinates in a normal basis) and adds the orbit's
size.  Otherwise a norm fiber N(x) = mu is a coset x0 * <gamma^(q-1)>
of the unit group, and the fiber coset walk visits just its
(q^r-1)/(q-1) elements, one product per step; the pow plan x -> x^n is
d-to-1 on k_r^*, so the pow image walk visits its image <gamma^n> the
same way, each point weighted d, and 0 once; and any other sum takes
the full walk over every element.  Each index-range partition yields
exact integer counts, which are added exactly and evaluated once in
fixed order, so serial runs and worker pools produce bit-identical
values.  A pool task carries the extension context itself; it pickles
back into its `make_ext` call, so each worker builds a field once and
reuses it for every later task.  Multiplicative characters are only
ever evaluated on the small base field k, after taking norms.
"""

from __future__ import annotations

import cmath
import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, islice, product, repeat

from .errors import CtxMismatch, FieldTooLarge, NotABasis, ZeroMu
# make_ext and make_field are unused here but stay importable from this
# module: perfbench/tracer.py rebinds them here to time field construction
from .ffield import DLOG_CAP, ExtCtx, FieldCtx, FqElem, elem, make_ext, make_field, rank_over
from .polyring import Poly, evaluate, lift

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
        return self.table()[elem(self.ctx, t).val]


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
        return self.table()[elem(self.ctx, x).val]


@lru_cache(maxsize=64)
def _unit_roots(n: int) -> tuple[complex, ...]:
    return tuple(cmath.exp(2j * math.pi * (k / n)) for k in range(n))


@lru_cache(maxsize=64)
def _psi_table(ctx: FieldCtx, b: int) -> list[complex]:
    zp = _unit_roots(ctx.p)
    return [zp[ctx.abs_trace(ctx.mul(b, t)) % ctx.p] for t in range(ctx.q)]


@lru_cache(maxsize=64)
def _chi_table(ctx: FieldCtx, j: int) -> list[complex]:
    m = ctx.q - 1
    _, log = ctx._dlog
    roots = _unit_roots(m)
    return [0j] + [roots[(j * log[x]) % m] for x in range(1, ctx.q)]


# ---------------------------------------------------------------------------
# exact-count enumeration
# ---------------------------------------------------------------------------


def _part_ranges(n: int) -> list[tuple[int, int]]:
    total = 1 if n < _PART_THRESHOLD else _PARTS
    return [(i * n // total, (i + 1) * n // total) for i in range(total)]


def _necklace_count(q: int, r: int) -> int:
    """The number of Frobenius orbits of k_r: by Burnside's lemma,
    (1/r) sum over i < r of q^gcd(i, r), that is (1/r) sum over d | r of
    phi(d) q^(r/d)."""
    return sum(q ** math.gcd(i, r) for i in range(r)) // r


def _necklaces(q: int, r: int, word=None, period: int = 1):
    """Necklaces of length r over range(q) as (least rotation, period), in
    lexicographic order from `word` (a necklace of that period; default
    0^r) on, by the iterative Fredricksen-Kessler-Maiorana algorithm
    (Ruskey, Savage and Wang, "Generating necklaces", J. Algorithms 1992).

    It visits every prenecklace a_1..a_r; one whose longest Lyndon prefix
    has length p is a necklace of period p when p divides r.
    """
    a = [0, *(word or (0,) * r)]  # a[0] is a sentinel below every digit
    p, top = period, q - 1
    while True:
        if r % p == 0:
            yield tuple(a[1:]), p
        k = r
        while a[k] == top:
            k -= 1
        if k == 0:
            return
        a[k] += 1
        for j in range(k + 1, r + 1):
            a[j] = a[j - k]
        p = k


def _necklace_spans(q: int, r: int, parts: int) -> list[tuple[tuple, int]]:
    """Split the necklace stream into `parts` index ranges, each given as
    (its first necklace and period, its length)."""
    total = _necklace_count(q, r)
    bounds = [i * total // parts for i in range(parts + 1)]
    stream = _necklaces(q, r)
    state, pos, spans = next(stream), 0, []
    for a, b in zip(bounds, bounds[1:]):
        if a > pos:
            state, pos = next(islice(stream, a - pos - 1, None)), a
        spans.append((state, b - a))
    return spans


def _inner_fn(ko, inner):
    """Exact evaluation plan for the summation variable.

    None: identity.  ("frobsub",): x^q - x.  ("pow", n): x^n.  All plans
    are exact field arithmetic, so any plan equals evaluating the
    corresponding composed polynomial.  The orbit, fiber coset and full
    walks apply the plan to every point they visit (the orbit walk may,
    since every plan commutes with Frobenius); the pow image walk visits
    the values x^n themselves and applies the identity instead.
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


def _tally(ext, mode, coeffs, inner, mu, points) -> list[int]:
    """counts[v] += w for every (x, w) in points, where v is Tr f(x) ("S")
    or N f(x) ("U") with f applied after the inner plan, restricted to the
    fiber N(x) = mu when mu is given; or, for "D", v = Tr f(t) + u Tr(t)
    for every u in k."""
    ko = ext._kops
    q = ext.base.q
    emul, eadd, etr, enorm = ko.emul, ko.eadd, ko.etr, ko.enorm
    lead, *rest = reversed(coeffs)
    counts = [0] * q

    if mode == "D":
        # u -> a + u * tau is a bijection of k when tau != 0, and a when tau = 0
        spread = 0
        for t, w in points:
            if etr(t):
                spread += w
                continue
            acc = lead
            for c in rest:
                acc = eadd(emul(acc, t), c)
            counts[etr(acc)] += q * w
        return [c + spread for c in counts]

    index = etr if mode == "S" else enorm
    inner_f = _inner_fn(ko, inner)
    if mu is not None:
        points = ((x, w) for x, w in points if enorm(x) == mu)
    for x, w in points:
        t = inner_f(x)
        acc = lead
        for c in rest:
            acc = eadd(emul(acc, t), c)
        counts[index(acc)] += w
    return counts


def _count_part(task) -> list[int]:
    """The full walk: every element of an index range of k_r, weight 1.

    It runs for whole-field sums of polynomials with a coefficient outside
    k, and at r = 1.  With mu given it filters by norm, the oracle the
    coset walk is tested against.
    """
    ext, mode, coeffs, inner, mu, start, stop = task
    xs = islice(product(range(ext.base.q), repeat=ext.r), start, stop)
    return _tally(ext, mode, coeffs, inner, mu, zip(xs, repeat(1)))


def _count_orbits(task) -> list[int]:
    """The orbit walk: one element per Frobenius orbit, weighted by the
    orbit's size, over `count` necklaces from `start` on.

    For f over k, Tr f(x) and N f(x) are constant on the orbit of x, and
    so are Tr f(t) + u Tr(t) and the fiber condition N(x) = mu; every
    inner plan commutes with Frobenius.  In the normal basis Frobenius
    rotates coordinates, so the orbits are the necklaces of length r over
    k and an orbit's size is its necklace's period: the weighted counts
    equal the full walk's exactly.
    """
    ext, mode, coeffs, inner, mu, start, count = task
    rows = ext._normal_rows
    first, rest = rows[0], rows[1:]
    eadd = ext._kops.eadd

    def points():
        for word, period in islice(_necklaces(ext.base.q, ext.r, *start), count):
            x = first[word[0]]
            for row, c in zip(rest, word[1:]):
                if c:
                    x = eadd(x, row[c])
            yield x, period

    return _tally(ext, mode, coeffs, inner, mu, points())


def _fiber_size(ext) -> int:
    return (ext.size - 1) // (ext.base.q - 1)


def _fiber_coset(ext, mu) -> tuple:
    """The fiber N(x) = mu as a coset walk (x0, h, m, 1, ()): x0 * <h>.

    With gamma = generator_r, N(gamma^i) = N(gamma)^i and N(gamma)
    generates k^*, so N is onto with kernel <gamma^(q-1)>, a subgroup of
    order m = (q^r-1)/(q-1): take h = gamma^(q-1) and x0 = gamma^i0 where
    N(gamma)^i0 = mu, i0 read off the dlog table of k.  At r = 1 the
    fiber is {mu} and no dlog is needed.
    """
    ko = ext._kops
    if ext.r == 1:
        return (mu,), ko.one, 1, 1, ()
    q = ext.base.q
    gamma = ext.unpack(ext.generator_r)
    _, log = ext.base._dlog
    i0 = log[mu] * pow(log[ko.enorm(gamma)], -1, q - 1) % (q - 1)
    return ko.epow(gamma, i0), ko.epow(gamma, q - 1), _fiber_size(ext), 1, ()


def _pow_image(ext, n) -> tuple:
    """The values of x -> x^n on k_r as a coset walk (1, h, m, d, ((0, 1),)).

    k_r^* = <gamma> is cyclic, so x -> x^n is d-to-1 on it with
    d = gcd(n, q^r-1), onto the subgroup <h>, h = gamma^n, of order
    m = (q^r-1)/d; and 0^n = 0 for n >= 1, once.
    """
    ko = ext._kops
    d = math.gcd(n, ext.size - 1)
    h = ko.epow(ext.unpack(ext.generator_r), n)
    return ko.one, h, (ext.size - 1) // d, d, ((ext.unpack(0), 1),)


def _count_coset(task) -> list[int]:
    """The coset walk: x0 * h^i for i in [start, stop), each of weight w,
    one product per step, for a coset (x0, h, m, w, extra) of m elements
    from `_fiber_coset` or `_pow_image`.

    The part starts at x0 * h^start with one power.  The part that ends
    the coset also visits the `extra` (point, weight) pairs, and must
    step back onto x0, or the walk was not the coset.
    """
    ext, mode, coeffs, inner, (x0, h, m, w, extra), start, stop = task
    ko = ext._kops
    walk = accumulate(repeat(h, stop - start), ko.emul, initial=ko.emul(x0, ko.epow(h, start)))
    last = stop == m
    points = chain(zip(islice(walk, stop - start), repeat(w)), extra if last else ())
    counts = _tally(ext, mode, coeffs, inner, None, points)
    if last and next(walk) != x0:
        raise RuntimeError(f"the coset walk from {x0} did not return to its start")
    return counts


# ---------------------------------------------------------------------------
# the log kernel: sums on k_r, q^r <= DLOG_CAP, as exponent arithmetic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _cyclotomic_cosets(q: int, r: int) -> tuple[array, array]:
    """The leaders (least elements) and sizes of the cosets {i * q^j mod N}
    of Z/N, N = q^r - 1, in increasing order of leader.

    They are the Frobenius orbits of k_r^* = <gamma> on exponents, and
    depend on q and r alone.  Multiplying by q rotates the r base-q
    digits of i, so the sizes divide r.
    """
    units = q**r - 1
    seen = bytearray(units)
    leaders, sizes = array("i"), array("B")
    i = 0
    while i >= 0:
        j, size = i, 0
        while not seen[j]:
            seen[j] = 1
            size += 1
            j = j * q % units
        leaders.append(i)
        sizes.append(size)
        i = seen.find(0, i + 1)
    return leaders, sizes


def _log_walk(ext, mode, coeffs, inner, mu):
    """The exponents a sum visits, as (inner, points, zero): the plan to
    apply, pairs (i, w) for x = gamma^i of weight w, and the weight of 0.

    With gamma = generator_r and N = q^r - 1: a fiber N(x) = mu is the
    class i = i0 mod q - 1, since N(gamma^i) = gamma^(i m), m = N/(q-1),
    and gamma^m generates k^*; for f over k at r > 1 the orbit walk takes
    one leader per Frobenius orbit (`_cyclotomic_cosets`), weighted by its
    size; an S or U sum with the ("pow", n) plan takes its image, the
    multiples of d = gcd(n, N), each of weight d; anything else takes
    range(N).  Every walk but the fiber also visits 0 once.
    """
    q, units = ext.base.q, ext.size - 1
    if mu is not None:
        i0, rest = divmod(ext._logs.log[mu], units // (q - 1))
        if rest:
            raise RuntimeError(f"mu = {mu} has no norm fiber in {ext!r}")
        return inner, zip(range(i0, units, q - 1), repeat(1)), 0
    if ext.r > 1 and all(c < q for c in coeffs):
        return inner, zip(*_cyclotomic_cosets(q, ext.r)), 1
    if inner is not None and inner[0] == "pow" and mode != "D":
        d = math.gcd(inner[1], units)
        return None, zip(range(0, units, d), repeat(d)), 1
    return inner, zip(range(units), repeat(1)), 1


def _log_tally(ext, mode, coeffs, inner, points, zero) -> list[int]:
    """`_tally` on exponents: the same counts for the points (i, w) of
    x = gamma^i and x = 0 of weight `zero`, from the tables `ExtCtx._logs`.

    A product adds logs mod N and a + c = c * (1 + a/c) adds
    zech[log a - log c], so Horner costs one zech lookup per nonzero
    coefficient; x^q - x = gamma^(i+h) * (1 + gamma^((q-1)i+h)), h = half;
    x^n has log n * i.  The trace index is trace[log], and the norm index
    N(gamma^a) = gamma^(a m) depends on a mod q - 1 only.  In mode D,
    u -> a + u * Tr(t) is a bijection of k when Tr(t) != 0, so t adds its
    weight to every bucket, and q times it to bucket a when Tr(t) = 0.
    """
    tabs = ext._logs
    log, zech, trace = tabs.log, tabs.zech, tabs.trace
    q, units = ext.base.q, ext.size - 1
    if mode == "U":
        period, index = q - 1, [0] * (q - 1)
        for v in range(1, q):
            index[log[v] * (q - 1) // units] = v
    else:
        period, index = units, trace
    # f(y) = (..((a_d y^g_1 + c_1) y^g_2 + c_2) ..) y^tail over the nonzero
    # coefficients; log 0 = -1 marks the zero value
    degrees = [j for j, c in enumerate(coeffs) if c][::-1] or [0]
    lead, tail = log[coeffs[degrees[0]]], degrees[-1]
    terms = [(hi - lo, log[coeffs[lo]]) for hi, lo in zip(degrees, degrees[1:])]
    at_zero = index[log[coeffs[0]] % period] if coeffs[0] else 0

    # the plan: x^n has log n * i (no plan: n = 1), and x^q - x has log
    # i + h + zech[(q-1) * i + h], or is 0 for x in k
    frobsub = inner is not None and inner[0] == "frobsub"
    if inner is not None and not frobsub and inner[0] != "pow":
        raise ValueError(f"unknown inner plan {inner!r}")
    n = inner[1] if inner is not None and not frobsub else 1
    h, step = tabs.half, q - 1
    d_mode = mode == "D"
    counts = [0] * q
    counts[at_zero] = zero
    spread = 0
    for i, w in points:
        if frobsub:
            z = zech[(step * i + h) % units]
            if z < 0:
                counts[at_zero] += w
                continue
            e = i + h + z
        else:
            e = n * i
        if d_mode and trace[i]:
            spread += w
            continue
        a = lead
        for gap, c in terms:
            if a < 0:
                a = c
            else:
                z = zech[(a + gap * e - c) % units]
                a = c + z if z >= 0 else -1
        counts[index[(a + tail * e) % period] if a >= 0 else 0] += w
    if d_mode:
        return [c * q + spread for c in counts]
    return counts


def _csum(terms) -> complex:
    """Correctly rounded sum of complex terms, whatever their order."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _enumerate(mode, f, char, ext, *, inner=None, mu=None, cap, pool) -> complex:
    """Check, count every term exactly, then evaluate sum_v c_v * char(v).

    The counts come from the log kernel (`_log_walk`, `_log_tally`) when
    q^r <= DLOG_CAP, and from the digit walks (`_digit_counts`) above
    it; both give the same exact histogram.
    """
    if mu is not None:
        mu = elem(ext.base, mu).val
        if mu == 0:
            raise ZeroMu("norm fibers are indexed by nonzero mu")
    if inner is not None and inner[0] == "pow" and inner[1] < 1:
        raise ValueError(f"the pow plan needs an exponent n >= 1, got {inner[1]}")
    if char.ctx != ext.base:
        raise CtxMismatch("character not on the base field of the extension")
    n, q = ext.size, ext.base.q
    terms = n * q if mode == "D" else n
    if terms > cap:
        raise FieldTooLarge(f"enumeration of {terms} terms exceeds cap {cap}")
    if n <= DLOG_CAP:
        coeffs = lift(f, ext).coeffs or (0,)
        counts = _log_tally(ext, mode, coeffs, *_log_walk(ext, mode, coeffs, inner, mu))
    else:
        counts = _digit_counts(mode, f, ext, inner, mu, pool)
    expected = terms if mu is None else _fiber_size(ext)
    if sum(counts) != expected:
        raise RuntimeError(f"counted {sum(counts)} terms, expected {expected}")
    tab = char.table()
    return _csum(c * tab[v] for v, c in enumerate(counts) if c)


def _digit_counts(mode, f, ext, inner, mu, pool) -> list[int]:
    """The counts by the digit walks.

    For r > 1 and f over k they come from the orbit walk
    (`_count_orbits`).  Otherwise the coset walk (`_count_coset`) takes a
    fiber sum over its fiber, and an S or U sum with the ("pow", n) plan
    over the image of x -> x^n, which it then evaluates with the
    identity plan; any other sum takes the full walk (`_count_part`).
    A pool splits each walk into as many index ranges as
    `_part_ranges(q^r)` gives.
    """
    coeffs = _ext_coeff_tuples(f, ext)
    ranges = _part_ranges(ext.size)
    parallel = pool is not None and len(ranges) > 1
    parts = len(ranges) if parallel else 1
    where = mu
    if ext.r > 1 and not any(any(c[1:]) for c in coeffs):  # f lies over k
        worker = _count_orbits
        ranges = _necklace_spans(ext.base.q, ext.r, parts)
    elif mu is not None:
        worker, where = _count_coset, _fiber_coset(ext, mu)
        if ext._kops.enorm(where[0]) != mu:
            raise RuntimeError(f"the coset of mu = {mu} starts outside its fiber")
    elif inner is not None and inner[0] == "pow" and mode != "D":
        worker, where, inner = _count_coset, _pow_image(ext, inner[1]), None
    else:
        worker = _count_part
    if worker is _count_coset:
        m = where[2]
        ranges = [(i * m // parts, (i + 1) * m // parts) for i in range(parts)]
    tasks = [(ext, mode, coeffs, inner, where, a, b) for a, b in ranges]
    mapper = pool.map if parallel else map
    return [sum(col) for col in zip(*mapper(worker, tasks))]


def _ext_coeff_tuples(f: Poly, ext: ExtCtx) -> tuple:
    return tuple(ext.unpack(c) for c in lift(f, ext).coeffs or (0,))


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
    """max over u in k of |sum_t psi(u*t) - q*[u == 0]|.

    For u != 0, t -> u*t permutes k, so every such row sums the same
    multiset {psi(t)}, and `_csum` rounds it the same in any order: the
    rows u = 0 and u = 1 give the maximum, bit for bit.
    """
    ctx = psi.ctx
    tab = psi.table()
    worst = 0.0
    for u in (0, 1):
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
    if rank_over(base, [ext.unpack(b.val) for b in basis]) < r:
        raise NotABasis("elements are linearly dependent over k")

    # conjugates of the basis and of the coefficients of g
    conj_basis = []
    for b in basis:
        cs = [b.val]
        for _ in range(r - 1):
            cs.append(ext.frobenius(cs[-1]))
        conj_basis.append(cs)
    conj_g = [lift(g, ext)]
    for _ in range(r - 1):
        conj_g.append(Poly(ext, tuple(ext.frobenius(c) for c in conj_g[-1].coeffs)))

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
            tr_sum = ext.add(tr_sum, evaluate(conj_g[si], FqElem(ext, forms[si])).val)
        if tr_sum != ext.embed(ext.trace_to_base(evaluate(conj_g[0], FqElem(ext, z)).val)):
            return False
    return True
