"""Additive and multiplicative characters and the brute-force sum oracles.

Every sum is sum_v c_v * chi(v) over v in k, where c_v counts the
elements of k_r (or of a norm fiber) whose trace or norm index is v.
One rule, `_walk`, picks the points both kernels visit, the first that
applies: for a norm fiber N(x) = mu, the class of exponents
i = i0 mod q - 1 of x = gamma^i, gamma = generator_r, with i0 from the
logs of k; for the frobsub plan x -> x^q - x, which is q-to-1 from k_r
onto the trace-zero hyperplane H (additive Hilbert 90), its image, each
point of H and 0 of weight q, so that nothing computes x^q - x; for f
over k at r > 1, one point per Frobenius orbit, weighted by the orbit's
size, since the summand is constant on orbits, and under the frobsub
plan one per orbit in H, since Tr is constant on orbits; for the pow plan
x -> x^n, which is d-to-1 on k_r^*, d = gcd(n, q^r - 1), its image, the
multiples of d, each weighted d; otherwise every exponent; and 0 where
it belongs.

On a field with q^r <= ffield.DLOG_CAP the log kernel counts them: the
Zech-logarithm tables `ExtCtx._logs` turn a product into an addition of
exponents mod q^r - 1 and an addition into one table lookup, so f costs
one lookup per nonzero coefficient and the trace or norm index one
more; the orbits are the cyclotomic cosets, the units of H the
exponents of trace 0, and the orbits in H are listed once per extension
(`ExtCtx._h_orbits`) for every later sum.  It runs in the calling
process, since on two cores a partition pool cost more than it saved.

Larger fields take the digit walks, which compute on digit tuples
through `ExtCtx._kops` and are the log kernel's test oracles: the orbit
walk visits one necklace of coordinates in a normal basis per orbit,
the coset walk one product per point of an exponent progression, and
the full walk every element by its digits; H is the orbit or the full
walk kept to its points of trace 0.  The pool serves these digit walks
only: it splits each walk into index ranges by its own number of
points, and the pool of `cli.run` starts on its first such split.  The
exact integer counts are added exactly and evaluated once, so serial
runs and worker pools produce bit-identical values.  A pool
task carries the extension context itself; it pickles back into its
`make_ext` call, so each worker builds a field once and reuses it for
every later task.
Multiplicative characters are only ever evaluated on the small base
field k, after taking norms, from the logs of k.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, compress, islice, product, repeat

from .errors import CtxMismatch, FieldTooLarge, NotABasis, ZeroMu
# make_ext and make_field are unused here but stay importable from this
# module: perfbench/tracer.py rebinds them here to time field construction
from .ffield import DLOG_CAP, ExtCtx, FieldCtx, FqElem, _Computed, elem, make_ext, make_field, rank_over
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


def _root(n: int, k: int) -> complex:
    """zeta_n^k, the one formula for a character value."""
    return cmath.exp(2j * math.pi * (k / n))


@lru_cache(maxsize=64)
def _unit_roots(n: int) -> tuple[complex, ...]:
    return tuple(_root(n, k) for k in range(n))


# Character tables are stored up to the largest q whose q^2 checks (gauss,
# orthogonality) run, and computed on lookup above it: psi of F_p has p
# distinct values, 40 bytes each, more than the log tables of the sums.
_STORED_TABLE_CAP = math.isqrt(DOUBLE_CAP)


def _char_table(q: int, n: int, power) -> list[complex]:
    """t -> zeta_n^power(t) for t in k, and 0 where power(t) is -1."""
    if q > _STORED_TABLE_CAP:
        return _Computed(lambda t: _root(n, k) if (k := power(t)) >= 0 else 0j)
    roots = _unit_roots(n) + (0j,)
    return [roots[power(t)] for t in range(q)]


@lru_cache(maxsize=64)
def _psi_table(ctx: FieldCtx, b: int) -> list[complex]:
    return _char_table(ctx.q, ctx.p, lambda t: ctx.abs_trace(ctx.mul(b, t)) % ctx.p)


@lru_cache(maxsize=64)
def _chi_table(ctx: FieldCtx, j: int) -> list[complex]:
    # chi_j(x) = zeta_m^(j' log x) for the order m of chi_j and j' = j m/(q-1):
    # the same float as zeta_(q-1)^(j log x), since k/(q-1) and (k/g)/m are
    # one rational, correctly rounded
    n = ctx.q - 1
    m = n // math.gcd(j, n)
    jm, log = j * m // n, ctx._log
    return _char_table(ctx.q, m, lambda x: jm * log[x] % m if x else -1)


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
    has length p is a necklace of period p when p divides r.  Raising the
    last digit of a Lyndon word (p = r) gives the next ones, in one run.
    """
    a = [0, *(word or (0,) * r)]  # a[0] is a sentinel below every digit
    p, top = period, q - 1
    while True:
        if r % p == 0:
            yield tuple(a[1:]), p
            if p == r:
                prefix = tuple(a[1:r])
                for c in range(a[r] + 1, q):
                    yield prefix + (c,), r
                a[r] = top
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


def _plan_ok(inner) -> bool:
    """The inner plans: None, ("frobsub",) or ("pow", n) with an int n >= 1."""
    n = inner[1] if isinstance(inner, tuple) and len(inner) == 2 and inner[0] == "pow" else None
    return inner in (None, ("frobsub",)) or isinstance(n, int) and n >= 1


def _tally(ext, mode, coeffs, inner, points) -> list[int]:
    """counts[v] += w for every (x, w) in points, where v is Tr f(t) ("S")
    or N f(t) ("U") for t = x, or t = x^n under the plan ("pow", n), which
    the orbit walk may apply as it commutes with Frobenius; or, for "D",
    v = Tr f(t) + u Tr(t) for every u in k.  The plan ("frobsub",) is
    never applied: its walk keeps the points of trace 0, each q times,
    since x^q - x is q-to-1 onto them (see `_walk`)."""
    ko = ext._kops
    q = ext.base.q
    emul, eadd, etr = ko.emul, ko.eadd, ko.etr
    lead, *rest = reversed(coeffs)
    index = ko.enorm if mode == "U" else etr
    if inner == ("frobsub",):
        points = ((x, q * w) for x, w in points if not etr(x))
    elif inner is not None:
        epow, n = ko.epow, inner[1]
        points = ((epow(x, n), w) for x, w in points)
    # mode D: u -> a + u Tr(t) is a bijection of k when Tr(t) != 0, so t
    # adds w to every bucket (spread); when Tr(t) = 0 it adds q w to bucket a
    d_mode = mode == "D"
    counts = [0] * q
    spread = 0
    for t, w in points:
        if d_mode and etr(t):
            spread += w
            continue
        acc = lead
        for c in rest:
            acc = eadd(emul(acc, t), c)
        counts[index(acc)] += w
    if d_mode:
        return [c * q + spread for c in counts]
    return counts


def _count_part(task) -> list[int]:
    """The full walk: every element of an index range of k_r, weight 1,
    by its digits and with no product, for a walk that visits every
    element once or every element of H (see `_walk`)."""
    ext, mode, coeffs, inner, start, stop = task
    xs = islice(product(range(ext.base.q), repeat=ext.r), start, stop)
    return _tally(ext, mode, coeffs, inner, zip(xs, repeat(1)))


def _count_orbits(task) -> list[int]:
    """The orbit walk: one element per Frobenius orbit, weighted by the
    orbit's size, over `count` necklaces from `start` on.

    For f over k, Tr f(x) and N f(x) are constant on the orbit of x, and
    so are Tr f(t) + u Tr(t) and Tr x, which keeps an orbit in H or out
    of it; the pow plan commutes with Frobenius.
    In the normal basis Frobenius rotates coordinates, so the orbits are
    the necklaces of length r over k and an orbit's size is its
    necklace's period: the weighted counts equal the full walk's exactly.
    """
    ext, mode, coeffs, inner, start, count = task
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

    return _tally(ext, mode, coeffs, inner, points())


def _count_coset(task) -> list[int]:
    """The coset walk: gamma^i for the exponents i of `part`, a slice of a
    progression from `_walk`, each of weight w, one product per step, and
    0 of weight `zero`.

    The part starts at gamma^start with one power.  The part that ends
    the progression must step back onto its first point, or the walk was
    not a coset.
    """
    ext, mode, coeffs, inner, part, w, zero = task
    ko, units = ext._kops, ext.size - 1
    gamma = ext.unpack(ext.generator_r)
    x0 = ko.epow(gamma, part.start)
    walk = accumulate(repeat(ko.epow(gamma, part.step % units), len(part)), ko.emul, initial=x0)
    points = chain(zip(islice(walk, len(part)), repeat(w)), [(ext.unpack(0), zero)] if zero else ())
    counts = _tally(ext, mode, coeffs, inner, points)
    first = part.start + len(part) * part.step - units  # when this part ends the walk
    if first >= 0 and next(walk) != (x0 if first == part.start else ko.epow(gamma, first)):
        raise RuntimeError(f"the coset walk from gamma^{first} did not return to its start")
    return counts


# ---------------------------------------------------------------------------
# the log kernel: sums on k_r, q^r <= DLOG_CAP, as exponent arithmetic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _cyclotomic_cosets(q: int, r: int) -> tuple[array, array]:
    """The leaders (least elements) and sizes of the cosets {i * q^j mod N}
    of Z/N, N = q^r - 1, in increasing order of leader.

    They are the Frobenius orbits of k_r^* = <gamma> on exponents, and
    depend on q and r alone.  At r = 2 the cosets are {a + b q, b + a q}
    for digits a, b < q: the leaders are a + b q with b <= a, one range
    per b, each of size 1 at a = b and 2 otherwise, and a = b = q - 1 is
    N = 0.  Other r take the necklaces (`_necklace_cosets`).
    """
    if r != 2:
        return _necklace_cosets(q, r)
    leaders, sizes = array("i"), array("B")
    for b in range(q):
        leaders.extend(range(b * (q + 1), b * q + q))
        sizes.append(1)
        sizes.extend(repeat(2, q - 1 - b))
    del leaders[-1], sizes[-1]
    return leaders, sizes


def _necklace_cosets(q: int, r: int) -> tuple[array, array]:
    """`_cyclotomic_cosets` by necklaces: multiplying by q rotates the r
    base-q digits of i, most significant first, so the leaders are the
    necklaces (`_necklaces`, in the same order) and a coset's size is its
    period; the last necklace, q^r - 1 = 0 mod N, repeats the first."""
    powers = [q**j for j in reversed(range(r))]
    leaders, sizes = array("i"), array("B")
    for word, period in _necklaces(q, r):
        leaders.append(sum(map(operator.mul, word, powers)))
        sizes.append(period)
    del leaders[-1], sizes[-1]
    return leaders, sizes


def _walk(ext, coeffs, inner, mu):
    """The points a sum visits, the same for both kernels, as (inner,
    exponents, weight, zero): the plan to apply, x = gamma^i for i in the
    range `exponents` (None: one leader per Frobenius orbit, weighted by
    its size), each of weight `weight`, and x = 0 of weight `zero`.

    With gamma = generator_r and N = q^r - 1, the first that applies:
    a fiber N(x) = mu is the class i = i0 mod q - 1, since N(gamma^i) =
    N(gamma)^i and N(gamma) generates k^*, with i0 from k's logs; the
    ("frobsub",) plan takes its image H = ker Tr, onto which x^q - x is
    q-to-1, each point of H and 0 of weight q: the plan comes back as
    H's mark with the exponents of the walk f alone would take, kept to
    H by both kernels (`_log_points`, `_digit_counts`): f over k at r > 1
    visits one point per Frobenius orbit of H, of weight q times the
    orbit's size, and any other f every point of H; for f over k
    (coefficients packed below q) at r > 1, the Frobenius orbits, on
    which the summand is constant; the ("pow", n) plan takes its image,
    the multiples of d = gcd(n, N), each of weight d, under the identity
    plan; anything else takes every exponent.
    Every walk but the fiber also visits 0.  Only S and U sums off a
    fiber come with a plan (`_enumerate` checks).
    """
    q, units = ext.base.q, ext.size - 1
    if mu is not None:
        log, norm = ext.base._log, ext._norm_generator
        i0 = log[mu] * pow(log[norm], -1, q - 1) % (q - 1)
        if ext.base.pow_(norm, i0) != mu:
            raise RuntimeError(f"the fiber of mu = {mu} does not start at gamma^{i0}")
        return None, range(i0, units, q - 1), 1, 0
    if inner == ("frobsub",):
        return inner, _walk(ext, coeffs, None, None)[1], q, q
    if ext.r > 1 and all(c < q for c in coeffs):
        return inner, None, None, 1
    if inner is not None:
        d = math.gcd(inner[1], units)
        return None, range(0, units, d), d, 1
    return None, range(units), 1, 1


def _log_tally(ext, mode, coeffs, inner, points, zero) -> list[int]:
    """`_tally` on exponents: the same counts for the points (i, w) of
    x = gamma^i and x = 0 of weight `zero`, from the tables `ExtCtx._logs`.

    A product adds logs mod N and a + c = c * (1 + a/c) adds
    zech[log a - log c], so Horner costs one zech lookup per nonzero
    coefficient, and x^n has log n * i.  The trace index is trace[log],
    and the norm index N(gamma^a) = gamma^(a m) depends on a mod q - 1
    only.  In mode D,
    u -> a + u * Tr(t) is a bijection of k when Tr(t) != 0, so t adds its
    weight to every bucket, and q times it to bucket a when Tr(t) = 0.
    """
    tabs = ext._logs
    log, zech, trace = tabs.log, tabs.zech, tabs.trace
    q, units = ext.base.q, ext.size - 1
    if mode == "U" and ext.r > 1:
        period, index = q - 1, [0] * (q - 1)
        for v in range(1, q):
            index[log[v] * (q - 1) // units] = v
    else:
        # at r = 1 the norm is the identity, as the trace is
        period, index = units, trace
    # f(y) = (..((a_d y^g_1 + c_1) y^g_2 + c_2) ..) y^tail over the nonzero
    # coefficients; log 0 = -1 marks the zero value
    degrees = [j for j, c in enumerate(coeffs) if c][::-1] or [0]
    lead, tail = log[coeffs[degrees[0]]], degrees[-1]
    terms = [(hi - lo, log[coeffs[lo]]) for hi, lo in zip(degrees, degrees[1:])]
    at_zero = index[log[coeffs[0]] % period] if coeffs[0] else 0

    # the plan: x^n has log n * i (no plan: n = 1)
    n = inner[1] if inner is not None else 1
    d_mode = mode == "D"
    counts = [0] * q
    counts[at_zero] = zero
    spread = 0
    for i, w in points:
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


def _log_points(ext, inner, exponents, weight):
    """The log kernel's (plan, points (i, w)) for the walk `_walk` chose.

    H's mark with the orbits takes the Frobenius orbits of H's units,
    which `ExtCtx._h_orbits` lists once per extension for later sums,
    each leader of weight `weight` times its size, and with every unit
    H's units; either spends the plan.  The orbits of k_r^* are the
    cyclotomic cosets.
    """
    if inner == ("frobsub",):
        if exponents is None:
            leaders, sizes = ext._h_orbits
            return None, zip(leaders, map(operator.mul, sizes, repeat(weight)))
        # H's units are the exponents of trace 0, listed in one pass at C level
        units = compress(range(ext.size - 1), map(operator.not_, ext._logs.trace))
        return None, zip(units, repeat(weight))
    if exponents is None:
        return inner, zip(*_cyclotomic_cosets(ext.base.q, ext.r))
    return inner, zip(exponents, repeat(weight))


def _csum(terms) -> complex:
    """Correctly rounded sum of complex terms, whatever their order."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


def _enumerate(mode, f, char, ext, *, inner=None, mu=None, cap, pool) -> complex:
    """Check, count every term exactly, then evaluate sum_v c_v * char(v).

    `_walk` picks the points; the log kernel (`_log_tally` on
    `_log_points`) counts them when q^r <= DLOG_CAP, and the digit walks
    (`_digit_counts`) above it; both give the same exact histogram.
    """
    if not _plan_ok(inner):
        raise ValueError(f"unknown inner plan {inner!r}: use None, ('frobsub',) or ('pow', n), int n >= 1")
    if inner is not None and (mu is not None or mode == "D"):
        raise ValueError(f"the inner plan {inner!r} is for S and U sums, not for a norm fiber or mode D")
    if mu is not None:
        mu = elem(ext.base, mu).val
        if mu == 0:
            raise ZeroMu("norm fibers are indexed by nonzero mu")
    if char.ctx != ext.base:
        raise CtxMismatch("character not on the base field of the extension")
    n, q = ext.size, ext.base.q
    terms = n * q if mode == "D" else n
    if terms > cap:
        raise FieldTooLarge(f"enumeration of {terms} terms exceeds cap {cap}")
    coeffs = lift(f, ext).coeffs or (0,)
    inner, exponents, weight, zero = _walk(ext, coeffs, inner, mu)
    if n > DLOG_CAP:
        counts = _digit_counts(mode, coeffs, ext, inner, exponents, weight, zero, pool)
    else:
        counts = _log_tally(ext, mode, coeffs, *_log_points(ext, inner, exponents, weight), zero)
    expected = terms if mu is None else (n - 1) // (q - 1)
    if sum(counts) != expected:
        raise RuntimeError(f"counted {sum(counts)} terms, expected {expected}")
    # sum_v c_v * tab[v] one part at a time, so that no list of terms is
    # held: fsum rounds each part once, as `_csum` does
    tab = char.table()
    return complex(math.fsum((c * tab[v]).real for v, c in enumerate(counts) if c),
                   math.fsum((c * tab[v]).imag for v, c in enumerate(counts) if c))


def _digit_counts(mode, coeffs, ext, inner, exponents, weight, zero, pool) -> list[int]:
    """The counts of the walk `_walk` chose, on digit tuples: the orbit
    walk (`_count_orbits`) for the orbits, the full walk (`_count_part`)
    when the exponents are every unit and 0 is visited, and the coset
    walk (`_count_coset`) otherwise; H's walk keeps either of the first
    two to its points of trace 0.  A pool splits each walk into as many
    index ranges as `_part_ranges` gives for its own number of points.
    """
    q, r = ext.base.q, ext.r
    coeffs = tuple(map(ext.unpack, coeffs))
    if exponents is None:
        worker, total = _count_orbits, _necklace_count(q, r)
    elif len(exponents) == ext.size - 1 and zero:
        worker, total = _count_part, ext.size
    else:
        worker, total = _count_coset, len(exponents)
    ranges = _part_ranges(total) if pool is not None else [(0, total)]
    if worker is _count_orbits:
        ranges = _necklace_spans(q, r, len(ranges))
    elif worker is _count_coset:
        ranges = [(exponents[a:b], weight, zero if b == total else 0) for a, b in ranges]
    tasks = [(ext, mode, coeffs, inner, *span) for span in ranges]
    mapper = pool.map if len(tasks) > 1 else map
    return [sum(col) for col in zip(*mapper(worker, tasks))]


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
    """#{x : x^q - x = t} equals q exactly when Tr(t) = 0, else 0 (exhaustive).

    This is the fact the frobsub walk rests on (see `_walk`), which no sum
    checks again: they visit H = ker Tr instead of computing x^q - x.
    Both walks visit every digit tuple of k_r through the kernel's own
    efrob, esub and etr; the image counts hold one entry per t hit.
    """
    n = ext.size
    if n > cap:
        raise FieldTooLarge(f"exhaustive count capped at {cap}, got {n}")
    ko, q, r = ext._kops, ext.base.q, ext.r
    efrob, esub, etr = ko.efrob, ko.esub, ko.etr
    counts = Counter(esub(efrob(x), x) for x in product(range(q), repeat=r))
    # popping every t leaves no count behind unless an image lay outside k_r
    ok = all(counts.pop(t, 0) == (q if etr(t) == 0 else 0) for t in product(range(q), repeat=r))
    return ok and not counts


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
