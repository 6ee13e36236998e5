"""Characters, Gauss sums and the enumeration oracles."""

import cmath
import math
import random
from itertools import islice, product

import pytest

import charsums.charsum as cs
from charsums import FqElem, make_ext, make_field
from charsums.charsum import (
    AdditiveChar,
    MultChar,
    _chi_table,
    _count_coset,
    _count_orbits,
    _count_part,
    _csum,
    _cyclotomic_cosets,
    _necklace_count,
    _necklace_spans,
    _necklaces,
    _part_ranges,
    _unit_roots,
    counting_identity_holds,
    double_sum_check,
    fiber_sum_additive,
    fiber_sum_multiplicative,
    gauss_sum,
    orthogonality_error,
    sum_additive,
    sum_multiplicative,
    weil_descent_check,
)
from charsums.errors import FieldTooLarge, NotABasis, ZeroMu
from charsums.invariance import artin_schreier_poly
from charsums.polyring import Poly, compose, divrem, lift, random_poly

F3 = make_field(3, 1)
F5 = make_field(5, 1)
F7 = make_field(7, 1)
F13 = make_field(13, 1)


def _ext_coeff_tuples(f, ext):
    return tuple(ext.unpack(c) for c in lift(f, ext).coeffs or (0,))


def _full(ext, mode, coeffs, inner=None, mu=None, span=None):
    """The full walk over an index range of k_r, the oracle of every walk
    with no plan or the pow plan; with mu given, only the x with N(x) = mu.
    With the frobsub plan it walks H as the kernels do: its oracle is
    `_frobsub_composed`."""
    start, stop = span or (0, ext.size)
    if mu is None:
        return _count_part((ext, mode, coeffs, inner, start, stop))
    enorm = ext._kops.enorm
    xs = islice(product(range(ext.base.q), repeat=ext.r), start, stop)
    return cs._tally(ext, mode, coeffs, inner, ((x, 1) for x in xs if enorm(x) == mu))


def _frobsub_composed(f, ext):
    """f(x^q - x) by polynomial composition, reduced mod x^(q^r) - x, which
    vanishes on k_r: summed with no plan, the frobsub plan's oracle, which
    does not rest on x^q - x being q-to-1 onto the trace-zero hyperplane."""
    composed = compose(f, artin_schreier_poly(f.ctx, ext.base.q))
    return divrem(composed, artin_schreier_poly(f.ctx, ext.size))[1]


def _oracle(ext, mode, f, inner, mu=None):
    """The full walk's counts of f with its plan; for the frobsub plan, of
    its composed polynomial with no plan."""
    if inner == ("frobsub",):
        f, inner = _frobsub_composed(f, ext), None
    return _full(ext, mode, _ext_coeff_tuples(f, ext), inner, mu)


def _coset_walk_counts(ext, mode, coeffs, inner, exponents, weight, zero, parts):
    """The coset walk over the progression `exponents` in `parts` slices,
    0 going with the last, as `_digit_counts` splits it."""
    m = len(exponents)
    bounds = [i * m // parts for i in range(parts + 1)]
    tasks = [(ext, mode, coeffs, inner, exponents[a:b], weight, zero if b == m else 0)
             for a, b in zip(bounds, bounds[1:])]
    return [sum(col) for col in zip(*map(_count_coset, tasks))]


def test_additive_char_is_multiplicative_on_sums():
    for ctx in (F7, make_field(3, 2, seed=0)):
        rng = random.Random(0)
        for b in range(1, ctx.q):
            psi = AdditiveChar(ctx, b)
            for _ in range(50):
                x, y = rng.randrange(ctx.q), rng.randrange(ctx.q)
                assert abs(psi.value(ctx.add(x, y)) - psi.value(x) * psi.value(y)) < 1e-12
    # trivial iff b = 0
    psi0 = AdditiveChar(F7, 0)
    assert psi0.is_trivial and all(psi0.value(t) == 1 for t in range(7))


def test_mult_char_properties():
    chi = MultChar.of_order(F13, 3)
    assert chi.order == 3
    rng = random.Random(1)
    for _ in range(300):
        x, y = rng.randrange(1, 13), rng.randrange(1, 13)
        assert abs(chi.value(F13.mul(x, y)) - chi.value(x) * chi.value(y)) < 1e-12
    assert chi.value(0) == 0
    # chi^m is trivial on units
    for x in range(1, 13):
        assert abs(chi.value(x) ** 3 - 1) < 1e-12
    with pytest.raises(ValueError):
        MultChar.of_order(F13, 5)
    # all character values have unit modulus (or zero)
    for x in range(13):
        v = abs(chi.value(x))
        assert v == 0 or abs(v - 1) < 1e-12


@pytest.mark.parametrize("ps", [(2, 1), (7, 1), (3, 2)])
def test_mult_char_is_trivial_exactly_when_every_unit_maps_to_one(ps):
    # chi_j for j over two periods of q - 1 and a negative j; at q = 2 the
    # unit group is trivial, so every chi_j is
    ctx = make_field(*ps)
    for j in range(-1, 2 * (ctx.q - 1) + 1):
        chi = MultChar(ctx, j)
        ones = all(abs(chi.value(x) - 1) < 1e-12 for x in range(1, ctx.q))
        assert chi.is_trivial is ones and (chi.order == 1) is ones, j


@pytest.mark.parametrize("ps", [(2, 1), (3, 1), (13, 1), (1031, 1), (3, 2), (2, 6), (37, 2)])
def test_chi_table_equals_the_unit_root_construction(ps):
    # chi_j(g^i) = zeta_(q-1)^(j i) from the roots of order q - 1 and logs
    # from a walk of the generator, bit for bit, for every j (a sample of
    # j on the larger fields)
    ctx = make_field(*ps)
    n = ctx.q - 1
    log, x = [-1] * ctx.q, 1
    for i in range(n):
        log[x] = i
        x = ctx.mul(x, ctx.generator)
    roots = _unit_roots(n)
    js = range(n) if n <= 64 else [0, 1, 2, n // 2, n // 3, n - 1, 7 * n // 12]
    for j in js:
        want = [0j] + [roots[j * log[x] % n] for x in range(1, ctx.q)]
        assert list(map(repr, _chi_table(ctx, j))) == list(map(repr, want)), j


def test_gauss_sum_trivial_chi():
    psi = AdditiveChar.canonical(F7)
    assert gauss_sum(MultChar.trivial(F7), psi) == pytest.approx(1.0)


def test_gauss_sum_p3_hand_value():
    psi = AdditiveChar.canonical(F3)
    rho = MultChar.quadratic(F3)
    z = cmath.exp(2j * math.pi / 3)
    assert gauss_sum(rho, psi) == pytest.approx(-(z - z * z))
    assert abs(gauss_sum(rho, psi)) ** 2 == pytest.approx(3.0)


def test_gauss_sum_quadratic_identity_small_primes():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        ctx = make_field(p, 1)
        psi = AdditiveChar.canonical(ctx)
        rho = MultChar.quadratic(ctx)
        G = gauss_sum(rho, psi)
        assert G * G == pytest.approx(rho.value(ctx.neg(1)) * p, rel=1e-9)


def test_sum_additive_examples():
    psi = AdditiveChar.canonical(F7)
    e1 = make_ext(F7, 1)
    e2 = make_ext(F7, 2)
    # constant
    c = Poly.make(F7, (3,))
    assert sum_additive(c, psi, e2) == pytest.approx(49 * psi.value((2 * 3) % 7))
    # full character sum vanishes
    assert abs(sum_additive(Poly.make(F7, (0, 1)), psi, e1)) < 1e-9
    # g(x^q - x) at r = 1: x^q - x vanishes on k
    g = Poly.make(F7, (2, 1, 1))
    f = compose(g, artin_schreier_poly(F7, 7))
    assert sum_additive(f, psi, e1) == pytest.approx(7 * psi.value(g.coeff(0)))


def test_sum_multiplicative_examples():
    rho = MultChar.quadratic(F7)
    e1 = make_ext(F7, 1)
    e2 = make_ext(F7, 2)
    assert sum_multiplicative(Poly.make(F7, (1,)), rho, e2) == pytest.approx(49.0)
    assert abs(sum_multiplicative(Poly.make(F7, (0, 1)), rho, e1)) < 1e-9
    # 7-term brute force: sum rho(x^2+1) = -1
    assert sum_multiplicative(Poly.make(F7, (1, 0, 1)), rho, e1) == pytest.approx(-1.0)


def test_sum_caps():
    psi = AdditiveChar.canonical(F7)
    e2 = make_ext(F7, 2)
    with pytest.raises(FieldTooLarge):
        sum_additive(Poly.make(F7, (0, 1)), psi, e2, cap=10)


def test_fiber_sum_examples():
    psi = AdditiveChar.canonical(F13)
    e2 = make_ext(F13, 2)
    # constant g: fiber size (q^r-1)/(q-1)
    c = Poly.make(F13, (4,))
    fiber_size = (169 - 1) // 12
    assert fiber_sum_additive(c, psi, e2, 5) == pytest.approx(
        fiber_size * psi.value(e2.trace_to_base(e2.embed(4)))
    )
    # r = 1: the fiber N(x) = mu is just {mu}
    e1 = make_ext(F13, 1)
    g = Poly.make(F13, (1, 2, 1))
    for mu in (1, 5, 12):
        from charsums.polyring import evaluate

        want = psi.value(evaluate(g, FqElem(F13, mu)).val)
        assert fiber_sum_additive(g, psi, e1, mu) == pytest.approx(want)
    with pytest.raises(ZeroMu):
        fiber_sum_additive(g, psi, e2, 0)
    # mu names an element of k as elem reads an integer: a residue mod p
    # on a prime field, a packed value below q elsewhere
    assert fiber_sum_additive(g, psi, e2, 14) == fiber_sum_additive(g, psi, e2, 1)
    with pytest.raises(ZeroMu):
        fiber_sum_additive(g, psi, e2, 13)
    f9 = make_field(3, 2)
    with pytest.raises(ValueError, match=r"a = 9 is not in \[0, 9\)"):
        fiber_sum_additive(Poly.make(f9, (1, 1)), AdditiveChar.canonical(f9), make_ext(f9, 2), 9)


def test_fiber_sum_mult_g_equals_x():
    chi = MultChar.of_order(F13, 3)
    e2 = make_ext(F13, 2)
    fiber_size = (169 - 1) // 12
    for mu in (1, 3, 9):
        got = fiber_sum_multiplicative(Poly.make(F13, (0, 1)), chi, e2, mu)
        assert got == pytest.approx(fiber_size * chi.value(mu))


def test_reassembly_additive_and_multiplicative():
    # eq-style reassembly: full sum = f(0)-term + (q-1)/e * sum over fibers
    psi = AdditiveChar.canonical(F13)
    chi = MultChar.quadratic(F13)
    e2 = make_ext(F13, 2)
    rng = random.Random(2)
    for e in (2, 3, 4):
        n = 12 // e
        for _ in range(3):
            g = random_poly(F13, rng.randrange(1, 4), rng)
            f = compose(g, Poly.make(F13, tuple([0] * n + [1])))
            mus = [mu for mu in range(1, 13) if F13.pow_(mu, e) == 1]
            assert len(mus) == e

            lhs = sum_additive(f, psi, e2)
            rhs = psi.value(e2.trace_to_base(e2.embed(g.coeff(0))))
            for mu in mus:
                rhs += (12 // e) * fiber_sum_additive(g, psi, e2, mu)
            assert abs(lhs - rhs) <= 1e-6 * math.sqrt(169)

            lhs_m = sum_multiplicative(f, chi, e2)
            rhs_m = chi.value(e2.norm_to_base(e2.embed(g.coeff(0))))
            for mu in mus:
                rhs_m += (12 // e) * fiber_sum_multiplicative(g, chi, e2, mu)
            assert abs(lhs_m - rhs_m) <= 1e-6 * math.sqrt(169)


def test_double_sum_matches_composed_sum():
    psi5 = AdditiveChar.canonical(F5)
    e2 = make_ext(F5, 2)
    rng = random.Random(7)
    for _ in range(5):
        g = random_poly(F5, 3, rng)
        f = compose(g, artin_schreier_poly(F5, 5))
        s = sum_additive(f, psi5, e2)
        d = double_sum_check(g, psi5, e2)
        assert abs(s - d) <= 1e-6 * math.sqrt(25)
    # orthogonality collapse: g = x, r = 1 gives q
    e1 = make_ext(F5, 1)
    assert double_sum_check(Poly.make(F5, (0, 1)), psi5, e1) == pytest.approx(5.0)


def test_inner_plan_is_bitwise_identical():
    psi = AdditiveChar.canonical(F7)
    e2 = make_ext(F7, 2)
    rng = random.Random(8)
    for _ in range(5):
        g = random_poly(F7, rng.randrange(1, 4), rng)
        f = compose(g, artin_schreier_poly(F7, 7))
        assert sum_additive(f, psi, e2) == sum_additive(g, psi, e2, inner=("frobsub",))
    n = 3
    for _ in range(3):
        g = random_poly(F7, 2, rng)
        f = compose(g, Poly.make(F7, tuple([0] * n + [1])))
        assert sum_additive(f, psi, e2) == sum_additive(g, psi, e2, inner=("pow", n))
    # off the orbit walk, g outside k or r = 1, the pow plan takes the image walk
    chi = MultChar.quadratic(F7)
    for ext in (e2, make_ext(F7, 1)):
        for n in (5, 6):
            g = random_poly(ext, 2, rng)
            assert ext.r == 1 or any(c >= 7 for c in g.coeffs)
            f = compose(g, Poly.make(ext, tuple([0] * n + [1])))
            assert sum_additive(f, psi, ext) == sum_additive(g, psi, ext, inner=("pow", n))
            assert sum_multiplicative(f, chi, ext) == sum_multiplicative(g, chi, ext, inner=("pow", n))


def test_counting_identity_and_orthogonality():
    assert counting_identity_holds(make_ext(F5, 2))
    assert counting_identity_holds(make_ext(make_field(3, 2, seed=0), 2, seed=0))
    primes = [p for p in range(2, 101) if all(p % d for d in range(2, p))]
    for p in primes:
        ctx = make_field(p, 1)
        assert orthogonality_error(AdditiveChar.canonical(ctx)) < 1e-9 * p


@pytest.mark.parametrize("p, s", [(13, 1), (3, 2)])
def test_counting_identity_fails_on_a_broken_frobenius_or_trace(p, s, monkeypatch):
    # over F_13^3 and F_9^3: a Frobenius that swaps the images of 0 and Y,
    # or a trace that calls one trace-zero t nonzero, must fail the count
    ext = make_ext(make_field(p, s, seed=0), 3, seed=0)
    ko = ext._kops
    efrob, etr = ko.efrob, ko.etr
    zero, y = (0, 0, 0), (0, 1, 0)
    t0 = ko.esub(efrob(y), y)
    assert t0 != zero and etr(t0) == 0
    swap = {zero: y, y: zero}
    with monkeypatch.context() as m:
        m.setattr(ko, "efrob", lambda x: efrob(swap.get(x, x)))
        assert not counting_identity_holds(ext)
    with monkeypatch.context() as m:
        m.setattr(ko, "etr", lambda t: 1 if t == t0 else etr(t))
        assert not counting_identity_holds(ext)
    assert counting_identity_holds(ext)


@pytest.mark.parametrize("p, s", [(2, 1), (3, 1), (7, 1), (3, 2), (2, 6), (5, 3), (11, 2)])
def test_orthogonality_error_takes_the_maximum_over_every_row(p, s):
    ctx = make_field(p, s, seed=0)
    psi = AdditiveChar.canonical(ctx)
    tab = psi.table()
    rows = [_csum(tab[ctx.mul(u, t)] for t in range(ctx.q)) for u in range(ctx.q)]
    every_row = max(abs(z - (ctx.q if u == 0 else 0)) for u, z in enumerate(rows))
    assert orthogonality_error(psi) == every_row


def test_sums_match_naive_reference():
    # independent oracle: direct FqElem evaluation through the public API,
    # no kernel closures involved.  The extensions (seed 53) are contexts no
    # other test uses, so they have no Zech tables while the naive loops
    # run: their arithmetic is the digit kernel's, not the tables the log
    # kernel sums on
    from charsums import FqElem, elements, norm, trace
    from charsums.polyring import evaluate

    for base, r in ((F7, 2), (make_field(3, 2, seed=0), 2), (F5, 3)):
        ext = make_ext(base, r, seed=53)
        assert "_logs" not in ext.__dict__
        psi = AdditiveChar.canonical(base)
        m = next(mm for mm in (2, 3, 4, 7, 8) if (base.q - 1) % mm == 0)
        chi = MultChar.of_order(base, m)
        rng = random.Random(base.q)
        g = random_poly(base, 3, rng)
        mu = 1 + rng.randrange(base.q - 1)

        naive_add = 0j
        naive_mult = 0j
        naive_fiber = 0j
        for x in elements(ext):
            y = evaluate(g, x, ext=ext)
            naive_add += psi.value(trace(y, ext).val)
            naive_mult += chi.value(norm(y, ext).val)
            if norm(x, ext).val == mu:
                naive_fiber += psi.value(trace(y, ext).val)
        assert "_logs" not in ext.__dict__
        assert abs(sum_additive(g, psi, ext) - naive_add) < 1e-9 * ext.size
        assert abs(sum_multiplicative(g, chi, ext) - naive_mult) < 1e-9 * ext.size
        assert abs(fiber_sum_additive(g, psi, ext, mu) - naive_fiber) < 1e-9 * ext.size


def test_weil_descent():
    e1 = make_ext(F5, 1)
    g = Poly.make(F5, (1, 2, 3))
    assert weil_descent_check(g, e1, [FqElem(e1, 1)], trials=20)
    e2 = make_ext(F5, 2)
    gamma = FqElem(e2, e2.generator_r)
    assert weil_descent_check(g, e2, [FqElem(e2, 1), gamma], trials=200)
    # coefficients in the extension are allowed
    g_ext = random_poly(e2, 3, random.Random(3))
    assert weil_descent_check(g_ext, e2, [FqElem(e2, 1), gamma], trials=100)
    with pytest.raises(NotABasis):
        weil_descent_check(g, e2, [FqElem(e2, 1), FqElem(e2, 1)])


def test_partition_structure_is_size_based():
    assert _part_ranges(100) == [(0, 100)]
    parts = _part_ranges(1 << 15)
    assert len(parts) == 16
    assert parts[0][0] == 0 and parts[-1][1] == 1 << 15
    for (a, b), (c, d) in zip(parts, parts[1:]):
        assert b == c


def _frobsub_pool_cases():
    """(g, char, ext, total) of the pool calls with the frobsub plan: F_13^4,
    in S and U mode, and F_7^6, whose 19,684 necklaces the digit walks
    split."""
    f13 = make_field(13, 1)
    g, e4 = Poly.make(f13, (1, 5, 0, 1)), make_ext(f13, 4)
    return [
        (g, AdditiveChar.canonical(f13), e4, sum_additive),
        (Poly.make(F7, (1, 5, 0, 1)), AdditiveChar.canonical(F7), make_ext(F7, 6), sum_additive),
        (g, MultChar.of_order(f13, 3), e4, sum_multiplicative),
    ]


def _pool_calls():
    frobsub = [lambda pool, case=case: case[3](*case[:3], inner=("frobsub",), pool=pool)
               for case in _frobsub_pool_cases()]
    # F_4 at r = 7 is the cheapest extension with a nontrivial multiplicative
    # character that is split into partitions
    f4 = make_field(2, 2, seed=0)
    e7 = make_ext(f4, 7)
    assert e7.size >= 1 << 14
    h = Poly.make(f4, (2, 1, 0, 1))
    psi4, chi4 = AdditiveChar.canonical(f4), MultChar.of_order(f4, 3)
    # a coefficient outside k (packed 5 has digit 1 at Y^1) keeps h7 off the
    # orbit walk
    h7 = Poly.make(e7, (2, 5, 1))
    # walks of at least 2^14 points, which the digit walks split: 21,845
    # points in a fiber and in the image of x -> x^3 on F_4^8
    e8 = make_ext(f4, 8)
    h8 = Poly.make(e8, (2, 5, 1))
    # over F_2 the fiber N(x) = 1 is every unit: all exponents, without 0
    f2 = make_field(2, 1)
    e25 = make_ext(f2, 5)
    return [
        frobsub[0],
        lambda pool: sum_multiplicative(h, chi4, e7, pool=pool),
        lambda pool: fiber_sum_additive(h, psi4, e7, 2, pool=pool),
        lambda pool: fiber_sum_multiplicative(h, chi4, e7, 3, pool=pool),
        lambda pool: double_sum_check(h, psi4, e7, pool=pool),
        # the pow plan takes the image walk
        lambda pool: sum_additive(h7, psi4, e7, inner=("pow", 3), pool=pool),
        # with no inner plan h7 takes the full walk, split into partitions
        lambda pool: sum_additive(h7, psi4, e7, pool=pool),
        # fibers of h7 take the coset walk
        lambda pool: fiber_sum_additive(h7, psi4, e7, 2, pool=pool),
        lambda pool: fiber_sum_multiplicative(h7, chi4, e7, 3, pool=pool),
        frobsub[1],
        lambda pool: fiber_sum_additive(h8, psi4, e8, 2, pool=pool),
        lambda pool: sum_additive(h8, psi4, e8, inner=("pow", 3), pool=pool),
        lambda pool: fiber_sum_additive(Poly.make(f2, (1, 1, 0, 1)), AdditiveChar.canonical(f2), e25, 1,
                                        pool=pool),
        frobsub[2],
    ]


def test_pool_and_serial_agree_bitwise():
    from concurrent.futures import ProcessPoolExecutor

    calls = _pool_calls()
    serial = [call(None) for call in calls]
    with ProcessPoolExecutor(max_workers=4) as pool:
        parallel = [call(pool) for call in calls]
    assert serial == parallel


def test_pool_and_serial_agree_bitwise_on_the_digit_walks(monkeypatch):
    # the same calls with ffield.DLOG_CAP lowered below their fields take
    # the digit walks, whose partitions run on the pool, and give the log
    # kernel's values bit for bit
    from concurrent.futures import ProcessPoolExecutor

    calls = _pool_calls()
    log_kernel = [call(None) for call in calls]
    monkeypatch.setattr(cs, "DLOG_CAP", 1)
    serial = [call(None) for call in calls]
    points = []
    monkeypatch.setattr(cs, "_part_ranges", lambda n, f=cs._part_ranges: points.append(n) or f(n))
    with ProcessPoolExecutor(max_workers=4) as pool:
        parallel = [call(pool) for call in calls]
    assert serial == parallel == log_kernel
    # each walk is split by its own number of points: necklaces, the
    # (4^7 - 1)/3 points of a fiber or of the image of x -> x^3, or 4^7
    orbits, third = _necklace_count(4, 7), (4**7 - 1) // 3
    assert points == [
        _necklace_count(13, 4), orbits, third, third, orbits, third, 4**7, third, third,
        _necklace_count(7, 6), (4**8 - 1) // 3, (4**8 - 1) // 3, 2**5 - 1, _necklace_count(13, 4),
    ]
    assert [len(_part_ranges(n)) for n in points] == [1] * 6 + [16, 1, 1] + [16] * 3 + [1, 1]


def test_frobsub_pool_calls_equal_the_composed_sums():
    # the oracle of the frobsub calls above: f(x^q - x) by composition,
    # summed with no plan
    for g, char, ext, total in _frobsub_pool_cases():
        want = total(_frobsub_composed(g, ext), char, ext)
        assert total(g, char, ext, inner=("frobsub",)) == want


# ---------------------------------------------------------------------------
# the orbit walk
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 13])
@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_necklaces_are_least_rotations_counted_by_burnside(q, r):
    def phi(d):
        return sum(1 for i in range(1, d + 1) if math.gcd(i, d) == 1)

    count = sum(phi(d) * q ** (r // d) for d in range(1, r + 1) if r % d == 0) // r
    assert _necklace_count(q, r) == count
    words = list(_necklaces(q, r))
    assert len(words) == count
    assert sum(period for _, period in words) == q**r
    assert all(len(w) == r and 0 <= min(w) and max(w) < q for w, _ in words)
    assert all(a < b for (a, _), (b, _) in zip(words, words[1:]))  # so distinct
    for word, period in words:
        twice = word + word
        rotations = [twice[i:i + r] for i in range(1, r + 1)]
        assert word == min(rotations)  # its own least rotation
        assert period == rotations.index(word) + 1


@pytest.mark.parametrize("q, r", [(2, 5), (3, 4), (13, 3)])
@pytest.mark.parametrize("parts", [1, 3, 16])
def test_necklace_spans_split_the_stream_in_order(q, r, parts):
    spans = _necklace_spans(q, r, parts)
    assert len(spans) == parts
    joined = [w for start, n in spans for w in islice(_necklaces(q, r, *start), n)]
    assert joined == list(_necklaces(q, r))


def _marked_cosets(q, r):
    """The cyclotomic cosets of Z/(q^r - 1) by a marking pass: from each
    unmarked i, mark i * q^j until the coset closes."""
    units = q**r - 1
    seen = bytearray(units)
    leaders, sizes = [], []
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


@pytest.mark.parametrize("q, r", [(2, r) for r in range(1, 13)]
                         + [(3, r) for r in range(1, 8)]
                         + [(4, 5), (5, 4), (7, 3), (9, 3), (13, 1), (13, 2), (13, 4)])
def test_cyclotomic_cosets_are_the_necklaces(q, r):
    leaders, sizes = _cyclotomic_cosets.__wrapped__(q, r)
    assert (list(leaders), list(sizes)) == _marked_cosets(q, r)


@pytest.mark.parametrize("q", [2, 3, 4, 9, 31, 1031])
def test_cyclotomic_cosets_at_r_2_by_formula_equal_the_necklaces(q):
    # r = 2 lists the pairs {a + b q, b + a q} by one range per b
    assert _cyclotomic_cosets.__wrapped__(q, 2) == cs._necklace_cosets(q, 2)


# (p, s, r): the table flavour on a prime and on a composite base, r = 2..5
ORBIT_FIELDS = [(13, 1, 2), (13, 1, 3), (2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 2, 5), (3, 1, 5)]
# (mode, inner plan, fiber): S, U, D and both fiber modes
ORBIT_CELLS = [
    ("S", None, False),
    ("S", ("frobsub",), False),
    ("S", ("pow", 3), False),
    ("U", None, False),
    ("U", ("frobsub",), False),
    ("U", ("pow", 3), False),
    ("D", None, False),
    ("S", None, True),
    ("U", None, True),
]


def _orbit_and_full_counts(ext, mode, g, inner, mu, parts=3):
    coeffs = _ext_coeff_tuples(g, ext)
    full = _oracle(ext, mode, g, inner, mu)
    if mu is not None:
        # a fiber of f over k takes the coset walk of its exponent class, as
        # every fiber does (see `_walk`)
        plan, exponents, weight, zero = cs._walk(ext, lift(g, ext).coeffs, inner, mu)
        return _coset_walk_counts(ext, mode, coeffs, plan, exponents, weight, zero, parts), full
    spans = _necklace_spans(ext.base.q, ext.r, parts)
    orbit = [sum(col) for col in zip(*(
        _count_orbits((ext, mode, coeffs, inner, start, n)) for start, n in spans
    ))]
    return orbit, full


@pytest.mark.parametrize("p, s, r", ORBIT_FIELDS)
@pytest.mark.parametrize("mode, inner, fiber", ORBIT_CELLS)
def test_orbit_walk_equals_full_walk(p, s, r, mode, inner, fiber):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    g = random_poly(base, 3, random.Random(p * 100 + r))
    mu = base.generator if fiber else None
    orbit, full = _orbit_and_full_counts(ext, mode, g, inner, mu)
    assert orbit == full


def test_orbit_walk_equals_full_walk_mod_p_flavour():
    # the smallest prime base above ffield.TABLE_CAP: F_1031, r = 2
    base = make_field(1031, 1)
    ext = make_ext(base, 2)
    g = Poly.make(base, (5, 3))
    orbit, full = _orbit_and_full_counts(ext, "S", g, None, None)
    assert orbit == full


def _routing_cases():
    """(f, ext, mu, inner plan, walk) for each route, the same in both
    kernels."""
    e1, e2 = make_ext(F7, 1), make_ext(F7, 2)
    g = Poly.make(F7, (1, 2, 3))
    h = Poly.make(e2, (1, 9, 3))  # 9 = 2 + Y lies outside k
    return [
        (g, e1, None, None, "full"),  # r = 1
        (g, e2, None, None, "orbit"),
        (h, e2, None, None, "full"),
        # norm fibers, mu = 3: every fiber is its class, g over k too
        (h, e2, 3, None, "fiber"),
        (g, e2, 3, None, "fiber"),
        (g, e1, 3, None, "fiber"),  # r = 1
        # the pow plan, n = 3: the image walk unless the orbit walk applies
        (h, e2, None, ("pow", 3), "image"),
        (g, e1, None, ("pow", 3), "image"),  # r = 1
        (g, e2, None, ("pow", 3), "orbit"),
        # the frobsub plan: its image H = ker Tr, by orbits for f over k
        (g, e2, None, ("frobsub",), "hyperplane orbit"),
        (h, e2, None, ("frobsub",), "hyperplane"),
        (g, e1, None, ("frobsub",), "hyperplane"),  # r = 1: H = {0}
    ]


def _digit_walk(name, task):
    if task[3] == ("frobsub",):
        # the orbit or the full walk, kept to H
        return "hyperplane orbit" if name == "_count_orbits" else "hyperplane"
    if name == "_count_coset":
        weight = task[5]  # d for the pow image, 1 for a fiber
        return "image" if weight > 1 else "fiber"
    return {"_count_part": "full", "_count_orbits": "orbit"}[name]


def _log_walk_name(ext, inner, points, zero):
    # which exponent set `_log_walk` chose, read off its points
    q, units = ext.base.q, ext.size - 1
    if zero == 0:
        i0 = points[0][0]
        assert points == [(i, 1) for i in range(i0, units, q - 1)]
        return "fiber"
    if zero == q:
        assert inner is None
        leaders, sizes = ext._h_orbits
        if ext.r > 1 and points == [(i, q * size) for i, size in zip(leaders, sizes)]:
            return "hyperplane orbit"
        gamma = ext.generator_r
        assert points == [(i, q) for i in range(units) if ext.trace_to_base(ext.pow_(gamma, i)) == 0]
        return "hyperplane"
    if inner is None and points[0][1] > 1:
        d = points[0][1]
        assert points == [(i, d) for i in range(0, units, d)]
        return "image"
    if ext.r > 1 and points == list(zip(*cs._cyclotomic_cosets(q, ext.r))):
        return "orbit"
    assert points == [(i, 1) for i in range(units)]
    return "full"


def test_enumerate_takes_the_orbit_walk_exactly_for_f_over_k(monkeypatch):
    # below ffield.DLOG_CAP every sum runs on exponents, above it (the cap
    # lowered below F_7) on digits; on both sides `_walk` picks the same
    # walk, and the orbit walk runs exactly for f over k at r > 1 off a
    # fiber, with the frobsub plan on the orbits in H
    seen = []
    for name in ("_count_part", "_count_orbits", "_count_coset"):
        fn = getattr(cs, name)
        monkeypatch.setattr(cs, name, lambda task, fn=fn, name=name: seen.append(
            _digit_walk(name, task)) or fn(task))
    tally = cs._log_tally

    def log_tally(ext, mode, coeffs, inner, points, zero):
        points = list(points)
        seen.append(_log_walk_name(ext, inner, points, zero))
        return tally(ext, mode, coeffs, inner, points, zero)

    monkeypatch.setattr(cs, "_log_tally", log_tally)
    psi, chi = AdditiveChar.canonical(F7), MultChar.quadratic(F7)
    for log_kernel in (True, False):
        if not log_kernel:
            monkeypatch.setattr(cs, "DLOG_CAP", 1)
        for f, ext, mu, inner, walk in _routing_cases():
            if mu is not None:
                seen.clear()
                fiber_sum_additive(f, psi, ext, mu)
                assert seen == [walk] if log_kernel else set(seen) == {walk}
                continue
            for total, char in ((sum_additive, psi), (sum_multiplicative, chi)):
                seen.clear()
                total(f, char, ext, inner=inner)
                assert seen == [walk] if log_kernel else set(seen) == {walk}


# ---------------------------------------------------------------------------
# the log kernel
# ---------------------------------------------------------------------------


# (p, s, r): r = 1 and r > 1, p = 2 (where -1 = gamma^0), composite bases,
# and r = 1 on the mod-p (F_1031) and generic (F_2048) flavours
LOG_FIELDS = [
    (13, 1, 1), (13, 1, 3), (7, 1, 2), (2, 1, 1), (2, 1, 5),
    (3, 2, 3), (2, 2, 3), (1031, 1, 1), (2, 11, 1),
]
LOG_CELLS = [
    ("S", None), ("S", ("frobsub",)), ("S", ("pow", 3)), ("S", ("pow", 4)),
    ("U", None), ("U", ("frobsub",)), ("U", ("pow", 3)), ("U", ("pow", 4)),
    ("D", None),
]


def _log_polys(base, ext, seed):
    """f over k, f with a coefficient outside k (when r > 1), a sparse f
    with f(0) = 0, and a constant."""
    rng = random.Random(seed)
    c = 1 + rng.randrange(base.q - 1)
    return [
        random_poly(base, 3, rng),
        random_poly(ext, 2, rng),
        Poly.make(base, (0, c, 0, 0, 1)),
        Poly.make(base, (c,)),
    ]


def _log_counts(ext, mode, f, inner=None, mu=None):
    coeffs = lift(f, ext).coeffs or (0,)
    inner, exponents, weight, zero = cs._walk(ext, coeffs, inner, mu)
    return cs._log_tally(ext, mode, coeffs, *cs._log_points(ext, inner, exponents, weight), zero)


def _digit_side_counts(ext, mode, f, inner):
    """The digit walks' counts of the walk `_walk` picks, as a field above
    ffield.DLOG_CAP takes them."""
    coeffs = lift(f, ext).coeffs or (0,)
    return cs._digit_counts(mode, coeffs, ext, *cs._walk(ext, coeffs, inner, None), None)


def _full_counts(ext, mode, f, inner=None, mu=None, span=None):
    return _full(ext, mode, _ext_coeff_tuples(f, ext), inner, mu, span)


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
@pytest.mark.parametrize("mode, inner", LOG_CELLS)
def test_log_walk_equals_full_walk(p, s, r, mode, inner):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    for f in _log_polys(base, ext, p * 100 + r):
        want = _oracle(ext, mode, f, inner)
        assert _log_counts(ext, mode, f, inner) == want, f
        if inner == ("frobsub",):
            # the digit walks keep the orbit or the full walk to H
            assert _digit_side_counts(ext, mode, f, inner) == want, f


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
def test_log_kernel_lists_the_units_of_the_trace_zero_hyperplane(p, s, r, monkeypatch):
    # by their Frobenius orbits: one leader, the least element, per orbit
    ext = make_ext(make_field(p, s, seed=0), r, seed=0)
    q, units, gamma = ext.base.q, ext.size - 1, ext.generator_r
    leaders, sizes = ext._h_orbits
    assert len(leaders) == len(sizes) and list(leaders) == sorted(set(leaders))
    for i, size in zip(leaders, sizes):
        orbit = {i * q**j % units for j in range(r)}
        assert ext.trace_to_base(ext.pow_(gamma, i)) == 0
        assert min(orbit) == i and len(orbit) == size
    # distinct least elements are distinct orbits: these cover H's units
    assert sum(sizes) == q ** (r - 1) - 1

    seen = []
    tally = cs._log_tally

    def log_tally(ext, mode, coeffs, inner, points, zero):
        points = list(points)
        seen.append((inner, points, zero))
        return tally(ext, mode, coeffs, inner, points, zero)

    monkeypatch.setattr(cs, "_log_tally", log_tally)
    sum_additive(Poly.make(ext.base, (1, 1)), AdditiveChar.canonical(ext.base), ext, inner=("frobsub",))
    # at r = 1 the sum lists H's units, of which there are none, as here
    assert seen == [(None, [(i, q * size) for i, size in zip(leaders, sizes)], q)]


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
@pytest.mark.parametrize("mode", ["S", "U"])
def test_hyperplane_orbit_counts_equal_the_units_and_the_digit_walks(p, s, r, mode):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    q, trace = base.q, ext._logs.trace
    units = [i for i in range(ext.size - 1) if trace[i] == 0]
    # f over k: a random cubic, a sparse f with f(0) = 0, and a constant
    for f in [f for f in _log_polys(base, ext, p * 100 + r) if f.ctx == base]:
        coeffs = lift(f, ext).coeffs or (0,)
        by_units = cs._log_tally(ext, mode, coeffs, None, [(i, q) for i in units], q)
        assert _log_counts(ext, mode, f, ("frobsub",)) == by_units, f
        assert _digit_side_counts(ext, mode, f, ("frobsub",)) == by_units, f


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
@pytest.mark.parametrize("mode", ["S", "U"])
def test_log_fibers_equal_filtered_full_walk(p, s, r, mode):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    # every mu, and on the large r = 1 fields one polynomial
    for f in _log_polys(base, ext, p * 100 + r)[:3 if base.q <= 64 else 1]:
        for mu in range(1, base.q):
            # at r = 1 the fiber is {mu}, index mu of the full walk, and the
            # filter drops every other index
            span = (mu, mu + 1) if r == 1 else (0, ext.size)
            want = _full_counts(ext, mode, f, mu=mu, span=span)
            assert _log_counts(ext, mode, f, mu=mu) == want, (f, mu)


@pytest.mark.parametrize("p, s, r", [(13, 1, 3), (3, 2, 3), (2, 1, 5)])
def test_double_sum_counts_equal_the_u_loop(p, s, r):
    # the histogram of Tr f(t) + u Tr(t) over u in k and t in k_r, one u at
    # a time, against the digit and the log kernels' one step per t
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    ko = ext._kops
    for f in _log_polys(base, ext, p)[:2]:
        coeffs = _ext_coeff_tuples(f, ext)
        want = [0] * base.q
        for t in product(range(base.q), repeat=r):
            acc = coeffs[-1]
            for c in reversed(coeffs[:-1]):
                acc = ko.eadd(ko.emul(acc, t), c)
            a, tau = ko.etr(acc), ko.etr(t)
            for u in range(base.q):
                want[ko.kadd(a, ko.kmul(u, tau))] += 1
        assert _full(ext, "D", coeffs) == want
        assert _log_counts(ext, "D", f) == want


# ---------------------------------------------------------------------------
# the coset walk
# ---------------------------------------------------------------------------


# (p, s, r): the table flavour on a prime and on a composite base, and
# r = 1 on the mod-p (F_1031) and generic (F_2048) flavours
COSET_FIELDS = [(13, 1, 3), (3, 2, 3), (7, 1, 4), (1031, 1, 1), (2, 11, 1)]


def _coset_counts(ext, mode, coeffs, mu, parts):
    inner, exponents, weight, zero = cs._walk(ext, (), None, mu)
    assert (len(exponents), weight, zero) == ((ext.size - 1) // (ext.base.q - 1), 1, 0)
    return _coset_walk_counts(ext, mode, coeffs, inner, exponents, weight, zero, parts)


@pytest.mark.parametrize("p, s, r", COSET_FIELDS)
@pytest.mark.parametrize("mode", ["S", "U"])
def test_coset_walk_equals_filtered_full_walk_for_every_mu(p, s, r, mode):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    # a coefficient outside k when r > 1, as the coset walk sees in use
    g = random_poly(ext, 2, random.Random(p * 100 + r))
    coeffs = _ext_coeff_tuples(g, ext)
    for mu in range(1, base.q):
        full = _full(ext, mode, coeffs, mu=mu)
        assert _coset_counts(ext, mode, coeffs, mu, 1) == full


@pytest.mark.parametrize("p, s, r", COSET_FIELDS[:3])
@pytest.mark.parametrize("parts", [3, 16])
def test_coset_partitions_add_up_to_the_whole_coset(p, s, r, parts):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    coeffs = _ext_coeff_tuples(random_poly(ext, 2, random.Random(p)), ext)
    for mode in ("S", "U"):
        for mu in range(1, base.q):
            whole = _coset_counts(ext, mode, coeffs, mu, 1)
            assert _coset_counts(ext, mode, coeffs, mu, parts) == whole
            assert sum(whole) == (ext.size - 1) // (base.q - 1)


# ---------------------------------------------------------------------------
# the pow image walk
# ---------------------------------------------------------------------------


# (p, s, r): the table flavour on a prime and on a composite base, and
# r = 1 on the mod-p (F_1031) and generic (F_2048) flavours
POW_FIELDS = [(13, 1, 3), (2, 2, 5), (1031, 1, 1), (2, 11, 1)]


def _exponents(units: int) -> list[int]:
    """An n with gcd(n, units) = 1, one with a gcd above 1, and units
    itself, whose image is {1}."""
    coprime = next(n for n in range(2, units) if math.gcd(n, units) == 1)
    shared = next(n for n in range(2, units) if math.gcd(n, units) > 1)
    return [coprime, shared, units]


@pytest.mark.parametrize("p, s, r", POW_FIELDS)
@pytest.mark.parametrize("mode", ["S", "U"])
def test_pow_image_walk_equals_full_walk(p, s, r, mode):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    units = ext.size - 1
    # a coefficient outside k when r > 1, as the image walk sees in use
    g = random_poly(ext, 2, random.Random(p * 100 + r))
    coeffs = _ext_coeff_tuples(g, ext)
    ns = _exponents(units)
    assert [math.gcd(n, units) > 1 for n in ns] == [False, True, True]
    for n in ns:
        full = _full(ext, mode, coeffs, ("pow", n))
        inner, exponents, weight, zero = cs._walk(ext, lift(g, ext).coeffs, ("pow", n), None)
        assert inner is None and len(exponents) * weight == units and zero == 1
        for parts in (1, 3, 16):
            got = _coset_walk_counts(ext, mode, coeffs, None, exponents, weight, zero, parts)
            assert got == full, (n, parts)


def test_pow_exponent_below_one_is_rejected_before_enumeration(monkeypatch):
    def no_walk(*task):
        raise AssertionError("enumerated")

    for name in ("_count_part", "_count_orbits", "_count_coset", "_log_tally"):
        monkeypatch.setattr(cs, name, no_walk)
    e2 = make_ext(F7, 2)
    g = Poly.make(F7, (1, 2, 3))
    h = Poly.make(e2, (1, 9, 3))
    for n in (0, -1, -5):
        for f, ext in ((g, e2), (h, e2), (g, make_ext(F7, 1))):
            with pytest.raises(ValueError, match="n >= 1"):
                sum_additive(f, AdditiveChar.canonical(F7), ext, inner=("pow", n))
            with pytest.raises(ValueError, match="n >= 1"):
                sum_multiplicative(f, MultChar.quadratic(F7), ext, inner=("pow", n))


@pytest.mark.parametrize("inner", [
    ("bogus",), ("pow",), ("pow", 2.0), ("pow", 0), ("pow", 2, 3), ["frobsub"], ("frobsub", 1), "pow",
])
def test_inner_plan_is_checked_before_any_table_or_walk(inner, monkeypatch):
    import charsums.ffield as ff

    def no_table(*args):
        raise AssertionError("built a table or took a walk")

    ext = make_ext(F13, 5, seed=3)  # a context no other test uses
    monkeypatch.setattr(ff, "_log_tables", no_table)
    for name in ("_walk", "_count_part", "_count_orbits", "_count_coset", "_log_tally"):
        monkeypatch.setattr(cs, name, no_table)
    g = Poly.make(F13, (1, 2, 3))
    with pytest.raises(ValueError, match="unknown inner plan"):
        sum_additive(g, AdditiveChar.canonical(F13), ext, inner=inner)
    with pytest.raises(ValueError, match="unknown inner plan"):
        sum_multiplicative(g, MultChar.quadratic(F13), ext, inner=inner)
    assert "_logs" not in ext.__dict__


@pytest.mark.parametrize("inner", [("frobsub",), ("pow", 3)])
@pytest.mark.parametrize("mode, mu", [("S", 2), ("U", 2), ("D", None)])
def test_a_plan_on_a_fiber_or_in_mode_d_is_rejected_before_any_work(mode, mu, inner, monkeypatch):
    # no public function passes either combination: a fiber walk and mode
    # D apply no plan, so the plan would be dropped without a word
    def no_work(*args):
        raise AssertionError("lifted f, built a table or took a walk")

    for name in ("lift", "_walk", "_count_part", "_count_orbits", "_count_coset", "_log_tally"):
        monkeypatch.setattr(cs, name, no_work)
    ext = make_ext(F13, 2)
    char = MultChar.quadratic(F13) if mode == "U" else AdditiveChar.canonical(F13)
    with pytest.raises(ValueError, match="not for a norm fiber or mode D"):
        cs._enumerate(mode, Poly.make(F13, (1, 2, 3)), char, ext, inner=inner, mu=mu, cap=cs.DOUBLE_CAP,
                      pool=None)


def test_fiber_start_is_checked_against_the_arithmetic_of_k(monkeypatch):
    # logs of k that disagree with its products must not start a fiber walk
    # off its fiber: swap the logs of mu and of one other unit
    ext = make_ext(F13, 2)
    norm = ext._kops.enorm(ext.unpack(ext.generator_r))
    mu, other = [x for x in range(1, 13) if x != norm][:2]
    log = list(F13._log)
    log[mu], log[other] = log[other], log[mu]
    monkeypatch.setattr(type(F13), "_log", property(lambda self: log))
    with pytest.raises(RuntimeError, match="does not start"):
        fiber_sum_additive(Poly.make(F13, (1, 1)), AdditiveChar.canonical(F13), ext, mu)
