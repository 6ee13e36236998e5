"""Field construction, trace/norm laws, enumeration and dlog."""

import dataclasses
import itertools
import json
import operator
import pickle
import random
import re
from array import array
from collections import Counter
from functools import partial, reduce
from pathlib import Path

import pytest

from charsums import (
    FqElem,
    dlog,
    elem,
    elements,
    embed,
    make_ext,
    make_field,
    norm,
    trace,
)
from charsums.errors import CtxMismatch, NotPrime, Overflow, ZeroElement
from charsums import ffield as ff
from charsums.ffield import TABLE_CAP, _kops_flavor, _slot_walk, power, rank_over


def test_prime_field_has_no_modulus():
    f5 = make_field(5, 1)
    assert f5.q == 5 and f5.modulus is None
    assert f5.pow_(f5.generator, 4) == 1
    assert f5.pow_(f5.generator, 2) != 1


def test_f16_modulus_irreducible_by_exhaustion():
    f16 = make_field(2, 4, seed=1)
    m = f16.modulus
    assert len(m) == 5 and m[-1] == 1

    # brute-force oracle: no monic factor of degree 1 or 2 over F_2
    def poly_mod(a, b):
        a = list(a)
        while len(a) >= len(b):
            if a[-1]:
                off = len(a) - len(b)
                for i, c in enumerate(b):
                    a[off + i] ^= c
            a.pop()
        return a

    candidates = [[c0, 1] for c0 in range(2)]
    candidates += [[c0, c1, 1] for c0 in range(2) for c1 in range(2)]
    for cand in candidates:
        rem = poly_mod(list(m), cand)
        assert any(rem), f"modulus divisible by {cand}"


def test_composite_p_rejected():
    with pytest.raises(NotPrime):
        make_field(4, 1)


def test_overflow_rejected():
    with pytest.raises(Overflow):
        make_field(2, 64)


def test_trace_of_embedded_base_element():
    f5 = make_field(5, 1)
    e2 = make_ext(f5, 2)
    for a in range(5):
        x = embed(FqElem(f5, a), e2)
        assert trace(x, e2).val == (2 * a) % 5
        if a:
            assert norm(x, e2).val == pow(a, 2, 5)
    assert norm(embed(FqElem(f5, 0), e2), e2).val == 0


def test_trace_generator_equals_conjugate_sum():
    f5 = make_field(5, 1)
    e2 = make_ext(f5, 2)
    g = FqElem(e2, e2.generator_r)
    conj_sum = g + FqElem(e2, e2.frobenius(g.val))
    assert conj_sum.coeffs[1] == 0
    assert trace(g, e2).val == conj_sum.coeffs[0]


def test_norm_generator_equals_conjugate_product():
    f5 = make_field(5, 1)
    e2 = make_ext(f5, 2)
    g = FqElem(e2, e2.generator_r)
    conj_prod = g * FqElem(e2, e2.frobenius(g.val))
    assert conj_prod.coeffs[1] == 0
    assert norm(g, e2).val == conj_prod.coeffs[0]
    # the norm of a generator generates k^*
    n = norm(g, e2).val
    assert all(f5.pow_(n, 4 // ell) != 1 for ell in (2,))


FIELDS = [(5, 1, 2), (7, 1, 2), (2, 2, 2), (3, 2, 2), (13, 1, 3)]


@pytest.mark.parametrize("p,s,r", FIELDS)
def test_trace_norm_laws_random_pairs(p, s, r):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    rng = random.Random(1234)
    for _ in range(1000):
        x = FqElem(ext, rng.randrange(ext.size))
        y = FqElem(ext, rng.randrange(ext.size))
        tx, ty = trace(x, ext), trace(y, ext)
        assert trace(x + y, ext).val == base.add(tx.val, ty.val)
        assert norm(x * y, ext).val == base.mul(norm(x, ext).val, norm(y, ext).val)
        xq = FqElem(ext, ext.frobenius(x.val))
        assert trace(xq, ext).val == tx.val
        assert norm(xq, ext).val == norm(x, ext).val
        # trace and norm land in k: packed value below q
        assert tx.val < base.q and norm(x, ext).val < base.q


@pytest.mark.parametrize("p,s,r", [(5, 1, 2), (2, 2, 2), (3, 1, 4), (7, 1, 2), (3, 2, 2)])
def test_artin_schreier_counting_identity(p, s, r):
    base = make_field(p, s, seed=0)
    ext = make_ext(base, r, seed=0)
    assert ext.size <= 10**4
    counts = Counter()
    for x in elements(ext):
        counts[ext.sub(ext.frobenius(x.val), x.val)] += 1
    for t in range(ext.size):
        expected = base.q if ext.trace_to_base(t) == 0 else 0
        assert counts.get(t, 0) == expected


def test_norm_pow_vs_conjugate_product():
    base = make_field(7, 1, seed=0)
    ext = make_ext(base, 3, seed=0)
    ko = ext._kops
    rng = random.Random(7)
    for _ in range(500):
        v = rng.randrange(ext.size)
        assert ext.norm_to_base(v) == ko.enorm(ext.unpack(v))


def test_embed_is_field_homomorphism():
    base = make_field(3, 2, seed=0)
    ext = make_ext(base, 2, seed=0)
    rng = random.Random(5)
    for _ in range(300):
        a = FqElem(base, rng.randrange(base.q))
        b = FqElem(base, rng.randrange(base.q))
        assert embed(a + b, ext).val == (embed(a, ext) + embed(b, ext)).val
        assert embed(a * b, ext).val == (embed(a, ext) * embed(b, ext)).val
    assert embed(FqElem(base, 0), ext).val == 0
    assert embed(FqElem(base, 1), ext).val == 1


def test_enumerate_partitions_exact_and_order_independent():
    f5 = make_field(5, 1)
    assert [x.val for x in elements(f5)] == list(range(5))

    f7 = make_field(7, 1)
    e2 = make_ext(f7, 2)
    union = [x.val for i in range(4) for x in elements(e2, (i, 4))]
    assert sorted(union) == list(range(49))
    assert len(set(union)) == 49

    two = [x.val for i in range(2) for x in elements(e2, (i, 2))]
    one = [x.val for x in elements(e2, (0, 1))]
    assert two == one


def test_dlog_small_field():
    f7 = make_field(7, 1)
    g = f7.generator
    assert dlog(FqElem(f7, 1), f7) == 0
    assert dlog(FqElem(f7, g), f7) == 1
    assert dlog(FqElem(f7, f7.pow_(g, 2)), f7) == 2
    for x in range(1, 7):
        assert f7.pow_(g, dlog(FqElem(f7, x), f7)) == x
    with pytest.raises(ZeroElement):
        dlog(FqElem(f7, 0), f7)


def test_dlog_cap():
    from charsums.errors import FieldTooLarge

    big = make_field(2, 23, seed=0)  # q = 2^23 exceeds the dlog cap
    with pytest.raises(FieldTooLarge):
        dlog(FqElem(big, 1), big)
    # with no Zech tables, k computes by the digit kernel of its extension
    ext, a, b = big._ext, 12345, 6789012
    assert big.mul(big.add(a, b), big.sub(a, b)) == ext.mul(ext.add(a, b), ext.sub(a, b))
    assert big.pow_(a, -3) == ext.pow_(a, -3) and big.mul(a, big.inv(a)) == 1
    prime = make_field(4194319, 1)  # the least prime above 2^22
    with pytest.raises(FieldTooLarge):
        dlog(FqElem(prime, 1), prime)


def test_ctx_mismatch_raised():
    f5 = make_field(5, 1)
    f7 = make_field(7, 1)
    with pytest.raises(CtxMismatch):
        FqElem(f5, 1) + FqElem(f7, 1)
    e2 = make_ext(f5, 2)
    with pytest.raises(CtxMismatch):
        trace(FqElem(f5, 1), e2)


@pytest.mark.parametrize(
    "build",
    [lambda: make_field(7, 1), lambda: make_field(3, 2), lambda: make_field(37, 2),
     lambda: make_ext(make_field(5, 1), 2)],
    ids=["F7", "F9", "F37^2", "F5^2-ext"],
)
def test_element_operators_are_the_context_operations(build):
    # -, unary -, /, ** and truth of FqElem on a prime k, a k with stored
    # tables, a k above TABLE_CAP and an extension context
    ctx = build()
    rng = random.Random(ctx.size)
    zero, one = FqElem(ctx, 0), FqElem(ctx, 1)
    for _ in range(20):
        a, b = rng.randrange(ctx.size), rng.randrange(1, ctx.size)
        x, y = FqElem(ctx, a), FqElem(ctx, b)
        assert (x - y).val == ctx.sub(a, b) and (x - y) + y == x
        assert (-x).val == ctx.neg(a) and -x + x == zero
        assert (x / y).val == ctx.mul(a, ctx.inv(b)) and x / y * y == x
        power = one
        for e in range(6):
            assert x**e == power and (x**e).val == ctx.pow_(a, e)
            power = power * x
        if a:
            assert x**-3 * x**3 == one and (x**-1).val == ctx.inv(a)
        assert bool(x) is (a != 0) and bool(y)
    assert not zero and one
    with pytest.raises(ZeroElement):
        one / zero
    with pytest.raises(ZeroElement):
        zero**-1


def test_flavors_agree_on_shared_sizes():
    # generic flavor (s=2, q>1024) against an independent table-flavor rerun
    f37 = make_field(37, 2, seed=0)
    assert _kops_flavor(f37) == "generic"
    ext = make_ext(f37, 1, seed=0)
    rng = random.Random(2)
    p, s, m = f37.p, f37.s, f37.modulus
    for _ in range(50):
        a, b = rng.randrange(f37.q), rng.randrange(f37.q)
        # independent oracle in plain ints: schoolbook product of the
        # coefficient vectors, reduced mod the monic modulus
        va = [a // p**i % p for i in range(s)]
        vb = [b // p**i % p for i in range(s)]
        t = [0] * (2 * s - 1)
        for i, x in enumerate(va):
            for j, y in enumerate(vb):
                t[i + j] += x * y
        for k in range(2 * s - 2, s - 1, -1):
            c, t[k] = t[k], 0
            for j in range(s):
                t[k - s + j] -= c * m[j]
        assert f37.mul(a, b) == sum(c % p * p**i for i, c in enumerate(t[:s]))
    # big prime field: modp flavor
    f = make_field(4099, 1, seed=0)
    assert _kops_flavor(f) == "modp"
    e = make_ext(f, 2, seed=0)
    x = FqElem(e, 12345)
    assert norm(x, e).val == e._kops.enorm(e.unpack(12345))


def test_both_contexts_answer_size_and_characteristic():
    for k in (make_field(7, 1), make_field(3, 2), make_field(2, 4, seed=1)):
        assert k.size == k.q
        for r in (1, 2, 3):
            ext = make_ext(k, r)
            assert ext.p == k.p and ext.size == k.q**r


def test_elem_helper():
    f7 = make_field(7, 1)
    assert elem(f7, -1).val == 6
    e2 = make_ext(f7, 2)
    assert elem(e2, (3, 2)).val == 3 + 2 * 7
    with pytest.raises(CtxMismatch):
        elem(e2, elem(f7, 1))


@pytest.mark.parametrize("build", [lambda: make_field(3, 2), lambda: make_ext(make_field(7, 1), 2)])
@pytest.mark.parametrize("shift", [-1, 0])
def test_elem_and_poly_make_state_one_element_rule(build, shift):
    # an integer names an element: reduced mod p on a prime field, a
    # packed value in [0, size) elsewhere, with the same error from both
    from charsums.polyring import Poly

    ctx = build()
    a = -1 if shift else ctx.size
    msg = re.escape(f"a = {a} is not in [0, {ctx.size})")
    with pytest.raises(ValueError, match=msg):
        elem(ctx, a)
    with pytest.raises(ValueError, match=msg):
        Poly.make(ctx, (1, a))
    f7 = make_field(7, 1)
    assert elem(f7, a).val == Poly.make(f7, (a, 1)).coeffs[0] == a % 7


def test_recipe_rebuild_identical():
    a = make_field(13, 1, seed=3)
    b = make_field(13, 1, seed=3)
    assert a == b and a.generator == b.generator
    ea = make_ext(a, 2, seed=5)
    eb = make_ext(b, 2, seed=5)
    assert ea == eb and ea.modulus_r == eb.modulus_r and ea.generator_r == eb.generator_r
    # one shared context per argument tuple, however the seed is passed
    assert a is b and make_field(13, 1, 3) is a and ea is eb and make_ext(a, 2, 5) is ea
    f9 = make_field(3, 2)
    assert make_field(3, 2, 0) is f9 and make_ext(f9, 3) is make_ext(f9, 3, seed=0)


def test_contexts_pickle_to_the_memoized_object():
    f9 = make_field(3, 2)
    for ctx in (make_field(13, 1, 3), f9, make_ext(f9, 2, 5), make_ext(make_field(7, 1), 1)):
        assert pickle.loads(pickle.dumps(ctx)) is ctx


def test_bad_constructor_arguments_raise_on_every_call():
    base = make_field(5, 1)
    for _ in range(2):
        with pytest.raises(NotPrime):
            make_field(4, 1)
        with pytest.raises(ValueError):
            make_ext(base, 0)


def _field_or_ext(p, s, r):
    base = make_field(p, s)
    return base if r is None else make_ext(base, r)


def _pinned_fields():
    # every field (seed 0) that the golden configs, the benchmark workloads
    # at seed 0 and the CI configs build: their rows and references hold
    # only while the seeded searches draw these moduli and generators
    path = Path(__file__).parent / "data" / "pinned_fields.json"
    for f in json.loads(path.read_text()):
        p, s, r = f["p"], f["s"], f["r"]
        build = partial(_field_or_ext, p, s, r)
        modulus = None if f["modulus"] is None else tuple(f["modulus"])
        name = f"F{p}" + (f"^{s}" if s > 1 else "") + ("" if r is None else f"-r{r}")
        yield pytest.param(build, modulus, f["generator"], id=name)


@pytest.mark.parametrize(
    "build, modulus, generator",
    [
        pytest.param(lambda: make_field(2, 4, seed=1), (1, 1, 1, 1, 1), 14, id="F16-seed1"),
        pytest.param(lambda: make_field(3, 2), (2, 1, 1), 8, id="F9"),
        pytest.param(lambda: make_field(7, 3), (6, 3, 6, 1), 133, id="F343"),
        pytest.param(lambda: make_ext(make_field(3, 2), 2), (2, 6, 1), 40, id="F81-over-F9"),
        pytest.param(
            lambda: make_ext(make_field(7, 1), 3, seed=1), (1, 0, 1, 1), 314, id="F343-over-F7-seed1"
        ),
        *_pinned_fields(),
    ],
)
def test_moduli_and_generators_are_pinned(build, modulus, generator):
    # the seeded searches must keep drawing the same modulus and generator
    ctx = build()
    if hasattr(ctx, "modulus_r"):
        assert (ctx.modulus_r, ctx.generator_r) == (modulus, generator)
    else:
        assert (ctx.modulus, ctx.generator) == (modulus, generator)


def _full_power_generator(rng, ctx, size):
    # the plain rule: one power g^((size - 1)/ell) in ctx for every prime ell
    primes = ff.factorize(size - 1)
    while True:
        g = rng.randrange(1, size)
        if all(ctx.pow_(g, (size - 1) // ell) != 1 for ell in primes):
            return g


@pytest.mark.parametrize(
    "p, s, r",
    [(2, 1, 3), (2, 1, 5), (2, 1, 7), (2, 1, 9), (2, 1, 11), (3, 1, 2), (3, 1, 3), (3, 1, 5),
     (3, 1, 7), (5, 1, 2), (5, 1, 3), (5, 1, 4), (5, 1, 6), (7, 1, 2), (7, 1, 3), (7, 1, 4),
     (13, 1, 2), (13, 1, 3), (3, 2, 3), (2, 2, 5), (31, 1, 3), (1031, 1, 2), (7, 1, None),
     (1031, 1, None)],
)
def test_unit_generator_by_the_norm_draws_what_full_powers_draw(p, s, r):
    # primes dividing q - 1 are tested on the norm in k, the others by
    # g^(M/ell) outside k: the same accepted draws, so the same generators
    ctx = _field_or_ext(p, s, r)
    for seed in range(5):
        want = _full_power_generator(random.Random(seed), ctx, ctx.size)
        assert ff._unit_generator(random.Random(seed), ctx, ctx.size) == want


@pytest.mark.parametrize("p, s, r", [(7, 1, 3), (3, 2, 2)])
def test_ext_pow_and_inv_agree_with_repeated_mul(p, s, r):
    # F_7^3 and F_9^2: digit-tuple powers against a product of e factors
    ext = make_ext(make_field(p, s, seed=0), r, seed=0)
    rng = random.Random(p * 10 + r)
    for _ in range(20):
        a = rng.randrange(1, ext.size)
        power = 1
        for e in range(1, 12):
            power = ext.mul(power, a)
            assert ext.pow_(a, e) == power
            assert ext.mul(ext.pow_(a, -e), power) == 1
        inv = ext.inv(a)
        assert ext.mul(a, inv) == 1 and ext.pow_(a, -1) == inv
        assert ext.pow_(a, 0) == 1 and ext.pow_(a, ext.size - 1) == 1
    with pytest.raises(ZeroElement):
        ext.inv(0)
    with pytest.raises(ZeroElement):
        ext.pow_(0, -2)


@pytest.mark.parametrize("p, s, r", [(13, 1, 3), (2, 2, 5), (3, 1, 6), (2, 1, 10), (1031, 1, 2)])
def test_normal_element_spans_k_r_with_its_conjugates(p, s, r):
    ext = make_ext(make_field(p, s, seed=0), r, seed=0)
    conj = [ext.normal_element]
    for _ in range(r - 1):
        conj.append(ext.frobenius(conj[-1]))
    assert rank_over(ext.base, [ext.unpack(c) for c in conj]) == r
    # the least such element: every smaller packed value fails the rank test
    for a in range(1, ext.normal_element):
        others = [a]
        for _ in range(r - 1):
            others.append(ext.frobenius(others[-1]))
        assert rank_over(ext.base, [ext.unpack(c) for c in others]) < r
    # rows[i][c] = c * alpha^(q^i)
    rows = ext._normal_rows
    q = ext.base.q
    assert len(rows) == r and all(len(row) == q for row in rows)
    for i, ci in enumerate(conj):
        for c in range(0, q, max(1, q // 50)):
            assert rows[i][c] == ext.unpack(ext.mul(ext.embed(c), ci))
    if ext.size <= 1 << 12:
        # independent of rank_over: the q^r normal coordinates give q^r elements
        def points(i):
            if i == r:
                yield 0
                return
            for rest in points(i + 1):
                for c in range(q):
                    yield ext.add(ext.pack(rows[i][c]), rest)

        assert len(set(points(0))) == ext.size


def test_normal_element_is_the_same_on_every_call_and_in_a_worker():
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a spawned worker imports charsums afresh and rebuilds the context
    ext = make_ext(make_field(7, 1), 5, seed=2)
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
        child = pool.submit(getattr, ext, "normal_element").result()
    assert child == ext.normal_element == ext.normal_element


def test_power_rejects_a_negative_exponent():
    mul = make_field(7, 1).mul
    for e in (-1, -2, -(1 << 40)):
        with pytest.raises(ValueError, match="e >= 0"):
            power(mul, 1, 3, e)
    assert power(mul, 1, 3, 0) == 1
    # negative exponents stay with the callers that invert first
    assert make_field(7, 1).pow_(3, -1) == 5


@pytest.mark.parametrize("ps", [(2, 2), (2, 3), (3, 2), (2, 6), (2, 10)])
def test_stored_table_pow_and_inv_equal_square_and_multiply(ps):
    # pow_ and inv of a composite k up to TABLE_CAP read k._ext's Zech
    # tables; the oracle is square-and-multiply over the stored tables,
    # inverting first when e < 0, on every element and -q-1 <= e <= q+1
    k = make_field(*ps)
    q = k.q
    assert q <= TABLE_CAP and isinstance(k._mul_tab, list)
    powers = [[power(k.mul, 1, a, e) for e in range(q + 2)] for a in range(q)]
    for a in range(q):
        assert [k.pow_(a, e) for e in range(q + 2)] == powers[a], a
        if a:
            inv = powers[a][q - 2]
            assert k.inv(a) == inv
            assert [k.pow_(a, -e) for e in range(1, q + 2)] == powers[inv][1:], a
    assert k._ops is k._ext and "_zech" in vars(k._ext)
    with pytest.raises(ZeroElement):
        k.inv(0)
    with pytest.raises(ZeroElement):
        k.pow_(0, -1)


# the base field's add/mul/neg tables: stored lists up to TABLE_CAP,
# computed on lookup above it, and none at all for a large prime field
F37_2 = (37, 2)
F2_11 = (2, 11)
F3_7 = (3, 7)


def _digit_twin(ext):
    # the same field as a context without Zech tables, which therefore
    # computes by the digit kernel (contexts compare by content)
    twin = dataclasses.replace(ext)
    assert twin == ext and "_logs" not in vars(twin)
    return twin


@pytest.mark.parametrize("ps", [F37_2, F2_11, F3_7])
def test_computed_tables_equal_the_extension_ops(ps):
    # a composite k above TABLE_CAP computes as its extension of F_p, on
    # that extension's Zech tables: every FieldCtx op and every computed
    # table entry against the digit kernel of the extension, on seeded
    # pairs with zeros, and powers from negative exponents to exponents
    # past q
    k = make_field(*ps)
    ext = _digit_twin(k._ext)
    assert k.q > TABLE_CAP
    assert k._ops is k._ext and "_zech" in vars(k._ext)
    rng = random.Random(11)
    pairs = [(0, 0), (0, 1), (1, 0), (k.q - 1, 0), (0, k.q - 1), (1, k.p - 1)]
    pairs += [(rng.randrange(k.q), rng.randrange(k.q)) for _ in range(200)]
    for a, b in pairs:
        assert k.add(a, b) == ext.add(a, b) == k._add_tab[a][b]
        assert k.sub(a, b) == ext.sub(a, b)
        assert k.neg(a) == ext.neg(a) == k._neg_tab[a]
        assert k.mul(a, b) == ext.mul(a, b) == k._mul_tab[a][b]
        for e in (0, 1, 2, -1, -2, k.q - 1, rng.randrange(-3 * k.q, 3 * k.q)):
            if a or e >= 0:
                assert k.pow_(a, e) == ext.pow_(a, e)
            else:
                with pytest.raises(ZeroElement):
                    k.pow_(a, e)
        if a:
            assert k.inv(a) == ext.inv(a)
            assert k.mul(a, k.inv(a)) == 1
    with pytest.raises(ZeroElement):
        k.inv(0)
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    for u in (0, 1, rng.randrange(k.q)):
        assert k.axpy(u, xs, ys) == ext.axpy(u, xs, ys)
    assert "_logs" not in vars(ext)


# (p, s, r) whose every pair of elements is checked: F_2^6 and F_3^4 over
# F_p, F_4^3, F_7^2 and F_9^2, and at r = 1, where exp is the trace array,
# F_13 and F_64
ZECH_EVERY_PAIR = [(2, 1, 6), (3, 1, 4), (2, 2, 3), (7, 1, 2), (3, 2, 2), (13, 1, 1), (2, 6, 1)]


def _zech_agrees_with_the_digit_kernel(ext, pairs):
    # every ExtCtx operation on the tables against the digit kernel of a
    # twin without tables, zeros and negative exponents included
    ext._logs
    twin = _digit_twin(ext)
    units = ext.size - 1
    for a, b in pairs:
        for op in ("add", "sub", "mul"):
            assert getattr(ext, op)(a, b) == getattr(twin, op)(a, b), (op, a, b)
    for a in sorted({a for pair in pairs for a in pair}):
        for op in ("neg", "frobenius", "trace_to_base", "norm_to_base"):
            assert getattr(ext, op)(a) == getattr(twin, op)(a), (op, a)
        for e in (0, 1, 2, ext.base.q, units, units + 1, -1, -2, -units - 3):
            if a or e >= 0:
                assert ext.pow_(a, e) == twin.pow_(a, e), (a, e)
        if a:
            assert ext.inv(a) == twin.inv(a)
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]
    for u in (0, 1, ext.generator_r, units):
        assert ext.axpy(u, xs, ys) == twin.axpy(u, xs, ys)
    for path in (ext, twin):
        with pytest.raises(ZeroElement):
            path.inv(0)
        with pytest.raises(ZeroElement):
            path.pow_(0, -1)
        assert path.pow_(0, 0) == 1 and path.pow_(0, 3) == 0
    # ext ran every operation on its tables, and the twin none
    assert "_zech" in vars(ext) and all(vars(ext)[name] is ext._zech[name] for name in ff.ZECH_OPS)
    assert "_logs" not in vars(twin)


@pytest.mark.parametrize("p, s, r", ZECH_EVERY_PAIR)
def test_zech_arithmetic_equals_the_digit_kernel_on_every_pair(p, s, r):
    ext = make_ext(make_field(p, s), r)
    _zech_agrees_with_the_digit_kernel(ext, list(itertools.product(range(ext.size), repeat=2)))


@pytest.mark.parametrize(
    "build", [lambda: make_ext(make_field(13, 1), 3), lambda: make_field(*F37_2)._ext, lambda: make_field(*F2_11)._ext],
    ids=["F_13^3", "F_37^2._ext", "F_2^11._ext"],
)
def test_zech_arithmetic_equals_the_digit_kernel_on_sampled_pairs(build):
    ext = build()
    rng = random.Random(ext.size)
    edge = [0, 1, ext.p - 1, ext.generator_r, ext.size - 1]
    pairs = list(itertools.product(edge, repeat=2))
    pairs += [(rng.randrange(ext.size), rng.randrange(ext.size)) for _ in range(300)]
    _zech_agrees_with_the_digit_kernel(ext, pairs)


def test_zech_norm_checks_that_it_lands_in_k():
    # the norm read off the tables keeps the digit kernel's check that
    # x^M lies in k: an exp array whose every power is outside k trips it
    twin = _digit_twin(make_ext(make_field(7, 1), 2))
    twin._logs
    vars(twin)["_exp"] = array("i", [twin.size - 1]) * (twin.size - 1)
    with pytest.raises(AssertionError):
        twin.norm_to_base(3)


def test_a_context_gives_the_same_values_before_and_after_its_tables():
    ext = make_ext(make_field(5, 1), 3, seed=47)  # a context no other test uses
    assert "_logs" not in vars(ext)
    rng = random.Random(3)
    pairs = [(0, 0), (0, 7), (7, 0)] + [(rng.randrange(ext.size), rng.randrange(ext.size)) for _ in range(60)]
    xs, ys = [a for a, _ in pairs], [b for _, b in pairs]

    def values():
        out = [(ext.add(a, b), ext.sub(a, b), ext.mul(a, b), ext.neg(a), ext.frobenius(a),
                ext.trace_to_base(a), ext.norm_to_base(a), ext.pow_(a, 5)) for a, b in pairs]
        out.append([ext.inv(a) for a in xs if a] + [ext.pow_(a, -2) for a in xs if a])
        return out + [ext.axpy(u, xs, ys) for u in (0, 1, 2)]

    before = values()
    assert "_logs" not in vars(ext)  # the digit kernel alone
    ext._logs
    # the walks build no exp array: that waits for the first table operation
    assert "_exp" not in vars(ext) and "_zech" not in vars(ext)
    assert values() == before
    assert "_exp" in vars(ext) and "_zech" in vars(ext)


@pytest.mark.parametrize("ps", [F37_2, F2_11, (1031, 1)])
def test_no_table_is_stored_above_the_cap(ps):
    k = make_field(*ps)
    assert k.q > TABLE_CAP
    ext = make_ext(k, 2)
    ko = ext._kops  # the kernel has read every table it uses
    x = ext.unpack(ext.generator_r)
    assert ko.epow(x, ext.size - 1) == ko.one
    assert k.mul(7, k.add(3, 5)) == k.sub(k.mul(7, 3), k.neg(k.mul(7, 5)))
    for tab in (k._add_tab, k._mul_tab, k._neg_tab):
        assert not isinstance(tab, list)
        assert (tab is None) == (k.s == 1)


@pytest.mark.parametrize("ps", [(3, 2), (2, 6), (2, 10)])
def test_stored_neg_table_equals_the_extension_neg(ps):
    k = make_field(*ps)
    assert k.q <= TABLE_CAP and isinstance(k._neg_tab, list)
    assert k._neg_tab == [k._ext.neg(a) for a in range(k.q)]


@pytest.mark.parametrize("ps", [(7, 1), (3, 2), (2, 6), (2, 7), (3, 4), (5, 3), (11, 2)])
def test_stored_tables_equal_the_kernel_built_tables(ps):
    # the oracle: one kernel product or sum per entry, on the digit tuples
    # of the degree-s extension of F_p (plain ints mod p for a prime field)
    k = make_field(*ps)
    if k.s == 1:
        p = k.p
        mul = [[a * b % p for b in range(p)] for a in range(p)]
        add = [[(a + b) % p for b in range(p)] for a in range(p)]
        walk = [1]
        for _ in range(p - 2):
            walk.append(walk[-1] * k.generator % p)
    else:
        ext, ko = k._ext, k._ext._kops
        vecs = [ext.unpack(a) for a in range(k.q)]
        mul = [[ext.pack(ko.emul(va, vb)) for vb in vecs] for va in vecs]
        add = [[ext.pack(ko.eadd(va, vb)) for vb in vecs] for va in vecs]
        walk = [ext.pow_(k.generator, i) for i in range(k.q - 1)]
    assert k._mul_tab == mul
    assert k._add_tab == add
    log = k._log
    assert log[0] == -1 and all(log[x] == i for i, x in enumerate(walk))


@pytest.mark.parametrize("ps", [(2, 1), (7, 1), (1031, 1), (65537, 1), (3, 2), (2, 6), (37, 2), (2, 11)])
def test_k_logs_are_the_log_array_of_its_own_zech_tables(ps):
    # k's discrete logs are one array, the `log` of F_p at r = 1 or of
    # F_{p^s} as its extension of F_p; a walk of the generator by plain
    # products (FieldCtx.mul mod p, or the extension's digit kernel, which
    # reads only F_p's tables) meets every unit at its log
    k = make_field(*ps)
    owner = k._ext if k.s > 1 else make_ext(k, 1)
    assert k._log is owner._logs.log is make_ext(k, 1)._logs.log
    assert vars(k)["_log"] is k._log  # kept on k: a read looks up no context
    mul = k.mul if k.s == 1 else _digit_twin(k._ext).mul
    log, x = k._log, 1
    assert log[0] == -1
    for i in range(k.q - 1):
        assert log[x] == i
        x = mul(x, k.generator)
    assert x == 1


@pytest.mark.parametrize("ps", [(3, 2), (2, 6), (11, 2), (2, 11)])
def test_r1_tables_of_a_composite_k_are_k_own_and_equal_the_slot_walk(ps):
    # k at r = 1 shares log and zech with k's own tables and inverts log
    # for its trace; the slot walk over k at r = 1 is the oracle
    k = make_field(*ps)
    ext = make_ext(k, 1)
    tabs, own = ext._logs, k._ext._logs
    assert tabs.log is own.log and tabs.zech is own.zech
    assert ext.pow_(ext.generator_r, tabs.log[k.p - 1]) == ext.neg(1)
    log, trace = array("i", [-1]) * k.q, array("i", [0]) * (k.q - 1)
    assert _slot_walk(ext, log, trace) == 1
    assert log == tabs.log and trace == tabs.trace


def _slot_walk_tables(ext):
    # log and trace by the slot walk, and zech from log: 1 + x raises the
    # lowest base-p digit of the packed value x by one mod p
    p, size = ext.p, ext.size
    log, trace = array("i", [-1]) * size, array("i", [0]) * (size - 1)
    assert _slot_walk(ext, log, trace) == 1
    zech = array("i", [0]) * (size - 1)
    for v in range(1, size):
        zech[log[v]] = log[v + 1 if v % p != p - 1 else v - (p - 1)]
    return log, trace, zech


@pytest.mark.parametrize(
    "pr",
    [(13, 1, 4), (3, 2, 4), (31, 1, 3), (2, 1, 13), (2, 2, 6), (7, 1, 4), (13, 1, 3), (31, 1, 2), (2, 1, 11),
     (3, 2, 3)],
)
def test_block_walk_tables_equal_the_slot_walk(pr):
    # every table of at least BLOCK_FLOOR elements is built a block of
    # exponents at a time: the same arrays as the slot walk's, from fields
    # of one block (F_31^2, F_9^3) and of two (F_7^4, F_13^3) up
    ext = make_ext(make_field(*pr[:2]), pr[2])
    assert ext.size >= ff.BLOCK_FLOOR
    tabs = ff._log_tables(ext)
    assert (tabs.log, tabs.trace, tabs.zech) == _slot_walk_tables(ext)
    assert ext.pow_(ext.generator_r, tabs.log[ext.p - 1]) == ext.neg(1)


@pytest.mark.parametrize("pr", [(5, 1, 4), (2, 1, 9)])
def test_block_walk_fits_its_lanes_to_the_field(pr, monkeypatch):
    # a block has the least power of two >= q^r lanes: F_5^4 (625 elements)
    # is one block of 1024 lanes and F_2^9 one of 512.  The multipliers are
    # then gamma^w for the doublings w < lanes and gamma for the check of
    # the first block, and no gamma^lanes: no block follows
    ext = make_ext(make_field(*pr[:2]), pr[2])
    lanes = 1 << (ext.size - 1).bit_length()
    assert ff.BLOCK_FLOOR <= ext.size <= lanes <= ff.BLOCK
    digit_rows, seen = ff._digit_rows, []

    def recorded(ext, c):
        seen.append(c)
        return digit_rows(ext, c)

    monkeypatch.setattr(ff, "_digit_rows", recorded)
    tabs = ff._log_tables(ext)
    g = ext.generator_r
    assert seen == [ext.pow_(g, 1 << i) for i in range(lanes.bit_length() - 1)] + [g]
    assert (tabs.log, tabs.trace, tabs.zech) == _slot_walk_tables(ext)


@pytest.mark.parametrize("pr", [(7, 1, 4), (5, 1, 3)])
def test_block_walk_joins_blocks_on_small_fields(pr, monkeypatch):
    # 64 lanes a block: F_7^4 takes 38 blocks, F_5^3 two, the last partial
    monkeypatch.setattr(ff, "BLOCK", 64)
    monkeypatch.setattr(ff, "BLOCK_FLOOR", 0)
    ext = make_ext(make_field(*pr[:2]), pr[2])
    tabs = ff._log_tables(ext)
    assert (tabs.log, tabs.trace, tabs.zech) == _slot_walk_tables(ext)


def test_block_walk_never_returns_tables_from_a_wrong_multiplier(monkeypatch):
    # every change of one entry of one multiplier matrix, gamma^w for the
    # doublings (w < BLOCK) and the block joins (w = BLOCK), over F_5^3 in
    # blocks of 16: the build raises, or the walk never reads that entry and
    # the tables are right.  Some changes to the doublings give a wrong walk
    # that still ends at 1 and meets every unit once; the check of digit 0
    # of gamma times the first block finds those
    monkeypatch.setattr(ff, "BLOCK", 16)
    monkeypatch.setattr(ff, "BLOCK_FLOOR", 0)
    ext = make_ext(make_field(5, 1), 3)
    right = _slot_walk_tables(ext)
    digit_rows = ff._digit_rows
    raised = 0
    for w in (1, 2, 4, 8, 16):
        wrong = ext.pow_(ext.generator_r, w)
        for i, j, delta in itertools.product(range(3), range(3), range(1, 5)):
            def changed(ext, c):
                rows = digit_rows(ext, c)
                if c == wrong:
                    rows[i][j] = (rows[i][j] + delta) % ext.p
                return rows

            monkeypatch.setattr(ff, "_digit_rows", changed)
            try:
                tabs = ff._log_tables(ext)
            except RuntimeError:
                raised += 1
            else:
                assert (tabs.log, tabs.trace, tabs.zech) == right, (w, i, j, delta)
    assert raised == 152  # of 180: the other changes hit entries that only multiply zero digits


# (p, s, r): r = 1 and r > 1, p = 2, composite bases, r = 1 on the mod-p
# (F_1031) and generic (F_2048) flavours, and block-built tables (F_13^4,
# F_2^10 and F_4^5)
LOG_FIELDS = [(2, 1, 1), (7, 1, 1), (2, 1, 5), (13, 1, 3), (3, 2, 3), (2, 2, 3), (1031, 1, 1), (2, 11, 1),
              (13, 1, 4), (2, 1, 10), (2, 2, 5)]


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
def test_digit_rows_by_basis_steps_equal_the_extension_products(p, s, r):
    # column j of the matrix of c is c times the basis element of packed
    # value p^j: one ExtCtx.mul each, by the extension's digit kernel
    ext = make_ext(make_field(p, s), r)
    n = r * s
    rng = random.Random(5)
    for c in [0, 1, p - 1, ext.generator_r, ext.size - 1] + [rng.randrange(ext.size) for _ in range(8)]:
        cols = [ext.mul(c, p**j) for j in range(n)]
        assert ff._digit_rows(ext, c) == [[v // p**i % p for v in cols] for i in range(n)]


@pytest.mark.parametrize("p, s, r", LOG_FIELDS)
def test_log_tables_walk_the_unit_group(p, s, r):
    ext = make_ext(make_field(p, s), r)
    tabs = ext._logs
    units = ext.size - 1
    # log is a bijection of k_r^* onto Z/N, and 0 has the sentinel
    assert tabs.log[0] == -1 and sorted(tabs.log[1:]) == list(range(units))
    assert len(tabs.zech) == len(tabs.trace) == units
    x, digit = 1, _digit_twin(ext)  # the digit kernel is the oracle
    for n in range(units):
        assert tabs.log[x] == n
        assert tabs.trace[n] == digit.trace_to_base(x)
        y = digit.add(1, x)
        assert tabs.zech[n] == (tabs.log[y] if y else -1)
        x = digit.mul(x, ext.generator_r)
    assert x == 1  # gamma^N returns to 1
    assert digit.pow_(ext.generator_r, tabs.log[ext.p - 1]) == digit.neg(1)


def test_log_tables_are_capped():
    from charsums.errors import FieldTooLarge
    from charsums.ffield import DLOG_CAP

    ext = make_ext(make_field(2, 1), 23)  # q^r = 2^23 exceeds the cap
    assert ext.size > DLOG_CAP
    with pytest.raises(FieldTooLarge):
        ext._logs


def _kernel_matches_polyring(k, r, samples):
    # products mod m_r, x^q by _powmod, and trace and norm as the sum and
    # product of the conjugates x, x^q, ..., x^(q^(r-1)), all in polyring
    from charsums.polyring import Poly, _powmod, divrem

    ext = make_ext(k, r)
    ko = ext._kops
    m = Poly(k, ext.modulus_r)

    def digits(f):
        return tuple(f.coeff(i) for i in range(r))

    rng = random.Random(3)
    for _ in range(samples):
        a = tuple(rng.randrange(k.q) for _ in range(r))
        b = tuple(rng.randrange(k.q) for _ in range(r))
        pa, pb = Poly(k, a), Poly(k, b)
        assert ko.emul(a, b) == digits(divrem(pa * pb, m)[1])
        assert ko.esub(a, b) == digits(pa - pb)
        conj = [pa]
        for _ in range(r):
            conj.append(_powmod(conj[-1], k.q, m))
        assert ko.efrob(a) == digits(conj[1])
        assert digits(conj.pop()) == a  # x^(q^r) = x; the r conjugates remain
        in_k = (0,) * (r - 1)
        assert digits(reduce(operator.add, conj)) == (ko.etr(a),) + in_k
        assert digits(reduce(lambda f, g: divrem(f * g, m)[1], conj)) == (ko.enorm(a),) + in_k


def test_kernel_over_computed_tables_matches_polyring():
    k = make_field(*F37_2)
    assert _kops_flavor(k) == "generic"
    _kernel_matches_polyring(k, 2, 50)


@pytest.mark.parametrize(
    "p, s, r, flavor",
    [
        (13, 1, 3, "table"),
        (3, 2, 3, "table"),
        (2, 2, 3, "table"),
        (5, 1, 5, "table"),
        (7, 1, 1, "table"),
        (2, 1, 10, "table"),
        (1031, 1, 2, "modp"),
    ],
)
def test_both_kernel_bodies_match_polyring(p, s, r, flavor):
    # the table body and the mod-p body (F_1031^2), each with its own
    # efrob and etr.  The table body skips the zero entries of its rows:
    # F_9^3 has trace functional (0, 8, 0), F_5^5 (0, 4, 2, 3, 0), 69 of
    # the 100 Frobenius entries of F_2^10 are 0, F_4^3 has a composite
    # base at p = 2, and at r = 1 (F_7) the Frobenius is the identity
    k = make_field(p, s)
    assert _kops_flavor(k) == flavor
    _kernel_matches_polyring(k, r, 200)


def _foreign_and_out_of_range_rows():
    from charsums.charsum import AdditiveChar, MultChar, fiber_sum_additive
    from charsums.polyring import Poly, shift

    f7, f13, f9 = make_field(7, 1), make_field(13, 1), make_field(3, 2)
    e72 = make_ext(f7, 2)
    g7, g9 = Poly.make(f7, (1, 2, 1)), Poly.make(f9, (1, 2, 1))
    psi7, chi7 = AdditiveChar.canonical(f7), MultChar.quadratic(f7)
    rows = {
        "psi foreign": (lambda: psi7.value(FqElem(f13, 3)), CtxMismatch),
        "psi out of range": (lambda: AdditiveChar.canonical(f9).value(20), ValueError),
        "chi foreign": (lambda: chi7.value(FqElem(f13, 3)), CtxMismatch),
        "chi out of range": (lambda: MultChar.quadratic(f9).value(9), ValueError),
        "fiber mu foreign": (lambda: fiber_sum_additive(g7, psi7, e72, FqElem(f13, 12)), CtxMismatch),
        "monomial foreign": (lambda: Poly.monomial(f7, FqElem(f13, 3), 2), CtxMismatch),
        "monomial out of range": (lambda: Poly.monomial(f9, 20, 2), ValueError),
        "scale foreign": (lambda: g7.scale(FqElem(f13, 3)), CtxMismatch),
        "scale out of range": (lambda: g9.scale(20), ValueError),
        "shift foreign": (lambda: shift(g7, FqElem(f13, 3)), CtxMismatch),
        "shift out of range": (lambda: shift(g9, 20), ValueError),
        "elem too many digits": (lambda: elem(f9, [1, 1, 1]), ValueError),
        "elem digit outside k": (lambda: elem(make_ext(f9, 2), [9, 0]), ValueError),
        "elem digit mod p": (lambda: elem(e72, [20, 3]).val, 6 + 3 * 7),
    }
    return [pytest.param(call, want, id=name.replace(" ", "_")) for name, (call, want) in rows.items()]


@pytest.mark.parametrize("call, want", _foreign_and_out_of_range_rows())
def test_foreign_or_out_of_range_elements_are_refused(call, want):
    # every entry point reads "an FqElem or an int" through elem: a foreign
    # element is a CtxMismatch, an int follows element_value, and a digit
    # vector is read digit by digit in its digit field
    if isinstance(want, int):
        assert call() == want
    else:
        with pytest.raises(want):
            call()
