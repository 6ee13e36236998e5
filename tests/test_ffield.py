"""Field construction, trace/norm laws, enumeration and dlog."""

import pickle
import random
from collections import Counter

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
from charsums.ffield import _kops_flavor


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


def test_ctx_mismatch_raised():
    f5 = make_field(5, 1)
    f7 = make_field(7, 1)
    with pytest.raises(CtxMismatch):
        FqElem(f5, 1) + FqElem(f7, 1)
    e2 = make_ext(f5, 2)
    with pytest.raises(CtxMismatch):
        trace(FqElem(f5, 1), e2)


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


def test_elem_helper():
    f7 = make_field(7, 1)
    assert elem(f7, -1).val == 6
    e2 = make_ext(f7, 2)
    assert elem(e2, (3, 2)).val == 3 + 2 * 7
    with pytest.raises(CtxMismatch):
        elem(e2, elem(f7, 1))


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


@pytest.mark.parametrize(
    "build, modulus, generator",
    [
        (lambda: make_field(2, 4, seed=1), (1, 1, 1, 1, 1), 14),
        (lambda: make_field(3, 2), (2, 1, 1), 8),
        (lambda: make_field(7, 3), (6, 3, 6, 1), 133),
        (lambda: make_ext(make_field(3, 2), 2), (2, 6, 1), 40),
        (lambda: make_ext(make_field(7, 1), 3, seed=1), (1, 0, 1, 1), 314),
    ],
    ids=["F16-seed1", "F9", "F343", "F81-over-F9", "F343-over-F7-seed1"],
)
def test_moduli_and_generators_are_pinned(build, modulus, generator):
    # the seeded searches must keep drawing the same modulus and generator
    ctx = build()
    if hasattr(ctx, "modulus_r"):
        assert (ctx.modulus_r, ctx.generator_r) == (modulus, generator)
    else:
        assert (ctx.modulus, ctx.generator) == (modulus, generator)


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
