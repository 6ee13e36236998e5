"""Bound constants, resultant sequence, main terms and hypothesis gates."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from charsums import make_ext, make_field
from charsums.boundbook import (
    all_power_roots_in_field,
    bound_constant_additive,
    bound_constant_multiplicative,
    homothety_bound,
    homothety_fiber_bound,
    hypothesis_gate,
    main_term_additive_sl,
    main_term_additive_sp,
    main_term_multiplicative,
    odd_shift_data,
    report_translation_additive,
    report_translation_multiplicative,
    report_weil_additive,
    report_weil_multiplicative,
    resultant_sequence,
    resultant_sequence_value_at_zero,
    weil_bound_additive,
    weil_bound_multiplicative,
)
from charsums.charsum import AdditiveChar, MultChar, gauss_sum
from charsums.errors import (
    DegenerateReduction,
    MthPower,
    NotExceptionalCell,
    RootsNotInBaseField,
    SequenceMismatch,
)
from charsums.localdata import compute_local_data
from charsums import boundbook
from charsums.polyring import Poly, evaluate, random_poly, roots_in

F5 = make_field(5, 1)
F7 = make_field(7, 1)
F13 = make_field(13, 1)


def test_weil_bound_formulas():
    assert weil_bound_additive(1, 7, 2) == 0.0
    assert weil_bound_additive(3, 7, 2) == pytest.approx(14.0)
    with pytest.raises(DegenerateReduction):
        weil_bound_additive(0, 7, 1)
    assert weil_bound_multiplicative(1, 7, 1) == 0.0
    assert weil_bound_multiplicative(2, 7, 1) == pytest.approx(math.sqrt(7))
    with pytest.raises(MthPower):
        weil_bound_multiplicative(2, 7, 1, is_mth_power=True)


def test_bound_constant_additive_frozen():
    assert bound_constant_additive(3, 2) == 2
    assert bound_constant_additive(2, 1) == 1
    assert bound_constant_additive(5, 4) == Fraction(130, 4)
    assert bound_constant_additive(4, 3) == 7
    for d in range(2, 9):
        prev = None
        for r in range(1, 9):
            c = bound_constant_additive(d, r)
            assert c >= 0
            if prev is not None:
                assert c >= prev  # empirical monotonicity on the desk grid
            prev = c


def test_bound_constant_multiplicative_frozen():
    # d=1, r=1: single surviving i=0 term equal to 1
    assert bound_constant_multiplicative(1, 1) == 1
    # d=2, r=2: i=0 gives 2, i=1 gives 0, i=2 gives C(1,0)C(2,2)-C(0,0)C(1,2) = 1
    assert bound_constant_multiplicative(2, 2) == 3
    assert bound_constant_multiplicative(3, 2) == 5
    assert bound_constant_multiplicative(3, 3) == 15
    for d in range(1, 9):
        for r in range(1, 9):
            assert bound_constant_multiplicative(d, r) >= 0


def test_resultant_sequence_base_cases():
    g = Poly.make(F13, (12, 0, 0, 1))
    assert resultant_sequence(g, 1) == g
    # g = x - c  ->  g_2 = x - 2c
    for c in range(13):
        lin = Poly.make(F13, (F13.neg(c), 1))
        g2 = resultant_sequence(lin, 2)
        assert g2.degree == 1
        assert sorted(r.val for r in roots_in(g2, F13)) == [(2 * c) % 13]


def test_resultant_sequence_root_sets():
    # roots of g_n are the n-fold sums of roots of g
    g = Poly.make(F13, (12, 0, 0, 1))  # roots 1, 3, 9
    g2 = resultant_sequence(g, 2)
    got = sorted(r.val for r in roots_in(g2, F13))
    expect = sorted({(a + b) % 13 for a in (1, 3, 9) for b in (1, 3, 9)})
    assert got == expect == [2, 4, 5, 6, 10, 12]

    # degree-2 splitting case, includes the extension-interpolation path (q=5)
    h = Poly.make(F5, (2, 2, 1))  # (x-1)(x-2) = x^2 - 3x + 2
    assert sorted(r.val for r in roots_in(h, F5)) == [1, 2]
    h2 = resultant_sequence(h, 2)
    got = sorted(r.val for r in roots_in(h2, F5))
    assert got == sorted({2, 3, 4})

    # three-fold sums
    h3 = resultant_sequence(h, 3)
    expect3 = sorted({(a + b + c) % 5 for a in (1, 2) for b in (1, 2) for c in (1, 2)})
    assert sorted(set(r.val for r in roots_in(h3, F5))) == expect3

    # degree 4 with distinct roots; interpolation goes through an extension
    roots4 = (1, 2, 5, 11)
    g4 = Poly.make(F13, (1,))
    for rt in roots4:
        g4 = g4 * Poly.make(F13, (F13.neg(rt), 1))
    g4_2 = resultant_sequence(g4, 2)
    assert g4_2.degree == 16
    got = sorted(set(r.val for r in roots_in(g4_2, F13)))
    expect = sorted({(a + b) % 13 for a in roots4 for b in roots4})
    assert got == expect


def test_resultant_sequence_value_at_zero_consistent():
    rng = random.Random(5)
    for _ in range(20):
        g = random_poly(F7, rng.randrange(1, 4), rng)
        for n in (1, 2, 3):
            gn = resultant_sequence(g, n)
            v = resultant_sequence_value_at_zero(g, n)
            assert v == evaluate(gn, __import__("charsums").FqElem(F7, 0)).val


def _tuple_sum_product(ctx, roots, n, lead=1):
    """lead * prod over ordered n-tuples of roots of (x - sum), over k."""
    out = Poly.make(ctx, (lead,))
    for tup in itertools.product(roots, repeat=n):
        out = out * Poly.make(ctx, (ctx.neg(sum(tup) % ctx.p), 1))
    return out


@pytest.mark.parametrize(
    "ctx, roots, n",
    [
        (F5, (0, 1, 3), 3),  # auxiliary extensions F_25, F_125 and their orbits
        (F7, (1, 2, 4), 3),  # F_49, F_343
        (F13, (1, 3, 9, 11), 2),  # deg 16 > 13: F_169
        (F13, (2, 5, 7), 2),  # deg 9 < 13: the base field, one point per resultant
    ],
)
def test_resultant_sequence_exact_product_over_tuples(ctx, roots, n):
    # exact oracle: coefficients, constants and multiplicities, not root sets
    g = _tuple_sum_product(ctx, roots, 1)
    assert resultant_sequence(g, n).coeffs == _tuple_sum_product(ctx, roots, n).coeffs


def test_resultant_sequence_leading_coefficient_non_monic():
    # g = c * prod (x - a) gives g_n = c^(n d^(n-1)) * prod over n-tuples
    roots, c = (1, 2, 6), 3
    for n in (2, 3):
        g = _tuple_sum_product(F7, roots, 1, lead=c)
        lead = F7.pow_(c, n * len(roots) ** (n - 1))
        assert resultant_sequence(g, n) == _tuple_sum_product(F7, roots, n, lead=lead)


def test_sequence_step_one_resultant_per_frobenius_orbit(monkeypatch):
    real_resultant, real_interpolate = boundbook.resultant, boundbook.interpolate
    calls, used = [], []

    def counting_resultant(f, h):
        calls.append(f.ctx)
        return real_resultant(f, h)

    def recording_interpolate(fld, pts, vals):
        used.append((fld, list(pts)))
        return real_interpolate(fld, pts, vals)

    monkeypatch.setattr(boundbook, "resultant", counting_resultant)
    monkeypatch.setattr(boundbook, "interpolate", recording_interpolate)
    g = Poly.make(F7, (3, 0, 5, 1))
    g3 = resultant_sequence(g, 3)
    assert g3.degree == 27 and len(used) == 2
    orbits = 0
    for fld, pts in used:
        assert fld.r >= 2 and len(pts) == len(set(pts))
        reps = set()
        for x in pts:
            orbit = {x}
            while (x := fld.frobenius(x)) not in orbit:
                orbit.add(x)
            reps.add(min(orbit))
        orbits += len(reps)
        assert len(reps) < len(pts)
    assert len(calls) == orbits


def test_sequence_step_walks_orbits_outside_k_first(monkeypatch):
    # a quintic over F_7: the step from g_2 (degree 25) to g_3 (degree 125)
    # interpolates on F_343, where the 126 points outside F_7 form 42 orbits
    # of size 3; walking the 7 size-1 orbits of F_7 first would cost 47
    g = Poly.make(F7, (2, 1, 3, 0, 0, 1))
    g2 = resultant_sequence(g, 2)
    real_resultant = boundbook.resultant
    calls = []

    def counting_resultant(f, h):
        calls.append(f.ctx)
        return real_resultant(f, h)

    monkeypatch.setattr(boundbook, "resultant", counting_resultant)
    g3 = boundbook._sequence_step(g2, g)
    assert g3.degree == 125 and g3.ctx is F7
    assert len(calls) == 42 and all(fld.size == 343 for fld in calls)


def test_sequence_step_rejects_wrong_degree_or_leading_coefficient(monkeypatch):
    real_interpolate = boundbook.interpolate
    g = Poly.make(F7, (3, 0, 5, 1))
    good = resultant_sequence(g, 2)

    def drop_top(fld, pts, vals):
        f = real_interpolate(fld, pts, vals)
        return Poly(fld, f.coeffs[:-1])

    def double_top(fld, pts, vals):
        f = real_interpolate(fld, pts, vals)
        return Poly(fld, f.coeffs[:-1] + (fld.add(f.lead, f.lead),))

    for bad in (drop_top, double_top):
        monkeypatch.setattr(boundbook, "interpolate", bad)
        with pytest.raises(SequenceMismatch):
            resultant_sequence(g, 2)
    monkeypatch.setattr(boundbook, "interpolate", real_interpolate)
    assert resultant_sequence(g, 2) == good


def test_main_term_magnitudes():
    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    # SL: |main| = q^((d+1)/2)
    g = Poly.make(F13, (0, 1, 0, 0, 3))  # 3x^4 + x
    local = compute_local_data(g)
    main = main_term_additive_sl(g, local, psi, rho)
    assert abs(main) == pytest.approx(13 ** 2.5, rel=1e-9)
    # Sp: |main| = q^(r/2+1)
    sp = main_term_additive_sp(0, psi, 13, 2)
    assert sp == pytest.approx(169.0)
    assert main_term_additive_sp(0, AdditiveChar.canonical(F7), 7, 2) == pytest.approx(49.0)
    with pytest.raises(NotExceptionalCell):
        main_term_additive_sp(0, psi, 13, 3)
    # mult: |main| = q^(d/2+1)
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    m3 = main_term_multiplicative(g3, chi3, psi, 13, 3)
    assert abs(m3) == pytest.approx(13 ** 2.5, rel=1e-9)


def test_sl_main_term_valid_for_every_root_branch():
    # branch choice may alter the local data, but each branch-computed main
    # term must satisfy the strict exceptional inequality
    from charsums import make_ext
    from charsums.charsum import sum_additive
    from charsums.localdata import root_branches

    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    e3 = make_ext(F13, 3)
    bound = float(bound_constant_additive(4, 3)) * 13**2
    rng = random.Random(11)
    tested = 0
    for _ in range(12):
        coeffs = [rng.randrange(13), rng.randrange(13), rng.randrange(13), 0, rng.randrange(1, 13)]
        g = Poly.make(F13, coeffs)
        branches = root_branches(g)
        if len(branches) < 2:
            continue
        S3 = sum_additive(g, psi, e3, inner=("frobsub",))
        for br in branches:
            local = compute_local_data(g, branch=br)
            main = main_term_additive_sl(g, local, psi, rho)
            assert abs(S3 - main) < bound
        tested += 1
    assert tested >= 3


def test_sl_main_term_sign_pinned_by_inequality():
    # of the two candidate signs, only (-1)^(d-1) survives the strict bound
    # on every instance; the flipped sign must break it somewhere
    from charsums import make_ext
    from charsums.charsum import sum_additive

    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    e3 = make_ext(F13, 3)
    bound = float(bound_constant_additive(4, 3)) * 13**2
    rng = random.Random(99)
    flipped_failures = 0
    tested = 0
    while tested < 8:
        coeffs = [rng.randrange(13) for _ in range(3)] + [0, rng.randrange(1, 13)]
        g = Poly.make(F13, coeffs)
        try:
            local = compute_local_data(g)
        except Exception:
            continue
        main = main_term_additive_sl(g, local, psi, rho)
        S3 = sum_additive(g, psi, e3, inner=("frobsub",))
        assert abs(S3 - main) < bound
        if abs(S3 + main) >= bound:
            flipped_failures += 1
        tested += 1
    assert flipped_failures > 0


def test_main_term_mult_beta_example():
    # g = x^3 - 1 over F_13: disc = 12, (-1)^3 a_3^-1 disc = 1, beta = G^3
    psi = AdditiveChar.canonical(F13)
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    G = gauss_sum(chi3, psi)
    main = main_term_multiplicative(g3, chi3, psi, 13, 3)
    assert main == pytest.approx(-13 * G**3, rel=1e-12)


def test_main_term_mult_gates():
    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    with pytest.raises(NotExceptionalCell):
        main_term_multiplicative(g3, rho, psi, 13, 3)  # chi^3 nontrivial
    chi3 = MultChar.of_order(F13, 3)
    g_nosplit = Poly.make(F13, (2, 0, 0, 1))  # x^3 + 2: 11 is not a cube value...
    if not roots_in(g_nosplit, F13) or len(roots_in(g_nosplit, F13)) < 3:
        with pytest.raises((RootsNotInBaseField, NotExceptionalCell)):
            main_term_multiplicative(g_nosplit, chi3, psi, 13, 3)


def test_odd_shift_detection():
    # x^3 + x is already odd
    ok, c, beta = odd_shift_data(Poly.make(F7, (0, 1, 0, 1)))
    assert ok and c == 0 and beta == 0
    # x^3 + x^2: shift by c = -1/3... check detection runs and is consistent
    ok2, c2, beta2 = odd_shift_data(Poly.make(F7, (0, 0, 1, 1)))
    from charsums.polyring import shift

    if ok2:
        h = shift(Poly.make(F7, (0, 0, 1, 1)), c2)
        assert all(h.coeff(i) == 0 for i in range(2, 3, 2))
    # even degree never works
    ok3, _, _ = odd_shift_data(Poly.make(F13, (1, 2, 3, 0, 1)))
    assert not ok3
    # x^3 + 5: beta = -5
    ok4, c4, beta4 = odd_shift_data(Poly.make(F7, (5, 0, 0, 1)))
    assert ok4 and c4 == 0 and beta4 == F7.neg(5)


def test_all_power_roots_in_field():
    # z^4 = 1 over F_13: gcd(4,12)=4 solutions, all present
    assert all_power_roots_in_field(F13, 4, 1)
    # z^8 = 1 over F_13: only gcd(8,12)=4 solutions
    assert not all_power_roots_in_field(F13, 8, 1)
    assert not all_power_roots_in_field(F13, 4, 0)
    # z^4 = w for w not a 4th power
    fourths = {F13.pow_(z, 4) for z in range(1, 13)}
    w = next(v for v in range(1, 13) if v not in fourths)
    assert not all_power_roots_in_field(F13, 4, w)


def test_translation_additive_report_branches():
    psi = AdditiveChar.canonical(F13)
    # cubic is always odd-able: Sp branch
    g = Poly.make(F13, (1, 2, 5, 1))
    rep = report_translation_additive(g, psi, r=1)
    assert rep.kind == "TransAddSp" and rep.main_term is None
    # exceptional Sp cell
    godd = Poly.make(F13, (3, 1, 0, 1))
    rep2 = report_translation_additive(godd, psi, r=2)
    assert rep2.kind == "TransAddSpExc" and rep2.strict and rep2.applicable
    assert rep2.main_term == pytest.approx(psi.value(F13.neg(F13.neg(3))) ** 2 * 13**2)
    # d=4: SL branch, exceptional at r=3
    g4 = Poly.make(F13, (0, 1, 0, 0, 3))
    rep3 = report_translation_additive(g4, psi, r=3)
    assert rep3.kind == "TransAddExc" and rep3.applicable and rep3.main_term is not None
    rep4 = report_translation_additive(g4, psi, r=2)
    assert rep4.kind == "TransAdd" and rep4.main_term is None
    # p <= 2d-1 marks inapplicable
    g5 = Poly.make(F7, (1, 1, 0, 0, 1))
    rep5 = report_translation_additive(g5, AdditiveChar.canonical(F7), r=2)
    assert not rep5.applicable


def test_translation_multiplicative_report_gate():
    psi = AdditiveChar.canonical(F13)
    rho = MultChar.quadratic(F13)
    g = Poly.make(F13, (5, 1, 0, 1))  # cubic, a_2 = 0
    # m=2 does not divide r=3: gate passes without computing g_3
    rep = report_translation_multiplicative(g, rho, psi, r=3)
    assert rep.kind == "TransMult"
    gate = [h for h in rep.hypotheses if "g_r(0)" in h.name][0]
    assert gate.passed and "does not divide" in gate.detail
    # m=2 divides r=2: computes g_2(0)
    rep2 = report_translation_multiplicative(g, rho, psi, r=2)
    gate2 = [h for h in rep2.hypotheses if "g_r(0)" in h.name][0]
    assert "g_2(0)" in gate2.detail
    # exceptional: r=d=3, chi order 3, a_2 = 0, split roots
    chi3 = MultChar.of_order(F13, 3)
    g3 = Poly.make(F13, (12, 0, 0, 1))
    rep3 = report_translation_multiplicative(g3, chi3, psi, r=3)
    assert rep3.kind == "TransMultExc" and rep3.applicable and not rep3.strict
    assert rep3.main_term is not None


def test_homothety_bounds():
    assert homothety_fiber_bound(2, 13, 2) == pytest.approx(4 * math.sqrt(13))
    assert homothety_bound(2, 13, 2) == pytest.approx(2 * 2 * 12 * math.sqrt(13))
    assert homothety_fiber_bound(1, 13, 1) == 1.0


def test_report_json_roundtrip():
    psi = AdditiveChar.canonical(F13)
    rep = report_translation_additive(Poly.make(F13, (3, 1, 0, 1)), psi, r=2)
    blob = json.dumps(rep.to_json())
    back = json.loads(blob)
    assert back["kind"] == "TransAddSpExc"
    assert back["applicable"] is True
    assert back["main_term_re"] == pytest.approx(rep.main_term.real)
    assert isinstance(back["hypotheses"], list) and back["hypotheses"][0]["name"]


def test_hypothesis_gate_dispatch():
    psi = AdditiveChar.canonical(F7)
    hyps = hypothesis_gate("TransAdd", g=Poly.make(F7, (1, 0, 1, 1)), psi=psi, r=2)
    assert any("p > d" in h.name for h in hyps)
    rep = report_weil_additive(3, 7, 2)
    assert rep.applicable and rep.bound == pytest.approx(14.0)
    rep2 = report_weil_multiplicative(2, 7, 1, is_mth_power=True)
    assert not rep2.applicable
