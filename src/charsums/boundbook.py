"""Bound constants, exceptional main terms and hypothesis gates.

Each theorem kind gets a report builder that evaluates every hypothesis
computationally and, in the exceptional parameter cells, computes the
explicit main term that must be subtracted before bounding the remainder.
Reports never enumerate field elements; the sums they are compared
against come from the oracles in `charsum`.

Kinds: WeilAdd, WeilMult, TransAdd, TransAddExc, TransAddSp,
TransAddSpExc, TransMult, TransMultExc, HomAdd, HomMult.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .charsum import AdditiveChar, MultChar, gauss_sum
from .errors import (
    DegenerateReduction,
    MthPower,
    NotExceptionalCell,
    RootsNotInBaseField,
    SequenceMismatch,
)
from .ffield import ExtCtx, FieldCtx, make_ext
from .localdata import LocalData, compute_local_data
from .polyring import (
    Parity,
    Poly,
    compose,
    discriminant,
    interpolate,
    is_squarefree,
    lift,
    parity_check,
    resultant,
    root_structure,
    shift,
)


def _comb(n: int, k: int) -> int:
    """Binomial with C(n, k) = 0 whenever k < 0, k > n or n < 0."""
    if k < 0 or n < 0 or k > n:
        return 0
    return math.comb(n, k)


# ---------------------------------------------------------------------------
# Weil baselines
# ---------------------------------------------------------------------------


def weil_bound_additive(d_prime: int, q: int, r: int) -> float:
    """(d'-1) q^(r/2) for an additive sum with reduced degree d' prime to p."""
    if d_prime == 0:
        raise DegenerateReduction(
            "reduced polynomial is constant: the sum equals q^r * psi(Tr c) exactly"
        )
    if d_prime < 0:
        raise ValueError("reduced degree must be >= 0")
    return (d_prime - 1) * q ** (r / 2)


def weil_bound_multiplicative(
    e_roots: int, q: int, r: int, *, is_mth_power: bool = False
) -> float:
    """(e-1) q^(r/2) where e counts distinct roots; invalid for m-th powers."""
    if is_mth_power:
        raise MthPower("the bound does not apply to c * h^m")
    if e_roots < 1:
        raise ValueError("need at least one distinct root")
    return (e_roots - 1) * q ** (r / 2)


# ---------------------------------------------------------------------------
# the improved constants
# ---------------------------------------------------------------------------


def bound_constant_additive(d: int, r: int) -> Fraction:
    """C_{d,r} = (1/(d-1)) sum_{i=0}^{d-1} |i-1| C(d-2+r-i, r-i) C(d-1, i)."""
    if d < 2 or r < 1:
        raise ValueError("need d >= 2 and r >= 1")
    total = 0
    for i in range(d):
        total += abs(i - 1) * _comb(d - 2 + r - i, r - i) * _comb(d - 1, i)
    return Fraction(total, d - 1)


def bound_constant_multiplicative(d: int, r: int) -> int:
    """sum_{i=0}^r |i-1| (C(d-1+r-i, r-i) C(d, i) - C(d-2+r-i, r-i) C(d-1, i))."""
    if d < 1 or r < 1:
        raise ValueError("need d >= 1 and r >= 1")
    total = 0
    for i in range(r + 1):
        term = _comb(d - 1 + r - i, r - i) * _comb(d, i) - _comb(d - 2 + r - i, r - i) * _comb(
            d - 1, i
        )
        total += abs(i - 1) * term
    return total


# ---------------------------------------------------------------------------
# the resultant sequence g_1 = g, g_{n+1}(x) = Res_t(g_n(t), g(x - t))
# ---------------------------------------------------------------------------


def _sequence_step(gn: Poly, g: Poly) -> Poly:
    ctx = gn.ctx
    target_deg = gn.degree * g.degree
    n_pts = target_deg + 1
    if ctx.q > target_deg:
        fld = ctx
        gn_l, g_l = gn, g
    else:
        r_star = 2
        while ctx.q**r_star <= target_deg:
            r_star += 1
        fld = make_ext(ctx, r_star, seed=1)
        gn_l, g_l = lift(gn, fld), lift(g, fld)
    minus_one = fld.neg(1)

    def value_at(x0: int) -> int:
        # g_{n+1}(x0) = Res_t(g_n(t), g(x0 - t))
        return resultant(gn_l, compose(g_l, Poly(fld, (x0, minus_one)))).val

    if fld is ctx:
        pts = list(range(n_pts))
        vals = [value_at(x0) for x0 in pts]
    else:
        # g_{n+1} has coefficients in k, so g_{n+1}(x0^q) = g_{n+1}(x0)^q:
        # one resultant gives the values on the whole Frobenius orbit of x0.
        # The q elements of k (packed values below q) are orbits of size 1,
        # so they come last.
        pts, vals, seen = [], [], set()
        for x0 in chain(range(ctx.q, fld.size), range(ctx.q)):
            if len(pts) >= n_pts:
                break
            if x0 not in seen:
                x, v = x0, value_at(x0)
                while x not in seen:
                    seen.add(x)
                    pts.append(x)
                    vals.append(v)
                    x, v = fld.frobenius(x), fld.frobenius(v)
        pts, vals = pts[:n_pts], vals[:n_pts]
    res = interpolate(fld, pts, vals)
    if fld is not ctx:
        out = []
        for c in res.coeffs:
            digits = fld.unpack(c)
            assert all(dd == 0 for dd in digits[1:]), "sequence coefficients must lie in k"
            out.append(digits[0])
        res = Poly(ctx, tuple(out))
    # Res_t(g_n(t), g(x - t)) = lc(g_n)^deg g lc(g)^deg g_n prod (x - a - b)
    lead = ctx.mul(ctx.pow_(gn.lead, g.degree), ctx.pow_(g.lead, gn.degree))
    if res.degree != target_deg or res.coeff(target_deg) != lead:
        raise SequenceMismatch(
            f"interpolated sequence term has degree {res.degree} and leading "
            f"coefficient {res.coeff(res.degree)}; expected {target_deg} and {lead}"
        )
    return res


def resultant_sequence(g: Poly, n: int) -> Poly:
    """g_n with roots the n-fold sums of the roots of g."""
    if n < 1:
        raise ValueError("sequence index starts at 1")
    if g.is_zero:
        raise ValueError("sequence of the zero polynomial")
    cur = g
    for _ in range(n - 1):
        cur = _sequence_step(cur, g)
    return cur


def resultant_sequence_value_at_zero(g: Poly, n: int) -> int:
    """g_n(0) = Res_t(g_a(t), g_b(-t)) with a = floor(n/2), b = n - a.

    g_{a+b}(x) = Res_t(g_a(t), g_b(x - t)) for every a + b = n: both sides
    have the (a+b)-fold root sums and leading coefficient lc(g)^(n d^(n-1)).
    So the sequence is built only up to g_b, of degree d^ceil(n/2).
    """
    if n == 1:
        return g.coeff(0)
    a = n // 2
    ga = resultant_sequence(g, a)
    gb = ga if 2 * a == n else _sequence_step(ga, g)
    lin = Poly.make(g.ctx, (0, g.ctx.neg(1)))  # -t
    return resultant(ga, compose(gb, lin)).val


# ---------------------------------------------------------------------------
# exceptional main terms
# ---------------------------------------------------------------------------


def main_term_additive_sl(
    g: Poly, local: LocalData, psi: AdditiveChar, rho: MultChar
) -> complex:
    """(-1)^(d-1) q rho^d(-1) (psi(b_0) rho(d(d-1)a_d/2) g(rho,psi))^(d-1)."""
    ctx = g.ctx
    d = g.degree
    q = ctx.q
    if rho.order != 2:
        raise ValueError("rho must be the quadratic character")
    half = ctx.inv(2 % ctx.p)
    c_elem = ctx.mul(ctx.mul((d * (d - 1)) % ctx.p, half), g.lead)
    G = gauss_sum(rho, psi)
    base = psi.value(local.b0) * rho.value(c_elem) * G
    val = rho.value(ctx.neg(1)) ** d
    for _ in range(d - 1):
        val *= base
    val *= q
    if (d - 1) % 2 == 1:
        val = -val
    return val


def main_term_additive_sp(beta: int, psi: AdditiveChar, q: int, r: int) -> complex:
    """(-1)^r psi(-beta)^r q^(r/2 + 1)."""
    if r % 2 != 0:
        raise NotExceptionalCell("symplectic main term needs even r")
    ctx = psi.ctx
    return psi.value(ctx.neg(beta)) ** r * q ** (r / 2 + 1)


def main_term_multiplicative(
    g: Poly, chi: MultChar, psi: AdditiveChar, q: int, d: int
) -> complex:
    """(-1)^d q beta with beta = chi((-1)^(d(d-1)/2) a_d^-(d-2) disc(g)) g(chi,psi)^d.

    Requires chi^d trivial and all roots of g in k; otherwise only
    |beta| = q^(d/2) is known and RootsNotInBaseField is raised.
    """
    ctx = g.ctx
    if d != g.degree:
        raise ValueError("degree mismatch")
    if d % chi.order != 0:
        raise NotExceptionalCell("chi^d must be trivial")
    if g.coeff(d - 1) != 0:
        raise NotExceptionalCell("needs a_{d-1} = 0")
    if not root_structure(g, ctx).splits_completely:
        raise RootsNotInBaseField("beta value needs all roots of g in k")
    arg = ctx.mul(ctx.pow_(g.lead, -(d - 2)), discriminant(g).val)
    if (d * (d - 1) // 2) % 2 == 1:
        arg = ctx.neg(arg)
    G = gauss_sum(chi, psi)
    beta = chi.value(arg)
    for _ in range(d):
        beta *= G
    val = q * beta
    if d % 2 == 1:
        val = -val
    return val


# ---------------------------------------------------------------------------
# hypothesis checks
# ---------------------------------------------------------------------------


def centring_shift(g: Poly) -> int:
    """c = -a_{d-1} / (d a_d), the shift that kills the x^(d-1) term of g(x+c)."""
    ctx = g.ctx
    d = g.degree
    return ctx.neg(ctx.mul(g.coeff(d - 1), ctx.inv(ctx.mul(d % ctx.p, g.lead))))


def odd_shift_data(g: Poly) -> tuple[bool, int | None, int | None]:
    """Does some g(x+c) + delta become odd?  Returns (exists, c, beta).

    For p > d the only candidate shift kills the x^(d-1) coefficient:
    c = -a_{d-1} / (d a_d).  Even d can never work since x^d survives.
    When p divides d there is no candidate (d a_d = 0); such a g fails
    the "p > d" hypothesis anyway.
    """
    ctx = g.ctx
    d = g.degree
    if d % 2 == 0 or d % ctx.p == 0:
        return False, None, None
    c = centring_shift(g)
    h = shift(g, c)
    for i in range(2, d, 2):
        if h.coeff(i) != 0:
            return False, None, None
    return True, c, ctx.neg(h.coeff(0))


def all_power_roots_in_field(ctx: FieldCtx, n: int, w: int) -> bool:
    """Does z^n = w have exactly n solutions in k?  (w != 0.)"""
    if w == 0:
        return False
    m = ctx.q - 1
    if m % n != 0:
        return False
    return ctx.pow_(w, m // n) == 1


@dataclass(frozen=True)
class Hypothesis:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class BoundReport:
    kind: str
    bound: float
    main_term: complex | None
    hypotheses: list[Hypothesis]
    applicable: bool
    strict: bool = False

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "bound": self.bound,
            "main_term_re": self.main_term.real if self.main_term is not None else None,
            "main_term_im": self.main_term.imag if self.main_term is not None else None,
            "hypotheses": [
                {"name": h.name, "passed": h.passed, "detail": h.detail}
                for h in self.hypotheses
            ],
            "applicable": self.applicable,
            "strict": self.strict,
        }
        return out


# exceptional cells whose residual must stay strictly below the bound
STRICT_KINDS = frozenset({"TransAddExc", "TransAddSpExc"})


def _finish(kind, bound, main, hyps):
    return BoundReport(
        kind=kind,
        bound=bound,
        main_term=main,
        hypotheses=hyps,
        applicable=all(h.passed for h in hyps),
        strict=kind in STRICT_KINDS,
    )


def report_weil_additive(d_prime: int, q: int, r: int) -> BoundReport:
    hyps = [
        Hypothesis(
            "reduced degree positive",
            d_prime >= 1,
            f"d' = {d_prime}" + ("; sum equals q^r * psi(Tr c) exactly" if d_prime == 0 else ""),
        )
    ]
    bound = weil_bound_additive(d_prime, q, r) if d_prime >= 1 else 0.0
    return _finish("WeilAdd", bound, None, hyps)


def report_weil_multiplicative(
    e_roots: int, q: int, r: int, is_mth_power: bool
) -> BoundReport:
    hyps = [
        Hypothesis("not an m-th power times a constant", not is_mth_power, ""),
        Hypothesis("at least one distinct root", e_roots >= 1, f"e = {e_roots}"),
    ]
    bound = weil_bound_multiplicative(e_roots, q, r) if e_roots >= 1 else 0.0
    return _finish("WeilMult", bound, None, hyps)


def report_translation_additive(
    g: Poly, psi: AdditiveChar, r: int, rho: MultChar | None = None
) -> BoundReport:
    """Improved bound for sums of psi(Tr g(x^q - x)) on k_r.

    Routes between the generic branch and the self-dual branch by testing
    whether some shift of g becomes odd; exceptional cells carry a main
    term of magnitude q^(r/2+1).
    """
    ctx = g.ctx
    d = g.degree
    p, q = ctx.p, ctx.q
    if rho is None and q % 2 == 1:
        rho = MultChar.quadratic(ctx)
    hyps = [
        Hypothesis("d >= 3", d >= 3, f"d = {d}"),
        Hypothesis("p > d", p > d, f"p = {p}, d = {d}"),
        Hypothesis("monodromy not finite (p > 2d-1)", p > 2 * d - 1, f"p = {p}"),
        Hypothesis("psi nontrivial", not psi.is_trivial, ""),
    ]
    odd_able, c, beta = odd_shift_data(g)
    bound = float(bound_constant_additive(d, r)) * q ** ((r + 1) / 2) if d >= 2 else 0.0
    adm1_zero = g.coeff(d - 1) == 0 if d >= 1 else False

    if odd_able:
        hyps.append(
            Hypothesis("some g(x+c)+delta is odd", True, f"c = {c}, delta = -beta, beta = {beta}")
        )
        exceptional = adm1_zero and r % 2 == 0 and r <= d - 1
        if not exceptional:
            return _finish("TransAddSp", bound, None, hyps)
        hyps.append(
            Hypothesis(
                "exceptional cell: a_{d-1} = 0, r even, r <= d-1",
                True,
                f"r = {r}, d = {d}",
            )
        )
        main = main_term_additive_sp(beta, psi, q, r)
        return _finish("TransAddSpExc", bound, main, hyps)

    if d % 2 == 1 and d % p == 0:
        # d a_d = 0: no shift kills a_{d-1}, and no search was made
        hyps.append(Hypothesis("no g(x+c)+delta is odd", False, f"p = {p} divides d = {d}: no centring shift"))
    else:
        hyps.append(Hypothesis("no g(x+c)+delta is odd", True, ""))
    exceptional = adm1_zero and r == d - 1
    if not exceptional:
        return _finish("TransAdd", bound, None, hyps)
    hyps.append(
        Hypothesis("exceptional cell: a_{d-1} = 0, r = d-1", True, f"r = {r}, d = {d}")
    )
    dad = ctx.mul(d % p, g.lead)
    roots_ok = all_power_roots_in_field(ctx, 2 * (d - 1), ctx.neg(dad))
    hyps.append(
        Hypothesis(
            "k contains all 2(d-1)-th roots of -d*a_d",
            roots_ok,
            f"-d*a_d = {ctx.neg(dad)}",
        )
    )
    main = None
    if roots_ok and all(h.passed for h in hyps):
        local = compute_local_data(g)
        main = main_term_additive_sl(g, local, psi, rho)
    return _finish("TransAddExc", bound, main, hyps)


def report_translation_multiplicative(
    g: Poly, chi: MultChar, psi: AdditiveChar, r: int
) -> BoundReport:
    """Improved bound for sums of chi(N(g(x^q - x))) on k_r."""
    ctx = g.ctx
    d = g.degree
    p, q = ctx.p, ctx.q
    m = chi.order
    hyps = [
        Hypothesis("chi nontrivial (m > 1)", m > 1, f"m = {m}"),
        Hypothesis("d prime to p", d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("g square-free", not g.is_zero and is_squarefree(g), ""),
    ]
    bound = float(bound_constant_multiplicative(d, r)) * q ** ((r + 1) / 2)
    chi_d_trivial = d % chi.order == 0
    exceptional = r == d and chi_d_trivial and g.coeff(d - 1) == 0

    if not exceptional:
        if r % m != 0:
            gate = Hypothesis("m does not divide r or g_r(0) != 0", True, f"m = {m} does not divide r = {r}")
        else:
            gr0 = resultant_sequence_value_at_zero(g, r)
            gate = Hypothesis(
                "m does not divide r or g_r(0) != 0", gr0 != 0, f"g_{r}(0) = {gr0}"
            )
        hyps.append(gate)
        return _finish("TransMult", bound, None, hyps)

    hyps.append(
        Hypothesis(
            "exceptional cell: r = d, chi^d trivial, a_{d-1} = 0",
            True,
            f"r = {r}, d = {d}, m = {m}",
        )
    )
    hyps.append(Hypothesis("p > 2d+1", p > 2 * d + 1, f"p = {p}"))
    banned = Parity.ODD if d % 2 == 1 else Parity.EVEN
    name = f"h not {banned.value} (d {banned.value})"
    if d % p == 0:
        hyps.append(Hypothesis(name, False, f"p = {p} divides d = {d}: no centring shift"))
    else:
        par = parity_check(shift(g, centring_shift(g)))
        hyps.append(Hypothesis(name, par != banned, f"parity = {par.value}"))
    splits = root_structure(g, ctx).splits_completely
    hyps.append(
        Hypothesis(
            "all roots of g in k",
            splits,
            "" if splits else "only |beta| = q^(d/2) is known; magnitude-only report",
        )
    )
    main = None
    if splits and all(h_.passed for h_ in hyps):
        main = main_term_multiplicative(g, chi, psi, q, d)
    return _finish("TransMultExc", bound, main, hyps)


def homothety_fiber_bound(d: int, q: int, r: int) -> float:
    """Per-fiber bound r d^(r-1) q^((r-1)/2) for norm-fiber character sums."""
    return r * d ** (r - 1) * q ** ((r - 1) / 2)


def homothety_bound(d: int, q: int, r: int) -> float:
    """Full-sum bound r d^(r-1) (q-1) q^((r-1)/2) over the nonzero elements."""
    return (q - 1) * homothety_fiber_bound(d, q, r)


def report_homothety_additive(g: Poly, e: int, ext: ExtCtx) -> BoundReport:
    """Bound for sums of psi(Tr g(x^((q-1)/e))) over k_r^*; g may live on k_r."""
    base = ext.base
    p, q, r = base.p, base.q, ext.r
    d = g.degree
    hyps = [
        Hypothesis("d prime to p", d >= 1 and d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("e divides q-1", e >= 1 and (q - 1) % e == 0, f"e = {e}"),
    ]
    return _finish("HomAdd", homothety_bound(d, q, r), None, hyps)


def report_homothety_multiplicative(g: Poly, chi: MultChar, e: int, ext: ExtCtx) -> BoundReport:
    """Bound for sums of chi(N(g(x^((q-1)/e)))) over k_r^*."""
    from .polyring import split_power_of_x

    base = ext.base
    p, q, r = base.p, base.q, ext.r
    d = g.degree
    m = chi.order
    a, g0 = split_power_of_x(g)
    hyps = [
        Hypothesis("d prime to p", d >= 1 and d % p != 0, f"d = {d}, p = {p}"),
        Hypothesis("e divides q-1", e >= 1 and (q - 1) % e == 0, f"e = {e}"),
        Hypothesis("g square-free", is_squarefree(g), ""),
        Hypothesis("chi^d nontrivial", d % m != 0, f"m = {m}, d = {d}"),
    ]
    if a:
        d0 = g0.degree
        hyps.append(
            Hypothesis(
                "chi^(d-a) nontrivial after removing x^a",
                d0 % m != 0,
                f"a = {a}, deg g0 = {d0}",
            )
        )
    return _finish("HomMult", homothety_bound(d, q, r), None, hyps)
