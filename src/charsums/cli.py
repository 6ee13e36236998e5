"""Batch harness: config-driven oracle-vs-bound sweeps with CSV/JSON reports.

A config selects a theorem kind, a (p, s) base field, ranges of degrees
and extension levels, a character, and a polynomial source (explicit
coefficients or seeded random generation under constraints).  Every row
records the brute-force sum, the classical Weil bound, the improved
bound, the exceptional main term when one applies, and pass flags.

Determinism: field/extension construction uses fixed seeds, polynomial
draws derive from the config seed alone, and every sum is evaluated once
from exact integer counts, so replaying a config reproduces the CSV
except for the wall-time column.  Workers matter only above
ffield.DLOG_CAP: there the kernel splits each digit walk into partitions
on a pool, which starts on the first split, and adds their counts
exactly, so the worker count cannot change any numeric output.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import sys
import time
from dataclasses import dataclass, fields as dc_fields

from .boundbook import (
    STRICT_KINDS,
    report_homothety_additive,
    report_homothety_multiplicative,
    report_translation_additive,
    report_translation_multiplicative,
    report_weil_additive,
    report_weil_multiplicative,
)
from .charsum import (
    AdditiveChar,
    DEFAULT_CAP,
    DOUBLE_CAP,
    MultChar,
    _PARTS,
    counting_identity_holds,
    double_sum_check,
    fiber_sum_additive,
    fiber_sum_multiplicative,
    gauss_sum,
    orthogonality_error,
    sum_additive,
    sum_multiplicative,
)
from .errors import CharsumsError, ConfigInvalid, FieldTooLarge, Unsatisfiable
from .ffield import DLOG_CAP, field_size, is_prime, make_ext, make_field
from .invariance import as_reduce, mth_power_test
from .polyring import (
    Poly,
    coeff_errors,
    coeffs_from_text,
    is_squarefree,
    poly_from_text,
    poly_to_text,
    random_poly,
)

KINDS = ("WeilAdd", "WeilMult", "TransAdd", "TransMult", "HomAdd", "HomMult")
CONSTRAINT_KEYS = (
    "monic",
    "a_dm1_zero",
    "squarefree",
    "odd",
    "splits_in_k",
    "roots_sum_zero",
    "nonzero_constant",
)
MAX_CAP = 1 << 26
GEN_RETRIES = 10**4


def tolerance(q: int, r: int) -> float:
    """Float-summation slack added on the oracle side of every inequality."""
    return 1e-6 * math.sqrt(q**r)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass
class ExperimentConfig:
    kind: str
    p: int
    s: int
    r: list[int]
    d: list[int]
    e: list[int]
    char_b: int
    char_m: int
    poly_source: str  # "random" | "explicit"
    poly_coeffs: str | None
    constraints: dict
    trials: int
    cap: int
    seed: int
    workers: int


def _as_list(v, name, errors):
    # type(v) is int throughout: a JSON true is a bool, which isinstance counts as an int
    if type(v) is int:
        return [v]
    if isinstance(v, list) and all(type(x) is int for x in v) and v:
        return list(v)
    errors.append(f"{name}: expected an int or nonempty list of ints")
    return []


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a version-1 config dict; unknown fields are rejected."""
    errors: list[str] = []
    if not isinstance(data, dict):
        raise ConfigInvalid("config must be a JSON object")
    known = {
        "version",
        "kind",
        "p",
        "s",
        "r",
        "d",
        "e",
        "char",
        "poly",
        "trials",
        "cap",
        "seed",
        "workers",
    }
    errors.extend(f"unknown field {key!r}" for key in data if key not in known)
    if type(data.get("version")) is not int or data["version"] != 1:
        errors.append("version: must be 1")
    kind = data.get("kind")
    if kind not in KINDS:
        errors.append(f"kind: must be one of {KINDS}")
    p = data.get("p")
    s = data.get("s", 1)
    p_ok = type(p) is int and is_prime(p)
    if not p_ok:
        errors.append("p: prime required")
    if type(s) is not int or s < 1:
        errors.append("s: must be >= 1")
    elif p_ok and s * math.log2(p) >= 63:
        errors.append("s: p^s must be below 2^63")
    r_list = _as_list(data.get("r", 1), "r", errors)
    if any(r < 1 for r in r_list):
        errors.append("r: every extension level must be >= 1")
    d_list = _as_list(data.get("d", 0), "d", errors) if "d" in data else []
    if any(d < 1 for d in d_list):
        errors.append("d: every degree must be >= 1")
    e_list = _as_list(data.get("e", 1), "e", errors) if "e" in data else [1]

    char = data.get("char", {})
    if not isinstance(char, dict) or set(char) - {"b", "m"}:
        errors.append("char: object with optional fields b, m")
        char = {}
    char_b = char.get("b", 1)
    char_m = char.get("m", 2)
    if type(char_b) is not int or type(char_m) is not int or char_m < 1:
        errors.append("char: b and m must be ints, m >= 1")
        char_b, char_m = 1, 2

    poly = data.get("poly", {"source": "random", "constraints": {}})
    source = poly.get("source") if isinstance(poly, dict) else None
    coeffs = None
    coeff_list = None
    constraints: dict = {}
    if source == "explicit":
        coeffs = poly.get("coeffs")
        if not isinstance(coeffs, str) or not coeffs:
            errors.append("poly.coeffs: coefficient text required for explicit source")
        else:
            try:
                coeff_list = coeffs_from_text(coeffs)
            except ValueError:
                errors.append(
                    "poly.coeffs: expected comma-separated integers or [d0 d1 ...] groups"
                )
        if set(poly) - {"source", "coeffs"}:
            errors.append("poly: unknown fields for explicit source")
    elif source == "random":
        constraints = poly.get("constraints", {})
        if set(poly) - {"source", "constraints"}:
            errors.append("poly: unknown fields for random source")
        if not isinstance(constraints, dict) or set(constraints) - set(CONSTRAINT_KEYS):
            errors.append(f"poly.constraints: allowed keys are {CONSTRAINT_KEYS}")
            constraints = {}
        if any(type(v) is not bool for v in constraints.values()):
            errors.append(f"poly.constraints: each value must be true or false, got {json.dumps(constraints)}")
            constraints = {}
        errors.extend(f"poly.constraints: {msg}" for msg in constraint_errors(constraints, d_list))
        if "seed" not in data:
            errors.append("seed: mandatory for random polynomial sources")
        if "d" not in data:
            errors.append("d: required for random polynomial sources")
    else:
        errors.append("poly.source: must be 'random' or 'explicit'")

    trials = data.get("trials", 1)
    if type(trials) is not int or trials < 1:
        errors.append("trials: must be >= 1")
    cap = data.get("cap", DEFAULT_CAP)
    if type(cap) is not int or not 0 < cap <= MAX_CAP:
        errors.append(f"cap: must be in (0, 2^26], got {cap!r}")
    seed = data.get("seed", 0)
    if type(seed) is not int:
        errors.append("seed: must be an int")
    workers = data.get("workers", 1)
    if type(workers) is not int or workers < 1:
        errors.append("workers: must be >= 1")

    # p^s is only formed below 2^63: with a huge s it would not finish
    if type(p) is int and type(s) is int and p >= 2 and s >= 1 and s * math.log2(p) < 63:
        q = p**s
        if isinstance(char_b, int) and char_b % q == 0:
            errors.append("char.b: additive character must be nontrivial (b != 0 mod q)")
        if kind in ("WeilMult", "TransMult", "HomMult") and (q - 1) % char_m != 0:
            errors.append(f"char.m: {char_m} does not divide q - 1 = {q - 1}")
        if kind in ("WeilMult", "TransMult", "HomMult") and q > DLOG_CAP:
            errors.append(f"p: a multiplicative character of F_{q} needs its log table, so q <= 2^22")
        if coeff_list is not None:
            # an integer is a residue mod p only on a prime base field; the
            # homothety kinds read coefficients on k_r, checked on the smallest r
            hom = kind in ("HomAdd", "HomMult")
            residues = not hom and s == 1
            if all(
                not any(c) if isinstance(c, list) else (c % p if residues else c) == 0
                for c in coeff_list
            ):
                errors.append("poly.coeffs: every coefficient is zero")
            # q^r <= cap <= 2^26 needs r <= 26; the cap check below rejects larger r
            levels = [r for r in r_list if 1 <= r <= 26]
            if levels or not hom:
                found = coeff_errors(coeff_list, p, s, min(levels) if hom else None)
                errors.extend(f"poly.coeffs: {msg}" for msg in found)
        if kind in ("HomAdd", "HomMult"):
            bad_e = [e for e in e_list if e < 1 or (q - 1) % e]
            if bad_e:
                errors.append(f"e: {', '.join(map(str, bad_e))} must divide q - 1 = {q - 1}")
        if type(cap) is int and 0 < cap <= MAX_CAP:
            # q >= 2 and cap <= 2^26, so q^r exceeds the cap for every r > 26
            big_r = [r for r in r_list if q ** min(r, 27) > cap]
            if big_r:
                errors.append(
                    f"r: q^r exceeds the configured cap {cap} for r = {', '.join(map(str, big_r))}"
                )

    if errors:
        raise ConfigInvalid(errors)
    return ExperimentConfig(
        kind=kind,
        p=p,
        s=s,
        r=r_list,
        d=d_list,
        e=e_list,
        char_b=char_b,
        char_m=char_m,
        poly_source=source,
        poly_coeffs=coeffs,
        constraints=constraints,
        trials=trials,
        cap=cap,
        seed=seed,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# constrained random polynomials
# ---------------------------------------------------------------------------


def constraint_errors(constraints: dict, degrees) -> list[str]:
    """Why no polynomial of some degree in `degrees` meets the constraints;
    empty when none is ruled out.  An odd polynomial has only odd powers,
    so its degree is odd and its constant term is zero."""
    if not constraints.get("odd"):
        return []
    errors = []
    even = [d for d in degrees if d % 2 == 0]
    if even:
        errors.append(f"odd needs an odd degree, got d = {', '.join(map(str, even))}")
    if constraints.get("nonzero_constant"):
        errors.append("odd and nonzero_constant exclude each other: an odd polynomial has a_0 = 0")
    return errors


def gen_poly(ctx, d: int, constraints: dict, rng: random.Random) -> Poly:
    """Random polynomial satisfying every requested constraint (verified)."""
    errors = constraint_errors(constraints, [d])
    if errors:
        raise Unsatisfiable(errors[0])
    size = ctx.size
    want = {k: bool(constraints.get(k)) for k in CONSTRAINT_KEYS}
    for _ in range(GEN_RETRIES):
        if want["splits_in_k"]:
            roots = [rng.randrange(size) for _ in range(d)]
            # x^(d-1) has coefficient -lead * (sum of roots)
            if d >= 1 and (want["roots_sum_zero"] or want["a_dm1_zero"]):
                total = 0
                for rt in roots[:-1]:
                    total = ctx.add(total, rt)
                roots[-1] = ctx.neg(total)
            g = Poly.make(ctx, (1,))
            for rt in roots:
                g = g * Poly.make(ctx, (ctx.neg(rt), 1))
            if not want["monic"]:
                g = g.scale(rng.randrange(1, size))
        else:
            g = random_poly(ctx, d, rng, monic=want["monic"])
        coeffs = list(g.coeffs)
        if want["a_dm1_zero"] and d >= 1:
            coeffs[d - 1] = 0
        if want["odd"]:
            for i in range(0, d + 1, 2):
                coeffs[i] = 0
        if want["splits_in_k"] and coeffs != list(g.coeffs):
            continue  # zeroing a coefficient would move the roots out of k
        g = Poly(ctx, tuple(coeffs))
        if g.degree != d:
            continue
        if want["squarefree"] and not is_squarefree(g):
            continue
        if want["nonzero_constant"] and g.coeff(0) == 0:
            continue
        if want["roots_sum_zero"] and not want["splits_in_k"] and d >= 1:
            if g.coeff(d - 1) != 0:
                continue
        return g
    raise Unsatisfiable(f"no degree-{d} polynomial found for {constraints!r}")


# ---------------------------------------------------------------------------
# result rows
# ---------------------------------------------------------------------------


@dataclass
class ResultRow:
    kind: str
    p: int
    s: int
    q: int
    r: int
    d: int
    m: int
    poly: str
    S_re: float
    S_im: float
    S_abs: float
    weil: float
    improved: float
    main_re: float | None
    main_im: float | None
    residual: float
    pass_weil: bool
    pass_improved: bool
    applicable: bool
    seconds: float

    def csv_line(self) -> str:
        """One cell per field: floats by repr, None empty, bools as 1/0,
        seconds to the millisecond; a cell holding a comma is quoted."""
        cells = []
        for f in dc_fields(self):
            x = getattr(self, f.name)
            if x is None:
                cell = ""
            elif f.name == "seconds":
                cell = f"{x:.3f}"
            elif "float" in str(f.type):
                cell = repr(float(x))
            elif isinstance(x, bool):
                cell = "1" if x else "0"
            else:
                cell = str(x)
            cells.append(f'"{cell}"' if "," in cell else cell)
        return ",".join(cells)

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


CSV_COLUMNS = tuple(f.name for f in dc_fields(ResultRow))


def flags_from_values(
    kind: str, S_abs: float, weil: float, improved: float, residual: float, q: int, r: int
) -> tuple[bool, bool]:
    """Recompute the pass flags from stored row values (reload invariant)."""
    tol = tolerance(q, r)
    pass_weil = S_abs <= weil + tol
    if kind in STRICT_KINDS:
        pass_improved = residual < improved + tol
    else:
        pass_improved = residual <= improved + tol
    return pass_weil, pass_improved


def _row_seed(seed: int, *parts: int) -> int:
    key = seed & 0xFFFFFFFF
    for x in parts:
        key = (key * 1000003 + (x & 0xFFFFFFFF)) % (1 << 61)
    return key


def _make_row(rep, base, ext, g, m, S, weil, t0):
    """The row of polynomial g, its bound report and its enumerated sum S."""
    main = rep.main_term
    S_abs = abs(S)
    residual = abs(S - (main if main is not None else 0))
    pass_weil, pass_improved = flags_from_values(
        rep.kind, S_abs, weil, rep.bound, residual, base.q, ext.r
    )
    return ResultRow(
        kind=rep.kind,
        p=base.p,
        s=base.s,
        q=base.q,
        r=ext.r,
        d=g.degree,
        m=m,
        poly=poly_to_text(g),
        S_re=S.real,
        S_im=S.imag,
        S_abs=S_abs,
        weil=weil,
        improved=rep.bound,
        main_re=None if main is None else main.real,
        main_im=None if main is None else main.imag,
        residual=residual,
        pass_weil=pass_weil,
        pass_improved=pass_improved,
        applicable=rep.applicable,
        seconds=time.perf_counter() - t0,
    )


class _LazyPool:
    """A process pool that starts on its first `map`: only the digit walks
    above DLOG_CAP split into partitions, so most runs never start one.
    It starts at most `_PARTS` processes, the most tasks a walk splits into."""

    def __init__(self, workers: int):
        self.workers = min(workers, _PARTS)
        self.executor = None

    def map(self, fn, iterable):
        if self.executor is None:
            from concurrent.futures import ProcessPoolExecutor

            self.executor = ProcessPoolExecutor(max_workers=self.workers)
        return self.executor.map(fn, iterable)

    def shutdown(self):
        if self.executor is not None:
            self.executor.shutdown()


def run(config: ExperimentConfig, pool=None) -> list[ResultRow]:
    """Execute a config; deterministic given its seed (wall time aside).

    Each row's g is drawn once per call and kept in a dict keyed by
    (ctx, row seed), the row seed being `_row_seed(config.seed, ctx.size,
    d, trial)`: a g over k (Trans, Weil) has a key free of r and is drawn
    for the first r only, a g over k_r (Hom) has ctx = k_r in its key and
    is drawn at each r, once for every e.  `_run_cell` fills the dict, so
    the draw is timed inside the row that first needs it.
    """
    base = make_field(config.p, config.s, seed=0)
    psi = AdditiveChar(base, config.char_b % base.q)
    rows: list[ResultRow] = []
    drawn: dict = {}
    own_pool = None
    if pool is None and config.workers > 1:
        own_pool = pool = _LazyPool(config.workers)
    try:
        for r in config.r:
            if base.q**r > config.cap:
                raise ConfigInvalid(
                    [f"q^r = {base.q**r} exceeds the configured cap {config.cap}"]
                )
            ext = make_ext(base, r, seed=0)
            d_list = config.d if config.poly_source == "random" else [None]
            for d in d_list:
                for e in config.e if config.kind in ("HomAdd", "HomMult") else [1]:
                    for trial in range(config.trials):
                        rows.extend(
                            _run_cell(config, base, ext, psi, d, e, trial, pool, drawn)
                        )
    finally:
        if own_pool is not None:
            own_pool.shutdown()
    return rows


def _run_cell(config, base, ext, psi, d, e, trial, pool, drawn):
    """The one row of (r, d, e, trial), timed from its start to its end.

    Its g comes from `drawn` under the key (ctx, row seed) that `run`
    describes; the first row with that key draws g (or parses the explicit
    coefficients) and stores it, so that row's `seconds` include the draw
    and every later row with the key reuses it.
    """
    kind = config.kind
    if kind not in KINDS:
        raise ConfigInvalid([f"unhandled kind {kind!r}"])
    q, r = base.q, ext.r
    t0 = time.perf_counter()
    hom = kind in ("HomAdd", "HomMult")
    if hom and (q - 1) % e != 0:
        raise ConfigInvalid([f"e = {e} does not divide q - 1 = {q - 1}"])
    ctx = ext if hom else base
    # explicit coefficients (d is None) give one g per ctx
    row_seed = None if d is None else _row_seed(config.seed, ctx.size, d, trial)
    g = drawn.get((ctx, row_seed))
    if g is None:
        if d is None:
            g = poly_from_text(ctx, config.poly_coeffs)
        else:
            g = gen_poly(ctx, d, config.constraints, random.Random(row_seed))
        drawn[ctx, row_seed] = g
    additive = kind.endswith("Add")
    char = psi if additive else MultChar.of_order(base, config.char_m)
    m = 0 if additive else char.order

    if kind == "TransAdd":
        rep = report_translation_additive(g, psi, r)
        weil = max(g.degree - 1, 0) * q ** (r / 2 + 1)
    elif kind == "TransMult":
        rep = report_translation_multiplicative(g, char, psi, r)
        weil = max(q * g.degree - 1, 0) * q ** (r / 2)
    elif hom:
        if additive:
            rep = report_homothety_additive(g, e, ext)
        else:
            rep = report_homothety_multiplicative(g, char, e, ext)
        # the classical bound covers the full sum; rows record the sum over
        # the nonzero elements, so allow for the removed x = 0 term
        weil = max((g.degree * (q - 1) // e - 1), 0) * q ** (r / 2) + 1
    else:
        if additive:
            rep = report_weil_additive(as_reduce(g, psi).d_prime, q, r)
        else:
            is_power, e_roots = mth_power_test(g, m)
            rep = report_weil_multiplicative(e_roots, q, r, is_power)
        weil = rep.bound

    total = sum_additive if additive else sum_multiplicative
    if hom:
        full = total(g, char, ext, inner=("pow", (q - 1) // e), cap=config.cap, pool=pool)
        at_zero = ext.trace_to_base(g.coeff(0)) if additive else ext.norm_to_base(g.coeff(0))
        S = full - char.table()[at_zero]
    else:
        inner = ("frobsub",) if kind.startswith("Trans") else None
        S = total(g, char, ext, inner=inner, cap=config.cap, pool=pool)
    return [_make_row(rep, base, ext, g, m, S, weil, t0)]


def rows_to_csv(rows: list[ResultRow]) -> str:
    return "\n".join([",".join(CSV_COLUMNS)] + [row.csv_line() for row in rows]) + "\n"


def csv_without_timing(csv_text: str) -> str:
    """Drop the wall-time column (the one nondeterministic field)."""
    out = []
    for line in csv_text.strip("\n").split("\n"):
        out.append(line.rsplit(",", 1)[0])
    return "\n".join(out) + "\n"


def all_applicable_pass(rows: list[ResultRow]) -> bool:
    return all(row.pass_weil and row.pass_improved for row in rows if row.applicable)


# ---------------------------------------------------------------------------
# identity checks (CLI surface over the oracle cross-checks)
# ---------------------------------------------------------------------------


def check_identity(kind: str, p: int, s: int, r: int, seed: int, trials: int) -> list[str]:
    """Run a named identity check; returns human-readable PASS/FAIL lines."""
    lines = []
    base = make_field(p, s, seed=0)
    psi = AdditiveChar.canonical(base)
    if kind in ("gauss", "orthogonality") and base.q**2 > DOUBLE_CAP:
        raise FieldTooLarge(f"{kind} does q^2 = {base.q**2} steps, above the cap {DOUBLE_CAP}")
    if base.q == 2 and kind in ("gauss", "reassembly-add", "reassembly-mult"):
        raise CharsumsError(f"{kind} checks nothing on F_2, whose unit group is trivial")
    if kind == "reassembly-mult" and base.q % 2 == 0:
        raise CharsumsError(f"{kind} needs odd q: F_{base.q} has no quadratic character")
    if kind.startswith("reassembly") and base.q > DLOG_CAP:
        raise FieldTooLarge(f"{kind} starts each norm fiber from k's log table, which needs q <= 2^22")
    if kind in ("counting", "double-sum") or kind.startswith("reassembly"):
        # the 63-bit bound, then the caps of counting_identity_holds and of the sums in
        # their order: make_ext would first search a generator, factorizing q^r - 1
        n = field_size(base.q, r)
        if kind == "counting" and n > 10**4:
            raise FieldTooLarge(f"exhaustive count capped at {10**4}, got {n}")
        if kind != "counting" and n > DEFAULT_CAP:
            raise FieldTooLarge(f"enumeration of {n} terms exceeds cap {DEFAULT_CAP}")
        if kind == "double-sum" and n * base.q > DOUBLE_CAP:
            raise FieldTooLarge(f"enumeration of {n * base.q} terms exceeds cap {DOUBLE_CAP}")

    if kind == "gauss":
        ok = True
        for j in range(1, base.q - 1):
            chi = MultChar(base, j)
            G = gauss_sum(chi, psi)
            if abs(abs(G) ** 2 - base.q) > 1e-9 * base.q:
                ok = False
        lines.append(f"{'PASS' if ok else 'FAIL'} gauss: |g(chi,psi)|^2 = q for all nontrivial chi mod {base.q}")
        return lines

    if kind == "counting":
        ext = make_ext(base, r, seed=0)
        ok = counting_identity_holds(ext)
        lines.append(f"{'PASS' if ok else 'FAIL'} counting: #(x^q-x = t) = q[Tr t = 0] on F_{base.q}^{r}")
        return lines

    if kind == "orthogonality":
        err = orthogonality_error(psi)
        ok = err < 1e-9 * base.q
        lines.append(f"{'PASS' if ok else 'FAIL'} orthogonality: max error {err:.3e}")
        return lines

    if kind == "double-sum":
        ext = make_ext(base, r, seed=0)
        ok = True
        for t in range(trials):
            g = gen_poly(base, 3, {}, random.Random(_row_seed(seed, t)))
            lhs = sum_additive(g, psi, ext, inner=("frobsub",))
            rhs = double_sum_check(g, psi, ext)
            if abs(lhs - rhs) > tolerance(base.q, r):
                ok = False
        lines.append(f"{'PASS' if ok else 'FAIL'} double-sum: {trials} random cubics over F_{base.q}, r={r}")
        return lines

    if kind in ("reassembly-add", "reassembly-mult"):
        ext = make_ext(base, r, seed=0)
        divisors = [e for e in range(2, base.q) if (base.q - 1) % e == 0][:3]
        if kind == "reassembly-add":
            char, total, fiber, at_zero = psi, sum_additive, fiber_sum_additive, ext.trace_to_base
        else:
            char, total, fiber = MultChar.quadratic(base), sum_multiplicative, fiber_sum_multiplicative
            at_zero = ext.norm_to_base
        ok = True
        for e in divisors:
            n = (base.q - 1) // e
            mus = [mu for mu in range(1, base.q) if base.pow_(mu, e) == 1]
            for t in range(trials):
                g = gen_poly(ext, 2, {}, random.Random(_row_seed(seed, e, t)))
                lhs = total(g, char, ext, inner=("pow", n))
                rhs = char.value(at_zero(g.coeff(0)))
                rhs += sum(n * fiber(g, char, ext, mu) for mu in mus)
                if abs(lhs - rhs) > tolerance(base.q, r):
                    ok = False
        lines.append(f"{'PASS' if ok else 'FAIL'} {kind}: e in {divisors}, r={r}, F_{base.q}")
        return lines

    raise CharsumsError(f"unknown identity kind {kind!r}")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        # a bad argument is one error line and exit 2, like every bad input;
        # subparsers are made of this class too
        def error(self, message):
            raise CharsumsError(message)

    ap = Parser(
        prog="charsums",
        description="Character-sum oracles and improved Weil-type bound verification.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run an experiment config")
    runp.add_argument("config", help="path to a version-1 JSON config")
    runp.add_argument("--seed", type=int, help="override the config seed")
    runp.add_argument("--workers", type=int, help="override the worker count")
    runp.add_argument("--cap", type=int, help="override the enumeration cap")
    runp.add_argument("--out", help="write results to PATH.csv or PATH.json")

    chk = sub.add_parser("check-identity", help="verify a named cross-check identity")
    chk.add_argument(
        "kind",
        choices=["gauss", "counting", "orthogonality", "double-sum", "reassembly-add", "reassembly-mult"],
    )
    chk.add_argument("--p", type=int, default=7)
    chk.add_argument("--s", type=int, default=1)
    chk.add_argument("--r", type=int, default=2)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--trials", type=int, default=5)

    gen = sub.add_parser("gen", help="generate a constrained random polynomial")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--s", type=int, default=1)
    gen.add_argument("--d", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    for key in CONSTRAINT_KEYS:
        gen.add_argument(f"--{key.replace('_', '-')}", action="store_true", dest=key)
    return ap


# the integer arguments of each subcommand that must be >= 1
_POSITIVE_ARGS = {"check-identity": ("s", "r", "trials"), "gen": ("s", "d")}


def _open_out(path: str | None):
    """The stream rows are written to, opened before any work is done."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w")
    except OSError as exc:
        raise CharsumsError(f"{path}: {exc.strerror}") from exc


def _command(args) -> int:
    """Run a parsed command and return its exit status: 0 when every check
    passes, 1 when one fails.  A bad input raises, and `main` reports it."""
    bad = [f"--{name}" for name in _POSITIVE_ARGS.get(args.command, ()) if getattr(args, name) < 1]
    if bad:
        raise CharsumsError(f"{', '.join(bad)} must be >= 1")

    if args.command == "check-identity":
        lines = check_identity(args.kind, args.p, args.s, args.r, args.seed, args.trials)
        print("\n".join(lines))
        return 0 if all(line.startswith("PASS") for line in lines) else 1

    if args.command == "gen":
        constraints = {k: getattr(args, k) for k in CONSTRAINT_KEYS if getattr(args, k)}
        ctx = make_field(args.p, args.s, seed=0)
        print(poly_to_text(gen_poly(ctx, args.d, constraints, random.Random(args.seed))))
        return 0

    try:
        with open(args.config) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CharsumsError(f"{args.config}: {exc.strerror}") from exc
    except ValueError as exc:  # malformed JSON or undecodable bytes
        raise CharsumsError(f"{args.config}: not a JSON config: {exc}") from exc
    for key in ("seed", "workers", "cap"):
        val = getattr(args, key)
        if val is not None and isinstance(data, dict):
            data[key] = val
    config = parse_config(data)
    with _open_out(args.out) as fh:
        rows = run(config)
        if args.out and args.out.endswith(".json"):
            json.dump([row.to_json() for row in rows], fh, indent=1)
        else:
            fh.write(rows_to_csv(rows))
    ok = all_applicable_pass(rows)
    applicable = sum(1 for row in rows if row.applicable)
    print(
        f"# {len(rows)} rows, {applicable} applicable, "
        f"{'all pass' if ok else 'FAILURES PRESENT'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    """Every bad input ends here as exit 2: a failed config as one
    `config error:` line per message, any other as one `error:` line."""
    try:
        return _command(_build_parser().parse_args(argv))
    except ConfigInvalid as exc:
        for msg in exc.messages:
            print(f"config error: {msg}", file=sys.stderr)
        return 2
    except CharsumsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
