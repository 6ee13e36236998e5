"""Workload inputs, generated from the benchmark seed alone.

Every workload is a closed loop: one process runs its ops in order, each
op starting when the previous one has finished.  A `run` workload is a
list of version-1 configs handed to `charsums.cli.run`; one op is one
result row.  The `identity` workload is a list of `check_identity`
calls; one op is one call.  The seed only picks the polynomial seeds, so
the shape of the work (fields, degrees, extension levels, element
counts) is the same for every seed.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

# (p, degrees, TransMult character order).  p > 2d - 1 everywhere, as in
# acceptance criterion 5; the orders 6, 5, 6 divide no r in the grid, so
# the TransMult report never builds a resultant sequence.
ENUM_GRID = ((7, [3], 6), (11, [3, 4, 5], 5), (13, [3, 4, 5], 6))

# (p, s, extension levels, degree, trials) for TransMult with m = 2,
# squarefree g, d prime to p.  At r = 2 and r = 4 the report computes
# g_r(0) through the resultant sequence.  The quintics over F_9 and F_7
# at r = 4 (g_3 of degree 125) are the deepest cells and hold most of the
# bound layer's time.  No cell has r = d = 4, where a seed with a_3 = 0 would
# skip the sequence and change the work.  Below those cells the r = 4 ops
# (F_5 quadratics, F_5 cubics, F_7 quadratics, F_7 cubics: about 0.03,
# 0.09, 0.11 and 0.18 s) form a staircase whose steps are smaller than the
# machine's fast-to-slow speed ratio, so the 90th percentile of op time falls
# among ops of graded size and moves smoothly with the speed of the machine
# instead of jumping between a block's fast and slow time.  In reference
# units that noise is gone and the steps are distinct, so the last cell adds
# two F_7 cubics at r = 4: the 90th percentile (about the 4.4th largest of
# the 43 ops) then falls inside the block of four such ops, ranked 3-6 below
# the two quintics, not on the edge between the cubics and the quadratics.
BOUND_CELLS = (
    (5, 1, [1, 2, 3, 4], 3, 4),
    (5, 1, [4], 2, 3),
    (7, 1, [1, 2, 3, 4], 3, 2),
    (7, 1, [4], 2, 2),
    (3, 2, [1, 2, 3], 4, 1),
    (3, 2, [2, 4], 5, 1),
    (7, 1, [2], 5, 6),
    (7, 1, [4], 5, 1),
    (7, 1, [4], 3, 2),
)

# Base fields of `many_fields`: the prime bases up to 31, a prime above
# ffield.TABLE_CAP (mod-p arithmetic), composite bases below the cap
# (table arithmetic) and a composite above it (generic arithmetic).
MANY_FIELDS = (
    [(p, 1) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
    + [(1031, 1)]
    + [(2, 6), (2, 7), (3, 4), (5, 3), (11, 2)]
    + [(2, 11)]
)
# Over F_{2^11} only WeilMult runs: each of the other kinds would take
# longer than all other fields together.
MANY_FIELDS_SKIP = {(2, 11, "WeilAdd"), (2, 11, "HomAdd"), (2, 11, "HomMult")}

# (check kind, p, s, r, trials, calls per rep) for `identity_checks`.  The
# call counts centre p50 on the block of ~0.1 s double-sum checks and put
# p90 inside the block of F_13 reassembly-add checks.  Calls that short
# (the counting checks take ~25 ms) straddle the machine's speed changes,
# so a percentile that fell among them would jump between runs.
IDENTITY_OPS = (
    ("reassembly-add", 13, 1, 3, 1, 3),
    ("reassembly-mult", 13, 1, 3, 1, 1),
    ("double-sum", 13, 1, 3, 1, 6),
    ("counting", 13, 1, 3, 1, 3),
    ("reassembly-add", 3, 2, 3, 1, 1),
    ("reassembly-mult", 3, 2, 3, 1, 1),
    ("double-sum", 3, 2, 3, 3, 2),
    ("counting", 3, 2, 3, 1, 3),
)

WORKLOADS = ("enum_grid", "bound_deep", "many_fields", "identity_checks")


def _config(kind, p, s, r, d, seed, *, m=2, e=None, constraints=None, trials=1, workers=1):
    cfg = {
        "version": 1,
        "kind": kind,
        "p": p,
        "s": s,
        "r": r,
        "d": d,
        "char": {"b": 1, "m": m},
        "poly": {"source": "random", "constraints": constraints or {}},
        "trials": trials,
        "cap": 1 << 22,
        "seed": seed,
        "workers": workers,
    }
    if e is not None:
        cfg["e"] = e
    return cfg


def _smallest_prime_factor(n: int) -> int:
    return next(f for f in range(2, n + 1) if n % f == 0)


def _enum_grid(rng):
    cfgs = []
    # a_{d-1} = 0 puts TransAdd on the exceptional (main-term) cells
    for kind, cons in (("TransAdd", {"a_dm1_zero": True}), ("TransMult", {"squarefree": True})):
        for p, ds, m in ENUM_GRID:
            # only q^r >= 2^14 cells are split into pool partitions; of
            # those the grid keeps the cubic at p = 13, r = 4
            rs = [1, 2, 3, 4] if p == 7 else [1, 2, 3]
            cfgs.append(_config(kind, p, 1, rs, ds, rng.randrange(2**31), m=m,
                                constraints=cons, workers=2))
            if p == 13:
                cfgs.append(_config(kind, p, 1, [4], [3], rng.randrange(2**31), m=m,
                                    constraints=cons, workers=2))
    return cfgs


def _bound_deep(rng):
    return [
        _config("TransMult", p, s, rs, [d], rng.randrange(2**31), m=2,
                constraints={"squarefree": True}, trials=trials)
        for p, s, rs, d, trials in BOUND_CELLS
    ]


def _many_fields(rng):
    cfgs = []
    for p, s in MANY_FIELDS:
        q = p**s
        rs = [1, 2] if q <= 31 else [1]
        m = _smallest_prime_factor(q - 1) if q > 2 else 1
        e = [m] if q > 2 else [1]
        for kind in ("WeilAdd", "WeilMult", "HomAdd", "HomMult"):
            if (p, s, kind) in MANY_FIELDS_SKIP:
                continue
            cfgs.append(_config(kind, p, s, rs, [3], rng.randrange(2**31), m=m,
                                e=e if kind.startswith("Hom") else None))
    return cfgs


def _identity_checks(rng):
    ops = []
    for kind, p, s, r, trials, calls in IDENTITY_OPS:
        for _ in range(calls):
            ops.append({"kind": kind, "p": p, "s": s, "r": r,
                        "seed": rng.randrange(2**31), "trials": trials})
    return ops


_BUILDERS = {
    "enum_grid": _enum_grid,
    "bound_deep": _bound_deep,
    "many_fields": _many_fields,
    "identity_checks": _identity_checks,
}


def build(workload: str, seed: int) -> dict:
    """The inputs of one workload: {"mode": "run"|"identity", "ops": [...]}.

    For mode "run" each op entry is a config dict; for mode "identity" it
    is the keyword arguments of one `check_identity` call.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    mode = "identity" if workload == "identity_checks" else "run"
    return {"mode": mode, "ops": _BUILDERS[workload](rng)}


def expected_ops(spec: dict) -> int:
    """Number of ops (result rows or identity calls) a spec produces."""
    if spec["mode"] == "identity":
        return len(spec["ops"])
    total = 0
    for cfg in spec["ops"]:
        n = len(cfg["r"]) * len(cfg["d"]) * cfg["trials"]
        if cfg["kind"] in ("HomAdd", "HomMult"):
            n *= len(cfg.get("e", [1]))
        total += n
    return total
