"""Outside-in tracing: spans around the calls into each charsums module.

`Tracer.install` rebinds public functions in the modules that import
them (the program itself is not edited), so every call made through
those names records a span: name, start, end, parent span and op id.
`uninstall` puts the original functions back.  Spans stay in memory
until `write_jsonl`; `layer_metrics` turns them into the per-layer
metrics listed in BENCHMARK.json.

Pool children (ProcessPoolExecutor partitions of one sum) record into
their own copy of the tracer, which is discarded: their work shows only
as the parent's wait inside the `charsum.sum_*` span.
"""

from __future__ import annotations

import functools
import json
import time

KERNEL_MODES = {
    "charsum.sum_additive": "S",
    "charsum.sum_multiplicative": "U",
    "charsum.fiber_sum_additive": "F",
    "charsum.fiber_sum_multiplicative": "F",
    "charsum.double_sum_check": "D",
}
CONSTRUCTION = ("ffield.make_field", "ffield.make_ext")
RESULTANT_SEQUENCE = (
    "boundbook.resultant_sequence",
    "boundbook.resultant_sequence_value_at_zero",
)

# module -> names rebound there
SITES = {
    "cli": (
        "make_field", "make_ext",
        "sum_additive", "sum_multiplicative",
        "fiber_sum_additive", "fiber_sum_multiplicative", "double_sum_check",
        "report_weil_additive", "report_weil_multiplicative",
        "report_translation_additive", "report_translation_multiplicative",
        "report_homothety_additive", "report_homothety_multiplicative",
        "as_reduce", "mth_power_test", "gen_poly", "parse_config", "run",
        "check_identity",
    ),
    "charsum": ("make_field", "make_ext"),
    "boundbook": (
        "make_ext", "resultant_sequence", "resultant_sequence_value_at_zero",
        "resultant", "interpolate", "compose", "is_squarefree", "root_structure",
        "compute_local_data",
    ),
}


def _plan(inner) -> str:
    return "none" if inner is None else inner[0]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op, attrs]
        self._stack: list[int] = []
        self._op: int | None = None
        self._ops = 0
        self._saved: list[tuple[object, str, object]] = []
        self._flavour = None

    # -- recording ---------------------------------------------------------
    def _span(self, name, fn, describe, new_op):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved_op = self._op
            if new_op:
                self._op = self._ops
                self._ops += 1
            attrs = describe(args, kwargs) if describe else None
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self._op, attrs]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                self._op = saved_op

        return wrapper

    def _op_boundary(self, fn):
        """Give every span under one call of fn the same fresh op id."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            saved_op = self._op
            self._op = self._ops
            self._ops += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._op = saved_op

        return wrapper

    def _describe(self, name):
        if name in KERNEL_MODES:
            mode = KERNEL_MODES[name]
            flavour = self._flavour

            def kernel(args, kwargs):
                ext = args[2] if len(args) > 2 else kwargs["ext"]
                base = ext.base
                elements = ext.size * (base.q if mode == "D" else 1)
                return {
                    "mode": mode,
                    "elements": elements,
                    "flavour": flavour(base) if flavour else None,
                    "plan": _plan(kwargs.get("inner")),
                    "ctx": [base.p, base.s, ext.r],
                }

            return kernel
        if name == "ffield.make_field":
            return lambda a, k: {"key": ["field", a[0], a[1], a[2] if len(a) > 2 else k.get("seed", 0)]}
        if name == "ffield.make_ext":
            def ext_key(a, k):
                base, r = a[0], a[1]
                seed = a[2] if len(a) > 2 else k.get("seed", 0)
                return {"key": ["ext", base.p, base.s, base.seed, r, seed]}

            return ext_key
        return None

    def install(self, modules: dict) -> None:
        """Rebind every site in SITES; `modules` maps short names to modules.

        A site the program no longer has is skipped, so its metrics read 0.
        The kernel's arithmetic flavour is the one `ffield._kops_flavor`
        picks; without that function the per-flavour metrics read 0.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._flavour = getattr(modules["ffield"], "_kops_flavor", None)
        for mod_name, names in SITES.items():
            mod = modules[mod_name]
            for attr in names:
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._span(
                    name, fn, self._describe(name), new_op=(name == "cli.check_identity")
                ))
        cli = modules["cli"]
        if hasattr(cli, "_run_cell"):
            self._saved.append((cli, "_run_cell", cli._run_cell))
            cli._run_cell = self._op_boundary(cli._run_cell)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write_jsonl(self, path: str, origin: float) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op, attrs in self.spans:
                rec = {"name": name, "start": start - origin, "end": end - origin,
                       "parent": parent, "op": op}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], sweep_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced sweep (see perfbench/README.md)."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] is not None:
            child[s[3]] += dur[i]
    self_s = [dur[i] - child[i] for i in range(n)]

    def ancestors(i):
        p = spans[i][3]
        while p is not None:
            yield p
            p = spans[p][3]

    def outermost(names):
        """Spans named in `names` with no ancestor named in `names`."""
        names = set(names)
        return [i for i in range(n) if spans[i][0] in names
                and not any(spans[a][0] in names for a in ancestors(i))]

    def total(idx):
        return sum(dur[i] for i in idx)

    out: dict[str, float] = {}

    def calls_s(metric, names, with_calls=True):
        idx = outermost(names)
        if with_calls:
            out[f"{metric}.calls"] = len(idx)
        out[f"{metric}.s"] = total(idx)
        return idx

    # charsum: the enumeration kernel
    kernel = outermost(KERNEL_MODES)
    for mode in "SUFD":
        idx = [i for i in kernel if spans[i][5]["mode"] == mode]
        s = total(idx)
        elements = sum(spans[i][5]["elements"] for i in idx)
        out[f"charsum.{mode}.calls"] = len(idx)
        out[f"charsum.{mode}.elements"] = elements
        out[f"charsum.{mode}.s"] = s
        out[f"charsum.{mode}.self_s"] = sum(self_s[i] for i in idx)
        out[f"charsum.{mode}.ns_per_element"] = _ratio(s * 1e9, elements)
    for key, values, modes in (("flavour", ("table", "modp", "generic"), "SUFD"),
                               ("plan", ("none", "frobsub", "pow"), "SU")):
        for v in values:
            idx = [i for i in kernel
                   if spans[i][5][key] == v and spans[i][5]["mode"] in modes]
            out[f"charsum.ns_per_element.{v}"] = _ratio(
                total(idx) * 1e9, sum(spans[i][5]["elements"] for i in idx))
    seen, first = set(), []
    for i in kernel:
        ctx = tuple(spans[i][5]["ctx"])
        if ctx not in seen:
            seen.add(ctx)
            first.append(i)
    out["charsum.first_call.s"] = total(first)

    # ffield: context construction
    for name in CONSTRUCTION:
        calls_s(name, [name])
    built = [i for i in range(n) if spans[i][0] in CONSTRUCTION]
    distinct = {tuple(spans[i][5]["key"]) for i in built}
    out["ffield.contexts_distinct"] = len(distinct)
    out["ffield.useful_ratio"] = _ratio(len(distinct), len(built))
    in_kernel = {i for i in built if any(spans[a][0] in KERNEL_MODES for a in ancestors(i))}
    out["ffield.kernel_rebuild_s"] = total(in_kernel)

    # boundbook and polyring
    reports = outermost([s[0] for s in spans if s[0].startswith("boundbook.report_")])
    out["boundbook.report.calls"] = len(reports)
    out["boundbook.report.s"] = total(reports)
    out["boundbook.report.self_s"] = sum(self_s[i] for i in reports)
    calls_s("boundbook.resultant_sequence", RESULTANT_SEQUENCE)
    for fn in ("resultant", "interpolate", "compose"):
        calls_s(f"polyring.{fn}", [f"polyring.{fn}"])
    for fn in ("is_squarefree", "root_structure"):
        calls_s(f"polyring.{fn}", [f"polyring.{fn}"], with_calls=False)

    # cli, invariance and localdata
    calls_s("cli.parse_config", ["cli.parse_config"], with_calls=False)
    calls_s("cli.gen_poly", ["cli.gen_poly"])
    for name in ("cli.run", "cli.check_identity"):
        idx = calls_s(name, [name], with_calls=False)
        out[f"{name}.self_s"] = sum(self_s[i] for i in idx)
    out["cli.ops"] = len({s[4] for s in spans if s[4] is not None})
    for name in ("invariance.as_reduce", "invariance.mth_power_test",
                 "localdata.compute_local_data"):
        calls_s(name, [name])

    # shares of the traced sweep, one per workload's target layer
    fd = [i for i in kernel if spans[i][5]["mode"] in "FD"]
    setup = [i for i in built if i not in in_kernel] + first
    out["charsum.share"] = _ratio(total(kernel), sweep_s)
    out["charsum.FD.share"] = _ratio(total(fd), sweep_s)
    out["boundbook.share"] = _ratio(out["boundbook.report.s"], sweep_s)
    out["ffield.setup_share"] = _ratio(total(setup), sweep_s)
    return out
