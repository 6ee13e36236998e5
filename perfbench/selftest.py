"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/selftest.py
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import rep as repetition  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from charsums import boundbook, charsum, cli, ffield  # noqa: E402

MODULES = {"cli": cli, "charsum": charsum, "boundbook": boundbook, "ffield": ffield}

# cheap ops of each workload's default-seed spec, by index
SMOKE_OPS = {
    "enum_grid": [0, 1],
    "bound_deep": [0],
    "many_fields": list(range(8)),
    "identity_checks": [12, 13, 14, 15, 17],
}


def _smoke(workload):
    spec = workloads.build(workload, workloads.DEFAULT_SEED)
    idx = SMOKE_OPS[workload]
    with open(os.path.join(run.REFERENCE, f"{workload}.json")) as fh:
        reference = json.load(fh)
    return ({"mode": spec["mode"], "ops": [spec["ops"][i] for i in idx]},
            [reference[i] for i in idx])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_deterministic_from_seed(workload):
    a = workloads.build(workload, 7)
    assert a == workloads.build(workload, 7)
    b = workloads.build(workload, 8)
    assert a != b
    # the seed changes the polynomials, not the shape of the work
    strip = [{k: v for k, v in op.items() if k != "seed"} for op in a["ops"]]
    assert strip == [{k: v for k, v in op.items() if k != "seed"} for op in b["ops"]]


def test_wrappers_are_removed_after_the_traced_run():
    originals = {(m, a): getattr(MODULES[m], a) for m, names in tracer_mod.SITES.items()
                 for a in names}
    originals[("cli", "_run_cell")] = cli._run_cell
    spec, _ = _smoke("enum_grid")
    config = cli.parse_config(spec["ops"][0])
    plain = cli.run(config)

    tr = tracer_mod.Tracer()
    tr.install(MODULES)
    try:
        assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in originals.items())
        traced = cli.run(config)
    finally:
        tr.uninstall()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in originals.items())

    # tracing changes no output outside the wall-time column
    assert cli.csv_without_timing(cli.rows_to_csv(plain)) == \
        cli.csv_without_timing(cli.rows_to_csv(traced))
    names = {s[0] for s in tr.spans}
    assert {"cli.run", "ffield.make_field", "charsum.sum_additive",
            "boundbook.report_translation_additive", "cli.gen_poly"} <= names
    parents = [s[3] for s in tr.spans]
    assert parents[0] is None and all(p is None or p < i for i, p in enumerate(parents))
    metrics = tracer_mod.layer_metrics(tr.spans, 1.0)
    assert metrics["cli.ops"] == len(plain)
    assert metrics["charsum.S.calls"] == len(plain)
    # the flavour label is the one ffield picks: F_7 gets lookup tables
    assert metrics["charsum.ns_per_element.table"] > 0
    assert metrics["charsum.ns_per_element.modp"] == metrics["charsum.ns_per_element.generic"] == 0
    declared = {m["name"] for m in run.declared_layer_metrics()}
    assert set(metrics) | {"bench.trace_overhead_ratio"} == declared


def test_speed_probe_measures_work_between_probes_in_loop_units():
    probe = repetition.SpeedProbe()
    probe()
    time.sleep(0.05)
    probe()
    assert len(probe.loop_s) == 2 and min(probe.loop_s) > 0
    assert 0.05 <= probe.work_s() < 0.1  # the probes' own time is left out
    assert probe.work_ref() == pytest.approx(probe.work_s() / probe.unit(0))


def test_self_time_subtracts_children():
    spans = [["cli.run", 0.0, 10.0, None, None, None],
             ["ffield.make_field", 1.0, 3.0, 0, None, {"key": ["field", 5, 1, 0]}],
             ["ffield.make_field", 4.0, 5.0, 0, None, {"key": ["field", 5, 1, 0]}]]
    m = tracer_mod.layer_metrics(spans, 10.0)
    assert m["cli.run.s"] == 10.0 and m["cli.run.self_s"] == 7.0
    assert m["ffield.make_field.calls"] == 2 and m["ffield.contexts_distinct"] == 1
    assert m["ffield.useful_ratio"] == 0.5


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_passes_the_gate(workload):
    spec, reference = _smoke(workload)
    outputs = []
    for traced in (False, True):
        trace_path = os.path.join(run.OUT, f"selftest-{workload}.jsonl")
        rep = run._spawn({**spec, "trace": traced, "trace_path": trace_path},
                         f"selftest-{traced}", 120)
        assert rep["setup_s"] is not None and rep["output"] is not None
        outputs.append(rep["output"])
    os.remove(trace_path)
    # the untraced repetition converts every op to reference units
    op_ref = outputs[0]["op_ref"]
    assert len(op_ref) == workloads.expected_ops(spec) and min(op_ref) > 0
    assert outputs[0]["sweep_ref"] > 0 and "op_ref" not in outputs[1]
    attempted, failed, reasons = run.gate(spec, outputs, reference, cli.tolerance)
    assert attempted == 2 * workloads.expected_ops(spec) and failed == 0, reasons


def test_gate_flags_wrong_and_nondeterministic_outputs():
    spec, reference = _smoke("enum_grid")
    rep = run._spawn({**spec, "trace": False, "trace_path": None}, "gate", 120)
    good = rep["output"]
    assert run.gate(spec, [good], reference, cli.tolerance)[1] == 0

    wrong = copy.deepcopy(good)
    row = wrong["results"][0]["rows"][-1]
    row["S_re"] += 10 * cli.tolerance(row["q"], row["r"])
    n0 = len(good["results"][0]["rows"])
    assert run.gate(spec, [wrong], reference, cli.tolerance)[1] == n0
    # without a reference, a repetition that disagrees with the first fails
    assert run.gate(spec, [good, wrong], None, None)[1] == n0
    assert run.gate(spec, [good, None], None, None)[1] == workloads.expected_ops(spec)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "enum_grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
