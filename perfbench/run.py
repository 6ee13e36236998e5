"""charsums benchmark runner.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enum_grid --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40      # every workload, a table

One run: repetitions of the workload, each in a fresh interpreter
(perfbench/rep.py), until the next one would end after --seconds.  With
--trace 1 untraced and traced repetitions alternate and the per-layer
metrics are reported; with --trace 0 the end-to-end ones.  Every op of
every repetition goes through the correctness gate.  The last line of
stdout is the result as one JSON object; a human summary goes to stderr
and the full record to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_OPS = 100
HARD_LIMIT_S = 160.0  # every run ends well inside 180 s
FLOAT_COLUMNS = ("S_re", "S_im", "S_abs", "weil", "improved", "main_re", "main_im", "residual")


class BenchmarkError(Exception):
    """The run cannot produce a result; the runner exits 1 without one."""


# ---------------------------------------------------------------------------
# one fresh-interpreter repetition
# ---------------------------------------------------------------------------


def _spawn(job: dict, tag: str, timeout: float) -> dict:
    """Run rep.py on `job`; returns setup time, wall time and its output."""
    os.makedirs(OUT, exist_ok=True)
    job_path = os.path.join(OUT, f"job-{os.getpid()}-{tag}.json")
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    lines: list[tuple[float, str]] = []
    t0 = time.perf_counter()
    # own process group, so a timeout also ends the repetition's pool children
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "rep.py"), job_path],
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )

    def reader():
        for line in proc.stdout:
            lines.append((time.perf_counter(), line.rstrip("\n")))

    thread = threading.Thread(target=reader)
    thread.start()
    try:
        proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        pass  # killed below; its ops count as failed
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    thread.join()
    proc.stdout.close()
    wall = time.perf_counter() - t0
    os.remove(job_path)
    ready = next((t for t, line in lines if line == "ready"), None)
    output = None
    if proc.returncode == 0 and lines and lines[-1][1].startswith("{"):
        output = json.loads(lines[-1][1])
    return {"setup_s": None if ready is None else ready - t0, "wall_s": wall, "output": output}


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def _canonical(result: dict):
    """An op's output without its wall time; None when the op raised."""
    if "error" in result:
        return None
    if "rows" in result:
        return [{k: v for k, v in row.items() if k != "seconds"} for row in result["rows"]]
    return result["lines"]


def _rows_match(rows, ref_rows, tolerance) -> bool:
    if len(rows) != len(ref_rows):
        return False
    for row, ref in zip(rows, ref_rows):
        for key, ref_val in ref.items():
            val = row.get(key)
            if key in FLOAT_COLUMNS and ref_val is not None and val is not None:
                if abs(val - ref_val) > tolerance(ref["q"], ref["r"]):
                    return False
            elif val != ref_val:
                return False
    return True


def gate(spec: dict, outputs: list, reference, tolerance) -> tuple[int, int, list[str]]:
    """(attempted ops, failed ops, reasons) over every repetition's output.

    An op fails when it raises, when an applicable row fails its bounds,
    when an identity line is not PASS, when it differs from the committed
    reference (floats within tolerance(q, r)), or when its output differs
    from the first repetition's outside `seconds`.  A repetition that
    crashed or timed out fails all of its ops.
    """
    run_mode = spec["mode"] == "run"
    if run_mode:
        sizes = [workloads.expected_ops({"mode": "run", "ops": [c]}) for c in spec["ops"]]
    else:
        sizes = [1] * len(spec["ops"])
    attempted = failed = 0
    reasons: list[str] = []
    first = None
    for rep, out in enumerate(outputs):
        attempted += sum(sizes)
        if out is None:
            failed += sum(sizes)
            reasons.append(f"rep {rep}: crashed or timed out")
            continue
        canon = [_canonical(r) for r in out["results"]]
        if first is None:
            first = canon
        for i, (res, size) in enumerate(zip(out["results"], sizes)):
            why = None
            if "error" in res:
                why = "raised: " + res["error"].strip().splitlines()[-1]
            elif run_mode and len(res["rows"]) != size:
                why = f"{len(res['rows'])} rows, expected {size}"
            elif run_mode and any(
                row["applicable"] and not (row["pass_weil"] and row["pass_improved"])
                for row in res["rows"]
            ):
                why = "applicable row fails its bounds"
            elif not run_mode and not all(line.startswith("PASS") for line in res["lines"]):
                why = "identity line not PASS"
            elif reference is not None and not (
                _rows_match(canon[i], reference[i], tolerance) if run_mode
                else canon[i] == reference[i]
            ):
                why = "differs from the reference output"
            elif canon[i] != first[i]:
                why = "differs from repetition 0 (determinism)"
            if why:
                failed += size
                reasons.append(f"rep {rep} op {i}: {why}")
    return attempted, failed, reasons


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _op_seconds(out: dict) -> list[float]:
    secs = []
    for res in out["results"]:
        if "rows" in res:
            secs.extend(row["seconds"] for row in res["rows"])
        elif "seconds" in res:
            secs.append(res["seconds"])
    return secs


def machine_info() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "absent"
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy}


def _tolerance():
    sys.path.insert(0, os.path.abspath("src"))
    from charsums.cli import tolerance

    return tolerance


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not os.path.isfile(os.path.join("src", "charsums", "__init__.py")):
        raise BenchmarkError("src/charsums not found; run from the root of a charsums checkout")
    spec = workloads.build(workload, seed)
    n_ops = workloads.expected_ops(spec)
    start = time.perf_counter()
    deadline = start + seconds

    def remaining():
        return HARD_LIMIT_S - (time.perf_counter() - start)

    trace_path = os.path.join(OUT, f"trace-{workload}-seed{seed}.jsonl")
    reps: list[dict] = []
    while remaining() > 0:
        traced = trace and len(reps) % 2 == 1
        job = {**spec, "trace": traced, "trace_path": trace_path}
        rep = _spawn(job, f"rep{len(reps)}", remaining())
        if rep["setup_s"] is None:
            raise BenchmarkError("charsums could not be imported or a config was rejected")
        rep["traced"] = traced
        reps.append(rep)
        if rep["output"] is None:
            break
        kinds = {r["traced"] for r in reps}
        if trace and len(kinds) < 2:
            continue
        if not trace and len(reps) * n_ops < MIN_OPS:
            continue
        next_wall = statistics.median(r["wall_s"] for r in reps)
        if time.perf_counter() + next_wall > deadline:
            break

    untraced = [r for r in reps if not r["traced"] and r["output"] is not None]
    traced_reps = [r for r in reps if r["traced"] and r["output"] is not None]
    reference = None
    ref_path = os.path.join(REFERENCE, f"{workload}.json")
    if seed == workloads.DEFAULT_SEED and os.path.exists(ref_path):
        with open(ref_path) as fh:
            reference = json.load(fh)
    attempted, failed, reasons = gate(spec, [r["output"] for r in reps], reference, _tolerance())

    setups = [r["setup_s"] for r in reps if not r["traced"]]
    metrics: dict[str, dict] = {}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": machine_info(), "reference_checked": reference is not None,
              "repetitions": len(reps), "traced_repetitions": len(traced_reps),
              "setup_samples": len(setups), "fail_reasons": reasons[:20],
              "sweeps": [[r["traced"], r["output"]["sweep_s"]] for r in untraced + traced_reps]}
    if trace:
        if not traced_reps or not untraced:
            raise BenchmarkError("no traced or no untraced repetition completed")
        layers = [r["output"]["layers"] for r in traced_reps]
        for key in layers[0]:
            metrics[key] = statistics.median(lay[key] for lay in layers)
        metrics["bench.trace_overhead_ratio"] = (
            statistics.median(r["output"]["sweep_s"] for r in traced_reps)
            / statistics.median(r["output"]["sweep_s"] for r in untraced)
        )
        units = {m["name"]: m["unit"] for m in declared_layer_metrics()}
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        if not untraced:
            raise BenchmarkError("no repetition completed")
        op_secs = [s for r in untraced for s in _op_seconds(r["output"])]
        op_refs = [s for r in untraced for s in r["output"]["op_ref"]]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "sweep_ref": (statistics.median(r["output"]["sweep_ref"] for r in untraced), "ref"),
            "op_ref_p50": (statistics.median(op_refs), "ref"),
            "op_ref_p90": (statistics.quantiles(op_refs, n=10)[8], "ref"),
            "peak_rss_mb": (statistics.median(r["output"]["peak_rss_mb"] for r in untraced), "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
        # the same times in seconds, which follow the machine's speed changes
        record["seconds_metrics"] = {
            "sweep_s": statistics.median(r["output"]["sweep_s"] for r in untraced),
            "op_s_p50": statistics.median(op_secs),
            "op_s_p90": statistics.quantiles(op_secs, n=10)[8],
            "reference_loop_s": statistics.median(
                x for r in untraced for x in r["output"]["probe_loop_s"]),
        }
        record["op_samples"] = len(op_refs)
        record["op_seconds"] = [_op_seconds(r["output"]) for r in untraced]
    record["error_rate"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record["result"] = result
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def declared_layer_metrics() -> list[dict]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def _summary(record: dict) -> str:
    res = record["result"]
    lines = [f"{record['workload']} seed={record['seed']} reps={record['repetitions']} "
             f"ops={res['attempted']} failed={res['failed']} "
             f"op_samples={record.get('op_samples', '-')} machine={record['machine']}"]
    for name, m in res["metrics"].items():
        lines.append(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in record.get("seconds_metrics", {}).items():
        lines.append(f"  {name:40s} {value:.6g} s")
    lines.append(f"  {'error_rate':40s} {record['error_rate']:.6g} ratio")
    for why in record["fail_reasons"]:
        lines.append(f"  FAIL {why}")
    return "\n".join(lines)


def main(argv=None) -> int:
    # SIGTERM unwinds through _spawn's cleanup, which ends the running repetition
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace)) for n in names]
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(_summary(record), file=sys.stderr)
    if args.workload == "all":
        print(json.dumps({r["workload"]: {**r["result"], "error_rate": r["error_rate"]}
                          for r in records}))
    else:
        print(json.dumps(records[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
