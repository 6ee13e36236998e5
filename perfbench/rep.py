"""One repetition of a workload, in a fresh interpreter.

Usage: python3 perfbench/rep.py JOB.json   (from the root of a checkout)

The job file holds the generated inputs ("mode", "ops"), the flag "trace"
and "trace_path".  The process imports charsums from ./src, passes every
config through `parse_config`, prints the line `ready`, runs the ops in
order and prints one JSON line with the per-op outputs, the sweep time,
the peak RSS of itself and its pool children, and, when traced, the
per-layer metrics.  The run's output otherwise goes to stderr.

An untraced repetition also measures the speed of the machine while it
works: before every op (every `_run_cell` call of `run`, or every
`check_identity` call) and once at each end of the sweep it times a fixed
pure-Python reference loop that uses no charsums code.  Each stretch of
work between two probes is divided by the mean of their loop times, which
gives the sweep and every op in reference units (`sweep_ref`, `op_ref`):
the number of reference loops the machine would have run in that time.
The probes' own time is left out of `sweep_s` and of the ops' `seconds`.
"""

import json
import os
import resource
import sys
import time
import traceback

_A = [(i * 7919) % 10007 for i in range(48)]
_B = [(i * 104729) % 10007 for i in range(48)]
_SQUARES = {i: (i * i) % 10007 for i in range(256)}


def _reference_loop() -> int:
    """Fixed work in the program's idiom: a polynomial product mod a prime
    on lists, dict lookups and a modular power (about 0.3 ms)."""
    c = [0] * 95
    for i, x in enumerate(_A):
        for j, y in enumerate(_B):
            c[i + j] = (c[i + j] + x * y) % 10007
    return (sum(_SQUARES[v & 255] for v in c) + pow(c[7] + 3, 65537, 10007)) % 10007


class SpeedProbe:
    """Times the reference loop at chosen moments of the sweep."""

    def __init__(self):
        self.loop_s: list[float] = []  # median of three loops, per probe
        self.bounds: list[tuple[float, float]] = []  # (start, end) of each probe

    def __call__(self) -> None:
        start = time.perf_counter()
        times = []
        for _ in range(3):
            t = time.perf_counter()
            _reference_loop()
            times.append(time.perf_counter() - t)
        self.loop_s.append(sorted(times)[1])
        self.bounds.append((start, time.perf_counter()))

    def unit(self, k: int) -> float:
        """Reference-loop time over the stretch between probes k and k + 1."""
        return (self.loop_s[k] + self.loop_s[k + 1]) / 2

    def work_s(self) -> float:
        return sum(self.bounds[k + 1][0] - self.bounds[k][1] for k in range(len(self.bounds) - 1))

    def work_ref(self) -> float:
        return sum((self.bounds[k + 1][0] - self.bounds[k][1]) / self.unit(k)
                   for k in range(len(self.bounds) - 1))


def _peak_rss_mb() -> float:
    """Peak RSS of this process and of its reaped (pool) children.

    Linux carries the RSS high-water mark of the process that exec'd us into
    RUSAGE_SELF, so this process's own peak is read from VmHWM instead.
    """
    with open("/proc/self/status") as fh:
        self_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, os.path.abspath("src"))
    from charsums import boundbook, charsum, cli, ffield

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install({"cli": cli, "charsum": charsum, "boundbook": boundbook, "ffield": ffield})
    run_mode = job["mode"] == "run"
    inputs = [cli.parse_config(c) for c in job["ops"]] if run_mode else job["ops"]
    print("ready", flush=True)

    probe = None if tracer else SpeedProbe()
    op_probe: list[int] = []  # per op, the probe that precedes it
    if probe and run_mode:
        run_cell = cli._run_cell

        def probed_run_cell(*args, **kwargs):
            probe()
            rows = run_cell(*args, **kwargs)
            op_probe.extend([len(probe.loop_s) - 1] * len(rows))
            return rows

        cli._run_cell = probed_run_cell

    results = []
    t0 = time.perf_counter()
    if probe:
        probe()
    for op in inputs:
        n_timed = len(op_probe)
        try:
            if run_mode:
                results.append({"rows": [row.to_json() for row in cli.run(op)]})
            else:
                if probe:
                    probe()
                    op_probe.append(len(probe.loop_s) - 1)
                t = time.perf_counter()
                lines = cli.check_identity(**op)
                results.append({"lines": lines, "seconds": time.perf_counter() - t})
        except Exception:  # an op that raises is a failed op, not a crashed sweep
            traceback.print_exc()
            results.append({"error": traceback.format_exc(limit=1)})
            del op_probe[n_timed:]  # its rows are lost; keep op_probe aligned
    if probe:
        probe()
    sweep_s = time.perf_counter() - t0

    out = {"results": results, "sweep_s": sweep_s, "peak_rss_mb": _peak_rss_mb()}
    if probe:
        seconds = [row["seconds"] for res in results for row in res.get("rows", [])] \
            if run_mode else [res["seconds"] for res in results if "seconds" in res]
        out["sweep_s"] = probe.work_s()
        out["sweep_ref"] = probe.work_ref()
        out["op_ref"] = [s / probe.unit(k) for s, k in zip(seconds, op_probe)]
        out["probe_loop_s"] = probe.loop_s
    if tracer is not None:
        from tracer import layer_metrics

        tracer.uninstall()
        out["layers"] = layer_metrics(tracer.spans, sweep_s)
        tracer.write_jsonl(job["trace_path"], t0)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
