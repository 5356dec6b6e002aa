"""fgn-toolkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload whittle-battery --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run sets up (several
times, in fresh processes, to time it), makes an untimed warm-up, then
runs measured steps until ``--seconds`` have elapsed and at least one
whole pass is done.  ``#`` lines on stdout give the environment record
and every metric by its workload name; the last line is the JSON result.
With ``--trace 1`` the passes alternate untraced and traced (at least
one of each), the traced run adds layer probes, the result carries the
per-layer metrics and the spans go to
``.perfbench-out/spans-<run id>.jsonl``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench-out")
SETUP_REPEATS = 5
SETUP_CODE = "import sys, workloads; workloads.setup_inputs(sys.argv[1], int(sys.argv[2]))"


def import_package() -> None:
    """Import fgn_toolkit from this checkout's src/, or exit with code 1."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import fgn_toolkit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fgn_toolkit from {src}: {exc}")
    if not os.path.abspath(fgn_toolkit.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: fgn_toolkit came from {fgn_toolkit.__file__}, not {src}")


def environment(workload) -> dict:
    import numpy
    import scipy

    def first_line(path, prefix=""):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(prefix):
                        return line.split(":", 1)[-1].strip() if prefix else line.strip()
        except OSError:
            pass
        return "unknown"

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": first_line("/proc/cpuinfo", "model name"),
        "l3": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
    }
    if workload == "long-path":
        env["working_set"] = ("2^21 float64 = 16 MiB per path array, below the L3 size: "
                              "long-path is not a memory-bandwidth measurement")
    return env


def time_setup(bench, workload: str) -> list[float]:
    """Wall seconds of fresh processes that import the package and make inputs."""
    return [bench.python("-c", SETUP_CODE, workload, str(bench.seed))[1]
            for _ in range(SETUP_REPEATS)]


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def layer_metrics(spec, bench, tr) -> dict:
    """Every per_layer metric of the spec; 0 for a layer the workload never calls."""
    from tracing import median

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    st = {name: median(v) for name, v in tr.self_times().items()}
    out = {name: 0.0 if unit == "s" else 0 for name, unit in units.items()}
    for name, value in st.items():
        if f"{name}_s" in out:
            out[f"{name}_s"] = value

    def minus(whole: str, *parts: str) -> float:
        return st[whole] - sum(st.get(p, 0.0) for p in parts) if whole in st else 0.0

    out["synth.rest_s"] = minus("synth.synthesize", "spectrum.grid_fast")
    out["estimate.search_s"] = minus(
        "estimate.whittle_fast", "estimate.periodogram", "estimate.sigma")
    out["estimate.search_exact_s"] = minus(
        "estimate.whittle_exact", "estimate.periodogram", "estimate.sigma_exact")
    out.update(bench.layer)
    out.update(bench.computed)
    out["trace.overhead_s"] = bench.pass_seconds(True) - bench.pass_seconds(False)
    out["trace.spans"] = len(tr.spans)
    return {k: {"value": v, "unit": units[k]} for k, v in out.items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("whittle-battery", "long-path"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps a running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    spec = load_spec()
    import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads
    from tracing import Tracer, describe, median

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}-{time.time_ns()}"
    work = os.path.join(OUT, f"work-{run_id}")
    os.makedirs(work)
    try:
        bench = workloads.Bench(ROOT, work, args.seed)
        wl = workloads.WORKLOADS[args.workload](bench)
        setup = time_setup(bench, args.workload)
        wl.warmup()

        tr = Tracer(run_id, record=False)
        # One whole pass, or two with tracing (an untraced and a traced one),
        # so that every operation of a pass has a sample.
        min_steps = wl.ROUND * (1 + args.trace)
        deadline = time.perf_counter() + args.seconds
        p = 0
        while time.perf_counter() < deadline or p < min_steps:
            tr.record = bool(args.trace) and (p // wl.ROUND) % 2 == 1
            try:
                wl.run_step(p, tr)
            except Exception as exc:  # a crash in the package is a failed operation
                bench.check(False, f"step {p} raised {exc!r}")
            p += 1
        if args.trace and bench.failed == 0:
            tr.record = True
            with tr.span("layers"):
                wl.layers(tr)
            tr.write(os.path.join(OUT, f"spans-{run_id}.jsonl"))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s = bench.samples
    named = {"setup_s": (setup, "s")}
    named.update({k: (s[k], "s") for k in wl.REPORT if k in s})
    if args.workload == "long-path":
        named["synth_msamples_per_s"] = ([wl.N / 1e6 / x for x in s["long_synth_s"]], "1e6/s")
    pass_s = bench.pass_seconds()
    env = environment(args.workload)
    env["computed"] = bench.computed
    print("# env " + json.dumps(env))
    for k, (values, unit) in named.items():
        print(f"# {args.workload} {k} = {describe(values)} {unit}")
    print(f"# {args.workload} {wl.TOTAL} = {pass_s:.6g} s "
          f"(sum of the medians of one pass's {len(bench.ops[False])} operations)")
    print(f"# {args.workload} peak_rss_mb = {peak_rss_mb:.1f} MB")
    print(f"# {args.workload} failed_frac = {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} operations)")
    for what in bench.failures[:20]:
        print(f"# failed: {what}")

    if args.trace:
        metrics = layer_metrics(spec, bench, tr)
        for k, m in metrics.items():
            print(f"# layer {k} = {m['value']:.6g} {m['unit']}")
    else:
        values = {"setup_s": median(setup), "pass_s": pass_s, "peak_rss_mb": peak_rss_mb}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = None  # no successful sample
    print(json.dumps({
        "correct": bench.failed == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
