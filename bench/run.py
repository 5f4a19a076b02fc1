"""orbsemi benchmark: one workload, one process, one client, no threads.

    python3 bench/run.py --workload check-suite --seed 0 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The run repeats the workload's fixed list of operations, one pass
after another, and stops at the end of the pass that is nearest to
``--seconds`` (at least one pass).  Before
each pass it sets up ``SETUP_ROUNDS_PER_PASS`` times, each a fresh import of
orbsemi plus the workload's objects; the pass uses the last of them.  Each
operation is judged by the oracle in ``workloads`` as soon as it returns;
judging is not timed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced pass, then traced passes with the wrappers in ``tracing`` installed,
writes the spans to ``.bench_out/`` and reports the per-module metrics of the
first traced pass (times as the median over traced passes) plus the tracing
overhead.  The last line of standard output is the JSON result; the line
before it holds the environment, sample counts, op_fail_ratio and the
report digest.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_ROUNDS_PER_PASS = 5


def _import_fresh():
    """Import orbsemi from src/ as if for the first time in this process."""
    for name in [m for m in sys.modules if m == "orbsemi" or m.startswith("orbsemi.")]:
        del sys.modules[name]
    orb = importlib.import_module("orbsemi")
    importlib.import_module("orbsemi.cli")
    importlib.import_module("orbsemi.tableio")
    if Path(orb.__file__).resolve().parent != (SRC / "orbsemi").resolve():
        raise ImportError(f"orbsemi imported from {orb.__file__}, not from src/")
    return orb


def _cpu():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(ops, probe, tracer=None):
    """Run every operation once.  An operation's wall and CPU time leave out
    the speed probe's kernel and are scaled by the machine's speed around it
    (see speed.py).  Each outcome is judged and hashed as soon as the
    operation returns and is then dropped; judging is not timed."""
    times, cpus, verdicts, digest, cases_to_kill = [], [], [], hashlib.sha256(), 0
    unscaled = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
            frame = tracer.enter("op." + op.kind)
        paused_wall, paused_cpu = probe.paused()
        c0, t0 = _cpu(), time.perf_counter()
        try:
            value, ran = op.run(), True
        except Exception as e:  # an operation that raises is a failed operation
            traceback.print_exc()
            value, ran = f"{type(e).__name__}: {e}", False
        t1, c1 = time.perf_counter(), _cpu()
        if tracer is not None:
            tracer.exit(frame, True)
        wall = t1 - t0 - (probe.wall - paused_wall)
        k = probe.scale(t0, t1)
        unscaled += wall
        times.append(wall * k)
        cpus.append((c1 - c0 - (probe.cpu - paused_cpu)) * k)
        verdict, text = op.judge(value) if ran else ("fail", value)
        verdicts.append(verdict)
        digest.update(f"{op.name}\n{text}\n".encode())
        if op.kind == "mutant" and ran:
            cases_to_kill += value.cases_run  # cases the check ran until it failed
        del value, text
    return {"wall": sum(times), "cpu": sum(cpus), "unscaled": unscaled, "times": times,
            "verdicts": verdicts, "sha256": digest.hexdigest(),
            "cases_to_kill": cases_to_kill}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r} "
                f"(known: {', '.join(workloads.WORKLOADS)})")
    if not (SRC / "orbsemi" / "__init__.py").is_file():
        print(f"error: no orbsemi sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    make_inputs, setup = workloads.WORKLOADS[args.workload]
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    setup_times, untraced, traced = [], [], []
    tracer = tracing.Tracer() if args.trace else None
    probe = speed.Probe()
    try:
        inputs = make_inputs(args.seed, workdir)
        if tracer is None:  # the traced run's times stay unscaled
            probe.start()
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            # Set-up rounds before every pass spread the set-up samples over
            # the whole run, and every pass starts from fresh objects.
            for _ in range(SETUP_ROUNDS_PER_PASS):
                gc.collect()  # every round starts from the same heap state
                paused = probe.wall
                t0 = time.perf_counter()
                orb = _import_fresh()
                ops = setup(orb, inputs)
                t1 = time.perf_counter()
                setup_times.append((t1 - t0 - (probe.wall - paused)) * probe.scale(t0, t1))
            if tracer is None or not untraced:  # a traced run starts untraced
                untraced.append(run_pass(ops, probe))
            else:
                tracing.install(orb, tracer)
                tracer.reset()
                result = run_pass(ops, probe, tracer)
                result["layers"] = tracing.layer_metrics(tracer)
                traced.append(result)
            now = time.perf_counter()
            elapsed, last = now - start, now - pass_start
            # Stop at the pass end nearest to --seconds: now, unless one more
            # pass like the last would end nearer.
            if (tracer is None or traced) and elapsed + last / 2 >= args.seconds:
                break
        if tracer is not None:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    passes = untraced + traced
    verdicts = [v for r in passes for v in r["verdicts"]]
    failed_ops = sorted({op.name for r in passes for op, v in zip(ops, r["verdicts"])
                         if v != "ok"})
    attempted, failed = len(verdicts), sum(v != "ok" for v in verdicts)
    correct = failed == 0
    digests = {r["sha256"] for r in passes}
    # An operation's time is its median over the untraced passes; the
    # percentiles are taken over operations, so that one slow pass does not
    # decide a high percentile on a workload with few operations.
    op_times = [statistics.median(r["times"][i] for r in untraced) for i in range(len(ops))]
    op_p95 = statistics.quantiles(op_times, n=20, method="inclusive")[18]

    if args.trace:
        for r in traced:
            r["layers"]["mutants.cases_to_kill"] = r["cases_to_kill"]
        first = traced[0]["layers"]
        metrics = {}
        for name in (m["name"] for m in spec["per_layer"]):
            if name == "trace.overhead_s":
                metrics[name] = (statistics.mean(r["wall"] for r in traced)
                                 - untraced[0]["wall"])
            elif tracing.is_time(name):
                metrics[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
            else:
                metrics[name] = first.get(name, 0)
        counts = [{k: v for k, v in r["layers"].items() if not tracing.is_time(k)}
                  for r in traced]
        counts_repeat = all(c == counts[0] for c in counts)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.mean(r["wall"] for r in untraced),
            "cpu_s": statistics.mean(r["cpu"] for r in untraced),
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_p95_ms": op_p95 * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        counts_repeat = None

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "random"),
        },
        "setup_rounds": len(setup_times),
        "speed_samples": len(probe.samples),
        "speed_kernel_ms_quartiles": ([round(t * 1e3, 3) for t in
                                       statistics.quantiles(probe.samples, n=4)]
                                      if len(probe.samples) > 1 else None),
        "passes_untraced": len(untraced),
        "passes_traced": len(traced),
        "ops_per_pass": len(ops),
        "pass_run_s": [round(r["wall"], 4) for r in passes],
        "pass_run_s_unscaled": [round(r["unscaled"], 4) for r in passes],
        "op_samples": len(op_times),
        "op_sample_passes": len(untraced),
        "op_p95_samples_beyond": sum(t > op_p95 for t in op_times),
        "op_fail_ratio": failed / attempted,
        "failed_ops": failed_ops,
        "reports_sha256": untraced[0]["sha256"],
        "reports_identical_across_passes": len(digests) == 1,
        "layer_counts_repeat_across_passes": counts_repeat,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} op_fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    print(json.dumps(info, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
