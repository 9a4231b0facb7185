"""amisim benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload collect --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones (meter_slots_per_s, setup_s,
peak_rss_mb); with --trace 1 they are the per-layer ones from spans.py, and
the spans themselves are written under perfbench/out/. See README.md.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import bench_env  # noqa: E402

bench_env.prepare()

import numpy as np  # noqa: E402

import amisim  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
MIN_ROUNDS = 2  # the second round is what the determinism check compares


def machine_facts():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else ""
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in bench_env.THREAD_VARS},
        "amisim": amisim.__version__,
    }


def run(args):
    import_s = time.perf_counter() - _START
    workload = WORKLOADS[args.workload](args.seed)
    tracer = spans.Tracer() if args.trace else None

    setup_s = []
    for _ in range(1 if tracer else SETUP_REPEATS):
        begin = time.perf_counter()
        if tracer:
            tracer.install()
        try:
            workload.setup()
        finally:
            if tracer:
                tracer.uninstall()
        setup_s.append(time.perf_counter() - begin)

    if tracer:
        round_first = len(tracer.spans)
        tracer.counts.clear()
    round_s = []  # (seconds, traced)
    first_prints = None
    attempted = failed = 0
    try:
        while True:
            # A traced run alternates plain and traced rounds, plain first.
            traced = tracer is not None and len(round_s) % 2 == 1
            if traced:
                tracer.install()
            begin = time.perf_counter()
            try:
                outcome = workload.run_round()
            finally:
                elapsed = time.perf_counter() - begin
                if traced:
                    tracer.uninstall()
            round_s.append((elapsed, traced))
            prints, bad = workload.check(outcome)
            if first_prints is None:
                first_prints = prints
            bad |= {i for i, (a, b) in enumerate(zip(prints, first_prints)) if a != b}
            attempted += workload.ops
            failed += len(bad)
            measured = sum(s for s, _ in round_s)
            typical = statistics.median(s for s, _ in round_s)
            if len(round_s) >= MIN_ROUNDS and measured + typical > args.seconds:
                break
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()

    facts = machine_facts()
    if tracer:
        traced_s = [s for s, t in round_s if t]
        plain_s = [s for s, t in round_s if not t]
        overhead_s = statistics.median(traced_s) - statistics.median(plain_s)
        values = spans.layer_metrics(tracer, round_first, len(traced_s), overhead_s)
        metrics = {
            name: {"value": values[name], "unit": unit} for name, unit in spans.LAYER_METRICS
        }
    else:
        metrics = {
            "meter_slots_per_s": {
                "value": statistics.median(workload.meter_slots / s for s, _ in round_s),
                "unit": "1/s",
            },
            "setup_s": {"value": import_s + statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    os.makedirs(bench_env.OUT_DIR, exist_ok=True)
    stem = os.path.join(bench_env.OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "result": result,
                "machine": facts,
                "import_s": import_s,
                "setup_s": setup_s,
                "rounds": [{"seconds": s, "traced": t} for s, t in round_s],
            },
            fh,
            indent=2,
        )
    if tracer:
        tracer.dump(stem + "-spans.json", {"workload": args.workload, "seed": args.seed})
    print("machine: " + json.dumps(facts), file=sys.stderr)
    print(json.dumps(result))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run(parser.parse_args(argv))


if __name__ == "__main__":
    main()
