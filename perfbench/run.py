"""Benchmark of the ngm package, built from the sources next to it.

    python3 perfbench/run.py --workload pure-highcut --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25
    python3 perfbench/run.py --check

One process runs one workload (``all`` runs each in a fresh process).
Items are timed with tracing off; whole groups run for as close to
``--seconds`` as they allow, and at least one group always runs.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end metrics (``--trace 0``) or
the per-layer metrics (``--trace 1``).  Every computed value is printed
on an ``item`` line before it, so two commits compare value by value.

``--trace 1`` runs one pass of the workload untraced, then the same pass
with every public ngm function wrapped (see tracing.py), checks that the
values are bit-identical, reports per-layer numbers and writes the spans
to perfbench/out/.  ``--check`` runs all three workloads at toy sizes,
traced and untraced, and checks the harness against BENCHMARK.json.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")

# set-up as users pay it: importing the package and its command line
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, {src!r}); t = time.perf_counter(); "
    "import ngm, ngm.cli; print(time.perf_counter() - t)"
)
SETUP_SAMPLES = 3

if not os.path.isfile(os.path.join(SRC, "ngm", "__init__.py")):
    sys.exit(f"run.py: no ngm sources under {SRC}")
# One BLAS thread, set before numpy loads.  At OpenBLAS's default of one
# thread per CPU the extra threads spin through ngm's small GEMMs: on a
# 2-CPU machine a 513-point synthesis takes the same wall time either way
# but twice the CPU time, so the run would compete for both CPUs.
BLAS_THREADS_ENV = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.path.insert(0, SRC)
_t0 = time.perf_counter()
import ngm  # noqa: E402
import ngm.cli  # noqa: E402,F401
FIRST_SETUP_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    with open("/proc/self/maps") as handle:
        libs = {line.split()[-1] for line in handle if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_facts(ngm_workers_env):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS_given": BLAS_THREADS_ENV,
        "NGM_WORKERS": ngm_workers_env,
        "ngm_workers": ngm.worker_count(),
        "loadavg_start": os.getloadavg(),
    }


def setup_seconds():
    """Median import time over this process and fresh interpreters."""
    samples = [FIRST_SETUP_S]
    code = SETUP_CODE.format(src=SRC)
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def execute(item, tracer):
    record = {"id": item.ident, "kind": item.kind, "values": [], "note": ""}
    if tracer is not None:
        tracer.item = item.ident
    start = time.perf_counter()
    try:
        raw = item.compute()
    except Exception as exc:  # a failed item is counted, the run goes on
        record["status"], record["note"] = workloads.FAILED, f"{type(exc).__name__}: {exc}"
        return record
    finally:
        record["seconds"] = time.perf_counter() - start
        if tracer is not None:
            tracer.item = None
    record["values"], record["status"], record["note"] = item.check(raw)
    return record


def run_groups(groups, seconds=None, max_groups=None, tracer=None):
    """Run whole groups while that ends the run nearer to `seconds`.

    A next group is started if, taking as long as the last one, it would
    end less than half a group past `seconds`; or run `max_groups` groups.
    """
    records = []
    start = time.perf_counter()
    last = 0.0
    for count, group in enumerate(groups):
        if max_groups is not None and count >= max_groups:
            break
        if seconds is not None and count and time.perf_counter() - start + last / 2 > seconds:
            break
        began = time.perf_counter()
        done = [execute(item, tracer) for item in group.items]
        if group.finish is not None:
            group.finish(done)
        last = time.perf_counter() - began
        records += done
    return records, time.perf_counter() - start


def make_groups(name, seed, quick, workdir):
    factory = workloads.WORKLOADS[name][0]
    if name == "cli-commands":
        return factory(seed, quick, workdir)
    return factory(seed, quick)


def end_to_end(records, wall, setup_s):
    ok = [r["seconds"] for r in records if r["status"] == workloads.OK]
    if ok:
        p50 = statistics.median(ok)
        p90 = statistics.quantiles(ok, n=10, method="inclusive")[-1] if len(ok) > 1 else ok[0]
    else:
        p50 = p90 = float("nan")
    return {
        "setup_s": setup_s,
        "items_per_s": len(ok) / wall,
        "item_p50_s": p50,
        "item_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok) / len(records),
    }


def command_seconds(records):
    """Median untraced wall time of each CLI command (0 where none ran)."""
    out = {}
    for command in workloads.CLI_COMMANDS:
        times = [r["seconds"] for r in records if r["kind"] == command]
        out[f"cli.{command}.wall_s"] = statistics.median(times) if times else 0.0
    return out


def values_of(records):
    return [(r["id"], label, repr(x)) for r in records for label, x in r["values"]]


def print_records(records):
    kinds = {}
    for r in records:
        text = " ".join(f"{label}={x!r}" for label, x in r["values"])
        note = f" # {r['note']}" if r["note"] else ""
        print(f"item {r['id']} {r['status']} {r['seconds']:.6f}s {text}{note}")
        if r["status"] == workloads.OK:
            kinds.setdefault(r["kind"], []).append(r["seconds"])
    for kind, times in kinds.items():
        print(f"kind {kind} n={len(times)} median_s={statistics.median(times):.6f}")


def summary(records, metrics, units, extra_ok=True):
    failed = sum(r["status"] != workloads.OK for r in records)
    wrong = sum(r["status"] == workloads.WRONG for r in records)
    return {
        "correct": bool(wrong == 0 and extra_ok),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def run_workload(name, seed, seconds, trace, quick=False):
    """One workload in this process; returns the result object."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    try:
        if not trace:
            setup_s, samples = setup_seconds()
            print(f"setup samples_s={samples}")
            records, wall = run_groups(make_groups(name, seed, quick, workdir), seconds)
            print_records(records)
            print(f"wall_s={wall:.6f} items={len(records)}")
            return summary(records, end_to_end(records, wall, setup_s), END_TO_END)
        max_groups = workloads.WORKLOADS[name][1](quick)
        base, base_wall = run_groups(make_groups(name, seed, quick, workdir), max_groups=max_groups)
        with Tracer() as tracer:
            traced, traced_wall = run_groups(make_groups(name, seed, quick, workdir),
                                             max_groups=max_groups, tracer=tracer)
        identical = values_of(base) == values_of(traced)
        print_records(base)
        print(f"wall_s untraced={base_wall:.6f} traced={traced_wall:.6f} identical={identical}")
        metrics = tracer.layer_metrics(traced_wall, base_wall)
        metrics.update(command_seconds(base))
        path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
        tracer.write(path, {"workload": name, "seed": seed, "quick": quick})
        print(f"spans written to {os.path.relpath(path, ROOT)}")
        return summary(base, metrics, per_layer_units(), extra_ok=identical)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def per_layer_units():
    return {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}


def print_metrics(result):
    for name, metric in result["metrics"].items():
        print(f"metric {name} = {metric['value']!r} {metric['unit']}")


def self_check():
    """All workloads at toy sizes: every metric present, tracing transparent."""
    spec = load_benchmark()
    problems = []
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        for name in workloads.WORKLOADS:
            result = run_workload(name, seed=1, seconds=1.0, trace=trace, quick=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != declared:
                problems.append(f"{name} {kind}: metrics {got} != declared {declared}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{name} {kind}: {result['failed']} failed, correct={result['correct']}")
    for text in problems:
        print(f"self-check: {text}")
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def run_all(args):
    """Each workload in a fresh process; prints their metrics side by side."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if done.returncode != 0:
            sys.stderr.write(done.stdout + done.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    for name, result in results.items():
        print(f"== {name}: attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        print_metrics(result)
    print(json.dumps(results))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true",
                        help="quick self-check of the harness at toy sizes")
    args = parser.parse_args(argv)
    # the workloads are defined for one worker thread, the library default
    ngm_workers_env = os.environ.pop("NGM_WORKERS", None)
    if args.check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    facts = run_facts(ngm_workers_env)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    facts["loadavg_end"] = os.getloadavg()
    print("facts " + json.dumps(facts))
    print_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
