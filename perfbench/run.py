"""Run one benchmark workload against the sparsemod source in this checkout.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 24 --trace 0

Workloads: survey, large_prime, orders (see workloads.py).
The run sets up (import sparsemod, make the inputs from the seed, warm up
on a reduced instance), then repeats timed passes until --seconds of pass
time have elapsed (at least one), checking every pass outside the timed
region.  After each pass the set-up is timed again in a fresh interpreter,
so that the set-ups sample the whole run; setup_s is their median.  With
--trace 1 it also makes one pass with the layer wrappers installed and
reports per-layer metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 when every output
passed its checks, 1 when one did not, and 2 when the run could not start.
"""

import argparse
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
WORKLOAD_NAMES = ("survey", "large_prime", "orders")


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_commit(root):
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(root, ".git", ref))
    if commit:
        return commit
    for line in (_read(os.path.join(root, ".git", "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return f"unknown ({ref})"


def machine_record(numpy_version):
    cpu = next((line.split(":", 1)[1].strip()
                for line in (_read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level = _read(os.path.join(index, "level"))
        if level in ("2", "3") and _read(os.path.join(index, "type")) != "Instruction":
            caches[f"l{level}"] = _read(os.path.join(index, "size"))
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
    }


def peak_rss_mb():
    # ru_maxrss is in KiB; the timed passes start no other process
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up, print its seconds and exit")
    return ap.parse_args(argv)


def set_up(workload, seed, workdir):
    """Import sparsemod, make the inputs and warm up; numpy is imported
    beforehand and not timed, as it is the environment the program runs in."""
    sparsemod = importlib.import_module("sparsemod")
    if os.path.dirname(os.path.dirname(os.path.abspath(sparsemod.__file__))) != SRC:
        raise SystemExit(f"error: imported sparsemod from {sparsemod.__file__}, not {SRC}")
    workloads = importlib.import_module("perfbench.workloads")
    wl = workloads.WORKLOADS[workload](seed, workdir)
    wl.warm()
    return wl, workloads


def timed_set_up_elsewhere(args):
    """One more set-up, timed in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sparsemod", "__init__.py")):
        print(f"error: no sparsemod package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    import numpy
    from perfbench import stats, tracing

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        if args.setup_only:
            start = time.perf_counter()
            set_up(args.workload, args.seed, workdir)
            print(time.perf_counter() - start)
            return 0
        return run(args, workdir, numpy.__version__, stats, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir, numpy_version, stats, tracing):
    start = time.perf_counter()
    wl, workloads = set_up(args.workload, args.seed, workdir)
    setups = [time.perf_counter() - start]
    wl.reference = workloads.load_reference(wl.reference_name)

    tally = stats.Tally()
    walls = []
    while not walls or sum(walls) < args.seconds:
        start = time.perf_counter()
        outputs = wl.run_pass()
        walls.append(time.perf_counter() - start)
        wl.check_pass(outputs, tally, len(walls) - 1)
        setups.append(timed_set_up_elsewhere(args))
    rss = peak_rss_mb()
    setup_s = statistics.median(setups)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            start = time.perf_counter()
            outputs = wl.run_pass()
            traced_wall = time.perf_counter() - start
        wl.check_pass(outputs, tally, len(walls))
        pool = wl.pool_metrics(tracing, tally, traced_wall)
    wl.finish(tally)

    # Seconds per pass over the whole window.  The host alternates between
    # two speeds about 1.45x apart for seconds at a time; a median of passes
    # shorter than that picks one of the two, so it flips between runs.
    wall = sum(walls) / len(walls)
    machine = machine_record(numpy_version)
    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "wall_s": (wall, "s"),
                   "peak_rss_mb": (rss, "MB")}
    else:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_frac"] = (traced_wall / wall - 1, "ratio")
        metrics.update(pool)
        write_trace(args, tracer, machine)

    print("machine: " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(walls)} timed "
          f"pass(es), {sum(walls):.3f} s")
    print(f"  setup_s     = {setup_s:.4f} s median of {len(setups)} set-ups "
          f"{[round(s, 4) for s in setups]}")
    tail = stats.tail_percentile(walls)
    tail_text = (f"p{tail[0]:.1f} = {tail[1]:.4f} s" if tail else
                 "no percentile has 10 samples beyond it")
    print(f"  wall_s      = {wall:.4f} s per pass over n={len(walls)} passes; "
          f"median {statistics.median(walls):.4f} s; {tail_text}")
    print(f"  peak_rss_mb = {rss:.1f} MB")
    print(f"  failed_frac = {tally.failed_frac:.6g} ({tally.failed} of "
          f"{tally.attempted} operations failed)")
    if tracer is not None:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"  {name} = {value:.6g} {unit}")
    for key, reasons in list(tally.failures.items())[:20]:
        print(f"FAILED {key}: {'; '.join(reasons[:3])}", file=sys.stderr)

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


def write_trace(args, tracer, machine):
    """Spans and counters of the traced pass, for reading after the run."""
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"machine": machine, "workload": args.workload, "seed": args.seed,
                   "columns": ["name", "start", "end", "id", "parent"],
                   "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main())
