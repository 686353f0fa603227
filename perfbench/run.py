#!/usr/bin/env python3
"""Benchmark of the pianomotion pipeline on seeded synthetic scenes.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload capture|signals|retrieve \\
        --seed N --seconds S --trace 0|1

The scene is generated from the seed and written to files first.  With
--trace 0 the workload's CLI chain is timed untraced (repeated while it
fits in S seconds, at least once), its step loop is timed, and the
end-to-end metrics are printed.  With --trace 1 the chain runs once
untraced and once with every public library function wrapped, and the
per-layer metrics plus the tracing overhead are printed.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Times are wall times rescaled to a reference machine speed by interleaved
kernel samples (refclock.py).  The process is single-threaded: BLAS/OpenMP
pools are pinned to one thread before numpy loads.
"""

import os

BLAS_THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from refclock import REF_KERNEL_S, RefClock  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = ("import pianomotion.cli\n"
              "from pianomotion import hand, keyboard\n"
              "hand.SkeletonPair.default()\n"
              "keyboard.build_keyboard()\n")
KERNEL_CODE = ("import refclock\n"
               "c = refclock.RefClock()\n"
               "for _ in range(200): c.sample()\n"
               "d = sorted(c.durations)\n"
               "print(d[len(d) // 2], sum(d))\n")


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    return env


def setup_seconds():
    """Reference seconds for a fresh interpreter to import the CLI and its
    world model.  The child then times the reference kernel on its own CPU,
    and that kernel time is left out of the measured wall time."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE + KERNEL_CODE], env=_child_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - start
    median_s, total_s = (float(v) for v in proc.stdout.split())
    return (wall - total_s) * REF_KERNEL_S / median_s


def import_seconds():
    """(pianomotion.cli, scipy) cumulative import seconds from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import pianomotion.cli"],
                          env=_child_env(), check=True, capture_output=True, text=True,
                          timeout=120)
    entries = []                                   # (depth, name, cumulative s)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) / 1e6))
    cli_s = scipy_s = 0.0
    for i, (depth, name, cumulative) in enumerate(entries):
        # importtime prints children before their parent, one level deeper.
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if name == "pianomotion.cli":
            cli_s = cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_s += cumulative
    return cli_s, scipy_s


def environment(args, scene, values):
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = proc.stdout.strip() or commit
    sizes = {"frames": scene["n_frames"]}
    for key in ("n_onsets", "query_frames"):
        if key in scene:
            sizes[key] = scene[key]
    if "index_mb" in values:
        sizes["index_mb"] = round(values["index_mb"], 3)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "commit": commit, "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "scene": sizes}


# The kind of reference kernel that matches each workload's chain: the
# retrieval scan streams memory, every other stage is interpreter-bound.
CHAIN_CLOCK = {"capture": "cpu", "signals": "cpu", "retrieve": "memory"}


def _interleaved(args, scene, work, chain, steps, clocks, on_middle=None):
    """Run the chain with the step loop spread over its stages.

    Slow and fast spells of a shared machine last seconds, so steps taken in
    one burst would sample one spell; a chunk before the chain and one after
    each stage spread them over the run.  The chain clock samples in the
    background during stages, the step clock between steps.  Returns (first
    chain outcome, stepper).
    """
    from workloads import N_STEPS, STAGES
    chain_clock, step_clock = clocks
    stepper = steps(scene)
    stepper.clock = step_clock
    chunk = -(-N_STEPS // (STAGES[args.workload] + 1))
    done = []

    def after_stage():
        chain_clock.stop_timer()
        done.append(1)
        stepper.take(min(chunk, N_STEPS - len(stepper.intervals)))
        if on_middle and len(done) == STAGES[args.workload] // 2:
            on_middle()
        chain_clock.start_timer()

    stepper.take(chunk)
    chain_clock.start_timer()
    try:
        outcome = chain(scene, work, after_stage)
    finally:
        chain_clock.stop_timer()
    stepper.take(N_STEPS - len(stepper.intervals))
    return outcome, stepper


def _clocks(args):
    clocks = (RefClock(CHAIN_CLOCK[args.workload]), RefClock("cpu"))
    for clock in clocks:
        for _ in range(5):                         # warm the kernels up
            clock.sample()
    return clocks


def _chain_seconds(clock, outcome):
    return sum(clock.scaled(start, end) for _, start, end in outcome.intervals)


def _timed_chain(scene, work, chain, clock):
    clock.start_timer()
    try:
        return chain(scene, work)
    finally:
        clock.stop_timer()


def measure(args, scene, work, chain, steps):
    """Untraced run: setup time, chain repeated within --seconds, step loop."""
    from workloads import workload_frames
    clocks = _clocks(args)
    chain_clock, step_clock = clocks
    # The in-process import above has already written the bytecode cache.
    setup = [setup_seconds()]
    start = time.perf_counter()
    first, stepper = _interleaved(args, scene, work, chain, steps, clocks,
                                  lambda: setup.append(setup_seconds()))
    outcomes = [first]
    wall = sum(end - begin for _, begin, end in first.intervals)
    while time.perf_counter() - start + wall <= args.seconds:
        outcomes.append(_timed_chain(scene, work, chain, chain_clock))
    setup.append(setup_seconds())
    frames = workload_frames(scene)
    failures = [f for o in outcomes for f in o.failures]
    if stepper.problem:
        failures.append(stepper.problem)
    attempted = sum(len(o.intervals) for o in outcomes) + 1
    steps_s = [step_clock.scaled(begin, end) for begin, end in stepper.intervals]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "frames_per_s": (statistics.median(frames / _chain_seconds(chain_clock, o)
                                           for o in outcomes), "frames/s"),
        "step_ms_p50": (1e3 * statistics.median(steps_s), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "passed_frac": ((attempted - len(failures)) / attempted, "ratio"),
    }
    # The step tail is printed but not bounded: on this host it follows the
    # machine's sub-second stalls more than the program (perfbench/README.md).
    notes = {"chains": len(outcomes), "steps": len(steps_s), "setup_s": setup,
             "step_ms_p95": 1e3 * float(np.percentile(steps_s, 95)),
             "stage_s": [(n, chain_clock.scaled(b, e), e - b) for n, b, e in first.intervals],
             "kernel_ms_p50": [1e3 * statistics.median(c.durations) for c in clocks],
             "values": first.values}
    return metrics, attempted, failures, notes


def traced(args, scene, work, chain, steps):
    """Traced run: untraced chain, then traced chain and step loop."""
    from spans import Tracer
    clocks = _clocks(args)
    base = _timed_chain(scene, work, chain, clocks[0])
    tracer = Tracer()
    tracer.install()
    try:
        outcome, stepper = _interleaved(args, scene, work, chain, steps, clocks)
    finally:
        tracer.uninstall()
    failures = base.failures + outcome.failures + ([stepper.problem] if stepper.problem else [])
    attempted = len(base.intervals) + len(outcome.intervals) + 1
    metrics = tracer.layer_metrics()
    cli_s, scipy_s = import_seconds()
    v = outcome.values
    base_s, traced_s = _chain_seconds(clocks[0], base), _chain_seconds(clocks[0], outcome)
    metrics.update({
        "cli.import_s": (cli_s, "s"),
        "cli.import_scipy_s": (scipy_s, "s"),
        "reconstruction.fit_skeleton.joint_err_mm": (v.get("joint_err_mm", 0.0), "mm"),
        "midi_ik.refine.errors_before": (v.get("errors_before", 0), "count"),
        "midi_ik.refine.errors_after": (v.get("errors_after", 0), "count"),
        "metrics.clip_metrics.press_f1": (v.get("press_f1", 0.0), "%"),
        "retrieval.index_mb": (v.get("index_mb", 0.0), "MB"),
        "trace.overhead_s": (traced_s - base_s, "s"),
    })
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, "spans-%s-%d.json" % (args.workload, args.seed)))
    notes = {"untraced_chain_s": base_s, "traced_chain_s": traced_s,
             "stage_s": [(n, e - b) for n, b, e in outcome.intervals], "values": v}
    return metrics, attempted, failures, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("capture", "signals", "retrieve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pianomotion", "cli.py")):
        sys.stderr.write("perfbench: no pianomotion sources under %s; run from the root "
                         "of a source checkout\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    scene_fn, chain, steps = workloads.WORKLOADS[args.workload]
    work = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        scene = scene_fn(args.seed, work)
        run = traced if args.trace else measure
        metrics, attempted, failures, notes = run(args, scene, work, chain, steps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args, scene, notes["values"])
    print(json.dumps({"env": env, "notes": notes, "failures": failures}, default=str))
    for name, (value, unit) in metrics.items():
        print("%-52s %14.6g %s" % (name, value, unit))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
