#!/usr/bin/env python3
"""Pipeline benchmark of hypatia: one workload per process, end to end.

    python3 pipeline_bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds pipeline_bench/ (a CMake package
over src/) into .bench_build/pipeline_bench, runs the measuring binary
for one workload in fresh processes (one workload each), checks its
outputs and prints every metric by name and unit. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (see NOTES.md). End-to-end times are at the reference
host speed: a probe process beside the workload's processes keeps
timing two fixed kernels, and step and set-up times are divided by how
much slower than the reference host it ran (NOTES.md, "Reference
speed").

Refuses to run (exit 2) when any HYPATIA_* variable is set: those knobs
change what is measured. Exits non-zero without a result when the build
or the measuring process fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "pipeline_bench")
BINARY = os.path.join(BUILD_DIR, "pipeline_bench")
PROBE = os.path.join(BUILD_DIR, "pipeline_bench_probe")
# Two lanes on the 4-core shared VM: four lanes waited on whichever
# lane the host slowed, and their runs spread twice as wide (NOTES.md).
MAX_LANES = 2
BUILD_JOBS = 4
PROCESSES = 4
PROCESS_TIMEOUT_S = 40  # all PROCESSES end within 180 s
# pipeline_bench_probe's kernel times on the reference host. Any fixed
# pair works; these are near what a 4-core x86 VM reads when it is quiet.
REF_ALU_S = 0.012
REF_MEM_S = 0.015

WORKLOADS = (
    "flowsim_steady",
    "flowsim_churn_ckpt",
    "gen2_sweep",
    "packet_tcp",
)

END_TO_END_UNITS = {
    "rtf": "virt_s/s",
    "step_p50_ms": "ms",
    "step_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "check_pass_frac": "frac",
}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


# --- rules the self-tests cover -----------------------------------------

def hypatia_knobs(environ):
    """Names of the HYPATIA_* variables set in `environ`, sorted."""
    return sorted(k for k in environ if k.startswith("HYPATIA_"))


TAIL_BEYOND = 10


def slowness(probe):
    """How much slower than the reference host one probe sample ran: the
    geometric mean of its two kernel-time ratios."""
    return math.sqrt(probe["alu_s"] / REF_ALU_S * probe["mem_s"] / REF_MEM_S)


def run_slowness(probes):
    """The run's slowness: the first quartile over its probe samples.

    The best-step profile keeps each step's fastest repeat, which ran
    while the host was fast, so the host's speed is read from its faster
    samples too.
    """
    values = [slowness(p) for p in probes]
    return statistics.quantiles(values, n=4)[0] if len(values) > 1 else values[0]


def tail(samples, beyond=TAIL_BEYOND):
    """The highest percentile with at least `beyond` samples above it.

    Returns (value, percentile): the (beyond+1)-th largest sample, and
    the share of samples at or below its rank, in percent.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no tail with {beyond} beyond it")
    ordered = sorted(samples)
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


# --- build and run ----------------------------------------------------------

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; True when the binary changed."""
    jobs = str(min(BUILD_JOBS, os.cpu_count() or 1))
    before = os.path.getmtime(BINARY) if os.path.exists(BINARY) else None
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs,
                    "--target", "pipeline_bench", "pipeline_bench_probe",
                    "pipeline_bench_selftest"],
                   check=True, stdout=sys.stderr)
    return before != os.path.getmtime(BINARY)


def git_describe():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                             env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def read_probes(path):
    with open(path) as f:
        return [{"alu_s": float(alu), "mem_s": float(mem)}
                for alu, mem in (line.split() for line in f if line.strip())]


def measure(workload, seed, seconds, trace, lanes, work_dir):
    """Runs the workload in PROCESSES fresh processes one after another,
    each for an equal share of what is left of `seconds`, and pools
    their episodes.

    A process keeps one heap layout and thread placement for its whole
    life, and on a shared box that alone moved a process's speed by
    10-20% against the next one. Pooling several processes lets the
    best-step profile take each step's fastest repeat across them.

    The host-speed probe samples the host beside them the whole time; it
    is killed, and waited for, on every way out.
    """
    raws = []
    os.makedirs(work_dir, exist_ok=True)
    probe_path = os.path.join(work_dir, "probe.txt")
    start = time.monotonic()
    with open(probe_path, "w") as probe_out:
        probe = subprocess.Popen(
            [PROBE, "--seconds", str(PROCESSES * PROCESS_TIMEOUT_S)], stdout=probe_out)
        try:
            for i in range(PROCESSES):
                share = max(0.0, seconds - (time.monotonic() - start)) / (PROCESSES - i)
                raw_path = os.path.join(work_dir, f"episodes-{i}.json")
                cmd = [BINARY, "--workload", workload, "--seed", str(seed),
                       "--seconds", str(share), "--trace", str(trace),
                       "--lanes", str(lanes), "--work-dir", work_dir, "--out", raw_path]
                subprocess.run(cmd, check=True, timeout=PROCESS_TIMEOUT_S,
                               stdout=sys.stderr)
                with open(raw_path) as f:
                    raws.append(json.load(f))
        finally:
            probe.kill()
            probe.wait()
    probes = read_probes(probe_path)
    if not probes:
        raise RuntimeError("the host-speed probe took no sample")
    raw = raws[0]
    raw["episodes"] = [ep for r in raws for ep in r["episodes"]]
    raw["peak_rss_mb"] = max(r["peak_rss_mb"] for r in raws)
    raw["probes"] = probes
    return raw


# --- metrics ------------------------------------------------------------------

def best_step_profile(step_lists):
    """Per step, the fastest of its repeats across episodes.

    Every episode of a seed runs the same deterministic steps, so step k
    of each episode is one repeat of the same work. Taking the fastest
    repeat of each step drops the slowdowns other tenants of the machine
    cause (seconds-long, tens of percent on a shared box) and keeps what
    the program itself costs, the heavy steps of the workload included.
    """
    return [min(steps) for steps in zip(*step_lists)]


def step_metrics(profile, step_virtual_s):
    tail_s, tail_pct = tail(profile)
    return {
        "rtf": len(profile) * step_virtual_s / sum(profile),
        "step_p50_ms": 1e3 * statistics.median(profile),
        "step_tail_ms": 1e3 * tail_s,
    }, tail_pct


def end_to_end(raw, plain, setups):
    """End-to-end metrics at the reference host speed. The wall-clock
    values go into the notes (and so into the run record)."""
    factor = run_slowness(raw["probes"])
    wall_profile = best_step_profile([ep["step_s"] for ep in plain])
    wall, tail_pct = step_metrics(wall_profile, raw["step_virtual_s"])
    wall["setup_s"] = statistics.median(ep["setup_s"] for ep in plain + setups)
    # Dividing every time by one factor keeps the best-step profile's
    # choice of repeats; only the scale changes.
    values, _ = step_metrics([s / factor for s in wall_profile], raw["step_virtual_s"])
    values["setup_s"] = wall["setup_s"] / factor
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    return values, {
        "tail_percentile": tail_pct,
        "steps_per_episode": len(wall_profile),
        "episodes": len(plain),
        "setups": len(plain) + len(setups),
        "wall": wall,
        "slowness": factor,
        "probe_samples": len(raw["probes"]),
    }


def per_layer(raw, by_mode):
    plain, traced = by_mode["plain"], by_mode["traced"]
    out = {name: statistics.median(ep["layers"][name] for ep in traced)
           for name in traced[0]["layers"] if name != "attributed_s"}
    step_total = lambda eps: sum(best_step_profile([ep["step_s"] for ep in eps]))
    ckpt_off = by_mode.get("ckpt_off", [])
    # Checkpoint cost by difference: the same steps with checkpointing off.
    out["ckpt.self_s"] = step_total(plain) - step_total(ckpt_off) if ckpt_off else 0.0
    out["ckpt.image_bytes"] = raw["ckpt_image_bytes"]
    out["trace_overhead_frac"] = step_total(traced) / step_total(plain) - 1.0
    out["unattributed_frac"] = statistics.median(
        1.0 - (ep["layers"]["attributed_s"] + out["ckpt.self_s"]) / ep["wall_s"]
        for ep in traced)
    return out


def check_digests(episodes, reference_path):
    """Every checked episode of a run must reproduce one digest, and the
    same digest as earlier runs of this seed with this build."""
    digests = {ep["digest"] for ep in episodes if ep["mode"] != "setup"}
    reference = None
    if os.path.exists(reference_path):
        with open(reference_path) as f:
            reference = f.read().strip()
    elif len(digests) == 1:
        os.makedirs(os.path.dirname(reference_path), exist_ok=True)
        with open(reference_path, "w") as f:
            f.write(next(iter(digests)) + "\n")
        reference = next(iter(digests))
    mismatched = [ep for ep in episodes
                  if ep["mode"] != "setup" and ep["digest"] != reference]
    return sorted(digests), reference, mismatched


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    knobs = hypatia_knobs(os.environ)
    if knobs:
        log("pipeline_bench: refusing to run with " + ", ".join(knobs) +
            " set; unset every HYPATIA_* variable first")
        return 2

    lanes = min(MAX_LANES, os.cpu_count() or 1)
    seed = args.seed % 2**64
    work_dir = os.path.join(BUILD_DIR, "work", f"{args.workload}-{os.getpid()}")
    try:
        if build():
            shutil.rmtree(os.path.join(BUILD_DIR, "digests"), ignore_errors=True)
        raw = measure(args.workload, seed, args.seconds, args.trace, lanes, work_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, RuntimeError) as e:
        log(f"pipeline_bench: {e}")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    by_mode = {}
    for ep in raw["episodes"]:
        by_mode.setdefault(ep["mode"], []).append(ep)
    digests, reference, mismatched = check_digests(
        raw["episodes"],
        os.path.join(BUILD_DIR, "digests", f"{args.workload}-{seed}.txt"))
    attempted = sum(ep["checks_attempted"] for ep in raw["episodes"])
    failed = sum(ep["checks_failed"] for ep in raw["episodes"])
    failed += sum(ep["checks_attempted"] - ep["checks_failed"] for ep in mismatched)
    correct = failed == 0 and not mismatched

    if args.trace:
        values = per_layer(raw, by_mode)
        values["check_fail_frac"] = failed / attempted
        units = {name: layer_unit(name) for name in values}
        notes = {}
    else:
        values, notes = end_to_end(raw, by_mode["plain"], by_mode.get("setup", []))
        values["check_pass_frac"] = 1.0 - failed / attempted
        units = END_TO_END_UNITS

    with open(os.path.join(BUILD_DIR, "build_info.json")) as f:
        record = json.load(f)
    record.update({
        "benchmark": "pipeline_bench", "workload": args.workload, "seed": seed,
        "seconds": args.seconds, "trace": args.trace, "isa": raw["isa"],
        "cores": os.cpu_count(), "lanes": raw["lanes"], "processes": PROCESSES,
        "git_describe": git_describe(),
        "digests": digests, "reference_digest": reference, **notes,
    })
    metrics = {name: {"value": values[name], "unit": units[name]} for name in values}

    print(f"pipeline_bench {args.workload} seed={seed} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>16.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'check_fail_frac':28s} {failed / attempted:>16.6g} frac")
        print(f"  step times: best of {notes['episodes']} repeats of each of "
              f"{notes['steps_per_episode']} steps; step_tail_ms is their "
              f"p{notes['tail_percentile']:.2f}; setup_s is the median of "
              f"{notes['setups']} set-ups")
        wall = notes["wall"]
        print(f"  times above are at the reference host speed; the host ran "
              f"{notes['slowness']:.4f}x as slow as the reference, and the "
              f"wall-clock values are rtf {wall['rtf']:.6g}, "
              f"step_p50_ms {wall['step_p50_ms']:.6g}, step_tail_ms "
              f"{wall['step_tail_ms']:.6g}, setup_s {wall['setup_s']:.6g}")
    print("run record: " + json.dumps(record, sort_keys=True))
    os.makedirs(os.path.join(BUILD_DIR, "results"), exist_ok=True)
    result_path = os.path.join(
        BUILD_DIR, "results",
        f"pipeline_bench-{args.workload}-seed{seed}-trace{args.trace}.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(result_path, "w") as f:
        json.dump({"record": record, "result": result}, f, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
